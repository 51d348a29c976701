"""``ProgramGen``: seeded generation of valid, machine-independent RVV programs.

Programs are emitted as a sequence of **chunks** — self-contained runs
of instructions (one logical operation each: a config change, a compute
op, a memory op with its own address setup, a whole counted loop) — so
the shrink loop (:mod:`repro.fuzz.shrink`) can drop chunks without ever
producing an invalid program.  The invariants that keep every emitted
program executable on *any* registry machine:

* AVL is always a literal in ``[1, max_avl]``, so ``vl <= max_avl``
  regardless of VLEN and every buffer bound below is machine-free;
* data register groups live at bases ``>= 8`` aligned to the *current*
  EMUL (``v0`` is the mask selector, ``v1``-``v3`` mask scratch,
  ``v4``-``v7`` reduction singles), widening destinations align to
  ``2*LMUL`` and widen/narrow ops only fire when ``2*LMUL <= 8`` and
  the doubled SEW exists;
* FP ops only fire while SEW is 32 or 64; float->int conversions are
  excluded (NaN payloads would hit platform-defined casts);
* memory ops load from the A/B/S regions and store only to S, with the
  address immediately ``li``-ed from a window that already subtracts
  the worst-case span (``max_avl`` elements at the largest stride);
* loops are counted down from a literal, so termination is structural,
  and loop bodies never reconfigure SEW/LMUL (a reconfig would make the
  second iteration's op mix illegal under the new type).

Everything derives from :class:`~repro.fuzz.rng.FuzzRng`, never from
``random`` or the clock, so a ``(seed, size, features, max_avl)``
quadruple names one program forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.asm import Assembler
from ..isa.program import Program
from .rng import FuzzRng

#: Every generator feature flag, in canonical order.
FEATURES = ("arith", "fp", "mask", "reduce", "permute", "mem_unit",
            "mem_strided", "mem_indexed", "scalar", "loops", "vsetvl")

#: Fixed machine-independent memory map (bytes).  A/B hold seeded f64
#: input data, S is the only store target, OUT receives the epilogue's
#: architectural-state dump.  Everything fits far below the functional
#: memory's 32 MiB default.
REGIONS = {
    "A": (0x0000, 8192),
    "B": (0x2000, 8192),
    "S": (0x4000, 8192),
    "OUT": (0x6000, 4096),
}
TOTAL_BYTES = 0x7000

#: Epilogue vector config: a literal AVL far below any registry
#: machine's VLMAX at SEW=64/LMUL=8, so the dump has the same element
#: count (and OUT the same byte layout) on every machine.
EPILOGUE_AVL = 32

_X_POOL = tuple(f"x{i}" for i in range(10, 26))
_F_POOL = tuple(f"f{i}" for i in range(8))
_MASK_REGS = ("v0", "v1", "v2", "v3")
_SINGLE_REGS = ("v4", "v5", "v6", "v7")


def parse_features(spec: str) -> frozenset:
    """Parse a feature spec: ``"all"`` or a comma-joined subset."""
    if spec == "all":
        return frozenset(FEATURES)
    names = [part.strip() for part in spec.split(",") if part.strip()]
    unknown = sorted(set(names) - set(FEATURES))
    if unknown:
        raise ValueError(
            f"unknown fuzz feature(s) {', '.join(unknown)}; "
            f"choose from {', '.join(FEATURES)}")
    if not names:
        raise ValueError("feature spec selects nothing")
    return frozenset(names)


def canonical_features(spec: str) -> str:
    """The canonical spelling of a feature spec (stable cache keys)."""
    enabled = parse_features(spec)
    if enabled == frozenset(FEATURES):
        return "all"
    return ",".join(name for name in FEATURES if name in enabled)


@dataclass(frozen=True)
class FuzzCase:
    """One generated program plus the identity that regenerates it."""

    seed: int
    size: int
    features: str       #: canonical feature spec
    max_avl: int
    chunks: tuple       #: ``(kind, ops)`` pairs; kinds: pre/cfg/op/epi
    program: Program


def assemble(chunks, name: str) -> Program:
    """Replay recorded emit-ops onto a fresh assembler."""
    asm = Assembler(name)
    for _, ops in chunks:
        for mnemonic, args, kwargs in ops:
            if mnemonic == "label":
                asm.label(*args)
            else:
                getattr(asm, mnemonic)(*args, **dict(kwargs))
    return asm.build()


def case_from_chunks(case: FuzzCase, chunks) -> FuzzCase:
    """A variant of ``case`` rebuilt from a chunk subset (shrinking)."""
    chunks = tuple(chunks)
    return FuzzCase(seed=case.seed, size=case.size, features=case.features,
                    max_avl=case.max_avl, chunks=chunks,
                    program=assemble(chunks, case.program.name))


def input_image(seed: int) -> bytes:
    """Deterministic input bytes for the A and B regions of ``seed``."""
    rng = FuzzRng(seed, "data")
    count = (REGIONS["A"][1] + REGIONS["B"][1]) // 8
    return rng.floats(count).tobytes()


class ProgramGen:
    """Seeded deterministic random RVV program generator.

    ``generate()`` returns a :class:`FuzzCase` whose program is valid on
    every machine the VLEN law admits; the same constructor arguments
    always return the identical case, bit for bit.
    """

    def __init__(self, seed: int, size: int = 40, features: str = "all",
                 max_avl: int = 64) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if not 1 <= max_avl <= 256:
            raise ValueError(f"max_avl must be in [1, 256], got {max_avl}")
        self.seed = int(seed)
        self.size = int(size)
        self.features = parse_features(features)
        self.features_spec = canonical_features(features)
        self.max_avl = int(max_avl)
        self.rng = FuzzRng(self.seed, "ops")
        # Tracked architectural generation state.
        self.sew = 64
        self.lmul = 1
        self.mask_ready = False
        self.depth = 0
        self._labels = 0

    # ------------------------------------------------------------------
    # Random operand helpers
    # ------------------------------------------------------------------
    def _group(self, emul: int | None = None) -> str:
        """A data register-group base aligned to ``emul`` (default LMUL)."""
        step = emul if emul is not None else self.lmul
        return f"v{self.rng.choice(range(8, 33 - step, step))}"

    def _xreg(self) -> str:
        return self.rng.choice(_X_POOL)

    def _freg(self) -> str:
        return self.rng.choice(_F_POOL)

    def _mask(self) -> str:
        return self.rng.choice(_MASK_REGS)

    def _masked(self, values: dict | None = None) -> dict:
        """Maybe set ``masked=True`` (needs the mask feature + live v0)."""
        kwargs = dict(values or ())
        if "mask" in self.features and self.mask_ready \
                and self.rng.chance(1, 4):
            kwargs["masked"] = True
        return kwargs

    def _load_region(self) -> tuple[int, int]:
        return REGIONS[self.rng.choice(("A", "B", "S"))]

    def _addr(self, region: tuple[int, int], span: int) -> int:
        """An 8-aligned address leaving ``span`` bytes inside ``region``."""
        base, nbytes = region
        slots = (nbytes - span) // 8
        return base + 8 * self.rng.below(max(1, slots + 1))

    # ------------------------------------------------------------------
    # Chunk emitters (each returns a list of emit-ops)
    # ------------------------------------------------------------------
    def _emit_vsetvl(self) -> list:
        self.sew = self.rng.choice((8, 16, 32, 64))
        self.lmul = self.rng.choice((1, 2, 4, 8))
        avl = self.rng.randint(1, self.max_avl)
        return [("li", ("x1", avl), {}),
                ("vsetvli", ("x2", "x1"),
                 {"sew": self.sew, "lmul": self.lmul})]

    _INT_BASES = (("vadd", "vxi"), ("vsub", "vx"), ("vrsub", "xi"),
                  ("vand", "vxi"), ("vor", "vxi"), ("vxor", "vxi"),
                  ("vsll", "vxi"), ("vsrl", "vxi"), ("vsra", "vxi"),
                  ("vmin", "vx"), ("vmax", "vx"), ("vminu", "vx"),
                  ("vmaxu", "vx"), ("vmul", "vx"), ("vmulh", "vx"),
                  ("vdiv", "vx"), ("vrem", "vx"))

    def _emit_int_bin(self) -> list:
        base, forms = self.rng.choice(self._INT_BASES)
        form = self.rng.choice(forms)
        vd, vs2 = self._group(), self._group()
        if form == "v":
            return [(f"{base}_vv", (vd, vs2, self._group()), self._masked())]
        if form == "x":
            return [(f"{base}_vx", (vd, vs2, self._xreg()), self._masked())]
        if base in ("vsll", "vsrl", "vsra"):
            imm = self.rng.below(self.sew)
        else:
            imm = self.rng.randint(-16, 15)
        return [(f"{base}_vi", (vd, vs2, imm), self._masked())]

    def _emit_int_fma(self) -> list:
        mnem = self.rng.choice(("vmacc_vv", "vmacc_vx", "vnmsac_vv"))
        vd, vs2 = self._group(), self._group()
        op1 = self._xreg() if mnem.endswith("_vx") else self._group()
        return [(mnem, (vd, op1, vs2), self._masked())]

    def _emit_int_widen(self) -> list:
        wide = 2 * self.lmul
        if self.rng.chance(1, 2):
            mnem = self.rng.choice(("vwadd_vv", "vwmul_vv"))
            return [(mnem, (self._group(wide), self._group(), self._group()),
                     self._masked())]
        if self.rng.chance(1, 2):
            return [("vnsrl_wx", (self._group(), self._group(wide),
                                  self._xreg()), self._masked())]
        return [("vnsrl_wi", (self._group(), self._group(wide),
                              self.rng.below(2 * self.sew)), self._masked())]

    _FP_BASES = ("vfadd", "vfsub", "vfmul", "vfdiv", "vfmin", "vfmax",
                 "vfsgnj", "vfsgnjn", "vfsgnjx")
    _FP_FMAS = ("vfmacc", "vfnmacc", "vfmsac", "vfnmsac",
                "vfmadd", "vfmsub", "vfnmadd", "vfnmsub")

    def _emit_fp_bin(self) -> list:
        vd, vs2 = self._group(), self._group()
        if self.rng.chance(1, 3):
            base = self.rng.choice(self._FP_BASES + ("vfrsub", "vfrdiv"))
            return [(f"{base}_vf", (vd, vs2, self._freg()), self._masked())]
        base = self.rng.choice(self._FP_BASES)
        return [(f"{base}_vv", (vd, vs2, self._group()), self._masked())]

    def _emit_fp_fma(self) -> list:
        base = self.rng.choice(self._FP_FMAS)
        vd, vs2 = self._group(), self._group()
        if self.rng.chance(1, 3):
            return [(f"{base}_vf", (vd, self._freg(), vs2), self._masked())]
        return [(f"{base}_vv", (vd, self._group(), vs2), self._masked())]

    def _emit_fp_unary(self) -> list:
        mnem = self.rng.choice(("vfsqrt_v", "vfabs_v", "vfneg_v",
                                "vfcvt_f_x_v"))
        return [(mnem, (self._group(), self._group()), self._masked())]

    def _emit_fp_widen(self) -> list:
        wide = 2 * self.lmul
        roll = self.rng.below(4)
        if roll == 0:
            mnem = self.rng.choice(("vfwadd_vv", "vfwmul_vv"))
            return [(mnem, (self._group(wide), self._group(), self._group()),
                     self._masked())]
        if roll == 1:
            if self.rng.chance(1, 2):
                return [("vfwmacc_vf", (self._group(wide), self._freg(),
                                        self._group()), self._masked())]
            return [("vfwmacc_vv", (self._group(wide), self._group(),
                                    self._group()), self._masked())]
        if roll == 2:
            return [("vfwcvt_f_f_v", (self._group(wide), self._group()),
                     self._masked())]
        return [("vfncvt_f_f_w", (self._group(), self._group(wide)),
                 self._masked())]

    _INT_CMPS = (("vmseq", "vxi"), ("vmsne", "vxi"), ("vmslt", "vx"),
                 ("vmsle", "vxi"), ("vmsgt", "xi"), ("vmsltu", "vx"),
                 ("vmsleu", "vxi"))
    _FP_CMPS = (("vmfeq", "vf"), ("vmfne", "vf"), ("vmflt", "vf"),
                ("vmfle", "vf"), ("vmfgt", "f"), ("vmfge", "f"))

    def _emit_mask_make(self) -> list:
        vd = self._mask()
        if vd == "v0":
            self.mask_ready = True
        vs2 = self._group()
        if "fp" in self.features and self.sew >= 32 \
                and self.rng.chance(1, 3):
            base, forms = self.rng.choice(self._FP_CMPS)
            if self.rng.choice(forms) == "v":
                return [(f"{base}_vv", (vd, vs2, self._group()), {})]
            return [(f"{base}_vf", (vd, vs2, self._freg()), {})]
        base, forms = self.rng.choice(self._INT_CMPS)
        form = self.rng.choice(forms)
        if form == "v":
            return [(f"{base}_vv", (vd, vs2, self._group()), {})]
        if form == "x":
            return [(f"{base}_vx", (vd, vs2, self._xreg()), {})]
        return [(f"{base}_vi", (vd, vs2, self.rng.randint(-16, 15)), {})]

    def _emit_mask_logic(self) -> list:
        mnem = self.rng.choice(("vmand_mm", "vmor_mm", "vmxor_mm",
                                "vmnand_mm", "vmnor_mm", "vmxnor_mm",
                                "vmandn_mm", "vmorn_mm"))
        vd = self._mask()
        if vd == "v0":
            self.mask_ready = True
        return [(mnem, (vd, self._mask(), self._mask()), {})]

    def _emit_mask_unary(self) -> list:
        mnem = self.rng.choice(("vmsbf_m", "vmsif_m", "vmsof_m"))
        vd = self._mask()
        if vd == "v0":
            self.mask_ready = True
        return [(mnem, (vd, self._mask()), {})]

    def _emit_mask_scalar(self) -> list:
        mnem = self.rng.choice(("vcpop_m", "vfirst_m"))
        return [(mnem, (self._xreg(), self._mask()), {})]

    def _emit_iota(self) -> list:
        if self.rng.chance(1, 2):
            return [("viota_m", (self._group(), self._mask()), {})]
        return [("vid_v", (self._group(),), self._masked())]

    _INT_REDS = ("vredsum_vs", "vredmax_vs", "vredmin_vs",
                 "vredand_vs", "vredor_vs", "vredxor_vs")
    _FP_REDS = ("vfredusum_vs", "vfredosum_vs", "vfredmax_vs",
                "vfredmin_vs")

    def _emit_reduce(self) -> list:
        ops = []
        vseed = self.rng.choice(_SINGLE_REGS)
        if self.rng.chance(1, 2):
            ops.append(("vmv_s_x", (vseed, self._xreg()), {}))
        if "fp" in self.features and self.sew >= 32 \
                and self.rng.chance(1, 2):
            mnem = self.rng.choice(self._FP_REDS)
        else:
            mnem = self.rng.choice(self._INT_REDS)
        ops.append((mnem, (self.rng.choice(_SINGLE_REGS), self._group(),
                           vseed), {}))
        return ops

    def _emit_slide(self) -> list:
        mnem = self.rng.choice(("vslideup", "vslidedown"))
        vd, vs2 = self._group(), self._group()
        if self.rng.chance(1, 2):
            return [("li", ("x4", self.rng.below(self.max_avl + 1)), {}),
                    (f"{mnem}_vx", (vd, vs2, "x4"), self._masked())]
        return [(f"{mnem}_vi", (vd, vs2, self.rng.below(16)), self._masked())]

    def _emit_slide1(self) -> list:
        if "fp" in self.features and self.sew >= 32 \
                and self.rng.chance(1, 3):
            mnem = self.rng.choice(("vfslide1up_vf", "vfslide1down_vf"))
            return [(mnem, (self._group(), self._group(), self._freg()),
                     self._masked())]
        mnem = self.rng.choice(("vslide1up_vx", "vslide1down_vx"))
        return [(mnem, (self._group(), self._group(), self._xreg()),
                 self._masked())]

    def _emit_gather(self) -> list:
        if self.rng.chance(1, 2):
            return [("vrgather_vv", (self._group(), self._group(),
                                     self._group()), self._masked())]
        return [("vcompress_vm", (self._group(), self._group(),
                                  self._mask()), {})]

    def _emit_move(self) -> list:
        roll = self.rng.below(8)
        if roll == 0:
            return [("vmv_v_v", (self._group(), self._group()),
                     self._masked())]
        if roll == 1:
            return [("vmv_v_x", (self._group(), self._xreg()),
                     self._masked())]
        if roll == 2:
            return [("vmv_v_i", (self._group(), self.rng.randint(-16, 15)),
                     self._masked())]
        if roll == 3 and "fp" in self.features and self.sew >= 32:
            return [("vfmv_v_f", (self._group(), self._freg()),
                     self._masked())]
        if roll == 4:
            return [("vmv_s_x", (self._group(), self._xreg()), {})]
        if roll == 5:
            return [("vmv_x_s", (self._xreg(), self._group()), {})]
        if roll == 6 and "fp" in self.features and self.sew >= 32:
            if self.rng.chance(1, 2):
                return [("vfmv_s_f", (self._group(), self._freg()), {})]
            return [("vfmv_f_s", (self._freg(), self._group()), {})]
        return [("vmv_v_v", (self._group(), self._group()), self._masked())]

    def _emit_merge(self) -> list:
        vd, vs2 = self._group(), self._group()
        roll = self.rng.below(4)
        if roll == 0 and "fp" in self.features and self.sew >= 32:
            return [("vfmerge_vfm", (vd, vs2, self._freg()), {})]
        if roll == 1:
            return [("vmerge_vxm", (vd, vs2, self._xreg()), {})]
        if roll == 2:
            return [("vmerge_vim", (vd, vs2, self.rng.randint(-16, 15)), {})]
        return [("vmerge_vvm", (vd, vs2, self._group()), {})]

    def _emit_mem_unit(self) -> list:
        ew = self.sew
        span = self.max_avl * ew // 8
        if self.rng.chance(1, 2):
            addr = self._addr(self._load_region(), span)
            return [("li", ("x3", addr), {}),
                    (f"vle{ew}_v", (self._group(), "x3"), self._masked())]
        addr = self._addr(REGIONS["S"], span)
        return [("li", ("x3", addr), {}),
                (f"vse{ew}_v", (self._group(), "x3"), self._masked())]

    def _emit_mem_mask(self) -> list:
        span = (self.max_avl + 7) // 8
        if self.rng.chance(1, 2):
            addr = self._addr(self._load_region(), span)
            return [("li", ("x3", addr), {}),
                    ("vlm_v", (self._mask(), "x3"), {})]
        addr = self._addr(REGIONS["S"], span)
        return [("li", ("x3", addr), {}),
                ("vsm_v", (self._mask(), "x3"), {})]

    def _emit_mem_strided(self) -> list:
        ew = self.sew
        load = self.rng.chance(1, 2)
        # Stores keep stride >= element size; stride-0 loads are legal
        # (vl reads of one address) and exercise the slow path.
        stride = (ew // 8) * (self.rng.below(4) if load
                              else self.rng.randint(1, 3))
        span = stride * (self.max_avl - 1) + ew // 8
        if load:
            addr = self._addr(self._load_region(), span)
            return [("li", ("x3", addr), {}), ("li", ("x4", stride), {}),
                    (f"vlse{ew}_v", (self._group(), "x3", "x4"),
                     self._masked())]
        addr = self._addr(REGIONS["S"], span)
        return [("li", ("x3", addr), {}), ("li", ("x4", stride), {}),
                (f"vsse{ew}_v", (self._group(), "x3", "x4"), self._masked())]

    def _emit_mem_indexed(self) -> list:
        ew = self.sew
        vidx = self._group()
        mask_bits = self.rng.choice((7, 15, 31, 63))
        shift = (ew // 8).bit_length() - 1 + self.rng.below(2)
        span = (mask_bits << shift) + ew // 8
        ops = [("vid_v", (vidx,), {}),
               ("vand_vi", (vidx, vidx, mask_bits), {}),
               ("vsll_vi", (vidx, vidx, shift), {})]
        if self.rng.chance(1, 2):
            addr = self._addr(self._load_region(), span)
            ops += [("li", ("x3", addr), {}),
                    (f"vluxei{ew}_v", (self._group(), "x3", vidx),
                     self._masked())]
        else:
            addr = self._addr(REGIONS["S"], span)
            ops += [("li", ("x3", addr), {}),
                    (f"vsuxei{ew}_v", (self._group(), "x3", vidx),
                     self._masked())]
        return ops

    _SCALAR_RR = ("add", "sub", "mul", "mulh", "div", "rem", "and_", "or_",
                  "xor", "sll", "srl", "sra", "slt", "sltu", "min_", "max_")

    def _emit_scalar_int(self) -> list:
        roll = self.rng.below(4)
        rd = self._xreg()
        if roll == 0:
            imm = self.rng.randint(-(1 << 31), (1 << 31) - 1)
            return [("li", (rd, imm), {})]
        if roll == 1:
            mnem = self.rng.choice(self._SCALAR_RR)
            return [(mnem, (rd, self._xreg(), self._xreg()), {})]
        if roll == 2:
            mnem = self.rng.choice(("slli", "srli", "srai"))
            return [(mnem, (rd, self._xreg(), self.rng.below(64)), {})]
        mnem = self.rng.choice(("addi", "andi", "ori", "xori", "slti"))
        return [(mnem, (rd, self._xreg(), self.rng.randint(-1024, 1024)), {})]

    _SCALAR_FP_RR = ("fadd_d", "fsub_d", "fmul_d", "fdiv_d", "fmin_d",
                     "fmax_d", "fsgnj_d")
    _SCALAR_FP_FMA = ("fmadd_d", "fmsub_d", "fnmadd_d", "fnmsub_d")

    def _emit_scalar_fp(self) -> list:
        roll = self.rng.below(5)
        frd = self._freg()
        if roll == 0:
            mnem = self.rng.choice(self._SCALAR_FP_RR)
            return [(mnem, (frd, self._freg(), self._freg()), {})]
        if roll == 1:
            mnem = self.rng.choice(self._SCALAR_FP_FMA)
            return [(mnem, (frd, self._freg(), self._freg(), self._freg()),
                     {})]
        if roll == 2:
            mnem = self.rng.choice(("fsqrt_d", "fmv_d", "fneg_d", "fabs_d"))
            return [(mnem, (frd, self._freg()), {})]
        if roll == 3:
            # Int->FP and bit moves only: float->int of a NaN payload
            # would hit int(nan)/platform casts.
            if self.rng.chance(1, 2):
                mnem = self.rng.choice(("fmv_d_x", "fcvt_d_l"))
                return [(mnem, (frd, self._xreg()), {})]
            return [("fmv_x_d", (self._xreg(), self._freg()), {})]
        mnem = self.rng.choice(("feq_d", "flt_d", "fle_d"))
        return [(mnem, (self._xreg(), self._freg(), self._freg()), {})]

    def _emit_scalar_mem(self) -> list:
        roll = self.rng.below(4)
        if roll == 0:
            mnem, nbytes = self.rng.choice(
                (("ld", 8), ("lw", 4), ("lh", 2), ("lb", 1)))
            addr = self._addr(self._load_region(), nbytes)
            return [("li", ("x3", addr), {}),
                    (mnem, (self._xreg(), "x3", 0), {})]
        if roll == 1:
            mnem, nbytes = self.rng.choice(
                (("sd", 8), ("sw", 4), ("sh", 2), ("sb", 1)))
            addr = self._addr(REGIONS["S"], nbytes)
            return [("li", ("x3", addr), {}),
                    (mnem, (self._xreg(), "x3", 0), {})]
        if roll == 2:
            addr = self._addr(self._load_region(), 8)
            return [("li", ("x3", addr), {}),
                    ("fld", (self._freg(), "x3", 0), {})]
        addr = self._addr(REGIONS["S"], 8)
        return [("li", ("x3", addr), {}),
                ("fsd", (self._freg(), "x3", 0), {})]

    def _emit_loop(self) -> list:
        counter = "x28" if self.depth == 0 else "x29"
        label = f"L{self._labels}"
        self._labels += 1
        trips = self.rng.randint(2, 4)
        ops = [("li", (counter, trips), {}), ("label", (label,), {})]
        self.depth += 1
        for _ in range(self.rng.randint(2, 5)):
            kind = self.rng.choice(self._menu(in_loop=True))
            ops.extend(self._EMITTERS[kind](self))
        self.depth -= 1
        ops += [("addi", (counter, counter, -1), {}),
                ("bnez", (counter, label), {})]
        return ops

    # ------------------------------------------------------------------
    # Menu and driver
    # ------------------------------------------------------------------
    _EMITTERS = {
        "vsetvl": _emit_vsetvl,
        "int_bin": _emit_int_bin,
        "int_fma": _emit_int_fma,
        "int_widen": _emit_int_widen,
        "fp_bin": _emit_fp_bin,
        "fp_fma": _emit_fp_fma,
        "fp_unary": _emit_fp_unary,
        "fp_widen": _emit_fp_widen,
        "mask_make": _emit_mask_make,
        "mask_logic": _emit_mask_logic,
        "mask_unary": _emit_mask_unary,
        "mask_scalar": _emit_mask_scalar,
        "iota": _emit_iota,
        "reduce": _emit_reduce,
        "slide": _emit_slide,
        "slide1": _emit_slide1,
        "gather": _emit_gather,
        "move": _emit_move,
        "merge": _emit_merge,
        "mem_unit": _emit_mem_unit,
        "mem_mask": _emit_mem_mask,
        "mem_strided": _emit_mem_strided,
        "mem_indexed": _emit_mem_indexed,
        "scalar_int": _emit_scalar_int,
        "scalar_fp": _emit_scalar_fp,
        "scalar_mem": _emit_scalar_mem,
        "loop": _emit_loop,
    }

    def _menu(self, in_loop: bool = False) -> list:
        """Op kinds legal under the current config, weighted by repeats."""
        f = self.features
        menu: list[str] = []
        if "vsetvl" in f and not in_loop:
            menu += ["vsetvl"]
        if "arith" in f:
            menu += ["int_bin"] * 4 + ["int_fma"]
            if self.sew <= 32 and 2 * self.lmul <= 8:
                menu += ["int_widen"]
        if "fp" in f and self.sew >= 32:
            menu += ["fp_bin"] * 3 + ["fp_fma"] * 2 + ["fp_unary"]
            if self.sew == 32 and 2 * self.lmul <= 8:
                menu += ["fp_widen"]
        if "mask" in f:
            menu += ["mask_make"] * 2 + ["mask_logic", "mask_unary",
                                         "mask_scalar", "iota"]
        if "reduce" in f:
            menu += ["reduce"]
        if "permute" in f:
            menu += ["slide", "slide1", "gather", "move", "merge"]
        if "mem_unit" in f:
            menu += ["mem_unit"] * 2
            if "mask" in f:
                menu += ["mem_mask"]
        if "mem_strided" in f:
            menu += ["mem_strided"]
        if "mem_indexed" in f:
            menu += ["mem_indexed"]
        if "scalar" in f:
            menu += ["scalar_int"] * 2 + ["scalar_fp", "scalar_mem"]
        if "loops" in f and not in_loop and self.depth == 0:
            menu += ["loop"]
        if not menu:  # e.g. features="vsetvl" alone outside a loop body
            menu = ["vsetvl"] if "vsetvl" in f and not in_loop \
                else ["scalar_int"]
        return menu

    def _preamble(self) -> tuple:
        """Initial config + seeding loads (never dropped by shrink)."""
        ops = self._emit_vsetvl()
        ew = self.sew
        span = self.max_avl * ew // 8
        for region in ("A", "B"):
            addr = self._addr(REGIONS[region], span)
            ops += [("li", ("x3", addr), {}),
                    (f"vle{ew}_v", (self._group(), "x3"), {})]
        for i, freg in enumerate(_F_POOL[:4]):
            ops += [("li", ("x3", REGIONS["A"][0] + 8 * i), {}),
                    ("fld", (freg, "x3", 0), {})]
        return ("pre", tuple(ops))

    def _epilogue(self) -> tuple:
        """Dump the architectural state to OUT (machine-independent)."""
        out = REGIONS["OUT"][0]
        ops = [("li", ("x1", EPILOGUE_AVL), {}),
               ("vsetvli", ("x2", "x1"), {"sew": 64, "lmul": 8})]
        for i, vreg in enumerate(("v0", "v8", "v16", "v24")):
            ops += [("li", ("x3", out + i * EPILOGUE_AVL * 8), {}),
                    ("vse64_v", (vreg, "x3"), {})]
        cursor = out + 4 * EPILOGUE_AVL * 8
        for reg in ("x1", "x2", "x28", "x29") + _X_POOL[:8]:
            ops += [("li", ("x3", cursor), {}), ("sd", (reg, "x3", 0), {})]
            cursor += 8
        for freg in _F_POOL:
            ops += [("li", ("x3", cursor), {}), ("fsd", (freg, "x3", 0), {})]
            cursor += 8
        ops.append(("halt", (), {}))
        return ("epi", tuple(ops))

    def generate(self) -> FuzzCase:
        """Generate the case this generator's arguments name."""
        chunks = [self._preamble()]
        for _ in range(self.size):
            kind = self.rng.choice(self._menu())
            chunk_kind = "cfg" if kind == "vsetvl" else "op"
            chunks.append((chunk_kind,
                           tuple(self._EMITTERS[kind](self))))
        chunks.append(self._epilogue())
        chunks = tuple(chunks)
        name = (f"fuzz_s{self.seed}_n{self.size}_"
                f"{self.features_spec}_a{self.max_avl}")
        return FuzzCase(seed=self.seed, size=self.size,
                        features=self.features_spec, max_avl=self.max_avl,
                        chunks=chunks, program=assemble(chunks, name))
