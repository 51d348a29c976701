"""Helpers for driving the functional vector engine in unit tests."""

from __future__ import annotations

import numpy as np

from repro.functional.executor import Executor
from repro.functional.memory import FunctionalMemory
from repro.functional.state import ArchState
from repro.isa import Assembler, Program
from repro.isa.vtype import LMUL, SEW, VType


class VecEnv:
    """Vector state to poke directly and run single instructions on."""

    def __init__(self, vl: int, sew: int = 64, lmul: int = 1,
                 vlen_bits: int = 4096, mem_bytes: int = 1 << 16) -> None:
        self.state = ArchState(vlen_bits)
        self.mem = FunctionalMemory(mem_bytes)
        self.state.vtype = VType(sew=SEW(sew), lmul=LMUL(lmul))
        self.state.vl = vl
        self.vl = vl
        self.sew = sew
        self.lmul = lmul
        self.asm = Assembler("test")

    # ------------------------------------------------------------------
    def set_v(self, reg: int, values: np.ndarray, emul: int | None = None):
        values = np.asarray(values)
        self.state.v.write_elems(reg, values,
                                 emul=self.lmul if emul is None else emul)

    def get_v(self, reg: int, count: int | None = None,
              dtype=np.float64, emul: int | None = None) -> np.ndarray:
        return self.state.v.read_elems(
            reg, self.vl if count is None else count, np.dtype(dtype),
            self.lmul if emul is None else emul)

    def set_mask(self, reg: int, bits) -> None:
        self.state.v.write_mask(reg, np.asarray(bits, dtype=bool))

    def get_mask(self, reg: int, count: int | None = None) -> np.ndarray:
        return self.state.v.read_mask(reg, self.vl if count is None else count)

    def run(self, mnemonic: str, *operands, **kwargs):
        """Assemble one instruction, run it as a one-instruction program
        from this state and return its trace event."""
        instr = getattr(self.asm, mnemonic)(*operands, **kwargs)
        program = Program((instr,), name="test")
        executor = Executor(self.state.vlen_bits, mem=self.mem,
                            state=self.state)
        (event,) = executor.run(program).trace.events
        return event

    def rand_f64(self, rng, lo=-100.0, hi=100.0) -> np.ndarray:
        return rng.uniform(lo, hi, size=self.vl)

    def rand_int(self, rng, dtype) -> np.ndarray:
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, size=self.vl,
                            dtype=dtype, endpoint=True)
