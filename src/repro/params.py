"""System configuration objects for Ara2 and AraXL instances.

The paper's design space is indexed by the total number of vector lanes.
Ara2 is a single "lumped" design whose units (VLSU, SLDU, MASKU) are
all-to-all interconnected across every lane; AraXL groups lanes into
4-lane clusters joined by three scalable interfaces (REQI, GLSU, RINGI).

The laws encoded here follow Section III of the paper:

* ``VLEN = 1024 * lanes`` bits per vector register, so a 16-lane machine has
  the 16 Kibit VLEN of Ara2 [13] and the 64-lane AraXL reaches the RVV 1.0
  maximum of 64 Kibit.
* AraXL's building block is the 4-lane cluster; configurations are named by
  their total lane count (16/32/64 in the paper; 4 and 8 also work and are
  used for the Fig 6 "8L AraXL" point).
* The latency-tolerance experiment knobs (Fig 5/7) are the three
  ``*_extra_regs`` fields; their cycle-level effect is implemented in
  :mod:`repro.uarch` and documented per-field below.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

#: Bits of VLEN contributed by each lane (8 vregs * 128 bit... historically:
#: Ara stores VLEN/lanes bits of every register per lane; the paper's designs
#: all satisfy VLEN = 1024 * lanes).
VLEN_BITS_PER_LANE = 1024

#: RVV 1.0 upper bound on the size of one vector register, reached by the
#: 64-lane AraXL (Section I / V).
RVV_MAX_VLEN_BITS = 65536

#: Lanes per AraXL cluster (the paper picks the 4-lane Ara2 as the building
#: block because it is the most energy-efficient configuration of [13]).
LANES_PER_CLUSTER = 4

#: Supported element widths in bits.
SUPPORTED_SEWS = (8, 16, 32, 64)

#: Supported (integer) LMUL values.  Fractional LMUL is not exercised by the
#: paper's benchmarks and is not supported.
SUPPORTED_LMULS = (1, 2, 4, 8)


@dataclass(frozen=True)
class MemoryConfig:
    """Parameters of the L2 memory and its AXI-like port.

    The paper assumes an L2 of at least 16 MiB (Table I footnote) and a
    memory interface that scales with the machine (Fig 2 annotates the
    GLSU-to-L2 link).  Bandwidth here is expressed in bytes per cycle per
    lane and per direction; the default of 8 B/cycle/lane lets the machine
    sustain one 64-bit element per lane per cycle in each direction, which
    is required for ``fdotproduct``'s Table-I bound of L*C DP-FLOP/cycle.
    """

    size_bytes: int = 16 * 2 ** 20
    read_bytes_per_cycle_per_lane: float = 8.0
    write_bytes_per_cycle_per_lane: float = 8.0
    #: Zero-load request-to-first-data latency of the L2 itself, in cycles.
    l2_latency_cycles: int = 12
    #: Number of independent L2 banks (limits bank-level parallelism).
    banks: int = 8
    #: Maximum outstanding AXI transactions per port.
    max_outstanding: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError("memory size must be positive")
        if self.read_bytes_per_cycle_per_lane <= 0:
            raise ConfigError("read bandwidth must be positive")
        if self.write_bytes_per_cycle_per_lane <= 0:
            raise ConfigError("write bandwidth must be positive")
        if self.l2_latency_cycles < 0:
            raise ConfigError("L2 latency cannot be negative")
        if self.banks < 1 or self.max_outstanding < 1:
            raise ConfigError("banks and max_outstanding must be >= 1")


@dataclass(frozen=True)
class ScalarCoreConfig:
    """Timing parameters of the CVA6-like scalar core.

    CVA6 is a 6-stage in-order single-issue core [25]; for the purposes of
    the paper's evaluation only its issue bandwidth towards the vector unit
    and the latency of scalar loads during kernel setup are observable.
    """

    #: Cycles for a scalar ALU op (in-order, fully pipelined).
    alu_latency: int = 1
    #: Load-to-use latency on a D$ hit.
    dcache_hit_latency: int = 3
    #: Additional latency on a D$ miss (on top of L2 latency).
    dcache_miss_penalty: int = 8
    #: D$ capacity in bytes (direct-mapped model).
    dcache_bytes: int = 32 * 1024
    #: D$ line size in bytes.
    dcache_line_bytes: int = 64
    #: Taken-branch penalty in cycles.
    branch_penalty: int = 2
    #: FP scalar op latency (fadd/fmul through the scalar FPU).
    fpu_latency: int = 4

    def __post_init__(self) -> None:
        if min(self.alu_latency, self.dcache_hit_latency, self.fpu_latency) < 1:
            raise ConfigError("scalar latencies must be >= 1 cycle")
        if self.dcache_bytes % self.dcache_line_bytes:
            raise ConfigError("D$ size must be a multiple of the line size")


@dataclass(frozen=True)
class SystemConfig:
    """Common base for Ara2 and AraXL machine configurations.

    Subclasses fix the interconnect style; all derived quantities
    (``vlen_bits``, ``vlmax``, bandwidths) live here so kernels and the
    timing engine can be written against a single interface.

    Every field is a named quantity of the machine's declarative spec
    (:mod:`repro.machine`): configurations round-trip through
    ``to_spec()``/``from_spec()`` and the timing models in
    :mod:`repro.uarch` read *only* these fields — there are no timing
    constants baked into the model code.
    """

    #: Family tag used by the spec layer and the PPA/physdesign models
    #: to select interconnect laws; overridden by the subclasses.
    family = "generic"

    lanes: int = 16
    memory: MemoryConfig = dataclasses.field(default_factory=MemoryConfig)
    scalar: ScalarCoreConfig = dataclasses.field(default_factory=ScalarCoreConfig)
    #: Cycles to decode + sequence a vector instruction inside a cluster.
    dispatch_latency: int = 4
    #: Depth of each unit's instruction queue (structural hazard limit).
    unit_queue_depth: int = 4
    #: FPU pipeline depth (first-result latency) for DP FMA.
    fpu_latency: int = 5
    #: Integer ALU pipeline depth.
    valu_latency: int = 1
    #: Datapath width of one lane in bits: each lane produces/consumes
    #: one ``lane_width_bits`` word per cycle, SIMD-packing narrower
    #: elements (the 64-bit datapath of Ara's lanes).
    lane_width_bits: int = 64
    #: Local shuffle pipeline depth of the slide unit (cycles).
    sldu_latency: int = 1
    #: Mask-unit pipeline depth (cycles).
    masku_latency: int = 2
    #: CVA6-visible cost of reconfiguring the vector unit (cycles).
    vsetvli_cycles: int = 3
    #: Fixed cycles to commit a reduction's scalar result into the
    #: destination register after the last combining step.
    reduction_writeback_cycles: int = 3
    #: Indexed (gather/scatter) throughput as a fraction of the strided
    #: address-generation rate: index fetch and address compute share
    #: the generator, halving it in both microarchitectures.
    indexed_throughput_factor: float = 0.5
    #: Display name override (set for machines defined by a spec file
    #: whose ``name`` differs from the derived ``{lanes}L-{family}``).
    label: str | None = None

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ConfigError("need at least one lane")
        if self.lanes & (self.lanes - 1):
            raise ConfigError("lane count must be a power of two")
        if self.dispatch_latency < 1 or self.unit_queue_depth < 1:
            raise ConfigError("dispatch latency and queue depth must be >= 1")
        if self.lane_width_bits < max(SUPPORTED_SEWS) \
                or self.lane_width_bits & (self.lane_width_bits - 1):
            raise ConfigError(
                f"lane width must be a power of two of at least "
                f"{max(SUPPORTED_SEWS)} bits, got {self.lane_width_bits}")
        if self.sldu_latency < 0 or self.masku_latency < 0 \
                or self.vsetvli_cycles < 0 \
                or self.reduction_writeback_cycles < 0:
            raise ConfigError("unit latencies cannot be negative")
        if self.indexed_throughput_factor <= 0:
            raise ConfigError("indexed throughput factor must be positive")
        vlen = self.lanes * VLEN_BITS_PER_LANE
        if vlen > RVV_MAX_VLEN_BITS:
            raise ConfigError(
                f"{self.lanes} lanes imply VLEN={vlen} bits, above the RVV 1.0 "
                f"maximum of {RVV_MAX_VLEN_BITS}"
            )

    # ------------------------------------------------------------------
    # Derived architectural quantities
    # ------------------------------------------------------------------
    @property
    def vlen_bits(self) -> int:
        """Bits per vector register (the paper's VLEN law)."""
        return self.lanes * VLEN_BITS_PER_LANE

    @property
    def vlen_bytes(self) -> int:
        return self.vlen_bits // 8

    def vlmax(self, sew: int, lmul: int = 1) -> int:
        """Maximum vector length for a given element width and LMUL."""
        if sew not in SUPPORTED_SEWS:
            raise ConfigError(f"unsupported SEW {sew}")
        if lmul not in SUPPORTED_LMULS:
            raise ConfigError(f"unsupported LMUL {lmul}")
        return self.vlen_bits * lmul // sew

    @property
    def peak_dp_flops_per_cycle(self) -> int:
        """One DP FMA per lane per cycle = 2 DP-FLOP per lane per cycle."""
        return 2 * self.lanes

    @property
    def mem_read_bytes_per_cycle(self) -> float:
        return self.memory.read_bytes_per_cycle_per_lane * self.lanes

    @property
    def mem_write_bytes_per_cycle(self) -> float:
        return self.memory.write_bytes_per_cycle_per_lane * self.lanes

    def bytes_per_lane(self, vl: int, sew: int = 64) -> float:
        """Vector-length metric used throughout the evaluation (B/lane)."""
        return vl * (sew // 8) / self.lanes

    def vl_for_bytes_per_lane(self, bytes_per_lane: int, sew: int = 64) -> int:
        """Inverse of :meth:`bytes_per_lane` (exact for the paper's sweeps)."""
        total = bytes_per_lane * self.lanes
        ew = sew // 8
        if total % ew:
            raise ConfigError(
                f"{bytes_per_lane} B/lane is not a whole number of {sew}-bit "
                f"elements on {self.lanes} lanes"
            )
        return total // ew

    def lmul_for_vl(self, vl: int, sew: int = 64) -> int:
        """Smallest supported LMUL able to hold ``vl`` elements."""
        for lmul in SUPPORTED_LMULS:
            if vl <= self.vlmax(sew, lmul):
                return lmul
        raise ConfigError(f"vl={vl} exceeds VLMAX at LMUL=8 for {self.lanes} lanes")

    @property
    def name(self) -> str:  # derived name; subclasses change the suffix
        return self.label or f"{self.lanes}L-generic"


@dataclass(frozen=True)
class Ara2Config(SystemConfig):
    """The lumped Ara2 baseline [13].

    A single sequencer drives L lanes plus global VLSU/SLDU/MASKU units whose
    byte-shuffling interconnects are all-to-all across lanes.  The A2A
    structure makes alignment single-cycle (no GLSU pipeline) but its
    wire complexity grows quadratically, which the PPA model penalizes in
    both area and achievable frequency.
    """

    family = "ara2"

    #: Extra issue-to-first-operation latency of the lumped design (small:
    #: no REQI broadcast, the sequencer talks to CVA6 directly).
    accelerator_ack_latency: int = 1
    #: Minimum cycles between two vector-instruction issues: the lumped
    #: sequencer acknowledges back-to-back.
    issue_gap_cycles: float = 1.0
    #: Cycles for a vector-to-scalar result (reductions, ``vmv.x.s``) to
    #: land back in a CVA6 register.
    scalar_result_latency: int = 2
    #: Handshake registers of the lumped VLSU's load path, added on top
    #: of the raw L2 latency (request out + first beat in).
    vlsu_pipe_latency: int = 2
    #: Posted-store datapath latency through the lumped VLSU (cycles).
    store_pipe_latency: int = 2
    #: Parallel strided-access address generators (the lumped VLSU has
    #: exactly one, hence one strided element per cycle).
    strided_addrgens: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.accelerator_ack_latency < 0 or self.scalar_result_latency < 0:
            raise ConfigError("issue/result latencies cannot be negative")
        if self.issue_gap_cycles < 1:
            raise ConfigError("issue gap must be >= 1 cycle")
        if self.vlsu_pipe_latency < 0 or self.store_pipe_latency < 0:
            raise ConfigError("VLSU pipe latencies cannot be negative")
        if self.strided_addrgens < 1:
            raise ConfigError("need at least one strided address generator")

    @property
    def name(self) -> str:
        return self.label or f"{self.lanes}L-Ara2"


@dataclass(frozen=True)
class AraXLConfig(SystemConfig):
    """A cluster-based AraXL instance (Section III).

    ``lanes`` is the *total* lane count; the machine has
    ``lanes / LANES_PER_CLUSTER`` clusters (minimum one).  The three
    ``*_extra_regs`` knobs reproduce the Fig 5 latency-tolerance setups:

    * ``glsu_extra_regs=4`` lengthens the GLSU request-response path by
      8 cycles (4 on the request path, 4 on the response path).
    * ``reqi_extra_regs=1`` delays the instruction acknowledgement to CVA6
      by 2 cycles (1 out + 1 back), stalling the next issue.
    * ``ringi_extra_regs=1`` adds 1 cycle to every ring hop.
    """

    family = "araxl"

    glsu_extra_regs: int = 0
    reqi_extra_regs: int = 0
    ringi_extra_regs: int = 0
    #: Base one-hop latency of the ring between adjacent clusters' SLDUs.
    ring_hop_latency: int = 2
    #: Base REQI broadcast (CVA6 -> clusters) latency in cycles.
    reqi_broadcast_latency: int = 2
    #: Base GLSU pipeline depth added on top of the L2 latency; grows with
    #: the number of clusters because Align/Shuffle are log2-level networks.
    glsu_base_stages: int = 3
    #: Cluster-0-to-CVA6 acknowledgement latency with no extra register
    #: cuts (a single answer-path cycle).
    reqi_ack_base_latency: int = 1
    #: Minimum cycles between two vector-instruction issues with no
    #: extra register cuts: one cycle out plus one cycle back on the
    #: request/acknowledge round trip.
    reqi_issue_base_gap: int = 2
    #: Cycles each inter-cluster reduction step spends handing a partial
    #: result between the ring stop and the FPU, on top of the FPU's
    #: own pipeline depth.
    ring_reduction_op_overhead: float = 1.0
    #: Strided-access address generators per cluster VLSU (each cluster
    #: emits this many element requests per cycle; the GLSU merges them).
    strided_addrgens_per_cluster: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lanes > LANES_PER_CLUSTER and self.lanes % LANES_PER_CLUSTER:
            raise ConfigError(
                f"lanes must be a multiple of {LANES_PER_CLUSTER} above one cluster"
            )
        if min(self.glsu_extra_regs, self.reqi_extra_regs, self.ringi_extra_regs) < 0:
            raise ConfigError("extra register counts cannot be negative")
        if self.ring_hop_latency < 1:
            raise ConfigError("ring hop latency must be >= 1 cycle")
        if self.reqi_ack_base_latency < 0 or self.reqi_issue_base_gap < 1:
            raise ConfigError(
                "REQI ack latency must be >= 0 and issue gap >= 1")
        if self.ring_reduction_op_overhead < 0:
            raise ConfigError("ring reduction overhead cannot be negative")
        if self.strided_addrgens_per_cluster < 1:
            raise ConfigError(
                "need at least one strided address generator per cluster")

    @property
    def clusters(self) -> int:
        return max(1, self.lanes // LANES_PER_CLUSTER)

    @property
    def lanes_per_cluster(self) -> int:
        return min(self.lanes, LANES_PER_CLUSTER)

    @property
    def glsu_pipeline_stages(self) -> int:
        """Levels of the Align+Shuffle networks plus extra register cuts.

        Align uses power-of-2 shift levels over the memory bus and Shuffle
        distributes to C clusters, so both grow with log2(C).
        """
        levels = self.glsu_base_stages + max(0, int(math.log2(self.clusters)))
        return levels + self.glsu_extra_regs

    @property
    def ring_hop_cycles(self) -> int:
        return self.ring_hop_latency + self.ringi_extra_regs

    @property
    def reqi_issue_latency(self) -> int:
        """CVA6-to-cluster request latency."""
        return self.reqi_broadcast_latency + self.reqi_extra_regs

    @property
    def reqi_ack_latency(self) -> int:
        """Cluster-0-to-CVA6 acknowledgement latency (limits issue rate)."""
        return self.reqi_ack_base_latency + self.reqi_extra_regs

    @property
    def name(self) -> str:
        return self.label or f"{self.lanes}L-AraXL"


def paper_configurations() -> dict[str, SystemConfig]:
    """Every machine instance that appears in the paper's evaluation."""
    configs: dict[str, SystemConfig] = {}
    for lanes in (2, 4, 8, 16):
        cfg = Ara2Config(lanes=lanes)
        configs[cfg.name] = cfg
    for lanes in (8, 16, 32, 64):
        xcfg = AraXLConfig(lanes=lanes)
        configs[xcfg.name] = xcfg
    return configs
