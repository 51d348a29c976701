"""Shared machine-model interface consumed by the timing engine.

A :class:`MachineModel` answers "how fast / how late" questions for one
machine instance.  Both microarchitectures share the lane datapath (one
64-bit FPU+ALU per lane) — they differ in the interconnects, which is
precisely the paper's point — so the common rates live here and the
subclasses override the interface-dependent quantities.

Every quantity a model returns is read from a named field of the
machine's configuration (equivalently, of its declarative
:class:`~repro.machine.MachineSpec`): this module contains *laws*
(how fields combine), never latency constants of its own.
"""

from __future__ import annotations

import math

from ..isa.instructions import MemPattern
from ..params import SystemConfig


class MachineModel:
    """Base class; see :class:`Ara2Model` and :class:`AraXLModel`."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.config.name

    @property
    def lanes(self) -> int:
        return self.config.lanes

    # ------------------------------------------------------------------
    # Lane datapath (shared)
    # ------------------------------------------------------------------
    def vfu_rate(self, sew: int) -> float:
        """Elements/cycle across all lanes (one lane-width word per lane
        per cycle, SIMD-packed below the lane width)."""
        return self.lanes * (self.config.lane_width_bits / sew)

    def sldu_rate(self, sew: int) -> float:
        """Local slide shuffle throughput (one lane word/lane/cycle)."""
        return self.lanes * (self.config.lane_width_bits / sew)

    def masku_bit_rate(self) -> float:
        """Mask-layout operations process this many mask bits per cycle."""
        return self.lanes * float(self.config.lane_width_bits)

    @property
    def fpu_latency(self) -> int:
        return self.config.fpu_latency

    @property
    def valu_latency(self) -> int:
        return self.config.valu_latency

    @property
    def sldu_latency(self) -> int:
        """Local shuffle pipeline depth of the slide unit."""
        return self.config.sldu_latency

    @property
    def masku_latency(self) -> int:
        return self.config.masku_latency

    @property
    def dispatch_latency(self) -> int:
        return self.config.dispatch_latency

    @property
    def unit_queue_depth(self) -> int:
        return self.config.unit_queue_depth

    @property
    def vsetvli_cycles(self) -> int:
        """CVA6-visible cost of reconfiguring the vector unit."""
        return self.config.vsetvli_cycles

    # ------------------------------------------------------------------
    # Memory rates (bandwidths shared; latencies are interface-specific)
    # ------------------------------------------------------------------
    def mem_rate(self, pattern: MemPattern, ew_bytes: int,
                 is_store: bool) -> float:
        """Elements/cycle sustainable for a given access pattern."""
        if pattern in (MemPattern.UNIT, MemPattern.MASK):
            memory = self.config.memory
            per_lane = (memory.write_bytes_per_cycle_per_lane if is_store
                        else memory.read_bytes_per_cycle_per_lane)
            return per_lane * self.config.lanes / ew_bytes
        if pattern is MemPattern.STRIDED:
            return self.strided_elems_per_cycle
        return self.indexed_elems_per_cycle

    # ------------------------------------------------------------------
    # Interface-specific hooks (overridden)
    # ------------------------------------------------------------------
    @property
    def request_latency(self) -> int:
        raise NotImplementedError

    @property
    def issue_gap(self) -> float:
        raise NotImplementedError

    @property
    def scalar_result_latency(self) -> int:
        raise NotImplementedError

    @property
    def load_first_data_latency(self) -> int:
        raise NotImplementedError

    @property
    def store_pipe_latency(self) -> int:
        raise NotImplementedError

    @property
    def strided_elems_per_cycle(self) -> float:
        raise NotImplementedError

    @property
    def indexed_elems_per_cycle(self) -> float:
        raise NotImplementedError

    def slide_extra_cycles(self, amount: int, vl: int) -> float:
        """Total pipeline latency of a slide (local shuffle + interconnect).

        This is the delay between a source element entering the SLDU and
        the corresponding destination element becoming consumable; it does
        not affect throughput (the ring's 64 bit/cycle per direction
        matches the one-boundary-element-per-lane-block export rate of
        slide-by-1).
        """
        raise NotImplementedError

    def reduction_tail_cycles(self, sew: int) -> float:
        """Fixed cycles after the intra-lane phase of a reduction."""
        raise NotImplementedError

    def simd_reduction_cycles(self, sew: int) -> float:
        """Final SIMD stage: fold sub-lane-width elements inside a word."""
        width = self.config.lane_width_bits
        steps = int(math.log2(width // sew)) if sew < width else 0
        return steps * self.fpu_latency
