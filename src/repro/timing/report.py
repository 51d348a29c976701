"""Timing replay results: cycles, per-unit busy time, utilization.

The quantities here map one-to-one onto the paper's metrics:

* ``cycles`` — simulated runtime of the kernel;
* ``dp_flops`` — DP-FLOP retired (FMA counts 2), from the trace;
* ``flops_per_cycle`` — the performance every Fig 6 bar is built from;
* ``fpu_utilization(peak)`` — "percentage of runtime in which the FPU is
  producing valid results", normalized against a peak in FLOP/cycle
  (the machine peak ``2*lanes`` or a kernel bound from Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimingReport:
    """Cycle-level outcome of one replay: cycles, FLOPs, unit busy time."""
    machine: str
    cycles: float
    dp_flops: float
    unit_busy: dict[str, float] = field(default_factory=dict)
    unit_ops: dict[str, int] = field(default_factory=dict)
    scalar_cycles: float = 0.0
    vector_instructions: int = 0
    scalar_instructions: int = 0
    issue_stall_cycles: float = 0.0
    mem_bytes_read: float = 0.0
    mem_bytes_written: float = 0.0
    dcache_hits: int = 0
    dcache_misses: int = 0

    @property
    def flops_per_cycle(self) -> float:
        return self.dp_flops / self.cycles if self.cycles > 0 else 0.0

    def fpu_utilization(self, peak_flops_per_cycle: float) -> float:
        """Achieved fraction of a FLOP/cycle peak (Table I bounds)."""
        if peak_flops_per_cycle <= 0 or self.cycles <= 0:
            return 0.0
        return min(1.0, self.flops_per_cycle / peak_flops_per_cycle)

    def unit_utilization(self, unit: str) -> float:
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.unit_busy.get(unit, 0.0) / self.cycles)

    def gflops(self, freq_ghz: float) -> float:
        """Absolute performance at an operating frequency."""
        return self.flops_per_cycle * freq_ghz

    def summary(self) -> str:
        lines = [
            f"machine               {self.machine}",
            f"cycles                {self.cycles:,.0f}",
            f"DP-FLOP               {self.dp_flops:,.0f}",
            f"DP-FLOP/cycle         {self.flops_per_cycle:.2f}",
            f"vector instructions   {self.vector_instructions}",
            f"scalar instructions   {self.scalar_instructions}",
            f"issue stalls (cyc)    {self.issue_stall_cycles:,.0f}",
        ]
        for unit in sorted(self.unit_busy):
            lines.append(
                f"{unit:<10} busy       {self.unit_busy[unit]:,.0f} cyc "
                f"({self.unit_utilization(unit) * 100:.1f}%)"
            )
        return "\n".join(lines)
