"""Combined functional + timing result of a simulation run."""

from __future__ import annotations

from dataclasses import dataclass

from ..functional.executor import ExecResult
from ..timing.report import TimingReport


@dataclass
class RunResult:
    """A run's functional outcome paired with its timing report."""
    functional: ExecResult
    timing: TimingReport

    @property
    def cycles(self) -> float:
        return self.timing.cycles

    @property
    def dp_flops(self) -> float:
        return self.timing.dp_flops

    @property
    def flops_per_cycle(self) -> float:
        return self.timing.flops_per_cycle

    @property
    def state(self):
        """Final architectural state; None on a capture served through
        a ``TraceCache``, as :attr:`mem` is."""
        return self.functional.state

    @property
    def mem(self):
        """Functional memory after the run (for result checking); None
        on a capture served through a ``TraceCache``, which is
        replay-only."""
        return self.functional.extra.get("mem")

    def utilization(self, peak_flops_per_cycle: float) -> float:
        return self.timing.fpu_utilization(peak_flops_per_cycle)
