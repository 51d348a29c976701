"""Table I — benchmark parameters and peak-performance bounds.

For every kernel: the paper's LMUL and max-performance law, the law this
reproduction's kernel implements, and the peak actually *measured* by
running the kernel in the long-vector regime (which should approach the
bound — that is what Fig 6's high-utilization claims mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..kernels import KERNELS
from ..params import AraXLConfig, SystemConfig
from ..report.tables import render_table

#: Published Table I: LMUL values and max perf as a multiple of
#: lanes*clusters (DP-FLOP/cycle).
PAPER_TABLE1 = {
    "fmatmul": {"lmul": (1, 2, 4), "max_perf_factor": Fraction(2)},
    "fconv2d": {"lmul": (2,), "max_perf_factor": Fraction(2)},
    "jacobi2d": {"lmul": (4,), "max_perf_factor": Fraction(1)},
    "fdotproduct": {"lmul": (8,), "max_perf_factor": Fraction(1)},
    "exp": {"lmul": (1,), "max_perf_factor": Fraction(28, 21)},
    "softmax": {"lmul": (1,), "max_perf_factor": Fraction(32, 25)},
}


@dataclass(frozen=True)
class Table1Row:
    """One kernel's peak-performance bounds and measurement."""
    kernel: str
    lmul: int
    paper_factor: float
    model_factor: float
    measured_factor: float

    @property
    def achieved_fraction(self) -> float:
        return self.measured_factor / self.model_factor if self.model_factor \
            else 0.0


def run_table1(config: SystemConfig | None = None,
               bytes_per_lane: int = 512,
               scale: str = "paper",
               pool=None) -> list[Table1Row]:
    """Measure every kernel's peak at one operating point.

    A capture/replay pipeline like the other sweeps: the **capture
    phase** executes each kernel functionally once (or fetches its trace
    from the pool's cache — e.g. the suite's shared disk store, where a
    Fig 6/7 run over the same operating points has already paid for it)
    and the **replay phase** times each capture as its trace lands, both
    inside one shared :class:`~repro.sim.parallel.SimPool`.  Rows are
    byte-identical for any ``pool`` and any cache state.
    """
    from ..sim import CaptureTask, run_pipeline
    from .fig6_scaling import _SCALE_KWARGS

    config = config if config is not None else AraXLConfig(lanes=64)

    # ---- plan: one capture and one replay per kernel.
    meta = []
    captures = []
    replays = []
    for name, builder in KERNELS.items():
        kw = _SCALE_KWARGS[scale].get(name, {})
        run = builder(config, bytes_per_lane, **kw)
        meta.append((name, run))
        replays.append((config, len(captures)))
        captures.append(CaptureTask.for_kernel(name, config,
                                               bytes_per_lane, kw))

    # ---- pipeline: captures fan out, replays start as traces land.
    reports = run_pipeline(captures, replays, pool)

    rows = []
    for (name, run), report in zip(meta, reports):
        rows.append(Table1Row(
            kernel=name,
            lmul=run.problem["lmul"],
            paper_factor=float(PAPER_TABLE1[name]["max_perf_factor"]),
            model_factor=run.max_flops_per_cycle / config.lanes,
            measured_factor=report.flops_per_cycle / config.lanes,
        ))
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    """Table I: paper law vs model law vs measured peak per kernel."""
    table_rows = [
        (r.kernel, r.lmul, f"{r.paper_factor:.3f}*LC",
         f"{r.model_factor:.3f}*LC", f"{r.measured_factor:.3f}*LC",
         f"{r.achieved_fraction * 100:.1f}%")
        for r in rows
    ]
    return render_table(
        ("kernel", "LMUL", "paper bound", "model bound", "measured",
         "achieved"),
        table_rows,
        title="Table I — kernel peak DP-FLOP/cycle bounds (LC = total lanes)")
