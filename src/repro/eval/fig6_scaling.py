"""Fig 6 — weak-scaling performance and FPU utilization.

Sweeps every kernel over {8L/16L Ara2, 8/16/32/64L AraXL} at 64-512
bytes of vector per lane, normalizing performance to the 8-lane Ara2
(the paper's bars) and reporting utilization against each kernel's
Table-I bound (the paper's lines).

``scale="paper"`` uses the Table I problem sizes; ``scale="reduced"``
shrinks the non-vectorized dimensions (fewer matrix rows) so unit tests
stay fast — the per-B/lane *shape* is preserved, absolute utilization of
the amortization-heavy kernels lands a little lower.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels import KERNELS
from ..params import Ara2Config, AraXLConfig, SystemConfig
from ..report.tables import render_table
from ..sim import CaptureTask, SimPool, run_pipeline

DEFAULT_BYTES_PER_LANE = (64, 128, 256, 512)

#: Machine every Fig 6 bar is normalized against (the paper's baseline).
BASELINE_MACHINE = "8L-Ara2"

#: Headline numbers from Section IV-B used as acceptance targets.
PAPER_FIG6_CLAIMS = {
    ("fmatmul", "util_64L_512"): 0.99,
    ("fconv2d", "util_64L_512"): 0.97,
    ("fdotproduct", "scaling_64L_512"): 6.1,
    ("softmax", "scaling_64L_512"): 7.3,
}

_SCALE_KWARGS = {
    "paper": {"fmatmul": {}, "fconv2d": {}, "jacobi2d": {},
              "fdotproduct": {}, "exp": {}, "softmax": {}},
    "reduced": {"fmatmul": {"m": 16, "k": 64},
                "fconv2d": {"rows": 32}, "jacobi2d": {"rows": 32},
                "fdotproduct": {}, "exp": {}, "softmax": {}},
}


def default_machines() -> list[SystemConfig]:
    """The six machines of the paper's Fig 6 sweep."""
    return [Ara2Config(lanes=8), Ara2Config(lanes=16),
            AraXLConfig(lanes=8), AraXLConfig(lanes=16),
            AraXLConfig(lanes=32), AraXLConfig(lanes=64)]


@dataclass(frozen=True)
class Fig6Point:
    """One (kernel, machine, B/lane) measurement of the Fig 6 sweep."""
    kernel: str
    machine: str
    lanes: int
    bytes_per_lane: int
    cycles: float
    flops_per_cycle: float
    utilization: float
    scaling_vs_8l_ara2: float


def run_fig6(kernels: tuple[str, ...] | None = None,
             bytes_per_lane: tuple[int, ...] = DEFAULT_BYTES_PER_LANE,
             machines: list[SystemConfig] | None = None,
             scale: str = "paper",
             verify: bool = False,
             pool: SimPool | None = None) -> list[Fig6Point]:
    """Execute the Fig 6 sweep; returns one point per (kernel, machine, size).

    A capture/replay pipeline over one shared
    :class:`~repro.sim.parallel.SimPool`.  **Capture**: machines
    sharing a VLEN (e.g. 8L-Ara2 and 8L-AraXL) execute the same program
    over the same data, so one :class:`~repro.sim.parallel.CaptureTask`
    runs per distinct trace key.  **Replay**: every (kernel, machine,
    size) timing replay is independent, and each VLEN group's replays
    enter the pool as soon as its trace lands.  ``pool`` supplies the
    worker budget and trace cache (default: in-process, private cache);
    the rendered output is byte-identical for any pool.
    """
    kernels = kernels or tuple(KERNELS)
    machines = machines if machines is not None else default_machines()
    kwargs_by_kernel = _SCALE_KWARGS[scale]

    # ---- plan: one capture per distinct trace key; every (kernel,
    # machine, size) point replays against its VLEN group's capture.
    cidx_by_key: dict = {}
    captures: list[CaptureTask] = []
    replays = []  # (config, capture index)
    meta: list[tuple[str, int, SystemConfig, object]] = []
    for kernel_name in kernels:
        builder = KERNELS[kernel_name]
        kw = kwargs_by_kernel.get(kernel_name, {})
        for bpl in bytes_per_lane:
            for config in machines:
                run = builder(config, bpl, **kw)
                key = run.trace_key(config)
                cidx = cidx_by_key.get(key)
                if cidx is None:
                    cidx = cidx_by_key[key] = len(captures)
                    captures.append(CaptureTask.for_kernel(
                        kernel_name, config, bpl, kw, verify=verify))
                meta.append((kernel_name, bpl, config, run))
                replays.append((config, cidx))

    # ---- pipeline: captures fan out, replays start as traces land.
    reports = run_pipeline(captures, replays, pool)

    # ---- assembly: index the normalization baseline per (kernel, B/lane)
    # after the replay phase, so custom `machines=` lists are order-
    # independent (a machine listed before 8L-Ara2 still normalizes).
    base_perf: dict[tuple[str, int], float] = {}
    for (kernel_name, bpl, config, _run), report in zip(meta, reports):
        if config.name == BASELINE_MACHINE:
            base_perf[(kernel_name, bpl)] = report.flops_per_cycle
    points: list[Fig6Point] = []
    for (kernel_name, bpl, config, run), report in zip(meta, reports):
        perf = report.flops_per_cycle
        base = base_perf.get((kernel_name, bpl))
        points.append(Fig6Point(
            kernel=kernel_name,
            machine=config.name,
            lanes=config.lanes,
            bytes_per_lane=bpl,
            cycles=report.cycles,
            flops_per_cycle=perf,
            utilization=report.fpu_utilization(run.max_flops_per_cycle),
            scaling_vs_8l_ara2=(perf / base) if base else 0.0,
        ))
    return points


def render_fig6(points: list[Fig6Point]) -> str:
    """One table per kernel, machines as rows, B/lane as columns."""
    out = []
    kernels = sorted({p.kernel for p in points})
    sizes = sorted({p.bytes_per_lane for p in points})
    # Index once: the triple render loop below would otherwise rescan the
    # whole point list per cell (O(n^2) in sweep size).
    by_key = {(p.kernel, p.machine, p.bytes_per_lane): p for p in points}
    for kernel in kernels:
        rows = []
        machines = []
        for p in points:
            if p.kernel == kernel and p.machine not in machines:
                machines.append(p.machine)
        for machine in machines:
            row: list[object] = [machine]
            for bpl in sizes:
                pt = by_key[(kernel, machine, bpl)]
                row.append(f"{pt.scaling_vs_8l_ara2:.2f}x/{pt.utilization * 100:.0f}%")
            rows.append(row)
        headers = ["machine"] + [f"{b} B/lane" for b in sizes]
        out.append(render_table(
            headers, rows,
            title=f"Fig 6 [{kernel}] — scaling vs 8L-Ara2 / FPU utilization"))
    return "\n\n".join(out)
