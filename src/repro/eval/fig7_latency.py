"""Fig 7 — latency tolerance of the three interfaces.

Re-runs every kernel on a 64-lane AraXL with register cuts added to one
interface at a time (the Fig 5 setups):

* (a) GLSU +4 registers -> +8 cycles memory round trip;
* (b) REQI +1 register  -> acknowledgement 2 cycles later;
* (c) RINGI +1 register -> +1 cycle per ring hop;

and reports the FPU-utilization drop versus the unmodified baseline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ConfigError
from ..kernels import KERNELS
from ..params import AraXLConfig
from ..report.tables import render_table
from ..sim import CaptureTask, SimPool, TraceCache, run_pipeline
from .fig6_scaling import _SCALE_KWARGS, DEFAULT_BYTES_PER_LANE

#: Section IV-C claims: maximum utilization drop per interface in the
#: long-vector regime (>= 128 B/lane), plus the per-kernel maxima the
#: figure annotates.
PAPER_FIG7_CLAIMS = {
    "glsu_max_drop_long": 0.015,
    "reqi_max_drop": 0.053,   # fconv2d at 128 B/lane
    "ringi_max_drop": 0.014,
    "long_vector_drop_bound": 0.02,  # "less than 2%" at 512 B/lane
}

INTERFACE_SETUPS = {
    "glsu": {"glsu_extra_regs": 4},
    "reqi": {"reqi_extra_regs": 1},
    "ringi": {"ringi_extra_regs": 1},
}


@dataclass(frozen=True)
class Fig7Point:
    """One (interface, kernel, B/lane) utilization-drop measurement."""
    interface: str
    kernel: str
    bytes_per_lane: int
    base_utilization: float
    cut_utilization: float

    @property
    def drop(self) -> float:
        return self.base_utilization - self.cut_utilization


def run_fig7(kernels: tuple[str, ...] | None = None,
             bytes_per_lane: tuple[int, ...] = DEFAULT_BYTES_PER_LANE,
             lanes: int = 64,
             interfaces: tuple[str, ...] = ("glsu", "reqi", "ringi"),
             scale: str = "paper",
             base_config: AraXLConfig | None = None,
             trace_cache: TraceCache | None = None,
             workers: int | None = 1,
             capture_workers: int | None = 1,
             job_timeout: float | None = None,
             sim_pool: SimPool | None = None) -> list[Fig7Point]:
    """Run the Fig 7 sweep as a capture/replay pipeline.

    The register-cut configurations change only the timing model — the
    dynamic trace is identical across them — so the **capture phase**
    executes each (kernel, B/lane) point functionally exactly once and
    the **replay phase** times the captured trace on the baseline plus
    every interface-cut machine, each point's replays entering the
    shared :class:`~repro.sim.parallel.SimPool` as soon as its trace
    lands.  ``base_config`` substitutes the unmodified machine the cuts
    are applied to (e.g. one resolved from a spec file); it must be an
    AraXL-family configuration because the ``*_extra_regs`` knobs are
    AraXL interconnect quantities, and it overrides ``lanes``.
    ``workers`` is the pool's total process budget (``1`` stays
    in-process, ``None`` autodetects) and ``capture_workers`` the soft
    share captures may hold while replays are pending; pass your own
    ``sim_pool`` to read its :class:`~repro.sim.parallel.PipelineStats`
    afterwards.  Output is byte-identical for any combination.
    """
    kernels = kernels or tuple(KERNELS)
    kwargs_by_kernel = _SCALE_KWARGS[scale]
    if base_config is None:
        base_config = AraXLConfig(lanes=lanes)
    elif getattr(base_config, "family", None) != "araxl":
        raise ConfigError(
            f"fig7 sweeps AraXL interface register cuts; machine "
            f"{getattr(base_config, 'name', base_config)!r} is family "
            f"{getattr(base_config, 'family', None)!r}, not 'araxl'")
    cut_configs = {interface: dataclasses.replace(
        base_config, **INTERFACE_SETUPS[interface])
        for interface in interfaces}
    if sim_pool is None:
        sim_pool = SimPool(workers=workers, capture_workers=capture_workers,
                           cache=trace_cache, job_timeout=job_timeout)

    # ---- plan: one capture per (kernel, B/lane) point; the baseline
    # replay plus one replay per interface cut reference it by index.
    meta = []  # (kernel, bpl, run), one entry per operating point
    captures: list[CaptureTask] = []
    replays = []  # (config, capture index)
    for kernel_name in kernels:
        builder = KERNELS[kernel_name]
        kw = kwargs_by_kernel.get(kernel_name, {})
        for bpl in bytes_per_lane:
            base_run = builder(base_config, bpl, **kw)
            cidx = len(captures)
            captures.append(CaptureTask.for_kernel(kernel_name, base_config,
                                                   bpl, kw))
            meta.append((kernel_name, bpl, base_run))
            replays.append((base_config, cidx))
            for interface in interfaces:
                replays.append((cut_configs[interface], cidx))

    # ---- pipeline: captures fan out, replays start as traces land.
    reports = run_pipeline(captures, replays, sim_pool)

    points: list[Fig7Point] = []
    per_point = 1 + len(interfaces)
    for slot, (kernel_name, bpl, base_run) in enumerate(meta):
        group = reports[slot * per_point:(slot + 1) * per_point]
        peak = base_run.max_flops_per_cycle
        base_util = group[0].fpu_utilization(peak)
        for interface, cut_report in zip(interfaces, group[1:]):
            points.append(Fig7Point(
                interface=interface,
                kernel=kernel_name,
                bytes_per_lane=bpl,
                base_utilization=base_util,
                cut_utilization=cut_report.fpu_utilization(peak),
            ))
    return points


def max_drop(points: list[Fig7Point], interface: str,
             min_bytes_per_lane: int = 0) -> float:
    """Worst utilization drop for one interface (optionally long-vector only)."""
    drops = [p.drop for p in points if p.interface == interface
             and p.bytes_per_lane >= min_bytes_per_lane]
    return max(drops, default=0.0)


def render_fig7(points: list[Fig7Point]) -> str:
    """One table per interface: kernels as rows, B/lane as columns."""
    out = []
    for interface in ("glsu", "reqi", "ringi"):
        pts = [p for p in points if p.interface == interface]
        if not pts:
            continue
        kernels = sorted({p.kernel for p in pts})
        sizes = sorted({p.bytes_per_lane for p in pts})
        rows = []
        for kernel in kernels:
            row: list[object] = [kernel]
            for bpl in sizes:
                pt = next(p for p in pts if p.kernel == kernel
                          and p.bytes_per_lane == bpl)
                row.append(f"{pt.drop * 100:+.1f}%")
            rows.append(row + [f"{max(p.drop for p in pts if p.kernel == kernel) * 100:.1f}%"])
        headers = ["kernel"] + [f"{b} B/lane" for b in sizes] + ["max drop"]
        out.append(render_table(
            headers, rows,
            title=f"Fig 7 ({interface.upper()}) — utilization drop from "
                  f"extra register cuts"))
    return "\n\n".join(out)
