"""Table III — PPA comparison against state-of-the-art laned designs.

Runs fmatmul at 512 B/lane (the paper's operating point for this table)
on 16L Ara2 and 16/32/64L AraXL, rolls each run through the frequency,
area and power models, and lines the rows up with the published table
(plus the static Vitruvius+ reference row).
"""

from __future__ import annotations

from ..kernels import build_fmatmul
from ..params import Ara2Config, AraXLConfig, SystemConfig
from ..ppa import PpaPoint, ppa_point
from ..ppa.efficiency import VITRUVIUS_ROW
from ..report.tables import render_table

#: Published Table III rows.
PAPER_TABLE3 = {
    "8L-Vitruvius+": {"freq": 1.40, "gflops": 22.4, "gflops_w": 47.3,
                      "gflops_mm2": 17.23},
    "16L-Ara2": {"freq": 1.08, "gflops": 34.2, "gflops_w": 30.3,
                 "gflops_mm2": 11.6},
    "16L-AraXL": {"freq": 1.40, "gflops": 44.3, "gflops_w": 39.6,
                  "gflops_mm2": 17.4},
    "32L-AraXL": {"freq": 1.40, "gflops": 87.2, "gflops_w": 40.4,
                  "gflops_mm2": 17.8},
    "64L-AraXL": {"freq": 1.15, "gflops": 146.0, "gflops_w": 40.1,
                  "gflops_mm2": 15.1},
}


def default_configs() -> list[SystemConfig]:
    """The four machines of the paper's Table III comparison."""
    return [Ara2Config(lanes=16), AraXLConfig(lanes=16),
            AraXLConfig(lanes=32), AraXLConfig(lanes=64)]


def run_table3(configs: list[SystemConfig] | None = None,
               bytes_per_lane: int = 512,
               scale: str = "paper",
               pool=None) -> list[PpaPoint]:
    """Run the Table III PPA sweep as a capture/replay pipeline on
    ``pool`` (default: in-process, private cache)."""
    from ..sim import CaptureTask, run_pipeline
    from .fig6_scaling import _SCALE_KWARGS

    configs = configs if configs is not None else default_configs()
    kw = _SCALE_KWARGS[scale].get("fmatmul", {})
    # 16L-Ara2 and 16L-AraXL share a VLEN: fmatmul runs functionally
    # once per VLEN group, and every machine's timing replay enters the
    # shared SimPool as its group's trace lands.
    cidx_by_key: dict = {}
    captures: list[CaptureTask] = []
    replays = []
    for config in configs:
        run = build_fmatmul(config, bytes_per_lane, **kw)
        key = run.trace_key(config)
        cidx = cidx_by_key.get(key)
        if cidx is None:
            cidx = cidx_by_key[key] = len(captures)
            captures.append(CaptureTask.for_kernel(
                "fmatmul", config, bytes_per_lane, kw))
        replays.append((config, cidx))
    reports = run_pipeline(captures, replays, pool)
    return [ppa_point(config, report)
            for (config, _cidx), report in zip(replays, reports)]


def render_table3(points: list[PpaPoint]) -> str:
    """Table III: model PPA rows lined up with the published numbers."""
    rows = [(
        VITRUVIUS_ROW["machine"], VITRUVIUS_ROW["L"],
        f"{VITRUVIUS_ROW['Freq [GHz]']:.2f}*",
        f"{VITRUVIUS_ROW['Max Perf [GFLOPs]']:.1f}*",
        f"{VITRUVIUS_ROW['Energy Eff [GFLOPs/W]']:.1f}*",
        f"{VITRUVIUS_ROW['Area Eff [GFLOPs/mm2]']:.2f}*",
    )]
    for p in points:
        paper = PAPER_TABLE3.get(p.machine, {})
        rows.append((
            p.machine, p.lanes,
            f"{p.freq_ghz:.2f} ({paper.get('freq', '-')})",
            f"{p.gflops:.1f} ({paper.get('gflops', '-')})",
            f"{p.gflops_per_watt:.1f} ({paper.get('gflops_w', '-')})",
            f"{p.gflops_per_mm2:.1f} ({paper.get('gflops_mm2', '-')})",
        ))
    table = render_table(
        ("machine", "L", "Freq [GHz]", "GFLOPs", "GFLOPs/W", "GFLOPs/mm2"),
        rows,
        title="Table III — PPA, model (paper); * = published reference")
    return table + "\n* Vitruvius+ excludes scalar core and caches (paper note)"
