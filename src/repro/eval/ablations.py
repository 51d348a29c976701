"""Timing-knob ablation sweeps (design-space probes beyond the figures).

The benchmark suite's ablations (ring hop latency, GLSU pipeline depth,
sequencer queue depth — see ``benchmarks/bench_ablations.py``) all share
one shape: a set of machine configurations differing only in pure
timing knobs, crossed with a set of kernels.  The knobs never change
VLEN, so each kernel's trace is captured exactly once and every config
replays it.  :func:`run_knob_sweep` is that shape as a reusable driver,
run through the same shared-:class:`~repro.sim.parallel.SimPool`
capture/replay pipeline as the paper sweeps so the parallel byte-
identity harness covers ablations too.
"""

from __future__ import annotations

from typing import Sequence

from ..kernels import zoo_builder
from ..params import SystemConfig
from ..sim import CaptureTask, SimPool, TraceCache, run_pipeline

#: One kernel of a sweep: ``(kernel_name, bytes_per_lane, problem_kwargs)``.
KernelSpec = tuple


def run_knob_sweep(configs: Sequence[SystemConfig],
                   kernel_specs: Sequence[KernelSpec],
                   trace_cache: TraceCache | None = None,
                   workers: int | None = 1,
                   capture_workers: int | None = 1,
                   job_timeout: float | None = None,
                   sim_pool: SimPool | None = None) -> list[list[float]]:
    """Utilization matrix for timing-knob ``configs`` x ``kernel_specs``.

    Capture phase: one functional execution per kernel spec (the knobs
    do not change VLEN, so every config replays the same trace), served
    from ``trace_cache`` — e.g. the suite's shared store — when another
    sweep already captured that point.  Replay phase: the full configs
    x kernels cross-product, each spec's replays entering the shared
    :class:`~repro.sim.parallel.SimPool` as its trace lands.
    ``workers`` is the pool's total process budget, ``capture_workers``
    the soft share captures may hold while replays are pending; pass
    ``sim_pool`` to supply (and afterwards inspect) the pool yourself.
    Returns ``rows[config_index][spec_index] -> utilization``,
    byte-identical for any worker counts.
    """
    if sim_pool is None:
        sim_pool = SimPool(workers=workers, capture_workers=capture_workers,
                           cache=trace_cache, job_timeout=job_timeout)
    runs = []
    captures: list[CaptureTask] = []
    replays = []
    for name, bpl, kw in kernel_specs:
        runs.append(zoo_builder(name)(configs[0], bpl, **kw))
        cidx = len(captures)
        captures.append(CaptureTask.for_kernel(name, configs[0], bpl, kw))
        replays.extend((config, cidx) for config in configs)
    reports = run_pipeline(captures, replays, sim_pool)
    per_spec = len(configs)
    rows: list[list[float]] = [[0.0] * len(kernel_specs) for _ in configs]
    for spec_i, run in enumerate(runs):
        group = reports[spec_i * per_spec:(spec_i + 1) * per_spec]
        for cfg_i, report in enumerate(group):
            rows[cfg_i][spec_i] = report.fpu_utilization(
                run.max_flops_per_cycle)
    return rows
