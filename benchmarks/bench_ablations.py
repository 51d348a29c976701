"""Ablations on AraXL's design choices (beyond the paper's figures).

Three sweeps that probe the design decisions Section III motivates:

* ring hop latency — how slow may the RINGI be before slides/reductions
  suffer (the paper picks pipelined hops over low latency);
* GLSU pipeline depth — the latency-for-scalability trade of Fig 3;
* unit queue depth — how much decoupling the sequencer needs to hide
  the longer AraXL issue path.

Every sweep varies pure timing knobs at a fixed lane count, so each
kernel's trace is captured exactly once and the per-knob timing
replays fan out as each trace lands — both phases on one shared
:class:`~repro.sim.parallel.SimPool` whose process budget comes from
``--workers`` (captures hold at most ``--capture-workers`` of it);
results are byte-identical to a serial sweep regardless.  The sweep
driver itself lives in :mod:`repro.eval.ablations` so the parallel
byte-identity harness covers it alongside the paper sweeps.
"""

import dataclasses

from repro.eval.ablations import run_knob_sweep
from repro.params import AraXLConfig
from repro.report import render_table

from conftest import save_output


def test_ablation_ring_hop_latency(benchmark, pool):
    hops = (1, 2, 4, 8)

    def sweep():
        configs = [AraXLConfig(lanes=32, ring_hop_latency=h) for h in hops]
        utils = run_knob_sweep(configs, [("fconv2d", 512, {"rows": 32}),
                                         ("fdotproduct", 512, {})],
                               pool=pool)
        return [(hop, f"{u[0] * 100:.1f}%", f"{u[1] * 100:.1f}%")
                for hop, u in zip(hops, utils)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_output("ablation_ring_hop", render_table(
        ("hop cycles", "fconv2d util", "fdotproduct util"), rows,
        title="Ablation — RINGI hop latency (32L AraXL, 512 B/lane)"))
    # Slides tolerate slow hops (long vectors hide them); reductions do
    # pay, which is why the paper amortizes them over the intra-lane phase.
    first, last = float(rows[0][1][:-1]), float(rows[-1][1][:-1])
    assert first - last < 5.0


def test_ablation_glsu_depth(benchmark, pool):
    extras = (0, 4, 8, 16)

    def sweep():
        configs = [AraXLConfig(lanes=32, glsu_extra_regs=e) for e in extras]
        utils = run_knob_sweep(configs, [("fmatmul", 512, {"m": 16, "k": 64}),
                                         ("fdotproduct", 512, {})],
                               pool=pool)
        return [(extra, f"{u[0] * 100:.1f}%", f"{u[1] * 100:.1f}%")
                for extra, u in zip(extras, utils)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_output("ablation_glsu_depth", render_table(
        ("extra regs", "fmatmul util", "fdotproduct util"), rows,
        title="Ablation — GLSU pipeline depth (32L AraXL, 512 B/lane)"))
    # Compute-bound work shrugs off even 16 extra stages.
    assert float(rows[-1][1][:-1]) > 95.0


def test_ablation_queue_depth(benchmark, pool):
    depths = (1, 2, 4, 8)

    def sweep():
        configs = [dataclasses.replace(AraXLConfig(lanes=32),
                                       unit_queue_depth=d) for d in depths]
        utils = run_knob_sweep(configs,
                               [("fmatmul", 128, {"m": 16, "k": 64})],
                               pool=pool)
        return [(depth, f"{u[0] * 100:.1f}%")
                for depth, u in zip(depths, utils)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_output("ablation_queue_depth", render_table(
        ("queue depth", "fmatmul util @128 B/lane"), rows,
        title="Ablation — sequencer queue depth (32L AraXL)"))
    # Deeper queues monotonically help (or saturate) at medium vectors.
    utils = [float(r[1][:-1]) for r in rows]
    assert utils == sorted(utils)


def test_ablation_ring_hop_zoo_kernels(benchmark, pool):
    # The zoo's permute-bound kernels (scan: log-depth slides; sort:
    # rgather + mask algebra per compare-exchange) are the workloads a
    # slow ring actually hurts — the curated six barely touch the SLDU.
    hops = (1, 2, 4, 8)

    def sweep():
        configs = [AraXLConfig(lanes=8, ring_hop_latency=h) for h in hops]
        utils = run_knob_sweep(configs, [("scan", 256, {}), ("sort", 256, {})],
                               pool=pool)
        return [(hop, f"{u[0] * 100:.1f}%", f"{u[1] * 100:.1f}%")
                for hop, u in zip(hops, utils)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_output("ablation_ring_hop_zoo", render_table(
        ("hop cycles", "scan util", "sort util"), rows,
        title="Ablation — RINGI hop latency on zoo kernels (8L AraXL, "
              "256 B/lane)"))
    # Slide/gather-bound work never speeds up as hops get slower.
    scan_utils = [float(r[1][:-1]) for r in rows]
    assert scan_utils == sorted(scan_utils, reverse=True)
