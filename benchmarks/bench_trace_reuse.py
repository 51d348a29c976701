"""Trace-cache effectiveness: cold vs warm sweeps, disk layer, shared pool.

Runs the Fig 7 interface-cut sweep (the heaviest replay consumer: four
timing configurations per operating point) several times, each on its
own :class:`~repro.sim.parallel.SimPool` so the pool's
:class:`~repro.sim.parallel.PipelineStats` yield **per-phase wall-clock
columns** (capture seconds and replay seconds, summed over workers) —
pipeline efficiency, not just hit counts:

* **cold** — fresh memory cache: every (kernel, B/lane) point pays one
  functional capture;
* **warm** — same cache: every capture is an in-memory hit, only timing
  replays run.  This round is the one ``benchmark.pedantic`` measures,
  and ``warm_s`` is read back from the benchmark's own stats so the
  reported wall-clock is exactly the measured round;
* **warm, parallel** — same warm cache, point jobs carrying the cached
  traces fanned out over a pool budget of ``min(4, cpu_count)`` workers
  (clamped so a small CI host measures fan-out, not oversubscription;
  the row label records the effective count);
* **cold, parallel capture** — a fresh shared store, every point a
  point job on one shared pool of the same clamped budget with
  capturing jobs allowed to fill it (``capture_workers`` = budget): a
  worker captures each point into the store and replays it.  The parent
  records worker captures as ``remote puts``, keeping them
  distinguishable from warm hits served by earlier sweeps;
* **disk cold / disk warm** — a disk-backed cache written by one run and
  rehydrated by a fresh cache instance, recording the disk layer's
  write-through cost and its ``disk_hits`` accounting;
* **shared store** — the suite-wide store every other benchmark attaches
  to: operating points another bench (or a previous suite run) already
  captured are served from disk, and this sweep's captures warm the
  store for the rest of the suite.  The store's manifest summary
  (entries, bytes, entry ages, lifetime hits served) is appended to the
  table;
* **two machine specs, one capture** — two *distinct* machine specs
  (the registry's 32L-AraXL and a slow-ring variant with a different
  spec fingerprint) replay operating points the cold sweep already
  captured: machine identity never leaks into the capture key, so the
  warm cache serves both machines with **zero** new captures.

The warm/cold ratio bounds what any further sweep over the same operating
points costs, and the hit-rate column verifies the cache keying actually
fires across the sweep.  ``replay pts/s`` divides each sweep's replay
cross-product by its wall-clock — the headline throughput of the
vectorized (plan-compiled) replay path — and the store summary's
``packed entry bytes (mean)`` tracks the size of the columnar disk
envelope.  The trailing ``fallbacks`` / ``retries`` /
``quarantined`` columns surface each pool's
:class:`~repro.sim.faults.FaultLog` recovery counters — asserted zero
here, so a benchmark run silently limping through recoveries (and
timing the limp) fails instead of publishing skewed numbers.
"""

import time

from repro.eval.ablations import run_knob_sweep
from repro.eval.fig7_latency import run_fig7
from repro.machine import from_spec, get_machine, machine_fingerprint
from repro.report import render_table
from repro.sim import SimPool, TraceCache, TraceStore, autodetect_workers

from conftest import save_output

_KERNELS = ("fmatmul", "fconv2d", "fdotproduct", "softmax")
_SIZES = (64, 128, 256)
_POINTS = len(_KERNELS) * len(_SIZES)
#: Replays per operating point: the baseline plus three interface cuts.
_CONFIGS_PER_POINT = 4
#: Pool budget, clamped to the *schedulable* CPUs (affinity/cgroup
#: aware): on a <=2-CPU CI box a fixed 4 would measure oversubscription
#: rather than parallel speedup.
_PARALLEL_WORKERS = min(4, autodetect_workers())


def _point_key(points):
    return [(p.kernel, p.bytes_per_lane, p.interface, p.drop) for p in points]


def test_trace_reuse_cold_vs_warm(benchmark, tmp_path, trace_store):
    cache = TraceCache()

    def sweep(cache=cache, workers=1, capture_workers=1):
        """One Fig 7 run on a fresh SimPool; returns (points, pool)."""
        pool = SimPool(workers=workers, capture_workers=capture_workers,
                       cache=cache)
        points = run_fig7(kernels=_KERNELS, bytes_per_lane=_SIZES,
                          lanes=32, scale="reduced", pool=pool)
        return points, pool

    t0 = time.perf_counter()
    cold_points, cold_pool = sweep()
    cold_s = time.perf_counter() - t0
    cold_stats = dict(cache.stats)

    # The pedantic round IS the warm measurement: read its wall-clock
    # back from the benchmark stats instead of timing a separate sweep.
    warm_points, warm_pool = benchmark.pedantic(sweep, rounds=1,
                                                iterations=1)
    warm_s = benchmark.stats.stats.total
    warm_stats = dict(cache.stats)

    t0 = time.perf_counter()
    par_points, par_pool = sweep(workers=_PARALLEL_WORKERS)
    par_s = time.perf_counter() - t0
    par_stats = dict(cache.stats)

    # Cold again, but with the capture phase allowed to fill the shared
    # pool: a fresh store directory so every point is a genuine (worker)
    # capture.
    cap_store = TraceStore(disk_dir=tmp_path / "capture_store")
    t0 = time.perf_counter()
    cap_points, cap_pool = sweep(cache=cap_store,
                                 workers=_PARALLEL_WORKERS,
                                 capture_workers=_PARALLEL_WORKERS)
    cap_s = time.perf_counter() - t0

    disk_dir = tmp_path / "trace_cache"
    disk_cold = TraceCache(disk_dir=disk_dir)
    t0 = time.perf_counter()
    _, disk_cold_pool = sweep(cache=disk_cold)
    disk_cold_s = time.perf_counter() - t0

    disk_warm = TraceCache(disk_dir=disk_dir)  # fresh memory, shared disk
    t0 = time.perf_counter()
    disk_points, disk_warm_pool = sweep(cache=disk_warm)
    disk_warm_s = time.perf_counter() - t0

    # The suite-wide store: reads captures other benchmarks (or earlier
    # suite runs) left behind, and warms it for whatever runs next.
    store_before = dict(trace_store.stats)
    t0 = time.perf_counter()
    store_points, store_pool = sweep(cache=trace_store)
    store_s = time.perf_counter() - t0
    store_after = dict(trace_store.stats)

    # Two distinct machine *specs* — the registry's 32L-AraXL and a
    # slow-ring variant (different spec fingerprint) — replaying points
    # the cold sweep already captured on the warm in-memory cache.
    spec_machines = [
        get_machine("32L-AraXL"),
        from_spec({"family": "araxl", "lanes": 32,
                   "name": "32L-AraXL-slow-ring",
                   "interconnect": {"ring_hop_latency": 4}}),
    ]
    spec_kernels = [("fmatmul", 128, {"m": 16, "k": 64}),
                    ("fdotproduct", 256, {})]
    specs_before = dict(cache.stats)
    spec_pool = SimPool(workers=1, cache=cache)
    t0 = time.perf_counter()
    spec_rows = run_knob_sweep(spec_machines, spec_kernels,
                               pool=spec_pool)
    spec_s = time.perf_counter() - t0

    def row(label, seconds, stats, pool, prev=None):
        prev = prev or {"misses": 0, "hits": 0, "disk_hits": 0,
                        "remote_puts": 0}
        hits = stats["hits"] - prev["hits"]
        disk_hits = stats["disk_hits"] - prev["disk_hits"]
        remote = stats.get("remote_puts", 0) - prev.get("remote_puts", 0)
        lookups = hits + disk_hits + stats["misses"] - prev["misses"]
        rate = hits / lookups if lookups else 0.0
        ps = pool.pipeline_stats
        faults = ps.faults
        return (label, f"{seconds * 1000:.0f} ms",
                f"{ps.capture_seconds * 1000:.0f} ms",
                f"{ps.replay_seconds * 1000:.0f} ms",
                f"{ps.replay_points / seconds:.0f}/s",
                stats["misses"] - prev["misses"], remote, hits, disk_hits,
                f"{rate * 100:.0f}%",
                faults.fallbacks, faults.retries, faults.quarantined)

    rows = [
        row("cold (capture + replay)", cold_s, cold_stats, cold_pool),
        row("warm (replay only)", warm_s, warm_stats, warm_pool,
            prev=cold_stats),
        row(f"warm, parallel ({_PARALLEL_WORKERS} workers)", par_s,
            par_stats, par_pool, prev=warm_stats),
        row(f"cold, parallel capture ({_PARALLEL_WORKERS} workers)", cap_s,
            dict(cap_store.stats), cap_pool),
        row("disk cold (capture + write-through)", disk_cold_s,
            dict(disk_cold.stats), disk_cold_pool),
        row("disk warm (rehydrate + replay)", disk_warm_s,
            dict(disk_warm.stats), disk_warm_pool),
        row("shared store (suite-wide)", store_s, store_after, store_pool,
            prev=store_before),
        row("two machine specs, one capture", spec_s, dict(cache.stats),
            spec_pool, prev=specs_before),
        ("speedup (warm vs cold)", f"{cold_s / warm_s:.2f}x",
         "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-"),
        (f"speedup (parallel x{_PARALLEL_WORKERS} vs warm)",
         f"{warm_s / par_s:.2f}x", "-", "-", "-", "-", "-", "-", "-",
         "-", "-", "-", "-"),
    ]
    table = render_table(
        ("sweep", "wall-clock", "capture work", "replay work",
         "replay pts/s", "captures", "remote puts", "mem hits",
         "disk hits", "mem hit rate", "fallbacks", "retries",
         "quarantined"),
        rows,
        title="Trace reuse — Fig 7 sweep "
              f"({len(_KERNELS)} kernels x {len(_SIZES)} B/lane, 32L)")

    ss = trace_store.store_stats
    mean_entry = (ss["disk_bytes"] / ss["disk_entries"]
                  if ss["disk_entries"] else 0.0)
    summary = render_table(
        ("entries", "bytes", "packed entry bytes (mean)", "oldest age",
         "newest age", "mem hits", "disk hits", "captures", "remote puts"),
        [(ss["disk_entries"], ss["disk_bytes"], f"{mean_entry:.0f}",
          f"{ss['oldest_age_s']:.0f} s", f"{ss['newest_age_s']:.0f} s",
          ss["hits"], ss["disk_hits"], ss["misses"], ss["remote_puts"])],
        title=f"Shared trace store — {ss['dir']} "
              f"(budget {ss['max_bytes'] // (1024 * 1024)} MiB)")
    save_output("trace_reuse", table + "\n\n" + summary)

    # Results must not depend on whether the trace was captured, reused,
    # rehydrated from disk, shared with other benches, or run through a
    # pooled schedule.
    assert _point_key(cold_points) == _point_key(warm_points)
    assert _point_key(cold_points) == _point_key(par_points)
    assert _point_key(cold_points) == _point_key(cap_points)
    assert _point_key(cold_points) == _point_key(disk_points)
    assert _point_key(cold_points) == _point_key(store_points)
    # Cold pays exactly one capture per operating point; warm pays none
    # (pure in-memory hits); the disk-warm sweep rehydrates every point
    # from disk without a single functional re-execution.
    assert cold_stats["misses"] == _POINTS
    assert warm_stats["misses"] == cold_stats["misses"]
    assert warm_stats["hits"] - cold_stats["hits"] == _POINTS
    dw = disk_warm.stats
    assert (dw["misses"], dw["hits"], dw["disk_hits"]) == (0, 0, _POINTS)
    # The parallel-capture sweep pays every point exactly once, split
    # between worker captures (remote puts) and any in-process
    # fallbacks (misses); a serial host (clamp = 1 worker) degenerates
    # to misses == _POINTS.
    cs = cap_store.stats
    assert cs["misses"] + cs["remote_puts"] == _POINTS
    if _PARALLEL_WORKERS > 1:
        assert cs["remote_puts"] > 0
    # Every shared-store lookup is served (memory, disk, or a capture
    # that warms the store for the next bench) — never lost.
    served = [store_after[k] - store_before[k]
              for k in ("hits", "disk_hits", "misses")]
    assert sum(served) == _POINTS
    # Per-phase accounting: every pool saw every operating point once in
    # its capture phase and the full interface cross-product in replay.
    for pool in (cold_pool, warm_pool, par_pool, cap_pool, disk_cold_pool,
                 disk_warm_pool, store_pool):
        assert pool.pipeline_stats.capture_points == _POINTS
        assert pool.pipeline_stats.replay_points \
            == _POINTS * _CONFIGS_PER_POINT
        # The fault columns are recovery counters: with no fault plan
        # active, every one of them must be zero in every sweep.
        faults = pool.pipeline_stats.faults
        assert faults.recovered_total() == 0
        assert faults.worker_crashes == 0 and faults.job_errors == 0
    # Two distinct machine-spec identities shared every capture: zero
    # new functional executions, one warm hit per kernel spec, and the
    # full machines x kernels replay cross-product (the fingerprints
    # differ, so the replay dedup must NOT conflate the two machines —
    # the slow-ring variant really produces different numbers).
    specs_after = dict(cache.stats)
    assert machine_fingerprint(spec_machines[0]) \
        != machine_fingerprint(spec_machines[1])
    assert specs_after["misses"] == specs_before["misses"]
    assert specs_after["hits"] - specs_before["hits"] == len(spec_kernels)
    assert spec_pool.pipeline_stats.replay_points \
        == len(spec_kernels) * len(spec_machines)
    assert spec_rows[0] != spec_rows[1]
    # The cold sweep's capture phase does real functional work; the warm
    # sweep's capture phase only serves cache hits.
    assert cold_pool.pipeline_stats.capture_seconds > 0.0
    assert warm_pool.pipeline_stats.replay_seconds > 0.0
    # A warm sweep must be measurably faster than the cold one.
    assert warm_s < cold_s
