"""Outside-in layer tracing for the benchmark's traced run.

The traced run drives a workload in-process after :func:`install` has
wrapped the public entry point of every simulator layer.  Nothing in
``src/`` changes: the wrappers replace class attributes and module
globals for the duration of the run and :meth:`Tracer.uninstall` puts
the originals back.  Each wrapped call records one span — name, start,
end and parent span — in memory; per-layer numbers are *self times*
(a span's duration minus the part of it its child spans cover) plus
counts taken at the same boundaries.

Pool workers forked by a pooled sweep inherit the wrappers, but their
spans stay in the worker: the per-layer numbers describe the parent
process only (worker-side work is read from ``SimPool.pipeline_stats``).
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent index]`` list per wrapped call.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        #: Distinct trace keys seen at the store boundary.
        self.keys: set = set()
        #: Cache and pool instances the run used (read after the run).
        self.caches: list = []
        self.pools: list = []
        #: Every TimingReport the run's ``SimPool.run`` calls returned.
        self.reports: list = []
        #: Return values of selected sweep functions, by function name.
        self.results: defaultdict = defaultdict(list)
        #: Entry points absent from this revision of the simulator.
        self.missing: list[str] = []
        self._undo: list = []

    # -- span recording ------------------------------------------------
    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``; optional argument/result hooks.

        ``before(args, kwargs)`` runs ahead of the span and
        ``after(args, kwargs, result)`` after it, so hook cost is never
        charged to the layer being measured.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> tuple[dict, dict, Counter]:
        """``(self seconds, inclusive seconds, calls)`` per span name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own: defaultdict = defaultdict(float)
        inclusive: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _parent) in enumerate(self.spans):
            own[name] += (end - start) - covered[index]
            inclusive[name] += end - start
            calls[name] += 1
        return dict(own), dict(inclusive), calls

    # -- patching --------------------------------------------------------
    def replace(self, owner, attr: str, value) -> None:
        previous = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._undo.append(lambda: setattr(owner, attr, previous))
        setattr(owner, attr, value)

    def replace_item(self, mapping: dict, key, value) -> None:
        previous = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, previous))
        mapping[key] = value

    def method(self, cls: type, attr: str, name: str, before=None,
               after=None) -> None:
        """Wrap a plain method or classmethod defined on ``cls``."""
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__qualname__}.{attr}")
        elif isinstance(original, classmethod):
            self.replace(cls, attr, classmethod(
                self.wrap(name, original.__func__, before, after)))
        else:
            self.replace(cls, attr, self.wrap(name, original, before, after))

    def function(self, module, attr: str, name: str, before=None,
                 after=None) -> None:
        """Wrap a module-level function everywhere it was imported.

        ``from x import f`` copies the function object into the
        importing module, so every loaded ``repro`` module (and every
        closure cell of the experiment registry) holding the original
        is redirected to the wrapper.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self.wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)
        from repro.eval.runner import EXPERIMENTS

        for runner in EXPERIMENTS.values():
            for cell in getattr(runner, "__closure__", None) or ():
                if cell.cell_contents is original:
                    self.replace(cell, "cell_contents", wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.eval.runner as runner
    from repro.fuzz import kernel as fuzz_kernel
    from repro.fuzz import properties
    from repro.functional import trace_pack
    from repro.functional.executor import Executor
    from repro.kernels.common import KernelRun
    from repro.sim.parallel import SimPool
    from repro.sim.trace_cache import TraceCache
    from repro.timing.engine import TimingEngine
    from repro.timing.replay_plan import ReplayPlan

    counts = tracer.counts
    keys = tracer.keys

    def seen_cache(cache) -> None:
        if not any(cache is known for known in tracer.caches):
            tracer.caches.append(cache)

    def on_get(args, _kwargs) -> None:
        seen_cache(args[0])
        keys.add(args[1])

    def on_put(args, _kwargs) -> None:
        seen_cache(args[0])
        keys.add(args[1])
        counts["puts"] += 1

    def on_ingest(args, kwargs) -> None:
        seen_cache(args[0])
        keys.add(args[1])
        payload = args[2] if len(args) > 2 else kwargs.get("payload")
        if payload is None:
            counts["remote_disk_reads"] += 1

    def on_pool(args, _kwargs) -> None:
        if not any(args[0] is known for known in tracer.pools):
            tracer.pools.append(args[0])
        seen_cache(args[0].cache)

    tracer.method(TraceCache, "get", "trace_store.get", before=on_get)
    tracer.method(TraceCache, "put", "trace_store.put", before=on_put)
    tracer.method(TraceCache, "ingest_remote", "trace_store.ingest",
                  before=on_ingest)
    tracer.function(trace_pack, "pack_trace", "trace_pack.pack")
    tracer.method(Executor, "run", "functional.run", after=lambda a, k, r:
                  counts.update(retired=r.retired))
    tracer.method(KernelRun, "capture", "kernels.capture")
    tracer.method(ReplayPlan, "from_trace", "replay_plan.compile")
    tracer.method(ReplayPlan, "machine_rows", "replay_plan.machine_rows")
    tracer.method(TimingEngine, "replay", "engine.replay")
    tracer.method(TimingEngine, "replay_reference", "engine.replay_reference")
    tracer.method(SimPool, "run", "parallel.run", before=on_pool,
                  after=lambda a, k, r: tracer.reports.extend(r))
    tracer.function(fuzz_kernel, "generate_case", "fuzz.generate")
    tracer.function(properties, "check_case", "fuzz.check")

    # Materialization only: later reads of the cached event list are
    # free attribute hits and get no span.
    events = trace_pack.PackedTrace.__dict__.get("events")
    if isinstance(events, property):
        materialize = tracer.wrap("trace_pack.materialize", events.fget)
        cached = events.fget

        def events_fget(self):
            if self._events is not None:
                return cached(self)
            return materialize(self)

        tracer.replace(trace_pack.PackedTrace, "events", property(events_fget))
    else:
        tracer.missing.append("PackedTrace.events")

    for mod_name in sorted(sys.modules):
        mod = sys.modules[mod_name]
        if mod is None or not mod_name.startswith("repro.eval."):
            continue
        for attr, value in sorted(vars(mod).items()):
            if (attr.startswith("render_") and callable(value)
                    and getattr(value, "__module__", "") == mod_name):
                tracer.function(mod, attr, "eval.render")
    for attr in ("run_fig6", "run_table3"):
        tracer.function(runner, attr, "eval.sweep",
                        after=lambda a, k, r, attr=attr:
                        tracer.results[attr].append(r))
    for exp_name, exp in sorted(runner.EXPERIMENTS.items()):
        kind = ("static" if exp_name in runner.STATIC_EXPERIMENTS
                else "simulation")
        tracer.replace_item(runner.EXPERIMENTS, exp_name,
                         tracer.wrap(f"eval.experiment.{kind}", exp))
