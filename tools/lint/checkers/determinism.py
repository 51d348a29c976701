"""Determinism rules (RL101–RL104): the byte-identical-render invariant.

The whole pipeline's correctness story is that a capture replays
byte-identically anywhere: trace keys are content hashes, renders are
pinned against serial baselines, and the trace store dedups across
hosts.  All of that dies silently if the code feeding fingerprints or
rendered output consults wall-clock time (RL101), unseeded randomness
(RL102), or iterates a ``set`` whose order is salted per interpreter
run (RL103).

Scope: ``functional/`` and ``timing/`` (everything they compute lands
in a trace or a rendered table), ``isa/`` (program fingerprints), and
the capture/replay path of ``sim/`` (``simulator``, ``trace_cache``,
``trace_store``).  Orchestration (``sim/parallel.py``) is *not* in
scope: its ``time.perf_counter`` feeds ``PipelineStats`` telemetry,
never a render.  The injected-clock default in ``trace_cache._now``
carries the one sanctioned pragma.

These rules read source, so code built from strings at run time, or
loaded as bytecode, is invisible to them.  RL104 keeps that blind spot
to one audited module: the ``exec``/``eval``/``compile`` builtins,
``marshal.load``/``marshal.loads`` and constructing
``types.FunctionType``/``types.CodeType`` may appear in ``src/`` only
in ``repro/timing/superblock.py``, whose generator iterates only
ordered containers, whose output a test pins verbatim, and whose
stored bytecode a test holds equal to a fresh compile of that output.
"""

from __future__ import annotations

import ast

from ..core import Checker, FileContext, dotted_name

#: Dotted-call suffixes that read the wall clock.
WALL_CLOCK = ("time.time", "time.time_ns", "time.localtime",
              "time.ctime", "datetime.now", "datetime.utcnow",
              "datetime.today", "date.today")


class DeterminismChecker(Checker):
    """Forbid nondeterminism sources on the capture/replay hot path."""

    code = "RL101"
    codes = ("RL101", "RL102", "RL103")
    name = "determinism"
    description = ("no wall-clock reads, unseeded randomness, or "
                   "unordered set iteration where fingerprints and "
                   "rendered output are computed")
    scope = ("src/repro/functional/", "src/repro/timing/",
             "src/repro/isa/", "src/repro/fuzz/",
             "src/repro/sim/simulator.py",
             "src/repro/sim/trace_cache.py",
             "src/repro/sim/trace_store.py")

    def check(self, ctx: FileContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.For):
                yield from self._check_iter(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield from self._check_iter(ctx, gen.iter)

    # -- RL101 / RL102: calls ------------------------------------------
    def _check_call(self, ctx: FileContext, node: ast.Call):
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if any(dotted == s or dotted.endswith("." + s)
               for s in WALL_CLOCK):
            yield self.finding(
                ctx, node.lineno,
                f"wall-clock read `{dotted}` on the deterministic "
                f"path; inject a clock or derive time from the trace",
                code="RL101")
        if dotted.startswith("random.") or ".random." in dotted:
            yield self.finding(
                ctx, node.lineno,
                f"randomness `{dotted}` on the deterministic path; "
                f"use a seeded Generator threaded from the caller",
                code="RL102")

    def _check_import(self, ctx: FileContext, node: ast.AST):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""]
        for name in names:
            if name == "random" or name.endswith(".random"):
                yield self.finding(
                    ctx, node.lineno,
                    f"import of `{name}` on the deterministic path; "
                    f"use a seeded Generator threaded from the caller",
                    code="RL102")

    # -- RL103: set iteration ------------------------------------------
    def _check_iter(self, ctx: FileContext, iter_node: ast.AST):
        unordered = isinstance(iter_node, ast.Set)
        if isinstance(iter_node, ast.Call):
            dotted = dotted_name(iter_node.func)
            unordered = dotted in ("set", "frozenset")
        if unordered:
            yield self.finding(
                ctx, iter_node.lineno,
                "iteration over a set: order is hash-salted per "
                "interpreter run; wrap in sorted(...) or use a "
                "list/tuple/dict",
                code="RL103")


#: Module -> names that load or build code objects or functions.
CODE_LOADERS = {"marshal": ("load", "loads"),
                "types": ("FunctionType", "CodeType")}


class DynamicCodeChecker(Checker):
    """Confine run-time code generation and loading to the superblock
    generator."""

    code = "RL104"
    codes = ("RL104",)
    name = "dynamic-code"
    description = ("the exec/eval/compile builtins, marshal.load(s) and "
                   "types.FunctionType/CodeType appear in src/ only in "
                   "repro/timing/superblock.py")
    scope = ("src/",)
    exclude = ("src/repro/timing/superblock.py",)

    def check(self, ctx: FileContext):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted in ("exec", "eval", "compile") or any(
                        dotted == f"{module}.{name}"
                        for module, names in CODE_LOADERS.items()
                        for name in names):
                    yield self._finding(ctx, node.lineno, dotted)
            elif isinstance(node, ast.ImportFrom) \
                    and node.module in CODE_LOADERS:
                for alias in node.names:
                    if alias.name in CODE_LOADERS[node.module]:
                        yield self._finding(
                            ctx, node.lineno, f"{node.module}.{alias.name}")

    def _finding(self, ctx: FileContext, line: int, what: str):
        return self.finding(
            ctx, line,
            f"`{what}` builds or loads code the determinism rules cannot "
            f"read; generate and load code only in "
            f"repro/timing/superblock.py")
