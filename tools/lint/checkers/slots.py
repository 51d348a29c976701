"""Hot-path ``__slots__`` (RL401): replay-loop classes stay slotted.

The replay hot loops build millions of trace-event, plan, and stream
instances per sweep, and the capture and replay-plan classes sit on
the same paths; a ``__dict__`` per instance costs both allocation
time and cache locality (PR 1's interpreter overhaul measured it).  The
modules listed in ``scope`` ARE the hot path, so every class they
define must declare ``__slots__`` — either an explicit class-body
assignment or ``@dataclass(slots=True)``.  A class that genuinely needs
``__dict__`` (``VectorEvent`` caches per-instance decode results there)
says so with a pragma.
"""

from __future__ import annotations

import ast

from ..core import Checker, FileContext, dotted_name


class SlotsChecker(Checker):
    """Classes in hot-path modules must declare ``__slots__``."""

    code = "RL401"
    codes = ("RL401",)
    name = "hot-path-slots"
    description = ("trace-event/plan/stream classes on the replay hot "
                   "path must declare __slots__")
    scope = ("src/repro/functional/trace.py",
             "src/repro/functional/plan.py",
             "src/repro/functional/trace_pack.py",
             "src/repro/timing/replay_plan.py",
             "src/repro/timing/stream.py")

    def check(self, ctx: FileContext):
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) \
                    and not _declares_slots(node):
                yield self.finding(
                    ctx, node.lineno,
                    f"hot-path class `{node.name}` has no __slots__; "
                    f"declare them (or @dataclass(slots=True)), or "
                    f"pragma with the reason it needs __dict__")


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) \
                    and target.id == "__slots__":
                return True
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call) \
                and (dotted_name(deco.func) or "").endswith("dataclass"):
            for kw in deco.keywords:
                if kw.arg == "slots" \
                        and isinstance(kw.value, ast.Constant) \
                        and kw.value.value is True:
                    return True
    return False
