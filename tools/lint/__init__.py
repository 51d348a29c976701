"""repro.lint: the repo's AST-based invariant checker.

One entry point — ``python -m tools.lint`` — machine-checks the
invariants the test suite cannot exhaustively pin:

* **Determinism** (RL101–RL104): no wall-clock reads, unseeded
  randomness, or unordered set iteration in the code that feeds trace
  fingerprints and rendered sweep output, and no run-time code
  generation outside the one audited generator.
* **Exception hygiene** (RL201): a bare or broad ``except`` in ``src/``
  must re-raise, classify the failure into ``FaultLog``-style
  accounting, or carry a reasoned suppression pragma.
* **Process-boundary safety** (RL301–RL302): nothing unpicklable —
  lambdas, closures, locally-defined functions — crosses an executor
  ``submit``, and pool task dataclasses declare only picklable fields.
* **Hot-path ``__slots__``** (RL401): trace-event and plan classes on
  the replay hot path declare ``__slots__``.
* **Env-var registry** (RL501): every environment read goes through
  :mod:`repro.env`, the registry the docs knob table is generated from.
* **Docs** (RL601–RL603): markdown links resolve, documented CLI lines
  parse with the real parser, docstrings exist.

Findings carry ``file:line``, a stable rule code, severity, and a
message; inline pragmas (``# repro-lint: disable=RL201  reason``) and a
committed baseline file grandfather what cannot be fixed.  The full
rule table and workflow live in ``docs/static-analysis.md``.
"""

from .core import (Finding, LintResult, load_baseline, run_lint,
                   write_baseline)
from .checkers import ALL_CHECKERS

__all__ = ["Finding", "LintResult", "ALL_CHECKERS", "run_lint",
           "load_baseline", "write_baseline"]
