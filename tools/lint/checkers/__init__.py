"""Checker registry: every rule the lint suite runs, in code order.

Adding a checker (full recipe in ``docs/static-analysis.md``): write a
:class:`~tools.lint.core.Checker` (one file at a time) or
:class:`~tools.lint.core.RepoChecker` (whole checkout) subclass in a
module here, give it a stable unused ``RL`` code, append an instance to
:data:`ALL_CHECKERS`, add positive + negative fixture tests to
``tests/test_lint.py``, and document the code in the rule table.
"""

from .boundary import SubmitPicklableChecker, TaskFieldChecker
from .determinism import DeterminismChecker, DynamicCodeChecker
from .docs import CliExampleChecker, DocLinkChecker, DocstringChecker
from .envreg import EnvRegistryChecker
from .exceptions import ExceptionHygieneChecker
from .slots import SlotsChecker

#: The suite, in rule-code order.
ALL_CHECKERS = (
    DeterminismChecker(),
    DynamicCodeChecker(),
    ExceptionHygieneChecker(),
    SubmitPicklableChecker(),
    TaskFieldChecker(),
    SlotsChecker(),
    EnvRegistryChecker(),
    DocLinkChecker(),
    CliExampleChecker(),
    DocstringChecker(),
)

__all__ = ["ALL_CHECKERS"]
