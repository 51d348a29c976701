"""Tier-1 coverage for the ``tools.lint`` invariant checker.

Three layers, mirroring how the suite is meant to be trusted:

* **Framework semantics** — pragma targeting (same line / line above),
  pragma hygiene (RL001), baseline round-trips, the JSON report
  schema, RL000 syntax-error reporting.
* **Per-rule fixtures** — for every checker, at least one fabricated
  tree it must flag and one it must not, written under the same
  repo-relative paths the rule scopes to.
* **The tree itself** — ``python -m tools.lint`` exits 0 on this
  checkout with an empty baseline, and the docs knob table matches
  the ``repro.env`` registry verbatim.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools.lint import (  # noqa: E402
    ALL_CHECKERS, load_baseline, run_lint, write_baseline)
from tools.lint.checkers.boundary import (  # noqa: E402
    SubmitPicklableChecker, TaskFieldChecker)
from tools.lint.checkers.determinism import (  # noqa: E402
    DeterminismChecker, DynamicCodeChecker)
from tools.lint.checkers.docs import (  # noqa: E402
    DocLinkChecker, DocstringChecker)
from tools.lint.checkers.envreg import EnvRegistryChecker  # noqa: E402
from tools.lint.checkers.exceptions import (  # noqa: E402
    ExceptionHygieneChecker)
from tools.lint.checkers.slots import SlotsChecker  # noqa: E402


def lint_source(tmp_path, rel, source, checkers):
    """Write ``source`` at ``tmp_path/rel`` and lint that tree."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    result = run_lint(root=tmp_path, checkers=checkers)
    return result.findings


def codes_of(findings):
    """The rule codes present in a findings list."""
    return sorted({f.code for f in findings})


# ----------------------------------------------------------------------
# Determinism (RL101/RL102/RL103/RL104)
# ----------------------------------------------------------------------
def test_wall_clock_flagged_in_scope(tmp_path):
    """time.time() on the capture path is RL101."""
    findings = lint_source(
        tmp_path, "src/repro/functional/interp.py", """\
        import time
        def stamp():
            return time.time()
        """, [DeterminismChecker()])
    assert codes_of(findings) == ["RL101"]
    assert findings[0].line == 3


def test_wall_clock_allowed_outside_scope(tmp_path):
    """The same read in report/ (render-only) is not a finding."""
    findings = lint_source(
        tmp_path, "src/repro/report/render.py", """\
        import time
        def stamp():
            return time.time()
        """, [DeterminismChecker()])
    assert findings == []


def test_perf_counter_allowed_in_scope(tmp_path):
    """Monotonic timing reads are fine — only wall clocks are banned."""
    findings = lint_source(
        tmp_path, "src/repro/timing/engine2.py", """\
        import time
        def measure():
            return time.perf_counter()
        """, [DeterminismChecker()])
    assert findings == []


def test_random_module_flagged(tmp_path):
    """`import random` and `random.*` calls on the capture path."""
    findings = lint_source(
        tmp_path, "src/repro/functional/gen.py", """\
        import random
        def roll():
            return random.randint(0, 7)
        """, [DeterminismChecker()])
    assert codes_of(findings) == ["RL102"]
    assert len(findings) == 2  # the import and the call


def test_seeded_generator_allowed(tmp_path):
    """numpy Generator seeded from the trace key is the sanctioned way."""
    findings = lint_source(
        tmp_path, "src/repro/functional/gen.py", """\
        import numpy as np
        def roll(seed):
            return np.random.default_rng(seed)
        """, [DeterminismChecker()])
    assert codes_of(findings) == ["RL102"]  # np.random.* still flagged


def test_set_iteration_flagged(tmp_path):
    """Iterating a set literal on the capture path is RL103."""
    findings = lint_source(
        tmp_path, "src/repro/functional/walk.py", """\
        def visit(keys):
            out = []
            for k in set(keys):
                out.append(k)
            return [x for x in {1, 2, 3}] + out
        """, [DeterminismChecker()])
    assert codes_of(findings) == ["RL103"]
    assert len(findings) == 2  # the for-loop and the comprehension


def test_sorted_set_iteration_allowed(tmp_path):
    """sorted(set(...)) restores a deterministic order — no finding."""
    findings = lint_source(
        tmp_path, "src/repro/functional/walk.py", """\
        def visit(keys):
            return [k for k in sorted(set(keys))]
        """, [DeterminismChecker()])
    assert findings == []


def test_dynamic_code_flagged_outside_the_generator(tmp_path):
    """exec/eval/compile builtins anywhere else in src/ are RL104."""
    findings = lint_source(
        tmp_path, "src/repro/eval/tables.py", """\
        import re
        def build(text):
            exec(compile(text, "<x>", "exec"), {})
            return eval("1") + len(re.compile("a").pattern)
        """, [DynamicCodeChecker()])
    assert codes_of(findings) == ["RL104"]
    assert len(findings) == 3  # exec, compile, eval; re.compile is fine


def test_dynamic_code_allowed_in_the_generator(tmp_path):
    """The superblock generator is the one module that may exec."""
    findings = lint_source(
        tmp_path, "src/repro/timing/superblock.py", """\
        def build(text):
            namespace = {}
            exec(compile(text, "<superblock>", "exec"), namespace)
            return namespace
        """, [DynamicCodeChecker()])
    assert findings == []


def test_code_loading_flagged_outside_the_generator(tmp_path):
    """Loading bytecode or building functions from code objects
    elsewhere in src/ is RL104; marshalling out is not."""
    findings = lint_source(
        tmp_path, "src/repro/sim/store.py", """\
        import marshal
        import types
        from marshal import loads as unmarshal
        def load(data, fh, namespace):
            code = marshal.loads(data) or marshal.load(fh)
            func = types.FunctionType(code, namespace)
            return types.CodeType, func, marshal.dumps(code), unmarshal
        """, [DynamicCodeChecker()])
    assert codes_of(findings) == ["RL104"]
    assert sorted(f.line for f in findings) == [3, 5, 5, 6]


def test_code_loading_allowed_in_the_generator(tmp_path):
    """The superblock module loads the code a plan section stores."""
    findings = lint_source(
        tmp_path, "src/repro/timing/superblock.py", """\
        import marshal
        import types
        import zlib
        def load(stored, namespace):
            code = marshal.loads(zlib.decompress(stored))
            return types.FunctionType(code.co_consts[0], namespace)
        """, [DynamicCodeChecker()])
    assert findings == []


# ----------------------------------------------------------------------
# Exception hygiene (RL201)
# ----------------------------------------------------------------------
def test_swallowing_broad_except_flagged(tmp_path):
    """A broad except that neither raises nor classifies is RL201."""
    findings = lint_source(
        tmp_path, "src/repro/sim/thing.py", """\
        def load(path):
            try:
                return path.read_bytes()
            except Exception:
                return None
        """, [ExceptionHygieneChecker()])
    assert codes_of(findings) == ["RL201"]


def test_bare_except_flagged(tmp_path):
    """A bare except is broad by definition."""
    findings = lint_source(
        tmp_path, "src/repro/sim/thing.py", """\
        def load(path):
            try:
                return path.read_bytes()
            except:
                return None
        """, [ExceptionHygieneChecker()])
    assert codes_of(findings) == ["RL201"]


def test_classifying_broad_except_allowed(tmp_path):
    """Routing the failure into FaultLog-style accounting satisfies."""
    findings = lint_source(
        tmp_path, "src/repro/sim/thing.py", """\
        def load(self, path):
            try:
                return path.read_bytes()
            except Exception as exc:
                self._note_failure(exc)
                return None
        """, [ExceptionHygieneChecker()])
    assert findings == []


def test_reraising_broad_except_allowed(tmp_path):
    """Wrap-and-reraise keeps the failure visible — no finding."""
    findings = lint_source(
        tmp_path, "src/repro/sim/thing.py", """\
        def load(path):
            try:
                return path.read_bytes()
            except Exception as exc:
                raise RuntimeError(str(path)) from exc
        """, [ExceptionHygieneChecker()])
    assert findings == []


def test_narrow_except_allowed(tmp_path):
    """Catching a specific type is always fine."""
    findings = lint_source(
        tmp_path, "src/repro/sim/thing.py", """\
        def load(path):
            try:
                return path.read_bytes()
            except FileNotFoundError:
                return None
        """, [ExceptionHygieneChecker()])
    assert findings == []


# ----------------------------------------------------------------------
# Process-boundary safety (RL301/RL302)
# ----------------------------------------------------------------------
def test_lambda_submit_flagged(tmp_path):
    """A lambda handed to submit() cannot cross the process boundary."""
    findings = lint_source(
        tmp_path, "src/repro/sim/runner.py", """\
        def run(executor, xs):
            return [executor.submit(lambda v: v + 1, x) for x in xs]
        """, [SubmitPicklableChecker()])
    assert codes_of(findings) == ["RL301"]


def test_local_function_submit_flagged(tmp_path):
    """A function defined inside another function is a closure risk."""
    findings = lint_source(
        tmp_path, "src/repro/sim/runner.py", """\
        def run(executor, xs):
            def bump(v):
                return v + 1
            return [executor.submit(bump, x) for x in xs]
        """, [SubmitPicklableChecker()])
    assert codes_of(findings) == ["RL301"]


def test_module_level_submit_allowed(tmp_path):
    """Module-level worker functions pickle by reference — fine."""
    findings = lint_source(
        tmp_path, "src/repro/sim/runner.py", """\
        def bump(v):
            return v + 1

        def run(executor, xs):
            return [executor.submit(bump, x) for x in xs]
        """, [SubmitPicklableChecker()])
    assert findings == []


def test_task_dataclass_callable_field_flagged(tmp_path):
    """A pool-task field typed as a callable smuggles a closure in."""
    findings = lint_source(
        tmp_path, "src/repro/sim/tasks.py", """\
        from dataclasses import dataclass
        from typing import Callable

        @dataclass(frozen=True)
        class ProbeTask:
            index: int
            build: Callable[[], int]
        """, [TaskFieldChecker()])
    assert codes_of(findings) == ["RL302"]
    assert "build" in findings[0].message


def test_task_dataclass_plain_fields_allowed(tmp_path):
    """Primitives, containers, and allowlisted repo types are fine."""
    findings = lint_source(
        tmp_path, "src/repro/sim/tasks.py", """\
        from dataclasses import dataclass
        from typing import Optional

        @dataclass(frozen=True)
        class ProbeTask:
            index: int
            name: str
            sizes: tuple[int, ...]
            plan: Optional["FaultPlan"]
        """, [TaskFieldChecker()])
    assert findings == []


def test_non_task_dataclass_ignored(tmp_path):
    """Only `*Task` dataclasses are held to the field contract."""
    findings = lint_source(
        tmp_path, "src/repro/sim/tasks.py", """\
        from dataclasses import dataclass
        from typing import Callable

        @dataclass
        class KernelRun:
            build: Callable[[], int]
        """, [TaskFieldChecker()])
    assert findings == []


# ----------------------------------------------------------------------
# Hot-path __slots__ (RL401)
# ----------------------------------------------------------------------
def test_slotless_hot_path_class_flagged(tmp_path):
    """A plain class in a hot-path module must declare __slots__."""
    findings = lint_source(
        tmp_path, "src/repro/functional/trace.py", """\
        class Event:
            def __init__(self, op):
                self.op = op
        """, [SlotsChecker()])
    assert codes_of(findings) == ["RL401"]


def test_explicit_slots_allowed(tmp_path):
    """A class-body __slots__ assignment satisfies the rule."""
    findings = lint_source(
        tmp_path, "src/repro/timing/stream.py", """\
        class Event:
            __slots__ = ("op",)

            def __init__(self, op):
                self.op = op
        """, [SlotsChecker()])
    assert findings == []


def test_dataclass_slots_allowed(tmp_path):
    """@dataclass(slots=True) satisfies the rule."""
    findings = lint_source(
        tmp_path, "src/repro/functional/plan.py", """\
        from dataclasses import dataclass

        @dataclass(frozen=True, slots=True)
        class Step:
            op: str
        """, [SlotsChecker()])
    assert findings == []


# ----------------------------------------------------------------------
# Env registry (RL501)
# ----------------------------------------------------------------------
def test_direct_environ_read_flagged(tmp_path):
    """os.environ outside repro/env.py bypasses the registry."""
    findings = lint_source(
        tmp_path, "src/repro/sim/store2.py", """\
        import os
        def resolve():
            return os.environ.get("REPRO_TRACE_STORE")
        """, [EnvRegistryChecker()])
    assert codes_of(findings) == ["RL501"]


def test_registry_module_itself_exempt(tmp_path):
    """repro/env.py is the one place os.environ is allowed."""
    findings = lint_source(
        tmp_path, "src/repro/env.py", """\
        import os
        def read_env(name):
            return os.environ.get(name)
        """, [EnvRegistryChecker()])
    assert findings == []


def test_read_env_call_allowed(tmp_path):
    """Reading through the registry is the sanctioned path."""
    findings = lint_source(
        tmp_path, "src/repro/sim/store2.py", """\
        from ..env import ENV_STORE_DIR, read_env
        def resolve():
            return read_env(ENV_STORE_DIR)
        """, [EnvRegistryChecker()])
    assert findings == []


# ----------------------------------------------------------------------
# Docs rules (RL601/RL603) on fabricated checkouts
# ----------------------------------------------------------------------
def test_broken_doc_link_flagged(tmp_path, monkeypatch):
    """A relative link to a missing file is RL601."""
    import tools.lint.checkers.docs as docs_mod
    monkeypatch.setattr(docs_mod, "DOC_FILES", ("README.md",))
    (tmp_path / "README.md").write_text(
        "see [the gap](docs/nonexistent.md)\n")
    findings = list(DocLinkChecker().check_repo(tmp_path))
    assert codes_of(findings) == ["RL601"]
    assert "docs/nonexistent.md" in findings[0].message


def test_resolving_doc_link_allowed(tmp_path, monkeypatch):
    """Links that resolve (and external links) are not findings."""
    import tools.lint.checkers.docs as docs_mod
    monkeypatch.setattr(docs_mod, "DOC_FILES", ("README.md",))
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "page.md").write_text("hi\n")
    (tmp_path / "README.md").write_text(
        "see [page](docs/page.md) and [ext](https://example.com)\n")
    assert list(DocLinkChecker().check_repo(tmp_path)) == []


def test_missing_docstring_flagged(tmp_path):
    """A src/repro module without a docstring is RL603."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bare.py").write_text("def shiny():\n    return 1\n")
    findings = list(DocstringChecker().check_repo(tmp_path))
    messages = [f.message for f in findings]
    assert "missing module docstring" in messages
    assert any("shiny" in m for m in messages)


def test_documented_module_allowed(tmp_path):
    """Docstrings everywhere (and private defs) satisfy RL603."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "neat.py").write_text(
        '"""A documented module."""\n'
        'def shiny():\n    """Docstring."""\n    return 1\n'
        'def _hidden():\n    return 2\n')
    assert list(DocstringChecker().check_repo(tmp_path)) == []


# ----------------------------------------------------------------------
# Framework: pragmas, baseline, RL000, JSON schema, exit status
# ----------------------------------------------------------------------
def test_pragma_suppresses_same_line(tmp_path):
    """A trailing pragma suppresses the rule on its own line."""
    findings = lint_source(
        tmp_path, "src/repro/functional/t.py", """\
        import time
        def stamp():
            return time.time()  # repro-lint: disable=RL101  test fixture
        """, [DeterminismChecker()])
    assert findings == []


def test_pragma_suppresses_line_above(tmp_path):
    """A standalone pragma comment covers the next non-comment line."""
    findings = lint_source(
        tmp_path, "src/repro/functional/t.py", """\
        import time
        def stamp():
            # repro-lint: disable=RL101  test fixture
            # an ordinary comment may sit between pragma and code
            return time.time()
        """, [DeterminismChecker()])
    assert findings == []


def test_pragma_does_not_leak_to_other_lines(tmp_path):
    """Suppression is line-scoped, not file-scoped."""
    findings = lint_source(
        tmp_path, "src/repro/functional/t.py", """\
        import time
        def stamp():
            a = time.time()  # repro-lint: disable=RL101  test fixture
            return a + time.time()
        """, [DeterminismChecker()])
    assert codes_of(findings) == ["RL101"]
    assert findings[0].line == 4


def test_pragma_without_reason_is_rl001(tmp_path):
    """A reasonless pragma is itself a finding and suppresses nothing."""
    findings = lint_source(
        tmp_path, "src/repro/functional/t.py", """\
        import time
        def stamp():
            return time.time()  # repro-lint: disable=RL101
        """, [DeterminismChecker()])
    assert codes_of(findings) == ["RL001", "RL101"]


def test_pragma_unknown_code_is_rl001(tmp_path):
    """Naming a rule that does not exist is flagged, not ignored."""
    findings = lint_source(
        tmp_path, "src/repro/functional/t.py", """\
        x = 1  # repro-lint: disable=BOGUS  because reasons
        """, [DeterminismChecker()])
    assert codes_of(findings) == ["RL001"]


def test_pragma_in_string_literal_ignored(tmp_path):
    """Pragma syntax inside a string is documentation, not suppression."""
    findings = lint_source(
        tmp_path, "src/repro/functional/t.py", """\
        import time
        DOC = "# repro-lint: disable=RL101  not a real pragma"
        def stamp():
            return time.time()
        """, [DeterminismChecker()])
    assert codes_of(findings) == ["RL101"]


def test_syntax_error_is_rl000(tmp_path):
    """An unparseable file in scope reports RL000, not a crash."""
    findings = lint_source(
        tmp_path, "src/repro/sim/broken.py",
        "def oops(:\n", [ExceptionHygieneChecker()])
    assert codes_of(findings) == ["RL000"]


def test_baseline_round_trip(tmp_path):
    """write_baseline -> load_baseline hides exactly those findings."""
    source = """\
        import time
        def stamp():
            return time.time()
        """
    findings = lint_source(tmp_path, "src/repro/functional/t.py",
                           source, [DeterminismChecker()])
    assert len(findings) == 1
    baseline_file = tmp_path / "baseline.json"
    write_baseline(findings, baseline_file)
    baseline = load_baseline(baseline_file)
    result = run_lint(root=tmp_path, checkers=[DeterminismChecker()],
                      baseline=baseline)
    assert result.findings == []
    assert result.baselined == 1


def test_baseline_survives_line_churn(tmp_path):
    """Baseline keys omit the line number by design."""
    findings = lint_source(tmp_path, "src/repro/functional/t.py", """\
        import time
        def stamp():
            return time.time()
        """, [DeterminismChecker()])
    baseline = {f.baseline_key for f in findings}
    # Same finding, different line: still grandfathered.
    lint_source(tmp_path, "src/repro/functional/t.py", """\
        import time
        # a new comment shifts everything down
        def stamp():
            return time.time()
        """, [DeterminismChecker()])
    result = run_lint(root=tmp_path, checkers=[DeterminismChecker()],
                      baseline=baseline)
    assert result.findings == []


def test_json_report_schema(tmp_path):
    """The machine-readable report shape CI consumes is pinned."""
    lint_source(tmp_path, "src/repro/functional/t.py", """\
        import time
        def stamp():
            return time.time()
        """, [DeterminismChecker()])
    report = run_lint(root=tmp_path,
                      checkers=[DeterminismChecker()]).as_json()
    assert report["version"] == 1
    assert report["files"] == 1
    assert report["counts"]["total"] == 1
    assert report["counts"]["baselined"] == 0
    assert report["counts"]["error"] == 1
    (finding,) = report["findings"]
    assert set(finding) == {"file", "line", "code", "severity",
                            "message"}
    assert finding["code"] == "RL101"
    assert finding["file"] == "src/repro/functional/t.py"
    json.dumps(report)  # must be serializable as-is


def test_cli_exit_nonzero_on_findings(tmp_path):
    """`python -m tools.lint` on a dirty checkout exits 1, prints rows."""
    bad = tmp_path / "src" / "repro" / "functional" / "t.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nNOW = time.time()\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", "--root", str(tmp_path),
         "--select", "RL1"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 1
    assert "RL101" in proc.stdout


def test_list_rules_names_every_code():
    """--list-rules documents the full suite."""
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", "--list-rules"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0
    for checker in ALL_CHECKERS:
        assert checker.code in proc.stdout


# ----------------------------------------------------------------------
# The checkout itself
# ----------------------------------------------------------------------
def test_tree_lints_clean():
    """The whole repository passes its own lint, exit status 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_baseline_is_empty():
    """No grandfathered findings: every suppression is a reasoned
    inline pragma, not a baseline entry."""
    data = json.loads(
        (REPO_ROOT / "tools" / "lint" / "baseline.json").read_text())
    assert data["entries"] == []


def test_every_pragma_in_src_names_a_real_rule():
    """Cross-check: pragmas under src/ only disable codes the suite
    actually runs (RL001 would catch unknown codes at lint time; this
    pins the committed state)."""
    import re
    known = {code for c in ALL_CHECKERS
             for code in getattr(c, "codes", (c.code,))}
    pragma_re = re.compile(r"repro-lint:\s*disable=([A-Z0-9,]+)")
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for match in pragma_re.finditer(path.read_text()):
            for code in match.group(1).split(","):
                assert code in known, f"{path}: unknown code {code}"


#: Non-test trees whose every file is an entry point into ``repro``
#: (besides the ``python -m repro.eval`` CLI).
ENTRY_TREES = ("tools", "perfbench", "benchmarks", "examples")


def _module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to ``root``."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _static_imports(path: Path, module: str) -> set:
    """Every absolute name ``path`` imports, at module level or lazily.

    ``from a import b`` yields both ``a`` and ``a.b`` (``b`` may be a
    submodule); relative imports resolve against ``module``.
    """
    package = module.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            prefix = ".".join(base + [node.module] if node.module else base)
            names.add(prefix)
            names.update(f"{prefix}.{alias.name}" for alias in node.names)
    return names


def test_every_src_module_is_reachable_from_an_entry_point():
    """No orphan model: each ``src/repro`` module is imported, directly
    or through other modules, by the CLI or a tool, perfbench,
    benchmark or example script (imports from tests do not count)."""
    src = REPO_ROOT / "src"
    modules = {_module_name(path, src): path
               for path in (src / "repro").rglob("*.py")}
    pending = {"repro.eval.__main__"}
    for tree in ENTRY_TREES:
        for path in (REPO_ROOT / tree).rglob("*.py"):
            pending |= _static_imports(path, _module_name(path, REPO_ROOT))
    reached: set = set()
    while pending:
        name = pending.pop()
        # Importing ``a.b.c`` runs the ``a`` and ``a.b`` packages too.
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                pending |= _static_imports(modules[prefix], prefix)
    assert sorted(set(modules) - reached) == []


def test_every_spec_field_attribute_is_read():
    """No dead knob: each configuration attribute a machine-spec field
    sets is read as ``.<attr>`` outside the schema and the config
    classes that declare it."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.machine.spec import SPEC_FIELDS
    finally:
        sys.path.pop(0)
    package = REPO_ROOT / "src" / "repro"
    declaring = {package / "params.py", package / "machine" / "spec.py"}
    read = {node.attr
            for path in package.rglob("*.py") if path not in declaring
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unread = sorted(f.path for f in SPEC_FIELDS
                    if f.target and f.target not in read)
    assert unread == []


def test_trace_store_knob_table_matches_registry():
    """docs/trace-store.md's knob table is the registry's, verbatim."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.env import knob_table
    finally:
        sys.path.pop(0)
    doc = (REPO_ROOT / "docs" / "trace-store.md").read_text()
    assert knob_table("store") in doc, \
        "regenerate the Knobs table from repro.env.knob_table('store')"


def test_fuzz_knob_table_matches_registry():
    """docs/fuzzing.md's knob table is the registry's, verbatim."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.env import knob_table
    finally:
        sys.path.pop(0)
    doc = (REPO_ROOT / "docs" / "fuzzing.md").read_text()
    assert knob_table("fuzz") in doc, \
        "regenerate the Knobs table from repro.env.knob_table('fuzz')"


def test_registry_rejects_unregistered_reads():
    """read_env raises KeyError for names outside the registry."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.env import ENV_STORE_DIR, read_env
    finally:
        sys.path.pop(0)
    assert read_env(ENV_STORE_DIR, {"REPRO_TRACE_STORE": "/x"}) == "/x"
    assert read_env(ENV_STORE_DIR, {}) is None
    with pytest.raises(KeyError):
        read_env("REPRO_NOT_A_KNOB", {})
