"""Docs rules (RL601–RL603): links, documented CLI lines, docstrings.

Repo-level checks: RL601 verifies every relative markdown link in the
documented pages resolves inside the checkout, RL602 parses every
documented ``python -m repro.eval`` line with the *real* argument
parser (a renamed flag breaks the lint, not the reader), and RL603
requires docstrings on every ``src/repro`` module and public top-level
def.  Run them alone with ``python -m tools.lint --select RL6``.
"""

from __future__ import annotations

import ast
import re
import shlex
import sys
from pathlib import Path

from ..core import RepoChecker

#: Markdown files the link/CLI checks cover.
DOC_FILES = ("README.md", "docs/architecture.md", "docs/machine-models.md",
             "docs/trace-store.md", "docs/robustness.md",
             "docs/static-analysis.md", "docs/fuzzing.md")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def _line_of(doc_text: str, needle: str) -> int:
    """1-based line of the first occurrence of ``needle`` (1 if absent)."""
    for idx, line in enumerate(doc_text.splitlines(), start=1):
        if needle in line:
            return idx
    return 1


class DocLinkChecker(RepoChecker):
    """Relative markdown links must resolve inside the checkout."""

    code = "RL601"
    codes = ("RL601",)
    name = "doc-links"
    description = "relative links in README/docs must resolve"

    def check_repo(self, root: Path):
        for name in DOC_FILES:
            doc = root / name
            if not doc.is_file():
                yield self.finding_at(name, 1, "documentation file missing")
                continue
            text = doc.read_text()
            for target in _LINK_RE.findall(text):
                if target.startswith(("http://", "https://", "#",
                                      "mailto:")):
                    continue
                path = target.split("#", 1)[0]
                if path and not (doc.parent / path).exists():
                    yield self.finding_at(name, _line_of(text, target),
                                          f"broken link -> {target}")


class CliExampleChecker(RepoChecker):
    """Documented CLI invocations must parse with the real parser."""

    code = "RL602"
    codes = ("RL602",)
    name = "doc-cli-examples"
    description = ("every documented `python -m repro.eval` line must "
                   "parse with the real argument parser")

    def check_repo(self, root: Path):
        examples = iter_cli_examples(root)
        if not examples:
            yield self.finding_at(
                DOC_FILES[0], 1,
                "no `python -m repro.eval` examples found in docs")
        for doc, line_no, line in examples:
            try:
                parse_cli_example(root, line)
            except SystemExit:
                yield self.finding_at(
                    doc, line_no, f"CLI example does not parse: {line}")
            except AssertionError as exc:
                yield self.finding_at(doc, line_no, str(exc))


def iter_cli_examples(root: Path) -> list[tuple[str, int, str]]:
    """Every ``python -m repro.eval`` line in a fenced doc code block."""
    examples = []
    for name in DOC_FILES:
        doc = root / name
        if not doc.is_file():
            continue
        text = doc.read_text()
        for block in _FENCE_RE.findall(text):
            for line in block.splitlines():
                line = line.strip()
                if "python -m repro.eval" in line:
                    examples.append((name, _line_of(text, line), line))
    return examples


def parse_cli_example(root: Path, line: str) -> None:
    """Parse one documented CLI line with the real parser; raise on error."""
    sys.path.insert(0, str(root / "src"))
    try:
        from repro.eval.__main__ import build_parser
    finally:
        sys.path.pop(0)
    tokens = shlex.split(line)
    # Strip leading VAR=value assignments (e.g. PYTHONPATH=src) and the
    # interpreter invocation itself.
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens.pop(0)
    assert tokens[:3] == ["python", "-m", "repro.eval"], \
        f"not a repro.eval invocation: {line!r}"
    build_parser().parse_args(tokens[3:])  # SystemExit(2) on bad args


class DocstringChecker(RepoChecker):
    """Modules and public top-level defs carry docstrings."""

    code = "RL603"
    codes = ("RL603",)
    name = "docstrings"
    description = ("every src/repro module and public top-level def "
                   "must carry a docstring")

    def check_repo(self, root: Path):
        for path in sorted((root / "src" / "repro").rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            try:
                tree = ast.parse(path.read_text(), filename=rel)
            except SyntaxError:
                continue  # RL000 reports unparseable files
            if ast.get_docstring(tree) is None:
                yield self.finding_at(rel, 1, "missing module docstring")
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                        and not node.name.startswith("_") \
                        and ast.get_docstring(node) is None:
                    yield self.finding_at(
                        rel, node.lineno,
                        f"public `{node.name}` missing docstring")
