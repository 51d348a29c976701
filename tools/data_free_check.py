"""Data-free capture identity: every capture of an experiment run,
repeated with full semantics, must write the same trace.

    PYTHONPATH=src python -m tools.data_free_check [EVAL ARGS...]

Runs ``python -m repro.eval`` in this process with ``--workers 1``
(default arguments: ``all --scale paper``; the rendered tables are not
printed).  A sweep captures unverified into a cache, so each capture of
a program that :func:`repro.functional.plan.data_free` admits runs
without data.  Each such :meth:`~repro.kernels.common.KernelRun.capture`
is repeated with full semantics (no cache: the kernel's ``setup`` and
every value computed) and compared by the SHA-256 of its blob, its
retired count and its halt flag.  Prints one summary line with the
captures compared and how many of them the test admitted; exits 1 on
any difference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

from repro.eval.__main__ import main as eval_main
from repro.functional.plan import data_free
from repro.kernels.common import KernelRun

DEFAULT_ARGS = ("all", "--scale", "paper")


def _digest(captured) -> tuple:
    return (hashlib.sha256(captured.trace.blob).hexdigest(),
            captured.retired, captured.halted)


def run(argv: list[str]) -> int:
    """Run ``python -m repro.eval argv`` with every unverified cached
    capture checked; returns the exit status."""
    capture = KernelRun.capture
    counts = {"captures": 0, "admitted": 0}
    diffs: list = []

    def checked(kernel, config, cache=None, verify=True):
        captured = capture(kernel, config, cache=cache, verify=verify)
        if cache is None or verify:  # these capture with data
            return captured
        counts["captures"] += 1
        counts["admitted"] += data_free(kernel.program)
        full = _digest(capture(kernel, config))
        if _digest(captured) != full:
            diffs.append((kernel.name, kernel.problem, config.name))
        return captured

    KernelRun.capture = checked
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = eval_main([*argv, "--workers", "1"])
    finally:
        KernelRun.capture = capture
    print(f"[data-free check] captures={counts['captures']} "
          f"admitted={counts['admitted']} differ={len(diffs)}")
    for name, problem, machine in diffs[:10]:
        print(f"  {name} {problem} on {machine}")
    if status:
        return status
    return 1 if diffs or not counts["captures"] else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:] or list(DEFAULT_ARGS)))
