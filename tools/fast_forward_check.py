"""Fast-forward report identity: every replay of an experiment run,
repeated with superblock fast-forward off, must give the same bits.

    PYTHONPATH=src python -m tools.fast_forward_check [EVAL ARGS...]

Runs ``python -m repro.eval`` in this process with ``--workers 1``
(default arguments: ``all --scale paper``; the rendered tables are not
printed).  Each report the run's :meth:`~repro.timing.engine
.TimingEngine.replay` returns, computed with fast-forward on, is
compared with a replay of the same trace on the same machine with
:data:`repro.timing.superblock.FAST_FORWARD` off and a freshly compiled
plan (so no memoized report is reused): ``float.hex`` of ``cycles``,
``scalar_cycles``, ``issue_stall_cycles`` and every ``unit_busy``
value, and every ``unit_ops`` count.  Prints one summary line with the
superblock rows the fast-forward skipped; exits 1 on any difference.
"""

from __future__ import annotations

import contextlib
import io
import sys

from repro.eval.__main__ import main as eval_main
from repro.timing import superblock
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import ReplayPlan

DEFAULT_ARGS = ("all", "--scale", "paper")


def _bits(report) -> dict:
    """The compared fields of ``report``, floats as ``float.hex``."""
    fields = {name: getattr(report, name).hex() for name in
              ("cycles", "scalar_cycles", "issue_stall_cycles")}
    fields.update((f"unit_busy.{unit}", value.hex())
                  for unit, value in report.unit_busy.items())
    fields.update((f"unit_ops.{unit}", value)
                  for unit, value in report.unit_ops.items())
    return fields


def run(argv: list[str]) -> int:
    """Run ``python -m repro.eval argv`` with every replay checked;
    returns the exit status."""
    replay = TimingEngine.replay
    compiled = superblock._compiled
    probe = superblock._probe
    counts = {"reports": 0, "rows": 0, "skipped": 0, "period": 0}
    diffs: list = []

    def counted_compiled(structure, *stored):
        body, code = compiled(structure, *stored)
        length = len(structure[0])

        def counted(reps, *args):
            counts["period"] = length
            if superblock.FAST_FORWARD:
                counts["rows"] += reps * length
            return body(reps, *args)

        return counted, code

    def counted_probe(*args):
        found = probe(*args)
        if found.__class__ is tuple:
            counts["skipped"] += found[0] * found[1] * counts["period"]
        return found

    def checked(engine, trace):
        report = replay(engine, trace)
        plan = trace._plan
        trace._plan = ReplayPlan.from_trace(trace)
        superblock.FAST_FORWARD = False
        try:
            off = replay(engine, trace)
        finally:
            superblock.FAST_FORWARD = True
            trace._plan = plan
        counts["reports"] += 1
        on_bits, off_bits = _bits(report), _bits(off)
        if on_bits != off_bits:
            diffs.append((engine.model.name, {
                name: (value, off_bits.get(name))
                for name, value in on_bits.items()
                if off_bits.get(name) != value}))
        return report

    TimingEngine.replay = checked
    superblock._compiled = counted_compiled
    superblock._probe = counted_probe
    superblock._FUNCTIONS.clear()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = eval_main([*argv, "--workers", "1"])
    finally:
        TimingEngine.replay = replay
        superblock._compiled = compiled
        superblock._probe = probe
        superblock._FUNCTIONS.clear()
    rows, skipped = counts["rows"], counts["skipped"]
    print(f"[fast-forward check] reports={counts['reports']} "
          f"differ={len(diffs)} superblock_rows={rows} skipped={skipped} "
          f"({skipped / rows if rows else 0.0:.1%})")
    for machine, fields in diffs[:10]:
        print(f"  {machine}: {fields}")
    if status:
        return status
    return 1 if diffs or not counts["reports"] else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:] or list(DEFAULT_ARGS)))
