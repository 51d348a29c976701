"""Field-by-field equality of compiled replay plans.

:func:`assert_plans_equal` holds two :class:`~repro.timing.replay_plan
.ReplayPlan` objects against each other on every slot that a compile
derives from the trace, plus their superblock structures
(:func:`repro.timing.superblock.bodies`), and skips the slots that only
memoize per-machine or per-process work.
"""

from __future__ import annotations

import numpy as np

from repro.timing import superblock
from repro.timing.replay_plan import ReplayPlan

#: Memo slots: per-machine results, and the superblock structures,
#: their stored code and generated functions (compared through
#: ``superblock.bodies`` instead).
_MEMO_SLOTS = ("_cost_memo", "_machine_memo", "_bodies", "_code",
               "_segments")


def assert_plans_equal(a: ReplayPlan, b: ReplayPlan) -> None:
    for name in ReplayPlan.__slots__:
        if name in _MEMO_SLOTS:
            continue
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray), name
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert type(x) is type(y) and x == y, name
    assert superblock.bodies(a) == superblock.bodies(b)
