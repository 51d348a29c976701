"""Experiment registry: run any paper table/figure by its identifier.

Every entry takes ``(scale, pool, machines)``.  The **simulation
sweeps** (:data:`SIMULATION_EXPERIMENTS`: fig6, fig7, table1, table3)
run their capture and replay phases on ``pool``, one shared
:class:`~repro.sim.parallel.SimPool` that carries the worker budget,
the trace cache or store, and the fault log, and sweep ``machines``
when a selection is given.  The **static experiments**
(:data:`STATIC_EXPERIMENTS`: fig1, fig8, fig9, table2) regenerate fixed
paper data (survey points, floorplan geometry, area models); they
accept the same arguments so the registry stays uniform, and ignore
them *by contract* — :func:`static_experiment` documents the intent and
the test suite asserts the two sets exactly partition
:data:`EXPERIMENTS`, so a new entry must declare which kind it is.
"""

from __future__ import annotations

import functools
from typing import Callable

from ..sim.parallel import SimPool
from ..sim.trace_store import attach_store
from .fig6_scaling import render_fig6, run_fig6
from .fig7_latency import render_fig7, run_fig7
from .fig8_floorplan import render_fig8, run_fig8
from .fig9_area import render_fig9, run_fig9
from .survey import render_survey
from .table1_kernels import render_table1, run_table1
from .table2_area import render_table2, run_table2
from .table3_ppa import render_table3, run_table3

#: Experiments whose runners simulate kernels: ``scale`` picks the
#: problem sizes and ``pool`` changes how (never what) they compute.
SIMULATION_EXPERIMENTS = frozenset({"fig6", "fig7", "table1", "table3"})

#: Experiments that regenerate fixed paper data and deliberately ignore
#: ``scale``/``pool``/``machines`` (see :func:`static_experiment`).
STATIC_EXPERIMENTS = frozenset({"fig1", "fig8", "fig9", "table2"})


def static_experiment(render: Callable[[], str]) -> Callable[..., str]:
    """Adapt a zero-argument static renderer to the registry signature.

    Static experiments have no simulation phase: there is no problem
    size to ``scale``, no batch for a ``pool`` to run and no machine
    selection to sweep.  Accepting-and-dropping the arguments *here*,
    in one audited place, is what makes every other
    ``def _expN(scale, pool, machines)`` ignoring a parameter a bug by
    definition.
    """
    @functools.wraps(render)
    def runner(scale: str, pool: SimPool | None = None,
               machines=None) -> str:
        del scale, pool, machines  # static data
        return render()
    return runner


def _fig6(scale: str, pool: SimPool | None = None, machines=None) -> str:
    return render_fig6(run_fig6(scale=scale, pool=pool, machines=machines))


def _fig7(scale: str, pool: SimPool | None = None, machines=None) -> str:
    # Fig 7 studies register cuts on one base machine at a time: with a
    # machine selection, the sweep runs once per machine and the tables
    # are concatenated (a single selection renders byte-identically to
    # the default when it names the default 64L machine).
    bases = machines if machines else [None]
    return "\n\n".join(
        render_fig7(run_fig7(scale=scale, pool=pool, base_config=base))
        for base in bases)


def _table1(scale: str, pool: SimPool | None = None, machines=None) -> str:
    # Table I measures kernel peaks on one machine at a time, like fig7.
    configs = machines if machines else [None]
    return "\n\n".join(
        render_table1(run_table1(scale=scale, pool=pool, config=config))
        for config in configs)


def _table3(scale: str, pool: SimPool | None = None, machines=None) -> str:
    return render_table3(run_table3(scale=scale, pool=pool,
                                    configs=machines))


#: Experiment id -> callable(scale, pool, machines) -> rendered text.
EXPERIMENTS: dict[str, Callable[..., str]] = {
    "fig1": static_experiment(render_survey),
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": static_experiment(lambda: render_fig8(run_fig8(lanes=16))),
    "fig9": static_experiment(lambda: render_fig9(run_fig9())),
    "table1": _table1,
    "table2": static_experiment(lambda: render_table2(run_table2())),
    "table3": _table3,
}

assert set(EXPERIMENTS) == SIMULATION_EXPERIMENTS | STATIC_EXPERIMENTS
assert not SIMULATION_EXPERIMENTS & STATIC_EXPERIMENTS


def run_experiment(name: str, scale: str = "paper",
                   pool: SimPool | None = None, machines=None) -> str:
    """Run one experiment by id ('fig6', 'table3', ...); returns text.

    ``pool`` is the :class:`~repro.sim.SimPool` the simulation sweeps
    run on: its worker budget, trace cache or store, and fault log.
    Pass one pool to several calls to share all three across them, as
    the CLI does.  Without one, a simulation experiment runs in-process
    on a fresh pool whose cache is the store ``$REPRO_TRACE_STORE``
    names, or a private in-memory cache when the variable is unset.
    Rendered output is byte-identical for any worker counts, any store
    state (cold, warm, or GC'd mid-run), and any recovered fault.

    ``machines`` substitutes the machine selection of the simulation
    sweeps: a sequence of :class:`~repro.params.SystemConfig` objects,
    typically resolved from registry names or spec files via
    :func:`repro.machine.get_machine`.  fig6 and table3 sweep the whole
    selection in one table; fig7 and table1 run once per machine
    (concatenating tables); static experiments ignore it by contract.
    ``None`` keeps each experiment's paper defaults, and a selection
    naming exactly the defaults renders byte-identically to them.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    if pool is None and name in SIMULATION_EXPERIMENTS:
        pool = SimPool(cache=attach_store())
    return runner(scale, pool, machines)
