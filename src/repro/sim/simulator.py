"""The Simulator: an explicit trace-once / replay-many pipeline.

Simulation is two decoupled stages:

1. **Trace capture** (:meth:`Simulator.capture`) — the functional
   interpreter executes the program against the architectural state and
   memory, writing one record per retired instruction straight into
   the columns of a machine-independent
   :class:`~repro.functional.trace_pack.PackedTrace`.  The trace
   depends only on the program, the initial data, and VLEN — never on
   the timing model.
2. **Replay** (:meth:`Simulator.replay` / :func:`replay_trace`) — the
   :class:`~repro.timing.engine.TimingEngine` replays a captured trace
   against one machine model, producing a
   :class:`~repro.timing.report.TimingReport`.  Replay never re-executes
   semantics, so one captured trace can be replayed against any number
   of timing configurations (interface-cut sweeps, queue-depth
   ablations, Ara2-vs-AraXL comparisons at equal VLEN) and each replay
   is bit-identical to a fresh end-to-end run.

Captured traces are reusable across machines and processes through
:class:`~repro.sim.trace_cache.TraceCache`, which keys them by
``(program fingerprint, vlen_bits, setup identity)``:

* *program fingerprint* — content hash of the instruction stream
  (:attr:`repro.isa.program.Program.fingerprint`);
* *vlen_bits* — the only machine parameter the functional execution can
  observe (via ``vsetvli``/VLMAX);
* *setup identity* — a caller-chosen string naming the initial memory
  contents (kernels use their name + problem dictionary, which seeds
  the deterministic input RNG).

Typical one-shot use::

    from repro.params import AraXLConfig
    from repro.sim import Simulator

    sim = Simulator(AraXLConfig(lanes=64))
    sim.mem.write_array(addr, data)          # place inputs
    result = sim.run(program)                # capture + replay
    print(result.cycles, result.flops_per_cycle)

Sweep use (capture once, replay per timing config)::

    captured = sim.capture(program)
    for config in timing_configs:
        report = replay_trace(config, captured).timing

Replays of one capture are fully independent, so a whole sweep can fan
out over worker processes via :func:`~repro.sim.parallel.run_pipeline`,
which captures each :class:`~repro.sim.parallel.CaptureTask` once and
replays it on every config as its trace lands::

    from repro.sim import CaptureTask, SimPool, run_pipeline

    task = CaptureTask.for_kernel("fmatmul", config, bytes_per_lane)
    pool = SimPool(workers=None)  # autodetect host CPUs
    reports = run_pipeline([task], [(cfg, 0) for cfg in timing_configs],
                           pool)
"""

from __future__ import annotations

from ..functional.executor import ExecResult, Executor
from ..functional.memory import FunctionalMemory
from ..isa.program import Program
from ..params import SystemConfig
from ..timing.engine import TimingEngine
from ..uarch import build_model
from .result import RunResult


class Simulator:
    """Binds a machine configuration to memory and architectural state."""

    def __init__(self, config: SystemConfig,
                 mem: FunctionalMemory | None = None,
                 mem_size: int | None = None) -> None:
        self.config = config
        self.model = build_model(config)
        if mem is None:
            mem = (FunctionalMemory(mem_size) if mem_size is not None
                   else FunctionalMemory())
        self.mem = mem
        self._executor = Executor(config.vlen_bits, mem=self.mem)

    @property
    def state(self):
        return self._executor.state

    # ------------------------------------------------------------------
    # Stage 1: trace capture (functional, machine-independent)
    # ------------------------------------------------------------------
    def capture(self, program: Program, data: bool = True) -> ExecResult:
        """Execute ``program`` functionally; returns the captured trace
        bundle, reusable by any replay at this VLEN.  ``data=False``
        captures a :func:`~repro.functional.plan.data_free` program
        without computing its data: the same trace, but a final state
        and memory that mean nothing."""
        exec_result = self._executor.run(program, data=data)
        exec_result.extra["mem"] = self.mem
        return exec_result

    # ------------------------------------------------------------------
    # Stage 2: replay (timing, per machine model)
    # ------------------------------------------------------------------
    def replay(self, captured: ExecResult) -> RunResult:
        """Replay a captured trace on this simulator's machine model."""
        timing = TimingEngine(self.model).replay(captured.trace)
        return RunResult(functional=captured, timing=timing)

    # ------------------------------------------------------------------
    def run(self, program: Program, functional_only: bool = False) -> RunResult:
        """Capture + replay in one call; optionally skip the replay."""
        exec_result = self.capture(program)
        if functional_only:
            from ..timing.report import TimingReport

            timing = TimingReport(machine=self.model.name, cycles=0.0,
                                  dp_flops=exec_result.trace.total_flops)
            return RunResult(functional=exec_result, timing=timing)
        return self.replay(exec_result)


def replay_trace(config: SystemConfig, captured: ExecResult) -> RunResult:
    """Replay a captured trace on ``config``'s machine model.

    Builds no memory or architectural state — this is the cheap fan-out
    path for sweeps that reuse one capture across many timing configs.
    The capture's VLEN must match ``config`` (enforced so a cache misuse
    cannot silently produce wrong-VLEN timing).
    """
    if captured.vlen_bits != config.vlen_bits:
        from ..errors import ConfigError

        raise ConfigError(
            f"trace captured at VLEN={captured.vlen_bits} cannot replay on "
            f"{config.name} (VLEN={config.vlen_bits})"
        )
    timing = TimingEngine(build_model(config)).replay(captured.trace)
    return RunResult(functional=captured, timing=timing)


def run_program(config: SystemConfig, program: Program,
                setup=None) -> RunResult:
    """One-shot convenience: build a simulator, run ``setup(sim)``, run."""
    sim = Simulator(config)
    if setup is not None:
        setup(sim)
    return sim.run(program)
