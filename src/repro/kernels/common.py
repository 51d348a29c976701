"""Shared kernel infrastructure: strip sizing, run container, harness.

The evaluation indexes problem sizes by **bytes per lane** (B/lane): the
number of bytes of vector length each lane holds, ``vl * 8 / lanes`` for
DP elements.  Weak scaling keeps B/lane constant while lanes grow, which
is exactly how Fig 6 sweeps 64 -> 512 B/lane.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..functional.executor import ExecResult
from ..functional.plan import data_free
from ..isa.program import Program
from ..params import SystemConfig
from ..sim import RunResult, Simulator, TraceCache, trace_key

#: Process-wide memo of kernel *program skeletons*: the assembled
#: program plus its buffer base addresses — everything a sweep planner
#: needs (the program fingerprint feeds ``trace_key``; peak bounds are
#: arithmetic on the config) and nothing it doesn't.  Distinct
#: operating points share a skeleton — e.g. Fig 6's (8 lanes,
#: 128 B/lane) and (16 lanes, 64 B/lane) both solve the vl=128, LMUL=1
#: problem — and a :class:`~repro.sim.parallel.SimPool` worker handed
#: several points of one kernel assembles each skeleton once.  Programs
#: are small (instruction lists), so a plain entry-count LRU suffices.
_PROGRAM_CACHE: OrderedDict = OrderedDict()
_PROGRAM_CACHE_ENTRIES = 512

#: Process-wide memo of *golden data*: the input arrays and reference
#: outputs a kernel's ``setup``/``check`` closures consume (a reference
#: under a key of its own: :func:`lazy_reference`).  Built
#: **lazily** on first use — planning a sweep (building every
#: :class:`KernelRun` for trace keys and peak bounds) never touches
#: this cache, so parent RSS and planning time scale with assembly, not
#: problem size; only the process that actually captures a point pays
#: for (and memoizes) its arrays.  Entries hold golden arrays — a
#: paper-scale fconv2d problem is tens of MB — so the LRU is capped by
#: a byte budget over its array payloads, not by entry count.
_GOLDEN_CACHE: OrderedDict = OrderedDict()
_GOLDEN_CACHE_BYTES = 256 * 1024 * 1024
_golden_cache_used = 0
_golden_builds = 0  # monotonic; golden_builds() is the test hook


def _golden_nbytes(value: tuple) -> int:
    """Array bytes pinned by one golden entry (ints/floats are noise)."""
    return sum(getattr(item, "nbytes", 0) for item in value)


def memo_program(key: tuple, build: Callable[[], tuple]) -> tuple:
    """Return the program skeleton for ``key``, building on miss.

    ``key`` must name every input of ``build`` (kernel name + the
    program-shaping parameters, including LMUL); the cached value is
    shared across :class:`KernelRun` instances, so ``build`` must
    return objects the runs treat as immutable (programs, base
    addresses).
    """
    hit = _PROGRAM_CACHE.get(key)
    if hit is not None:
        _PROGRAM_CACHE.move_to_end(key)
        return hit
    value = _PROGRAM_CACHE[key] = build()
    while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_ENTRIES:
        _PROGRAM_CACHE.popitem(last=False)
    return value


def memo_golden(key: tuple, build: Callable[[], tuple]) -> tuple:
    """Return the golden data for ``key``, building (and caching) on miss.

    The byte-budgeted sibling of :func:`memo_program`.  Kernels never
    call this at build time — only from inside their ``setup``/``check``
    closures, via the handle :func:`lazy_golden` returns — which is what
    keeps sweep *planning* free of array materialization.
    """
    global _golden_cache_used, _golden_builds
    hit = _GOLDEN_CACHE.get(key)
    if hit is not None:
        _GOLDEN_CACHE.move_to_end(key)
        return hit
    value = _GOLDEN_CACHE[key] = build()
    _golden_builds += 1
    _golden_cache_used += _golden_nbytes(value)
    while _golden_cache_used > _GOLDEN_CACHE_BYTES \
            and len(_GOLDEN_CACHE) > 1:
        _, evicted = _GOLDEN_CACHE.popitem(last=False)
        _golden_cache_used -= _golden_nbytes(evicted)
    return value


def lazy_golden(key: tuple, build: Callable[[], tuple]
                ) -> Callable[[], tuple]:
    """A zero-argument handle that materializes golden data on demand.

    Kernel builders close their ``setup``/``check`` functions over this
    handle instead of over the arrays themselves; the first call builds
    (and memoizes, via :func:`memo_golden`) the arrays, later calls are
    cache hits.  Golden keys deliberately omit LMUL: the data depends
    only on the problem shape, so two LMUL variants of one problem
    share one entry.
    """
    return lambda: memo_golden(key, build)


def lazy_reference(key: tuple, inputs: Callable[[], tuple],
                   build: Callable[..., np.ndarray]
                   ) -> Callable[[], np.ndarray]:
    """A zero-argument handle on the reference output of the golden
    problem ``key``, whose inputs the :func:`lazy_golden` handle
    ``inputs`` holds.

    Only a kernel's ``check`` calls it: the first call computes
    ``build(*inputs())`` and memoizes it under ``key + ("reference",)``,
    apart from the inputs, so a capture that is not verified (setup
    only, as every curated sweep runs) never computes the reference.
    """
    return lambda: memo_golden(key + ("reference",),
                               lambda: (build(*inputs()),))[0]


def golden_builds() -> int:
    """How many golden-data builds this process has paid (test hook)."""
    return _golden_builds


def reset_skeleton_caches() -> None:
    """Drop both process-wide memos (tests that count builds use this)."""
    global _golden_cache_used
    _PROGRAM_CACHE.clear()
    _GOLDEN_CACHE.clear()
    _golden_cache_used = 0


def vl_and_lmul(config: SystemConfig, bytes_per_lane: int,
                sew: int = 64) -> tuple[int, int]:
    """Vector length and the smallest LMUL that holds it in one strip.

    The paper's sweeps use B/lane in {64, 128, 256, 512}; with the VLEN
    law (1024 bit/lane) those map to LMUL {1, 1, 2, 4} — matching the
    LMUL column of Table I.
    """
    vl = config.vl_for_bytes_per_lane(bytes_per_lane, sew)
    lmul = config.lmul_for_vl(vl, sew)
    return vl, lmul


@dataclass
class KernelRun:
    """A fully-prepared benchmark: program + data + golden check."""

    name: str
    program: Program
    setup: Callable[[Simulator], None]
    check: Callable[[Simulator], float]  # returns max |error|; raises on fail
    dp_flops: float
    max_flops_per_cycle: float
    problem: dict = field(default_factory=dict)

    @property
    def setup_id(self) -> str:
        """Identity of the initial data this kernel places in memory.

        The kernel name plus the problem dictionary fully determine the
        inputs (they seed the deterministic RNG), so this string is the
        third component of the trace-cache key.
        """
        return f"{self.name}:{sorted(self.problem.items())!r}"

    def trace_key(self, config: SystemConfig):
        return trace_key(self.program, config.vlen_bits, self.setup_id)

    def capture(self, config: SystemConfig, cache: TraceCache | None = None,
                verify: bool = True) -> ExecResult:
        """Capture (or fetch from ``cache``) this kernel's dynamic trace.

        The golden ``check()`` runs at capture time, when the functional
        memory holds the results, and never on a cached trace.  Hence
        ``verify=False`` may be served by ``cache.get``, while
        ``verify=True`` never reads the cache: it executes, checks and
        stores the trace with ``cache.put``, moving no lookup counter.
        A cached capture returns the replay-only entry the cache holds
        (no state, no ``extra["mem"]``); an uncached one keeps both.

        Only the trace of an unverified cached capture is ever read, so
        when :func:`~repro.functional.plan.data_free` admits the program
        that capture runs without data: ``setup`` builds no input image
        and the executor computes addresses, not values.
        """
        key = self.trace_key(config) if cache is not None else None
        data = True
        if cache is not None and not verify:
            captured = cache.get(key)
            if captured is not None:
                return captured
            data = not data_free(self.program)
        sim = Simulator(config)
        if data:
            self.setup(sim)
        captured = sim.capture(self.program, data=data)
        if verify:
            self.check(sim)
        if cache is None:
            return captured
        # The cache keeps the replay-only entry: let the memory image go
        # before the put compiles and packs it.
        del sim
        captured.extra.clear()
        return cache.put(key, captured)

    def run(self, config: SystemConfig, verify: bool = True) -> RunResult:
        """Execute end to end at one operating point on a fresh
        simulator, checking the result when ``verify``.  Replay a
        captured trace with :func:`~repro.sim.replay_trace`."""
        sim = Simulator(config)
        self.setup(sim)
        result = sim.run(self.program)
        if verify:
            self.check(sim)
        return result

    def utilization(self, result: RunResult) -> float:
        """Fig 6 utilization: achieved / kernel peak FLOP-per-cycle."""
        return result.timing.fpu_utilization(self.max_flops_per_cycle)


def run_kernel(builder: Callable, config: SystemConfig,
               bytes_per_lane: int, verify: bool = True,
               **kwargs) -> tuple[KernelRun, RunResult]:
    """Build and execute one kernel at one operating point."""
    kernel = builder(config, bytes_per_lane, **kwargs)
    result = kernel.run(config, verify=verify)
    return kernel, result


def check_array(sim: Simulator, addr: int, expected: np.ndarray,
                what: str, rtol: float = 1e-9, atol: float = 1e-9) -> float:
    """Compare a memory region against a golden array; raise on mismatch."""
    actual = sim.mem.read_array(addr, expected.size, expected.dtype)
    expected = expected.reshape(-1)
    if not np.allclose(actual, expected, rtol=rtol, atol=atol):
        bad = np.flatnonzero(~np.isclose(actual, expected, rtol=rtol,
                                         atol=atol))
        i = int(bad[0])
        raise AssertionError(
            f"{what}: {bad.size}/{expected.size} elements mismatch, first at "
            f"[{i}]: got {actual[i]!r}, want {expected[i]!r}"
        )
    err = np.max(np.abs(actual - expected)) if expected.size else 0.0
    return float(err)


class Layout:
    """Static memory layout planner used at program-build time.

    Kernels must know buffer addresses while assembling (addresses are
    immediates), so allocation happens before the simulator exists.
    """

    def __init__(self, base: int = 0, align: int = 64) -> None:
        self._cursor = base
        self._align = align
        self.regions: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, nbytes: int) -> int:
        if name in self.regions:
            raise ConfigError(f"region {name!r} allocated twice")
        base = -(-self._cursor // self._align) * self._align
        self._cursor = base + nbytes
        self.regions[name] = (base, nbytes)
        return base

    def alloc_f64(self, name: str, count: int) -> int:
        return self.alloc(name, count * 8)

    @property
    def total_bytes(self) -> int:
        return self._cursor


def rng_for(name: str, *shape_parts: int) -> np.random.Generator:
    """Deterministic per-kernel RNG so golden checks are reproducible.

    Uses CRC32 rather than ``hash`` because string hashing is randomized
    per interpreter run.
    """
    import zlib

    seed = zlib.crc32(repr((name,) + shape_parts).encode())
    return np.random.default_rng(seed)
