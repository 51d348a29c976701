"""CVA6 frontend timing: scalar instruction costs and the D$ model.

The scalar core matters to the evaluation only through the *setup time* it
adds around vector instructions (Section IV-B: at 64 B/lane neither design
can hide "the latency of scalar loads-stores through the data-cache").
We model an in-order single-issue pipeline: one cycle per ALU op, a
load-to-use latency through a direct-mapped D$, a taken-branch penalty,
and a pipelined scalar FPU.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..functional.trace import ScalarEvent
from ..memory.cache import DirectMappedCache
from ..params import ScalarCoreConfig

__all__ = ["ScalarFrontend", "DirectMappedCache"]

#: Kind-table markers of :meth:`ScalarFrontend.cost_many` for the
#: D$-dependent kinds (every real cost is positive).
_LOAD, _STORE = -1.0, -2.0


class ScalarFrontend:
    """Accumulates CVA6 cycles over the scalar event stream."""

    def __init__(self, config: ScalarCoreConfig, l2_latency: int) -> None:
        self.config = config
        self.l2_latency = l2_latency
        self.dcache = DirectMappedCache(config.dcache_bytes,
                                        config.dcache_line_bytes)
        #: State-independent per-kind costs (everything except the D$-
        #: dependent loads/stores).  FP charges half the pipelined
        #: latency as the average exposure (dependent scalar FP chains
        #: are rare in the kernels).
        self.fixed_costs: dict[str, float] = {
            "alu": float(config.alu_latency),
            "mul": 2.0,
            "div": 10.0,
            "fp": max(1.0, config.fpu_latency / 2),
            "branch": 1.0,
            "branch_taken": 1.0 + config.branch_penalty,
        }

    def cost(self, event: ScalarEvent) -> float:
        cfg = self.config
        kind = event.kind
        fixed = self.fixed_costs.get(kind)
        if fixed is not None:
            cycles = fixed
        elif kind == "load":
            hit = self.dcache.access(event.addr or 0)
            cycles = float(cfg.dcache_hit_latency)
            if not hit:
                cycles += cfg.dcache_miss_penalty + self.l2_latency
        elif kind == "store":
            # Write-through store buffer: a cycle unless the line misses.
            hit = self.dcache.access(event.addr or 0)
            cycles = 1.0 if hit else 2.0
        else:
            cycles = 1.0
        return cycles

    def cost_many(self, kinds: np.ndarray, vocab: Sequence[str],
                  addrs) -> np.ndarray:
        """Cycles of the scalar events ``(vocab[kinds[i]], addrs[i])``.

        Exactly :meth:`cost` on each event in order, D$ state and
        counters included, as one float64 array: every kind resolves
        through one table lookup, and the loads and stores walk the D$
        in a single :meth:`DirectMappedCache.access_many` call (skipped
        when there are none).  A missing address is given as 0, as
        :meth:`cost` reads it.
        """
        fixed = self.fixed_costs
        table = np.array([fixed[kind] if kind in fixed else
                          _LOAD if kind == "load" else
                          _STORE if kind == "store" else 1.0
                          for kind in vocab], dtype=np.float64)
        out = table[np.asarray(kinds, dtype=np.int64)]
        mem = np.flatnonzero(out < 0.0)
        if mem.size:
            cfg = self.config
            hit = self.dcache.access_many(np.asarray(addrs)[mem])
            load_hit = float(cfg.dcache_hit_latency)
            load_miss = load_hit + (cfg.dcache_miss_penalty
                                    + self.l2_latency)
            # Index = 2 * is_load + hit: store miss, store hit, load
            # miss, load hit.
            mem_costs = np.array((2.0, 1.0, load_miss, load_hit))
            out[mem] = mem_costs[(out[mem] == _LOAD) * 2 + hit]
        return out
