"""CVA6 frontend timing: scalar instruction costs and the D$ model.

The scalar core matters to the evaluation only through the *setup time* it
adds around vector instructions (Section IV-B: at 64 B/lane neither design
can hide "the latency of scalar loads-stores through the data-cache").
We model an in-order single-issue pipeline: one cycle per ALU op, a
load-to-use latency through a direct-mapped D$, a taken-branch penalty,
and a pipelined scalar FPU.

The D$ (:class:`DirectMappedCache`) is tag-only: only its hit/miss
behaviour reaches the setup time, so it stores no data and models no
write-back traffic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..functional.trace import ScalarEvent
from ..params import ScalarCoreConfig

__all__ = ["ScalarFrontend", "DirectMappedCache"]

#: Kind-table markers of :meth:`ScalarFrontend.cost_many` for the
#: D$-dependent kinds (every real cost is positive).
_LOAD, _STORE = -1.0, -2.0


class DirectMappedCache:
    """Tag-only direct-mapped cache (hit/miss timing, no data)."""

    def __init__(self, size_bytes: int, line_bytes: int) -> None:
        self.line_bytes = line_bytes
        self.num_lines = max(1, size_bytes // line_bytes)
        self._tags: list[int | None] = [None] * self.num_lines
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch ``addr``; returns True on hit and fills on miss."""
        line = addr // self.line_bytes
        index = line % self.num_lines
        if self._tags[index] == line:
            self.hits += 1
            return True
        self._tags[index] = line
        self.misses += 1
        return False

    def access_many(self, addrs) -> np.ndarray:
        """Touch every address of ``addrs`` in order; the hit mask.

        Exactly :meth:`access` on each address in turn — same mask, same
        counters, same resident tags afterwards — without a Python call
        per address.  A set's accesses only interact with each other, so
        after a stable sort by set index an access hits iff the previous
        access to its set touched the same line; the first access to
        each set compares against the resident tag, and the last one
        leaves its line resident.  ``addrs`` may be an object array of
        Python ints beyond the int64 range.
        """
        addrs = np.asarray(addrs)
        n = addrs.size
        if not n:
            return np.zeros(0, dtype=bool)
        lines = addrs // self.line_bytes
        sets = np.asarray(lines % self.num_lines, dtype=np.int64)
        order = np.argsort(sets, kind="stable")
        sets = sets[order]
        lines = lines[order]
        hit = np.empty(n, dtype=bool)
        hit[1:] = lines[1:] == lines[:-1]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(sets[1:], sets[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        tags = self._tags
        head_sets = sets[heads].tolist()
        hit[heads] = [tags[s] == line for s, line in
                      zip(head_sets, lines[heads].tolist())]
        lasts = np.append(heads[1:] - 1, n - 1)
        for s, line in zip(head_sets, lines[lasts].tolist()):
            tags[s] = line
        n_hits = int(np.count_nonzero(hit))
        self.hits += n_hits
        self.misses += n - n_hits
        mask = np.empty(n, dtype=bool)
        mask[order] = hit
        return mask


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
