"""Scalar-core cache timing models.

Only hit/miss behaviour matters to the evaluation (the D$ determines the
scalar setup time the paper discusses for the medium-vector regime), so
the model is tag-only: no data storage, no write-back traffic.
"""

from __future__ import annotations

import numpy as np


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

    def invalidate_line(self, addr: int) -> None:
        """Back-invalidation from the filter of Fig 2."""
        line = addr // self.line_bytes
        index = line % self.num_lines
        if self._tags[index] == line:
            self._tags[index] = None
