"""Deterministic SHA-256 counter RNG for the program fuzzer.

The generation path must be bit-reproducible from the seed across
processes and interpreter restarts, so it cannot touch ``random``
(process-seeded), ``numpy.random`` (flagged by the determinism lint in
this tree) or anything clock-derived.  :class:`FuzzRng` instead hashes
``key:counter`` with SHA-256 and consumes the digest as a stream of
64-bit words — the same construction :mod:`repro.sim.faults` uses for
fault rolls — which is stable everywhere Python is.
"""

from __future__ import annotations

import hashlib

import numpy as np


class FuzzRng:
    """A seeded, forkable stream of deterministic pseudo-random words.

    Two instances built with the same ``(seed, stream)`` pair produce
    identical sequences in any process; distinct ``stream`` labels give
    independent sequences from one seed (e.g. ``"ops"`` for program
    structure vs ``"data"`` for buffer contents), so consuming more
    words on one path never perturbs the other.
    """

    __slots__ = ("_key", "_counter", "_queue")

    def __init__(self, seed: int, stream: str = "") -> None:
        self._key = f"repro.fuzz:{int(seed)}:{stream}".encode()
        self._counter = 0
        self._queue: list[int] = []

    def _digest(self, counter: int) -> bytes:
        return hashlib.sha256(
            self._key + b"#" + str(counter).encode()).digest()

    def u64(self) -> int:
        """Next 64-bit word of the stream."""
        if not self._queue:
            digest = self._digest(self._counter)
            self._counter += 1
            # Reversed so pop() serves digest words in byte order.
            self._queue = [int.from_bytes(digest[i:i + 8], "little")
                           for i in (24, 16, 8, 0)]
        return self._queue.pop()

    def below(self, n: int) -> int:
        """Uniform draw in ``[0, n)`` (modulo bias is < n/2**64)."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        return self.u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform draw in the inclusive range ``[lo, hi]``."""
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        """Uniform draw from a non-empty sequence."""
        return seq[self.below(len(seq))]

    def chance(self, num: int, den: int) -> bool:
        """True with probability ``num/den``."""
        return self.below(den) < num

    def floats(self, count: int) -> np.ndarray:
        """``count`` float64 values uniform in ``[-1, 1)``.

        Draws exactly the words ``count`` calls of :meth:`u64` would:
        the queued words first, then the remaining digests hashed in one
        batch and read as little-endian words, with a partly used last
        digest's spare words queued for the next draw.
        """
        count = max(int(count), 0)
        split = max(len(self._queue) - count, 0)
        queued = self._queue[split:][::-1]  # in pop() order
        del self._queue[split:]
        need = count - len(queued)
        fresh = np.empty(0, dtype=np.uint64)
        if need:
            first = self._counter
            self._counter += -(-need // 4)
            fresh = np.frombuffer(
                b"".join(self._digest(c)
                         for c in range(first, self._counter)),
                dtype="<u8")
            self._queue = fresh[need:][::-1].tolist()
        words = np.concatenate(
            (np.array(queued, dtype=np.uint64), fresh[:need]))
        # 53 mantissa-width bits -> [0, 1), then stretched to [-1, 1).
        return (words >> np.uint64(11)).astype(np.float64) \
            * (2.0 ** -52) - 1.0
