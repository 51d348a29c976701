"""Vector register scoreboard: RAW chaining, WAW/WAR ordering.

Tracks, per architectural vector register, the availability stream of the
last write plus the completion times needed for write-after-write and
write-after-read ordering.  Register groups (LMUL > 1) update every member
register; a reader of any member register chains on the group's stream.

Storage is three parallel 32-entry lists (stream / write-end / read-end)
rather than per-register objects: the replay loop touches the scoreboard
several times per instruction, and flat list indexing keeps that cheap.
"""

from __future__ import annotations

from .stream import Stream

_EMPTY = Stream.instant(0.0, 0)


class Scoreboard:
    """Availability tracking for the 32 vector registers."""

    def __init__(self) -> None:
        self._streams: list[Stream] = [_EMPTY] * 32
        self._write_end: list[float] = [0.0] * 32
        self._read_end: list[float] = [0.0] * 32

    # ------------------------------------------------------------------
    def source_stream(self, base: int, emul: int, n: int) -> Stream:
        """Combined availability of a source register group.

        The group behaves as the *slowest* member: first element waits for
        the latest first-availability, last element for the latest last-
        availability.  For registers never written, elements are instant.
        """
        t_first = 0.0
        t_last = 0.0
        streams = self._streams
        for reg in range(base, min(32, base + emul) if emul > 1 else base + 1):
            st = streams[reg]
            if st.n == 0:
                continue
            if st.t_first > t_first:
                t_first = st.t_first
            st_last = st.t_last
            if st_last > t_last:
                t_last = st_last
        if n <= 1 or t_last <= t_first:
            return Stream.instant(t_first, n)
        return Stream(t_first=t_first, rate=(n - 1) / (t_last - t_first), n=n)

    def waw_war_bound(self, base: int, emul: int) -> float:
        """Earliest start for a writer of this group (WAW + WAR)."""
        bound = 0.0
        we = self._write_end
        re = self._read_end
        for reg in range(base, min(32, base + emul) if emul > 1 else base + 1):
            if we[reg] > bound:
                bound = we[reg]
            if re[reg] > bound:
                bound = re[reg]
        return bound

    # ------------------------------------------------------------------
    def record_read(self, base: int, emul: int, end_exec: float) -> None:
        re = self._read_end
        for reg in range(base, min(32, base + emul) if emul > 1 else base + 1):
            if end_exec > re[reg]:
                re[reg] = end_exec
        return None

    def record_write(self, base: int, emul: int, result: Stream) -> None:
        streams = self._streams
        we = self._write_end
        t_end = result.t_end
        for reg in range(base, min(32, base + emul) if emul > 1 else base + 1):
            streams[reg] = result
            if t_end > we[reg]:
                we[reg] = t_end
        return None

    def all_done(self) -> float:
        """Cycle at which every register write has landed."""
        return max(self._write_end)


class FlatScoreboard:
    """Scoreboard state as bare parallel lists for the vectorized replay.

    The plan-driven replay loop (:meth:`repro.timing.engine.TimingEngine
    .replay`) inlines every scoreboard operation — group-combine, WAW/WAR
    bound, read/write recording — directly over these lists.  They are
    indexed by the plan's scoreboard *slots*, not by register: a produced
    stream is summarized as its ``first``/``last`` element times, floored
    at 0.0 (0.0 = never written or empty, which the group-combine's
    running maximum from 0.0 ignores, exactly like
    :meth:`Scoreboard.source_stream` skips ``n == 0`` streams);
    ``write_end`` / ``read_end`` carry the same completion times
    :class:`Scoreboard` tracks.  Exposing the lists raw
    trades encapsulation for the hot loop's locals — the class exists so
    the state layout is named and testable in one place.

    Two invariants make the fast path exact:

    * **one state per slot** — registers share a slot only when every
      register group of the plan contains all of them or none, so every
      read and write updates them together and, starting equal, they
      stay equal; the maximum over a group's members is the maximum
      over its distinct slots;
    * **nondecreasing per-unit end times** — an op starts no earlier
      than its unit's previous op ended and ends no earlier than it
      starts (positive rates), and issue times never decrease, so the
      ops still queued at any issue are the newest ones: a queue of
      ``depth`` entries is full exactly
      when the op ``depth`` issues back ends after the issue time: the
      engine keeps a ring of each unit's last ``depth`` end times
      instead of a queue.
    """

    __slots__ = ("first", "last", "write_end", "read_end")

    def __init__(self, n_slots: int) -> None:
        #: First/last element time of the last write per slot.
        self.first: list[float] = [0.0] * n_slots
        self.last: list[float] = [0.0] * n_slots
        self.write_end: list[float] = [0.0] * n_slots
        self.read_end: list[float] = [0.0] * n_slots

    def all_done(self) -> float:
        """Cycle at which every register write has landed."""
        return max(self.write_end, default=0.0)
