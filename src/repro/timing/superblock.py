"""Superblock replay: generated straight-line code for periodic row bodies.

Long-vector kernels are loops, so a compiled plan's issue stream is
periodic: the same run of row classes, with the same number of scalar
events before each row, repeats back to back.  This module finds those
runs once per plan and replays each with one generated Python function
instead of the generic row loop of :meth:`repro.timing.engine
.TimingEngine.replay`.

* **Scan** (:func:`scan`, at plan compile time) — each issue row gets
  a key that is equal exactly when the row class and the number of
  scalar events before the row are.  Candidate
  periods are the distances to the previous equal key that occur at
  least ``MIN_REPS - 1`` times; each candidate ``p`` is verified with
  one ``key[p:] == key[:-p]`` comparison, whose runs of at least
  ``(MIN_REPS - 1) * p`` equal rows are blocks of ``MIN_REPS`` or more
  whole periods.  Candidates are taken greedily: each round the
  shortest period covering within an eighth of the best remaining
  coverage wins (a 316-row body beats its 632-row double, an outer loop
  beats an inner one that covers much less), and its blocks that
  overlap no earlier block are kept.  A trailing partial period stays
  outside the block.  Plans below :data:`MIN_ROWS` issue rows are not
  scanned.
* **Structure** — a body's *structure* is what its generated code
  depends on: per row, the scalar-event count and either "vsetvl" or
  the row's class within the body; per class, the unit, the reduction
  and dest-scalar flags, the zero-element (``cn == 0``), single-element
  (``cn == 1``) and ``last1 != 0`` flags, and the scoreboard slots,
  renumbered in order of first use.  Element counts, rates and other
  float constants are not part of it, so plans of one kernel at other
  sizes, and every machine, share one function.
* **Code** (:func:`_source`) — one function per structure runs ``reps``
  iterations of the body straight-line: scoreboard slots, unit ready
  times, busy sums, ring indices and the issue clocks live in locals
  for the whole superblock, every branch on a structural flag is
  resolved in the generated text, and the float constants are bound
  once per call from the per-machine class table.  Scalar costs are
  still added one at a time, in stream order.
* **Compiled once per store, loaded per process** — the structures
  (:func:`bodies`) are part of a plan, and so is their compiled code
  (:func:`code`: the :mod:`marshal` bytes of each body's compiled
  source, zlib-compressed), so the disk tier stores both in the plan
  section.  A process compiles a structure at most once, and caches
  the function and the code bytes under it (:data:`_FUNCTIONS`).  On a
  plan the disk tier loaded, :func:`segments` takes each function the
  cache lacks from the section's bytes instead: no :func:`_source`, no
  ``compile``.  The bytes are interpreter-specific; the plan section's
  :func:`~repro.timing.replay_plan.compiler_digest` covers the
  interpreter's bytecode magic number, so a section another CPython
  wrote reads as stale and its code never runs.
* **Fast-forward** (:func:`_probe`, generated into every body) — a
  body's steady state repeats up to a move in time.  At rep boundaries
  a body snapshots its *times*: ``t``, ``nv``, each slot's first, last
  and read-end times (write-end too for destination slots), each
  unit's ready time and its ring of queued end times in queue order.
  When the snapshot ``h`` reps back (``h`` in 1, 2, 4) is this one
  moved by one common ``delta``, and the scalar costs ahead repeat the
  costs of those ``h`` reps (:meth:`~repro.timing.replay_plan
  ._MachineRows.cost_periods`, one numpy compare per period and
  machine), the body skips ``n`` hyper-periods at once: every time
  moves by ``n * delta``, ``k``, the ring indices and the op counts
  advance, and the stall sum and busy sums add the skipped rows' terms
  one addition at a time, in order.  The jump stops at the binade top,
  at the first cost that differs and at the end of the call; the body
  then runs normally and probes again (after a failed window of
  :data:`PROBE_WINDOW` boundaries it waits, twice as long each time).
  :data:`FAST_FORWARD` switches it off.  On warm ``all --scale
  paper`` (250 replays, 1,784,720 superblock rows) it skips 1,429,562
  rows, 80.1%.

**Exactness.**  A generated row performs the arithmetic of the generic
loop's row — the same IEEE-754 operations on the same operands in the
same order (``t0 + lat + rinv`` stays ``(t0 + lat) + rinv``); only
comparisons are rearranged, and those are exact.  Each row's issue
stall goes to a list that is added to ``st`` later, term by term in
order: the same additions, as no row reads ``st``.  The structural
flags it resolves are the very tests the generic loop makes per row,
and they are constant within a class.  State leaves the locals through
the same lists the generic loop uses, so gaps and superblocks
interleave freely.  A jump is exact because:

* a row combines times only with *durations* (constants, costs, and
  differences or quotients of durations), compares times with times
  or with 0.0, and compares a duration with ``1e-12``.  If every time
  in ``[2^(e-1), 2^e)`` moves by ``D``, a multiple of twice the
  binade's spacing ``u = 2^(e-53)``, then ``fl(x + D + d) = fl(x + d)
  + D`` whenever both sums stay in the binade: the rounding grid
  shifts by an even number of steps, so even a tie rounds to the
  same neighbour.  Durations computed from moved times are unchanged,
  and so are all comparisons while every time is positive;
* with non-negative durations (checked once per call) every time a
  row computes lies between the smallest time of the hyper-period's
  first snapshot and, within a few ulps, the largest of its last one.
  So a jump keeps that smallest time above ``2^(e-1)`` and the largest
  time after the jump a margin below ``2^e``: each skipped rep is the
  observed hyper-period moved, operation by operation.  A 0.0 in both
  snapshots is a never-written entry and stays 0.0;
* the stall sum and the busy sums are sums, not times: ``B + n * d``
  can differ from ``n`` additions of ``d``.  So a jump adds the
  recorded stall terms of one hyper-period ``n`` times over, and each
  unit's per-rep busy terms ``n * h`` times over, one addition at a
  time;
* after a jump, the last skipped hyper-period is kept: a later state
  that is its start moved within the same binade, facing the same
  costs, jumps by it without a new probe (a cost that broke the jump
  often leaves the state a moved copy of the steady one).

Calls shorter than :data:`MIN_PROBE_REPS`, machines with a negative or
NaN duration and rings shorter than the queue depth never jump.
:meth:`~repro.timing.engine.TimingEngine.replay_reference` stays the
oracle.
"""

from __future__ import annotations

import marshal
import zlib
from math import frexp, ldexp
from operator import itemgetter

import numpy as np

__all__ = ["MIN_REPS", "MIN_ROWS", "bodies", "code", "scan", "segments"]

#: Plans with fewer issue rows are not scanned (fuzz plans have ~60).
MIN_ROWS = 512

#: A superblock holds at least this many whole periods.
MIN_REPS = 4

#: Longest body period considered; bounds the generated code's size.
MAX_PERIOD = 1024

#: Structure -> ``(body function, its code)``, per process; the code is
#: the zlib-compressed :mod:`marshal` bytes a plan section stores.
_FUNCTIONS: dict = {}

#: Most structures :data:`_FUNCTIONS` keeps (oldest dropped first).
_MAX_FUNCTIONS = 256

#: Periods with more scalar events add them in a loop per row instead
#: of unpacking one local per event.
_MAX_UNPACKED = 1024

#: Table-entry indices of the float constants a generated body binds.
_FIELDS = {"L1": 8, "NM1": 9, "CM1": 10, "CNF": 11, "LAT": 12,
           "RINV": 13, "Q1": 14, "BUSY": 15, "TAIL": 16}

#: Steady-state fast-forward of the bodies; tests and
#: ``tools/fast_forward_check.py`` switch it off to compare.
FAST_FORWARD = True

#: Calls of fewer reps are not probed.
MIN_PROBE_REPS = 16

#: A probe window gives up after this many rep boundaries without a
#: jump; the next window opens this many reps later, twice as many
#: after each further failure.
PROBE_WINDOW = 8

#: Hyper-periods a probe tries, in reps, shortest first.
_HYPER = (1, 2, 4)

#: Fewest rows a jump skips, unless it reaches the end of the call: a
#: shorter one would restart the probe window for little gain.
_MIN_JUMP_ROWS = 64


def scan(row_class: np.ndarray, seg_end: np.ndarray) -> tuple:
    """Superblocks of one plan's issue rows: ``((first row, period,
    reps), ...)`` in row order, each ``reps >= MIN_REPS``.

    ``row_class`` holds each row's class id and ``seg_end`` the
    cumulative scalar-event index each row's segment ends at.
    """
    n = row_class.size
    if n < MIN_ROWS:
        return ()
    key = seg_end.copy()  # scalar events before each row, then the key
    key[1:] -= seg_end[:-1]
    key += row_class * (int(key.max()) + 1)
    # A stable argsort is a radix sort on 16-bit keys.
    order = np.argsort(key.astype(np.uint16) if key.max() < 1 << 16
                       else key, kind="stable")
    ordered = key[order]
    dist = (order[1:] - order[:-1])[ordered[1:] == ordered[:-1]]
    periods, hits = np.unique(dist, return_counts=True)
    keep = ((hits >= MIN_REPS - 1) & (periods <= MAX_PERIOD)
            & (periods * MIN_REPS <= n))
    candidates = []
    for p in periods[keep].tolist():
        same = np.zeros(n - p + 2, dtype=np.int8)
        np.equal(key[p:], key[:-p], out=same[1:-1].view(bool))
        edges = np.flatnonzero(same[1:] != same[:-1])
        starts, lengths = edges[::2], edges[1::2] - edges[::2]
        long = lengths >= (MIN_REPS - 1) * p
        if long.any():
            starts = starts[long]
            reps = (lengths[long] + p) // p
            candidates.append((p, starts, starts + reps * p, reps))

    taken = np.zeros(n, dtype=bool)
    blocks: list = []
    while candidates:
        if blocks:  # rows a block may use: those no block took yet
            before = np.concatenate(([0], np.cumsum(taken)))
            cover = [int(((stops - starts)
                          * (before[stops] == before[starts])).sum())
                     for _, starts, stops, _ in candidates]
        else:
            cover = [int((stops - starts).sum())
                     for _, starts, stops, _ in candidates]
        best = max(cover)
        if not best:
            break
        pick = next(i for i, rows in enumerate(cover) if 8 * rows >= 7 * best)
        p, starts, stops, reps = candidates.pop(pick)
        for start, stop, r in zip(starts.tolist(), stops.tolist(),
                                  reps.tolist()):
            if not taken[start:stop].any():
                taken[start:stop] = True
                blocks.append((start, p, r))
    return tuple(sorted(blocks))


# ----------------------------------------------------------------------
# Structure and code generation
# ----------------------------------------------------------------------
def _structure(classes: list, row_class: list, seg_end: list,
               start: int, period: int) -> tuple:
    """``(structure, class ids, slot ids)`` of the body at ``start``.

    Class ids and slot ids are listed in order of first use in the
    body; the structure refers to both by that position.
    """
    cids: dict = {}
    slot_ids: dict = {}
    shapes = []
    rows = []

    def canon(slots: tuple) -> tuple:
        return tuple(slot_ids.setdefault(s, len(slot_ids)) for s in slots)

    prev = seg_end[start - 1] if start else 0
    for i in range(start, start + period):
        c = row_class[i]
        count = seg_end[i] - prev
        prev = seg_end[i]
        if not c:
            rows.append((count, -1))
            continue
        j = cids.get(c)
        if j is None:
            j = cids[c] = len(cids)
            (u, red, ones, multi, reads, dregs, dscal, cn, last1,
             *_) = classes[c]
            shapes.append((u, red, canon(ones),
                           tuple(canon(g) for g in multi), canon(reads),
                           canon(dregs), dscal, cn == 0, cn == 1,
                           last1 != 0))
        rows.append((count, j))
    return (tuple(rows), tuple(shapes)), tuple(cids), tuple(slot_ids)


def _source(structure: tuple) -> str:
    """Python source of the body function of ``structure``.

    ``_body(reps, k, t, nv, st, costs, table, cids, slots, first, last,
    write_end, read_end, rings, uready, ubusy, uops, depth, vsc, gap,
    ita, srl, ff)`` replays ``reps`` periods from scalar index ``k``
    with the scalar clock ``t``, the next vector issue time ``nv`` and
    the issue-stall sum ``st``, and returns the four updated.  ``ff``
    is the machine bundle whose costs ``costs`` are
    (:class:`~repro.timing.replay_plan._MachineRows`), for the
    fast-forward's cost-repetition queries, or None to run every rep.
    """
    rows, shapes = structure
    lines: list[str] = []

    def out(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    out(0, "def _body(reps, k, t, nv, st, costs, table, cids, slots, "
           "first, last, write_end, read_end, rings, uready, ubusy, uops, "
           "depth, vsc, gap, ita, srl, ff):")
    # -- constants: the float fields each class's rows read -----------
    for j, (_, red, ones, multi, _, _, _, zero, one, l1) in \
            enumerate(shapes):
        if zero:
            names = ["LAT"]
        else:
            names = ["Q1", "RINV", "BUSY"]
            if l1 and (ones or multi):
                names += ["L1", "NM1"]
            names += ["TAIL"] if red else ["LAT"] if one \
                else ["LAT", "CM1", "CNF"]
        bound = ", ".join(f"{name}_{j}" for name in names)
        fields = ", ".join(str(_FIELDS[name]) for name in names)
        if len(names) == 1:
            out(1, f"{bound} = table[cids[{j}]][{fields}]")
        else:  # one statement per class keeps the compile small
            out(1, f"{bound} = _fields({fields})(table[cids[{j}]])")
    # -- state into locals ----------------------------------------------
    n_slots = 1 + max((s for shape in shapes
                       for s in (*shape[4], *shape[5])), default=-1)
    written: list = []
    read: list = []
    for shape in shapes:
        written += [s for s in shape[5] if s not in written]
        read += [s for s in shape[4] if s not in read]
    for s in range(n_slots):
        out(1, f"s = slots[{s}]")
        out(1, f"f{s} = first[s]; l{s} = last[s]; "
               f"w{s} = write_end[s]; r{s} = read_end[s]")
    units = list(dict.fromkeys(shape[0] for shape in shapes))
    per_rep = {u: 0 for u in units}
    busy: dict = {u: [] for u in units}
    for _, j in rows:
        if j >= 0:
            u = shapes[j][0]
            per_rep[u] += 1
            busy[u].append("0.0" if shapes[j][7] else f"BUSY_{j}")
    for u in units:
        out(1, f"R{u} = uready[{u}]; B{u} = ubusy[{u}]; Q{u} = rings[{u}]; "
               f"I{u} = uops[{u}] % depth")
    # -- fast-forward: per-rep busy terms, probe state --------------------
    n_costs = sum(count for count, _ in rows)
    times = ", ".join(["t", "nv"]
                      + [f"{c}{s}" for s in range(n_slots) for c in "flr"]
                      + [f"w{s}" for s in written]
                      + [f"R{u}" for u in units])
    fifos = "".join(f", *Q{u}[I{u}:], *Q{u}[:I{u}]" for u in units)
    for u in units:
        out(1, f"BS{u} = ({', '.join(busy[u])},)")
    out(1, "SL = []")
    out(1, "sa = SL.append")
    out(1, "P = []")
    out(1, "ref = None")
    out(1, f"nxt = _start(ff, reps, depth, (vsc, gap, ita, srl), "
           f"({''.join(f'Q{u}, ' for u in units)}))")
    out(1, f"wait = {PROBE_WINDOW}")
    out(1, "r = 0")
    # -- the body --------------------------------------------------------
    out(1, "while r < reps:")
    out(2, "if r >= nxt:")
    out(3, f"P.append((({times}{fifos}), k, len(SL)))")
    least = -(-_MIN_JUMP_ROWS // len(rows))
    out(3, f"j = _probe(P, SL, ff, {n_costs}, reps - r, {least}, ref)")
    out(3, "if j.__class__ is tuple:")
    out(4, "n, h, D, terms, ref = j")
    out(4, "r += n * h")
    if n_costs:
        out(4, f"k += n * h * {n_costs}")
    out(4, "st = _repeat(_repeat(st, SL, 1), terms, n)")
    out(4, "D *= n")
    out(4, f"{times} = [x + D if x else x for x in ({times})]")
    for u in units:
        out(4, f"B{u} = _repeat(B{u}, BS{u}, n * h)")
        out(4, f"I{u} = _shift_ring(Q{u}, I{u}, n * h * {per_rep[u]}, D, "
               f"depth)")
    out(4, "P.clear()")
    out(4, "SL.clear()")
    out(4, "continue")
    out(3, f"if j is not None or len(P) > {PROBE_WINDOW}:")
    out(4, "st = _repeat(st, SL, 1)")
    out(4, "P.clear()")
    out(4, "SL.clear()")
    out(4, "if j is None:")
    out(5, "j = wait")
    out(5, "wait += wait")
    out(4, "nxt = r + j")
    out(2, "elif SL:")  # not probing: no snapshot refers to SL
    out(3, "st = _repeat(st, SL, 1)")
    out(3, "SL.clear()")
    unpacked = n_costs <= _MAX_UNPACKED
    if not n_costs:
        pass
    elif unpacked:  # one name per scalar cost of the period
        names = ", ".join(f"c{i}" for i in range(n_costs))
        out(2, f"{names}, = costs[k:k + {n_costs}]")
        out(2, f"k += {n_costs}")
    else:
        out(2, "k0 = k")
        out(2, f"k += {n_costs}")
    ci = 0
    for count, j in rows:
        if unpacked:
            for i in range(ci, ci + count):
                out(2, f"t += c{i}")
        elif count:
            out(2, f"for x in costs[k0 + {ci}:k0 + {ci + count}]: t += x")
        ci += count
        if j < 0:
            out(2, "t += vsc")
            out(2, "x = t + gap")
            out(2, "if x > nv: nv = x")
            continue
        _vector_row(out, j, shapes[j])
    out(2, "r += 1")
    # -- state back out ---------------------------------------------------
    for s in written:
        out(1, f"s = slots[{s}]")
        out(1, f"first[s] = f{s}; last[s] = l{s}; "
               f"write_end[s] = w{s}")
    for s in read:
        out(1, f"read_end[slots[{s}]] = r{s}")
    for u in units:
        out(1, f"uready[{u}] = R{u}; ubusy[{u}] = B{u}; "
               f"uops[{u}] += {per_rep[u]} * reps")
    out(1, "return k, t, nv, _repeat(st, SL, 1)")
    return "\n".join(lines) + "\n"


def _vector_row(out, j: int, shape: tuple) -> None:
    """Write one vector row of class ``j`` with ``out(depth, text)``:
    the generic loop's row with every structural test resolved."""
    u, red, ones, multi, reads, dregs, dscal, zero, one, l1 = shape
    # --- issue: frontend cycle, ack gap, queue slot
    out(2, "t += 1.0")
    out(2, "tr = t if t > nv else nv")
    out(2, f"x = Q{u}[I{u}]")
    out(2, "ta = x if x > tr else tr")
    out(2, "sa(ta - tr)")  # added to st in order at a jump or the end
    out(2, "t = ta")
    out(2, "nv = ta + gap")
    # --- hazards: WAW/WAR on the destination slots
    out(2, "e = ta + ita")
    for s in dregs:
        out(2, f"if w{s} > e: e = w{s}")
        out(2, f"if r{s} > e: e = r{s}")
    out(2, f"t0 = R{u} if R{u} > e else e")
    # --- execute
    if zero:
        out(2, "ee = ts = t0")
        out(2, "rf = rl = 0.0")
        out(2, f"re = t0 + LAT_{j}")
        busy = "0.0"
    else:
        out(2, "tm = 0.0")
        for s in ones:
            out(2, f"if f{s} > t0: t0 = f{s}")
            if l1:
                out(2, f"if l{s} > f{s}:")
                out(3, f"x = f{s} + L1_{j} / (NM1_{j} / (l{s} - f{s}))")
                out(3, "if x > tm: tm = x")
                out(2, f"elif f{s} > tm: tm = f{s}")
            else:
                out(2, f"if f{s} > tm: tm = f{s}")
        for group in multi:
            out(2, "gf = 0.0")
            out(2, "gl = 0.0")
            for s in group:
                out(2, f"if f{s} > gf: gf = f{s}")
                out(2, f"if l{s} > gl: gl = l{s}")
            out(2, "if gf > t0: t0 = gf")
            if l1:
                out(2, "if gl > gf:")
                out(3, f"x = gf + L1_{j} / (NM1_{j} / (gl - gf))")
                out(3, "if x > tm: tm = x")
                out(2, "elif gf > tm: tm = gf")
            else:
                out(2, "if gf > tm: tm = gf")
        out(2, f"tl = t0 + Q1_{j}")
        out(2, "if tm > tl: tl = tm")
        out(2, f"ee = tl + RINV_{j}")
        if red:
            out(2, f"ee += TAIL_{j}")
            out(2, "rf = rl = re = ee")
        else:
            out(2, f"rf = t0 + LAT_{j} + RINV_{j}")
            if one:
                out(2, "rl = rf")
                out(2, f"re = rf + RINV_{j}")
            else:
                out(2, f"x = tl + LAT_{j} + RINV_{j} - rf")
                out(2, "if x < 1e-12: x = 1e-12")
                out(2, f"x = CM1_{j} / x")
                out(2, f"rl = rf + CM1_{j} / x")
                out(2, f"re = rf + CNF_{j} / x")
        if dscal:
            out(2, "ts = rl")
        out(2, "if rf < 0.0:")
        out(3, "rf = 0.0")
        out(3, "if rl < 0.0: rl = 0.0")
        busy = f"BUSY_{j}"
    # --- retire + scoreboard updates
    out(2, f"R{u} = ee")
    out(2, f"B{u} += {busy}")
    out(2, f"Q{u}[I{u}] = ee")
    out(2, f"I{u} += 1")
    out(2, f"if I{u} == depth: I{u} = 0")
    for s in reads:
        out(2, f"if ee > r{s}: r{s} = ee")
    for s in dregs:
        out(2, f"f{s} = rf; l{s} = rl")
        out(2, f"if re > w{s}: w{s} = re")
    if dscal:
        out(2, "x = ts + srl")
        out(2, "if x > t: t = x")


def _start(ff, reps: int, depth: int, durations: tuple,
           rings: tuple) -> int:
    """Rep at which a body call starts probing: 0, or ``reps`` (never)
    when fast-forward is off (``ff`` is None), the call is short, a
    duration the body adds to a time (``durations`` or a class's, see
    :meth:`~repro.timing.replay_plan._MachineRows.durations_ok`) is
    negative or NaN, or a unit's ring is shorter than ``depth``."""
    if (ff is None or reps < MIN_PROBE_REPS
            or not all(d >= 0.0 for d in durations)
            or not ff.durations_ok()
            or any(len(ring) != depth for ring in rings)):
        return reps
    return 0


def _shift(a: tuple, b: tuple):
    """The common move ``delta > 0`` that takes the times ``a`` to the
    times ``b``, or None.  A time that is 0.0 in both is a never-written
    entry, which the body only compares against positive times, so it
    stays put."""
    delta = b[0] - a[0]
    if not delta > 0.0:
        return None
    for x, y in zip(a, b):
        if y - x != delta and (x or y):
            return None
    if a.count(0.0) != b.count(0.0):
        return None  # a 0.0 moved to delta: not a time in a
    return delta


def _room(a: tuple, c: tuple, delta: float, move: float):
    """``(n, m)`` for a run known to take the times ``a`` to ``a +
    delta``, replayed from the times ``c = a + move``: ``n`` moves of
    ``delta`` keep every time of ``c`` in the binade of the smallest
    nonzero time of ``a``, and ``m`` moves take that time past the
    binade's top.  None when the moves are off the binade's grid.

    The binade ``[2^(e-1), 2^e)`` has the spacing ``u = 2^(e-53)``;
    ``delta`` and ``move`` must be multiples of ``2u`` so that a tie
    rounds to even on both sides of a move.  The top keeps a margin of
    ``2^13 u`` for the few ulps a discarded intermediate may round
    above the largest kept time.
    """
    lo = min(filter(None, a))
    mant, e = frexp(lo)
    if not (mant > 0.5 and e > 0):
        return None
    grid = ldexp(1.0, e - 52)
    if delta % grid or move % grid:
        return None
    top = ldexp(1.0, e)
    limit = top - ldexp(1.0, e - 40)
    hi = max(c)
    n = int((limit - hi) // delta)
    if hi + n * delta >= limit:
        n -= 1
    return n, int((top - lo) // delta) + 1


def _probe(snapshots: list, stalls: list, ff, n_costs: int, left: int,
           least: int, ref):
    """A jump ``(n, h, delta, terms, ref)`` for a body at the last of
    its rep-boundary ``snapshots``: skip ``n`` hyper-periods of ``h``
    reps by moving every time by ``n * delta`` and adding the stall
    ``terms`` of one hyper-period ``n`` times.  Else the reps to run
    before probing again when only the binade stood in the way, or None.

    A snapshot is ``(times, k, len(stalls))``.  Each ``h`` whose last
    hyper-period was a translation allows as many hyper-periods as the
    ``left`` reps of the call, the binade (:func:`_room`) and the
    repetition of the scalar costs (``ff``) do, if that is at least
    ``least`` reps or the rest of the call; the ``h`` that skips the
    most reps wins, the shortest on a tie.  A translation the binade
    cut short gives the reps until its oldest snapshot's smallest time
    is past the binade's top.

    ``ref`` is the last hyper-period of the previous jump, ``(times, k,
    h, delta, terms)``: the run from those times with the costs from
    ``k`` moves them by ``delta``.  When no ``h`` allows a jump but the
    last snapshot is those times moved in one binade, and the costs
    ahead repeat ``ref``'s, the jump goes by ``ref`` — typically one
    rep after a cost that broke the last jump.
    """
    best = None
    wait = None
    c, kc, s1 = snapshots[-1]
    for h in _HYPER:
        if h >= len(snapshots) or h > left:
            break
        a, k, s0 = snapshots[-1 - h]
        delta = _shift(a, c)
        room = delta and _room(a, c, delta, delta)
        if not room:
            continue
        n, m = room
        most = left // h
        if n_costs:
            most = min(most, ff.cost_periods(k, h * n_costs))
        if n >= most:
            n = most
        elif n * h < least:  # too close to the binade's top
            hint = max(1, (m - 1) * h)
            wait = hint if wait is None else min(wait, hint)
            continue
        if (n * h >= least or n == left // h) and n > 0 and (
                best is None or n * h > best[0] * best[1]):
            best = n, h, delta, k, stalls[s0:s1]
    if best is None and ref is not None and ref[2] <= left:
        a, k, h, delta, terms = ref
        move = _shift(a, c)
        room = move and _room(a, c, delta, move)
        if room:
            n = min(room[0], left // h)
            if n_costs:
                n = min(n, ff.cost_repeats(kc, h * n_costs, k))
            if n * h >= least or n == left // h > 0:
                best = n, h, delta, kc - h * n_costs, terms
    if best is None:
        return wait
    n, h, delta, k, terms = best
    move = (n - 1) * delta
    return n, h, delta, terms, (
        tuple([x + move if x else x for x in c]),
        k + n * h * n_costs, h, delta, terms)


def _repeat(acc: float, terms, n: int) -> float:
    """``acc`` plus ``n`` rounds of ``terms``, one addition at a time in
    order, as the skipped rows would have added them."""
    for _ in range(n):
        for x in terms:
            acc += x
    return acc


def _shift_ring(ring: list, at: int, ops: int, delta: float,
                depth: int) -> int:
    """Move the nonzero end times of a unit's ring by ``delta`` and its
    write index ``at`` on by ``ops`` issues, keeping the order of the
    queue; returns the new index."""
    fifo = [x + delta if x else x for x in ring[at:] + ring[:at]]
    at = (at + ops) % depth
    ring[:] = fifo[depth - at:] + fifo[:depth - at]
    return at


def _compiled(structure: tuple, stored: bytes | None = None) -> tuple:
    """``(body function, code)`` of ``structure``, cached per process.

    A miss takes the code from ``stored`` (code a plan section holds)
    when given, and otherwise compiles :func:`_source` and marshals the
    result once, so every section that stores the structure shares the
    bytes."""
    found = _FUNCTIONS.get(structure)
    if found is None:
        if stored is None:
            code = compile(_source(structure), "<superblock>", "exec")
            stored = zlib.compress(marshal.dumps(code))
        else:
            code = marshal.loads(zlib.decompress(stored))
        namespace = {"_fields": itemgetter, "_start": _start,
                     "_probe": _probe, "_repeat": _repeat,
                     "_shift_ring": _shift_ring}
        exec(code, namespace)
        found = namespace["_body"], stored
        if len(_FUNCTIONS) >= _MAX_FUNCTIONS:
            del _FUNCTIONS[next(iter(_FUNCTIONS))]
        _FUNCTIONS[structure] = found
    return found


def bodies(plan) -> tuple:
    """``((structure, class ids, slot ids), ...)`` of ``plan``'s
    superblocks in row order (:func:`_structure`), memoized on the plan;
    a plan loaded from the disk tier brings them along."""
    found = plan._bodies
    if found is None:
        found = plan._bodies = tuple(
            _structure(plan.classes, plan.row_class, plan.seg_end, start,
                       period)
            for start, period, _ in plan.superblocks)
    return found


def code(plan) -> tuple:
    """The code of each of ``plan``'s superblock bodies, in the order of
    :func:`bodies`, as this process compiled or loaded it once per
    structure (:func:`_compiled`)."""
    return tuple(_compiled(structure)[1] for structure, _, _ in bodies(plan))


def segments(plan) -> tuple:
    """``((gap start, gap stop, block), ...)`` covering ``plan``'s issue
    rows in order, memoized on the plan: rows ``gap start .. gap stop -
    1`` run through the generic loop, then ``block`` — ``(function,
    reps, class ids, slot ids)`` or ``None`` after the last gap.

    On a plan loaded with its code (``plan._code``, ``(code per body,
    tally)``), a function missing from :data:`_FUNCTIONS` is loaded
    from its body's code, and ``tally`` is called with the number of
    bodies loaded; the plan lets the code go either way."""
    segs = plan._segments
    if segs is None:
        stored, tally = plan._code or ((), None)
        plan._code = None
        loads = 0
        segs = []
        at = 0
        for i, ((start, period, reps), (structure, cids, slots)) in \
                enumerate(zip(plan.superblocks, bodies(plan))):
            load = (stored[i] if stored and structure not in _FUNCTIONS
                    else None)
            loads += load is not None
            segs.append((at, start, (_compiled(structure, load)[0], reps,
                                     cids, slots)))
            at = start + period * reps
        segs.append((at, len(plan.row_class), None))
        segs = plan._segments = tuple(segs)
        if loads and tally is not None:
            tally(loads)
    return segs
