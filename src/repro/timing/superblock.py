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
  still added one at a time, in stream order.  Functions are compiled
  once per process and cached under their structure
  (:data:`_FUNCTIONS`).  The structures themselves (:func:`bodies`) are
  part of a plan, so the disk tier stores them with it.

**Exactness.**  A generated row performs the arithmetic of the generic
loop's row — the same IEEE-754 operations on the same operands in the
same order (``t0 + lat + rinv`` stays ``(t0 + lat) + rinv``); only
comparisons are rearranged, and those are exact.  The structural flags
it resolves are the very tests the generic loop makes per row, and
they are constant within a class.  State leaves the locals through the
same lists the generic loop uses, so gaps and superblocks interleave
freely.  :meth:`~repro.timing.engine.TimingEngine.replay_reference`
stays the oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MIN_REPS", "MIN_ROWS", "bodies", "scan", "segments"]

#: Plans with fewer issue rows are not scanned (fuzz plans have ~60).
MIN_ROWS = 512

#: A superblock holds at least this many whole periods.
MIN_REPS = 4

#: Longest body period considered; bounds the generated code's size.
MAX_PERIOD = 1024

#: Structure -> compiled body function, per process.
_FUNCTIONS: dict = {}

#: Most structures :data:`_FUNCTIONS` keeps (oldest dropped first).
_MAX_FUNCTIONS = 256

#: Periods with more scalar events add them in a loop per row instead
#: of unpacking one local per event.
_MAX_UNPACKED = 1024

#: Table-entry indices of the float constants a generated body binds.
_FIELDS = {"L1": 8, "NM1": 9, "CM1": 10, "CNF": 11, "LAT": 12,
           "RINV": 13, "Q1": 14, "BUSY": 15, "TAIL": 16}


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
    ita, srl)`` replays ``reps`` periods from scalar index ``k`` with
    the scalar clock ``t``, the next vector issue time ``nv`` and the
    issue-stall sum ``st``, and returns the four updated.
    """
    rows, shapes = structure
    lines: list[str] = []

    def out(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    out(0, "def _body(reps, k, t, nv, st, costs, table, cids, slots, "
           "first, last, write_end, read_end, rings, uready, ubusy, uops, "
           "depth, vsc, gap, ita, srl):")
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
        out(1, f"e = table[cids[{j}]]")
        for name in names:
            out(1, f"{name}_{j} = e[{_FIELDS[name]}]")
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
    for _, j in rows:
        if j >= 0:
            per_rep[shapes[j][0]] += 1
    for u in units:
        out(1, f"R{u} = uready[{u}]; B{u} = ubusy[{u}]; Q{u} = rings[{u}]; "
               f"I{u} = uops[{u}] % depth")
    # -- the body --------------------------------------------------------
    n_costs = sum(count for count, _ in rows)
    unpacked = n_costs <= _MAX_UNPACKED
    out(1, "for _ in range(reps):")
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
    out(1, "return k, t, nv, st")
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
    out(2, "st += ta - tr")
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


def _function(structure: tuple):
    """The compiled body function of ``structure``, cached per process."""
    fn = _FUNCTIONS.get(structure)
    if fn is None:
        namespace: dict = {}
        exec(compile(_source(structure), "<superblock>", "exec"),
             namespace)
        fn = namespace["_body"]
        if len(_FUNCTIONS) >= _MAX_FUNCTIONS:
            del _FUNCTIONS[next(iter(_FUNCTIONS))]
        _FUNCTIONS[structure] = fn
    return fn


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


def segments(plan) -> tuple:
    """``((gap start, gap stop, block), ...)`` covering ``plan``'s issue
    rows in order, memoized on the plan: rows ``gap start .. gap stop -
    1`` run through the generic loop, then ``block`` — ``(function,
    reps, class ids, slot ids)`` or ``None`` after the last gap."""
    segs = plan._segments
    if segs is None:
        segs = []
        at = 0
        for (start, period, reps), (structure, cids, slots) in zip(
                plan.superblocks, bodies(plan)):
            segs.append((at, start, (_function(structure), reps, cids,
                                     slots)))
            at = start + period * reps
        segs.append((at, len(plan.row_class), None))
        segs = plan._segments = tuple(segs)
    return segs
