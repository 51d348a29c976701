"""Compiled replay plans: decode a trace once, replay it by row class.

The reference replay loop (:meth:`repro.timing.engine.TimingEngine
.replay_reference`) dispatches per event object: every event pays
attribute loads, a memoized decode lookup, stream-object construction
and several function calls.  That cost is replay-invariant — none of it
depends on the machine model — so this module hoists it into a
:class:`ReplayPlan` built once per trace (cached on the trace's
``_plan`` slot) and shared across every machine the trace is replayed
against.

Compilation runs over the trace columns
(:mod:`repro.functional.trace_pack`), never over event objects: a
:class:`~repro.functional.trace_pack.PackedTrace` — a capture, whose
columns the functional executor wrote, or a disk blob — hands over its
columns as they are.  From there:

* **row classes** — one issue row per issued instruction (vsetvl or
  vector).  Column rows that agree on every field replay reads — the
  decode key ``(instr, vl, sew, lmul)``, the memory fields (pattern,
  element width, flags, unit-stride misalignment), the MASK element
  count and the slide amount — form one *row class*, numbered in
  first-occurrence order (class 0 holds the vsetvl rows).  The plan
  keeps only a class id per row plus a small per-class table; a warm
  paper sweep has ~910k issue rows in ~5.3k classes;
* **one decode per class** — the decode depends only on the static
  instruction plus ``(vl, sew, lmul)``, so each class takes it from its
  first row through the per-instruction memos of
  :meth:`TimingEngine._event_info` (building that row's event only
  when the memos miss).  That reuses the ``_tinfo_by_cfg`` memo —
  including its first-event ``mem`` byte accounting — so the plan can
  never drift from the reference decode.  The class's dynamic fields
  (MASK count, memory-key and slide-key indices, misalignment) come
  from the same first row;
* **scoreboard slots** — registers that every register group of the
  plan touches together are always in the same scoreboard state, so
  each such set shares one slot: a uniform LMUL=4 kernel pays one
  scoreboard visit per group, not four.  Each class lists the slots of
  its single-slot source groups apart from its multi-slot groups, one
  deduplicated read-slot tuple, and the count-only stream-algebra
  constants as floats;
* **machine columns** — for a given machine model the per-class rates,
  latencies and the stream-algebra constants of
  :func:`repro.timing.stream.batch_stream_params` are produced by a
  handful of vectorized array operations instead of per-event Python —
  each element is the *same single* IEEE-754 operation the reference
  performs, so replay output is bit-identical;
* **scalar costs** — one batch walk over the flat ``s_kind``/``s_addr``
  columns (:meth:`~repro.timing.frontend.ScalarFrontend.cost_many`:
  one kind-table lookup, and one sort-based pass of the stateful D$
  over the loads and stores) gives a flat per-event cost array,
  memoized per ``(scalar config, L2 latency)``, which all machines
  sharing a frontend configuration reuse.  It is never cut into
  per-segment objects: each issue row carries the cumulative scalar
  index its segment ends at (``seg_end``), and the row loop adds the
  flat costs up to it;
* **superblocks** — one numpy pass of :func:`repro.timing.superblock
  .scan` over ``row_class`` and the per-row scalar counts finds the
  runs of four or more equal periods (``superblocks``: ``(first row,
  period, reps)``); plans below :data:`~repro.timing.superblock
  .MIN_ROWS` rows skip it.  Their bodies replay through generated
  straight-line functions, bound on first replay;
* **per-machine class table** — the per-machine step joins each
  class's static fields with its machine columns into one tuple per
  class; :meth:`~repro.timing.engine.TimingEngine.replay` runs the rows
  between superblocks by zipping ``seg_end`` with ``row_class`` and
  unpacking ``table[class]`` for every row outside the vsetvl class 0,
  and hands the table to each superblock's generated function;
* **report memo** — replay is a pure function of (trace, model), so the
  per-machine bundle remembers the finished
  :class:`~repro.timing.report.TimingReport` and lets its table go;
  replay-many of one trace against one model is a dict hit plus a
  defensive copy.
"""

from __future__ import annotations

import numpy as np

from ..errors import TimingError
from ..functional.trace import MemAccess, VectorEvent
from ..functional.trace_pack import (PATTERNS, TAG_SCALAR, TAG_VECTOR,
                                     PackedTrace)
from ..isa.instructions import MemPattern
from . import superblock
from .frontend import ScalarFrontend
from .stream import batch_stream_params

__all__ = ["CLASS_FIELDS", "ReplayPlan"]

#: Row kinds in the fused issue stream.
ROW_VSETVL, ROW_VECTOR, ROW_REDUCTION = 0, 1, 2

#: Fields of a vector class's entry in :attr:`ReplayPlan.classes`, in
#: order: unit id, is reduction, slots of the single-slot source groups,
#: the multi-slot source groups (slot tuples), the distinct source
#: slots, dest slots, dest is scalar, element count ``cn``, then the
#: float constants ``min(cn, n) - 1`` (0.0 unless ``n > 1``), ``n - 1``,
#: ``cn - 1`` and ``cn``.
CLASS_FIELDS = ("unit", "reduction", "ones", "multi", "reads", "dest",
                "dest_scalar", "cn", "last1", "nm1", "cm1", "cn_f")

#: SEW -> index into the per-machine (8, 16, 32, 64) rate vectors.
_SEW_CODE = {8: 0, 16: 1, 32: 2, 64: 3}
_SEWS = (8, 16, 32, 64)

#: On-disk pattern codes the row-class key tests.
_UNIT_CODE = PATTERNS.index(MemPattern.UNIT)
_MASK_CODE = PATTERNS.index(MemPattern.MASK)

#: Decode-table entry of the vsetvl class (class 0): ``(row kind, unit,
#: n, source group ids, dest group id or -1, dest scalar, category,
#: SEW code, throughput, is FPU, mask-logical, flops, bytes read, bytes
#: written)``.
_VSETVL_ENTRY = (ROW_VSETVL, 0, 1, (), -1, False, -1, 0, 1.0, False,
                 False, 0.0, 0.0, 0.0)

#: Vector-event columns a class's first row is read from.
_REP_COLUMNS = ("v_instr", "v_vl", "v_sew", "v_lmul", "v_slide", "v_flags",
                "m_base", "m_stride", "m_count", "m_ew", "m_pattern")


def _group(base: int, emul: int) -> int:
    """Register group -> id ``first << 5 | last`` of its member range."""
    return base << 5 | (min(32, base + emul) - 1 if emul > 1 else base)


def _slot_layout(table: list) -> tuple[dict, int]:
    """Scoreboard slots of the register groups of a plan's decode table.

    Registers that belong to exactly the same register groups of the
    plan are read and written together by every row, so they always hold
    the same scoreboard state and share one slot.  Distinct register
    groups then map to distinct slot sets, so an entry's deduplicated
    source groups stay deduplicated.  Returns ``({group id: slot
    tuple}, slot count)``.
    """
    groups: set = set()
    for entry in table:
        groups.update(entry[3])
        if entry[4] >= 0:
            groups.add(entry[4])
    # Bit i of ``member`` at register r says whether group i holds r:
    # each group toggles its bit on at its first register and off past
    # its last, and a running XOR over the registers accumulates them.
    toggles = [0] * 33
    bit = 1
    for g in groups:
        toggles[g >> 5] ^= bit
        toggles[(g & 31) + 1] ^= bit
        bit <<= 1
    slot_ids: dict = {}
    reg_slot = []
    member = 0
    for toggle in toggles[:32]:
        member ^= toggle
        reg_slot.append(slot_ids.setdefault(member, len(slot_ids))
                        if member else -1)
    return ({g: (reg_slot[g >> 5],) if g >> 5 == g & 31
             else tuple(dict.fromkeys(reg_slot[g >> 5:(g & 31) + 1]))
             for g in groups}, len(slot_ids))


def _source_slots(sources: tuple, group_slots: dict) -> tuple:
    """``(slots of the single-slot groups, the multi-slot groups, the
    distinct slots read)`` of one entry's source groups."""
    ones = []
    multi = []
    reads: tuple = ()
    for g in sources:
        slots = group_slots[g]
        reads += slots
        if len(slots) == 1:
            ones.append(slots[0])
        else:
            multi.append(slots)
    if multi:  # overlapping groups can share slots
        reads = tuple(dict.fromkeys(reads))
    return tuple(ones), tuple(multi), reads


def _cached_entry(instr, cfg_key: tuple):
    """The decode-table entry of any event of ``instr`` at ``cfg_key``
    when the instruction's memos already hold it, else ``None`` (an
    event's cached decode is always its instruction's memo entry)."""
    memos = instr.__dict__
    hit = memos.get("_tentry_by_cfg", {}).get(cfg_key)
    # An unpickled instruction can hold a table-entry memo without the
    # decode memo it was checked against: that is a miss, not an error.
    if hit is not None and hit[0] is memos.get("_tinfo_by_cfg",
                                               {}).get(cfg_key):
        return hit[1]
    return None


def _first_groups(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the (non-empty) key columns, numbered in order
    of first occurrence: ``(first row of each group, group id per
    row)``."""
    order = np.lexsort(keys[::-1])  # stable: ties keep row order
    new = np.ones(order.size, dtype=bool)
    for key in keys:
        ks = key[order]
        new[1:] &= ks[1:] == ks[:-1]
    np.logical_not(new[1:], out=new[1:])
    starts = order[new]
    rank = np.argsort(starts)
    remap = np.empty_like(rank)
    remap[rank] = np.arange(rank.size)
    inv = np.empty(order.size, dtype=np.int64)
    inv[order] = remap[np.cumsum(new) - 1]
    return starts[rank], inv


class _MachineRows:
    """Per-(plan, machine) class table plus the replay-report memo.

    ``seg_costs`` is the flat per-scalar-event cost list (cut by the
    plan's ``seg_end``); ``table`` holds one entry per row class,
    indexed by the plan's ``row_class``: the class's
    :data:`CLASS_FIELDS` (none for the vsetvl class 0) followed by its
    machine fields ``(lat, 1/rate, (cn-1)/rate, busy, reduction
    tail)``.
    :meth:`finish` memoizes the report and drops both lists, which are
    never read again.
    """

    __slots__ = ("seg_costs", "table", "dcache_hits", "dcache_misses",
                 "report")

    def __init__(self, seg_costs: list, table: list,
                 dcache_hits: int, dcache_misses: int) -> None:
        self.seg_costs = seg_costs
        self.table = table
        self.dcache_hits = dcache_hits
        self.dcache_misses = dcache_misses
        self.report = None

    def finish(self, report) -> None:
        """Remember ``report``; the cost list and table are done with."""
        self.report = report
        self.seg_costs = self.table = None


class ReplayPlan:
    """Machine-independent compilation of one dynamic trace.

    ``row_class`` holds each issue row's class id; ``classes`` one
    :data:`CLASS_FIELDS` tuple per class (empty for the vsetvl class
    0), whose scoreboard slots run ``0 .. n_slots - 1``;
    ``superblocks`` the ``(first row, period, reps)`` periodic runs of
    :func:`repro.timing.superblock.scan`.
    """

    __slots__ = ("scalar_count", "vector_count", "total_flops",
                 "bytes_read", "bytes_written", "first_vec_unit",
                 "kind_vocab", "scalar_kind", "scalar_addr", "seg_end",
                 "row_class", "classes", "n_slots", "mem_keys",
                 "slide_pairs", "superblocks", "_segments",
                 "_cnt_f", "_sew_code", "_thr", "_is_fpu", "_mlog",
                 "_mem_ix", "_align", "_is_store", "_slide_ix",
                 "_ix_mem", "_ix_red", "_ix_slide", "_ix_masku",
                 "_ix_arith", "_cost_memo", "_machine_memo")

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: PackedTrace) -> "ReplayPlan":
        """Compile ``trace`` into a plan, straight from its columns."""
        cols = trace.columns
        instructions = trace.program.instructions
        # Deferred import: engine.py imports this module at load time.
        from .engine import _UNIT_NAMES, TimingEngine
        unit_index = {name: uix for uix, name in enumerate(_UNIT_NAMES)}
        cat_mem = TimingEngine._CAT_MEM
        cat_red = TimingEngine._CAT_RED
        cat_slide = TimingEngine._CAT_SLIDE
        cat_masku = TimingEngine._CAT_MASKU
        cat_arith = TimingEngine._CAT_ARITH
        event_info = TimingEngine._event_info

        def decode(event) -> tuple:
            info = event.__dict__.get("_tinfo") or event_info(event)
            # The table entry is a function of the decode and SEW only;
            # memoize it beside the instruction's decode memo, checked
            # against the very decode tuple it was derived from.
            sew = event.sew
            cfg_key = (event.vl, sew, event.lmul)
            memo = event.instr.__dict__.setdefault("_tentry_by_cfg", {})
            hit = memo.get(cfg_key)
            if hit is not None and hit[0] is info:
                return hit[1]
            (unit_name, n, sources, dest, dest_scalar, cat, extra,
             flops, mem_info) = info
            kind = ROW_VECTOR
            th = 1.0
            fp = ml = False
            if cat == cat_mem:
                sc = _SEW_CODE.get(sew, 0)  # rate is SEW-independent
            elif cat == cat_red:
                kind = ROW_REDUCTION
                sc = _SEW_CODE[sew]
            elif cat == cat_slide:
                sc = _SEW_CODE[sew]
                th = extra
            elif cat == cat_masku:
                ml = bool(extra)
                # Mask-logical ops run at the bit rate, never indexing
                # the per-SEW tables (mirrors the reference branch).
                sc = _SEW_CODE.get(sew, 0) if ml else _SEW_CODE[sew]
            else:
                th, fp = extra
                sc = _SEW_CODE[sew]
            rd = wr = 0.0
            if mem_info is not None:
                if mem_info[0]:
                    wr = mem_info[1]
                else:
                    rd = mem_info[1]
            entry = (kind, unit_index[unit_name], n,
                     tuple(dict.fromkeys(_group(b, e) for b, e in sources)),
                     _group(*dest) if dest is not None else -1,
                     dest_scalar, cat, sc, th, fp, ml, flops, rd, wr)
            memo[cfg_key] = (info, entry)
            return entry

        tags = cols["tags"]
        # -- issue rows and where their scalar segments end -------------
        row_pos = np.flatnonzero(tags != TAG_SCALAR)
        n_rows = row_pos.size
        row_tags = tags[row_pos]
        vrow = np.flatnonzero(row_tags == TAG_VECTOR)

        # -- row classes: one decode-table entry per class ---------------
        # Column rows fall in one class when they agree on every field
        # replay reads: the decode key (instr, vl, sew, lmul), the
        # memory fields (pattern, element width, flags, unit-stride
        # misalignment), the MASK element count and the slide amount.
        # Class 0 holds every vsetvl row.
        table = [_VSETVL_ENTRY]
        row_class = np.zeros(n_rows, dtype=np.int64)
        first = np.zeros(0, dtype=np.int64)
        if vrow.size:
            pattern = cols["m_pattern"]
            # From the u1 columns and the i4 instruction index: the
            # memory bits start at bit 47 and end below bit 61.
            mem_bits = ((pattern.astype(np.int64) << 8 | cols["m_ew"]) << 3
                        | (cols["v_flags"] & 3).astype(np.int64) << 1
                        | ((pattern == _UNIT_CODE)
                           & (cols["m_base"] % 64 != 0)))
            keys = [cols["v_instr"].astype(np.int64) << 16
                    | cols["v_sew"].astype(np.int64) << 8 | cols["v_lmul"]
                    | mem_bits << 47, cols["v_vl"]]
            mask = pattern == _MASK_CODE
            if mask.any():
                keys.append(np.where(mask, cols["m_count"], 0))
            if cols["v_slide"].any():
                keys.append(cols["v_slide"])
            first, inv = _first_groups(*keys)
            row_class[vrow] = inv + 1
        n_classes = 1 + first.size
        mask_count: dict = {}
        mem_ix = [0] * n_classes
        align = [0.0] * n_classes
        is_store = [False] * n_classes
        slide_ix = [0] * n_classes
        mem_keys: dict = {}
        slide_pairs: dict = {}

        # -- one decode per class, from its first row -------------------
        # (class order is first-occurrence order, so the first offending
        # class is the first offending row)
        for c, (ii, vl, sew, lmul, slide, flags, base, stride, count, ew,
                pat) in enumerate(zip(*(cols[name][first].tolist()
                                        for name in _REP_COLUMNS)), 1):
            instr = instructions[ii]
            entry = _cached_entry(instr, (vl, sew, lmul))
            if entry is None:
                entry = decode(VectorEvent(
                    instr, vl, sew, lmul, MemAccess(
                        base=base, stride=stride, count=count, ew_bytes=ew,
                        pattern=PATTERNS[pat], is_store=(flags & 2) != 0)
                    if flags & 1 else None, slide))
            table.append(entry)
            if entry[6] == cat_mem:
                # Memory keys are numbered in class order, which is the
                # order of first occurrence.
                if not flags & 1:
                    raise TimingError(f"memory op {instr} lacks a MemAccess")
                pattern = PATTERNS[pat]
                if pattern is MemPattern.MASK:
                    mask_count[c] = count
                store = (flags & 2) != 0
                mem_ix[c] = mem_keys.setdefault((pattern, ew, store),
                                                len(mem_keys))
                if pattern is MemPattern.UNIT and base % 64:
                    align[c] = 1.0
                is_store[c] = store
            elif entry[6] == cat_slide:
                slide_ix[c] = slide_pairs.setdefault((slide, vl),
                                                     len(slide_pairs))
        (t_kind, t_unit, t_n, t_srcs, t_dest, t_dscal, t_cat, t_sewc,
         t_thr, t_fpu, t_mlog, t_flops, t_rd, t_wr) = zip(*table)
        cn = list(t_n)
        for c, count in mask_count.items():
            cn[c] = count

        # -- the row loop's static fields, per class -------------------
        group_slots, n_slots = _slot_layout(table)
        by_sources: dict = {}
        classes = [()]
        for entry, c in zip(table[1:], cn[1:]):
            sources = by_sources.get(entry[3])
            if sources is None:
                sources = by_sources[entry[3]] = _source_slots(entry[3],
                                                               group_slots)
            n = entry[2]
            # The row loop's stream algebra mixes these counts into
            # float arithmetic; converting here is the same conversion
            # its int/float operands would get.
            classes.append((
                entry[1], entry[0] == ROW_REDUCTION, *sources,
                group_slots[entry[4]] if entry[4] >= 0 else (), entry[5],
                c, float((c if c < n else n) - 1) if n > 1 else 0.0,
                float(n - 1), float(c - 1), float(c)))

        # -- counters: running sums in event order (np.sum is pairwise,
        # so its last bits would differ from the reference loop's +=) --
        vc = row_class[row_class > 0]
        sums = (np.add.accumulate(
            np.array((t_flops, t_rd, t_wr), dtype=np.float64)[:, vc],
            axis=1)[:, -1].tolist() if vc.size else [0.0, 0.0, 0.0])
        plan = cls.__new__(cls)
        plan.vector_count = vc.size
        plan.scalar_count = tags.size - vc.size
        plan.total_flops, plan.bytes_read, plan.bytes_written = sums
        plan.first_vec_unit = t_unit[vc[0]] if vc.size else None
        plan.kind_vocab = trace.kinds
        plan.scalar_kind = cols["s_kind"]
        # -1 marks "no address"; the D$ model reads a missing one as 0.
        plan.scalar_addr = np.maximum(cols["s_addr"], 0)
        seg_end = row_pos - np.arange(n_rows)
        plan.superblocks = superblock.scan(row_class, seg_end)
        plan._segments = None
        plan.seg_end = seg_end.tolist()
        plan.row_class = row_class.tolist()
        plan.classes = classes
        plan.n_slots = n_slots
        plan.mem_keys = tuple(mem_keys)
        plan.slide_pairs = tuple(slide_pairs)
        (plan._sew_code, plan._mem_ix, plan._slide_ix, cats) = np.array(
            (t_sewc, mem_ix, slide_ix, t_cat), dtype=np.int64)
        plan._cnt_f, plan._thr, plan._align = np.array(
            (cn, t_thr, align), dtype=np.float64)
        plan._is_fpu, plan._mlog, plan._is_store = np.array(
            (t_fpu, t_mlog, is_store), dtype=bool)
        plan._ix_mem = np.flatnonzero(cats == cat_mem)
        plan._ix_red = np.flatnonzero(cats == cat_red)
        plan._ix_slide = np.flatnonzero(cats == cat_slide)
        plan._ix_masku = np.flatnonzero(cats == cat_masku)
        plan._ix_arith = np.flatnonzero(cats == cat_arith)
        plan._cost_memo = {}
        plan._machine_memo = {}
        return plan

    # ------------------------------------------------------------------
    def scalar_costs(self, scalar_cfg, l2_latency) -> tuple:
        """Per-event scalar costs for one frontend configuration.

        One :meth:`ScalarFrontend.cost_many` walk over the flat scalar
        kind/address columns in original order through a fresh
        frontend (so the D$ starts cold, as in the reference loop).
        The result — ``(float64 cost array, dcache hits, dcache
        misses)`` — is memoized: every machine model sharing the scalar
        config reuses the walk.
        """
        key = (scalar_cfg, l2_latency)
        hit = self._cost_memo.get(key)
        if hit is None:
            frontend = ScalarFrontend(scalar_cfg, l2_latency)
            costs = frontend.cost_many(self.scalar_kind, self.kind_vocab,
                                       self.scalar_addr)
            hit = (costs, frontend.dcache.hits, frontend.dcache.misses)
            self._cost_memo[key] = hit
        return hit

    # ------------------------------------------------------------------
    def _columns_for(self, model):
        """Vectorized per-class machine fields, one ``(latency, 1/rate,
        (cn-1)/rate, busy cycles, reduction tail)`` tuple per class."""
        n_classes = len(self.classes)
        rate = np.ones(n_classes, dtype=np.float64)
        lat = np.zeros(n_classes, dtype=np.float64)
        tail = np.zeros(n_classes, dtype=np.float64)
        vfu = None
        ix = self._ix_arith
        if ix.size:
            vfu = np.asarray([model.vfu_rate(s) for s in _SEWS])
            rate[ix] = vfu[self._sew_code[ix]] * self._thr[ix]
            lat[ix] = np.where(self._is_fpu[ix], model.fpu_latency,
                               model.valu_latency)
        ix = self._ix_red
        if ix.size:
            if vfu is None:
                vfu = np.asarray([model.vfu_rate(s) for s in _SEWS])
            sc = self._sew_code[ix]
            rate[ix] = vfu[sc]
            codes = sc.tolist()
            tail_of = {c: model.reduction_tail_cycles(_SEWS[c])
                       for c in dict.fromkeys(codes)}
            tail[ix] = [tail_of[c] for c in codes]
        ix = self._ix_slide
        if ix.size:
            sldu = np.asarray([model.sldu_rate(s) for s in _SEWS])
            rate[ix] = sldu[self._sew_code[ix]] * self._thr[ix]
            slide_lat = np.asarray(
                [model.slide_extra_cycles(amount, vl)
                 for amount, vl in self.slide_pairs], dtype=np.float64)
            lat[ix] = slide_lat[self._slide_ix[ix]]
        ix = self._ix_masku
        if ix.size:
            if vfu is None:
                vfu = np.asarray([model.vfu_rate(s) for s in _SEWS])
            rate[ix] = np.where(self._mlog[ix], model.masku_bit_rate(),
                                vfu[self._sew_code[ix]])
            lat[ix] = model.masku_latency
        ix = self._ix_mem
        if ix.size:
            mem_rate = np.asarray(
                [model.mem_rate(pattern, max(1, ew), store)
                 for pattern, ew, store in self.mem_keys],
                dtype=np.float64)
            rate[ix] = mem_rate[self._mem_ix[ix]]
            lat[ix] = np.where(self._is_store[ix],
                               model.store_pipe_latency,
                               model.load_first_data_latency) \
                + self._align[ix]
        q1, rinv, busy = batch_stream_params(self._cnt_f, rate)
        return zip(lat.tolist(), rinv.tolist(), q1.tolist(), busy.tolist(),
                   tail.tolist())

    # ------------------------------------------------------------------
    def machine_rows(self, model) -> _MachineRows:
        """Per-machine class table and report memo (memoized per model
        identity); nothing per row."""
        cfg = model.config
        key = None
        bundle = None
        try:
            key = (type(model).__name__, model.name, cfg)
            bundle = self._machine_memo.get(key)
        except TypeError:
            key = None  # unhashable custom config: rebuild per replay
        if bundle is None:
            costs, dcache_hits, dcache_misses = self.scalar_costs(
                cfg.scalar, cfg.memory.l2_latency_cycles)
            table = list(map(tuple.__add__, self.classes,
                             self._columns_for(model)))
            bundle = _MachineRows(costs.tolist(), table, dcache_hits,
                                  dcache_misses)
            if key is not None:
                self._machine_memo[key] = bundle
        return bundle
