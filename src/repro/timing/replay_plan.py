"""Compiled replay plans: decode a trace once, replay it as columns.

The reference replay loop (:meth:`repro.timing.engine.TimingEngine
.replay_reference`) dispatches per event object: every event pays
attribute loads, a memoized decode lookup, stream-object construction
and several function calls.  That cost is replay-invariant — none of it
depends on the machine model — so this module hoists it into a
:class:`ReplayPlan` built once per trace (cached on the trace's
``_plan`` slot) and shared across every machine the trace is replayed
against.

Compilation runs over the v6 trace columns
(:mod:`repro.functional.trace_pack`), never over event objects: a
:class:`~repro.functional.trace_pack.PackedTrace` hands over its
column views as they are, and an object trace is flattened by the same
:func:`~repro.functional.trace_pack.build_columns` pass the disk tier
packs with.  From there:

* **static decode table** — the decode depends only on the static
  instruction plus ``(vl, sew, lmul)``, so the vector rows are grouped
  by those four columns (first-occurrence order) and each group is
  decoded once, through :meth:`TimingEngine._event_info` on one
  representative event (the group's first row).  That reuses
  the per-instruction ``_tinfo_by_cfg`` memo — including its
  first-event ``mem`` byte accounting — so the plan can never drift
  from the reference decode;
* **gathered rows** — one row per issued instruction (vsetvl or
  vector): unit index, element counts and pre-resolved register-index
  tuples are gathered from the group table by each row's group id; the
  per-row dynamic fields (MASK element counts from ``m_count``,
  memory-key and slide-key indices, unit-stride misalignment, SEW
  codes) are numpy expressions over the columns;
* **machine columns** — for a given machine model the per-row rates,
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
* **column-zipped rows** — the per-machine step builds column lists
  only; :meth:`~repro.timing.engine.TimingEngine.replay` zips the
  plan's row columns with them inside its loop (the loop unpacks each
  zipped tuple at once, so CPython reuses it), never a list of row
  tuples;
* **report memo** — replay is a pure function of (trace, model), so the
  per-machine bundle remembers the finished
  :class:`~repro.timing.report.TimingReport` and lets its columns go;
  replay-many of one trace against one model is a dict hit plus a
  defensive copy.

Events the columns cannot hold (the pickled fallback map: out-of-range
fields, foreign event classes) take a small per-event path inside the
same compiler: each becomes a scalar entry, a vsetvl row or a vector
row with its own decode-table entry.
"""

from __future__ import annotations

import numpy as np

from ..errors import TimingError
from ..functional.trace import (DynamicTrace, MemAccess, ScalarEvent,
                                VectorEvent, VsetvlEvent)
from ..functional.trace_pack import (PATTERNS, TAG_FALLBACK, TAG_SCALAR,
                                     TAG_VECTOR, TAG_VSETVL, PackedTrace,
                                     build_columns)
from ..isa.instructions import MemPattern
from .frontend import ScalarFrontend
from .stream import batch_stream_params

__all__ = ["ReplayPlan"]

#: Row kinds in the fused issue stream.
ROW_VSETVL, ROW_VECTOR, ROW_REDUCTION = 0, 1, 2

#: SEW -> index into the per-machine (8, 16, 32, 64) rate vectors.
_SEW_CODE = {8: 0, 16: 1, 32: 2, 64: 3}
_SEWS = (8, 16, 32, 64)

#: On-disk pattern codes the per-row memory expressions test.
_UNIT_CODE = PATTERNS.index(MemPattern.UNIT)
_MASK_CODE = PATTERNS.index(MemPattern.MASK)

#: Decode-table entry of a vsetvl row (group 0): ``(row kind, unit,
#: n, sources, dest, dest scalar, category, SEW code, throughput,
#: is FPU, mask-logical, flops, bytes read, bytes written)``.
_VSETVL_ENTRY = (ROW_VSETVL, 0, 1, (), (), False, -1, 0, 1.0, False,
                 False, 0.0, 0.0, 0.0)

#: Vector-event columns, in :class:`VectorEvent`/:class:`MemAccess`
#: argument order, that rebuild a group's representative event.
_REP_COLUMNS = ("v_instr", "v_vl", "v_sew", "v_lmul", "v_slide", "v_flags",
                "m_base", "m_stride", "m_count", "m_ew", "m_pattern")


def _regs(base: int, emul: int) -> tuple:
    """Register group -> explicit member-index tuple (scoreboard order)."""
    return tuple(range(base, min(32, base + emul) if emul > 1 else base + 1))


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


def _splice(packed: np.ndarray, extra: list, is_extra: np.ndarray,
            dtype) -> np.ndarray:
    """Merge column values with fallback-event values by position."""
    out = np.empty(is_extra.size, dtype=dtype)
    out[~is_extra] = packed
    out[is_extra] = extra
    return out


def _merge_fallback(fallback: dict, tags: np.ndarray, vocab: list,
                    s_kind: np.ndarray, s_addr: np.ndarray) -> tuple:
    """Fold the fallback events into the column stream: retag scalar
    and vsetvl events, splice fallback scalars into the scalar columns
    (growing ``vocab``), and return the fallback vector events (which
    keep ``TAG_FALLBACK``) in stream order."""
    tags = tags.copy()
    scalars: dict = {}
    vectors: list = []
    for index in sorted(fallback):
        event = fallback[index]
        ecls = event.__class__
        if ecls is ScalarEvent:
            tags[index] = TAG_SCALAR
            scalars[index] = event
        elif ecls is VsetvlEvent:
            tags[index] = TAG_VSETVL
        elif ecls is VectorEvent:
            vectors.append(event)
        else:
            raise TimingError(f"unknown trace event {event!r}")
    if scalars:
        kid_of = {kind: kid for kid, kind in enumerate(vocab)}
        kids, addrs = [], []
        for event in scalars.values():
            kid = kid_of.setdefault(event.kind, len(vocab))
            if kid == len(vocab):
                vocab.append(event.kind)
            kids.append(kid)
            addrs.append(event.addr or 0)
        is_fb = np.isin(np.flatnonzero(tags == TAG_SCALAR), list(scalars))
        s_kind = _splice(s_kind, kids, is_fb, np.int64)
        s_addr = _splice(s_addr, addrs, is_fb, object)
    return tags, s_kind, s_addr, vectors


def _rep_events(cols: dict, instructions: tuple, rows: np.ndarray) -> list:
    """One :class:`VectorEvent` per vector row in ``rows``, rebuilt from
    the columns."""
    (instr, vl, sew, lmul, slide, flags, base, stride, count, ew,
     pattern) = (cols[name][rows].tolist() for name in _REP_COLUMNS)
    events = []
    for j, ii in enumerate(instr):
        mem = None
        if flags[j] & 1:
            mem = MemAccess(base=base[j], stride=stride[j], count=count[j],
                            ew_bytes=ew[j], pattern=PATTERNS[pattern[j]],
                            is_store=bool(flags[j] & 2))
        events.append(VectorEvent(instructions[ii], vl[j], sew[j], lmul[j],
                                  mem, slide[j]))
    return events


class _MachineRows:
    """Per-(plan, machine) columns plus the replay-report memo.

    ``seg_costs`` is the flat per-scalar-event cost list (cut by the
    plan's ``seg_end``); ``lat``/``rinv``/``q1``/``busy``/``tail`` hold
    one entry per issue row, parallel to the plan's ``row_*`` columns.
    :meth:`finish` memoizes the report and drops the columns, which are
    never read again.
    """

    __slots__ = ("seg_costs", "lat", "rinv", "q1", "busy", "tail",
                 "dcache_hits", "dcache_misses", "report")

    def __init__(self, seg_costs: list, columns: tuple,
                 dcache_hits: int, dcache_misses: int) -> None:
        self.seg_costs = seg_costs
        self.lat, self.rinv, self.q1, self.busy, self.tail = columns
        self.dcache_hits = dcache_hits
        self.dcache_misses = dcache_misses
        self.report = None

    def finish(self, report) -> None:
        """Remember ``report``; the per-row columns are done with."""
        self.report = report
        self.seg_costs = self.lat = self.rinv = self.q1 = None
        self.busy = self.tail = None


class ReplayPlan:
    """Machine-independent compilation of one dynamic trace."""

    __slots__ = ("n_events", "scalar_count", "vector_count", "total_flops",
                 "bytes_read", "bytes_written", "first_vec_unit",
                 "kind_vocab", "scalar_kind", "scalar_addr", "seg_end",
                 "row_kind", "row_unit", "row_cn", "row_n", "row_srcs",
                 "row_dest", "row_dscal", "mem_keys", "slide_pairs",
                 "_cnt_f", "_sew_code", "_thr", "_is_fpu", "_mlog",
                 "_mem_ix", "_align", "_is_store", "_slide_ix",
                 "_ix_mem", "_ix_red", "_ix_slide", "_ix_masku",
                 "_ix_arith", "_cost_memo", "_machine_memo")

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace) -> "ReplayPlan":
        """Compile ``trace`` — a :class:`PackedTrace` straight from its
        column views, any other event sequence through
        :func:`build_columns` — into a plan."""
        if isinstance(trace, PackedTrace):
            return cls._compile(trace.columns, trace.kinds, trace.fallback,
                                trace.program.instructions, None)
        events = trace.events if isinstance(trace, DynamicTrace) \
            else list(trace)
        cols, kinds, fallback, instructions = build_columns(events)
        return cls._compile(cols, kinds, fallback, instructions, events)

    @classmethod
    def _compile(cls, cols: dict, kinds: tuple, fallback: dict,
                 instructions: tuple, events) -> "ReplayPlan":
        """The column compiler.  ``events`` is the object form's event
        list (its vector events serve as their groups' representatives,
        keeping any decode already cached on them) or ``None``."""
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
                     tuple(_regs(b, e) for b, e in sources),
                     _regs(*dest) if dest is not None else (),
                     dest_scalar, cat, sc, th, fp, ml, flops, rd, wr)
            memo[cfg_key] = (info, entry)
            return entry

        tags = cols["tags"]
        n_events = tags.size
        vocab = list(kinds)
        s_kind = cols["s_kind"]
        # -1 marks "no address"; the D$ model reads a missing one as 0.
        s_addr = np.maximum(cols["s_addr"], 0)
        fb_vec: list = []
        if fallback:
            tags, s_kind, s_addr, fb_vec = _merge_fallback(
                fallback, tags, vocab, s_kind, s_addr)

        # -- issue rows and where their scalar segments end -------------
        row_pos = np.flatnonzero(tags != TAG_SCALAR)
        n_rows = row_pos.size
        row_tags = tags[row_pos]
        vrow = np.flatnonzero(row_tags == TAG_VECTOR)

        # -- static decode table: one entry per distinct group ---------
        table = [_VSETVL_ENTRY]
        rg = np.zeros(n_rows, dtype=np.int64)
        v_instr = cols["v_instr"]
        v_vl = cols["v_vl"]
        if vrow.size:
            first, inv = _first_groups(
                (v_instr.astype(np.int64) << 16)
                | (cols["v_sew"].astype(np.int64) << 8) | cols["v_lmul"],
                v_vl)
            if events is None:
                reps = _rep_events(cols, instructions, first)
            else:
                pos = np.flatnonzero(tags == TAG_VECTOR)[first].tolist()
                reps = [events[p] for p in pos]
            table.extend(decode(rep) for rep in reps)
            rg[vrow] = inv + 1
        if fb_vec:
            rg[row_tags == TAG_FALLBACK] = np.arange(
                len(table), len(table) + len(fb_vec))
            table.extend(decode(event) for event in fb_vec)
        (t_kind, t_unit, t_n, t_srcs, t_dest, t_dscal, t_cat, t_sewc,
         t_thr, t_fpu, t_mlog, t_flops, t_rd, t_wr) = zip(*table)
        n_groups = len(table)

        # -- gathers: one per table dtype --------------------------------
        ints = np.array((t_kind, t_unit, t_cat, t_sewc),
                        dtype=np.int64)[:, rg]
        bits = np.array((t_dscal, t_fpu, t_mlog), dtype=bool)[:, rg]
        floats = np.array((t_thr, t_flops, t_rd, t_wr), dtype=np.float64)
        cats = ints[2]
        # Fallback vectors may carry counts beyond i64: keep Python ints.
        n_col = np.array(t_n, dtype=object if fb_vec else np.int64)[rg]
        cn = n_col.copy()
        mem_ix = np.zeros(n_rows, dtype=np.int64)
        align = np.zeros(n_rows, dtype=np.float64)
        is_store = np.zeros(n_rows, dtype=bool)
        slide_ix = np.zeros(n_rows, dtype=np.int64)
        mem_keys: dict = {}
        slide_pairs: dict = {}

        # -- per-row dynamic fields of the column rows -----------------
        if vrow.size:
            cat_v = cats[vrow]
            ix = np.flatnonzero(cat_v == cat_mem)
            if ix.size:
                flags = cols["v_flags"][ix]
                bad = (flags & 1) == 0
                if bad.any():
                    k = int(ix[bad.argmax()])
                    raise TimingError(f"memory op {instructions[v_instr[k]]} "
                                      f"lacks a MemAccess")
                pattern = cols["m_pattern"][ix]
                ew = cols["m_ew"][ix]
                store = (flags & 2) != 0
                rows = vrow[ix]
                sel = pattern == _MASK_CODE
                cn[rows[sel]] = cols["m_count"][ix[sel]]
                kfirst, kinv = _first_groups(
                    pattern.astype(np.int64) * 512
                    + ew.astype(np.int64) * 2 + store)
                for p, e, st in zip(pattern[kfirst].tolist(),
                                    ew[kfirst].tolist(),
                                    store[kfirst].tolist()):
                    mem_keys[(PATTERNS[p], e, st)] = len(mem_keys)
                mem_ix[rows] = kinv
                align[rows[(pattern == _UNIT_CODE)
                           & (cols["m_base"][ix] % 64 != 0)]] = 1.0
                is_store[rows] = store
            ix = np.flatnonzero(cat_v == cat_slide)
            if ix.size:
                amount = cols["v_slide"][ix]
                vl = v_vl[ix]
                sfirst, sinv = _first_groups(amount, vl)
                for pair in zip(amount[sfirst].tolist(), vl[sfirst].tolist()):
                    slide_pairs[pair] = len(slide_pairs)
                slide_ix[vrow[ix]] = sinv

        # -- the same fields, per fallback vector event ----------------
        for r, g, event in zip(np.flatnonzero(row_tags == TAG_FALLBACK),
                               range(n_groups - len(fb_vec), n_groups),
                               fb_vec):
            if t_cat[g] == cat_mem:
                mem = event.mem
                if mem is None:
                    raise TimingError(
                        f"memory op {event.instr} lacks a MemAccess")
                if mem.pattern is MemPattern.MASK:
                    cn[r] = mem.count
                key = (mem.pattern, mem.ew_bytes, mem.is_store)
                mem_ix[r] = mem_keys.setdefault(key, len(mem_keys))
                if mem.pattern is MemPattern.UNIT and mem.base % 64:
                    align[r] = 1.0
                is_store[r] = bool(mem.is_store)
            elif t_cat[g] == cat_slide:
                slide_ix[r] = slide_pairs.setdefault(
                    (event.slide_amount, event.vl), len(slide_pairs))

        # -- counters: running sums in event order (np.sum is pairwise,
        # so its last bits would differ from the reference loop's +=) --
        vg = rg[rg > 0]
        sums = (np.add.accumulate(floats[1:, vg], axis=1)[:, -1].tolist()
                if vg.size else [0.0, 0.0, 0.0])
        plan = cls.__new__(cls)
        plan.n_events = n_events
        plan.vector_count = vg.size
        plan.scalar_count = n_events - vg.size
        plan.total_flops, plan.bytes_read, plan.bytes_written = sums
        plan.first_vec_unit = t_unit[vg[0]] if vg.size else None
        plan.kind_vocab = tuple(vocab)
        plan.scalar_kind = s_kind
        plan.scalar_addr = s_addr
        plan.seg_end = (row_pos - np.arange(n_rows)).tolist()
        plan.row_kind = ints[0].tolist()
        plan.row_unit = ints[1].tolist()
        plan.row_cn = cn.tolist()
        plan.row_n = n_col.tolist()
        plan.row_srcs = np.fromiter(t_srcs, dtype=object,
                                    count=n_groups)[rg].tolist()
        plan.row_dest = np.fromiter(t_dest, dtype=object,
                                    count=n_groups)[rg].tolist()
        plan.row_dscal = bits[0].tolist()
        plan.mem_keys = tuple(mem_keys)
        plan.slide_pairs = tuple(slide_pairs)
        plan._cnt_f = cn.astype(np.float64)
        plan._sew_code = ints[3]
        plan._thr = floats[0, rg]
        plan._is_fpu = bits[1]
        plan._mlog = bits[2]
        plan._mem_ix = mem_ix
        plan._align = align
        plan._is_store = is_store
        plan._slide_ix = slide_ix
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
    def _columns_for(self, model) -> tuple:
        """Vectorized per-row machine columns: latency, 1/rate,
        ``(n-1)/rate``, busy cycles, reduction tail."""
        n_rows = len(self.row_kind)
        rate = np.ones(n_rows, dtype=np.float64)
        lat = np.zeros(n_rows, dtype=np.float64)
        tail = np.zeros(n_rows, dtype=np.float64)
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
            tail[ix] = np.asarray([model.reduction_tail_cycles(s)
                                   for s in _SEWS])[sc]
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
        return (lat.tolist(), rinv.tolist(), q1.tolist(), busy.tolist(),
                tail.tolist())

    # ------------------------------------------------------------------
    def machine_rows(self, model) -> _MachineRows:
        """Per-machine columns and report memo (memoized per model
        identity); no per-row objects beyond the column entries."""
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
            bundle = _MachineRows(costs.tolist(), self._columns_for(model),
                                  dcache_hits, dcache_misses)
            if key is not None:
                self._machine_memo[key] = bundle
        return bundle
