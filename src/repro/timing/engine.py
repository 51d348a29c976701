"""The timing engine: replays a dynamic trace against a machine model.

One pass over the trace, O(1) work per instruction regardless of vector
length.  The mechanisms modelled, and where the paper's effects come from:

* **Issue path** — CVA6 issues one vector instruction per cycle at best,
  gated by the acknowledgement round trip (``issue_gap``; REQI register
  cuts lengthen it) and by per-unit instruction queues (back-pressure
  when a unit falls behind).
* **Chaining** — consumers start when the producer's first elements are
  available and are rate-limited by the slower party (stream algebra in
  :mod:`repro.timing.stream`).
* **Memory** — separate load and store ports with the configured
  bandwidth; loads see the request-to-first-data latency of the memory
  interface (GLSU pipeline depth + L2 latency on AraXL).
* **Slides** — local shuffle at lane rate plus the ring penalty on AraXL.
* **Reductions** — streamed intra-lane phase plus the configuration-
  dependent tail (inter-lane tree, inter-cluster ring tree, SIMD stage),
  which is what bends the Fig 6 reduction curves.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from dataclasses import dataclass

from ..errors import TimingError
from ..functional.trace import (MemAccess, ScalarEvent, VectorEvent,
                                VsetvlEvent)
from ..functional.trace_pack import PackedTrace
from ..isa.instructions import ExecUnit, MemPattern
from ..uarch.common import MachineModel
from .frontend import ScalarFrontend
from .replay_plan import ReplayPlan
from .report import TimingReport
from .resources import Resource
from . import superblock
from .scoreboard import FlatScoreboard, Scoreboard
from .stream import Stream, consume

#: Unit resource names.
VMFPU, VALU, SLDU, MASKU, LOAD, STORE = (
    "vmfpu", "valu", "sldu", "masku", "vlsu_load", "vlsu_store")

#: Canonical unit order (index = the plan's unit id).
_UNIT_NAMES = (VMFPU, VALU, SLDU, MASKU, LOAD, STORE)


def _copy_report(report: TimingReport) -> TimingReport:
    """Fresh report instance (memoized replays must not share dicts)."""
    return dataclasses.replace(report,
                               unit_busy=dict(report.unit_busy),
                               unit_ops=dict(report.unit_ops))


@dataclass
class _Groups:
    """Register groups an instruction touches (base, emul) pairs."""

    sources: list[tuple[int, int]]
    dest: tuple[int, int] | None
    dest_scalar: bool = False


class TimingEngine:
    """Replays a dynamic trace against one machine model, cycle-level."""
    def __init__(self, model: MachineModel) -> None:
        self.model = model

    # ------------------------------------------------------------------
    def replay(self, trace: PackedTrace) -> TimingReport:
        """Replay ``trace`` against the model.

        The vectorized fast path: compile the trace once into a
        :class:`~repro.timing.replay_plan.ReplayPlan` (cached on the
        trace), fetch the per-machine class table (static fields joined
        with numpy-batched rates/latencies/stream constants) and the
        flat scalar costs of one batch D$ walk, both memoized per
        model, then walk the issue rows as alternating gaps and
        superblocks (:func:`repro.timing.superblock.segments`).  A gap
        is one branch-light pass zipping ``seg_end`` with ``row_class``
        and unpacking each row's class entry; a superblock is one call
        of the generated straight-line function of its periodic body,
        which skips whole hyper-periods of its steady state by an exact
        move in time (:mod:`repro.timing.superblock`, "Fast-forward").
        Before each row both add the flat scalar costs up to the row's
        ``seg_end``, one at a time as the reference loop does.  The
        scoreboard is indexed by the plan's shared slots and each
        unit's queue is a ring of its last ``unit_queue_depth`` end
        times (:class:`~repro.timing.scoreboard.FlatScoreboard` states
        why both are exact).  Every arithmetic operation is performed
        in the same order with the same operands as
        :meth:`replay_reference`, so reports are bit-identical — the
        reference loop stays as the executable specification and the
        property-test oracle.
        """
        plan = trace._plan
        if plan is None:
            plan = trace._plan = ReplayPlan.from_trace(trace)
        model = self.model
        bundle = plan.machine_rows(model)
        report = bundle.report
        if report is not None:
            return _copy_report(report)
        depth = model.unit_queue_depth
        if depth < 1 and plan.first_vec_unit is not None:
            raise TimingError(f"{_UNIT_NAMES[plan.first_vec_unit]}: "
                              f"queue depth must be >= 1")

        vsetvli_cycles = model.vsetvli_cycles
        issue_gap = model.issue_gap
        issue_to_arrive = model.request_latency + model.dispatch_latency
        scalar_result_latency = model.scalar_result_latency

        sb = FlatScoreboard(plan.n_slots)
        first = sb.first
        last = sb.last
        write_end = sb.write_end
        read_end = sb.read_end
        # ops % depth never reaches past the vector row count.
        rings = [[0.0] * min(depth, plan.vector_count) for _ in range(6)]
        uready = [0.0] * 6
        ubusy = [0.0] * 6
        uops = [0] * 6
        t_scalar = 0.0
        next_vissue = 0.0
        issue_stalls = 0.0

        table = bundle.table
        costs = bundle.seg_costs
        ff = bundle if superblock.FAST_FORWARD else None
        k = 0
        seg_end = plan.seg_end
        row_class = plan.row_class
        for a, b, block in superblock.segments(plan):
            for end, c in zip(seg_end[a:b], row_class[a:b]):
                while k < end:
                    t_scalar += costs[k]
                    k += 1
                if not c:  # vsetvl
                    t_scalar += vsetvli_cycles
                    gap_end = t_scalar + issue_gap
                    if gap_end > next_vissue:
                        next_vissue = gap_end
                    continue
                # CLASS_FIELDS, then the machine fields.
                (u, red, srcs, groups, reads, dregs, dscal, cn, last1, nm1,
                 cm1, cnf, lat, rinv, q1, busy, tail) = table[c]

                # --- issue: frontend cycle, ack gap, queue slot -------
                t_scalar += 1.0
                t_ready = t_scalar if t_scalar > next_vissue else next_vissue
                ops = uops[u]
                ring = rings[u]
                qi = ops % depth
                w = ring[qi]  # end of the op `depth` issues back
                t_admit = w if w > t_ready else t_ready
                issue_stalls += t_admit - t_ready
                t_scalar = t_admit
                next_vissue = t_admit + issue_gap

                # --- hazards: WAW/WAR on the destination slots --------
                earliest = t_admit + issue_to_arrive
                for r in dregs:
                    w = write_end[r]
                    if w > earliest:
                        earliest = w
                    w = read_end[r]
                    if w > earliest:
                        earliest = w
                rt = uready[u]
                start = rt if rt > earliest else earliest

                # --- execute: inlined stream algebra over the class ---
                if cn:
                    t0 = start
                    tmax = 0.0
                    # A single-slot group reads its slot as is: stored times
                    # never fall below the group-combine's 0.0 floor.
                    for r in srcs:
                        gf = first[r]
                        if gf > t0:
                            t0 = gf
                        if last1:
                            gl = last[r]
                            if gl > gf:
                                t = gf + last1 / (nm1 / (gl - gf))
                                if t > tmax:
                                    tmax = t
                                continue
                        if gf > tmax:
                            tmax = gf
                    for slots in groups:
                        gf = 0.0
                        gl = 0.0
                        for r in slots:
                            f = first[r]
                            if f > gf:
                                gf = f
                            f = last[r]
                            if f > gl:
                                gl = f
                        if gf > t0:
                            t0 = gf
                        if last1 and gl > gf:
                            t = gf + last1 / (nm1 / (gl - gf))
                            if t > tmax:
                                tmax = t
                        elif gf > tmax:
                            tmax = gf
                    t_last_in = t0 + q1
                    if tmax > t_last_in:
                        t_last_in = tmax
                    end_exec = t_last_in + rinv
                    if red:
                        # Instant single-element result after the tail.
                        end_exec += tail
                        rf = rl = res_end = end_exec
                    else:
                        rf = t0 + lat + rinv
                        if cn == 1:
                            rl = rf
                            res_end = rf + rinv
                        else:
                            dd = t_last_in + lat + rinv - rf
                            if dd < 1e-12:
                                dd = 1e-12
                            eff = cm1 / dd
                            rl = rf + cm1 / eff
                            res_end = rf + cnf / eff
                    t_sync = rl
                    if rf < 0.0:  # only under negative latencies; rl >= rf
                        rf = 0.0
                        if rl < 0.0:
                            rl = 0.0
                else:  # zero-element op (masked access with empty count)
                    end_exec = t_sync = start
                    rf = rl = 0.0  # an empty stream reads as never written
                    res_end = start + lat
                    busy = 0.0

                # --- retire + scoreboard updates ----------------------
                uready[u] = end_exec
                ubusy[u] += busy
                uops[u] = ops + 1
                ring[qi] = end_exec
                for r in reads:
                    if end_exec > read_end[r]:
                        read_end[r] = end_exec
                for r in dregs:
                    first[r] = rf
                    last[r] = rl
                    if res_end > write_end[r]:
                        write_end[r] = res_end
                if dscal:
                    sync = t_sync + scalar_result_latency
                    if sync > t_scalar:
                        t_scalar = sync
            if block is not None:
                fn, reps, cids, slots = block
                k, t_scalar, next_vissue, issue_stalls = fn(
                    reps, k, t_scalar, next_vissue, issue_stalls,
                    costs, table, cids, slots, first, last,
                    write_end, read_end, rings, uready, ubusy, uops,
                    depth, vsetvli_cycles, issue_gap, issue_to_arrive,
                    scalar_result_latency, ff)

        for c in costs[k:]:
            t_scalar += c

        total = t_scalar
        done = sb.all_done()
        if done > total:
            total = done
        for v in uready:
            if v > total:
                total = v
        report = TimingReport(
            machine=model.name,
            cycles=total if total > 1.0 else 1.0,
            dp_flops=plan.total_flops,
            unit_busy=dict(zip(_UNIT_NAMES, ubusy)),
            unit_ops=dict(zip(_UNIT_NAMES, uops)),
            scalar_cycles=t_scalar,
            vector_instructions=plan.vector_count,
            scalar_instructions=plan.scalar_count,
            issue_stall_cycles=issue_stalls,
            mem_bytes_read=plan.bytes_read,
            mem_bytes_written=plan.bytes_written,
            dcache_hits=bundle.dcache_hits,
            dcache_misses=bundle.dcache_misses,
        )
        bundle.finish(report)
        return _copy_report(report)

    # ------------------------------------------------------------------
    def replay_reference(self, trace: Iterable) -> TimingReport:
        """Replay any iterable of trace events (``packed.events``) one
        event object at a time: the executable specification that
        :meth:`replay` must match bit for bit."""
        model = self.model
        cfg = model.config
        frontend = ScalarFrontend(cfg.scalar, cfg.memory.l2_latency_cycles)
        depth = model.unit_queue_depth
        units = {name: Resource(name, queue_depth=depth)
                 for name in (VMFPU, VALU, SLDU, MASKU, LOAD, STORE)}
        sb = Scoreboard()

        t_scalar = 0.0
        next_vissue = 0.0
        issue_stalls = 0.0
        vec_count = 0
        scalar_count = 0
        flops = 0.0
        bytes_read = 0.0
        bytes_written = 0.0

        # Hot-loop locals: the same trace is replayed once per machine
        # model, so per-event decode (unit routing, element count,
        # register groups) is computed once and memoized on the event.
        frontend_cost = frontend.cost
        # Scalar kinds with state-independent cost (everything except the
        # D$-dependent loads/stores) resolve through one dict hit; the
        # table lives on the frontend so both paths share one model.
        fixed_scalar_cost = frontend.fixed_costs.get
        vsetvli_cycles = model.vsetvli_cycles
        issue_gap = model.issue_gap
        issue_to_arrive = model.request_latency + model.dispatch_latency
        scalar_result_latency = model.scalar_result_latency
        execute = self._execute
        event_info = self._event_info
        ctx = self._replay_ctx()

        for event in trace:
            cls = event.__class__
            if cls is ScalarEvent:
                cost = fixed_scalar_cost(event.kind)
                t_scalar += cost if cost is not None else frontend_cost(event)
                scalar_count += 1
                continue
            if cls is VsetvlEvent:
                t_scalar += vsetvli_cycles
                gap_end = t_scalar + issue_gap
                if gap_end > next_vissue:
                    next_vissue = gap_end
                scalar_count += 1
                continue
            if cls is not VectorEvent:  # pragma: no cover
                raise TimingError(f"unknown trace event {event!r}")

            vec_count += 1
            info = event.__dict__.get("_tinfo")
            if info is None:
                info = event_info(event)
            flops += info[7]
            unit = units[info[0]]

            # --- issue: one cycle of frontend work, ack gap, queue slot
            t_scalar += 1.0
            t_ready = t_scalar if t_scalar > next_vissue else next_vissue
            t_admit = unit.admit(t_ready)
            issue_stalls += t_admit - t_ready
            t_issue = t_admit
            t_scalar = t_issue
            next_vissue = t_issue + issue_gap
            arrive = t_issue + issue_to_arrive

            # --- execute on the unit
            end_scalar_sync = execute(event, info, unit, sb, arrive, ctx)
            if end_scalar_sync is not None:
                sync = end_scalar_sync + scalar_result_latency
                if sync > t_scalar:
                    t_scalar = sync

            mem_info = info[8]
            if mem_info is not None:
                if mem_info[0]:
                    bytes_written += mem_info[1]
                else:
                    bytes_read += mem_info[1]

        total = max([t_scalar, sb.all_done()]
                    + [u.ready_time for u in units.values()])
        report = TimingReport(
            machine=model.name,
            cycles=max(total, 1.0),
            dp_flops=flops,
            unit_busy={n: u.busy_cycles for n, u in units.items()},
            unit_ops={n: u.ops for n, u in units.items()},
            scalar_cycles=t_scalar,
            vector_instructions=vec_count,
            scalar_instructions=scalar_count,
            issue_stall_cycles=issue_stalls,
            mem_bytes_read=bytes_read,
            mem_bytes_written=bytes_written,
            dcache_hits=frontend.dcache.hits,
            dcache_misses=frontend.dcache.misses,
        )
        return report

    # ------------------------------------------------------------------
    # Per-event decode cache
    # ------------------------------------------------------------------
    #: Execution categories resolved into the per-event cache.
    _CAT_MEM, _CAT_RED, _CAT_SLIDE, _CAT_MASKU, _CAT_ARITH = range(5)

    @classmethod
    def _event_info(cls, event: VectorEvent) -> tuple:
        """Replay-invariant decode of one event, memoized on the event.

        Returns ``(unit_name, n, sources, dest, dest_scalar, category,
        extra)`` where ``n`` is the element count driving stream algebra,
        ``sources``/``dest`` are the register groups from :meth:`_groups`
        and ``extra`` is per-category static data (spec throughput, mask
        logicality...).  The cache lives in the (frozen) event's
        ``__dict__`` so a trace replayed against many machine models
        decodes each event exactly once.
        """
        # The decode depends only on (static instruction, vl, sew, lmul)
        # — sew reaches MemAccess.ew_bytes for indexed accesses — and the
        # same instruction usually retires with one configuration, so the
        # computed tuple is shared across all of its dynamic events.
        instr = event.instr
        per_instr = instr.__dict__.get("_tinfo_by_cfg")
        if per_instr is None:
            per_instr = {}
            instr.__dict__["_tinfo_by_cfg"] = per_instr
        cfg_key = (event.vl, event.sew, event.lmul)
        info = per_instr.get(cfg_key)
        if info is None:
            spec = event.spec
            # Scalar<->vector moves touch one element regardless of vl.
            if spec.fmt in ("fv", "xs", "sf", "sx"):
                n = 1
            else:
                n = max(1, event.vl)
            groups = cls._groups(event)
            if spec.is_mem:
                cat, extra = cls._CAT_MEM, None
            elif spec.is_reduction:
                cat, extra = cls._CAT_RED, None
            elif spec.is_slide:
                cat, extra = cls._CAT_SLIDE, spec.throughput
            elif spec.unit is ExecUnit.MASKU:
                cat, extra = cls._CAT_MASKU, spec.mask_logical
            else:
                cat, extra = cls._CAT_ARITH, (spec.throughput,
                                              spec.unit is ExecUnit.VMFPU)
            mem = event.mem
            info = (cls._unit_name(event), n, tuple(groups.sources),
                    groups.dest, groups.dest_scalar, cat, extra,
                    event.flops,
                    (mem.is_store, mem.total_bytes) if mem is not None
                    else None)
            per_instr[cfg_key] = info
        event.__dict__["_tinfo"] = info
        return info

    # ------------------------------------------------------------------
    # Unit selection
    # ------------------------------------------------------------------
    @staticmethod
    def _unit_name(event: VectorEvent) -> str:
        spec = event.spec
        if spec.is_load:
            return LOAD
        if spec.is_store:
            return STORE
        return {
            ExecUnit.VMFPU: VMFPU,
            ExecUnit.VALU: VALU,
            ExecUnit.SLDU: SLDU,
            ExecUnit.MASKU: MASKU,
        }[spec.unit]

    # ------------------------------------------------------------------
    # Register group extraction
    # ------------------------------------------------------------------
    @staticmethod
    def _groups(event: VectorEvent) -> _Groups:
        spec = event.spec
        instr = event.instr
        lmul = event.lmul
        sources: list[tuple[int, int]] = []
        dest: tuple[int, int] | None = None
        dest_scalar = False

        src_emul = 2 * lmul if spec.narrows else lmul
        for role in ("vs1", "vs2", "vs3"):
            reg = instr.get(role)
            if reg is not None:
                emul = src_emul if role != "vs1" or spec.fmt != "red_vs" else 1
                sources.append((reg.index, emul))
        # FMA accumulators read the destination.
        if spec.fmt in ("fma_vv", "fma_vx", "fma_vf"):
            vd = instr.get("vd")
            if vd is not None:
                acc_emul = 2 * lmul if spec.widens else lmul
                sources.append((vd.index, acc_emul))
        if instr.masked:
            sources.append((0, 1))

        vd = instr.get("vd")
        if vd is not None:
            if spec.mask_producer or spec.is_reduction:
                dest = (vd.index, 1)
            elif spec.widens:
                dest = (vd.index, min(8, 2 * lmul))
            else:
                dest = (vd.index, lmul)
        if spec.scalar_result:
            dest_scalar = True
        return _Groups(sources=sources, dest=dest, dest_scalar=dest_scalar)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _replay_ctx(self) -> dict:
        """Flatten the model's per-SEW rates and fixed latencies into one
        dict, rebuilt per replay: the hot loop then pays dict hits instead
        of method/property chains for every event."""
        model = self.model
        return {
            "vfu": {s: model.vfu_rate(s) for s in (8, 16, 32, 64)},
            "sldu": {s: model.sldu_rate(s) for s in (8, 16, 32, 64)},
            "red_tail": {s: model.reduction_tail_cycles(s)
                         for s in (8, 16, 32, 64)},
            "masku_bit_rate": model.masku_bit_rate(),
            "masku_latency": model.masku_latency,
            "fpu_latency": model.fpu_latency,
            "valu_latency": model.valu_latency,
            "load_latency": model.load_first_data_latency,
            "store_latency": model.store_pipe_latency,
            "mem_rates": {},  # (pattern, ew_bytes, is_store) -> rate, lazy
        }

    def _execute(self, event: VectorEvent, info: tuple, unit: Resource,
                 sb: Scoreboard, arrive: float, ctx: dict) -> float | None:
        """Run one vector instruction; returns a scalar-sync time if the
        scalar core must wait for the result."""
        _, n, sources, dest, dest_scalar, cat, extra = info[:7]
        source_stream = sb.source_stream
        src_streams = [source_stream(base, emul, n) for base, emul in sources]

        waw = sb.waw_war_bound(*dest) if dest else 0.0
        earliest = arrive if arrive > waw else waw

        rt = unit.ready_time
        start = rt if rt > earliest else earliest
        is_mem = cat == self._CAT_MEM
        if is_mem:
            end_exec, result, busy = self._mem_op(event, unit, src_streams,
                                                  earliest, n, ctx)
        elif cat == self._CAT_RED:
            rate = ctx["vfu"][event.sew]
            end_intra, _ = consume(start, rate, n, src_streams, latency=0.0)
            tail = ctx["red_tail"][event.sew]
            end_exec = end_intra + tail
            result = Stream.instant(end_exec, 1)
            busy = n / rate
        elif cat == self._CAT_SLIDE:
            rate = ctx["sldu"][event.sew] * extra
            latency = self.model.slide_extra_cycles(event.slide_amount,
                                                    event.vl)
            end_exec, result = consume(start, rate, n, src_streams,
                                       latency=latency)
            busy = n / rate
        elif cat == self._CAT_MASKU:
            if extra:  # mask-logical op
                rate = ctx["masku_bit_rate"]
            else:
                rate = ctx["vfu"][event.sew]
            end_exec, result = consume(start, rate, n, src_streams,
                                       latency=ctx["masku_latency"])
            busy = n / rate
        else:
            throughput, is_fpu = extra
            rate = ctx["vfu"][event.sew] * throughput
            latency = ctx["fpu_latency"] if is_fpu else ctx["valu_latency"]
            end_exec, result = consume(start, rate, n, src_streams,
                                       latency=latency)
            busy = n / rate

        unit.retire(end_exec - max(busy, 0.0) if is_mem else start,
                    end_exec, busy)
        for base, emul in sources:
            sb.record_read(base, emul, end_exec)
        if dest is not None:
            sb.record_write(*dest, result)
        if dest_scalar:
            return result.t_last if result.n else end_exec
        return None

    # ------------------------------------------------------------------
    def _mem_op(self, event: VectorEvent, unit: Resource,
                src_streams: tuple[Stream, ...], earliest: float,
                n: int, ctx: dict) -> tuple[float, Stream, float]:
        mem: MemAccess = event.mem  # type: ignore[assignment]
        if mem is None:
            raise TimingError(f"memory op {event.instr} lacks a MemAccess")
        rate_key = (mem.pattern, mem.ew_bytes, mem.is_store)
        rate = ctx["mem_rates"].get(rate_key)
        if rate is None:
            rate = self.model.mem_rate(mem.pattern, max(1, mem.ew_bytes),
                                       mem.is_store)
            ctx["mem_rates"][rate_key] = rate
        # Misaligned unit-stride requests pay one extra align-stage pass.
        align_pen = 0.0
        if mem.pattern is MemPattern.UNIT and mem.base % 64:
            align_pen = 1.0
        start = unit.start(earliest)
        if mem.is_store:
            latency = ctx["store_latency"] + align_pen
        else:
            latency = ctx["load_latency"] + align_pen
        count = mem.count if mem.pattern is MemPattern.MASK else n
        end_exec, result = consume(start, rate, count, src_streams,
                                   latency=latency)
        busy = count / rate
        return end_exec, result, busy
    # NOTE: unit.retire() in _execute receives (end_exec - busy) as the
    # start bound for memory ops so port occupancy equals the transfer
    # time even when chaining stretched the op.
