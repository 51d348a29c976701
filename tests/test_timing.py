"""Timing core: streams, resources, scoreboard, engine behaviours."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TimingError
from repro.functional.trace import ScalarEvent
from repro.params import Ara2Config, AraXLConfig, ScalarCoreConfig
from repro.timing.frontend import ScalarFrontend
from repro.timing.resources import Resource
from repro.timing.scoreboard import Scoreboard
from repro.timing.stream import Stream, consume

rates = st.floats(min_value=0.25, max_value=64.0)
counts = st.integers(min_value=1, max_value=10_000)


class TestStream:
    def test_basic_times(self):
        s = Stream(t_first=10.0, rate=2.0, n=8)
        assert s.avail(0) == 10.0
        assert s.t_last == 10.0 + 7 / 2
        assert s.t_end == 10.0 + 4

    def test_instant(self):
        s = Stream.instant(5.0, 100)
        assert s.avail(99) == 5.0

    def test_bad_index(self):
        with pytest.raises(TimingError):
            Stream(0, 1, 4).avail(4)

    def test_negative_count_rejected(self):
        with pytest.raises(TimingError):
            Stream(0, 1, -1)


class TestConsume:
    @given(st.floats(min_value=0, max_value=1e5), rates, counts)
    @settings(max_examples=60, deadline=None)
    def test_unsourced_duration(self, start, rate, n):
        end, result = consume(start, rate, n)
        assert end == pytest.approx(start + n / rate)
        assert result.n == n
        assert result.t_first >= start

    @given(rates, rates, counts)
    @settings(max_examples=60, deadline=None)
    def test_chained_not_faster_than_producer(self, prod_rate, cons_rate, n):
        producer = Stream(t_first=0.0, rate=prod_rate, n=n)
        end, result = consume(0.0, cons_rate, n, sources=(producer,))
        # Can't finish before the producer's last element exists.
        assert end >= producer.t_last - 1e-9
        # Nor faster than its own throughput allows (FP tolerance).
        assert end >= n / cons_rate - 1e-6 * n

    def test_latency_shifts_output_not_occupancy(self):
        end_a, out_a = consume(0.0, 1.0, 10, latency=0.0)
        end_b, out_b = consume(0.0, 1.0, 10, latency=7.0)
        assert end_a == end_b
        assert out_b.t_first == pytest.approx(out_a.t_first + 7.0)

    def test_fast_producer_no_stall(self):
        producer = Stream.instant(0.0, 100)
        end, _ = consume(0.0, 4.0, 100, sources=(producer,))
        assert end == pytest.approx(25.0)

    def test_empty_op(self):
        end, result = consume(3.0, 1.0, 0)
        assert end == 3.0 and result.n == 0


class TestResource:
    def test_in_order_start(self):
        r = Resource("u", queue_depth=2)
        start = r.start(0.0)
        r.retire(start, 10.0, busy=10.0)
        assert r.start(5.0) == 10.0

    def test_queue_backpressure(self):
        r = Resource("u", queue_depth=2)
        r.retire(0.0, 10.0, busy=10.0)
        r.retire(10.0, 20.0, busy=10.0)
        # Two in flight at t=5: a third must wait for the first to drain.
        assert r.admit(5.0) == 10.0
        # At t=12 the first drained.
        assert r.admit(12.0) == 12.0

    def test_busy_accounting(self):
        r = Resource("u")
        r.retire(0.0, 8.0, busy=6.0)
        assert r.utilization(16.0) == pytest.approx(6.0 / 16.0)

    def test_retire_validates_order(self):
        r = Resource("u")
        with pytest.raises(TimingError):
            r.retire(10.0, 5.0, busy=1.0)


class TestScoreboard:
    def test_raw_chaining_stream(self):
        sb = Scoreboard()
        sb.record_write(8, 1, Stream(t_first=100.0, rate=2.0, n=50))
        src = sb.source_stream(8, 1, 50)
        assert src.t_first == 100.0
        assert src.t_last == pytest.approx(100.0 + 49 / 2)

    def test_waw_bound(self):
        sb = Scoreboard()
        sb.record_write(8, 2, Stream(t_first=10.0, rate=1.0, n=10))
        assert sb.waw_war_bound(8, 1) == pytest.approx(20.0)
        assert sb.waw_war_bound(9, 1) == pytest.approx(20.0)
        assert sb.waw_war_bound(10, 1) == 0.0

    def test_war_bound_from_reader(self):
        sb = Scoreboard()
        sb.record_read(4, 1, 55.0)
        assert sb.waw_war_bound(4, 1) == 55.0

    def test_group_slowest_member_wins(self):
        sb = Scoreboard()
        sb.record_write(8, 1, Stream(t_first=10.0, rate=1.0, n=4))
        sb.record_write(9, 1, Stream(t_first=50.0, rate=1.0, n=4))
        src = sb.source_stream(8, 2, 8)
        assert src.t_first == 50.0

    def test_never_written_register_is_instant(self):
        sb = Scoreboard()
        src = sb.source_stream(20, 1, 16)
        assert src.t_first == 0.0
        assert math.isinf(src.rate)


class TestScalarFrontendBatch:
    """``cost_many`` is exactly ``cost`` on each scalar event in order."""

    #: Known kinds, D$ kinds and kinds the model does not know.
    KINDS = ("alu", "mul", "div", "fp", "branch", "branch_taken",
             "load", "store", "csr", "fence")

    @given(events=st.lists(
               st.tuples(st.sampled_from(KINDS),
                         st.one_of(st.none(), st.integers(0, 2048))),
               max_size=120),
           dcache_bytes=st.sampled_from([64, 256, 1024]),
           l2_latency=st.integers(0, 40))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_event_cost(self, events, dcache_bytes, l2_latency):
        cfg = ScalarCoreConfig(dcache_bytes=dcache_bytes,
                               dcache_line_bytes=16, fpu_latency=5)
        seq = ScalarFrontend(cfg, l2_latency)
        batch = ScalarFrontend(cfg, l2_latency)
        expect = [seq.cost(ScalarEvent(kind, addr)) for kind, addr in events]
        # The batch interns kinds into a vocabulary and reads a missing
        # address as 0, as cost() does.
        vocab = sorted({kind for kind, _ in events}, reverse=True)
        kinds = np.array([vocab.index(kind) for kind, _ in events],
                         dtype=np.int64)
        addrs = np.array([addr or 0 for _, addr in events], dtype=np.int64)
        got = batch.cost_many(kinds, vocab, addrs)
        assert got.dtype == np.float64 and got.tolist() == expect
        assert (batch.dcache.hits, batch.dcache.misses) \
            == (seq.dcache.hits, seq.dcache.misses)

    def test_no_memory_kinds_skip_the_dcache(self, monkeypatch):
        frontend = ScalarFrontend(ScalarCoreConfig(), 20)
        monkeypatch.setattr(frontend.dcache, "access_many",
                            lambda addrs: pytest.fail("no loads/stores"))
        got = frontend.cost_many(np.array([0, 1, 2, 1]),
                                 ("alu", "branch_taken", "csr"),
                                 np.zeros(4, dtype=np.int64))
        assert got.tolist() == [1.0, 3.0, 1.0, 3.0]


def _trace(build):
    from repro.functional import Executor
    from repro.isa import Assembler

    a = Assembler()
    ex = Executor(8192)
    build(a, ex)
    a.halt()
    return ex.run(a.build()).trace


def _cycles(config, build):
    from repro.timing.engine import TimingEngine
    from repro.uarch import build_model

    return TimingEngine(build_model(config)).replay(_trace(build))


class TestEngineBehaviours:
    def _simple_kernel(self, n_ops=4):
        def build(a, ex):
            a.li("x1", 128)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            a.li("x5", 0)
            a.vle64_v("v1", "x5")
            for i in range(n_ops):
                a.vfadd_vv("v2", "v1", "v1")
        return build

    def test_load_latency_hurts_araxl_more(self):
        ara2 = _cycles(Ara2Config(lanes=8), self._simple_kernel())
        araxl = _cycles(AraXLConfig(lanes=8), self._simple_kernel())
        assert araxl.cycles > ara2.cycles

    def test_glsu_regs_add_round_trip(self):
        base = _cycles(AraXLConfig(lanes=8), self._simple_kernel(0))
        cut = _cycles(AraXLConfig(lanes=8, glsu_extra_regs=4),
                      self._simple_kernel(0))
        assert cut.cycles - base.cycles == pytest.approx(8.0)

    def test_reqi_regs_slow_issue(self):
        def many_vector_ops(a, ex):
            a.li("x1", 16)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            for _ in range(20):
                a.vfadd_vv("v2", "v1", "v1")
        base = _cycles(AraXLConfig(lanes=8), many_vector_ops)
        cut = _cycles(AraXLConfig(lanes=8, reqi_extra_regs=1),
                      many_vector_ops)
        assert cut.cycles > base.cycles

    def test_reduction_tail_grows_with_clusters(self):
        def red(a, ex):
            a.li("x1", 16)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            a.vfredusum_vs("v2", "v1", "v3")
        small = _cycles(AraXLConfig(lanes=8), red)
        big = _cycles(AraXLConfig(lanes=64), red)
        assert big.cycles > small.cycles

    def test_ringi_regs_slow_slides(self):
        def slide(a, ex):
            a.li("x1", 256)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            a.vfslide1down_vf("v2", "v1", "f1")
            a.vfadd_vv("v3", "v2", "v2")
        base = _cycles(AraXLConfig(lanes=16), slide)
        cut = _cycles(AraXLConfig(lanes=16, ringi_extra_regs=2), slide)
        assert cut.cycles > base.cycles

    def test_scalar_result_sync(self):
        def sync(a, ex):
            a.li("x1", 64)
            a.vsetvli("x2", "x1", sew=64, lmul=1)
            a.vfmv_f_s("f1", "v1")
            for _ in range(10):
                a.addi("x3", "x3", 1)
        rep = _cycles(AraXLConfig(lanes=8), sync)
        # The 10 scalar adds happen after the vector->scalar round trip.
        assert rep.cycles >= 10

    def test_busy_never_exceeds_cycles(self):
        rep = _cycles(AraXLConfig(lanes=8), self._simple_kernel(8))
        for unit, busy in rep.unit_busy.items():
            assert busy <= rep.cycles + 1e-9, unit

    def test_report_summary_renders(self):
        rep = _cycles(Ara2Config(lanes=4), self._simple_kernel())
        text = rep.summary()
        assert "cycles" in text and "vmfpu" in text
