"""Interface models: REQI, GLSU, RINGI, and the machine models."""

import pytest

from repro.params import Ara2Config, AraXLConfig
from repro.uarch import (Ara2Model, AraXLModel, GlsuModel, ReqiModel,
                         RingiModel, build_model)


class TestReqi:
    def test_extra_reg_delays_ack_two_cycles(self):
        base = ReqiModel(extra_regs=0)
        cut = ReqiModel(extra_regs=1)
        assert cut.issue_gap - base.issue_gap == 2

    def test_request_latency_grows_per_reg(self):
        assert ReqiModel(extra_regs=3).request_latency \
            == ReqiModel().request_latency + 3


class TestGlsu:
    def test_four_regs_add_eight_round_trip(self):
        base = GlsuModel(clusters=4, lanes_per_cluster=4)
        cut = GlsuModel(clusters=4, lanes_per_cluster=4, extra_regs=4)
        delta = cut.first_data_latency(12) - base.first_data_latency(12)
        assert delta == 8

    def test_pipeline_grows_with_clusters(self):
        small = GlsuModel(clusters=2, lanes_per_cluster=4)
        big = GlsuModel(clusters=16, lanes_per_cluster=4)
        assert big.pipeline_depth > small.pipeline_depth

    def test_store_latency_is_one_way(self):
        g = GlsuModel(clusters=4, lanes_per_cluster=4)
        assert g.store_latency() < g.first_data_latency(12)


class TestRingi:
    def test_slide1_latency_is_one_hop(self):
        r = RingiModel(clusters=8, hop_latency=2)
        assert r.slide_latency(1, 1024) == 2.0

    def test_extra_reg_adds_hop_cycle(self):
        base = RingiModel(clusters=8, hop_latency=2)
        cut = RingiModel(clusters=8, hop_latency=2, extra_regs=1)
        assert cut.slide_latency(1, 1024) == base.slide_latency(1, 1024) + 1

    def test_large_slides_cost_more(self):
        r = RingiModel(clusters=8)
        assert r.slide_latency(600, 1024) > r.slide_latency(1, 1024)

    def test_reduction_tree_hops(self):
        r = RingiModel(clusters=16, hop_latency=2)
        # C-1 total hops plus log2(C) combine steps.
        assert r.reduction_ring_cycles(6.0) == 15 * 2 + 4 * 6

    def test_single_cluster_free(self):
        r = RingiModel(clusters=1)
        assert r.reduction_ring_cycles(6.0) == 0.0
        assert r.slide_latency(1, 64) == 0.0


class TestMachineModels:
    def test_build_model_dispatch(self):
        assert isinstance(build_model(Ara2Config(lanes=8)), Ara2Model)
        assert isinstance(build_model(AraXLConfig(lanes=8)), AraXLModel)
        with pytest.raises(TypeError):
            build_model(object())

    def test_vfu_rate_simd(self):
        m = build_model(Ara2Config(lanes=8))
        assert m.vfu_rate(64) == 8
        assert m.vfu_rate(32) == 16
        assert m.vfu_rate(8) == 64

    def test_araxl_memory_latency_exceeds_ara2(self):
        ara2 = build_model(Ara2Config(lanes=16))
        araxl = build_model(AraXLConfig(lanes=16))
        assert araxl.load_first_data_latency > ara2.load_first_data_latency

    def test_araxl_issue_gap_exceeds_ara2(self):
        assert build_model(AraXLConfig(lanes=16)).issue_gap \
            > build_model(Ara2Config(lanes=16)).issue_gap

    def test_mem_rate_unit_vs_strided(self):
        from repro.isa.instructions import MemPattern

        m = build_model(AraXLConfig(lanes=64))
        unit = m.mem_rate(MemPattern.UNIT, 8, is_store=False)
        strided = m.mem_rate(MemPattern.STRIDED, 8, is_store=False)
        assert unit == 64  # 8 B/lane/cycle over 64 lanes / 8 B
        assert strided < unit

    def test_reduction_tail_monotone_in_clusters(self):
        tails = [build_model(AraXLConfig(lanes=n)).reduction_tail_cycles(64)
                 for n in (8, 16, 32, 64)]
        assert tails == sorted(tails)

    def test_ara2_reduction_tail_uses_lane_tree(self):
        small = build_model(Ara2Config(lanes=2)).reduction_tail_cycles(64)
        big = build_model(Ara2Config(lanes=16)).reduction_tail_cycles(64)
        assert big > small

    def test_simd_reduction_for_narrow_sew(self):
        m = build_model(Ara2Config(lanes=8))
        assert m.simd_reduction_cycles(64) == 0
        assert m.simd_reduction_cycles(16) > 0

    def test_wrong_config_type_rejected(self):
        with pytest.raises(TypeError):
            Ara2Model(AraXLConfig(lanes=8))
        with pytest.raises(TypeError):
            AraXLModel(Ara2Config(lanes=8))
