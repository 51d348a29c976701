"""Configuration objects: validation, derived quantities, the VLEN law."""

import pytest

from repro.errors import ConfigError
from repro.isa.instructions import MemPattern
from repro.params import (Ara2Config, AraXLConfig, MemoryConfig,
                          RVV_MAX_VLEN_BITS, ScalarCoreConfig,
                          paper_configurations)
from repro.uarch import build_model


class TestVlenLaw:
    def test_16_lane_matches_ara2_vlen(self):
        assert Ara2Config(lanes=16).vlen_bits == 16 * 1024

    def test_64_lane_reaches_rvv_maximum(self):
        assert AraXLConfig(lanes=64).vlen_bits == RVV_MAX_VLEN_BITS

    def test_128_lanes_would_exceed_rvv_limit(self):
        with pytest.raises(ConfigError):
            AraXLConfig(lanes=128)

    @pytest.mark.parametrize("lanes", [2, 4, 8, 16, 32, 64])
    def test_vlmax_dp(self, lanes):
        cfg = AraXLConfig(lanes=lanes) if lanes >= 4 else Ara2Config(lanes=lanes)
        assert cfg.vlmax(64, 1) == 16 * lanes
        assert cfg.vlmax(64, 8) == 128 * lanes

    def test_vlmax_scales_inverse_with_sew(self):
        cfg = Ara2Config(lanes=8)
        assert cfg.vlmax(32) == 2 * cfg.vlmax(64)
        assert cfg.vlmax(8) == 8 * cfg.vlmax(64)

    def test_vlmax_rejects_bad_sew_and_lmul(self):
        cfg = Ara2Config(lanes=8)
        with pytest.raises(ConfigError):
            cfg.vlmax(24)
        with pytest.raises(ConfigError):
            cfg.vlmax(64, 3)


class TestBytesPerLane:
    @pytest.mark.parametrize("bpl,expected_lmul", [(64, 1), (128, 1),
                                                   (256, 2), (512, 4)])
    def test_paper_sweep_lmuls(self, bpl, expected_lmul):
        cfg = AraXLConfig(lanes=64)
        vl = cfg.vl_for_bytes_per_lane(bpl)
        assert cfg.lmul_for_vl(vl) == expected_lmul

    def test_roundtrip(self):
        cfg = AraXLConfig(lanes=16)
        vl = cfg.vl_for_bytes_per_lane(256)
        assert cfg.bytes_per_lane(vl) == 256

    def test_rejects_fractional_elements(self):
        with pytest.raises(ConfigError):
            Ara2Config(lanes=2).vl_for_bytes_per_lane(3)

    def test_vl_too_large_for_any_lmul(self):
        cfg = Ara2Config(lanes=2)
        with pytest.raises(ConfigError):
            cfg.lmul_for_vl(cfg.vlmax(64, 8) + 1)


class TestClusters:
    def test_cluster_count(self):
        assert AraXLConfig(lanes=64).clusters == 16
        assert AraXLConfig(lanes=16).clusters == 4

    def test_sub_cluster_config_is_single_cluster(self):
        cfg = AraXLConfig(lanes=4)
        assert cfg.clusters == 1
        assert cfg.lanes_per_cluster == 4

    def test_non_multiple_of_cluster_rejected(self):
        with pytest.raises(ConfigError):
            AraXLConfig(lanes=12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigError):
            Ara2Config(lanes=6)


class TestLatencyKnobs:
    """The Fig 5/7 register cuts, as the live interface models apply them."""

    def test_glsu_extra_regs_deepen_pipeline(self):
        base = build_model(AraXLConfig(lanes=16))
        cut = build_model(AraXLConfig(lanes=16, glsu_extra_regs=4))
        assert cut.load_first_data_latency \
            == base.load_first_data_latency + 8

    def test_reqi_extra_reg_delays_ack_by_two(self):
        base = build_model(AraXLConfig(lanes=16))
        cut = build_model(AraXLConfig(lanes=16, reqi_extra_regs=1))
        assert cut.issue_gap == base.issue_gap + 2

    def test_ringi_extra_reg_adds_hop_cycle(self):
        base = build_model(AraXLConfig(lanes=16))
        cut = build_model(AraXLConfig(lanes=16, ringi_extra_regs=1))
        vl = base.config.vlmax(64)
        assert cut.slide_extra_cycles(1, vl) \
            == base.slide_extra_cycles(1, vl) + 1

    def test_negative_regs_rejected(self):
        with pytest.raises(ConfigError):
            AraXLConfig(lanes=16, glsu_extra_regs=-1)


class TestSubConfigs:
    def test_memory_validation(self):
        with pytest.raises(ConfigError):
            MemoryConfig(l2_latency_cycles=-1)
        with pytest.raises(ConfigError):
            MemoryConfig(read_bytes_per_cycle_per_lane=0)

    def test_scalar_validation(self):
        with pytest.raises(ConfigError):
            ScalarCoreConfig(alu_latency=0)
        with pytest.raises(ConfigError):
            ScalarCoreConfig(dcache_bytes=1000, dcache_line_bytes=64)

    def test_bandwidth_matches_fdotproduct_bound(self):
        # 8 B/cycle/lane read bandwidth is what makes Table I's
        # fdotproduct bound (lanes DP-FLOP/cycle) reachable.
        cfg = AraXLConfig(lanes=64)
        model = build_model(cfg)
        assert model.mem_rate(MemPattern.UNIT, 8, False) == cfg.lanes
        assert model.mem_rate(MemPattern.UNIT, 8, True) == cfg.lanes


def test_paper_configurations_inventory():
    configs = paper_configurations()
    assert {"8L-Ara2", "16L-Ara2", "8L-AraXL", "16L-AraXL", "32L-AraXL",
            "64L-AraXL"} <= set(configs)
    assert configs["64L-AraXL"].vlen_bits == RVV_MAX_VLEN_BITS
