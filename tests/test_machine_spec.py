"""Machine specs: round-trip, validation, fingerprints, registry, CLI.

The spec layer's contract (docs/machine-models.md): every shipped
configuration round-trips losslessly through ``to_spec``/``from_spec``,
invalid specs fail with actionable messages, fingerprints depend only on
timing-relevant content, and a machine defined purely as YAML runs the
same sweeps byte-identically while *reusing* builtin captures (spec
identity never leaks into capture keys).
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.machine import (FAMILIES, SPEC_FIELDS, MachineSpec, SpecError,
                           from_spec, get_machine, list_machines,
                           machine_fingerprint, spec_field_rows, to_spec)
from repro.params import Ara2Config, AraXLConfig, paper_configurations


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(paper_configurations()))
    def test_paper_configuration_round_trips(self, name):
        config = paper_configurations()[name]
        spec = to_spec(config)
        assert spec.name == name
        assert from_spec(spec) == config

    def test_fig7_cut_configs_round_trip(self):
        base = AraXLConfig(lanes=64)
        for knob in ("glsu_extra_regs", "reqi_extra_regs",
                     "ringi_extra_regs"):
            cut = dataclasses.replace(base, **{knob: 1})
            assert from_spec(to_spec(cut)) == cut

    def test_labelled_config_round_trips_with_name(self):
        config = Ara2Config(lanes=4, label="my-ara2")
        spec = to_spec(config)
        assert spec.name == "my-ara2"
        assert from_spec(spec) == config

    def test_to_dict_is_fully_defaulted(self):
        spec = MachineSpec.from_dict({"family": "araxl", "lanes": 8})
        data = spec.to_dict()
        assert data["pipeline"]["fpu_latency"] == 5
        assert data["interconnect"]["ring_hop_latency"] == 2
        assert data["memory"]["l2_latency_cycles"] == 12
        assert data["name"] == "8L-AraXL"

    def test_from_spec_accepts_raw_dict(self):
        config = from_spec({"family": "ara2", "lanes": 8})
        assert config == Ara2Config(lanes=8)

    def test_to_spec_rejects_non_spec_family(self):
        from repro.params import SystemConfig
        with pytest.raises(SpecError, match="family 'generic'"):
            to_spec(SystemConfig(lanes=8))


class TestValidation:
    def test_missing_family(self):
        with pytest.raises(SpecError, match="missing required field "
                                            "'family'"):
            MachineSpec.from_dict({"lanes": 8})

    def test_missing_lanes(self):
        with pytest.raises(SpecError, match="missing required field "
                                            "'lanes'"):
            MachineSpec.from_dict({"family": "araxl"})

    def test_unknown_family_lists_choices(self):
        with pytest.raises(SpecError, match="ara2, araxl"):
            MachineSpec.from_dict({"family": "ara3", "lanes": 8})

    def test_unknown_key_suggests_close_match(self):
        with pytest.raises(SpecError, match="did you mean 'pipeline'"):
            MachineSpec.from_dict({"family": "araxl", "lanes": 8,
                                   "pipline": {}})

    def test_unknown_field_inside_section(self):
        with pytest.raises(SpecError, match="did you mean 'fpu_latency'"):
            MachineSpec.from_dict({"family": "araxl", "lanes": 8,
                                   "pipeline": {"fpu_latencyy": 4}})

    def test_family_mismatched_interconnect_field(self):
        with pytest.raises(SpecError, match="araxl-only"):
            MachineSpec.from_dict({"family": "ara2", "lanes": 8,
                                   "interconnect": {"ring_hop_latency": 3}})
        with pytest.raises(SpecError, match="ara2-only"):
            MachineSpec.from_dict({"family": "araxl", "lanes": 8,
                                   "interconnect": {"strided_addrgens": 2}})

    def test_out_of_range_value_names_the_bound(self):
        with pytest.raises(SpecError, match="out of range.*>= 1"):
            MachineSpec.from_dict({"family": "araxl", "lanes": 8,
                                   "pipeline": {"fpu_latency": 0}})

    def test_wrong_type_rejected(self):
        with pytest.raises(SpecError, match="expects int"):
            MachineSpec.from_dict({"family": "araxl", "lanes": 8,
                                   "pipeline": {"fpu_latency": "fast"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecError, match="expects int"):
            MachineSpec.from_dict({"family": "araxl", "lanes": 8,
                                   "pipeline": {"fpu_latency": True}})

    def test_int_coerces_to_float_fields(self):
        spec = MachineSpec.from_dict(
            {"family": "ara2", "lanes": 8,
             "interconnect": {"issue_gap_cycles": 2}})
        assert spec.to_dict()["interconnect"]["issue_gap_cycles"] == 2.0
        assert from_spec(spec).issue_gap_cycles == 2.0

    def test_config_level_validation_still_applies(self):
        # The spec schema checks per-field ranges; cross-field laws
        # (power-of-two lanes, VLEN cap) stay in the config classes.
        with pytest.raises(ConfigError):
            from_spec({"family": "ara2", "lanes": 3})

    def test_spec_error_is_a_config_error(self):
        assert issubclass(SpecError, ConfigError)


class TestFingerprint:
    def test_key_order_does_not_matter(self):
        a = MachineSpec.from_dict({"family": "araxl", "lanes": 32})
        b = MachineSpec.from_dict({"lanes": 32, "family": "araxl"})
        assert a.fingerprint == b.fingerprint

    def test_name_is_excluded(self):
        plain = MachineSpec.from_dict({"family": "araxl", "lanes": 32})
        named = MachineSpec.from_dict({"family": "araxl", "lanes": 32,
                                       "name": "my-lab-machine"})
        assert plain.fingerprint == named.fingerprint

    def test_timing_fields_are_included(self):
        base = MachineSpec.from_dict({"family": "araxl", "lanes": 32})
        slow = MachineSpec.from_dict({"family": "araxl", "lanes": 32,
                                      "interconnect":
                                          {"ring_hop_latency": 4}})
        assert base.fingerprint != slow.fingerprint

    def test_machine_fingerprint_matches_spec(self):
        config = AraXLConfig(lanes=32)
        assert machine_fingerprint(config) == to_spec(config).fingerprint

    def test_label_only_variants_share_a_fingerprint(self):
        a = AraXLConfig(lanes=32)
        b = AraXLConfig(lanes=32, label="same machine, other name")
        assert machine_fingerprint(a) == machine_fingerprint(b)

    def test_all_shipped_machines_distinct(self):
        prints = [machine_fingerprint(c)
                  for c in paper_configurations().values()]
        assert len(set(prints)) == len(prints)


class TestRegistry:
    def test_registry_matches_paper_configurations(self):
        registry = list_machines()
        paper = paper_configurations()
        assert list(registry) == list(paper)
        for name, spec in registry.items():
            assert spec.to_config() == paper[name]

    def test_get_machine_by_name(self):
        assert get_machine("64L-AraXL") == AraXLConfig(lanes=64)

    def test_get_machine_by_path(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text("family: ara2\nlanes: 8\n")
        assert get_machine(str(path)) == Ara2Config(lanes=8)

    def test_get_machine_unknown_name_lists_registry(self):
        with pytest.raises(SpecError, match="64L-AraXL"):
            get_machine("128L-MegaXL")

    def test_yaml_comments_and_overrides(self, tmp_path):
        path = tmp_path / "toy.yaml"
        path.write_text("# a toy\nname: toy\nfamily: araxl\nlanes: 8\n"
                        "memory:\n  l2_latency_cycles: 20  # slow L2\n")
        config = get_machine(str(path))
        assert config.name == "toy"
        assert config.memory.l2_latency_cycles == 20

    def test_invalid_yaml_field_names_the_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("family: araxl\nlanes: 8\nmemory:\n  sz: 1\n")
        with pytest.raises(SpecError, match="bad.yaml"):
            get_machine(str(path))

    def test_schema_covers_both_families(self):
        for family in FAMILIES:
            rows = spec_field_rows(family)
            assert any(f.section == "interconnect" for f in rows)
        assert spec_field_rows() == list(SPEC_FIELDS)


class TestMiniYamlFallback:
    def test_fallback_agrees_with_pyyaml(self):
        from repro.machine.spec import _parse_mini_yaml, parse_spec_yaml
        text = ("# hdr\nname: toy-4L\nfamily: araxl\nlanes: 4  # total\n"
                "memory:\n  l2_latency_cycles: 20\n"
                "interconnect:\n  ring_hop_latency: 3\n"
                "  ring_reduction_op_overhead: 1.5\n")
        assert _parse_mini_yaml(text, "<t>") == parse_spec_yaml(text)

    def test_fallback_rejects_garbage_with_line_number(self):
        from repro.machine.spec import _parse_mini_yaml
        with pytest.raises(SpecError, match="<t>:2"):
            _parse_mini_yaml("family: ara2\nnot a mapping line\n", "<t>")


class TestSweepIntegration:
    def test_fig6_builtin_vs_registry_byte_identical(self):
        from repro.eval.fig6_scaling import render_fig6, run_fig6
        default = render_fig6(run_fig6(kernels=("fdotproduct",),
                                       bytes_per_lane=(64, 128),
                                       scale="reduced"))
        via_registry = render_fig6(run_fig6(
            kernels=("fdotproduct",), bytes_per_lane=(64, 128),
            scale="reduced",
            machines=[get_machine(n) for n in
                      ("8L-Ara2", "16L-Ara2", "8L-AraXL", "16L-AraXL",
                       "32L-AraXL", "64L-AraXL")]))
        assert via_registry == default

    def test_replay_dedup_by_fingerprint(self):
        # Two configs differing only in display label are one timing
        # identity: the pipeline runs their shared replay once.
        from repro.eval.ablations import run_knob_sweep
        from repro.sim import SimPool, TraceCache
        base = AraXLConfig(lanes=8)
        alias = AraXLConfig(lanes=8, label="alias-8L")
        pool = SimPool(workers=1, cache=TraceCache())
        rows = run_knob_sweep([base, alias],
                              [("fdotproduct", 64, {})], pool=pool)
        assert rows[0] == rows[1]
        assert pool.pipeline_stats.replay_points == 1
        assert pool.pipeline_stats.capture_points == 1

    def test_yaml_machine_reuses_builtin_capture(self, tmp_path):
        # A pure-YAML machine with the same VLEN as a builtin replays
        # the builtin's stored capture: zero new captures executed.
        from repro.eval.table1_kernels import run_table1
        from repro.sim import SimPool, TraceStore
        path = tmp_path / "toy.yaml"
        path.write_text("name: toy-64L\nfamily: araxl\nlanes: 64\n"
                        "interconnect:\n  ring_hop_latency: 4\n")
        store_dir = tmp_path / "store"

        warm = TraceStore(disk_dir=store_dir)
        run_table1(config=AraXLConfig(lanes=64), scale="reduced",
                   pool=SimPool(cache=warm))
        captured = warm.misses
        assert captured > 0

        toy = get_machine(str(path))
        cold = TraceStore(disk_dir=store_dir)
        rows = run_table1(config=toy, scale="reduced",
                          pool=SimPool(cache=cold))
        assert cold.misses == 0, "YAML machine must reuse stored captures"
        assert len(rows) > 0

    def test_fig7_rejects_non_araxl_base(self):
        from repro.eval.fig7_latency import run_fig7
        with pytest.raises(ConfigError, match="not 'araxl'"):
            run_fig7(base_config=Ara2Config(lanes=8))


class TestDocTable:
    def test_doc_table_matches_schema(self):
        # docs/machine-models.md documents exactly the schema's fields,
        # with matching types, defaults and family restrictions.
        from pathlib import Path
        from repro.machine.spec import REQUIRED
        doc = Path(__file__).resolve().parents[1] / "docs" \
            / "machine-models.md"
        rows = {}
        for line in doc.read_text().splitlines():
            if line.startswith("| `") and not line.startswith("| field"):
                cells = [c.strip() for c in line.strip("|").split("|")]
                rows[cells[0].strip("`")] = cells[1:4]
        assert set(rows) == {f.path for f in SPEC_FIELDS}
        for field in SPEC_FIELDS:
            kind, default, families = rows[field.path]
            assert kind == field.kind.__name__, field.path
            expected = "required" if field.default is REQUIRED \
                else repr(field.default)
            assert default == expected, field.path
            expected_fam = "/".join(field.families) if field.families \
                else "both"
            assert families == expected_fam, field.path


class TestCli:
    def test_list_machines_exits_zero(self, capsys):
        from repro.eval.__main__ import main
        assert main(["--list-machines"]) == 0
        out = capsys.readouterr().out
        for name in paper_configurations():
            assert name in out

    def test_machine_flag_matches_default_output(self, capsys):
        from repro.eval.__main__ import main
        assert main(["table1", "--scale", "reduced"]) == 0
        default = capsys.readouterr().out
        assert main(["table1", "--scale", "reduced",
                     "--machine", "64L-AraXL"]) == 0
        assert capsys.readouterr().out == default

    def test_no_experiments_is_an_error(self):
        from repro.eval.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_experiment_is_an_error(self):
        from repro.eval.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["fig66"])
        assert exc.value.code == 2

    def test_unknown_machine_is_an_error(self):
        from repro.eval.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--machine", "no-such-machine"])
        assert exc.value.code == 2
