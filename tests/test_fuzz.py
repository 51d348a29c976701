"""The seeded RVV program fuzzer and its differential property harness.

The per-seed property test is parameterized by the ``--fuzz-seeds`` /
``$REPRO_FUZZ_SEEDS`` knob (see ``conftest.py``); the seed is part of
the test id, so a red run names its reproducer directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigError
from repro.fuzz import (FEATURES, ProgramGen, PropertyFailure, check_case,
                        check_seed, parse_features, shrink_case)
from repro.functional.executor import Executor
from repro.functional.memory import FunctionalMemory
from repro.functional.plan import data_free
from repro.fuzz.gen import (REGIONS, canonical_features, case_from_chunks,
                            input_image)
from repro.fuzz.kernel import build_fuzz, generate_case, kernel_for_case
from repro.fuzz.properties import DEFAULT_MACHINES, default_configs
from repro.fuzz.rng import FuzzRng
from repro.isa import Assembler
from repro.kernels import zoo_builder
from repro.kernels import common
from repro.kernels.common import golden_builds, reset_skeleton_caches
from repro.machine import get_machine
from repro.sim import (CaptureTask, SimPool, TraceCache, run_pipeline,
                       trace_key)
from repro.timing.engine import TimingEngine
from repro.timing.replay_plan import ReplayPlan

_SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


@pytest.fixture(scope="module")
def machine_pair():
    return default_configs()


# ----------------------------------------------------------------------
# Three differential properties per generated program.
# ----------------------------------------------------------------------
class TestProperties:
    def test_seed_holds_all_properties(self, fuzz_seed, machine_pair):
        stats = check_seed(fuzz_seed, size=40, configs=machine_pair)
        assert stats["seed"] == fuzz_seed
        assert stats["instructions"] > 0
        # Equal VLEN means the same trace: event counts must agree.
        counts = set(stats["events"].values())
        assert len(counts) == 1

    def test_feature_subsets_hold(self, machine_pair):
        for features in ("arith,scalar,vsetvl", "fp,mask,vsetvl",
                         "mem_unit,mem_strided,mem_indexed,vsetvl"):
            check_seed(3, size=20, features=features, configs=machine_pair)


# ----------------------------------------------------------------------
# A data-free capture writes the full capture's trace.
# ----------------------------------------------------------------------
#: No masks, indexed accesses or scalar data moves: most programs drawn
#: from these features are admitted to a data-free run, where only a
#: few of the default features' are.
_DATA_FREE_FEATURES = ("arith,fp,reduce,permute,mem_unit,mem_strided,"
                       "loops,vsetvl")


class TestDataFreeCapture:
    def test_admitted_seeds_capture_the_full_trace(self):
        admitted = 0
        for seed in range(200):
            case = generate_case(seed, features=_DATA_FREE_FEATURES)
            if not data_free(case.program):
                continue
            admitted += 1
            image = np.frombuffer(input_image(seed), dtype=np.uint8)
            for vlen_bits in (2048, 8192):
                mem = FunctionalMemory()
                mem.write_bytes(REGIONS["A"][0], image)
                full = Executor(vlen_bits, mem=mem).run(case.program)
                free = Executor(vlen_bits).run(case.program, data=False)
                assert (hashlib.sha256(free.trace.blob).digest(),
                        free.retired, free.halted) == (
                    hashlib.sha256(full.trace.blob).digest(),
                    full.retired, full.halted), (seed, vlen_bits)
        # The property holds on most seeds, not on a vacuous few.
        assert admitted == 153


# ----------------------------------------------------------------------
# One functional run per VLEN group; timing checks on every machine.
# ----------------------------------------------------------------------
def _count_executor_runs(monkeypatch) -> list:
    """Count ``Executor.run`` calls from here on (one list entry each)."""
    calls: list = []
    real = Executor.run

    def counted(self, program, *args, **kwargs):
        calls.append(self.state.vlen_bits)
        return real(self, program, *args, **kwargs)

    monkeypatch.setattr(Executor, "run", counted)
    return calls


class TestGrouping:
    def test_mixed_vlen_configs_check_every_machine(self, monkeypatch):
        configs = [get_machine(name)
                   for name in ("8L-Ara2", "16L-AraXL", "8L-AraXL")]
        reset_skeleton_caches()
        case = generate_case(5, size=20)
        calls = _count_executor_runs(monkeypatch)
        stats = check_case(case, configs=configs)
        names = {config.name for config in configs}
        assert set(stats["events"]) == names
        assert set(stats["cycles"]) == names
        assert stats["events"]["8L-Ara2"] == stats["events"]["8L-AraXL"]
        assert all(cycles > 0 for cycles in stats["cycles"].values())
        # Two VLEN groups, each with a cold golden memo: the reference
        # image, the direct run and the capture, once per group.
        assert sorted(calls) == sorted([c.vlen_bits for c in configs[:2]] * 3)

    def test_executor_runs_per_check(self, monkeypatch, machine_pair):
        """The default pair shares one VLEN: a cold golden memo costs
        the reference execution, the direct run and the capture; a warm
        one only the last two."""
        reset_skeleton_caches()
        case = generate_case(9, size=20)
        calls = _count_executor_runs(monkeypatch)
        check_case(case, configs=machine_pair)
        assert len(calls) == 3
        del calls[:]
        check_case(case, configs=machine_pair)
        assert len(calls) == 2

    def test_pipeline_and_harness_share_the_reference_image(
            self, monkeypatch, machine_pair):
        """The harness builds the reference an unverified pipeline
        capture skipped, over the capture's memoized input image; a
        verified pipeline capture then reuses the harness's reference."""
        reset_skeleton_caches()
        config = machine_pair[0]
        kwargs = {"seed": 11, "size": 20, "features": "all"}
        build_fuzz(config, 64, **kwargs).capture(config, verify=False)
        builds = golden_builds()
        calls = _count_executor_runs(monkeypatch)
        check_case(generate_case(11, size=20), configs=machine_pair)
        assert golden_builds() == builds + 1
        assert len(calls) == 3
        build_fuzz(config, 64, **kwargs).capture(config, verify=True)
        assert golden_builds() == builds + 1
        assert len(calls) == 4

    def test_unverified_capture_runs_no_reference(self, monkeypatch,
                                                  machine_pair):
        """An unverified capture of a fresh case executes the program
        once and memoizes only the seed's input image."""
        reset_skeleton_caches()
        config = machine_pair[0]
        calls = _count_executor_runs(monkeypatch)
        kernel_for_case(generate_case(13, size=20), config).capture(
            config, verify=False)
        assert len(calls) == 1
        assert list(common._GOLDEN_CACHE) == [("fuzz", 13)]


class TestOracleSubject:
    def test_plan_vs_reference_subject_is_compiled_from_columns(
            self, monkeypatch, tmp_path, machine_pair):
        """The oracle's captures are uncached, so the plan it holds
        against ``replay_reference`` is compiled from the capture's own
        columns — never a plan loaded from a store, even when a store
        holding the case is configured."""
        case = generate_case(0)
        config = machine_pair[0]
        store = TraceCache(disk_dir=tmp_path)
        kernel_for_case(case, config).capture(config, cache=store,
                                              verify=False)
        assert list(tmp_path.glob("trace_*.pkl"))
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))

        def forbidden(*args, **kwargs):
            raise AssertionError("the fuzz oracle read a stored plan")

        monkeypatch.setattr(ReplayPlan, "from_section",
                            classmethod(forbidden))
        monkeypatch.setattr(TraceCache, "get", forbidden)
        compiled = []
        real = ReplayPlan.from_trace.__func__

        def counting(cls, trace):
            compiled.append(trace)
            return real(cls, trace)

        monkeypatch.setattr(ReplayPlan, "from_trace", classmethod(counting))
        check_case(case, configs=machine_pair)
        # One VLEN group: the direct run and the fresh capture (the
        # subject) each compile once, from columns the executor wrote.
        assert len(compiled) == 2
        assert all(trace._vector is None for trace in compiled)


# ----------------------------------------------------------------------
# A planted replay bug is still caught, on the machine it hits.
# ----------------------------------------------------------------------
class TestPlantedReplayBug:
    def _failures(self, machine_pair) -> list:
        found = []
        for seed in range(8):
            with pytest.raises(PropertyFailure) as info:
                check_case(generate_case(seed), configs=machine_pair)
            found.append((info.value.property, info.value.machine))
        return found

    def test_row_cost_bug_fails_plan_vs_reference(self, monkeypatch,
                                                   machine_pair):
        """One extra cycle on the last scalar row of every plan: the
        plan and the reference loop disagree on the group's first
        machine (recorded identically before VLEN grouping)."""
        real = ReplayPlan.scalar_costs

        def planted(self, scalar_cfg, l2_latency):
            costs, hits, misses = real(self, scalar_cfg, l2_latency)
            costs = costs.copy()
            costs[-1] += 1.0
            return costs, hits, misses

        monkeypatch.setattr(ReplayPlan, "scalar_costs", planted)
        assert self._failures(machine_pair) == \
            [("plan-vs-reference", "8L-Ara2")] * 8

    def test_bug_on_the_second_machine_is_caught_there(self, monkeypatch,
                                                       machine_pair):
        """A replay bug confined to 8L-AraXL, which shares the group's
        capture and runs no functional work of its own, is still caught
        on 8L-AraXL (recorded identically before VLEN grouping)."""
        real = TimingEngine.replay

        def planted(self, trace):
            report = real(self, trace)
            if self.model.name == "8L-AraXL":
                report = dataclasses.replace(report,
                                             cycles=report.cycles + 1)
            return report

        monkeypatch.setattr(TimingEngine, "replay", planted)
        assert self._failures(machine_pair) == \
            [("plan-vs-reference", "8L-AraXL")] * 8


class TestGenerator:
    def test_bit_reproducible_from_seed(self):
        a = ProgramGen(7, size=35).generate()
        b = ProgramGen(7, size=35).generate()
        assert a.program.fingerprint == b.program.fingerprint
        assert a.chunks == b.chunks

    def test_distinct_seeds_distinct_programs(self):
        fingerprints = {ProgramGen(s, size=25).generate().program.fingerprint
                        for s in range(16)}
        assert len(fingerprints) == 16

    def test_rng_streams_independent(self):
        ops = FuzzRng(5, "ops")
        ops2 = FuzzRng(5, "ops")
        data = FuzzRng(5, "data")
        first = [ops.u64() for _ in range(8)]
        assert first == [ops2.u64() for _ in range(8)]
        assert first != [data.u64() for _ in range(8)]

    # SHA-256 of input_image(seed), recorded when floats() drew its
    # words one u64() at a time.
    INPUT_IMAGE_SHA256 = {
        0: "26ed7535cf3fa2493fb576c834e28fa4305e405cba57ac7b1686b482c168403c",
        1: "58ad813f46f45bc2efc5f43f13b86e4539ad4215b464f94ae48df318f2383768",
        7: "cc72a9bcf5567d3c979a16f012dba73a878aae6ceb5d876c30a06c0775d7e88f",
        123: "81e47d47e82c4463c862830388b532327f208310ab594b5f3c2b43e29315657d",
    }

    @pytest.mark.parametrize("seed", sorted(INPUT_IMAGE_SHA256))
    def test_input_image_pinned(self, seed):
        digest = hashlib.sha256(input_image(seed)).hexdigest()
        assert digest == self.INPUT_IMAGE_SHA256[seed]

    @pytest.mark.parametrize("prior", [0, 1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 3, 5, 2048])
    def test_floats_match_word_stream(self, prior, count):
        batched = FuzzRng(3, "data")
        single = FuzzRng(3, "data")
        for _ in range(prior):
            assert batched.u64() == single.u64()
        words = np.array([single.u64() for _ in range(count)],
                         dtype=np.uint64)
        expected = (words >> np.uint64(11)).astype(np.float64) \
            * (2.0 ** -52) - 1.0
        assert batched.floats(count).tobytes() == expected.tobytes()
        assert [batched.u64() for _ in range(9)] == \
            [single.u64() for _ in range(9)]

    def test_parse_features(self):
        assert parse_features("all") == frozenset(FEATURES)
        assert parse_features("arith, fp") == frozenset({"arith", "fp"})
        assert canonical_features("fp,arith") == "arith,fp"
        with pytest.raises(ValueError):
            parse_features("arith,warp_drive")
        with pytest.raises(ValueError):
            parse_features("")


# ----------------------------------------------------------------------
# Satellite: trace-key sensitivity and cross-process stability.
# ----------------------------------------------------------------------
def _key_program(masked: bool = False, lmul: int = 1):
    asm = Assembler("keysens")
    asm.li("x1", 8)
    asm.vsetvli("x2", "x1", sew=64, lmul=lmul)
    asm.vmseq_vi("v0", "v8", 0)
    asm.vadd_vv("v8", "v8", "v8", masked=masked)
    asm.halt()
    return asm.build()


class TestTraceKey:
    def test_mask_state_changes_key(self):
        plain = trace_key(_key_program(masked=False), 8192, "s")
        masked = trace_key(_key_program(masked=True), 8192, "s")
        assert plain != masked

    def test_lmul_changes_key(self):
        one = trace_key(_key_program(lmul=1), 8192, "s")
        two = trace_key(_key_program(lmul=2), 8192, "s")
        assert one != two

    def test_equal_programs_equal_keys(self):
        assert trace_key(_key_program(), 8192, "s") \
            == trace_key(_key_program(), 8192, "s")

    def test_key_insensitive_to_machine_spec(self, machine_pair):
        case = generate_case(11, size=20)
        keys = {kernel_for_case(case, config).trace_key(config)
                for config in machine_pair}
        assert len(keys) == 1

    def test_key_stable_across_interpreter_restarts(self):
        script = (
            "from repro.fuzz.kernel import generate_case, kernel_for_case\n"
            "from repro.machine import get_machine\n"
            "config = get_machine('8L-Ara2')\n"
            "kernel = kernel_for_case(generate_case(13, size=20), config)\n"
            "print(kernel.trace_key(config))\n")
        keys = set()
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": _SRC_DIR, "PYTHONHASHSEED": "random"})
            keys.add(out.stdout.strip())
        assert len(keys) == 1
        config = get_machine("8L-Ara2")
        kernel = kernel_for_case(generate_case(13, size=20), config)
        assert str(kernel.trace_key(config)) == next(iter(keys))


# ----------------------------------------------------------------------
# Generated programs ride the unchanged capture pipeline.
# ----------------------------------------------------------------------
class TestPipelineEntry:
    def test_zoo_resolves_fuzz(self):
        assert zoo_builder("fuzz") is not None
        with pytest.raises(ConfigError):
            zoo_builder("fuzzz")

    def test_capture_task_equals_direct_run(self, machine_pair):
        config = machine_pair[0]
        kwargs = {"seed": 2, "size": 20, "features": "all"}
        pool = SimPool(workers=1, cache=TraceCache())
        try:
            task = CaptureTask.for_kernel("fuzz", config, 64, kwargs,
                                          verify=True)
            reports = run_pipeline([task], [(config, 0)], pool)
        finally:
            pool.shutdown()
        kernel = build_fuzz(config, 64, **kwargs)
        direct = kernel.run(config, verify=True)
        assert reports[0] == direct.timing

    def test_memoized_skeleton_shared(self):
        config = get_machine("8L-Ara2")
        build = zoo_builder("fuzz")
        a = build(config, 64, seed=4, size=20)
        b = build(config, 64, seed=4, size=20)
        assert a is b  # the kernel build memo serves the same KernelRun
        # And the underlying program skeleton memo is shared even across
        # the unmemoized builder.
        assert build_fuzz(config, 64, seed=4, size=20).program \
            is a.program


# ----------------------------------------------------------------------
# Satellite: forced failure demonstrates the minimizing shrink loop.
# ----------------------------------------------------------------------
class TestShrink:
    def test_forced_failure_shrinks_to_minimal_program(self):
        case = generate_case(1, size=40)
        target = next(ops[-1][0] for kind, ops in case.chunks
                      if kind == "op")

        def predicate(candidate):
            present = any(op[0] == target for _, ops in candidate.chunks
                          for op in ops)
            return f"still contains {target}" if present else None

        result = shrink_case(case, predicate)
        assert result.failure
        assert len(result.minimized.chunks) < len(case.chunks)
        # pre + (cfg?) + the guilty op + epi is the floor.
        assert len(result.minimized.chunks) <= 4
        report = result.report()
        assert "minimal reproducer for seed 1" in report
        assert target in report

    def test_shrunk_variant_still_executes(self, machine_pair):
        case = generate_case(6, size=30)
        middle = [c for c in case.chunks if c[0] in ("cfg", "op")]
        variant = case_from_chunks(
            case, [case.chunks[0]] + middle[:3] + [case.chunks[-1]])
        check_case(variant, configs=machine_pair)

    def test_predicate_must_fail_on_original(self):
        case = generate_case(0, size=10)
        with pytest.raises(ValueError):
            shrink_case(case, lambda c: None)


# ----------------------------------------------------------------------
# CLI entry point.
# ----------------------------------------------------------------------
class TestCli:
    def test_eval_fuzz_runs(self, capsys):
        from repro.eval.__main__ import main

        assert main(["fuzz", "--seeds", "2", "--fuzz-size", "15"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 2 seeds x 2 machines" in out
        assert "all 2 seeds hold" in out

    @pytest.mark.parametrize("argv", [["--seeds", "-3"],
                                      ["--fuzz-size", "-2"],
                                      ["--fuzz-size", "0"]])
    def test_eval_fuzz_rejects_bad_counts(self, argv, capsys):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["fuzz"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[0] in err and "Traceback" not in err

    def test_eval_fuzz_accepts_zero_seeds(self, capsys):
        from repro.eval.__main__ import main

        assert main(["fuzz", "--seeds", "0"]) == 0

    def test_eval_fuzz_honours_machine_flag(self, capsys):
        from repro.eval.__main__ import main

        code = main(["fuzz", "--seeds", "1", "--fuzz-size", "10",
                     "--machine", "8L-Ara2", "--machine", "8L-AraXL"])
        assert code == 0
        assert "8L-AraXL" in capsys.readouterr().out

    def test_default_machines_registered(self):
        for name in DEFAULT_MACHINES:
            assert get_machine(name) is not None


# ----------------------------------------------------------------------
# Regression: the masked-store bug the fuzzer found.
# ----------------------------------------------------------------------
class TestMaskedStoreRegression:
    def test_masked_store_with_no_active_elements(self, machine_pair):
        from repro.sim import Simulator

        asm = Assembler("empty_masked_store")
        asm.li("x1", 8)
        asm.vsetvli("x2", "x1", sew=64, lmul=1)
        asm.vmsne_vi("v0", "v8", 0)     # v8 is all zero -> empty mask
        asm.li("x3", REGIONS["S"][0])
        asm.li("x4", 16)
        asm.vsse64_v("v9", "x3", "x4", masked=True)
        asm.vid_v("v10")
        asm.vsll_vi("v10", "v10", 3)
        asm.vsuxei64_v("v9", "x3", "v10", masked=True)
        asm.halt()
        program = asm.build()
        for config in machine_pair:
            Simulator(config).run(program)  # must not raise


# ----------------------------------------------------------------------
# Regression: IEEE overflow in FP arithmetic is a result, not a warning.
# ----------------------------------------------------------------------
class TestFpWarningRegression:
    def test_overflowing_fma_seed_emits_no_runtime_warning(
            self, machine_pair):
        import warnings

        # Seed 6 drives vfmacc into float overflow; the result (inf) is
        # the defined IEEE value and must not surface as a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check_seed(6, size=40, configs=machine_pair)
