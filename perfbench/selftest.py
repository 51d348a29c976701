"""The benchmark's own tests, at reduced size.

Each workload runs once untraced and twice traced with ``--scale
reduced`` (small problems, a handful of fuzz seeds).  The tests check
that every metric ``BENCHMARK.json`` names is emitted with its unit,
that the outputs verify, and that the traced counts repeat exactly::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int, root: Path = bench.ROOT,
           seed: int = 3) -> subprocess.CompletedProcess:
    """One reduced-size benchmark run from ``root``."""
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "reduced"],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_spec_matches_the_metric_tables():
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert declared == list(table)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = result_of(invoke(workload, 0))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_counts(workload):
    first = result_of(invoke(workload, 1))["metrics"]
    second = result_of(invoke(workload, 1))["metrics"]
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert first[spec["name"]]["unit"] == spec["unit"]
    for name in bench.repeating_counts(workload):
        assert first[name]["value"] == second[name]["value"], name
    if workload == "paper-warm":
        assert first["functional.runs"]["value"] == 0
        assert first["trace_store.misses"]["value"] == 0
        assert first["trace_store.put_s"]["value"] == 0


def test_missing_entry_points_and_sweeps_fail_the_count_checks():
    from tracer import Tracer

    tracer = Tracer()
    tracer.missing.append("ReplayPlan.from_trace")
    metrics = {"parallel.recovered_total": 0, "functional.runs": 0,
               "trace_store.misses": 0}
    problems = bench.count_checks(
        bench.Workload("paper-warm", 3, "reduced"), tracer, metrics)
    assert any("ReplayPlan.from_trace" in p for p in problems)
    assert any("run_fig6" in p for p in problems)
    assert any("run_table3" in p for p in problems)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("paper-warm", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
