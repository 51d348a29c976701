"""Table III — PPA comparison (fmatmul @ 512 B/lane operating point)."""

import pytest

from repro.eval.table3_ppa import PAPER_TABLE3, render_table3, run_table3

from conftest import save_output


def test_table3_ppa(benchmark, pool):
    points = benchmark.pedantic(run_table3,
                                kwargs={"scale": "reduced", "pool": pool},
                                rounds=1, iterations=1)
    save_output("table3_ppa", render_table3(points))
    by_machine = {p.machine: p for p in points}
    for machine, paper in PAPER_TABLE3.items():
        if machine not in by_machine:
            continue  # Vitruvius+ is a static reference row
        pt = by_machine[machine]
        assert pt.freq_ghz == pytest.approx(paper["freq"], rel=0.02)
        assert pt.gflops == pytest.approx(paper["gflops"], rel=0.10)
        assert pt.gflops_per_watt == pytest.approx(paper["gflops_w"],
                                                   rel=0.10)
        assert pt.gflops_per_mm2 == pytest.approx(paper["gflops_mm2"],
                                                  rel=0.10)
    # Headline: 64L AraXL reaches ~146 GFLOPs at ~40 GFLOPs/W.
    big = by_machine["64L-AraXL"]
    assert big.gflops == pytest.approx(146.0, rel=0.05)
