"""Table I — kernel peak bounds: paper law vs model law vs measured."""

import pytest

from repro.eval.table1_kernels import PAPER_TABLE1, render_table1, run_table1

from conftest import save_output


def test_table1_bounds(benchmark, pool):
    rows = benchmark.pedantic(run_table1,
                              kwargs={"scale": "reduced", "pool": pool},
                              rounds=1, iterations=1)
    save_output("table1_kernels", render_table1(rows))
    by_name = {r.kernel: r for r in rows}
    # The model implements the paper's laws exactly.
    for kernel, ref in PAPER_TABLE1.items():
        assert by_name[kernel].model_factor == pytest.approx(
            float(ref["max_perf_factor"])), kernel
    # Measured peaks approach the bounds for the compute kernels.
    assert by_name["fmatmul"].achieved_fraction > 0.95
    assert by_name["fconv2d"].achieved_fraction > 0.90
    assert by_name["jacobi2d"].achieved_fraction > 0.90
