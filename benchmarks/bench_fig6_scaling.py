"""Fig 6 — weak-scaling performance + FPU utilization, all six kernels.

The heavyweight experiment of the paper: 6 kernels x 6 machines x 4
vector lengths.  Problem sizes use the Table I shapes with the
non-vectorized dimensions reduced (same per-point behaviour, minutes
instead of tens of minutes); acceptance checks assert the paper's
headline shapes.
"""

import pytest

from repro.eval.fig6_scaling import render_fig6, run_fig6

from conftest import save_output


@pytest.fixture(scope="module")
def fig6_points(pool):
    return run_fig6(scale="reduced", pool=pool)


def test_fig6_full_sweep(benchmark, fig6_points):
    points = fig6_points
    text = benchmark.pedantic(lambda: render_fig6(points), rounds=1,
                              iterations=1)
    save_output("fig6_scaling", text)

    def pt(kernel, machine, bpl):
        return next(p for p in points if p.kernel == kernel
                    and p.machine == machine and p.bytes_per_lane == bpl)

    # Linear scaling for the compute-bound kernels at 512 B/lane.
    for kernel in ("fmatmul", "fconv2d", "jacobi2d", "exp"):
        assert pt(kernel, "64L-AraXL", 512).scaling_vs_8l_ara2 \
            == pytest.approx(8.0, abs=0.5), kernel
    # High utilization on the FMA kernels (paper: 99% / 97%).
    assert pt("fmatmul", "64L-AraXL", 512).utilization > 0.95
    assert pt("fconv2d", "64L-AraXL", 512).utilization > 0.90
    # Reductions scale worse (paper: 6.1x and 7.3x).
    assert 5.5 < pt("fdotproduct", "64L-AraXL", 512).scaling_vs_8l_ara2 < 7.2
    assert 7.0 < pt("softmax", "64L-AraXL", 512).scaling_vs_8l_ara2 < 8.0
    # Medium-vector regime underutilizes everywhere.
    for kernel in ("fmatmul", "exp"):
        assert pt(kernel, "64L-AraXL", 64).utilization \
            < pt(kernel, "64L-AraXL", 512).utilization


def test_fig6_fmatmul_paper_size(benchmark, pool):
    """One full-size (Table I) fmatmul point as a timing reference."""
    points = benchmark.pedantic(
        lambda: run_fig6(kernels=("fmatmul",), bytes_per_lane=(512,),
                         scale="paper", pool=pool),
        rounds=1, iterations=1)
    pt = next(p for p in points if p.machine == "64L-AraXL")
    assert pt.utilization > 0.99  # the abstract's ">99% FPU utilization"
