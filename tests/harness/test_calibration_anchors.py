"""Regression pins for the calibrated headline numbers.

These anchor the reproduction to the paper's quantitative landmarks at
the full 10-step protocol.  If a cost-model or scheduler change moves
any of them outside the stated bands, this file fails before the
paper claims of ``repro report`` do — treat that as a calibration regression, not a
tolerance to widen casually.

Paper anchors:
  * ~974.5 Gflop/s at 128 CGs, largest problem, acc_simd.async (Fig. 9)
  * best FP efficiency ~1.17% of peak (Fig. 10)
  * strong-scaling efficiency 31.7% (small, simd.async) and
    89.9% (large, simd.async) from min CGs to 128 (Table V)
  * best async improvement ~39.3% non-vectorized / ~22.8% vectorized
    (Tables VI/VII)
"""

import pytest

from repro.harness import metrics
from repro.harness.problems import problem_by_name
from repro.harness.runner import run_experiment
from repro.harness.variants import variant_by_name

SMALL = problem_by_name("16x16x512")
LARGE = problem_by_name("128x128x512")
SIMD_ASYNC = variant_by_name("acc_simd.async")


@pytest.fixture(scope="module")
def anchor():
    def go(problem, variant_name, cgs):
        return run_experiment(problem, variant_by_name(variant_name), cgs, nsteps=10)

    return go


def test_anchor_top_gflops(anchor):
    r = anchor(LARGE, "acc_simd.async", 128)
    assert r.gflops == pytest.approx(975, rel=0.25)  # paper 974.5


def test_anchor_best_fp_efficiency(anchor):
    r = anchor(problem_by_name("64x128x512"), "acc_simd.async", 4)
    assert r.fp_efficiency == pytest.approx(0.0117, rel=0.20)  # paper 1.17%


def test_anchor_small_problem_scaling(anchor):
    base = anchor(SMALL, "acc_simd.async", 1)
    top = anchor(SMALL, "acc_simd.async", 128)
    eff = metrics.scaling_efficiency(base, top)
    assert eff == pytest.approx(0.317, abs=0.09)  # paper 31.7%


def test_anchor_large_problem_scaling(anchor):
    base = anchor(LARGE, "acc_simd.async", 8)
    top = anchor(LARGE, "acc_simd.async", 128)
    eff = metrics.scaling_efficiency(base, top)
    assert eff == pytest.approx(0.899, abs=0.13)  # paper 89.9%


def test_anchor_best_async_improvement_novec(anchor):
    best = 0.0
    for cgs in (8, 16):
        s = anchor(SMALL, "acc.sync", cgs)
        a = anchor(SMALL, "acc.async", cgs)
        best = max(best, metrics.async_improvement(s, a))
    assert best == pytest.approx(0.393, abs=0.12)  # paper 39.3%


def test_anchor_best_async_improvement_vec(anchor):
    best = 0.0
    for cgs in (8, 16):
        s = anchor(SMALL, "acc_simd.sync", cgs)
        a = anchor(SMALL, "acc_simd.async", cgs)
        best = max(best, metrics.async_improvement(s, a))
    assert best == pytest.approx(0.228, abs=0.10)  # paper 22.8%


def test_anchor_offload_boost_band(anchor):
    host = anchor(SMALL, "host.sync", 8)
    acc = anchor(SMALL, "acc.async", 8)
    large_host = anchor(LARGE, "host.sync", 8)
    large_acc = anchor(LARGE, "acc.async", 8)
    small_boost = metrics.optimization_boost(host, acc)
    large_boost = metrics.optimization_boost(large_host, large_acc)
    # paper: 2.7 (small) to 6.0 (large)
    assert small_boost == pytest.approx(2.7, abs=1.4)
    assert large_boost == pytest.approx(6.0, abs=1.5)
    assert small_boost < large_boost
