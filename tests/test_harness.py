"""Harness runners: statistics, stream layout, fits, worker invariance."""

import dataclasses
import math

import numpy as np
import pytest

from nestmc.allocation import FixedInner, FixedOuter, TauPower
from nestmc.estimators import nmc_estimate
from nestmc.harness import (compare_policies, fit_loglog_slope, run_bias,
                            run_collapsed_convergence, run_convergence,
                            run_fixed_inner)
from nestmc.models import CATALOG, bias_quadratic_expected_value
from nestmc.rng import make_root


# ------------------------------------------------------------ fit_loglog_slope

def test_slope_fit_exact_on_reciprocal():
    fit = fit_loglog_slope([(x, 4.0 / x) for x in (1, 10, 100, 1000)])
    assert abs(fit.slope + 1.0) < 1e-12
    assert abs(fit.intercept - math.log10(4.0)) < 1e-12
    assert fit.residual_rms < 1e-12
    assert fit.points_used == 4


def test_slope_fit_exact_on_constant():
    fit = fit_loglog_slope([(x, 7.0) for x in (2, 3, 5, 8)])
    assert abs(fit.slope) < 1e-12


def test_slope_fit_exact_on_inverse_sqrt():
    fit = fit_loglog_slope([(x, x**-0.5) for x in (4, 16, 64, 256)])
    assert abs(fit.slope + 0.5) < 1e-12


def test_slope_fit_faults():
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(0.0, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(float("nan"), 1.0), (2.0, 1.0)])


# ------------------------------------------------------------- run_convergence

def test_convergence_report_layout():
    p = CATALOG["gauss-log"]()
    rep = run_convergence(p, TauPower(1, 1), [256, 16, 4096], 30, make_root(7))
    assert [r.T for r in rep.rows] == [16, 256, 4096]  # sorted ascending
    assert [(r.N, r.M) for r in rep.rows] == [(4, 4), (16, 16), (64, 64)]
    assert all(r.reps == 30 for r in rep.rows)
    assert all(r.mse >= 0 and np.isfinite(r.mse) for r in rep.rows)
    assert rep.model == "gauss-log" and rep.root_seed == 7
    assert rep.fit is not None and rep.fit_note == ""


def test_convergence_requires_truth_and_enough_reps():
    p = CATALOG["gauss-log"]()
    with pytest.raises(ValueError):
        run_convergence(dataclasses.replace(p, truth=None), TauPower(1, 1),
                        [16], 10, make_root(0))
    with pytest.raises(ValueError):
        run_convergence(p, TauPower(1, 1), [16], 1, make_root(0))
    with pytest.raises(ValueError):
        run_convergence(p, TauPower(1, 1), [], 10, make_root(0))


def test_convergence_zero_mse_degenerate_note():
    rep = run_convergence(CATALOG["constant"](), TauPower(1, 1), [16, 256], 5,
                          make_root(0))
    assert rep.fit is None
    assert rep.fit_note == "degenerate: zero MSE"
    assert all(r.mse == 0.0 for r in rep.rows)


def test_convergence_rep_schedule_and_drop_smallest():
    p = CATALOG["gauss-log"]()
    rep = run_convergence(p, TauPower(1, 1), [16, 256, 4096], 40, make_root(1),
                          rep_schedule={4096: 10}, drop_smallest=1)
    assert [r.reps for r in rep.rows] == [40, 40, 10]
    assert rep.fit.points_used == 2
    with pytest.raises(ValueError):
        run_convergence(p, TauPower(1, 1), [16], 40, make_root(1),
                        rep_schedule={16: 1})
    with pytest.raises(ValueError):
        run_convergence(p, TauPower(1, 1), [16, 64], 40, make_root(1),
                        drop_smallest=-1)


def test_convergence_row_streams_are_positional():
    # Row r of a sweep replays exactly nmc_estimate on split(split(s, row), rep).
    p = CATALOG["gauss-log"]()
    s = make_root(3)
    rep = run_convergence(p, TauPower(1, 1), [16, 64], 2, s)
    expected = np.mean([nmc_estimate(p, 8, 8, s.split(1).split(r)).value
                        for r in range(2)])
    assert rep.rows[1].mean == pytest.approx(expected, rel=1e-15)


# N*M below, at and one above the replication block budget (2**14).
@pytest.mark.parametrize("N,M", [(8, 8), (128, 128), (113, 145)])
@pytest.mark.parametrize("workers", [1, 2])
def test_row_replications_equal_nmc_estimate_across_block_budget(N, M, workers):
    p = CATALOG["gauss-log"]()
    s = make_root(3)
    rep = run_convergence(p, FixedOuter(N), [N, N * M], 3, s, workers=workers)
    assert (rep.rows[1].N, rep.rows[1].M) == (N, M)
    expected = np.mean([nmc_estimate(p, N, M, s.split(1).split(r)).value
                        for r in range(3)])
    assert rep.rows[1].mean == expected


# A model without batch samplers goes one scalar estimate per replication.
_RUNNERS = {
    # 4x4 and 130x130: rows on both sides of the replication block budget.
    "convergence": lambda p, s, w: run_convergence(p, TauPower(1, 1), [16, 16900], 2, s,
                                                   workers=w),
    "bias": lambda p, s, w: run_bias(p, 6, [2, 9], 3, s, workers=w),
    "policies": lambda p, s, w: compare_policies(p, 400, [TauPower(1, 1), FixedOuter(2)], 3,
                                                 s, workers=w),
    "collapsed": lambda p, s, w: run_collapsed_convergence(p, [10, 300], 3, s, workers=w),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_reports_equal_without_batch_samplers(runner, workers):
    p = CATALOG["linear-gauss"]()
    scalar = dataclasses.replace(p, outer_batch=None, inner_batch=None)
    run = _RUNNERS[runner]
    assert run(scalar, make_root(4), workers) == run(p, make_root(4), workers)


def test_convergence_worker_count_is_invisible():
    p = CATALOG["gauss-log"]()
    base = run_convergence(p, TauPower(1, 1), [16, 256, 1024], 25, make_root(9))
    for workers in (2, 4, 8):
        assert run_convergence(p, TauPower(1, 1), [16, 256, 1024], 25,
                               make_root(9), workers=workers) == base


def test_convergence_worker_count_is_invisible_above_one_chunk():
    # M = 70000 > 2**16: each outer draw's inner draws span two chunks, and
    # each of the two threads draws them into its own workspace.
    p = CATALOG["gauss-log"]()
    run = lambda workers: run_convergence(p, FixedOuter(2), [8, 140000], 6, make_root(12),
                                          workers=workers)
    base = run(1)
    assert base.rows[1].M == 70000
    assert run(2) == base


def test_convergence_mse_strictly_decreasing_on_benchmark():
    # One sampling-noise inversion is allowed across the seven budget steps.
    p = CATALOG["gauss-log"]()
    rep = run_convergence(p, TauPower(1, 1), [4**k for k in range(2, 10)], 250,
                          make_root(7))
    mses = [r.mse for r in rep.rows]
    drops = sum(1 for a, b in zip(mses, mses[1:]) if b < a)
    assert drops >= 6


# ---------------------------------------------------- run_collapsed_convergence

def test_collapsed_sweep_rows_and_rate():
    p = CATALOG["linear-gauss"]()
    rep = run_collapsed_convergence(p, [100, 1000, 10000], 150, make_root(5))
    assert [(r.T, r.N, r.M) for r in rep.rows] == [(100, 100, 1),
                                                   (1000, 1000, 1),
                                                   (10000, 10000, 1)]
    assert rep.policy is None
    assert -1.3 < rep.fit.slope < -0.7


# -------------------------------------------------------------------- run_bias

def test_bias_report_predictions_and_fit():
    p = CATALOG["bias-quad-pos"]()
    rep = run_bias(p, 300, [32, 2, 8], 200, make_root(11))
    assert [r.M for r in rep.rows] == [2, 8, 32]
    assert all(r.N == 300 and r.reps == 200 for r in rep.rows)
    for r in rep.rows:
        assert r.predicted == bias_quadratic_expected_value(r.M)
        assert r.mean_error > 0
        assert abs(r.mean_error - r.predicted) <= 3 * r.se
    assert -1.15 < rep.fit.slope < -0.85


def test_bias_without_prediction_leaves_column_empty():
    rep = run_bias(CATALOG["gauss-log"](), 200, [2, 8], 100, make_root(11))
    assert all(r.predicted is None for r in rep.rows)
    assert all(r.mean_error < 0 for r in rep.rows)  # downward for concave log


def test_bias_zero_error_degenerate_note():
    rep = run_bias(CATALOG["constant"](), 50, [2, 4], 10, make_root(0))
    assert rep.fit is None
    assert rep.fit_note == "degenerate: zero mean error"
    assert all(r.mean_error == 0.0 for r in rep.rows)


def test_bias_faults():
    p = CATALOG["bias-quad-pos"]()
    with pytest.raises(ValueError):
        run_bias(dataclasses.replace(p, truth=None), 10, [2, 4], 10, make_root(0))
    with pytest.raises(ValueError):
        run_bias(p, 0, [2, 4], 10, make_root(0))
    with pytest.raises(ValueError):
        run_bias(p, 10, [0, 4], 10, make_root(0))


def test_bias_worker_count_is_invisible():
    p = CATALOG["bias-quad-pos"]()
    base = run_bias(p, 100, [2, 8], 60, make_root(2))
    assert run_bias(p, 100, [2, 8], 60, make_root(2), workers=8) == base


# ------------------------------------------------------------- run_fixed_inner

def test_fixed_inner_plateau_versus_coupled_policy():
    # Fixed M: MSE(1e4)/MSE(1e5) stays near 1 (plateau); the coupled policy
    # at matched budgets keeps improving by more than 2x.
    p = CATALOG["bias-quad-pos"]()
    rep = run_fixed_inner(p, 5, [10**4, 10**5], 150, make_root(13))
    assert [r.N for r in rep.rows] == [10**4, 10**5]
    assert all(r.M == 5 for r in rep.rows)
    ratio = rep.rows[0].mse / rep.rows[1].mse
    assert 0.8 <= ratio <= 1.5

    coupled = run_convergence(p, TauPower(1, 1), [5 * 10**4, 5 * 10**5], 150,
                              make_root(13))
    assert coupled.rows[0].mse / coupled.rows[1].mse > 2.0


def test_fixed_inner_plateau_level():
    p = CATALOG["bias-quad-pos"]()
    rep = run_fixed_inner(p, 5, [10**5], 150, make_root(13))
    target = bias_quadratic_expected_value(5) ** 2
    assert 0.5 * target <= rep.rows[0].mse <= 2.0 * target


# ------------------------------------------------------------ compare_policies

def test_compare_policies_ranking_and_crn():
    p = CATALOG["gauss-log"]()
    policies = [TauPower(0.5, 1), TauPower(1, 1), TauPower(2, 1)]
    ranking = compare_policies(p, 65536, policies, 150, make_root(4))
    assert [r.rank for r in ranking.results] == [1, 2, 3]
    assert ranking.results[0].policy == TauPower(1, 1)
    assert ranking.results[0].mse <= ranking.results[1].mse <= ranking.results[2].mse
    assert not ranking.tie
    assert ranking.T == 65536 and ranking.reps == 150


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_policies_common_random_numbers(workers):
    # Replication r of every policy replays nmc_estimate on split(s, r): a
    # 128x128 shape inside the replication block budget, 2x8200 above it.
    p = CATALOG["gauss-log"]()
    s = make_root(6)
    ranking = compare_policies(p, 16400, [TauPower(1, 1), FixedOuter(2)], 4, s,
                               workers=workers)
    assert sorted((r.N, r.M) for r in ranking.results) == [(2, 8200), (128, 128)]
    for res in ranking.results:
        errs = np.array([nmc_estimate(p, res.N, res.M, s.split(r)).value
                         for r in range(4)]) - p.truth
        assert res.mse == float(np.mean(errs ** 2))


def test_compare_policies_tie_flag_on_constant():
    ranking = compare_policies(CATALOG["constant"](), 256,
                               [TauPower(1, 1), FixedInner(4)], 10, make_root(0))
    assert ranking.tie
    assert all(r.mse == 0.0 for r in ranking.results)


def test_compare_policies_single_policy():
    ranking = compare_policies(CATALOG["gauss-log"](), 1024, [TauPower(1, 1)],
                               10, make_root(0))
    assert len(ranking.results) == 1 and ranking.results[0].rank == 1


def test_compare_policies_faults_before_sampling():
    p = CATALOG["gauss-log"]()
    with pytest.raises(ValueError):
        compare_policies(p, 2, [TauPower(1, 1)], 10, make_root(0))
    with pytest.raises(ValueError):
        compare_policies(p, 1024, [], 10, make_root(0))
    with pytest.raises(ValueError):
        compare_policies(dataclasses.replace(p, truth=None), 1024,
                         [TauPower(1, 1)], 10, make_root(0))


def test_compare_policies_worker_count_is_invisible():
    p = CATALOG["gauss-log"]()
    policies = [TauPower(1, 1), TauPower(2, 1)]
    base = compare_policies(p, 4096, policies, 40, make_root(8))
    assert compare_policies(p, 4096, policies, 40, make_root(8), workers=8) == base
