"""Harness runners: statistics, stream layout, fits, worker invariance."""

import dataclasses
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from nestmc.allocation import FixedInner, FixedOuter, TauPower
from nestmc.estimators import nmc_estimate, nmc_replications
from nestmc.harness import (_fill_replications, compare_policies, fit_loglog_slope,
                            run_bias, run_collapsed_convergence, run_convergence,
                            run_fixed_inner)
from nestmc.models import CATALOG, bias_quadratic_expected_value
from nestmc.rng import make_root

# The slow runners below use every core; their values do not depend on it.
WORKERS = os.cpu_count() or 1


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
    # A schedule key that names no row's budget is refused, not ignored.
    with pytest.raises(ValueError, match="T=17"):
        run_convergence(p, TauPower(1, 1), [16, 64], 40, make_root(1),
                        rep_schedule={17: 3})
    with pytest.raises(ValueError, match="T=17"):
        run_collapsed_convergence(CATALOG["linear-gauss"](), [16, 64], 40, make_root(1),
                                  rep_schedule={16: 3, 17: 3})
    with pytest.raises(ValueError, match="T=20"):
        run_fixed_inner(p, 4, [4, 16], 40, make_root(1), rep_schedule={20: 3})


def test_convergence_row_streams_are_positional():
    # Row r of a sweep replays exactly nmc_estimate on s.split(row).split(rep).
    p = CATALOG["gauss-log"]()
    s = make_root(3)
    rep = run_convergence(p, TauPower(1, 1), [16, 64], 2, s)
    expected = np.mean([nmc_estimate(p, 8, 8, s.split(1).split(r)).value
                        for r in range(2)])
    assert rep.rows[1].mean == pytest.approx(expected, rel=1e-15)


# ------------------------------------------------------------ _fill_replications

def _recording_span(log, ended=None, fail_at=None, pause=0.003):
    """A span that logs (thread, live threads, lo) and sleeps, so threads interleave."""
    def span(row, lo, hi):
        log.append((threading.get_ident(), threading.active_count(), lo))
        time.sleep(pause)
        if lo == fail_at:
            raise RuntimeError(f"span at {lo} failed")
        if ended is not None:
            ended.append(lo)
        return np.arange(lo, hi, dtype=float), np.zeros(hi - lo)
    return span


@pytest.mark.parametrize("workers", [1, 2])
def test_calling_thread_is_worker_zero(monkeypatch, workers):
    # Two workers on any machine: the clamp to the core count is not under test.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    log, me, live = [], threading.get_ident(), threading.active_count()
    out = _fill_replications([(_recording_span(log), None, 8)] * 4, workers)
    assert all(np.array_equal(vals, np.arange(8.0)) for vals, _ in out)
    threads = {t for t, _, _ in log}
    if workers == 1:
        # One span per job, all on this thread, and no thread is started.
        assert [lo for _, _, lo in log] == [0] * 4
        assert threads == {me} and max(n for _, n, _ in log) == live
    else:
        assert len(log) == 32 and me in threads and len(threads) <= 2
    assert threading.active_count() == live


def test_failed_span_stops_the_schedule(monkeypatch):
    # 32 spans of 4 replications on two workers; the second span fails.  No
    # span starts after it (a few may start while it runs), and the started
    # ones finish before the raise.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    log, ended = [], []
    jobs = [(_recording_span(log, ended, fail_at=4), None, 32)]
    jobs += [(_recording_span(log, ended), None, 32)] * 3
    with pytest.raises(RuntimeError, match="span at 4 failed"):
        _fill_replications(jobs, 2)
    assert 2 <= len(log) <= 8
    assert len(ended) == len(log) - 1


def test_every_span_runs_once_under_fast_thread_switching(monkeypatch):
    # More workers than this machine has cores, switching threads every
    # microsecond: a span taken twice or never would show in a log or a value.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    logs = [[] for _ in range(5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = _fill_replications([(_recording_span(log, pause=0), None, 400) for log in logs], 8)
    finally:
        sys.setswitchinterval(interval)
    for log, (vals, _) in zip(logs, out):
        assert sorted(lo for _, _, lo in log) == list(range(0, 400, 13))
        assert np.array_equal(vals, np.arange(400.0))


# Rows of many, four and three replications per block (N*M = 2**6, 2**14 and
# 2**14 + 1), and at and one above the block budget of 2**16 elements.
@pytest.mark.parametrize("N,M", [(8, 8), (128, 128), (113, 145), (256, 256), (131, 501)])
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
    # 4x4 and 130x130: rows of 4096 and 3 replications per block.
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
    # each of the two threads draws them into its own pooled buffers.
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
                          make_root(7), workers=WORKERS)
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


def test_bias_fit_notes_a_nan_mean_error():
    # log(w - 1) is NaN for every term (w < 1 on gauss-log), so no
    # replication is finite: converge and bias both note the degenerate fit
    # instead of raising.
    p = dataclasses.replace(CATALOG["gauss-log"](), f=lambda y, w: np.log(w - 1.0))
    conv = run_convergence(p, TauPower(1, 1), [16, 64], 3, make_root(0))
    assert conv.fit is None and conv.fit_note.startswith("fewer than 2 usable rows")
    rep = run_bias(p, 2, [2, 8], 3, make_root(0))
    assert rep.fit is None
    assert rep.fit_note == "degenerate: zero mean error"
    assert all(math.isnan(r.mean_error) for r in rep.rows)


def test_non_finite_replications_stay_out_of_mean_error_and_mse():
    # One outer draw per replication and a term that is NaN for y <= 0: some
    # replications are NaN, and bias rows and policy races average the
    # finite ones, as converge rows do.
    base = CATALOG["gauss-log"]()
    p = dataclasses.replace(base, f=lambda y, w: np.where(y > 0, np.log(w), np.nan))
    row = make_root(3).split(0)
    vals = nmc_replications(p, 1, 8, row, 0, 40)[0]
    used = vals[np.isfinite(vals)]
    assert 0 < used.size < vals.size
    rep = run_bias(p, 1, [8], 40, make_root(3))
    assert rep.rows[0].mean_error == float(np.mean(used)) - base.truth
    assert rep.rows[0].se == float(np.sqrt(np.var(used, ddof=1) / used.size))
    ranking = compare_policies(p, 8, [FixedOuter(1)], 40, row)
    assert ranking.results[0].mse == float(np.mean((used - base.truth) ** 2))


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
    rep = run_fixed_inner(p, 5, [10**4, 10**5], 150, make_root(13), workers=WORKERS)
    assert [r.N for r in rep.rows] == [10**4, 10**5]
    assert all(r.M == 5 for r in rep.rows)
    ratio = rep.rows[0].mse / rep.rows[1].mse
    assert 0.8 <= ratio <= 1.5

    coupled = run_convergence(p, TauPower(1, 1), [5 * 10**4, 5 * 10**5], 150,
                              make_root(13), workers=WORKERS)
    assert coupled.rows[0].mse / coupled.rows[1].mse > 2.0


def test_fixed_inner_plateau_level():
    p = CATALOG["bias-quad-pos"]()
    rep = run_fixed_inner(p, 5, [10**5], 150, make_root(13), workers=WORKERS)
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
    # Replication r of every policy replays nmc_estimate on s.split(r): a
    # 128x128 shape of four replications per block, 2x8200 of three.
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
