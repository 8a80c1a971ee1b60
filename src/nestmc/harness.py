"""Experiment orchestration: convergence sweeps, bias sweeps, policy races.

Every runner follows the same pattern: a grid of configurations, R
independent replications per grid row on streams derived from
``split(split(s, row_index), rep_index)``, and summary statistics against
the model's exact truth.  Stream assignment by index makes every report
bit-identical across runs and worker counts.  Models with batch samplers
are evaluated a block of replications at a time (``nmc_replications``,
``collapsed_replications``); the others go replication by replication, with
the same values either way.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .allocation import AllocationPolicy, FixedInner, split_budget
from .estimators import (collapsed_estimate, collapsed_replications, nmc_estimate,
                         nmc_replications)
from .problem import NestedProblem
from .rng import RngStream

__all__ = [
    "SlopeFit",
    "ConvergenceRow",
    "ConvergenceReport",
    "BiasRow",
    "BiasReport",
    "PolicyResult",
    "PolicyRanking",
    "fit_loglog_slope",
    "run_convergence",
    "run_collapsed_convergence",
    "run_bias",
    "run_fixed_inner",
    "compare_policies",
]

# Rows whose replications show at least this fraction of degenerate inner
# terms are flagged and kept out of slope fits.
DEGENERATE_ROW_THRESHOLD = 0.10


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares fit of log10 y against log10 x."""

    slope: float
    intercept: float
    residual_rms: float
    points_used: int


@dataclass(frozen=True)
class ConvergenceRow:
    T: int
    N: int
    M: int
    reps: int
    mean: float
    mse: float
    mse_se: float
    degenerate_frac: float
    flagged: bool


@dataclass(frozen=True)
class ConvergenceReport:
    model: str
    policy: Optional[AllocationPolicy]
    rows: Tuple[ConvergenceRow, ...]
    fit: Optional[SlopeFit]
    fit_note: str
    root_seed: int


@dataclass(frozen=True)
class BiasRow:
    M: int
    N: int
    reps: int
    mean_error: float
    se: float
    predicted: Optional[float]


@dataclass(frozen=True)
class BiasReport:
    model: str
    N: int
    rows: Tuple[BiasRow, ...]
    fit: Optional[SlopeFit]
    fit_note: str
    root_seed: int


@dataclass(frozen=True)
class PolicyResult:
    policy: AllocationPolicy
    N: int
    M: int
    mse: float
    mse_se: float
    rank: int


@dataclass(frozen=True)
class PolicyRanking:
    model: str
    T: int
    reps: int
    results: Tuple[PolicyResult, ...]
    tie: bool
    root_seed: int


def fit_loglog_slope(points: Sequence[Tuple[float, float]]) -> SlopeFit:
    """OLS slope of log10 y vs log10 x; exact on collinear inputs.

    Raises ValueError for fewer than 2 points or any nonpositive
    coordinate (NaN coordinates fail the positivity check too).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit a slope, got {len(pts)}")
    if not all(x > 0 and y > 0 for x, y in pts):
        raise ValueError("log-log fit needs strictly positive coordinates")
    lx = np.log10([x for x, _ in pts])
    ly = np.log10([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return SlopeFit(float(slope), float(intercept), rms, len(pts))


def _require_truth(p: NestedProblem) -> float:
    if p.truth is None:
        raise ValueError(f"model {p.name!r} has no exact truth; error statistics need one")
    return float(p.truth)


# span(row_stream, lo, hi) -> (values, degenerate_fracs) of replications lo..hi-1.
_SpanFn = Callable[[RngStream, int, int], tuple]


def _span(p: NestedProblem, replications: Callable, est_fn: Callable, *counts: int) -> _SpanFn:
    """Span function of one row: replications(p, *counts, row_stream, lo, hi)
    for a model with batch samplers, else est_fn(p, *counts, row_stream.split(r))
    once per replication."""
    if p.outer_batch is not None and p.inner_batch is not None:
        return lambda row_stream, lo, hi: replications(p, *counts, row_stream, lo, hi)

    def one_by_one(row_stream, lo, hi):
        ests = [est_fn(p, *counts, row_stream.split(r)) for r in range(lo, hi)]
        return (np.array([e.value for e in ests], dtype=np.float64),
                np.array([e.degenerate_count / e.n_outer for e in ests], dtype=np.float64))
    return one_by_one


def _fill_replications(span_fns: Sequence[_SpanFn], row_stream: RngStream, R: int,
                       workers: int) -> tuple:
    """Run R independent replications of each span function, assembled by index.

    Returns (values, degenerate_fracs), both of shape (len(span_fns), R).
    Replication r of every span function uses the stream row_stream.split(r).
    Spans only affect scheduling; values land at [j, r] regardless, so
    output is identical for any worker count.  The pool never has more
    threads than the machine has cores.
    """
    vals = np.empty((len(span_fns), R), dtype=np.float64)
    degf = np.empty((len(span_fns), R), dtype=np.float64)

    def fill(span):
        lo, hi = span
        for j, span_fn in enumerate(span_fns):
            vals[j, lo:hi], degf[j, lo:hi] = span_fn(row_stream, lo, hi)

    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        fill((0, R))
    else:
        step = max(1, math.ceil(R / (workers * 4)))
        spans = [(lo, min(lo + step, R)) for lo in range(0, R, step)]
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(fill, spans))
    return vals, degf


def _row_statistics(vals: np.ndarray, degf: np.ndarray, truth: float) -> tuple:
    ok = np.isfinite(vals)
    used = vals[ok]
    degenerate_frac = float(np.mean(degf))
    if used.size == 0:
        return math.nan, math.nan, math.nan, degenerate_frac
    mean = float(np.mean(used))
    sq = (used - truth) ** 2
    mse = float(np.mean(sq))
    if used.size >= 2:
        mse_se = float(np.sqrt(np.var(sq, ddof=1) / used.size))
    else:
        mse_se = math.nan
    return mean, mse, mse_se, degenerate_frac


def _reps_for(T: int, R: int, rep_schedule: Optional[Mapping[int, int]]) -> int:
    if rep_schedule and T in rep_schedule:
        return int(rep_schedule[T])
    return R


def _check_reps(R: int, rep_schedule: Optional[Mapping[int, int]]) -> None:
    if R < 2:
        raise ValueError(f"need R >= 2 replications, got {R}")
    if rep_schedule:
        for T, r in rep_schedule.items():
            if r < 2:
                raise ValueError(f"rep schedule for T={T} must be >= 2, got {r}")


def _fit_rows(rows: Sequence[ConvergenceRow], drop_smallest: int,
              x_of: Callable[[ConvergenceRow], float]) -> tuple:
    if drop_smallest < 0:
        raise ValueError(f"drop_smallest must be >= 0, got {drop_smallest}")
    candidates = [r for r in rows[drop_smallest:] if not r.flagged]
    if len(candidates) < 2:
        return None, "fewer than 2 usable rows for the slope fit"
    if any(not (r.mse > 0) for r in candidates):
        return None, "degenerate: zero MSE"
    fit = fit_loglog_slope([(x_of(r), r.mse) for r in candidates])
    return fit, ""


def _convergence_sweep(p: NestedProblem, policy: Optional[AllocationPolicy],
                       splits: Sequence[Tuple[int, int, int]], R: int, s: RngStream,
                       span_for: Callable[[int, int], _SpanFn],
                       rep_schedule: Optional[Mapping[int, int]], drop_smallest: int,
                       workers: int) -> ConvergenceReport:
    truth = _require_truth(p)
    _check_reps(R, rep_schedule)
    rows = []
    for idx, (T, N, M) in enumerate(splits):
        R_T = _reps_for(T, R, rep_schedule)
        vals, degf = _fill_replications([span_for(N, M)], s.split(idx), R_T, workers)
        mean, mse, mse_se, dfrac = _row_statistics(vals[0], degf[0], truth)
        rows.append(ConvergenceRow(T=T, N=N, M=M, reps=R_T, mean=mean, mse=mse,
                                   mse_se=mse_se, degenerate_frac=dfrac,
                                   flagged=dfrac >= DEGENERATE_ROW_THRESHOLD))
    fit, note = _fit_rows(rows, drop_smallest, lambda r: float(r.T))
    return ConvergenceReport(model=p.name, policy=policy, rows=tuple(rows),
                             fit=fit, fit_note=note, root_seed=s.root_seed)


def _budget_list(budgets: Sequence[int]) -> list:
    Ts = sorted({int(T) for T in budgets})
    if not Ts:
        raise ValueError("empty budget grid")
    return Ts


def run_convergence(p: NestedProblem, policy: AllocationPolicy, budgets: Sequence[int],
                    R: int, s: RngStream, *, rep_schedule: Optional[Mapping[int, int]] = None,
                    drop_smallest: int = 0, workers: int = 1) -> ConvergenceReport:
    """MSE of the nested estimator across a budget grid under one policy.

    Each budget T is split into (N, M) by the policy; row index in the
    sorted grid and replication index address the streams.  Rows whose
    degenerate fraction reaches 10% are flagged and left out of the fit,
    as are the `drop_smallest` smallest budgets.
    """
    splits = []
    for T in _budget_list(budgets):
        N, M = split_budget(policy, T)
        splits.append((T, N, M))
    span_for = lambda N, M: _span(p, nmc_replications, nmc_estimate, N, M)
    return _convergence_sweep(p, policy, splits, R, s, span_for,
                              rep_schedule, drop_smallest, workers)


def run_collapsed_convergence(p: NestedProblem, Ns: Sequence[int], R: int, s: RngStream, *,
                              rep_schedule: Optional[Mapping[int, int]] = None,
                              drop_smallest: int = 0, workers: int = 1) -> ConvergenceReport:
    """MSE of the collapsed (single-expectation) estimator across an N grid.

    Each outer draw consumes one joint sample, so T = N and the M column
    is 1.  Requires a model with linear_g.
    """
    splits = [(N, N, 1) for N in _budget_list(Ns)]
    span_for = lambda N, M: _span(p, collapsed_replications, collapsed_estimate, N)
    return _convergence_sweep(p, None, splits, R, s, span_for,
                              rep_schedule, drop_smallest, workers)


def run_bias(p: NestedProblem, N: int, Ms: Sequence[int], R: int, s: RngStream, *,
             workers: int = 1) -> BiasReport:
    """Mean error of the nested estimator vs inner count M at fixed N.

    Fits log10 |mean error| against log10 M; rows where the model supplies
    an expected estimator value carry the prediction.  A mean error of
    exactly zero makes the log fit degenerate and is noted instead.
    """
    truth = _require_truth(p)
    _check_reps(R, None)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    rows = []
    for idx, M in enumerate(sorted({int(M) for M in Ms})):
        if M < 1:
            raise ValueError(f"inner counts must be >= 1, got {M}")
        span = _span(p, nmc_replications, nmc_estimate, N, M)
        vals = _fill_replications([span], s.split(idx), R, workers)[0][0]
        mean_error = float(np.mean(vals)) - truth
        se = float(np.sqrt(np.var(vals, ddof=1) / R))
        predicted = None
        if p.expected_nmc_value is not None:
            predicted = float(p.expected_nmc_value(M)) - truth
        rows.append(BiasRow(M=M, N=N, reps=R, mean_error=mean_error, se=se,
                            predicted=predicted))
    if len(rows) < 2:
        fit, note = None, "fewer than 2 usable rows for the slope fit"
    elif any(r.mean_error == 0 for r in rows):
        fit, note = None, "degenerate: zero mean error"
    else:
        fit = fit_loglog_slope([(r.M, abs(r.mean_error)) for r in rows])
        note = ""
    return BiasReport(model=p.name, N=N, rows=tuple(rows), fit=fit, fit_note=note,
                      root_seed=s.root_seed)


def run_fixed_inner(p: NestedProblem, M: int, Ns: Sequence[int], R: int, s: RngStream, *,
                    rep_schedule: Optional[Mapping[int, int]] = None,
                    drop_smallest: int = 0, workers: int = 1) -> ConvergenceReport:
    """MSE vs N with the inner count pinned at M.

    Exposes the bias plateau: as N grows the MSE stops decaying and
    flattens at the squared expected bias.  Rows are keyed by N through
    budgets T = N*M, so stream assignment matches run_convergence with a
    fixed-inner policy.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    budgets = [int(N) * M for N in Ns]
    return run_convergence(p, FixedInner(M), budgets, R, s,
                           rep_schedule=rep_schedule, drop_smallest=drop_smallest,
                           workers=workers)


def compare_policies(p: NestedProblem, T: int, policies: Sequence[AllocationPolicy],
                     R: int, s: RngStream, *, workers: int = 1) -> PolicyRanking:
    """Race allocation policies at one total budget with common random numbers.

    Replication r of every policy reuses the same stream split(s, r), so
    policy differences are not drowned by replication noise.  All splits
    are computed first; an infeasible policy faults before any sampling.
    """
    truth = _require_truth(p)
    _check_reps(R, None)
    if not policies:
        raise ValueError("need at least one policy to compare")
    splits = [split_budget(policy, T) for policy in policies]
    spans = [_span(p, nmc_replications, nmc_estimate, N, M) for N, M in splits]
    vals, _ = _fill_replications(spans, s, R, workers)
    errs = vals - truth

    stats = []
    for j, (N, M) in enumerate(splits):
        sq = errs[j] ** 2
        mse = float(np.mean(sq))
        mse_se = float(np.sqrt(np.var(sq, ddof=1) / R))
        stats.append((mse, j, N, M, mse_se))
    order = sorted(range(len(stats)), key=lambda j: (stats[j][0], j))
    results = []
    for rank_pos, j in enumerate(order, start=1):
        mse, _, N, M, mse_se = stats[j]
        results.append(PolicyResult(policy=policies[j], N=N, M=M, mse=mse,
                                    mse_se=mse_se, rank=rank_pos))
    mses = [r.mse for r in results]
    tie = len(set(mses)) < len(mses)
    return PolicyRanking(model=p.name, T=int(T), reps=R, results=tuple(results),
                         tie=tie, root_seed=s.root_seed)
