"""Experiment orchestration: convergence sweeps, bias sweeps, policy races.

Every runner follows the same pattern: a grid of configurations, R
independent replications per grid row on streams derived from
``s.split(row_index).split(rep_index)``, and summary statistics against
the model's exact truth.  Stream assignment by index makes every report
bit-identical across runs and worker counts.  A sweep hands the
replications of all its rows to one scheduler call (``_fill_replications``),
whose calling thread is its first worker, so one worker starts no thread.
Every row is evaluated a block of replications at a time
(``nmc_replications``, ``collapsed_replications``), whatever the model's
samplers.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .allocation import AllocationPolicy, FixedInner, split_budget
# nmc_estimate is unused here; it stays bound for bench/tracing.py, which wraps it.
from .estimators import collapsed_replications, nmc_estimate, nmc_replications
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


# span(row_stream, lo, hi) -> (values, degenerate_fracs) of replications lo..hi-1,
# e.g. partial(nmc_replications, p, N, M).
_SpanFn = Callable[[RngStream, int, int], tuple]


def _fill_replications(jobs: Sequence[Tuple[_SpanFn, RngStream, int]], workers: int) -> list:
    """(values, degenerate_fracs) of R replications of each job (span, row_stream, R).

    Replication r of a job uses the stream row_stream.split(r).  Every
    job's replications are cut into spans, and the calling thread and
    workers - 1 pool threads take them in turn from one list, so one
    worker starts no thread.  Spans only affect scheduling; values land at
    [r] regardless, so output is identical for any worker count.  Workers
    never outnumber the machine's cores.  After a span fails no span
    starts; the started ones finish, then the error is raised.
    """
    workers = min(workers, os.cpu_count() or 1)
    out, tasks = [], []
    for span, row, R in jobs:
        vals, degf = np.empty(R), np.empty(R)
        out.append((vals, degf))
        step = R if workers <= 1 else max(1, math.ceil(R / (workers * 4)))
        tasks += [(span, row, lo, min(lo + step, R), vals, degf) for lo in range(0, R, step)]
    todo = iter(tasks)  # next() on a list iterator is atomic under the GIL

    def drain():
        try:
            for span, row, lo, hi, vals, degf in todo:
                vals[lo:hi], degf[lo:hi] = span(row, lo, hi)
        except BaseException:
            deque(todo, maxlen=0)
            raise

    with ThreadPoolExecutor(max_workers=workers) as ex:
        helpers = [ex.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return out


def _row_statistics(vals: np.ndarray, degf: np.ndarray, truth: float) -> tuple:
    """(mean, se, mse, mse_se, degenerate_frac) over a row's finite replications.

    se is the standard error of the mean and mse_se that of the MSE; both
    are NaN below two finite replications, and every field but the
    degenerate fraction is NaN with none.
    """
    used = vals[np.isfinite(vals)]
    degenerate_frac = float(np.mean(degf))
    if used.size == 0:
        return math.nan, math.nan, math.nan, math.nan, degenerate_frac
    sq = (used - truth) ** 2
    se = mse_se = math.nan
    if used.size >= 2:
        se = float(np.sqrt(np.var(used, ddof=1) / used.size))
        mse_se = float(np.sqrt(np.var(sq, ddof=1) / used.size))
    return float(np.mean(used)), se, float(np.mean(sq)), mse_se, degenerate_frac


def _check_reps(R: int, rep_schedule: Optional[Mapping[int, int]]) -> None:
    if R < 2:
        raise ValueError(f"need R >= 2 replications, got {R}")
    if rep_schedule:
        for T, r in rep_schedule.items():
            if r < 2:
                raise ValueError(f"rep schedule for T={T} must be >= 2, got {r}")


def _sweep(p: NestedProblem, splits: Sequence[Tuple[int, int, int]], R: int, s: RngStream,
           span_for: Callable[[int, int], _SpanFn],
           rep_schedule: Optional[Mapping[int, int]], workers: int) -> list:
    """(reps, *_row_statistics) of each row (T, N, M) of `splits`.

    Row idx draws its replications with span_for(N, M) on s.split(idx):
    rep_schedule[T] of them when the schedule names T, R otherwise.  A
    schedule key that is no row's T raises ValueError before any draw.
    """
    truth = _require_truth(p)
    _check_reps(R, rep_schedule)
    unknown = sorted(set(rep_schedule or ()) - {T for T, _, _ in splits})
    if unknown:
        raise ValueError(f"rep schedule names T={unknown[0]}, which is no row's budget "
                         f"(rows: T={', '.join(str(T) for T, _, _ in splits)})")
    reps = [int(rep_schedule[T]) if rep_schedule and T in rep_schedule else R
            for T, _, _ in splits]
    jobs = [(span_for(N, M), s.split(idx), R_T)
            for idx, ((_, N, M), R_T) in enumerate(zip(splits, reps))]
    return [(R_T, *_row_statistics(vals, degf, truth))
            for R_T, (vals, degf) in zip(reps, _fill_replications(jobs, workers))]


def _fit(points: Sequence[Tuple[float, float]], zero_note: str) -> tuple:
    """(fit, note): the log-log fit of `points`, or None and why none was made."""
    if len(points) < 2:
        return None, "fewer than 2 usable rows for the slope fit"
    if any(not (y > 0) for _, y in points):
        return None, zero_note
    return fit_loglog_slope(points), ""


def _convergence(p: NestedProblem, policy: Optional[AllocationPolicy],
                 splits: Sequence[Tuple[int, int, int]], R: int, s: RngStream,
                 span_for: Callable[[int, int], _SpanFn],
                 rep_schedule: Optional[Mapping[int, int]], drop_smallest: int,
                 workers: int) -> ConvergenceReport:
    stats = _sweep(p, splits, R, s, span_for, rep_schedule, workers)
    if drop_smallest < 0:
        raise ValueError(f"drop_smallest must be >= 0, got {drop_smallest}")
    rows = tuple(ConvergenceRow(T=T, N=N, M=M, reps=reps, mean=mean, mse=mse, mse_se=mse_se,
                                degenerate_frac=dfrac,
                                flagged=dfrac >= DEGENERATE_ROW_THRESHOLD)
                 for (T, N, M), (reps, mean, _, mse, mse_se, dfrac) in zip(splits, stats))
    fit, note = _fit([(r.T, r.mse) for r in rows[drop_smallest:] if not r.flagged],
                     "degenerate: zero MSE")
    return ConvergenceReport(model=p.name, policy=policy, rows=rows,
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
    splits = [(T, *split_budget(policy, T)) for T in _budget_list(budgets)]
    span_for = lambda N, M: partial(nmc_replications, p, N, M)
    return _convergence(p, policy, splits, R, s, span_for, rep_schedule, drop_smallest, workers)


def run_collapsed_convergence(p: NestedProblem, Ns: Sequence[int], R: int, s: RngStream, *,
                              rep_schedule: Optional[Mapping[int, int]] = None,
                              drop_smallest: int = 0, workers: int = 1) -> ConvergenceReport:
    """MSE of the collapsed (single-expectation) estimator across an N grid.

    Each outer draw consumes one joint sample, so T = N and the M column
    is 1.  Requires a model with linear_g.
    """
    splits = [(N, N, 1) for N in _budget_list(Ns)]
    span_for = lambda N, M: partial(collapsed_replications, p, N)
    return _convergence(p, None, splits, R, s, span_for, rep_schedule, drop_smallest, workers)


def run_bias(p: NestedProblem, N: int, Ms: Sequence[int], R: int, s: RngStream, *,
             workers: int = 1) -> BiasReport:
    """Mean error of the nested estimator vs inner count M at fixed N.

    Fits log10 |mean error| against log10 M; rows where the model supplies
    an expected estimator value carry the prediction.  A mean error of
    exactly zero, or none at all (no finite replication), makes the log fit
    degenerate and is noted instead.
    """
    truth = _require_truth(p)
    _check_reps(R, None)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    Ms = sorted({int(M) for M in Ms})
    if Ms and Ms[0] < 1:
        raise ValueError(f"inner counts must be >= 1, got {Ms[0]}")
    splits = [(N * M, N, M) for M in Ms]
    span_for = lambda N, M: partial(nmc_replications, p, N, M)
    stats = _sweep(p, splits, R, s, span_for, None, workers)
    rows = tuple(BiasRow(M=M, N=N, reps=R, mean_error=mean - truth, se=se,
                         predicted=None if p.expected_nmc_value is None
                         else float(p.expected_nmc_value(M)) - truth)
                 for M, (_, mean, se, *_) in zip(Ms, stats))
    fit, note = _fit([(r.M, abs(r.mean_error)) for r in rows], "degenerate: zero mean error")
    return BiasReport(model=p.name, N=N, rows=rows, fit=fit, fit_note=note,
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

    Replication r of every policy reuses the same stream s.split(r), so
    policy differences are not drowned by replication noise.  All splits
    are computed first; an infeasible policy faults before any sampling.
    """
    truth = _require_truth(p)
    _check_reps(R, None)
    if not policies:
        raise ValueError("need at least one policy to compare")
    splits = [split_budget(policy, T) for policy in policies]
    jobs = [(partial(nmc_replications, p, N, M), s, R) for N, M in splits]
    stats = [_row_statistics(vals, degf, truth)[2:4]
             for vals, degf in _fill_replications(jobs, workers)]
    order = sorted(range(len(stats)), key=lambda j: (stats[j][0], j))
    results = tuple(PolicyResult(policy=policies[j], N=splits[j][0], M=splits[j][1],
                                 mse=stats[j][0], mse_se=stats[j][1], rank=rank)
                    for rank, j in enumerate(order, start=1))
    tie = len({r.mse for r in results}) < len(results)
    return PolicyRanking(model=p.name, T=int(T), reps=R, results=results,
                         tie=tie, root_seed=s.root_seed)
