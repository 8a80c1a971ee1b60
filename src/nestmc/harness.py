"""Experiment orchestration: convergence sweeps, bias sweeps, policy races.

Every runner follows the same pattern: a grid of configurations, R
independent replications per grid row on streams derived from
``s.split(row_index).split(rep_index)``, and summary statistics against
the model's exact truth.  Stream assignment by index makes every report
bit-identical across runs and worker counts.  Every runner finishes its
own checks, then hands all its rows to ``_sweep``, which checks what every
run needs and makes one scheduler call per run (``_fill_replications``).
The calling process is its first worker, and more workers are children
made by ``os.fork`` (none where fork is missing: the count clamps to 1).  Python >= 3.12 warns when a process
with live threads forks, and ``import numpy`` may already have started
one: OpenBLAS starts a thread unless ``OPENBLAS_NUM_THREADS=1``.
Every row is evaluated a block of replications at a time
(``nmc_replications``, ``collapsed_replications``), whatever the model's
samplers.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .allocation import AllocationPolicy, FixedInner, TauPower, split_budget
# nmc_estimate is unused here; it stays bound for bench/tracing.py, which wraps it.
from .estimators import (_block_reps, _check_collapse, collapsed_replications, nmc_estimate,
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
    "run_collapse",
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

    @property
    def flagged(self) -> bool:
        return self.degenerate_frac >= DEGENERATE_ROW_THRESHOLD


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


def _shared_empty(n: int) -> np.ndarray:
    """A zero-filled float64 array of n >= 1 elements in one mapping that forked children share.

    A mapping that cannot be made raises the MemoryError that np.empty
    raises for the same request, so the error reads as numpy's.
    """
    try:
        buf = mmap.mmap(-1, n * 8)  # anonymous and MAP_SHARED
    except (OSError, OverflowError) as err:
        np.empty(n)  # raises numpy's MemoryError for a request this size
        raise MemoryError(f"cannot map {n} float64 values shared with worker processes: "
                          f"{err}") from None
    return np.frombuffer(buf, np.float64, n)


def _fill_replications(jobs: Sequence[Tuple[Callable, RngStream, int, int]],
                       workers: int) -> list:
    """(values, degenerate_fracs) of R replications of each job (span, row_stream, R, block).

    span(row_stream, lo, hi) gives the (values, degenerate_fracs) of
    replications lo..hi-1, e.g. partial(nmc_replications, p, N, M), and
    replication r of a job uses the stream row_stream.split(r).  block is
    the job's kernel block, estimators._block_reps(N, M) replications.  At
    one worker a job is one span; above it a span is the fewest whole
    blocks that hold ceil(R / 4K) replications, so every worker count draws
    the same blocks and a job has at most 4K spans.  The span table is made
    before any fork and inherited, so spans are never pickled.

    workers >= 1 is the caller's rule (`_sweep` checks it).  Worker w of
    the K = min(workers, spans) workers runs spans w, w + K, w + 2K, ... in
    index order, checking the stop flag before each one; the calling
    process is worker 0 and child k, made by os.fork, is worker k.
    Which worker runs a span is a function of the span and K alone, and
    nothing else passes between the processes but the one shared mapping.
    Workers never outnumber the spans or the CPUs this process may run on
    (its affinity set, or os.cpu_count() where that is unknown), and are 1
    where os.fork is missing.  A fork that fails ends the forking, leaving
    the shares of the workers not made to the re-run below.

    The run's values, degenerate fractions, one done flag per span and the
    stop flag are one mapping the children share (`_shared_empty`), and
    each job's arrays are slices of it.  Values land at [r] whatever the
    span, so output is identical for any worker count.  A failed span, or
    the calling process leaving by any exception, sets the stop flag, so
    no worker starts another span; the started ones finish.  A child
    reports nothing: it leaves by os._exit, whatever its spans did, so it
    flushes no buffer it inherited.  Every child is reaped, a failure of
    this process's own span is raised, and otherwise this process runs, in
    index order, every span whose done flag is unset: one that failed in a
    child, or that a child left undone or never made.  A span is a pure
    function of its stream, so it gives the same values or raises the same
    error here, with its own type and traceback.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1) if hasattr(os, "fork") else 1
    tasks = []
    for j, (_, _, R, block) in enumerate(jobs):
        step = R if workers <= 1 else math.ceil(R / (workers * 4 * block)) * block
        tasks += [(j, lo, min(lo + step, R)) for lo in range(0, R, step)]
    n = len(tasks)
    K = min(workers, n)
    starts = list(accumulate((job[2] for job in jobs), initial=0))
    total = starts[-1]
    store = _shared_empty(2 * total + n + 1)
    out = [(store[a:b], store[total + a:total + b]) for a, b in zip(starts, starts[1:])]
    done = store[2 * total:-1]  # zero until a span's values are stored
    # store[-1] is the stop flag, set once a worker leaves by an error

    def run(i):
        j, lo, hi = tasks[i]
        span, row, _, _ = jobs[j]
        vals, degf = out[j]
        vals[lo:hi], degf[lo:hi] = span(row, lo, hi)
        done[i] = 1

    def work(w):
        for i in range(w, n, K):
            if store[-1]:
                break
            run(i)

    pids = []
    try:
        for w in range(1, K):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    work(w)
                except BaseException:
                    store[-1] = 1
                    raise
                finally:
                    os._exit(0)
            pids.append(pid)
        work(0)
    except BaseException:
        store[-1] = 1
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
    for i in np.flatnonzero(done == 0):
        run(i)
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


def _grid(values: Sequence[int], what: str) -> list:
    """`values` as sorted distinct ints; an empty grid raises ValueError."""
    grid = sorted({int(v) for v in values})
    if not grid:
        raise ValueError(f"empty {what} grid")
    return grid


def _sweep(p: NestedProblem, rows: Sequence[Tuple[int, int, int, Callable, RngStream]],
           workers: int) -> list:
    """_row_statistics of each row (N, M, R, span, row_stream), from one scheduler call.

    A row draws R replications of the N x M estimator with span on the
    children of row_stream.  Every rule a run needs is checked here, for
    every caller, before any draw: the model's truth, R >= 2 for each row,
    and workers >= 1.
    """
    if p.truth is None:
        raise ValueError(f"model {p.name!r} has no exact truth; error statistics need one")
    for _, _, R, _, _ in rows:
        if R < 2:
            raise ValueError(f"need R >= 2 replications, got {R}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [(span, row, R, _block_reps(N, M)) for N, M, R, span, row in rows]
    return [_row_statistics(vals, degf, float(p.truth))
            for vals, degf in _fill_replications(jobs, workers)]


def _fit(points: Sequence[Tuple[float, float]], zero_note: str) -> tuple:
    """(fit, note): the log-log fit of `points`, or None and why none was made."""
    if len(points) < 2:
        return None, "fewer than 2 usable rows for the slope fit"
    if any(not (y > 0) for _, y in points):
        return None, zero_note
    return fit_loglog_slope(points), ""


def _convergence(p: NestedProblem, sweeps: Sequence[Tuple[Optional[AllocationPolicy], RngStream]],
                 budgets: Sequence[int], R: int, rep_schedule: Optional[Mapping[int, int]],
                 drop_smallest: int, workers: int) -> list:
    """A ConvergenceReport of the budget grid for each (policy, s) of `sweeps`, from one _sweep.

    A policy splits each budget T into (N, M); None runs the collapsed
    estimator at N = T, M = 1.  Row idx of a sweep draws on s.split(idx),
    rep_schedule[T] replications when the schedule names T and R otherwise;
    a schedule key that is no row's T raises ValueError.
    """
    if drop_smallest < 0:
        raise ValueError(f"drop_smallest must be >= 0, got {drop_smallest}")
    Ts = _grid(budgets, "budget")
    schedule = rep_schedule or {}
    for T in sorted(schedule):
        if T not in Ts:
            raise ValueError(f"rep schedule names T={T}, which is no row's budget "
                             f"(rows: T={', '.join(map(str, Ts))})")
    reps = [schedule.get(T, R) for T in Ts]
    plans = []
    for policy, _ in sweeps:
        if policy is None:
            _check_collapse(p)
            plans.append([(T, T, 1, partial(collapsed_replications, p, T)) for T in Ts])
        else:
            splits = [(T, *split_budget(policy, T)) for T in Ts]
            plans.append([(T, N, M, partial(nmc_replications, p, N, M)) for T, N, M in splits])
    stats = iter(_sweep(p, [(N, M, R_T, span, s.split(idx))
                            for (_, s), plan in zip(sweeps, plans)
                            for idx, ((_, N, M, span), R_T) in enumerate(zip(plan, reps))],
                        workers))
    reports = []  # zip takes each sweep's share of `stats` in turn
    for (policy, s), plan in zip(sweeps, plans):
        rows = tuple(ConvergenceRow(T=T, N=N, M=M, reps=R_T, mean=mean, mse=mse, mse_se=mse_se,
                                    degenerate_frac=dfrac)
                     for (T, N, M, _), R_T, (mean, _, mse, mse_se, dfrac)
                     in zip(plan, reps, stats))
        fit, note = _fit([(r.T, r.mse) for r in rows[drop_smallest:] if not r.flagged],
                         "degenerate: zero MSE")
        reports.append(ConvergenceReport(model=p.name, policy=policy, rows=rows, fit=fit,
                                         fit_note=note, root_seed=s.root_seed))
    return reports


def run_convergence(p: NestedProblem, policy: AllocationPolicy, budgets: Sequence[int],
                    R: int, s: RngStream, *, rep_schedule: Optional[Mapping[int, int]] = None,
                    drop_smallest: int = 0, workers: int = 1) -> ConvergenceReport:
    """MSE of the nested estimator across a budget grid under one policy.

    Each budget T is split into (N, M) by the policy; row index in the
    sorted grid and replication index address the streams.  Rows whose
    degenerate fraction reaches 10% are flagged and left out of the fit,
    as are the `drop_smallest` smallest budgets.
    """
    return _convergence(p, [(policy, s)], budgets, R, rep_schedule, drop_smallest, workers)[0]


def run_collapse(p: NestedProblem, budgets: Sequence[int], R: int, s: RngStream, *,
                 rep_schedule: Optional[Mapping[int, int]] = None, drop_smallest: int = 0,
                 workers: int = 1) -> Tuple[ConvergenceReport, ConvergenceReport]:
    """(collapsed, nested) convergence reports on one budget grid, drawn in one scheduler call.

    The collapsed (single-expectation) estimator, T = N and M = 1, runs on
    s.split(0); run_convergence under tau:alpha=1,c=1 on s.split(1).
    Requires a model with linear_g.
    """
    return tuple(_convergence(p, [(None, s.split(0)), (TauPower(1, 1), s.split(1))],
                              budgets, R, rep_schedule, drop_smallest, workers))


def run_bias(p: NestedProblem, N: int, Ms: Sequence[int], R: int, s: RngStream, *,
             workers: int = 1) -> BiasReport:
    """Mean error of the nested estimator vs inner count M at fixed N.

    Fits log10 |mean error| against log10 M; rows where the model supplies
    an expected estimator value carry the prediction.  A mean error of
    exactly zero, or none at all (no finite replication), makes the log fit
    degenerate and is noted instead.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    Ms = _grid(Ms, "inner-count")
    if Ms[0] < 1:
        raise ValueError(f"inner counts must be >= 1, got {Ms[0]}")
    stats = _sweep(p, [(N, M, R, partial(nmc_replications, p, N, M), s.split(idx))
                       for idx, M in enumerate(Ms)], workers)
    truth = float(p.truth)
    rows = tuple(BiasRow(M=M, N=N, reps=R, mean_error=mean - truth, se=se,
                         predicted=None if p.expected_nmc_value is None
                         else float(p.expected_nmc_value(M)) - truth)
                 for M, (mean, se, *_) in zip(Ms, stats))
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
    Ns = _grid(Ns, "outer-count")
    if Ns[0] < 1:
        raise ValueError(f"outer counts N must be >= 1, got {Ns[0]}")
    return run_convergence(p, FixedInner(M), [N * M for N in Ns], R, s,
                           rep_schedule=rep_schedule, drop_smallest=drop_smallest,
                           workers=workers)


def compare_policies(p: NestedProblem, T: int, policies: Sequence[AllocationPolicy],
                     R: int, s: RngStream, *, workers: int = 1) -> PolicyRanking:
    """Race allocation policies at one total budget with common random numbers.

    Replication r of every policy reuses the same stream s.split(r), so
    policy differences are not drowned by replication noise.  All splits
    are computed first; an infeasible policy faults before any sampling.
    """
    if not policies:
        raise ValueError("need at least one policy to compare")
    splits = [split_budget(policy, T) for policy in policies]
    stats = [st[2:4] for st in _sweep(p, [(N, M, R, partial(nmc_replications, p, N, M), s)
                                          for N, M in splits], workers)]
    order = sorted(range(len(stats)), key=lambda j: (stats[j][0], j))
    results = tuple(PolicyResult(policy=policies[j], N=splits[j][0], M=splits[j][1],
                                 mse=stats[j][0], mse_se=stats[j][1], rank=rank)
                    for rank, j in enumerate(order, start=1))
    tie = len({r.mse for r in results}) < len(results)
    return PolicyRanking(model=p.name, T=int(T), reps=R, results=results,
                         tie=tie, root_seed=s.root_seed)
