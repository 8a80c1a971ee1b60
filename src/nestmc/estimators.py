"""Monte Carlo estimators: plain, nested, depth-recursive, collapsed.

Every estimator is a pure function of its stream: repeated calls with the
same stream are bit-identical, and the per-draw stream layout (outer draw n
on child <0,n>, inner block n on child <1,n>, inner draw m on grandchild m)
makes results independent of evaluation order and worker count.

One block driver (``_replicate`` over ``_outer_terms``) draws every plain,
nested and collapsed estimate, for one replication or a span of a row's.
Its blocks depend on (N, M) alone, and every mean runs over a contiguous
last axis, so block grouping never changes a value.  Each span draws into
one block-sized ``Workspace`` taken from an idle list, so the blocks of a
span, and the spans after it, reuse the same buffers.  Samplers come from
``NestedProblem.batch_samplers``: a model without batch samplers has its
scalar ones run stream by stream under the same blocks, with the same
values bit for bit.  ``nmc_estimate_depth`` is the scalar reference.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .problem import NestedProblem, ProblemTree
from .rng import RngStream, Workspace, index_hash, split

__all__ = [
    "Estimate",
    "mc_estimate",
    "nmc_estimate",
    "nmc_replications",
    "nmc_estimate_depth",
    "collapsed_estimate",
    "collapsed_replications",
]

# Max elements per sampling block and max inner draws per pairwise mean,
# sized to stay cache-resident (the draw pipeline makes many passes over
# each block).  Block edges depend only on (N, M), never on worker count,
# so blocking cannot affect determinism.
_CHUNK = 1 << 16

# Max elements per replication block: rows of N*M <= _REP_BLOCK draw
# _REP_BLOCK // (N*M) replications at a time.  Smaller than _CHUNK to keep
# peak memory low.
_REP_BLOCK = 1 << 14

# Idle workspaces of _CHUNK elements.  A span of the block driver takes one
# and gives it back, so its buffers are faulted in once per process rather
# than once per block.  A list rather than a threading.local, because the
# harness makes a new thread pool per row; list.pop and append are atomic.
_IDLE_WORKSPACES: list = []


@contextmanager
def _workspace():
    try:
        ws = _IDLE_WORKSPACES.pop()
    except IndexError:
        ws = Workspace(_CHUNK)
    try:
        yield ws
    finally:
        _IDLE_WORKSPACES.append(ws)


@dataclass(frozen=True)
class Estimate:
    """Result of one estimator call.

    ``n_inner`` is 0 for non-nested estimates and 1 for the collapsed
    estimator (one joint inner draw per outer draw).  ``degenerate_count``
    counts outer terms whose f value was not finite and was excluded from
    the average; an estimate with every term degenerate is invalid and
    carries a NaN value.
    """

    value: float
    n_outer: int
    n_inner: int
    total_draws: int
    seed_path: tuple
    degenerate_count: int = 0
    depth_counts: Optional[tuple] = None

    @property
    def valid(self) -> bool:
        return self.degenerate_count < self.n_outer


def _finalize(fv: np.ndarray) -> tuple:
    """Exclude-and-count reduction of each row of outer terms (the last axis).

    Returns (values, degenerate counts); an all-degenerate row has value NaN.
    Sum over count is np.mean's own arithmetic, without its call overhead.
    """
    finite = np.isfinite(fv)
    degenerate = fv.shape[-1] - np.add.reduce(finite, axis=-1)
    values = np.add.reduce(fv, axis=-1) / fv.shape[-1]
    for k in np.flatnonzero(degenerate):
        values[k] = np.mean(fv[k][finite[k]]) if degenerate[k] < fv.shape[-1] else np.nan
    return values, degenerate


def _estimate(fv: np.ndarray, s: RngStream, n_inner: int, total_draws: int,
              depth_counts: Optional[tuple] = None) -> Estimate:
    """Estimate from one replication's outer terms, reduced by _finalize."""
    values, degenerate = _finalize(fv[None])
    return Estimate(value=float(values[0]), n_outer=fv.size, n_inner=n_inner,
                    total_draws=total_draws, seed_path=s.path,
                    degenerate_count=int(degenerate[0]), depth_counts=depth_counts)


def mc_estimate(sampler: Callable, integrand: Callable, N: int, s: RngStream,
                sampler_batch: Optional[Callable] = None) -> Estimate:
    """Plain Monte Carlo mean of integrand(y) with y_n drawn from split(s, n).

    Without ``sampler_batch`` the integrand sees one scalar draw at a time:
    integrand(sampler(stream)) runs on each stream.  ``sampler_batch``, when
    given, draws one y per stream of a StreamBatch and the integrand gets the
    array; it must reproduce the scalar sampler's draws exactly, and only
    changes speed, never values.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if sampler_batch is not None:
        terms = lambda b, idx: integrand(sampler_batch(b.split_many(idx)))
    else:
        terms = lambda b, idx: b.split_many(idx).each(lambda sn: integrand(sampler(sn)))
    vals = _single(terms, s, N, 1)
    return Estimate(
        value=float(np.mean(vals)),
        n_outer=N,
        n_inner=0,
        total_draws=N,
        seed_path=s.path,
        depth_counts=(N,),
    )


def _chunked_mean(values_for: Callable, count: int):
    """Mean over the last axis of `count` values produced range-wise by values_for(lo, hi).

    One pairwise sum over count, as np.mean takes it, when everything fits
    in one chunk; otherwise chunk sums combined once and divided.  Chunk
    edges depend only on count.
    """
    if count <= _CHUNK:
        return np.add.reduce(values_for(0, count), axis=-1) / count
    parts = [np.add.reduce(values_for(lo, min(lo + _CHUNK, count)), axis=-1)
             for lo in range(0, count, _CHUNK)]
    return np.add.reduce(np.stack(parts, axis=-1), axis=-1) / count


def _outer_terms(terms: Callable, reps, N: int, M: int) -> np.ndarray:
    """The N outer terms of every replication in `reps`, on the last axis.

    `reps` is a StreamBatch of replication streams (shape () for one), and
    terms(reps, idx) gives the terms of outer draws `idx` of each.  Outer
    draws go max(1, _CHUNK // M) at a time.
    """
    step = max(1, _CHUNK // M)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.concatenate([terms(reps, np.arange(lo, min(lo + step, N), dtype=np.uint64))
                               for lo in range(0, N, step)], axis=-1)


def _replicate(terms: Callable, N: int, M: int, row: RngStream, lo: int, hi: int) -> tuple:
    """(values, degenerate fractions) of replications lo..hi-1 on row.split(r).

    Replications are drawn max(1, _REP_BLOCK // (N*M)) at a time.
    """
    step = max(1, _REP_BLOCK // (N * M))
    values = np.empty(hi - lo)
    degenerate = np.empty(hi - lo)
    with _workspace() as ws:
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            reps = row.split_many(np.arange(a, b, dtype=np.uint64), ws)
            values[a - lo:b - lo], degenerate[a - lo:b - lo] = _finalize(
                _outer_terms(terms, reps, N, M))
    return values, degenerate / N


def _single(terms: Callable, s: RngStream, N: int, M: int) -> np.ndarray:
    """The N outer terms of the one replication on stream `s`."""
    with _workspace() as ws:
        return _outer_terms(terms, s.as_batch(ws), N, M)


def _nested_terms(p: NestedProblem, M: int) -> Callable:
    """Nested-estimator terms f(y_n, inner mean of M draws) for _outer_terms."""
    mhash = index_hash(np.arange(M, dtype=np.uint64))
    outer_batch, inner_batch = p.batch_samplers()

    def terms(reps, idx):
        y = outer_batch(reps.split(0).split_many(idx))
        yb = y[..., None]
        inner = reps.split(1).split_many(idx)
        w = _chunked_mean(
            lambda lo, hi: p.phi(yb, inner_batch(inner.split_hashed(mhash[lo:hi]), yb)), M)
        return p.f(y, w)
    return terms


def nmc_estimate(p: NestedProblem, N: int, M: int, s: RngStream) -> Estimate:
    """Nested Monte Carlo estimate: (1/N) sum_n f(y_n, (1/M) sum_m phi(y_n, z_nm)).

    Outer draw n comes from child stream <0,n>, its inner block from <1,n>
    with one grandchild per inner draw, so terms are independent and the
    result does not depend on evaluation order.  Non-finite f outputs are
    excluded from the average and reported in ``degenerate_count``.
    """
    if N < 1 or M < 1:
        raise ValueError(f"N and M must be >= 1, got {N}, {M}")
    return _estimate(_single(_nested_terms(p, M), s, N, M), s, M, N * M, (N, M))


def nmc_replications(p: NestedProblem, N: int, M: int, row: RngStream,
                     lo: int, hi: int) -> tuple:
    """Replications lo..hi-1 of the nested estimator on the children of `row`.

    Returns (values, degenerate_fracs), two float arrays of length hi - lo.
    Entry r - lo equals nmc_estimate(p, N, M, row.split(r)).value and its
    degenerate_count / N bit for bit, whatever the span.
    """
    if N < 1 or M < 1:
        raise ValueError(f"N and M must be >= 1, got {N}, {M}")
    return _replicate(_nested_terms(p, M), N, M, row, lo, hi)


def _tree_level(t: ProblemTree, counts: Sequence[int], s: RngStream,
                ancestors: tuple) -> np.ndarray:
    """Values of one tree level's terms; leaf levels split directly by draw."""
    N = counts[0]
    if t.child is None:
        # Return the term array so the caller controls the reduction.
        return np.array([t.integrand(ancestors, t.sampler(split(s, m), ancestors))
                         for m in range(N)], dtype=float)
    s_draw = split(s, 0)
    s_block = split(s, 1)
    out = np.empty(N, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(N):
            x = t.sampler(split(s_draw, n), ancestors)
            child_terms = _tree_level(t.child, counts[1:], split(s_block, n),
                                      ancestors + (x,))
            w = float(_chunked_mean(lambda lo, hi: child_terms[lo:hi], counts[1]))
            out[n] = t.integrand(ancestors, x, w)
    return out


def nmc_estimate_depth(t: ProblemTree, counts: Sequence[int], s: RngStream) -> Estimate:
    """Recursive nested estimate over a ProblemTree with one count per depth.

    A depth-1 tree reproduces mc_estimate; a depth-2 tree is bit-identical
    to nmc_estimate with the same stream.  Degenerate-term exclusion applies
    at the root level only (matching nmc_estimate, whose inner means are
    never excluded), and only for depth >= 2.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) != t.depth:
        raise ValueError(f"tree depth {t.depth} needs {t.depth} counts, got {len(counts)}")
    if any(c < 1 for c in counts):
        raise ValueError(f"all counts must be >= 1, got {counts}")
    terms = _tree_level(t, counts, s, ())
    total = math.prod(counts)
    if t.depth > 1:
        return _estimate(terms, s, counts[1], total, counts)
    return Estimate(
        value=float(_chunked_mean(lambda lo, hi: terms[lo:hi], counts[0])),
        n_outer=counts[0],
        n_inner=0,
        total_draws=total,
        seed_path=s.path,
        depth_counts=counts,
    )


def _collapsed_terms(p: NestedProblem) -> Callable:
    """Outer terms f(y_n, phi(y_n, z_n)), y_n and z_n drawn in order from child n."""
    outer_batch, inner_batch = p.batch_samplers()

    def terms(reps, idx):
        b = reps.split_many(idx)
        y = outer_batch(b)
        return p.f(y, p.phi(y, inner_batch(b, y)))
    return terms


def _check_collapse(p: NestedProblem, N: int) -> None:
    if p.linear_g is None:
        raise ValueError(f"model {p.name!r} has no linear_g; collapse requires linear f")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")


def collapsed_estimate(p: NestedProblem, N: int, s: RngStream) -> Estimate:
    """Single-expectation estimate for linear f: mean of f(y_n, phi(y_n, z_n)).

    Requires ``linear_g``: when f is linear in its second argument the nested
    expectation equals a single expectation over the joint draw, restoring
    the plain MC rate.  One inner draw per outer draw, both taken in order
    from child stream n; total_draws = N.
    """
    _check_collapse(p, N)
    return _estimate(_single(_collapsed_terms(p), s, N, 1), s, 1, N)


def collapsed_replications(p: NestedProblem, N: int, row: RngStream,
                           lo: int, hi: int) -> tuple:
    """Replications lo..hi-1 of the collapsed estimator on the children of `row`.

    Returns (values, degenerate_fracs) equal bit for bit to
    collapsed_estimate(p, N, row.split(r)), as nmc_replications does for
    the nested estimator.
    """
    _check_collapse(p, N)
    return _replicate(_collapsed_terms(p), N, 1, row, lo, hi)
