"""Monte Carlo estimators: plain, inner, nested, depth-recursive, collapsed.

Every estimator is a pure function of its stream: repeated calls with the
same stream are bit-identical, and the per-draw stream layout (outer draw n
on child <0,n>, inner block n on child <1,n>, inner draw m on grandchild m)
makes results independent of evaluation order and worker count.

Vectorized and per-draw scalar sampling paths produce bit-identical values:
batched draws reproduce the scalar stream outputs exactly, and reductions
use numpy's pairwise mean in both layouts.  The same holds across
replications: ``nmc_replications`` evaluates a block of replications as one
(R, N, M) array, reducing each replication's contiguous last axis exactly
as ``nmc_estimate`` reduces its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .problem import NestedProblem, ProblemTree
from .rng import RngStream, index_hash, split

__all__ = [
    "Estimate",
    "mc_estimate",
    "inner_estimate",
    "nmc_estimate",
    "nmc_block_reps",
    "nmc_replications",
    "nmc_estimate_depth",
    "collapsed_estimate",
]

# Max elements materialized per sampling block, sized to stay cache-resident
# (the draw pipeline makes many passes over each block).  Chunk boundaries
# depend only on (N, M), never on worker count, so chunking cannot affect
# determinism.
_CHUNK = 1 << 16

# Max elements per replication block of nmc_replications, which draws
# _REP_BLOCK // (N*M) replications as one (R, N, M) array.  Smaller than
# _CHUNK to keep peak memory where the per-replication path had it; block
# grouping never changes values.
_REP_BLOCK = 1 << 14


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


def _batched(p: NestedProblem) -> bool:
    return p.outer_batch is not None and p.inner_batch is not None


def _finalize(fv: np.ndarray) -> tuple:
    """Exclude-and-count reduction over the outer terms."""
    mask = np.isfinite(fv)
    degenerate = int(fv.size - np.count_nonzero(mask))
    if degenerate == 0:
        return float(np.mean(fv)), 0
    if degenerate == fv.size:
        return float("nan"), degenerate
    return float(np.mean(fv[mask])), degenerate


def mc_estimate(sampler: Callable, integrand: Callable, N: int, s: RngStream,
                sampler_batch: Optional[Callable] = None) -> Estimate:
    """Plain Monte Carlo mean of integrand(y) with y_n drawn from split(s, n).

    ``sampler_batch``, when given, draws one y per stream of a StreamBatch
    and must reproduce the scalar sampler's draws exactly; it only changes
    speed, never values.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    vals = np.empty(N, dtype=float)
    if sampler_batch is not None:
        for lo in range(0, N, _CHUNK):
            hi = min(lo + _CHUNK, N)
            y = sampler_batch(s.split_many(np.arange(lo, hi, dtype=np.uint64)))
            vals[lo:hi] = integrand(y)
    else:
        for n in range(N):
            vals[n] = integrand(sampler(split(s, n)))
    return Estimate(
        value=float(np.mean(vals)),
        n_outer=N,
        n_inner=0,
        total_draws=N,
        seed_path=s.path,
        depth_counts=(N,),
    )


def _chunked_mean(values_for: Callable, count: int) -> float:
    """Mean of `count` values produced range-wise by values_for(lo, hi).

    A single pairwise np.mean when everything fits in one chunk; otherwise
    chunk sums combined once and divided.  Chunk edges depend only on count.
    """
    if count <= _CHUNK:
        return float(np.mean(values_for(0, count)))
    parts = [np.add.reduce(values_for(lo, min(lo + _CHUNK, count)))
             for lo in range(0, count, _CHUNK)]
    return float(np.add.reduce(np.array(parts)) / count)


def inner_estimate(p: NestedProblem, y, M: int, s: RngStream) -> float:
    """Inner sample mean (1/M) sum_m phi(y, z_m) with z_m from split(s, m)."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if p.inner_batch is not None:
        def values_for(lo, hi):
            z = p.inner_batch(s.split_many(np.arange(lo, hi, dtype=np.uint64)), y)
            return p.phi(y, z)
    else:
        def values_for(lo, hi):
            return np.array([p.phi(y, p.inner_sampler(split(s, m), y))
                             for m in range(lo, hi)], dtype=float)
    return _chunked_mean(values_for, M)


def _block_terms(p: NestedProblem, outer, inner, idx: np.ndarray,
                 mhash: np.ndarray) -> np.ndarray:
    """Outer terms f(y_n, inner mean) for the outer draws `idx` of every stream.

    `outer` and `inner` are a replication's <0> and <1> children, as an
    RngStream or as a StreamBatch of them; the result has their shape plus
    idx's.  The inner mean reduces the contiguous last axis of length M.
    """
    y = p.outer_batch(outer.split_many(idx))
    z = p.inner_batch(inner.split_many(idx).split_hashed(mhash), y[..., None])
    return p.f(y, np.mean(p.phi(y[..., None], z), axis=-1))


def _nmc_terms(p: NestedProblem, N: int, M: int, s: RngStream) -> np.ndarray:
    """The N outer terms f(y_n, inner mean) of the nested estimator."""
    s_outer = split(s, 0)
    s_inner = split(s, 1)
    fv = np.empty(N, dtype=float)
    rows = _CHUNK // M
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if _batched(p) and rows > 1:
            mhash = index_hash(np.arange(M, dtype=np.uint64))
            for lo in range(0, N, rows):
                idx = np.arange(lo, min(lo + rows, N), dtype=np.uint64)
                fv[lo:lo + idx.size] = _block_terms(p, s_outer, s_inner, idx, mhash)
        else:
            # No batch samplers, or M too large to batch across rows: one
            # inner estimate per outer draw, vectorized within the row if it can be.
            for n in range(N):
                y = p.outer_sampler(split(s_outer, n))
                gam = inner_estimate(p, y, M, split(s_inner, n))
                fv[n] = p.f(y, gam)
    return fv


def nmc_estimate(p: NestedProblem, N: int, M: int, s: RngStream) -> Estimate:
    """Nested Monte Carlo estimate: (1/N) sum_n f(y_n, (1/M) sum_m phi(y_n, z_nm)).

    Outer draw n comes from child stream <0,n>, its inner block from <1,n>
    with one grandchild per inner draw, so terms are independent and the
    result does not depend on evaluation order.  Non-finite f outputs are
    excluded from the average and reported in ``degenerate_count``.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    value, degenerate = _finalize(_nmc_terms(p, N, M, s))
    return Estimate(
        value=value,
        n_outer=N,
        n_inner=M,
        total_draws=N * M,
        seed_path=s.path,
        degenerate_count=degenerate,
        depth_counts=(N, M),
    )


def nmc_block_reps(p: NestedProblem, N: int, M: int) -> int:
    """Replications that nmc_replications draws per block for an N x M row.

    The count depends only on (N, M).  It is 0 when the row is not batched
    across replications: N*M above the block budget, or a model without
    batch samplers.  Such rows go replication by replication through
    nmc_estimate.
    """
    if not _batched(p) or N * M > _REP_BLOCK:
        return 0
    return _REP_BLOCK // (N * M)


def nmc_replications(p: NestedProblem, N: int, M: int, row: RngStream,
                     lo: int, hi: int) -> tuple:
    """Replications lo..hi-1 of the nested estimator on the children of `row`.

    Returns (values, degenerate_fracs), two float arrays of length hi - lo.
    Entry r - lo equals nmc_estimate(p, N, M, row.split(r)).value and its
    degenerate_count / N bit for bit, whatever the span.  Replications are
    drawn nmc_block_reps(p, N, M) at a time; rows that this returns 0 for
    are rejected.
    """
    if N < 1 or M < 1:
        raise ValueError(f"N and M must be >= 1, got {N}, {M}")
    R_blk = nmc_block_reps(p, N, M)
    if R_blk == 0:
        raise ValueError(f"an {N}x{M} row of {p.name!r} is not batched across replications")
    values = np.empty(hi - lo, dtype=np.float64)
    degenerate = np.empty(hi - lo, dtype=np.int64)
    idx = np.arange(N, dtype=np.uint64)
    mhash = index_hash(np.arange(M, dtype=np.uint64))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(lo, hi, R_blk):
            b = min(a + R_blk, hi)
            reps = row.split_many(np.arange(a, b, dtype=np.uint64))
            fv = _block_terms(p, reps.split(0), reps.split(1), idx, mhash)
            part = slice(a - lo, b - lo)
            values[part] = np.mean(fv, axis=-1)
            degenerate[part] = N - np.count_nonzero(np.isfinite(fv), axis=-1)
            # Replications with excluded terms take nmc_estimate's own reduction.
            for k in np.flatnonzero(degenerate[part]):
                values[a - lo + k] = _finalize(fv[k])[0]
    return values, degenerate / N


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
            w = _chunked_mean(lambda lo, hi: child_terms[lo:hi], counts[1])
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
    if t.depth == 1:
        value, degenerate = _chunked_mean(lambda lo, hi: terms[lo:hi], counts[0]), 0
    else:
        value, degenerate = _finalize(terms)
    total = 1
    for c in counts:
        total *= c
    return Estimate(
        value=value,
        n_outer=counts[0],
        n_inner=counts[1] if len(counts) > 1 else 0,
        total_draws=total,
        seed_path=s.path,
        degenerate_count=degenerate,
        depth_counts=counts,
    )


def collapsed_estimate(p: NestedProblem, N: int, s: RngStream) -> Estimate:
    """Single-expectation estimate for linear f: mean of f(y_n, phi(y_n, z_n)).

    Requires ``linear_g``: when f is linear in its second argument the nested
    expectation equals a single expectation over the joint draw, restoring
    the plain MC rate.  One inner draw per outer draw, both taken in order
    from child stream n; total_draws = N.
    """
    if p.linear_g is None:
        raise ValueError(f"model {p.name!r} has no linear_g; collapse requires linear f")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    fv = np.empty(N, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if _batched(p):
            for lo in range(0, N, _CHUNK):
                hi = min(lo + _CHUNK, N)
                b = s.split_many(np.arange(lo, hi, dtype=np.uint64))
                y = p.outer_batch(b)
                z = p.inner_batch(b, y)
                fv[lo:hi] = p.f(y, p.phi(y, z))
        else:
            for n in range(N):
                sn = split(s, n)
                y = p.outer_sampler(sn)
                z = p.inner_sampler(sn, y)
                fv[n] = p.f(y, p.phi(y, z))
    value, degenerate = _finalize(fv)
    return Estimate(
        value=value,
        n_outer=N,
        n_inner=1,
        total_draws=N,
        seed_path=s.path,
        degenerate_count=degenerate,
    )
