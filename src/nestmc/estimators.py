"""Monte Carlo estimators: nested and collapsed.

Every estimator is a pure function of its stream: repeated calls with the
same stream are bit-identical, and the per-draw stream layout (outer draw n
on child <0,n>, inner draw m as call m of the inner sampler on child <1,n>)
makes results independent of evaluation order and worker count.  The
kernel makes inner draws 2k and 2k+1 together, as two calls on <1,n>
skipped ahead by 2k draws, one add to its key.

One block loop (``_replicate``) draws every nested and collapsed estimate,
for one replication or a span of a row's.  One block budget, ``_CHUNK``
(2^16 elements, one pooled buffer), sizes every block, of a small row's
replications or a large row's outer draws.  Blocks depend on (N, M)
alone, and every mean runs over a contiguous last axis, so block grouping
never changes a value.  One rule, ``_block_reps``, gives a block's
replications, and the harness cuts spans above one worker at its
multiples, so every worker count draws the same blocks.  Every array of
a block comes from ``rng.take``, a pool of block-sized buffers per
thread, so the blocks of a span, and the spans after it, reuse the same
buffers.  Samplers come from
``NestedProblem.batch_samplers``: a model without batch samplers has its
scalar ones run stream by stream under the same blocks, with the same
values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problem import NestedProblem
# index_hash is unused here; it stays bound for bench/tracing.py, which wraps it.
from .rng import BUFFER_SIZE, RngStream, StreamBatch, index_hash, skip_offsets, take

__all__ = [
    "Estimate",
    "nmc_estimate",
    "nmc_replications",
    "collapsed_estimate",
    "collapsed_replications",
]

# The one block budget: max elements per sampling block, of a small row's
# replications or a large row's outer draws, and max inner draws per
# pairwise mean.  One pooled buffer, sized to stay cache-resident (the draw
# pipeline makes many passes over each block).  Block edges depend only on
# (N, M), never on worker count, so blocking cannot affect determinism.
_CHUNK = BUFFER_SIZE

@dataclass(frozen=True)
class Estimate:
    """Result of one estimator call.

    ``n_inner`` is M for the nested estimator and 1 for the collapsed
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


def _estimate(terms: Callable, s: RngStream, N: int, M: int) -> Estimate:
    """Estimate of the one replication on stream `s`, M inner draws per outer draw."""
    values, degenerate = _replicate(terms, N, M, s.as_batch())
    return Estimate(value=float(values[0]), n_outer=N, n_inner=M, total_draws=N * M,
                    seed_path=s.path, degenerate_count=round(degenerate[0] * N))


def _block_reps(N: int, M: int) -> int:
    """Replications per block of an N x M row; a span's blocks start at its first."""
    return max(1, _CHUNK // (N * M))


def _replicate(terms: Callable, N: int, M: int, reps: StreamBatch) -> tuple:
    """(values, degenerate fractions) of the replications on the streams of `reps`.

    terms(block, idx) gives the terms of outer draws `idx` of each stream
    of `block`.  Blocks hold _block_reps(N, M) replications by
    min(N, max(1, _CHUNK // M)) outer draws, so a small row's block fills
    one pooled buffer, as a large row's does.  A block's terms of all N
    outer draws go to one array made before any draw, so a row too large to
    hold fails at once.  N and M below 1 raise ValueError.
    """
    if N < 1 or M < 1:
        raise ValueError(f"N and M must be >= 1, got {N}, {M}")
    keys = reps.keys.reshape(-1)
    step, outer = _block_reps(N, M), max(1, _CHUNK // M)
    values, degenerate = np.empty(keys.size), np.empty(keys.size)
    for a in range(0, keys.size, step):
        block = StreamBatch(keys[a:a + step])
        fv = np.empty(block.shape + (N,))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, N, outer):
                fv[..., lo:lo + outer] = terms(
                    block, np.arange(lo, min(lo + outer, N), dtype=np.uint64))
        values[a:a + step], degenerate[a:a + step] = _finalize(fv)
    return values, degenerate / N


def _nested_terms(p: NestedProblem, M: int) -> Callable:
    """Nested-estimator terms f(y_n, inner mean of M draws) for _replicate.

    Inner draw m is call m of the inner sampler on <1,n>.  Pair k, draws 2k
    and 2k+1, is the first and second call on <1,n> skipped ahead by 2k
    draws; that equals calls 2k and 2k+1 in order only if the two calls
    take exactly two draws and leave no pending normal, which is checked.
    For odd M the second draw of the last pair goes unused.  Both calls'
    draws go to one array in m order, and one phi call per block.
    """
    offsets = skip_offsets(np.arange(0, M, 2, dtype=np.uint64))  # pair k skips 2k draws
    outer_batch, inner_batch = p.batch_samplers()

    def inner_phi(yb, inner, lo, hi):
        # lo is 0 or a multiple of _CHUNK, so blocks start on a pair.  z is
        # taken after the first call and the first draws are dropped before
        # the second, so neither call holds both arrays besides its own.
        pairs = inner.skip(offsets[lo // 2:(hi + 1) // 2])
        first = inner_batch(pairs, yb)
        z = take(pairs.shape[:-1] + (hi - lo,), np.float64)
        z[..., 0::2] = first
        del first
        z[..., 1::2] = inner_batch(pairs, yb)[..., :(hi - lo) // 2]
        if not pairs.settled(2):
            raise ValueError(
                f"model {p.name!r}: two calls of the inner sampler must take exactly "
                "two draws and leave no pending normal")
        return p.phi(yb, z)

    def terms(reps, idx):
        y = outer_batch(reps.split(0).split_many(idx))
        yb = y[..., None]
        inner = reps.split(1).split_many(idx)
        # One pairwise sum per chunk of _CHUNK inner draws, chunk sums combined
        # once; with one chunk that is the pairwise sum np.mean takes.
        parts = [np.add.reduce(inner_phi(yb, inner, lo, min(lo + _CHUNK, M)), axis=-1)
                 for lo in range(0, M, _CHUNK)]
        return p.f(y, np.add.reduce(np.stack(parts, axis=-1), axis=-1) / M)
    return terms


def nmc_estimate(p: NestedProblem, N: int, M: int, s: RngStream) -> Estimate:
    """Nested Monte Carlo estimate: (1/N) sum_n f(y_n, (1/M) sum_m phi(y_n, z_nm)).

    Outer draw n comes from child stream <0,n> and inner draw m from call m
    of the inner sampler on child <1,n>, so terms are independent and the
    result does not depend on evaluation order.  Raises ValueError when two
    calls of the inner sampler do not take exactly two draws (see
    ``NestedProblem``).  Non-finite f outputs are excluded from the average
    and reported in ``degenerate_count``.
    """
    return _estimate(_nested_terms(p, M), s, N, M)


def nmc_replications(p: NestedProblem, N: int, M: int, row: RngStream,
                     lo: int, hi: int) -> tuple:
    """Replications lo..hi-1 of the nested estimator on the children of `row`.

    Returns (values, degenerate_fracs), two float arrays of length hi - lo.
    Entry r - lo equals nmc_estimate(p, N, M, row.split(r)).value and its
    degenerate_count / N bit for bit, whatever the span.
    """
    return _replicate(_nested_terms(p, M), N, M, row.split_many(np.arange(lo, hi)))


def _collapsed_terms(p: NestedProblem) -> Callable:
    """Outer terms f(y_n, phi(y_n, z_n)), y_n and z_n drawn in order from child n."""
    outer_batch, inner_batch = p.batch_samplers()

    def terms(reps, idx):
        b = reps.split_many(idx)
        y = outer_batch(b)
        return p.f(y, p.phi(y, inner_batch(b, y)))
    return terms


def _check_collapse(p: NestedProblem) -> None:
    if p.linear_g is None:
        raise ValueError(f"model {p.name!r} has no linear_g; collapse requires linear f")


def collapsed_estimate(p: NestedProblem, N: int, s: RngStream) -> Estimate:
    """Single-expectation estimate for linear f: mean of f(y_n, phi(y_n, z_n)).

    Requires ``linear_g``: when f is linear in its second argument the nested
    expectation equals a single expectation over the joint draw, restoring
    the plain MC rate.  One inner draw per outer draw, both taken in order
    from child stream n; total_draws = N.
    """
    _check_collapse(p)
    return _estimate(_collapsed_terms(p), s, N, 1)


def collapsed_replications(p: NestedProblem, N: int, row: RngStream,
                           lo: int, hi: int) -> tuple:
    """Replications lo..hi-1 of the collapsed estimator on the children of `row`.

    Returns (values, degenerate_fracs) equal bit for bit to
    collapsed_estimate(p, N, row.split(r)), as nmc_replications does for
    the nested estimator.
    """
    _check_collapse(p)
    return _replicate(_collapsed_terms(p), N, 1, row.split_many(np.arange(lo, hi)))
