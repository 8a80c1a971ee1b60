"""Monte Carlo estimators: nested and collapsed.

Each estimator is a value, an ``Estimator(name, terms)``: ``NESTED`` and
``COLLAPSED``.  terms(p, M) builds the outer-term function of a row and
raises ValueError for a model the estimator does not admit (the collapsed
one needs ``linear_g``), and ``Estimator.span(p, N, M)`` builds a row's
terms once and returns the span(row, lo, hi) that the harness's scheduler
runs.  The public functions (``nmc_estimate``, ``nmc_replications``,
``collapsed_estimate``, ``collapsed_replications``) delegate to the two.

Every estimator is a pure function of its stream: repeated calls with the
same stream are bit-identical, and the per-draw stream layout (outer draw n
on child <0,n>, inner draw m as call m of the inner sampler on child <1,n>)
makes results independent of evaluation order and worker count.  The
kernel makes inner draws 2k and 2k+1 together, as two calls on <1,n>
skipped ahead by 2k draws, one add to its key.

One block loop (``_replicate``) draws every nested and collapsed estimate,
for one replication or a span of a row's.  One rule, ``_block_reps``,
gives a block's replications, max(1, 2^16 // (N M)), and the harness cuts
spans above one worker at its multiples, so every worker count draws the
same blocks.  The nested estimator walks a block's outer draws in chunks
whose stacked <0,n> and <1,n> keys fit one pooled buffer (``BUFFER_SIZE``,
2^16 elements): a chunk derives both levels in one pass and draws its
y_n in one call, then draws its inner samples in sub-blocks of
max(1, 2^16 // M) outer draws, one budget of ``_CHUNK`` inner draws each.
So a large row derives its keys once per chunk, not once per sub-block,
and from cached index hashes of its levels and of the chunk's outer
draws (``split_hashed``); the pair offsets of each M are cached too.
The collapsed estimator takes 2^16 outer draws per chunk.  Chunks and
sub-blocks depend on (N, M) and the block alone, and every mean runs over
a contiguous last axis, so no grouping changes a value.  The draw arrays
of a block, its terms and its inner-mean sums come from ``rng.take``, a
pool of block-sized buffers per thread, so the blocks of a span, and the
spans after it, reuse the same buffers.  Samplers come from
``NestedProblem.batch_samplers``: a model without batch samplers has its
scalar ones run stream by stream under the same blocks, with the same
values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .problem import NestedProblem
from .rng import (BUFFER_SIZE, RngStream, StreamBatch, _frozen, index_hash, skip_offsets,
                  take)

__all__ = [
    "Estimate", "Estimator", "NESTED", "COLLAPSED",
    "nmc_estimate",
    "nmc_replications",
    "collapsed_estimate",
    "collapsed_replications",
]

# The one block budget: max elements per sampling block, of a small row's
# replications, a sub-block's inner draws or a collapsed chunk's outer
# draws, and max inner draws per pairwise mean.  One pooled buffer, sized
# to stay cache-resident (the draw pipeline makes many passes over each
# block).  Block edges depend only on (N, M), never on worker count, so
# blocking cannot affect determinism.
_CHUNK = BUFFER_SIZE


# Pure functions of a block's shape, kept read-only across blocks and calls.
# An outer-hash entry holds at most BUFFER_SIZE // 2 words (256 KB), a
# chunk's most outer draws, and a pair-offset entry M / 2 words.
_LEVEL_HASHES = _frozen(index_hash((0, 1)), np.uint64)


@lru_cache(maxsize=8)
def _outer_hashes(lo: int, hi: int) -> np.ndarray:
    """index_hash of outer draws lo..hi-1, a chunk's split indices."""
    return _frozen(index_hash(np.arange(lo, hi, dtype=np.uint64)), np.uint64)


@lru_cache(maxsize=8)
def _pair_offsets(M: int) -> np.ndarray:
    """Skip offsets of the inner pairs of M draws: pair k skips 2k draws."""
    return _frozen(skip_offsets(np.arange(0, M, 2, dtype=np.uint64)), np.uint64)


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


def _spans(n: int, size: int) -> list:
    """(lo, hi) of the consecutive ranges of `size` indices that cover 0..n-1."""
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _replicate(terms: Callable, N: int, M: int, reps: StreamBatch) -> tuple:
    """(values, degenerate fractions) of the replications on the streams of `reps`.

    Blocks hold _block_reps(N, M) replications, so a small row's block fills
    one pooled buffer.  terms(block, fv) writes the terms of all N outer
    draws of each stream of `block` to fv, of shape block.shape + (N,), made
    before any draw, so a row too large to hold fails at once.  N and M
    below 1 raise ValueError.
    """
    if N < 1 or M < 1:
        raise ValueError(f"N and M must be >= 1, got {N}, {M}")
    keys = reps.keys.reshape(-1)
    step = _block_reps(N, M)
    values, degenerate = np.empty(keys.size), np.empty(keys.size)
    for a in range(0, keys.size, step):
        block = StreamBatch(keys[a:a + step])
        fv = take(block.shape + (N,), np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms(block, fv)
        values[a:a + step], degenerate[a:a + step] = _finalize(fv)
    return values, degenerate / N


def _nested_terms(p: NestedProblem, M: int) -> Callable:
    """Nested-estimator terms f(y_n, inner mean of M draws) for _replicate.

    A block's outer draws go in chunks whose stacked <0,n> and <1,n> keys,
    2 x replications x draws, fit one pooled buffer; only a 1 x 1 row's
    block of over 2^15 replications overflows it, at one draw per chunk.  A
    chunk derives children (0, n) and (1, n) of each stream in one pass and
    draws its y_n in one call.  Its inner draws go in sub-blocks of
    max(1, _CHUNK // M) outer draws, one buffer of inner draws each.  A
    chunk holds whole sub-blocks except at M = 1, where an inner mean has
    one draw and cutting a sub-block changes no value.

    Inner draw m is call m of the inner sampler on <1,n>.  Pair k, draws 2k
    and 2k+1, is the first and second call on <1,n> skipped ahead by 2k
    draws; that equals calls 2k and 2k+1 in order only if the two calls
    take exactly two draws and leave no pending normal, which is checked.
    For odd M the second draw of the last pair goes unused.  Both calls'
    draws go to one array in m order, and one phi call per part of
    _CHUNK inner draws.
    """
    offsets = _pair_offsets(M)
    parts = _spans(M, _CHUNK)
    outer_batch, inner_batch = p.batch_samplers()

    def inner_phi(yb, inner, lo, hi):
        # lo is 0 or a multiple of _CHUNK, so parts start on a pair.  z is
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

    def inner_mean(yb, inner):
        # One pairwise sum per part of _CHUNK inner draws, part sums combined
        # once; with one part that is the pairwise sum np.mean takes.  The
        # sums are taken once the first part is drawn, so they never hold a
        # pooled buffer while a normal is being drawn.
        for k, (lo, hi) in enumerate(parts):
            values = inner_phi(yb, inner, lo, hi)
            if k == 0:
                sums = take(inner.shape + (len(parts),), np.float64)
            np.add.reduce(values, axis=-1, out=sums[..., k])
        mean = np.add.reduce(sums, axis=-1, out=take(inner.shape, np.float64))
        mean /= M
        return mean

    def terms(block, fv):
        # A chunk is the whole sub-blocks whose stacked keys fit one buffer.
        fit = max(1, BUFFER_SIZE // (2 * block.keys.size))
        sub = min(max(1, _CHUNK // M), fit)
        levels = block.split_hashed(_LEVEL_HASHES)
        for lo, hi in _spans(fv.shape[-1], fit - fit % sub):
            keys = levels.split_hashed(_outer_hashes(lo, hi)).keys
            y = outer_batch(StreamBatch(keys[:, 0]))
            for a, b in _spans(hi - lo, sub):
                fv[:, lo + a:lo + b] = p.f(y[:, a:b], inner_mean(
                    y[:, a:b, None], StreamBatch(keys[:, 1, a:b])))
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
    return _estimate(NESTED.terms(p, M), s, N, M)


def nmc_replications(p: NestedProblem, N: int, M: int, row: RngStream,
                     lo: int, hi: int) -> tuple:
    """Replications lo..hi-1 of the nested estimator on the children of `row`.

    Returns (values, degenerate_fracs), two float arrays of length hi - lo.
    Entry r - lo equals nmc_estimate(p, N, M, row.split(r)).value and its
    degenerate_count / N bit for bit, whatever the span.
    """
    return NESTED.span(p, N, M)(row, lo, hi)


def _collapsed_terms(p: NestedProblem, M: int) -> Callable:
    """Outer terms f(y_n, phi(y_n, z_n)), y_n and z_n drawn in order from child n.

    A block's outer draws go in chunks of _CHUNK, one child stream each.
    A model without linear_g raises ValueError, since the nested expectation
    collapses to a single one only for f linear in its second argument; so
    does an M other than 1, since each outer draw takes one inner draw.
    """
    if p.linear_g is None:
        raise ValueError(f"model {p.name!r} has no linear_g; collapse requires linear f")
    if M != 1:
        raise ValueError(f"the collapsed estimator takes M = 1 inner draw, got M = {M}")
    outer_batch, inner_batch = p.batch_samplers()

    def terms(block, fv):
        for lo, hi in _spans(fv.shape[-1], _CHUNK):
            b = block.split_many(np.arange(lo, hi, dtype=np.uint64))
            y = outer_batch(b)
            fv[:, lo:hi] = p.f(y, p.phi(y, inner_batch(b, y)))
    return terms


@dataclass(frozen=True)
class Estimator:
    """An estimator of the nested expectation: its name in reports and its terms.

    terms(p, M) gives the terms function of an N x M row for ``_replicate``
    and raises ValueError for a model (or M) the estimator does not admit.
    """

    name: str
    terms: Callable

    def span(self, p: NestedProblem, N: int, M: int) -> Callable:
        """span(row, lo, hi): (values, degenerate_fracs) of replications lo..hi-1 of the N x M row.

        The row's terms are built here, once, so a model the estimator does
        not admit raises before any draw; replication r draws on row.split(r).
        """
        terms = self.terms(p, M)
        return lambda row, lo, hi: _replicate(terms, N, M, row.split_many(np.arange(lo, hi)))


NESTED = Estimator("nested", _nested_terms)
COLLAPSED = Estimator("collapsed", _collapsed_terms)


def collapsed_estimate(p: NestedProblem, N: int, s: RngStream) -> Estimate:
    """Single-expectation estimate for linear f: mean of f(y_n, phi(y_n, z_n)).

    Requires ``linear_g``: when f is linear in its second argument the nested
    expectation equals a single expectation over the joint draw, restoring
    the plain MC rate.  One inner draw per outer draw, both taken in order
    from child stream n; total_draws = N.
    """
    return _estimate(COLLAPSED.terms(p, 1), s, N, 1)


def collapsed_replications(p: NestedProblem, N: int, row: RngStream,
                           lo: int, hi: int) -> tuple:
    """Replications lo..hi-1 of the collapsed estimator on the children of `row`.

    Returns (values, degenerate_fracs) equal bit for bit to
    collapsed_estimate(p, N, row.split(r)), as nmc_replications does for
    the nested estimator.
    """
    return COLLAPSED.span(p, N, 1)(row, lo, hi)
