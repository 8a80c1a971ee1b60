"""Estimator definitions, stream layout, bit-level determinism, and rates."""

import dataclasses
import math
import resource
import sys
import threading
from functools import partial

import numpy as np
import pytest

from nestmc.estimators import (collapsed_estimate, collapsed_replications, nmc_estimate,
                               nmc_replications)
from nestmc.harness import _fill_replications
from nestmc.models import CATALOG, make_constant, make_gauss_log
from nestmc.rng import make_root


def _scalar_variant(p):
    """Same model with the vectorized samplers removed (forces per-draw path)."""
    return dataclasses.replace(p, outer_batch=None, inner_batch=None)


def _signed_log():
    """f = log of a signed inner mean: some outer terms land negative.

    The inner mean ~ N(0, 1/M) has a coin-flip sign, so a share of the
    terms is degenerate.
    """
    return dataclasses.replace(
        CATALOG["gauss-log"](),
        phi=lambda y, z: z,
        f=lambda y, w: np.log(w),
        gamma_exact=None, truth=None, inner_quad=None)


# --------------------------------------------------------------- nmc_estimate

def test_nmc_constant_exact():
    e = nmc_estimate(make_constant(2.0), 13, 7, make_root(1))
    assert e.value == 2.0
    assert e.total_draws == 13 * 7 and e.n_inner == 7
    assert e.degenerate_count == 0 and e.valid


def test_nmc_single_draw_definition():
    p = make_gauss_log()
    s = make_root(2)
    e = nmc_estimate(p, 1, 1, s)
    y1 = p.outer_sampler(s.split(0).split(0))
    z11 = p.inner_sampler(s.split(1).split(0), y1)
    assert e.value == p.f(y1, p.phi(y1, z11))


@pytest.mark.parametrize("N,M", [(1, 1), (6, 4), (40, 25), (3, 7)])
def test_scalar_double_loop_bit_identical_to_nmc(N, M):
    # The naive reference for the block driver's stream layout and reduction
    # order: one scalar draw at a time, outer draw n from <0,n>, inner draw m
    # as call m of the inner sampler on <1,n>, in order, and both means
    # taken by np.mean.
    p = make_gauss_log()
    s = make_root(27)
    terms = []
    for n in range(N):
        y = p.outer_sampler(s.split(0).split(n))
        st = s.split(1).split(n)
        w = np.mean([p.phi(y, p.inner_sampler(st, y)) for _ in range(M)])
        terms.append(p.f(y, w))
    e = nmc_estimate(p, N, M, s)
    assert e.value == np.mean(terms)
    assert e.total_draws == N * M and e.degenerate_count == 0


def test_nmc_rejects_bad_counts():
    p = make_gauss_log()
    with pytest.raises(ValueError):
        nmc_estimate(p, 0, 5, make_root(0))
    with pytest.raises(ValueError):
        nmc_estimate(p, 5, 0, make_root(0))
    with pytest.raises(ValueError):
        nmc_replications(p, 0, 4, make_root(0), 0, 2)


def test_variable_draw_sampler_raises():
    # Rejection sampling takes a data-dependent number of uniforms per draw,
    # which breaks the fixed-draw contract of NestedProblem.
    def rejection(s):
        u = s.next_uniform()
        while u < 0.5:
            u = s.next_uniform()
        return 2.0 * u - 1.0

    p = dataclasses.replace(_scalar_variant(make_gauss_log()), outer_sampler=rejection)
    with pytest.raises(ValueError, match="same number of draws"):
        nmc_estimate(p, 64, 4, make_root(0))


def _two_normals_per_call(p):
    # Each call takes four draws, so pair k's skip-ahead window of two
    # draws would reuse pair k+1's words.
    return dataclasses.replace(
        p, name="two-normals",
        inner_sampler=lambda s, y: s.next_gaussian() + s.next_gaussian(),
        inner_batch=lambda b, y: b.gaussians() + b.gaussians())


@pytest.mark.parametrize("path", ["batched", "each"])
@pytest.mark.parametrize("N,M", [(1, 2), (4, 9), (2, 70000)])
def test_inner_sampler_taking_more_than_two_draws_per_pair_raises(path, N, M):
    p = _two_normals_per_call(make_gauss_log())
    if path == "each":
        p = _scalar_variant(p)
    with pytest.raises(ValueError, match="'two-normals'.*exactly two draws"):
        nmc_estimate(p, N, M, make_root(0))
    with pytest.raises(ValueError, match="'two-normals'"):
        nmc_replications(p, N, M, make_root(0), 0, 3)


def test_nmc_replications_without_batch_samplers_match_batched():
    # A span inside one block of 2**16 // 64 = 1024 replications of 8x8;
    # test_nmc_replications_match_nmc_estimate crosses the block edges, and
    # test_collapsed_replications_match_collapsed_estimate checks the
    # collapsed kernel the same way.
    p = CATALOG["linear-gauss"]()
    row = make_root(61).split(3)
    for a, b in zip(nmc_replications(_scalar_variant(p), 8, 8, row, 5, 5 + 256 + 7),
                    nmc_replications(p, 8, 8, row, 5, 5 + 256 + 7)):
        np.testing.assert_array_equal(a, b)


def test_nmc_repeated_calls_bit_identical():
    p = make_gauss_log()
    s = make_root(42).split(3)
    assert nmc_estimate(p, 50, 20, s) == nmc_estimate(p, 50, 20, s)


@pytest.mark.parametrize("N,M", [(1, 1), (1, 9), (9, 1), (7, 70), (111, 3),
                                 (2, 70000), (1, 65537)])
def test_nmc_batch_path_matches_scalar_path(N, M):
    p = CATALOG["linear-gauss"]()
    q = _scalar_variant(p)
    s = make_root(13)
    a = nmc_estimate(p, N, M, s)
    b = nmc_estimate(q, N, M, s)
    assert a == b


def test_nmc_degenerate_terms_excluded_and_counted():
    p = dataclasses.replace(_scalar_variant(_signed_log()),
                            inner_sampler=lambda s, y: s.next_gaussian())
    e = nmc_estimate(p, 200, 4, make_root(0))
    assert 0 < e.degenerate_count < 200
    assert e.valid and np.isfinite(e.value)
    # all-degenerate estimate is flagged invalid with NaN value
    bad = dataclasses.replace(p, f=lambda y, w: np.log(np.zeros_like(w) - 1.0))
    e = nmc_estimate(bad, 8, 2, make_root(0))
    assert e.degenerate_count == 8 and not e.valid
    assert math.isnan(e.value)


def _per_replication(p, N, M, row, lo, hi):
    ests = [nmc_estimate(p, N, M, row.split(r)) for r in range(lo, hi)]
    return ([e.value for e in ests], [e.degenerate_count / N for e in ests])


@pytest.mark.parametrize("model,N,M,lo,hi", [
    ("gauss-log", 1, 1, 0, 3),                # N*M = 1
    ("gauss-log", 128, 128, 0, 3),            # N*M = 2**14: 4 replications per block
    ("gauss-log", 113, 145, 0, 2),            # N*M = 2**14 + 1: 3 per block
    ("gauss-log", 256, 256, 0, 3),            # N*M = block budget (2**16): 1 per block
    ("gauss-log", 131, 501, 0, 2),            # one over: 1 per block, 130 + 1 outer draws
    ("gauss-log", 2, 70000, 0, 2),            # inner draws past one chunk
    ("linear-gauss", 16384, 1, 2, 4),
    ("bias-quad-pos", 1, 16384, 1, 3),
    ("gauss-log", 8, 8, 5, 5 + 2 * 256 + 7),  # span inside one block
    ("gauss-log", 8, 8, 5, 5 + 2 * 1024 + 7),  # span not a multiple of R_blk = 2**16 // 64
    ("constant", 7, 9, 3, 600),
])
def test_nmc_replications_match_nmc_estimate(model, N, M, lo, hi):
    p = CATALOG[model]()
    row = make_root(23).split(2)
    values, degf = nmc_replications(p, N, M, row, lo, hi)
    want_values, want_degf = _per_replication(p, N, M, row, lo, hi)
    assert values.tolist() == want_values
    assert degf.tolist() == want_degf
    # The per-draw path of a model without batch samplers agrees too.
    if N * M <= 1024:
        scalar = _per_replication(_scalar_variant(p), N, M, row, lo, lo + 3)[0]
        assert values[:3].tolist() == scalar


def test_nmc_replications_some_degenerate():
    p = _signed_log()
    row = make_root(3)
    values, degf = nmc_replications(p, 2, 4, row, 1, 400)
    want_values, want_degf = _per_replication(p, 2, 4, row, 1, 400)
    assert set(degf.tolist()) == {0.0, 0.5, 1.0}
    assert degf.tolist() == want_degf
    assert np.isnan(values).tolist() == [d == 1.0 for d in want_degf]
    assert values[degf < 1].tolist() == [v for v, d in zip(want_values, want_degf) if d < 1]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts are compared on Linux only")
def test_large_row_reuses_its_draw_buffers():
    # 32 blocks of 2**16 inner draws.  Drawing each into fresh temporaries
    # faults ~15k pages per call; reused buffers and cached pair offsets
    # fault next to none.
    p = CATALOG["gauss-log"]()
    row = make_root(5).split(0)
    nmc_replications(p, 16, 65536, row, 0, 2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    nmc_replications(p, 16, 65536, row, 0, 2)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts are compared on Linux only")
@pytest.mark.parametrize("N,M,R", [(32, 32, 200), (4, 4, 2000)])
def test_small_row_reuses_its_draw_buffers(N, M, R):
    # A small row's blocks fill whole pooled buffers, as a large row's do;
    # a second call draws into the buffers the first one faulted in.
    p = CATALOG["gauss-log"]()
    row = make_root(5).split(1)
    nmc_replications(p, N, M, row, 0, R)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    nmc_replications(p, N, M, row, 0, R)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_threads_never_share_a_workspace():
    # Spans on many threads draw at once, each into its own thread's
    # workspace; with frequent thread switches each must still give the
    # values it gives alone.
    p = CATALOG["gauss-log"]()
    rows = [make_root(9).split(k) for k in range(6)]
    want = [nmc_replications(p, 16, 4096, row, 0, 2)[0] for row in rows]
    got = {}

    def work(k):
        for _ in range(3):
            got.setdefault(k, []).append(nmc_replications(p, 16, 4096, rows[k], 0, 2)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(rows))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, values in enumerate(want):
        assert len(got[k]) == 3
        for v in got[k]:
            np.testing.assert_array_equal(v, values)


def test_nmc_unbiased_under_linearity():
    # E[I_{N,M}] = I for linear f, at every small (N, M); R = 1e4.
    p = CATALOG["linear-gauss"]()
    truth = p.truth
    R = 10**4
    s = make_root(97)
    for row, (N, M) in enumerate([(N, M) for N in (1, 2, 5) for M in (1, 2, 5)]):
        # Replication r equals nmc_estimate(p, N, M, s.split(row).split(r)).
        vals, _ = nmc_replications(p, N, M, s.split(row), 0, R)
        se = np.std(vals, ddof=1) / math.sqrt(R)
        assert abs(vals.mean() - truth) <= 4 * se, (N, M)


def test_nmc_fixed_inner_bias_does_not_average_away():
    # gauss-log at M=5: the residual bias dwarfs the replication SE at N=1e5.
    p = make_gauss_log()
    s = make_root(31)
    R = 50
    vals = np.array([nmc_estimate(p, 10**5, 5, s.split(r)).value for r in range(R)])
    se = np.std(vals, ddof=1) / math.sqrt(R)
    assert abs(vals.mean() - p.truth) > 5 * se


def test_nmc_bias_positive_and_decreasing_in_M():
    p = CATALOG["bias-quad-pos"]()
    s = make_root(53)
    R, N = 400, 500
    means = []
    for row, M in enumerate((2, 4, 8, 16, 32)):
        row_stream = s.split(row)
        vals = [nmc_estimate(p, N, M, row_stream.split(r)).value for r in range(R)]
        means.append(float(np.mean(vals)))
    assert all(m > 0 for m in means)
    assert all(a > b for a, b in zip(means, means[1:]))


# --------------------------------------------------------- collapsed_estimate

def test_collapsed_constant_exact():
    assert collapsed_estimate(make_constant(3.0), 9, make_root(0)).value == 3.0


def test_collapsed_single_draw_definition():
    p = _scalar_variant(CATALOG["linear-gauss"]())
    s = make_root(14)
    e = collapsed_estimate(p, 1, s)
    sn = s.split(0)
    y1 = p.outer_sampler(sn)
    z1 = p.inner_sampler(sn, y1)
    assert e.value == p.f(y1, p.phi(y1, z1))
    assert e.total_draws == 1 and e.n_inner == 1


def test_collapsed_requires_linear_g():
    with pytest.raises(ValueError):
        collapsed_estimate(make_gauss_log(), 10, make_root(0))


def test_collapsed_batch_matches_scalar():
    p = CATALOG["linear-gauss"]()
    q = _scalar_variant(p)
    s = make_root(15)
    for N in (1, 2, 100, 1000):
        assert collapsed_estimate(p, N, s) == collapsed_estimate(q, N, s)


@pytest.mark.parametrize("model,N,lo,hi", [
    ("linear-gauss", 1, 0, 3),
    ("linear-gauss", 7, 4, 4 + 2 * 2340 + 5),   # span inside one block
    ("linear-gauss", 64, 4, 4 + 2 * 1024 + 5),  # span not a multiple of R_blk = 2**16 // 64
    ("linear-gauss", 16385, 0, 2),              # 3 replications per block
    ("linear-gauss", 70000, 1, 2),              # outer draws past one chunk
    ("constant", 9, 0, 40),
])
def test_collapsed_replications_match_collapsed_estimate(model, N, lo, hi):
    p = CATALOG[model]()
    row = make_root(29).split(1)
    values, degf = collapsed_replications(p, N, row, lo, hi)
    ests = [collapsed_estimate(p, N, row.split(r)) for r in range(lo, hi)]
    assert values.tolist() == [e.value for e in ests]
    assert degf.tolist() == [e.degenerate_count / N for e in ests]
    scalar_values, scalar_degf = collapsed_replications(_scalar_variant(p), N, row, lo, hi)
    assert scalar_values.tolist() == values.tolist()
    assert scalar_degf.tolist() == degf.tolist()


def _gaussian_outer_model(k):
    """linear-gauss with y the last of k normals per outer draw, and its batched twin.

    Odd k leaves a Box-Muller pair pending after the outer draw, so the
    inner normal of the collapsed estimator is that pair's sine branch.
    """
    def outer(s):
        for _ in range(k):
            y = s.next_gaussian()
        return y

    def outer_batch(b):
        for _ in range(k):
            y = b.gaussians()
        return y

    twin = dataclasses.replace(CATALOG["linear-gauss"](), outer_sampler=outer,
                               outer_batch=outer_batch)
    return _scalar_variant(twin), twin


@pytest.mark.parametrize("k", [1, 3])
def test_collapsed_pending_pair_crosses_samplers(k):
    scalar, twin = _gaussian_outer_model(k)
    s = make_root(37)
    N = 301
    terms = []
    for n in range(N):
        sn = s.split(n)
        y = scalar.outer_sampler(sn)
        z = scalar.inner_sampler(sn, y)
        terms.append(scalar.f(y, scalar.phi(y, z)))
    want = np.mean(np.array(terms, dtype=float))
    assert collapsed_estimate(scalar, N, s).value == want
    assert collapsed_estimate(twin, N, s).value == want
    # Either sampler alone batched: the pair crosses between the two forms.
    for mixed in (dataclasses.replace(twin, outer_batch=None),
                  dataclasses.replace(twin, inner_batch=None)):
        assert collapsed_estimate(mixed, N, s).value == want


def test_collapsed_replication_mean_hits_truth():
    p = CATALOG["linear-gauss"]()
    s = make_root(88)
    R = 100
    # Replication r is collapsed_estimate(p, 10**6, s.split(r)), on two workers.
    (vals, _), = _fill_replications([(partial(collapsed_replications, p, 10**6), s, R)], 2)
    se = np.std(vals, ddof=1) / math.sqrt(R)
    assert abs(vals.mean() - p.truth) <= 3 * se


def test_collapsed_mse_scales_like_one_over_N():
    p = CATALOG["linear-gauss"]()
    s = make_root(121)
    R = 200
    pts = []
    for row, N in enumerate((10**2, 10**3, 10**4, 10**5)):
        row_stream = s.split(row)
        vals = np.array([collapsed_estimate(p, N, row_stream.split(r)).value
                         for r in range(R)])
        pts.append((N, float(np.mean((vals - p.truth) ** 2))))
    lx = np.log10([x for x, _ in pts])
    ly = np.log10([y for _, y in pts])
    slope = np.polyfit(lx, ly, 1)[0]
    assert -1.15 < slope < -0.85
