"""Estimator definitions, stream layout, bit-level determinism, and rates."""

import dataclasses
import math
import resource
import sys
import threading

import numpy as np
import pytest

from nestmc.estimators import (collapsed_estimate, collapsed_replications, mc_estimate,
                               nmc_estimate, nmc_estimate_depth, nmc_replications)
from nestmc.models import CATALOG, make_constant, make_gauss_log
from nestmc.problem import ProblemTree
from nestmc.rng import make_root, next_gaussian, next_uniform, split


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


# ---------------------------------------------------------------- mc_estimate

def test_mc_constant_integrand_exact():
    p = make_gauss_log()
    e = mc_estimate(p.outer_sampler, lambda y: 1.0, 37, make_root(0))
    assert e.value == 1.0
    assert e.n_outer == 37 and e.n_inner == 0 and e.total_draws == 37


def test_mc_uniform_second_moment():
    # y ~ Uniform(-1,1), E[y^2] = 1/3; batched for the million-draw run.
    e = mc_estimate(lambda s: 2.0 * next_uniform(s) - 1.0,
                    lambda y: y * y, 10**6, make_root(4),
                    sampler_batch=lambda b: 2.0 * b.uniforms() - 1.0)
    assert abs(e.value - 1.0 / 3.0) < 0.001


def test_mc_single_draw_definition():
    p = make_gauss_log()
    s = make_root(9)
    e = mc_estimate(p.outer_sampler, lambda y: 3.0 * y, 1, s)
    assert e.value == 3.0 * p.outer_sampler(split(s, 0))


def test_mc_batch_path_matches_scalar_path():
    sampler = lambda s: 2.0 * next_uniform(s) - 1.0
    batch = lambda b: 2.0 * b.uniforms() - 1.0
    s = make_root(12)
    a = mc_estimate(sampler, lambda y: y * y, 1000, s)
    b = mc_estimate(sampler, lambda y: y * y, 1000, s, sampler_batch=batch)
    assert a.value == b.value


def test_mc_rejects_bad_count():
    with pytest.raises(ValueError):
        mc_estimate(lambda s: 0.0, lambda y: y, 0, make_root(0))


# --------------------------------------------------------------- nmc_estimate

def test_nmc_constant_exact():
    e = nmc_estimate(make_constant(2.0), 13, 7, make_root(1))
    assert e.value == 2.0
    assert e.total_draws == 13 * 7 and e.depth_counts == (13, 7)
    assert e.degenerate_count == 0 and e.valid


def test_nmc_single_draw_definition():
    p = make_gauss_log()
    s = make_root(2)
    e = nmc_estimate(p, 1, 1, s)
    y1 = p.outer_sampler(split(split(s, 0), 0))
    z11 = p.inner_sampler(split(split(split(s, 1), 0), 0), y1)
    assert e.value == p.f(y1, p.phi(y1, z11))


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
        u = next_uniform(s)
        while u < 0.5:
            u = next_uniform(s)
        return 2.0 * u - 1.0

    p = dataclasses.replace(_scalar_variant(make_gauss_log()), outer_sampler=rejection)
    with pytest.raises(ValueError, match="same number of draws"):
        nmc_estimate(p, 64, 4, make_root(0))


def test_nmc_replications_without_batch_samplers_match_batched():
    # A span that is not a multiple of the 2**14 // 64 = 256 replications
    # of an 8x8 block; test_collapsed_replications_match_collapsed_estimate
    # checks the collapsed kernel the same way.
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
                                 (2, 70000)])
def test_nmc_batch_path_matches_scalar_path(N, M):
    p = CATALOG["linear-gauss"]()
    q = _scalar_variant(p)
    s = make_root(13)
    a = nmc_estimate(p, N, M, s)
    b = nmc_estimate(q, N, M, s)
    assert a == b


def test_nmc_degenerate_terms_excluded_and_counted():
    p = dataclasses.replace(_scalar_variant(_signed_log()),
                            inner_sampler=lambda s, y: next_gaussian(s))
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
    ("gauss-log", 128, 128, 0, 3),            # N*M = block budget
    ("gauss-log", 113, 145, 0, 2),            # one over: one replication per block
    ("gauss-log", 2, 70000, 0, 2),            # inner draws past one chunk
    ("linear-gauss", 16384, 1, 2, 4),
    ("bias-quad-pos", 1, 16384, 1, 3),
    ("gauss-log", 8, 8, 5, 5 + 2 * 256 + 7),  # span not a multiple of R_blk
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
    # faults ~15k pages per call; reused buffers fault a few hundred.
    p = CATALOG["gauss-log"]()
    row = make_root(5).split(0)
    nmc_replications(p, 16, 65536, row, 0, 2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    nmc_replications(p, 16, 65536, row, 0, 2)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def test_threads_never_share_a_workspace():
    # Spans on many threads take workspaces from one idle list and draw at
    # once; with frequent thread switches each must still give the values it
    # gives alone.
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


# --------------------------------------------------------- nmc_estimate_depth

def test_depth_one_tree_matches_mc():
    p = make_gauss_log()
    t = ProblemTree(sampler=lambda s, anc: p.outer_sampler(s),
                    integrand=lambda anc, y: y * y)
    s = make_root(19)
    e = nmc_estimate_depth(t, (64,), s)
    ref = mc_estimate(p.outer_sampler, lambda y: y * y, 64, s)
    assert e.value == ref.value
    assert e.depth_counts == (64,) and e.n_inner == 0


@pytest.mark.parametrize("N,M", [(1, 1), (6, 4), (40, 25)])
def test_depth_two_tree_bit_identical_to_nmc(N, M):
    # The tree draws one scalar at a time; nmc_estimate takes the batched path.
    p = make_gauss_log()
    t = ProblemTree.from_problem(p)
    s = make_root(27)
    a = nmc_estimate_depth(t, (N, M), s)
    b = nmc_estimate(p, N, M, s)
    assert a.value == b.value
    assert a.total_draws == b.total_draws == N * M
    assert a.degenerate_count == b.degenerate_count


def test_depth_three_constants_exact():
    c = 1.75
    leaf = ProblemTree(sampler=lambda s, anc: next_uniform(s),
                       integrand=lambda anc, x: c)
    mid = ProblemTree(sampler=lambda s, anc: next_uniform(s),
                      integrand=lambda anc, x, w: w, child=leaf)
    top = ProblemTree(sampler=lambda s, anc: next_uniform(s),
                      integrand=lambda anc, x, w: w, child=mid)
    e = nmc_estimate_depth(top, (3, 4, 5), make_root(0))
    assert e.value == c
    assert e.total_draws == 60 and e.depth_counts == (3, 4, 5)


def test_depth_count_mismatch_faults():
    t = ProblemTree.from_problem(make_gauss_log())
    with pytest.raises(ValueError):
        nmc_estimate_depth(t, (5,), make_root(0))
    with pytest.raises(ValueError):
        nmc_estimate_depth(t, (5, 0), make_root(0))


# --------------------------------------------------------- collapsed_estimate

def test_collapsed_constant_exact():
    assert collapsed_estimate(make_constant(3.0), 9, make_root(0)).value == 3.0


def test_collapsed_single_draw_definition():
    p = _scalar_variant(CATALOG["linear-gauss"]())
    s = make_root(14)
    e = collapsed_estimate(p, 1, s)
    sn = split(s, 0)
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
    ("linear-gauss", 7, 4, 4 + 2 * 2340 + 5),   # span not a multiple of R_blk
    ("linear-gauss", 16385, 0, 2),              # one replication per block
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
        sn = split(s, n)
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
    vals = np.array([collapsed_estimate(p, 10**6, s.split(r)).value
                     for r in range(R)])
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
