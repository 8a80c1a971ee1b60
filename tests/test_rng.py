"""Splittable stream determinism, distribution sanity, and batch/scalar parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestmc.rng import RngStream, Workspace, make_root, next_gaussian, next_uniform, split


def _uniforms(stream, n):
    return [next_uniform(stream) for _ in range(n)]


def test_make_root_deterministic():
    a = _uniforms(make_root(42), 100)
    b = _uniforms(make_root(42), 100)
    assert a == b


def test_distinct_seeds_differ():
    a = _uniforms(make_root(1), 100)
    b = _uniforms(make_root(2), 100)
    assert any(x != y for x, y in zip(a, b))


def test_zero_seed_is_legal():
    s = make_root(0)
    u = next_uniform(s)
    assert 0.0 <= u < 1.0


def test_split_is_pure():
    r = make_root(7)
    a = _uniforms(split(r, 0), 50)
    b = _uniforms(split(r, 0), 50)
    assert a == b


def test_split_does_not_advance_parent():
    r1 = make_root(7)
    r2 = make_root(7)
    for i in range(10):
        split(r1, i)  # discarded children must not touch the parent
    assert _uniforms(r1, 20) == _uniforms(r2, 20)


def test_split_distinct_indices_differ():
    r = make_root(7)
    assert _uniforms(split(r, 0), 50) != _uniforms(split(r, 1), 50)


def test_split_order_sensitive():
    # <3,5> and <5,3> are different paths and must give different sequences.
    r = make_root(11)
    a = _uniforms(split(split(r, 3), 5), 1000)
    b = _uniforms(split(split(r, 5), 3), 1000)
    assert a != b


def test_same_path_regenerates_bitwise():
    a = RngStream(123, ()).split(4).split(9)
    b = RngStream(123, ()).split(4).split(9)
    assert a.uniforms(257).tolist() == b.uniforms(257).tolist()
    assert a.path == (4, 9) and a.root_seed == 123


def test_sibling_outputs_share_no_prefix():
    r = make_root(3)
    seqs = [tuple(split(r, i).uniforms(8).tolist()) for i in range(64)]
    assert len(set(seqs)) == len(seqs)


def test_uniform_statistics():
    u = make_root(2024).uniforms(10**6)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.002
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_gaussian_statistics():
    g = make_root(2025).gaussians(10**6)
    assert abs(g.mean()) < 0.003
    assert abs(g.var() - 1.0) < 0.005
    assert abs(np.mean(np.abs(g) > 1.96) - 0.05) < 0.001


def test_gaussian_pairs_mix_both_transform_branches():
    # Box-Muller yields pairs; consecutive draws must not be equal or trivially
    # correlated.  Correlation over many draws should be near zero.
    g = make_root(5).gaussians(10**5)
    corr = np.corrcoef(g[:-1], g[1:])[0, 1]
    assert abs(corr) < 0.02


def test_scalar_draws_match_block_draws():
    s1 = make_root(99).split(1)
    s2 = make_root(99).split(1)
    block = s1.uniforms(17)
    singles = np.array([next_uniform(s2) for _ in range(17)])
    np.testing.assert_array_equal(block, singles)

    s1 = make_root(99).split(2)
    s2 = make_root(99).split(2)
    np.testing.assert_array_equal(
        s1.gaussians(9), np.array([next_gaussian(s2) for _ in range(9)]))


def test_batch_streams_match_scalar_children():
    root = make_root(31)
    batch = root.split_many(np.arange(40, dtype=np.uint64))
    u = batch.uniforms()
    g1 = batch.gaussians()
    g2 = batch.gaussians()
    for i in range(40):
        child = root.split(i)
        assert u[i] == next_uniform(child)
        assert g1[i] == next_gaussian(child)
        assert g2[i] == next_gaussian(child)


def test_nested_batch_split_matches_scalar_grandchildren():
    root = make_root(8)
    blocks = root.split_many(np.arange(3, dtype=np.uint64))
    grand = blocks.split_many(np.arange(5, dtype=np.uint64))
    u = grand.uniforms()
    assert u.shape == (3, 5)
    for n in range(3):
        for m in range(5):
            assert u[n, m] == next_uniform(root.split(n).split(m))


def test_each_runs_scalar_draws_under_the_batch():
    # Batch and scalar draws interleave on one counter and one pending
    # Box-Muller pair: a batch cosine, a scalar sine, a scalar uniform with
    # a per-stream argument, then a batch cosine of the next pair.
    root = make_root(17)
    batch = root.split_many(np.arange(12, dtype=np.uint64).reshape(3, 4))
    shift = np.arange(4.0)
    got = [batch.gaussians(),
           batch.each(next_gaussian),
           batch.each(lambda s, c: c + next_uniform(s), shift),
           batch.gaussians()]
    for i in range(12):
        child = root.split(i)
        want = [next_gaussian(child), next_gaussian(child),
                shift[i % 4] + next_uniform(child), next_gaussian(child)]
        assert [g.reshape(-1)[i] for g in got] == want


def test_each_leaves_a_pending_pair_for_the_batch():
    root = make_root(18)
    batch = root.split_many(np.arange(5, dtype=np.uint64))
    first = batch.each(lambda s: s.gaussians(3)[-1])
    second = batch.gaussians()
    for i in range(5):
        child = root.split(i)
        g = child.gaussians(4)
        assert (first[i], second[i]) == (g[2], g[3])


def test_each_rejects_a_variable_number_of_draws():
    batch = make_root(19).split_many(np.arange(8, dtype=np.uint64))
    with pytest.raises(ValueError):
        batch.each(lambda s: next_uniform(s) if s.next_uniform() < 0.5 else 0.0)
    odd_pending = lambda s: (s.next_gaussian() if s.next_uniform() < 0.5
                             else s.next_uniform() + s.next_uniform())
    with pytest.raises(ValueError):  # counters agree, pending pairs do not
        make_root(20).split_many(np.arange(8, dtype=np.uint64)).each(odd_pending)


# Large enough for the workspace to serve it from its pooled buffers.
_POOLED = np.arange(1 << 13, dtype=np.uint64)


def test_pending_normal_survives_workspace_reuse():
    # A batch's second normal comes from the Box-Muller pair of its first;
    # other batches drawing into the same workspace in between must not
    # change it.
    ws = Workspace(1 << 14)
    a = make_root(3).split_many(_POOLED, ws)
    a.gaussians()
    for seed in (4, 5):
        b = make_root(seed).split_many(_POOLED, ws)
        b.uniforms()
        b.gaussians()
        b.gaussians()
    fresh = make_root(3).split_many(_POOLED)
    fresh.gaussians()
    np.testing.assert_array_equal(a.gaussians(), fresh.gaussians())


def test_workspace_never_overwrites_a_held_draw():
    ws = Workspace(1 << 14)
    batch = make_root(6).split_many(_POOLED, ws)
    kept = [batch.uniforms(), batch.gaussians(), batch.gaussians(), batch.split(1).keys]
    copies = [k.copy() for k in kept]
    for seed in range(8):
        other = make_root(seed).split_many(_POOLED, ws)
        other.split(2).gaussians()
        other.uniforms()
    for k, c in zip(kept, copies):
        np.testing.assert_array_equal(k, c)
    fresh = make_root(6).split_many(_POOLED)
    np.testing.assert_array_equal(kept[0], fresh.uniforms())
    np.testing.assert_array_equal(kept[1], fresh.gaussians())


def test_workspace_recycles_a_dropped_buffer():
    ws = Workspace(1 << 14)
    first = ws.take((1 << 13,))
    address = first.__array_interface__["data"][0]
    held = ws.take((1 << 13,))
    assert held.__array_interface__["data"][0] != address
    del first
    again = ws.take((2, 1 << 12), np.float64)
    assert again.__array_interface__["data"][0] == address


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       idx=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_uniform_range_holds_for_any_seed_and_path(seed, idx):
    s = make_root(seed).split(idx)
    u = s.uniforms(16)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.all(np.isfinite(s.gaussians(16)))


@given(seed=st.integers(min_value=0, max_value=2**32),
       path=st.lists(st.integers(min_value=0, max_value=2**32), max_size=4))
@settings(max_examples=50, deadline=None)
def test_regeneration_is_bit_identical(seed, path):
    def build():
        s = make_root(seed)
        for i in path:
            s = split(s, i)
        return s.uniforms(8)
    np.testing.assert_array_equal(build(), build())
