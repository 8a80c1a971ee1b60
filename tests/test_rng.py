"""Splittable stream determinism, distribution sanity, and batch/scalar parity."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestmc import rng
from nestmc.rng import (RngStream, _cos, _sine_branch, index_hash, make_root, skip_offsets,
                        take)


def _uniforms(stream, n):
    return [stream.next_uniform() for _ in range(n)]


def _gaussians(stream, n):
    return [stream.next_gaussian() for _ in range(n)]


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
    u = s.next_uniform()
    assert 0.0 <= u < 1.0


def test_split_is_pure():
    r = make_root(7)
    a = _uniforms(r.split(0), 50)
    b = _uniforms(r.split(0), 50)
    assert a == b


def test_split_does_not_advance_parent():
    r1 = make_root(7)
    r2 = make_root(7)
    for i in range(10):
        r1.split(i)  # discarded children must not touch the parent
    assert _uniforms(r1, 20) == _uniforms(r2, 20)


def test_split_distinct_indices_differ():
    r = make_root(7)
    assert _uniforms(r.split(0), 50) != _uniforms(r.split(1), 50)


def test_split_order_sensitive():
    # <3,5> and <5,3> are different paths and must give different sequences.
    r = make_root(11)
    a = _uniforms(r.split(3).split(5), 1000)
    b = _uniforms(r.split(5).split(3), 1000)
    assert a != b


def test_same_path_regenerates_bitwise():
    a = RngStream(123, ()).split(4).split(9)
    b = RngStream(123, ()).split(4).split(9)
    assert _uniforms(a, 257) == _uniforms(b, 257)
    assert a.path == (4, 9) and a.root_seed == 123


def test_sibling_outputs_share_no_prefix():
    r = make_root(3)
    seqs = [tuple(_uniforms(r.split(i), 8)) for i in range(64)]
    assert len(set(seqs)) == len(seqs)


@pytest.mark.parametrize("draw", [
    lambda: np.array(_uniforms(make_root(2024), 10**6)),
    lambda: make_root(2024).split_many(np.arange(10**6)).uniforms(),
], ids=["stream", "batch"])
def test_uniform_statistics(draw):
    # One scalar stream's draws, and one draw from each of 10^6 children.
    u = draw()
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.002
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_gaussian_statistics():
    # Both normals of the Box-Muller pairs of 5 * 10^5 streams.
    batch = make_root(2025).split_many(np.arange(5 * 10**5))
    g = np.concatenate([batch.gaussians(), batch.gaussians()])
    assert abs(g.mean()) < 0.003
    assert abs(g.var() - 1.0) < 0.005
    assert abs(np.mean(np.abs(g) > 1.96) - 0.05) < 0.001


def test_gaussian_pairs_mix_both_transform_branches():
    # Box-Muller yields pairs; consecutive draws must not be equal or trivially
    # correlated.  Correlation over many draws should be near zero.
    g = np.array(_gaussians(make_root(5), 10**5))
    corr = np.corrcoef(g[:-1], g[1:])[0, 1]
    assert abs(corr) < 0.02


_STREAM_CHANGE = ("a change to the streams must be declared as a stream change and the "
                  "files under tests/golden/ regenerated (python tests/test_golden.py)")


def test_stream_fingerprint():
    # Keys, raw words and uniforms predate the half-angle Box-Muller
    # transform and must not move with it; the normals pin that transform.
    root = make_root(2024)
    child = root.split(7).split(2**64 - 1)
    many = root.split_many(np.array([0, 5, 2**63], dtype=np.uint64))
    grand = many.split_hashed(index_hash(np.arange(2)))
    keys = [root._key, child._key, *many.keys.tolist(), *grand.keys.ravel().tolist()]
    assert keys == [
        0x6c533da8c3f3841e, 0x45d477af2dc6905c, 0x4a1a87d7c342dd54, 0x6f2eb64e49bd857c,
        0x9c0c76cdc363fb8c, 0xdb0adddade5441d0, 0x63bac01912577881, 0xd39cb47872e8f383,
        0xb484fa11bd1c7b9d, 0xca7b2cff389d10b6, 0xa025c440cd833765], _STREAM_CHANGE
    fresh = make_root(2024)
    assert [fresh._word(), fresh._word()] == [
        0xdcfd0164a1a68267, 0xea73482f7b5a5fcc], _STREAM_CHANGE
    uniforms = [root.next_uniform(), child.next_uniform(), *many.uniforms().tolist(),
                *grand.uniforms().ravel().tolist()]
    assert [float.hex(u) for u in uniforms] == [
        "0x1.b9fa02c9434d0p-1", "0x1.e40e80a083d82p-1", "0x1.019eb9dd58868p-2",
        "0x1.ccc09c73bbb74p-1", "0x1.63deec883ba4bp-1", "0x1.673a00bb1059cp-2",
        "0x1.ab05d683023c8p-1", "0x1.ab0550a9844e4p-2", "0x1.14b22bb192a67p-1",
        "0x1.fc8c85ac02af9p-1", "0x1.96093709a81c4p-1"], _STREAM_CHANGE
    normals = [_gaussians(make_root(1), 4), _gaussians(make_root(1).split(3), 4)]
    assert [[float.hex(g) for g in n] for n in normals] == [
        ["0x1.b3c19836bb736p+0", "-0x1.2e8ea6b7c4f58p+0",
         "-0x1.a3f818336b7dcp+0", "0x1.21e321c26379bp-1"],
        ["0x1.d59fb7b071140p-3", "-0x1.3ff3c0e2bad84p-1",
         "0x1.cedb9ae46c8dep-1", "0x1.717fb6f08fd49p-6"]], _STREAM_CHANGE


def _ulps(a, b):
    # Same-signed float64 arrays: bit patterns differ by their ulp distance.
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_polynomial_sincos_within_one_ulp_of_numpy():
    # The Box-Muller kernels take cos and sin on [-pi/4, pi/4) from
    # polynomials; a dense grid pins them to numpy's within 1 ulp, on
    # arrays (in place) and on python floats alike.
    x = np.linspace(-np.pi / 4, np.pi / 4, 2_000_001)[:-1]
    cos = _cos(x, np.empty_like(x), np.empty_like(x))
    sin = _sine_branch(np.ones_like(x), x.copy(), np.empty_like(x))
    assert _ulps(cos, np.cos(x)).max() <= 1
    assert _ulps(sin, np.sin(x)).max() <= 1
    for i in range(0, x.size, 9973):
        assert (_cos(float(x[i])), _sine_branch(1.0, float(x[i]))) == (cos[i], sin[i])


def test_box_muller_pair_is_two_independent_normals():
    # Both normals of 2**18 streams.  The signs come from bits 0 and 1 of a
    # raw word and the angle from its top bits; a sign shared between the
    # two outputs, or tied to the angle, shows in the quadrant counts or the
    # correlations.  Tolerances are ~5 standard errors at this n.
    n = 1 << 18
    batch = make_root(2026).split_many(np.arange(n, dtype=np.uint64))
    x, y = batch.gaussians(), batch.gaussians()
    for g in (x, y):
        assert abs(g.mean()) < 0.01
        assert abs(g.var() - 1.0) < 0.014
        assert abs(np.mean(g > 0) - 0.5) < 0.005
    quadrants = np.bincount(2 * (x > 0) + (y > 0), minlength=4) / n
    np.testing.assert_allclose(quadrants, 0.25, atol=0.0045)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.01
    assert abs(np.corrcoef(x * x, y * y)[0, 1]) < 0.01


def test_scalar_draws_match_block_draws():
    s = make_root(99).split(1)
    batch = s.as_batch()
    assert _uniforms(s, 17) == [float(batch.uniforms()) for _ in range(17)]

    s = make_root(99).split(2)
    batch = s.as_batch()
    assert _gaussians(s, 9) == [float(batch.gaussians()) for _ in range(9)]


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       path=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=3),
       pattern=st.lists(st.booleans(), max_size=12))
@settings(max_examples=50, deadline=None)
def test_scalar_stream_matches_its_batch_bit_for_bit(seed, path, pattern):
    # A stream hashes python ints and a batch uint64 arrays; both must wrap
    # key + counter * GOLDEN at 2**64 and give the same bits.
    s = make_root(seed)
    for i in path:
        s = s.split(i)
    batch = s.as_batch()
    for normal in pattern:
        got = s.next_gaussian() if normal else s.next_uniform()
        want = float(batch.gaussians() if normal else batch.uniforms())
        assert got.hex() == want.hex()


def test_batch_streams_match_scalar_children():
    root = make_root(31)
    batch = root.split_many(np.arange(40, dtype=np.uint64))
    u = batch.uniforms()
    g1 = batch.gaussians()
    g2 = batch.gaussians()
    for i in range(40):
        child = root.split(i)
        assert u[i] == child.next_uniform()
        assert g1[i] == child.next_gaussian()
        assert g2[i] == child.next_gaussian()


def test_nested_batch_split_matches_scalar_grandchildren():
    root = make_root(8)
    blocks = root.split_many(np.arange(3, dtype=np.uint64))
    grand = blocks.split_many(np.arange(5, dtype=np.uint64))
    u = grand.uniforms()
    assert u.shape == (3, 5)
    for n in range(3):
        for m in range(5):
            assert u[n, m] == root.split(n).split(m).next_uniform()


@pytest.mark.parametrize("pairs", [[0, 1, 2, 3], [32767, 32768]])
def test_skipped_batch_continues_each_stream(pairs):
    # Skipped ahead by c = 2k draws, a stream's next draws are its draws
    # c+1, c+2, ...: two uniforms, or two normals as its calls 2k and 2k+1
    # of next_gaussian.  Pairs 0..3 serve an odd M = 7 (its last normal goes
    # unused); pairs 32767 and 32768 straddle the first 2**16-draw block edge.
    root = make_root(41).split(1)
    batch = root.split_many(np.arange(2, dtype=np.uint64))
    offsets = skip_offsets([2 * k for k in pairs])
    skipped = batch.skip(offsets)
    assert skipped.shape == (2, len(pairs))
    u = [skipped.uniforms(), skipped.uniforms()]
    skipped = batch.skip(offsets)
    g = [skipped.gaussians(), skipped.gaussians()]
    assert skipped.settled(2)
    count = 2 * pairs[-1] + 2
    for n in range(2):
        want_u, want_g = _uniforms(root.split(n), count), _gaussians(root.split(n), count)
        for j, k in enumerate(pairs):
            assert [u[0][n, j], u[1][n, j]] == want_u[2 * k:2 * k + 2]
            assert [g[0][n, j], g[1][n, j]] == want_g[2 * k:2 * k + 2]


def test_skip_keeps_the_counter_and_refuses_a_pending_normal():
    s = make_root(42)
    batch = s.as_batch()
    batch.uniforms()
    assert not batch.settled(0) and batch.settled(1)
    skipped = batch.skip(skip_offsets([0, 3]))
    want = _uniforms(s, 5)
    assert skipped.uniforms().tolist() == [want[1], want[4]]
    batch.gaussians()
    assert not batch.settled(3)
    with pytest.raises(ValueError, match="pending"):
        batch.skip(skip_offsets([2]))


def test_each_runs_scalar_draws_under_the_batch():
    # Batch and scalar draws interleave on one counter and one pending
    # Box-Muller pair: a batch cosine, a scalar sine, a scalar uniform with
    # a per-stream argument, then a batch cosine of the next pair.
    root = make_root(17)
    batch = root.split_many(np.arange(12, dtype=np.uint64).reshape(3, 4))
    shift = np.arange(4.0)
    got = [batch.gaussians(),
           batch.each(RngStream.next_gaussian),
           batch.each(lambda s, c: c + s.next_uniform(), shift),
           batch.gaussians()]
    for i in range(12):
        child = root.split(i)
        want = [child.next_gaussian(), child.next_gaussian(),
                shift[i % 4] + child.next_uniform(), child.next_gaussian()]
        assert [g.reshape(-1)[i] for g in got] == want


def test_each_leaves_a_pending_pair_for_the_batch():
    root = make_root(18)
    batch = root.split_many(np.arange(5, dtype=np.uint64))
    first = batch.each(lambda s: _gaussians(s, 3)[-1])
    second = batch.gaussians()
    for i in range(5):
        child = root.split(i)
        g = _gaussians(child, 4)
        assert (first[i], second[i]) == (g[2], g[3])


def test_each_rejects_a_variable_number_of_draws():
    batch = make_root(19).split_many(np.arange(8, dtype=np.uint64))
    with pytest.raises(ValueError):
        batch.each(lambda s: s.next_uniform() if s.next_uniform() < 0.5 else 0.0)
    odd_pending = lambda s: (s.next_gaussian() if s.next_uniform() < 0.5
                             else s.next_uniform() + s.next_uniform())
    with pytest.raises(ValueError):  # counters agree, pending pairs do not
        make_root(20).split_many(np.arange(8, dtype=np.uint64)).each(odd_pending)


# Large enough for `take` to serve it from the thread's pooled buffers.
_POOLED = np.arange(1 << 13, dtype=np.uint64)


def _pooled(*arrays):
    """Whether every array views a buffer of the calling thread's pool."""
    pool = rng._THREAD.pool
    return all(any(np.shares_memory(a, buf) for buf in pool) for a in arrays)


def test_pending_normal_survives_workspace_reuse():
    # A batch's second normal comes from the Box-Muller pair of its first;
    # other batches drawing into the same (this thread's) buffers in
    # between must not change it.
    a = make_root(3).split_many(_POOLED)
    a.gaussians()
    for seed in (4, 5):
        b = make_root(seed).split_many(_POOLED)
        assert _pooled(*a._pending, b.keys, b.uniforms())
        b.gaussians()
        b.gaussians()
    fresh = make_root(3).split_many(_POOLED)
    fresh.gaussians()
    np.testing.assert_array_equal(a.gaussians(), fresh.gaussians())


def test_workspace_never_overwrites_a_held_draw():
    batch = make_root(6).split_many(_POOLED)
    kept = [batch.uniforms(), batch.gaussians(), batch.gaussians(), batch.split(1).keys]
    copies = [k.copy() for k in kept]
    for seed in range(8):
        other = make_root(seed).split_many(_POOLED)
        assert _pooled(other.keys, *kept)
        other.split(2).gaussians()
        other.uniforms()
    for k, c in zip(kept, copies):
        np.testing.assert_array_equal(k, c)
    fresh = make_root(6).split_many(_POOLED)
    np.testing.assert_array_equal(kept[0], fresh.uniforms())
    np.testing.assert_array_equal(kept[1], fresh.gaussians())


def test_batches_draw_into_their_threads_workspace():
    # Two threads stay alive at the barrier until both have drawn, so two
    # pools exist at once; each thread's draws sit in its own pool, and no
    # two pooled buffers, of those pools or this thread's, share memory.
    barrier = threading.Barrier(2)
    made = {}

    def work(k):
        batch = make_root(k).split_many(_POOLED)
        draws = [batch.keys, batch.uniforms(), make_root(k).as_batch().split_many(_POOLED).keys,
                 make_root(k).split_many(_POOLED).gaussians()]
        made[k] = (list(rng._THREAD.pool), _pooled(*draws))
        barrier.wait(timeout=60)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    (pool0, in0), (pool1, in1) = made[0], made[1]
    assert in0 and in1
    here = make_root(0).split_many(_POOLED)
    # Batches made on one thread, and their children, draw into its pool.
    assert _pooled(here.keys, here.uniforms(), here.split(2).keys)
    buffers = pool0 + pool1 + rng._THREAD.pool
    assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers) for b in buffers[i + 1:])


def test_workspace_recycles_a_dropped_buffer():
    # A fresh thread's pool starts empty.
    got = {}

    def work():
        first = take((1 << 13,))
        got["address"] = first.__array_interface__["data"][0]
        held = take((1 << 13,))
        got["held"] = held.__array_interface__["data"][0]
        del first
        got["again"] = take((2, 1 << 12), np.float64).__array_interface__["data"][0]

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    assert got["held"] != got["address"]
    assert got["again"] == got["address"]


def _address(a):
    return a.__array_interface__["data"][0]


@pytest.mark.parametrize("dtype", [np.uint64, np.float64])
@pytest.mark.parametrize("shape", [(1 << 12,), (1 << 13,), (1 << 16,), (2, 1 << 12), (16, 1 << 12)])
def test_pooled_arrays_start_on_a_cache_line(shape, dtype):
    # Every vector load and store of a kernel pass then stays within one
    # 64-byte line; an array 16 bytes past a line splits them.
    held = [take(shape, dtype) for _ in range(3)]
    assert _pooled(*held)
    assert [_address(a) % 64 for a in held] == [0, 0, 0]


def test_batch_arrays_start_on_a_cache_line():
    batch = make_root(2).split_many(np.arange(1 << 13, dtype=np.uint64))
    arrays = [batch.keys, batch.uniforms(), batch.gaussians(), *batch._pending,
              batch.gaussians()]
    assert _pooled(*arrays)
    assert [_address(a) % 64 for a in arrays] == [0] * 6


def test_batch_drawn_on_another_thread_matches_its_solo_draws():
    # Batches made here and drawn on other threads take their arrays from
    # the drawing thread's pool; with frequent thread switches, and this
    # thread drawing too, each must give the values it gives alone.
    def draws(batch):
        return [batch.uniforms().copy(), batch.gaussians().copy(), batch.gaussians().copy(),
                batch.split(1).uniforms().copy()]

    want = [draws(make_root(k).split_many(_POOLED)) for k in range(4)]
    batches = [make_root(k).split_many(_POOLED) for k in range(4)]
    got = {}

    def work(k):
        got[k] = draws(batches[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        here = [draws(make_root(k).split_many(_POOLED)) for k in range(4)]
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(4):
        for g, h, w in zip(got[k], here[k], want[k]):
            np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(h, w)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       idx=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_uniform_range_holds_for_any_seed_and_path(seed, idx):
    s = make_root(seed).split(idx)
    u = np.array(_uniforms(s, 16))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.all(np.isfinite(_gaussians(s, 16)))


@given(seed=st.integers(min_value=0, max_value=2**32),
       path=st.lists(st.integers(min_value=0, max_value=2**32), max_size=4))
@settings(max_examples=50, deadline=None)
def test_regeneration_is_bit_identical(seed, path):
    def build():
        s = make_root(seed)
        for i in path:
            s = s.split(i)
        return _uniforms(s, 8)
    np.testing.assert_array_equal(build(), build())
