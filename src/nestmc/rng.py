"""Deterministic, splittable random streams.

Every stream is identified by a 64-bit key that is a pure function of
``(root_seed, path)``, where the path is the sequence of split indices
taken from the root.  Draw ``j`` of a stream is a keyed hash of ``j``
(counter mode), so

* regenerating a stream from the same seed and path is bit-identical,
* ``split`` derives a child key without advancing the parent,
* skipping a stream ahead by c draws is one add of c * GOLDEN to its key
  (:meth:`StreamBatch.skip`),
* streams can be handed to workers in any order without changing output.

The generator is a SplitMix-style 64-bit mixer (Stafford variant 13)
applied to ``key + (j+1) * GOLDEN``.  Normal draws come in Box-Muller
pairs from two consecutive draws (see :func:`_box_muller`): the first
output is returned and the second is produced on the following draw, so a
pair always consumes exactly two draws.  Bit-exactness is promised within
one version of this implementation only, not across versions, languages or
libraries.

A stream and a batch hold the same state, a counter and the pending half
(2r' cos b', b') of a Box-Muller pair, so :meth:`StreamBatch.each` can run a
scalar sampler on each stream of a batch and leave the batch where the
sampler left the streams.  A stream draws one word at a time in python
integers and floats, a batch one per stream in uint64 and float64 arrays.
Both take numpy's ``log`` and otherwise only correctly rounded IEEE
operations (the sines and cosines are polynomials), in the same order, so
they agree bit for bit.

A :class:`StreamBatch` writes its child keys, raw bits, uniforms and normals
into arrays from :func:`take`, which serves them from the drawing thread's
own buffers, so a loop that draws block after block of the same size
reuses the same memory instead of allocating (and, for large blocks,
page-faulting) fresh arrays each time.
"""

from __future__ import annotations

import math
import sys
import threading
from typing import Callable

import numpy as np

__all__ = [
    "RngStream",
    "StreamBatch",
    "take",
    "skip_offsets",
    "make_root",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_SALT = 0x5851F42D4C957F2D
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# uint64 copies for vectorised code paths (scalar numpy ops warn on wrap,
# arrays wrap silently, python ints are masked by hand).
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX_A = np.uint64(_MIX_A)
_U_MIX_B = np.uint64(_MIX_B)
_TO_UNIT = 2.0 ** -53
_TO_HALF_ANGLE = np.pi / 4 * _TO_UNIT  # top 53 bits -> [0, pi/4)
_SIGN = np.uint64(1 << 63)
_S11, _S27, _S30, _S31, _S62, _S63 = (np.uint64(k) for k in (11, 27, 30, 31, 62, 63))


def _mix_int(z: int) -> int:
    """Stafford mix13 finaliser on a python int, mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """Stafford mix13 on a uint64 array, in place, with scratch from `take`."""
    tmp = take(z.shape)
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _U_MIX_A
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _U_MIX_B
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _child_key_int(key: int, index: int) -> int:
    return _mix_int(key ^ _mix_int((index + _GOLDEN) & _MASK64))


def index_hash(indices) -> np.ndarray:
    """Pre-hashed split indices for reuse across many `split_hashed` calls.

    No estimator uses it; bench/sweep.py times it.
    """
    return _mix_u64(np.asarray(indices, dtype=np.uint64) + _U_GOLDEN)


def skip_offsets(counts) -> np.ndarray:
    """Key offsets c * GOLDEN mod 2**64 of skip counts `counts`, for `StreamBatch.skip`."""
    offsets = np.array(counts, dtype=np.uint64)
    offsets *= _U_GOLDEN
    return offsets


def _to_unit(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top 53 bits -> float64 in [0, 1), written to `out`; shifts `bits` in place."""
    bits >>= _S11
    # Below 2**53 after the shift: the int64 view converts exactly, and faster.
    return np.multiply(bits.view(np.int64), _TO_UNIT, out=out)


def _radius(u: np.ndarray) -> np.ndarray:
    """Box-Muller radius sqrt(-2 log(1 - u)), in place; 1-u lies in (0, 1]."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u *= -2.0
    return np.sqrt(u, out=u)


# Coefficients, highest first, of cos x = 1 + z P(z) and sin x = x + x z Q(z)
# in z = x^2 on [-pi/4, pi/4] (fdlibm's __kernel_cos and __kernel_sin; each
# is within 1 ulp of libm there).
_COS = (-1.13596475577881948265e-11, 2.08757232129817482790e-09,
        -2.75573143513906633035e-07, 2.48015872894767294178e-05,
        -1.38888888888741095749e-03, 4.16666666666666019037e-02, -0.5)
_SIN = (1.58969099521155010221e-10, -2.50507602534068634195e-08,
        2.75573137070700676789e-06, -1.98412698298579493134e-04,
        8.33333333332248946124e-03, -1.66666666666666324348e-01)


def _zpoly(z, coeffs, out=None):
    """z P(z) by Horner for `coeffs` (highest first): on a python float, or into `out`.

    Augmented assignment rebinds a float and writes an array in place, so
    both take the same operations in the same order.
    """
    p = z * coeffs[0] if out is None else np.multiply(z, coeffs[0], out=out)
    for c in coeffs[1:]:
        p += c
        p *= z
    return p


def _cos(b, out=None, z=None):
    """cos b on [-pi/4, pi/4): of a python float, or into `out` with `z` as scratch."""
    c = _zpoly(b * b if z is None else np.multiply(b, b, out=z), _COS, out)
    c += 1.0
    return c


def _box_muller(u: np.ndarray, w: np.ndarray, out: np.ndarray, t: np.ndarray) -> tuple:
    """First normals of Box-Muller pairs into `out`; returns the pairs' pending (t, b').

    `u` holds each pair's first uniform and `w` the raw 64-bit word of its
    second draw.  The radius r = sqrt(-2 log(1 - u)) is negated by bit 0 of
    `w`, giving r', and the half-angle b = (w >> 11) * pi/4 * 2**-53 in
    [0, pi/4) by bit 1, giving b'.  As 2b' is uniform on (-pi/2, pi/2) and
    r' is signed, the angle of (r', 2b') is uniform on the circle, so
    r' cos 2b' = t cos b' - r', written here, and r' sin 2b' = t sin b',
    from :func:`_sine_branch`, are independent standard normals, where
    t = 2 r' cos b'.  `u` becomes r' and `w` becomes b' in place, and `t`
    (float64, of their shape, as is `out`) receives t; both are scratch
    first.  :func:`_box_muller_float` is the same on python numbers.
    """
    r = _radius(u)
    signs = out.view(np.uint64)
    np.left_shift(w, _S63, out=signs)
    r_bits = r.view(np.uint64)
    r_bits ^= signs
    np.left_shift(w, _S62, out=signs)
    signs &= _SIGN
    w >>= _S11
    b = np.multiply(w.view(np.int64), _TO_HALF_ANGLE, out=w.view(np.float64))
    b_bits = b.view(np.uint64)
    b_bits ^= signs
    c = _cos(b, out, t)
    np.multiply(r, c, out=t)
    t *= 2.0
    c *= t
    c -= r
    return t, b


def _box_muller_float(u: float, w: int) -> tuple:
    """(first normal, pending (t, b')) of one pair, as :func:`_box_muller` computes it."""
    r = math.sqrt(float(np.log(np.float64(1.0 - u))) * -2.0)
    if w & 1:
        r = -r
    b = (w >> 11) * _TO_HALF_ANGLE
    if w & 2:
        b = -b
    c = _cos(b)
    t = r * c * 2.0
    return t * c - r, (t, b)


def _sine_branch(t, b, out=None):
    """Second normals t sin b' of pairs from `_box_muller`: of python floats, or into `out`.

    t sin b' is taken as v + v z Q(z) with v = t b' and z = b'^2; with
    arrays, t becomes v and b' becomes z in place.  At t = 1, v = b' and
    this is the polynomial sine itself.
    """
    if out is None:
        v, z = t * b, b * b
    else:
        v, z = np.multiply(t, b, out=t), np.multiply(b, b, out=b)
    s = _zpoly(z, _SIN, out)
    s *= v
    s += v
    return s


# References a pooled buffer has from the pool's own list, the scan's loop
# variable and sys.getrefcount's argument: with no more, no array views it.
def _idle_refs() -> int:
    for buf in [np.empty(0)]:
        return sys.getrefcount(buf)


_IDLE_REFS = _idle_refs()
# Buffers one thread keeps at most, and the smallest request it serves
# from them.  Smaller arrays are left to malloc, whose heap recycles them
# without faults; pooling them would pin a whole buffer each.
_POOL_MAX = 8
_POOL_MIN = 1 << 12
# Elements per pooled buffer: the largest array a batch draws into pooled
# memory.
BUFFER_SIZE = 1 << 16
# Each thread's list of pooled buffers, made on its first pooled request.
_THREAD = threading.local()


def take(shape: tuple, dtype=np.uint64) -> np.ndarray:
    """An uninitialised array of `shape` (uint64 or float64) from this thread's buffers.

    It views a buffer of the calling thread's pool that no live array still
    views (checked by reference count), so an array handed out stays its
    holder's for as long as it is referenced, and a buffer is recycled as
    soon as the last view of it is dropped.  A request larger than
    `BUFFER_SIZE`, smaller than `_POOL_MIN` elements or beyond `_POOL_MAX`
    live buffers is a plain allocation.  A pool is only read by its own
    thread, so arrays from it may be handed to any thread.
    """
    n = math.prod(shape)
    if _POOL_MIN <= n <= BUFFER_SIZE:
        pool = _THREAD.__dict__.setdefault("pool", [])
        for buf in pool:
            if sys.getrefcount(buf) <= _IDLE_REFS:
                return buf[:n].view(dtype).reshape(shape)
        if len(pool) < _POOL_MAX:
            buf = np.empty(BUFFER_SIZE, dtype=np.uint64)
            pool.append(buf)
            return buf[:n].view(dtype).reshape(shape)
    return np.empty(shape, dtype=dtype)


class RngStream:
    """One reproducible random stream, identified by (root_seed, path).

    Its pending Box-Muller pair is two python floats, from the same
    operations as a batch's; ``split`` never advances the stream.
    """

    __slots__ = ("root_seed", "path", "_key", "_counter", "_pending")

    def __init__(self, root_seed: int, path: tuple[int, ...] = (), _key: int | None = None):
        self.root_seed = root_seed & _MASK64
        self.path = tuple(i & _MASK64 for i in path)
        if _key is None:
            _key = _mix_int(self.root_seed ^ _SEED_SALT)
            for i in self.path:
                _key = _child_key_int(_key, i)
        self._key = _key
        self._counter = 0
        self._pending: tuple[float, float] | None = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.root_seed}, path={list(self.path)}, counter={self._counter})"

    def split(self, index: int) -> "RngStream":
        """Child stream with path extended by `index`; parent is untouched."""
        index &= _MASK64
        return RngStream(self.root_seed, self.path + (index,),
                         _key=_child_key_int(self._key, index))

    def as_batch(self) -> "StreamBatch":
        """This stream as a batch of shape ()."""
        return StreamBatch(np.array(self._key, dtype=np.uint64))

    def split_many(self, indices) -> "StreamBatch":
        """Batch of child streams, one per entry of `indices`."""
        return self.as_batch().split_many(indices)

    def _word(self) -> int:
        """The raw 64-bit word of this stream's next draw."""
        self._counter += 1
        return _mix_int(self._key + self._counter * _GOLDEN)

    def next_uniform(self) -> float:
        return (self._word() >> 11) * _TO_UNIT

    def next_gaussian(self) -> float:
        if self._pending is None:
            g, self._pending = _box_muller_float(self.next_uniform(), self._word())
            return g
        (t, b), self._pending = self._pending, None
        return _sine_branch(t, b)


class StreamBatch:
    """A rectangular batch of streams advanced in lockstep.

    Semantically equivalent to an array of :class:`RngStream` values that
    all sit at the same counter; ``uniforms``/``gaussians`` return one draw
    per stream.  Used by the vectorised sampler paths.  The second
    Box-Muller output is computed lazily, so batches that take a single
    normal per stream never pay for the sine branch.

    The arrays a batch makes (child keys, raw bits, uniforms, normals and
    the pending Box-Muller pair) come from :func:`take` on the thread that
    draws them, so a batch may be made on one thread and drawn on another.
    """

    __slots__ = ("keys", "_counter", "_pending")

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self._counter = 0
        # (2r' cos b', b') of the Box-Muller pair whose sine branch is next.
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.keys.shape

    def _child(self, parent: np.ndarray, hashed, shape: tuple) -> "StreamBatch":
        """Batch of keys mix(parent ^ hashed), broadcast to `shape`."""
        return StreamBatch(_mix_u64(np.bitwise_xor(parent, hashed, out=take(shape))))

    def split(self, index: int) -> "StreamBatch":
        """Child `index` of every stream in the batch; the shape is unchanged."""
        return self._child(self.keys, np.uint64(_mix_int((index & _MASK64) + _GOLDEN)),
                           self.shape)

    def split_many(self, indices) -> "StreamBatch":
        """Child batch of shape `self.shape + indices.shape`."""
        idx = np.asarray(indices, dtype=np.uint64)
        hashed = _mix_u64(np.add(idx, _U_GOLDEN, out=take(idx.shape)))
        return self._child(self.keys.reshape(self.shape + (1,) * idx.ndim), hashed,
                           self.shape + idx.shape)

    def split_hashed(self, hashed: np.ndarray) -> "StreamBatch":
        """Like split_many on a 1-D index set pre-hashed by `index_hash`."""
        return self._child(self.keys[..., None], hashed, self.shape + hashed.shape)

    def skip(self, offsets: np.ndarray) -> "StreamBatch":
        """Batch of shape `self.shape + offsets.shape`, each stream skipped ahead.

        Entry [..., j] is its stream after c_j more draws, where the 1-D
        `offsets` holds c_j * GOLDEN mod 2**64 (see `skip_offsets`): draw i
        of key K is mix(K + i * GOLDEN), so that stream's key is
        K + offsets[j] at this batch's counter.  A pending Box-Muller half
        would not skip with it, so the batch must hold none.
        """
        if self._pending is not None:
            raise ValueError("cannot skip a batch that holds a pending normal")
        out = StreamBatch(np.add(self.keys[..., None], offsets,
                                 out=take(self.shape + offsets.shape)))
        out._counter = self._counter
        return out

    def settled(self, draws: int) -> bool:
        """Whether each stream has taken exactly `draws` draws and holds no pending normal."""
        return self._counter == draws and self._pending is None

    def _bits(self) -> np.ndarray:
        """The raw 64-bit word of each stream's next draw."""
        step = np.uint64(((self._counter + 1) * _GOLDEN) & _MASK64)
        self._counter += 1
        return _mix_u64(np.add(self.keys, step, out=take(self.shape)))

    def uniforms(self) -> np.ndarray:
        """One uniform in [0, 1) from each stream."""
        return _to_unit(self._bits(), take(self.shape, np.float64))

    def gaussians(self) -> np.ndarray:
        """One standard normal from each stream."""
        if self._pending is None:
            u, w = self.uniforms(), self._bits()
            out = take(self.shape, np.float64)
            self._pending = _box_muller(u, w, out, take(self.shape, np.float64))
        else:
            (t, b), self._pending = self._pending, None
            out = _sine_branch(t, b, take(self.shape, np.float64))
        return out

    def each(self, draw: Callable, *args) -> np.ndarray:
        """draw(stream, *args) on each stream of the batch, as a float array of its shape.

        Runs a scalar sampler under the batch: `args` broadcast to the
        batch's shape and go to `draw` element by element, and each stream
        starts at this batch's counter and pending Box-Muller pair.  The
        batch then advances by the draws the sampler took, which must be
        the same on every stream.  The streams carry their keys but not
        their seed paths.
        """
        cols = [np.broadcast_to(a, self.shape).ravel().tolist() for a in args]
        pending = None if self._pending is None else [a.ravel().tolist() for a in self._pending]
        out = np.empty(self.keys.size)
        states, left = set(), []
        for i, key in enumerate(self.keys.ravel().tolist()):
            s = RngStream(0, (), key)
            s._counter = self._counter
            if pending is not None:
                s._pending = (pending[0][i], pending[1][i])
            out[i] = draw(s, *(c[i] for c in cols))
            states.add((s._counter, s._pending is None))
            left.append(s._pending)
        if len(states) > 1:
            raise ValueError("a sampler must take the same number of draws on every stream")
        if states:
            self._counter, idle = states.pop()
            self._pending = None if idle else tuple(
                np.array(a).reshape(self.shape) for a in zip(*left))
        return out.reshape(self.shape)


def make_root(seed: int) -> RngStream:
    """Root stream for a 64-bit seed (reduced mod 2**64); empty path."""
    return RngStream(seed)
