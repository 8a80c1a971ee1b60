"""Deterministic, splittable random streams.

Every stream is identified by a 64-bit key that is a pure function of
``(root_seed, path)``, where the path is the sequence of split indices
taken from the root.  Draw ``j`` of a stream is a keyed hash of ``j``
(counter mode), so

* regenerating a stream from the same seed and path is bit-identical,
* ``split`` derives a child key without advancing the parent,
* streams can be handed to workers in any order without changing output.

The generator is a SplitMix-style 64-bit mixer (Stafford variant 13)
applied to ``key + (j+1) * GOLDEN``.  Normal draws use the Box-Muller
transform on consecutive uniform pairs; the first output is returned and
the second is produced on the following draw, so a pair always consumes
exactly two uniforms.  Bit-exactness is promised within this
implementation only, not across languages or libraries.

A stream and a batch hold the same state, a counter and the (radius, angle)
of a pending Box-Muller pair, so :meth:`StreamBatch.each` can run a scalar
sampler on each stream of a batch and leave the batch where the sampler
left the streams.

A :class:`StreamBatch` writes its child keys, raw bits, uniforms and normals
into the buffers of a :class:`Workspace`, so a loop that draws block after
block of the same size reuses the same memory instead of allocating (and,
for large blocks, page-faulting) fresh arrays each time.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

__all__ = [
    "RngStream",
    "StreamBatch",
    "Workspace",
    "make_root",
    "split",
    "next_uniform",
    "next_gaussian",
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
_TWO_PI = 2.0 * np.pi
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))


def _mix_int(z: int) -> int:
    """Stafford mix13 finaliser on a python int, mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix_u64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Stafford mix13 on a uint64 array, in place; `tmp` (z's shape) is scratch."""
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= _U_MIX_A
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= _U_MIX_B
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def _root_key(seed: int) -> int:
    return _mix_int((seed & _MASK64) ^ _SEED_SALT)


def _child_key_int(key: int, index: int) -> int:
    return _mix_int(key ^ _mix_int((index + _GOLDEN) & _MASK64))


def index_hash(indices) -> np.ndarray:
    """Pre-hashed split indices for reuse across many `split_hashed` calls."""
    h = np.asarray(indices, dtype=np.uint64) + _U_GOLDEN
    return _mix_u64(h, np.empty_like(h))


def _raw_block(key: int, start: int, n: int) -> np.ndarray:
    """Raw 64-bit outputs for draws start .. start+n-1 of one stream."""
    j = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    j *= _U_GOLDEN
    j += np.uint64(key)
    return _mix_u64(j, np.empty_like(j))


def _to_unit(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top 53 bits -> float64 in [0, 1), written to `out`; shifts `bits` in place."""
    bits >>= _S11
    return np.multiply(bits, _TO_UNIT, out=out)


def _radius(u: np.ndarray) -> np.ndarray:
    """Box-Muller radius sqrt(-2 log(1 - u)), in place; 1-u lies in (0, 1]."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u *= -2.0
    return np.sqrt(u, out=u)


# References a pooled buffer has from the pool's own list, the scan's loop
# variable and sys.getrefcount's argument: with no more, no array views it.
def _idle_refs() -> int:
    for buf in [np.empty(0)]:
        return sys.getrefcount(buf)


_IDLE_REFS = _idle_refs()
# Buffers one workspace keeps at most, and the smallest request it serves
# from them.  Smaller arrays are left to malloc, whose heap recycles them
# without faults; pooling them would pin a whole buffer each.
_POOL_MAX = 8
_POOL_MIN = 1 << 12


class Workspace:
    """Reusable uint64 buffers of `size` elements for the arrays of batched draws.

    `take` returns a view of a pooled buffer that no live array still views
    (checked by reference count), so an array handed out stays its holder's
    for as long as it is referenced, and a buffer is recycled as soon as the
    last view of it is dropped.  A request larger than `size`, smaller than
    `_POOL_MIN` elements or beyond `_POOL_MAX` live buffers is a plain
    allocation.  A workspace must not be used by two threads at once.
    """

    __slots__ = ("size", "_pool")

    def __init__(self, size: int):
        self.size = size
        self._pool: list = []

    def take(self, shape: tuple, dtype=np.uint64) -> np.ndarray:
        """An uninitialised array of `shape` (uint64 or float64) for the caller."""
        n = math.prod(shape)
        if _POOL_MIN <= n <= self.size:
            for buf in self._pool:
                if sys.getrefcount(buf) <= _IDLE_REFS:
                    return buf[:n].view(dtype).reshape(shape)
            if len(self._pool) < _POOL_MAX:
                buf = np.empty(self.size, dtype=np.uint64)
                self._pool.append(buf)
                return buf[:n].view(dtype).reshape(shape)
        return np.empty(shape, dtype=dtype)

    def mix(self, z: np.ndarray) -> np.ndarray:
        """`_mix_u64` of `z` in place, with scratch from this workspace."""
        return _mix_u64(z, self.take(z.shape))


class RngStream:
    """One reproducible random stream, identified by (root_seed, path).

    The stream holds a draw counter and the (radius, angle) of a pending
    Box-Muller pair, as one-element arrays, whose sine branch is its next
    normal; ``split`` is pure and never advances the parent.
    """

    __slots__ = ("root_seed", "path", "_key", "_counter", "_pending")

    def __init__(self, root_seed: int, path: tuple[int, ...] = (), _key: int | None = None):
        self.root_seed = root_seed & _MASK64
        self.path = tuple(i & _MASK64 for i in path)
        if _key is None:
            _key = _root_key(self.root_seed)
            for i in self.path:
                _key = _child_key_int(_key, i)
        self._key = _key
        self._counter = 0
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.root_seed}, path={list(self.path)}, counter={self._counter})"

    def split(self, index: int) -> "RngStream":
        """Child stream with path extended by `index`; parent is untouched."""
        index &= _MASK64
        return RngStream(self.root_seed, self.path + (index,),
                         _key=_child_key_int(self._key, index))

    def as_batch(self, workspace: "Workspace | None" = None) -> "StreamBatch":
        """This stream as a batch of shape (), drawing into `workspace`."""
        return StreamBatch(np.array(self._key, dtype=np.uint64), workspace)

    def split_many(self, indices, workspace: "Workspace | None" = None) -> "StreamBatch":
        """Batch of child streams, one per entry of `indices`, drawing into `workspace`."""
        return self.as_batch(workspace).split_many(indices)

    def uniforms(self, n: int) -> np.ndarray:
        """Next `n` uniform draws in [0, 1)."""
        out = _to_unit(_raw_block(self._key, self._counter, n), np.empty(n))
        self._counter += n
        return out

    def gaussians(self, n: int) -> np.ndarray:
        """Next `n` standard-normal draws (Box-Muller pairs; an odd one stays pending)."""
        out = np.empty(n)
        k = 0
        if self._pending is not None and n > 0:
            r, t = self._pending
            np.multiply(np.sin(t), r, out=out[:1])
            self._pending = None
            k = 1
        pairs = (n - k + 1) // 2
        if pairs > 0:
            u = self.uniforms(2 * pairs)
            r, t = _radius(u[0::2]), u[1::2] * _TWO_PI
            inter = np.empty((pairs, 2))
            np.multiply(np.cos(t), r, out=inter[:, 0])
            np.multiply(np.sin(t), r, out=inter[:, 1])
            take = n - k
            out[k:] = inter.reshape(-1)[:take]
            if take < 2 * pairs:
                self._pending = (r[-1:], t[-1:])
        return out

    def next_uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def next_gaussian(self) -> float:
        return float(self.gaussians(1)[0])


class StreamBatch:
    """A rectangular batch of streams advanced in lockstep.

    Semantically equivalent to an array of :class:`RngStream` values that
    all sit at the same counter; ``uniforms``/``gaussians`` return one draw
    per stream.  Used by the vectorised sampler paths.  The second
    Box-Muller output is computed lazily, so batches that take a single
    normal per stream never pay for the sine branch.

    The arrays a batch makes (child keys, raw bits, uniforms, normals and
    the pending Box-Muller pair) are taken from `workspace`, which its
    children share; a batch made without one gets one sized to itself.
    """

    __slots__ = ("keys", "workspace", "_counter", "_pending")

    def __init__(self, keys: np.ndarray, workspace: Workspace | None = None):
        self.keys = keys
        self.workspace = Workspace(keys.size) if workspace is None else workspace
        self._counter = 0
        # (radius, angle) of the Box-Muller pair whose sine branch is next.
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.keys.shape

    def _child(self, parent: np.ndarray, hashed, shape: tuple) -> "StreamBatch":
        """Batch of keys mix(parent ^ hashed), broadcast to `shape`."""
        ws = self.workspace
        keys = np.bitwise_xor(parent, hashed, out=ws.take(shape))
        return StreamBatch(ws.mix(keys), ws)

    def split(self, index: int) -> "StreamBatch":
        """Child `index` of every stream in the batch; the shape is unchanged."""
        return self._child(self.keys, np.uint64(_mix_int((index & _MASK64) + _GOLDEN)),
                           self.shape)

    def split_many(self, indices) -> "StreamBatch":
        """Child batch of shape `self.shape + indices.shape`."""
        idx = np.asarray(indices, dtype=np.uint64)
        ws = self.workspace
        hashed = ws.mix(np.add(idx, _U_GOLDEN, out=ws.take(idx.shape)))
        return self._child(self.keys.reshape(self.shape + (1,) * idx.ndim), hashed,
                           self.shape + idx.shape)

    def split_hashed(self, hashed: np.ndarray) -> "StreamBatch":
        """Like split_many on a 1-D index set pre-hashed by `index_hash`."""
        return self._child(self.keys[..., None], hashed, self.shape + hashed.shape)

    def uniforms(self) -> np.ndarray:
        """One uniform in [0, 1) from each stream."""
        ws = self.workspace
        step = np.uint64(((self._counter + 1) * _GOLDEN) & _MASK64)
        bits = ws.mix(np.add(self.keys, step, out=ws.take(self.shape)))
        self._counter += 1
        return _to_unit(bits, ws.take(self.shape, np.float64))

    def gaussians(self) -> np.ndarray:
        """One standard normal from each stream."""
        if self._pending is None:
            r = _radius(self.uniforms())
            t = self.uniforms()
            t *= _TWO_PI
            self._pending = (r, t)
            trig = np.cos
        else:
            (r, t), self._pending = self._pending, None
            trig = np.sin
        out = trig(t, out=self.workspace.take(self.shape, np.float64))
        out *= r
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
        pending = None if self._pending is None else [a.ravel() for a in self._pending]
        out = np.empty(self.keys.size)
        states, left = set(), []
        for i, key in enumerate(self.keys.ravel().tolist()):
            s = RngStream(0, (), key)
            s._counter = self._counter
            if pending is not None:
                s._pending = (pending[0][i:i + 1], pending[1][i:i + 1])
            out[i] = draw(s, *(c[i] for c in cols))
            states.add((s._counter, s._pending is None))
            left.append(s._pending)
        if len(states) > 1:
            raise ValueError("a sampler must take the same number of draws on every stream")
        if states:
            self._counter, idle = states.pop()
            self._pending = None if idle else tuple(
                np.concatenate(a).reshape(self.shape) for a in zip(*left))
        return out.reshape(self.shape)


def make_root(seed: int) -> RngStream:
    """Root stream for a 64-bit seed (reduced mod 2**64); empty path."""
    return RngStream(seed)


def split(s: RngStream, index: int) -> RngStream:
    """Pure child derivation: `s` is not advanced."""
    return s.split(index)


def next_uniform(s: RngStream) -> float:
    """Advance `s` by one draw; marginally Uniform[0, 1)."""
    return s.next_uniform()


def next_gaussian(s: RngStream) -> float:
    """Advance `s`; standard normal via Box-Muller."""
    return s.next_gaussian()
