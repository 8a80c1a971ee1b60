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
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RngStream",
    "StreamBatch",
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


def _mix_int(z: int) -> int:
    """Stafford mix13 finaliser on a python int, mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """Stafford mix13 on a uint64 array, in place; callers pass owned temps."""
    z ^= z >> np.uint64(30)
    z *= _U_MIX_A
    z ^= z >> np.uint64(27)
    z *= _U_MIX_B
    z ^= z >> np.uint64(31)
    return z


def _root_key(seed: int) -> int:
    return _mix_int((seed & _MASK64) ^ _SEED_SALT)


def _child_key_int(key: int, index: int) -> int:
    return _mix_int(key ^ _mix_int((index + _GOLDEN) & _MASK64))


def index_hash(indices) -> np.ndarray:
    """Pre-hashed split indices for reuse across many `split_hashed` calls."""
    return _mix_u64(np.asarray(indices, dtype=np.uint64) + _U_GOLDEN)


def _child_keys(key: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorised child-key derivation; broadcasts key against indices."""
    idx = np.asarray(indices, dtype=np.uint64)
    k = key if isinstance(key, np.ndarray) else np.uint64(key)
    return _mix_u64(k ^ _mix_u64(idx + _U_GOLDEN))


def _raw_block(key: int, start: int, n: int) -> np.ndarray:
    """Raw 64-bit outputs for draws start .. start+n-1 of one stream."""
    j = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    j *= _U_GOLDEN
    j += np.uint64(key)
    return _mix_u64(j)


def _raw_at(keys: np.ndarray, draw: int) -> np.ndarray:
    """Raw 64-bit output number `draw` for each key in an array."""
    step = np.uint64(((draw + 1) * _GOLDEN) & _MASK64)
    return _mix_u64(keys + step)


def _to_unit(bits: np.ndarray) -> np.ndarray:
    # top 53 bits -> float64 in [0, 1); consumes its (owned) argument
    bits >>= np.uint64(11)
    return bits * _TO_UNIT


def _gauss_first(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    # Box-Muller cosine branch; 1-u1 lies in (0, 1] so the radius is finite.
    # Inputs are left untouched (the pair may be needed for the sine branch).
    r = 1.0 - u1
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = u2 * _TWO_PI
    np.cos(t, out=t)
    t *= r
    return t


def _gauss_second(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    # Sine branch of the same pair; recomputes the radius bit-identically.
    r = 1.0 - u1
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = u2 * _TWO_PI
    np.sin(t, out=t)
    t *= r
    return t


class RngStream:
    """One reproducible random stream, identified by (root_seed, path).

    The stream holds a draw counter and a cached second Box-Muller output;
    ``split`` is pure and never advances the parent.
    """

    __slots__ = ("root_seed", "path", "_key", "_counter", "_spare")

    def __init__(self, root_seed: int, path: tuple[int, ...] = (), _key: int | None = None):
        self.root_seed = root_seed & _MASK64
        self.path = tuple(i & _MASK64 for i in path)
        if _key is None:
            _key = _root_key(self.root_seed)
            for i in self.path:
                _key = _child_key_int(_key, i)
        self._key = _key
        self._counter = 0
        self._spare: float | None = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.root_seed}, path={list(self.path)}, counter={self._counter})"

    def split(self, index: int) -> "RngStream":
        """Child stream with path extended by `index`; parent is untouched."""
        index &= _MASK64
        return RngStream(self.root_seed, self.path + (index,),
                         _key=_child_key_int(self._key, index))

    def split_many(self, indices) -> "StreamBatch":
        """Batch of child streams, one per entry of `indices`."""
        idx = np.asarray(indices, dtype=np.uint64)
        return StreamBatch(_child_keys(self._key, idx))

    def uniforms(self, n: int) -> np.ndarray:
        """Next `n` uniform draws in [0, 1)."""
        out = _to_unit(_raw_block(self._key, self._counter, n))
        self._counter += n
        return out

    def gaussians(self, n: int) -> np.ndarray:
        """Next `n` standard-normal draws (Box-Muller pairs, cached spare)."""
        out = np.empty(n)
        k = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            k = 1
        pairs = (n - k + 1) // 2
        if pairs > 0:
            u = self.uniforms(2 * pairs)
            u1, u2 = u[0::2], u[1::2]
            inter = np.empty(2 * pairs)
            inter[0::2] = _gauss_first(u1, u2)
            inter[1::2] = _gauss_second(u1, u2)
            take = n - k
            out[k:] = inter[:take]
            if take < 2 * pairs:
                self._spare = float(inter[take])
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
    """

    __slots__ = ("keys", "_counter", "_pending")

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self._counter = 0
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.keys.shape

    def split(self, index: int) -> "StreamBatch":
        """Child `index` of every stream in the batch; the shape is unchanged."""
        return StreamBatch(_mix_u64(self.keys ^ index_hash([index & _MASK64])[0]))

    def split_many(self, indices) -> "StreamBatch":
        """Child batch of shape `self.shape + indices.shape`."""
        idx = np.asarray(indices, dtype=np.uint64)
        keys = _child_keys(self.keys[..., None], idx.reshape((1,) * self.keys.ndim + idx.shape))
        return StreamBatch(keys)

    def split_hashed(self, hashed: np.ndarray) -> "StreamBatch":
        """Like split_many on a 1-D index set pre-hashed by `index_hash`."""
        return StreamBatch(_mix_u64(self.keys[..., None] ^ hashed))

    def uniforms(self) -> np.ndarray:
        """One uniform in [0, 1) from each stream."""
        out = _to_unit(_raw_at(self.keys, self._counter))
        self._counter += 1
        return out

    def gaussians(self) -> np.ndarray:
        """One standard normal from each stream."""
        if self._pending is not None:
            u1, u2 = self._pending
            self._pending = None
            return _gauss_second(u1, u2)
        u1 = self.uniforms()
        u2 = self.uniforms()
        self._pending = (u1, u2)
        return _gauss_first(u1, u2)


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
