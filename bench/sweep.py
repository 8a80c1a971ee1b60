"""Layer sweep: time per element of each layer at fixed N = M sizes.

Calls the package's public functions directly on one N x M block, laid out
the way `nmc_estimate` lays out a chunk: keys from `split_many` and
`split_hashed`, one uniform or Gaussian per key, `phi` on the block, the
mean over M, and `f` on the N means.  The sizes do not depend on any
workload's grid, so the table is a draw-size profile of the layers.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np

from nestmc.estimators import nmc_estimate
from nestmc.models import CATALOG
from nestmc.rng import StreamBatch, index_hash, make_root

SIZES = (4, 64, 256, 1024)
MIN_SAMPLE_S = 0.005
SAMPLES = 5


def ns_per_call(fn: Callable[[], object]) -> float:
    """Median time of one call, each sample repeating `fn` for >= MIN_SAMPLE_S."""
    n = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn()
        dt = time.perf_counter_ns() - t0
        if dt >= MIN_SAMPLE_S * 1e9:
            break
        n *= 2
    times = [dt / n]
    for _ in range(SAMPLES - 1):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            fn()
        times.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(times)


def sweep(seed: int) -> Dict[str, Tuple[float, str]]:
    """Metrics named sweep.<layer>.<op>_ns.nm<K> for N = M = K, plus the fixed cost."""
    p = CATALOG["gauss-log"]()
    root = make_root(seed)
    out: Dict[str, Tuple[float, str]] = {}
    for k in SIZES:
        idx = np.arange(k, dtype=np.uint64)
        mhash = index_hash(idx)
        s_outer, s_inner = root.split(0), root.split(1)

        def keys():
            return s_inner.split_many(idx).split_hashed(mhash)

        block = keys().keys
        y = p.outer_batch(s_outer.split_many(idx))[:, None]
        z = p.inner_batch(StreamBatch(block), y)
        v = p.phi(y, z)
        gam = np.mean(v, axis=-1)
        ops = {
            "rng.key_ns": (keys, k * k, "ns/draw"),
            "rng.uniform_ns": (lambda: StreamBatch(block).uniforms(), k * k, "ns/draw"),
            "rng.gauss_ns": (lambda: StreamBatch(block).gaussians(), k * k, "ns/draw"),
            "models.phi_ns": (lambda: p.phi(y, z), k * k, "ns/draw"),
            "estimators.reduce_ns": (lambda: np.mean(v, axis=-1), k * k, "ns/draw"),
            "models.f_ns": (lambda: p.f(y[:, 0], gam), k, "ns/term"),
            "estimators.nmc_ns": (lambda: nmc_estimate(p, k, k, root), k * k, "ns/draw"),
        }
        for op, (fn, elems, unit) in ops.items():
            out[f"sweep.{op}.nm{k}"] = (ns_per_call(fn) / elems, unit)
    out["sweep.estimators.call_us.nm1"] = (
        ns_per_call(lambda: nmc_estimate(p, 1, 1, root)) / 1e3, "us/call")
    return out
