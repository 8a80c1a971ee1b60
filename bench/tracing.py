"""Span tracing from outside the package, and the per-layer metrics.

`Tracer.install` wraps public functions of each `nestmc` layer in place and
`uninstall` puts the originals back, so untraced and traced calls can
alternate in one process.  A span is the record

    (span id, parent id or 0, name, thread id, start ns, end ns, counts)

where the parent is the span that called it on the same thread and counts
are three integers.  Spans stay in memory, flattened into one list of ints
and names so that holding them adds no objects for the garbage collector to
scan, until the benchmark summarises them.

Each traced call costs about a microsecond of the tracer's own work, part of
it inside the span and the rest in its caller.  `calibrate` measures both
parts and `summarize` subtracts them, so self times add up to the untraced
wall time rather than the traced one.

Only `install` imports `nestmc`; the span and self-time logic is plain
Python so the self-test can drive it with synthetic spans.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Metric group -> the functions it sums.  A span is named "<layer>.<function>",
# the layer being the first part of the group name.
GROUPS = {
    "rng.key": ("RngStream.split", "RngStream.split_many", "StreamBatch.split_many",
                "StreamBatch.split_hashed", "index_hash"),
    "rng.uniform": ("RngStream.uniforms", "StreamBatch.uniforms", "RngStream.next_uniform"),
    "rng.gauss": ("RngStream.gaussians", "StreamBatch.gaussians", "RngStream.next_gaussian"),
    "models.phi": ("phi",),
    "models.f": ("f",),
    "models.sampler": ("outer_batch", "inner_batch", "outer_sampler", "inner_sampler"),
    "estimators": ("nmc_estimate",),
    "allocation": ("split_budget", "parse_policy", "budget_grid"),
    "harness": ("run_convergence", "compare_policies"),
    "cli": ("main",),
}
_GROUP_OF = {f"{g.split('.')[0]}.{fn}": g for g, fns in GROUPS.items() for fn in fns}

Counts = Tuple[int, int, int]
Span = Tuple[int, int, str, int, int, int, Counts]
Counter = Callable[[tuple, object], Counts]
NO_COUNTS: Counts = (0, 0, 0)
_FIELDS = 9  # a span's length in Tracer.flat: six fields and three counts


@dataclasses.dataclass
class Stats:
    calls: int = 0
    total_ns: float = 0
    self_ns: float = 0
    counts: Counts = NO_COUNTS
    # Time of the spans with no parent on their own thread.
    root_ns: float = 0

    def add(self, calls: int, total_ns: float, self_ns: float, counts: Counts,
            root_ns: float = 0) -> None:
        self.calls += calls
        self.total_ns += total_ns
        self.self_ns += self_ns
        self.counts = tuple(a + b for a, b in zip(self.counts, counts))
        self.root_ns += root_ns


class Tracer:
    def __init__(self) -> None:
        self.flat: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Counter] = None) -> Callable:
        """`fn` recording one span per call; `count(args, result)` gives its counts."""
        extend, local, ids = self.flat.extend, self._local, self._ids
        clock, get_ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            c = NO_COUNTS if count is None else count(args, out)
            # Extending by a tuple is atomic under the GIL, so the records of
            # two threads never interleave.
            extend((sid, parent, name, get_ident(), start, end, c[0], c[1], c[2]))
            return out
        return traced

    def spans(self) -> List[Span]:
        f = self.flat
        return [(*f[i:i + 6], tuple(f[i + 6:i + _FIELDS]))
                for i in range(0, len(f), _FIELDS)]

    def patch(self, owner, attr: str, name: str, count: Optional[Counter] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, count))
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap the layers of the imported `nestmc` package."""
        import nestmc.cli as cli
        import nestmc.estimators as estimators
        import nestmc.harness as harness
        import nestmc.models as models
        import nestmc.rng as rng

        for cls in (rng.RngStream, rng.StreamBatch):
            for attr, count in (("split_many", _keys), ("split_hashed", _keys),
                                ("uniforms", _size), ("gaussians", _size)):
                if attr in cls.__dict__:
                    self.patch(cls, attr, f"rng.{cls.__name__}.{attr}", count)
        self.patch(rng.RngStream, "split", "rng.RngStream.split", _one)
        self.patch(rng.RngStream, "next_uniform", "rng.RngStream.next_uniform")
        self.patch(rng.RngStream, "next_gaussian", "rng.RngStream.next_gaussian")
        # The package binds these by name at import, so patch the importer.
        self.patch(estimators, "index_hash", "rng.index_hash", _size)
        self.patch(harness, "nmc_estimate", "estimators.nmc_estimate", _estimate)
        self.patch(harness, "split_budget", "allocation.split_budget")
        self.patch(cli, "parse_policy", "allocation.parse_policy")
        self.patch(cli, "budget_grid", "allocation.budget_grid")
        self.patch(cli, "run_convergence", "harness.run_convergence", _reps)
        self.patch(cli, "compare_policies", "harness.compare_policies", _reps)

        catalog = models.CATALOG
        saved = dict(catalog)
        for key, factory in saved.items():
            catalog[key] = self._traced_factory(factory)
        self._undo.append(lambda: catalog.update(saved))

    def _traced_factory(self, factory: Callable) -> Callable:
        def make():
            p = factory()
            fields = {attr: self.wrap(f"models.{attr}", getattr(p, attr), _size)
                      for attr in ("phi", "f", "outer_batch", "inner_batch",
                                   "outer_sampler", "inner_sampler")
                      if getattr(p, attr) is not None}
            return dataclasses.replace(p, **fields)
        return make

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


CALIBRATE_CALLS = 20000
CALIBRATE_REPEATS = 5


def calibrate() -> Tuple[float, float]:
    """Tracer ns per span (inside the span, outside it in the caller)."""
    probe = Tracer()

    def noop(x):
        return x

    traced = probe.wrap("calibrate.noop", noop, _one)

    def loop(fn) -> float:
        t0 = time.perf_counter_ns()
        for _ in range(CALIBRATE_CALLS):
            fn(None)
        return (time.perf_counter_ns() - t0) / CALIBRATE_CALLS

    bare, total, inside = [], [], []
    for _ in range(CALIBRATE_REPEATS):
        probe.flat.clear()
        bare.append(loop(noop))
        total.append(loop(traced))
        inside.append(statistics.median(s[5] - s[4] for s in probe.spans()))
    b, t, i = (statistics.median(v) for v in (bare, total, inside))
    return i - b, t - i


def _one(args, out) -> Counts:
    return (1, 0, 0)


def _size(args, out) -> Counts:
    # Scalar samplers return a float, which has no size.
    return (out.size if isinstance(out, np.ndarray) else 1, 0, 0)


def _keys(args, out) -> Counts:
    return (out.keys.size, 0, 0)


def _estimate(args, out) -> Counts:
    return (out.total_draws, out.n_outer, out.degenerate_count)


def _reps(args, out) -> Counts:
    rows = getattr(out, "rows", None)
    return (sum(r.reps for r in rows) if rows is not None else out.reps, 0, 0)


def summarize(spans: Sequence[Span], overhead: Tuple[float, float] = (0.0, 0.0),
              into: Optional[Dict[str, Stats]] = None) -> Dict[str, Stats]:
    """Per span name: calls, total time, self time and summed counts.

    A span's time is its duration less the tracer's `overhead` (inside, outside)
    within it: its own inside part, and both parts of every descendant.  Self
    time is that less the time of its children, which by construction ran on
    the same thread.  A span ends, and is recorded, after its children, so one
    pass in recorded order sees every child first.  Adds to `into` when given.
    """
    inside, outside = overhead
    children: Dict[int, Tuple[int, float, int]] = {}
    out = {} if into is None else into
    for sid, parent, name, _tid, start, end, counts in spans:
        dur = end - start
        child_dur, child_time, n = children.pop(sid, (0, 0.0, 0))
        time_ns = dur - inside - (child_dur - child_time) - n * outside
        out.setdefault(name, Stats()).add(1, time_ns, time_ns - child_time, counts,
                                          0 if parent else time_ns)
        if parent:
            d, t, k = children.get(parent, (0, 0.0, 0))
            children[parent] = (d + dur, t + time_ns, k + 1)
    return out


def group_stats(stats: Dict[str, Stats]) -> Dict[str, Stats]:
    """Stats summed over the span names of each metric group."""
    groups = {g: Stats() for g in GROUPS}
    for name, st in stats.items():
        groups[_GROUP_OF[name]].add(st.calls, st.total_ns, st.self_ns, st.counts, st.root_ns)
    return groups


def layer_metrics(stats: Dict[str, Stats], calls: int, workers: int,
                  traced_wall_s: float, untraced_wall_s: float,
                  report_bytes: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the span stats of `calls` traced `main` calls.

    A `_ns_per_draw` metric is the group's self time over the values its spans
    produced (keys, uniforms, Gaussians, phi values, sampler draws).
    `traced_wall_s` and `untraced_wall_s` are per-call medians.

    Spans other than `cli.main` that have no parent on their own thread ran
    on a pool's threads while the harness span waited for them.  Their time
    over `workers` is taken off the harness's self time, and left out of the
    calling thread's self-time sum.
    """
    g = group_stats(stats)
    pool_ns = sum(st.root_ns for name, st in stats.items() if name != "cli.main")

    def per_value(name: str) -> float:
        st = g[name]
        return st.self_ns / st.counts[0] if st.counts[0] else 0.0

    est, harness = g["estimators"], g["harness"]
    draws, terms, bad = est.counts
    split_budget = stats.get("allocation.split_budget", Stats())
    return {
        "rng.key_ns_per_draw": (per_value("rng.key"), "ns/draw"),
        "rng.uniform_ns_per_draw": (per_value("rng.uniform"), "ns/draw"),
        "rng.gauss_ns_per_draw": (per_value("rng.gauss"), "ns/draw"),
        "rng.calls": (sum(g[k].calls for k in ("rng.key", "rng.uniform", "rng.gauss"))
                      / calls, "count"),
        "models.phi_ns_per_draw": (per_value("models.phi"), "ns/draw"),
        "models.f_ns_per_term": (per_value("models.f"), "ns/term"),
        "models.sampler_self_ns_per_draw": (per_value("models.sampler"), "ns/draw"),
        "estimators.fixed_us_per_call": (est.self_ns / est.calls / 1e3 if est.calls else 0.0,
                                         "us/call"),
        "estimators.self_ns_per_draw": (est.self_ns / draws if draws else 0.0, "ns/draw"),
        "estimators.calls": (est.calls / calls, "count"),
        "estimators.draws": (draws / calls, "count"),
        "estimators.useful_frac": (1.0 - bad / terms if terms else 0.0, "frac"),
        "allocation.split_budget_calls": (split_budget.calls / calls, "count"),
        "allocation.self_ms": (g["allocation"].self_ns / calls / 1e6, "ms"),
        "harness.self_s": ((harness.self_ns - pool_ns / workers) / calls / 1e9, "s"),
        "harness.busy_frac": (est.total_ns / (harness.total_ns * workers)
                              if harness.total_ns else 0.0, "frac"),
        "harness.reps": (harness.counts[0] / calls, "count"),
        "cli.self_ms": (g["cli"].self_ns / calls / 1e6, "ms"),
        "cli.report_bytes": (float(report_bytes), "bytes"),
        "trace.overhead_frac": (traced_wall_s / untraced_wall_s - 1.0, "frac"),
        # The calling thread's self times over the untraced wall time: near 1
        # when the tracer's cost is fully removed.  With a pool it runs above
        # 1 by the tracer's cost on the pool's threads, which the harness
        # span waits through.
        "trace.self_sum_frac": ((sum(st.self_ns for st in g.values()) - pool_ns)
                                / (calls * untraced_wall_s * 1e9), "frac"),
    }
