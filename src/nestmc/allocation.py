"""Sample-budget policies: coupling inner and outer counts under a total budget.

A policy decides how a raw-draw budget T = N*M is split between outer
samples N and inner samples M.  The power family tau(M) = ceil(c * M^alpha)
couples N to M; alpha=1 is the balanced policy that optimizes the nested
error bound at fixed T.  The fixed policies pin one side and spend the rest
of the budget on the other; a fixed inner count deliberately violates the
growth requirement for convergence and is used to demonstrate the bias
plateau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

__all__ = [
    "FixedInner",
    "FixedOuter",
    "TauPower",
    "AllocationPolicy",
    "tau",
    "split_budget",
    "budget_grid",
    "parse_policy",
]

# Snap tolerance: values this close to an integer are treated as exact before
# ceiling, so float artifacts like 0.1*30 = 3.0000000000000004 cannot bump
# the outer count.
_SNAP = 1e-9


@dataclass(frozen=True)
class FixedInner:
    """Pin the inner count at M0; the budget buys outer samples."""

    M0: int

    def __post_init__(self):
        if self.M0 < 1:
            raise ValueError(f"M0 must be >= 1, got {self.M0}")

    @property
    def name(self) -> str:
        return f"fixed-inner:M={self.M0}"


@dataclass(frozen=True)
class FixedOuter:
    """Pin the outer count at N0; the budget buys inner samples."""

    N0: int

    def __post_init__(self):
        if self.N0 < 1:
            raise ValueError(f"N0 must be >= 1, got {self.N0}")

    @property
    def name(self) -> str:
        return f"fixed-outer:N={self.N0}"


@dataclass(frozen=True)
class TauPower:
    """Coupled counts N = tau(M) = ceil(c * M**alpha)."""

    alpha: float
    c: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be finite and > 0, got {self.c}")

    @property
    def name(self) -> str:
        return f"tau:alpha={self.alpha:g},c={self.c:g}"


AllocationPolicy = Union[FixedInner, FixedOuter, TauPower]


def tau(p: AllocationPolicy, M: int) -> int:
    """Outer count prescribed by the policy at inner count M.

    FixedOuter returns its pinned N regardless of M.  FixedInner pins M and
    has no outer-count rule, so asking for tau is an error, and so is an
    outer count too large for a float.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if isinstance(p, TauPower):
        try:
            v = p.c * float(M) ** p.alpha
            r = round(v)
        except OverflowError:
            raise ValueError(f"{p.name} overflows at M={M}") from None
        if abs(v - r) <= _SNAP * max(1.0, abs(r)):
            v = r
        return max(1, math.ceil(v))
    if isinstance(p, FixedOuter):
        return p.N0
    raise ValueError("fixed-inner policy pins M and defines no outer-count rule")


def split_budget(p: AllocationPolicy, T: int) -> Tuple[int, int]:
    """Split a raw-draw budget T into (N, M) with N*M <= T.

    For the power family, M is the largest inner count whose coupled spend
    tau(M)*M stays within T (monotone predicate, binary search, ties toward
    larger M) and N = tau(M); an M whose tau overflows a float overspends.  Fixed policies spend the remainder by integer
    division.  Raises ValueError when no (N, M) with both counts >= 1 fits.
    """
    if isinstance(p, FixedInner):
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        N = T // p.M0
        if N < 1:
            raise ValueError(f"budget T={T} cannot afford one outer sample at M={p.M0}")
        return N, p.M0
    if isinstance(p, FixedOuter):
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        M = T // p.N0
        if M < 1:
            raise ValueError(f"budget T={T} cannot afford one inner sample at N={p.N0}")
        return p.N0, M
    if T < 4:
        raise ValueError(f"power-family budgets need T >= 4, got {T}")

    def fits(M: int) -> bool:
        try:
            return tau(p, M) * M <= T
        except ValueError:  # tau(M) overflows, so tau(M)*M exceeds any T
            return False

    if not fits(1):
        raise ValueError(f"budget T={T} infeasible for {p.name}")
    # invariant: lo feasible, hi infeasible (tau >= 1, so M = T + 1 overspends)
    lo, hi = 1, T + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return tau(p, lo), lo


def budget_grid(T_min: int, T_max: int, points: int) -> List[int]:
    """Geometrically spaced integer budgets from T_min to T_max inclusive.

    Values are rounded to the nearest integer and deduplicated, so fewer
    than `points` budgets can come back when the range is narrow.
    """
    if not 1 <= T_min < T_max:
        raise ValueError(f"need 1 <= T_min < T_max, got {T_min}, {T_max}")
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    raw = np.rint(np.geomspace(T_min, T_max, points)).astype(np.int64)
    raw[0], raw[-1] = T_min, T_max
    return [int(t) for t in np.unique(raw)]


def parse_policy(spec: str) -> AllocationPolicy:
    """Parse a policy spelling: tau:alpha=1,c=1 | fixed-inner:M=5 | fixed-outer:N=100.

    The `c` parameter of the power family defaults to 1 when omitted.
    The `name` property of every policy reparses to an equal policy.
    """
    kind, _, argstr = spec.partition(":")
    args = {}
    if argstr:
        for item in argstr.split(","):
            key, eq, val = item.partition("=")
            if not eq or not key:
                raise ValueError(f"bad policy argument {item!r} in {spec!r}")
            args[key.strip()] = val.strip()

    def arg(key: str, cast, default: str | None = None):
        val = args.pop(key, default)
        if val is None:
            raise ValueError(f"policy {spec!r} is missing parameter {key!r}")
        try:
            return cast(val)
        except ValueError:
            raise ValueError(f"policy {spec!r} parameter {key} must be {cast.__name__}, "
                             f"got {val!r}") from None

    if kind == "tau":
        policy: AllocationPolicy = TauPower(alpha=arg("alpha", float), c=arg("c", float, "1"))
    elif kind == "fixed-inner":
        policy = FixedInner(M0=arg("M", int))
    elif kind == "fixed-outer":
        policy = FixedOuter(N0=arg("N", int))
    else:
        raise ValueError(f"unknown policy kind {kind!r} in {spec!r}")
    if args:
        raise ValueError(f"unknown policy parameters {sorted(args)} in {spec!r}")
    return policy
