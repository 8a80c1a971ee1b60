"""Nested estimation problems.

A nested problem is an outer expectation over y of f(y, gamma(y)), where
gamma(y) is itself an inner expectation of phi(y, z).  This module defines
the problem container, a numeric validator for its declared invariants, and
a deterministic Gauss-Hermite quadrature oracle for gamma on a Gaussian
inner law, used to cross-check closed-form ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .rng import RngStream, make_root

__all__ = [
    "GaussianInner",
    "NestedProblem",
    "validate",
    "gamma_quadrature",
]


@dataclass(frozen=True)
class GaussianInner:
    """Inner density z|y ~ Normal(mean(y), sd(y)^2); integrated by Gauss-Hermite."""

    mean: Callable[[float], float]
    sd: Callable[[float], float]


@dataclass(frozen=True)
class NestedProblem:
    """A nested expectation E_y[ f(y, E_{z}[phi(y, z)]) ].

    Samplers receive their stream explicitly and must consume a fixed number
    of draws per call; the estimators raise ValueError when a scalar sampler
    takes different numbers of draws on the streams of one batch.  Inner
    draw m of outer draw n is call m of the inner sampler on stream <1,n>.
    The nested estimator makes calls 2k and 2k+1 together, on that stream
    skipped ahead by 2k draws, so every two consecutive calls must take
    exactly two draws from the stream itself (not from its splits, which do
    not advance it) and leave no pending Box-Muller half: one normal, or one
    uniform, per call, as every catalog model draws.  Otherwise the
    estimator raises ValueError naming the model.  ``phi`` and ``f`` must
    accept numpy arrays and broadcast; all built-in models are scalar-valued.

    Optional oracle fields (``gamma_exact``, ``truth``, ``linear_g``) enable
    testing and the linear-collapse estimator but are not required by the
    estimators themselves.  ``outer_batch`` / ``inner_batch`` are optional
    vectorized samplers drawing one value per stream of a batch; when absent
    ``batch_samplers`` runs the scalar sampler stream by stream, with
    identical output.
    """

    outer_sampler: Callable[[RngStream], float]
    inner_sampler: Callable[[RngStream, float], float]
    phi: Callable
    f: Callable
    name: str
    gamma_exact: Optional[Callable] = None
    truth: Optional[float] = None
    linear_g: Optional[Callable] = None
    # Quadrature description of the inner density; None disables gamma_quadrature.
    inner_quad: Optional[GaussianInner] = None
    # Vectorized samplers: outer_batch(batch) and inner_batch(batch, y) draw one
    # value per stream in the batch.
    outer_batch: Optional[Callable] = None
    inner_batch: Optional[Callable] = None
    # Closed-form E[I_{N,M}] as a function of M, for models where the estimator
    # expectation is known exactly (the quadratic bias pair).
    expected_nmc_value: Optional[Callable[[int], float]] = None

    def batch_samplers(self) -> tuple:
        """(outer_batch, inner_batch); a missing one runs the scalar sampler
        on each stream of the batch (``StreamBatch.each``)."""
        return (self.outer_batch or (lambda b: b.each(self.outer_sampler)),
                self.inner_batch or (lambda b, y: b.each(self.inner_sampler, y)))


# Probe-point generation for validate(): draws come from the problem's own
# samplers on a fixed root seed, so the checks work on any sample space.
_PROBE_SEED = 0
_N_PROBES = 5


def _probe_points(p: NestedProblem):
    root = make_root(_PROBE_SEED)
    ys, zs = [], []
    for i in range(_N_PROBES):
        s = root.split(i)
        y = p.outer_sampler(s)
        z = p.inner_sampler(s, y)
        ys.append(y)
        zs.append(z)
    return ys, zs


def validate(p: NestedProblem) -> list:
    """Check a problem's declared invariants numerically.

    Returns a list of violation descriptions; an empty list means every
    declared invariant held on the probe grid.  Violations never raise.

    Checks performed:

    * if ``linear_g`` is declared, f(y, a*v + b*w) must match
      a*f(y,v) + b*f(y,w) to 1e-12 relative tolerance;
    * if both ``gamma_exact`` and quadrature support are declared, they must
      agree to 1e-8 absolute on the probe points;
    * ``f`` must accept ``phi``'s output (dimension agreement).
    """
    report = []
    ys, zs = _probe_points(p)

    # Dimension agreement: f must consume phi's output at every probe.
    for y, z in zip(ys, zs):
        try:
            w = p.phi(y, z)
            v = p.f(y, w)
        except Exception as exc:  # noqa: BLE001 - report, don't fault
            report.append(f"f(y, phi(y, z)) failed at probe y={y!r}: {exc}")
            break
        if np.ndim(v) != 0 or not np.isfinite(v):
            report.append(f"f output not a finite scalar at probe y={y!r}")
            break

    if p.linear_g is not None:
        tol = 1e-12
        coeffs = [(1.0, 1.0), (0.5, 2.0), (-1.0, 0.25)]
        for y, z in zip(ys, zs):
            w0 = float(p.phi(y, z))
            for v0 in (w0, 0.5 * w0 + 0.1):
                for a, b in coeffs:
                    lhs = p.f(y, a * v0 + b * w0)
                    rhs = a * p.f(y, v0) + b * p.f(y, w0)
                    scale = max(1.0, abs(lhs), abs(rhs))
                    if abs(lhs - rhs) > tol * scale:
                        report.append(
                            "linear_g declared but f is not linear in w: "
                            f"f({y!r}, {a}*{v0!r}+{b}*{w0!r}) = {lhs!r} != {rhs!r}"
                        )
                        break
                else:
                    continue
                break
        # g(y)*w must actually reproduce f(y, w).
        for y, z in zip(ys, zs):
            w0 = float(p.phi(y, z))
            fv = p.f(y, w0)
            gv = p.linear_g(y) * w0
            if abs(fv - gv) > 1e-12 * max(1.0, abs(fv)):
                report.append(
                    f"linear_g(y)*w disagrees with f(y, w) at y={y!r}: {gv!r} vs {fv!r}"
                )
                break

    if p.gamma_exact is not None and p.inner_quad is not None:
        for y in ys:
            approx = gamma_quadrature(p, y, 2000)
            exact = p.gamma_exact(y)
            if abs(approx - exact) > 1e-8:
                report.append(
                    f"gamma_exact({y!r}) = {exact!r} disagrees with quadrature {approx!r}"
                )

    return report


# scipy.special is imported by the quadrature oracle alone, so that the
# estimators and the CLI start without it.
@lru_cache(maxsize=8)
def _hermite_nodes(n: int):
    from scipy.special import roots_hermite
    return roots_hermite(n)


def gamma_quadrature(p: NestedProblem, y, nodes: int):
    """Deterministic quadrature approximation of gamma(y) = E_z[phi(y, z)].

    Gauss-Hermite against the Gaussian inner density ``inner_quad``.  Serves
    as the independent oracle for ``gamma_exact`` and for ground-truth
    computation; quadrature error is spectrally small and negligible against
    any Monte Carlo error in play.

    Parameters
    ----------
    p : NestedProblem
        Problem declaring quadrature support through ``inner_quad``.
    y : float
        Outer point at which to evaluate gamma.
    nodes : int
        Number of quadrature nodes, at least 2.

    Raises
    ------
    ValueError
        If the model declares no quadrature support or ``nodes < 2``.
    """
    if nodes < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {nodes}")
    q = p.inner_quad
    if q is None:
        raise ValueError(f"model {p.name!r} declares no quadrature support")
    # E[phi(y, mu + sd*Z)] with Z std normal: substitute z = mu + sd*sqrt(2)*x.
    x, w = _hermite_nodes(nodes)
    z = q.mean(y) + q.sd(y) * np.sqrt(2.0) * x
    return float(np.sum(w * p.phi(y, z)) / np.sqrt(np.pi))
