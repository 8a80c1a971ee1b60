"""Built-in benchmark models with closed-form oracles.

All models share the same sampling skeleton: y ~ Uniform(-1,1) outer,
z ~ N(0,1) inner (marginal, independent of y), and the Gaussian kernel
phi(y,z) = sqrt(2/pi) * exp(-2 (y-z)^2), whose inner expectation has the
closed form gamma(y) = Normal-pdf(y; 0, 5/4).  They differ in the outer
map f:

* ``gauss-log``      f = log(w): nonlinear benchmark with known truth.
* ``bias-quad-pos``  f = (gamma(y) - w)^2: truth 0, estimator expectation
                     exactly c/M, demonstrating the inherent nesting bias.
* ``bias-quad-neg``  the negated twin; estimates negate exactly.
* ``linear-gauss``   f = (1+y^2) * w: linear in w, collapsible to plain MC.
* ``constant``       phi constant, f = w: zero-variance sanity model.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from . import _constants as _C
from .problem import GaussianInner, NestedProblem
from .rng import take

__all__ = [
    "make_gauss_log",
    "make_bias_quadratic",
    "make_linear_gauss",
    "make_constant",
    "bias_quadratic_expected_value",
    "CATALOG",
    "MODEL_TAGS",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _outer_uniform(s):
    # Uniform(-1,1) defined as 2u-1, the single documented mapping.
    return 2.0 * s.next_uniform() - 1.0


def _outer_uniform_batch(b):
    return 2.0 * b.uniforms() - 1.0


def _inner_normal(s, y):
    return s.next_gaussian()


def _inner_normal_batch(b, y):
    return b.gaussians()


def _phi_kernel(y, z):
    # In place on y - z, drawn into a pooled buffer, so a block allocates
    # nothing.  (d*d)*-2 and (-2*d)*d differ only below the smallest normal
    # float, where exp gives 1.0 from either.
    d = np.subtract(y, z, out=take(np.broadcast_shapes(np.shape(y), np.shape(z)), np.float64))
    d *= d
    d *= -2.0
    np.exp(d, out=d)
    d *= _SQRT_2_OVER_PI
    return d[()]


def gamma_kernel_exact(y):
    """Closed-form gamma for the shared kernel: Normal pdf(y; 0, 5/4)."""
    y = np.asarray(y, dtype=float)
    out = np.exp(-0.4 * y * y) / math.sqrt(2.5 * math.pi)
    return out if out.ndim else float(out)


_KERNEL_QUAD = GaussianInner(mean=lambda y: 0.0, sd=lambda y: 1.0)


def _kernel_model(name: str, f: Callable, truth: float, **overrides) -> NestedProblem:
    """A model on the shared skeleton; `overrides` replace or add fields."""
    skeleton = dict(outer_sampler=_outer_uniform, inner_sampler=_inner_normal,
                    outer_batch=_outer_uniform_batch, inner_batch=_inner_normal_batch,
                    phi=_phi_kernel, gamma_exact=gamma_kernel_exact,
                    inner_quad=_KERNEL_QUAD)
    return NestedProblem(name=name, f=f, truth=truth, **{**skeleton, **overrides})


def make_gauss_log() -> NestedProblem:
    """Log-of-mean benchmark: f(y,w) = log(w), truth known in closed form."""
    return _kernel_model("gauss-log", lambda y, w: np.log(w), _C.GAUSS_LOG_TRUTH)


def bias_quadratic_expected_value(M: int, sign: int = 1) -> float:
    """Exact E[I_{N,M}] for the quadratic bias pair: sign * c / M, any N.

    c = E_y[Var(phi(y,z) | y)], frozen by quadrature at build time.  The law
    is exact because the estimator's expectation reduces to the variance of
    the inner sample mean term by term.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return sign * _C.BIAS_QUAD_C / M


def make_bias_quadratic(sign: int) -> NestedProblem:
    """Quadratic bias model: f(y,w) = sign*(gamma(y) - w)^2, truth 0.

    The true value is identically zero since f(y, gamma(y)) = 0, while the
    estimator's expectation is exactly sign*c/M: the bias never averages
    away with more outer samples.  gamma_exact is reused inside f, which is
    only possible on models with closed-form gamma; this is a test device,
    not a general construction.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")

    def f(y, w):
        d = gamma_kernel_exact(y) - w
        return sign * d * d

    return _kernel_model("bias-quad-pos" if sign == 1 else "bias-quad-neg", f, 0.0,
                         expected_nmc_value=lambda M: bias_quadratic_expected_value(M, sign))


def make_linear_gauss() -> NestedProblem:
    """Linear model: f(y,w) = (1+y^2)*w, collapsible to a single expectation."""
    return _kernel_model("linear-gauss", lambda y, w: (1.0 + y * y) * w,
                         _C.LINEAR_GAUSS_TRUTH, linear_g=lambda y: 1.0 + y * y)


def make_constant(c: float = 1.0) -> NestedProblem:
    """Constant model: phi = c everywhere, f(y,w) = w, truth = c exactly."""
    return _kernel_model("constant", lambda y, w: w, float(c),
                         phi=lambda y, z: np.asarray(z, dtype=float) * 0.0 + c,
                         gamma_exact=lambda y: np.asarray(y, dtype=float) * 0.0 + c,
                         linear_g=lambda y: np.asarray(y, dtype=float) * 0.0 + 1.0)


CATALOG: Dict[str, Callable[[], NestedProblem]] = {
    "gauss-log": make_gauss_log,
    "bias-quad-pos": lambda: make_bias_quadratic(1),
    "bias-quad-neg": lambda: make_bias_quadratic(-1),
    "linear-gauss": make_linear_gauss,
    "constant": make_constant,
}

# What each model exercises, for `models list`.
MODEL_TAGS: Dict[str, str] = {
    "gauss-log": "nonlinear benchmark; nested-rate and budget-allocation experiments",
    "bias-quad-pos": "exact c/M estimator bias; plateau at fixed inner count",
    "bias-quad-neg": "negated twin of bias-quad-pos; sign antisymmetry check",
    "linear-gauss": "linear outer map; collapse to single-expectation MC",
    "constant": "zero-variance sanity model; every estimate exact",
}
