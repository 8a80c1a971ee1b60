"""Nested Monte Carlo estimation: reproducible estimators, budget policies,
and an experiment harness for convergence and bias studies."""

__version__ = "0.1.0"

from .rng import RngStream, StreamBatch, make_root
from .problem import GaussianInner, NestedProblem, gamma_quadrature, validate
from .models import (CATALOG, MODEL_TAGS, make_gauss_log, make_bias_quadratic,
                     make_linear_gauss, make_constant, gamma_kernel_exact,
                     bias_quadratic_expected_value)
from .estimators import (Estimate, Estimator, NESTED, COLLAPSED, nmc_estimate,
                         nmc_replications, collapsed_estimate, collapsed_replications)
from .allocation import (AllocationPolicy, FixedInner, FixedOuter, TauPower,
                         tau, split_budget, budget_grid, parse_policy)
from .harness import (SlopeFit, ConvergenceRow, ConvergenceReport, BiasRow,
                      BiasReport, PolicyResult, PolicyRanking, fit_loglog_slope,
                      run_convergence, run_collapse, run_bias,
                      run_fixed_inner, compare_policies)
from .cli import main

__all__ = [
    "__version__",
    "RngStream", "StreamBatch", "make_root",
    "GaussianInner", "NestedProblem", "gamma_quadrature", "validate",
    "CATALOG", "MODEL_TAGS", "make_gauss_log", "make_bias_quadratic",
    "make_linear_gauss", "make_constant", "gamma_kernel_exact",
    "bias_quadratic_expected_value",
    "Estimate", "Estimator", "NESTED", "COLLAPSED", "nmc_estimate",
    "nmc_replications", "collapsed_estimate",
    "collapsed_replications",
    "AllocationPolicy", "FixedInner", "FixedOuter", "TauPower",
    "tau", "split_budget", "budget_grid", "parse_policy",
    "SlopeFit", "ConvergenceRow", "ConvergenceReport", "BiasRow", "BiasReport",
    "PolicyResult", "PolicyRanking", "fit_loglog_slope",
    "run_convergence", "run_collapse", "run_bias",
    "run_fixed_inner", "compare_policies",
    "main",
]
