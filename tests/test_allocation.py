"""Budget policies: formulas, feasibility/maximality, grids, CLI spellings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestmc.allocation import (FixedInner, FixedOuter, TauPower, budget_grid,
                               parse_policy, split_budget, tau)


def test_tau_pinned_examples():
    assert tau(TauPower(1, 1), 100) == 100
    assert tau(TauPower(2, 1), 10) == 100
    assert tau(TauPower(0.5, 1), 100) == 10
    assert tau(FixedOuter(64), 5) == 64


def test_tau_rounds_up_fractional_targets():
    assert tau(TauPower(1, 1.5), 3) == 5          # ceil(4.5)
    assert tau(TauPower(0.5, 1), 10) == 4          # ceil(sqrt(10))
    # float artifacts near integers must not bump the ceiling
    assert tau(TauPower(1, 0.1), 30) == 3          # 0.1*30 = 3.0000000000000004


def test_tau_faults():
    with pytest.raises(ValueError):
        tau(TauPower(1, 1), 0)
    with pytest.raises(ValueError):
        tau(FixedInner(5), 10)  # pins M, no outer-count formula
    with pytest.raises(ValueError):
        tau(TauPower(1e308, 1), 2)  # 2.0 ** 1e308 overflows
    with pytest.raises(ValueError):
        tau(TauPower(1, 1e308), 10)  # 1e309 is inf, and ceil(inf) overflows


def test_split_budget_pinned_examples():
    assert split_budget(TauPower(1, 1), 100) == (10, 10)
    assert split_budget(TauPower(1, 1), 10000) == (100, 100)
    assert split_budget(FixedInner(5), 100) == (20, 5)
    assert split_budget(TauPower(1, 1), 65536) == (256, 256)
    assert split_budget(TauPower(0.5, 1), 65536) == (40, 1600)
    assert split_budget(TauPower(2, 1), 65536) == (1600, 40)
    assert split_budget(FixedOuter(100), 65536) == (100, 655)
    # tau(M) overflows a float for M >= 2, which overspends any T: M = 1.
    assert split_budget(TauPower(1e308, 1), 16) == (1, 1)


def test_split_budget_faults():
    with pytest.raises(ValueError):
        split_budget(TauPower(1, 1), 3)    # below the T >= 4 precondition
    with pytest.raises(ValueError):
        split_budget(FixedInner(50), 49)   # cannot afford one outer sample
    with pytest.raises(ValueError):
        split_budget(FixedOuter(50), 49)
    with pytest.raises(ValueError):
        split_budget(FixedInner(5), 0)


def test_policy_field_validation():
    with pytest.raises(ValueError):
        TauPower(-0.5, 1)
    with pytest.raises(ValueError):
        TauPower(1, 0)
    for alpha, c in ((1, math.inf), (math.inf, 1), (1, math.nan)):
        with pytest.raises(ValueError):
            TauPower(alpha, c)
    with pytest.raises(ValueError):
        FixedInner(0)
    with pytest.raises(ValueError):
        FixedOuter(0)


def test_budget_grid_pinned_examples():
    assert budget_grid(16, 65536, 7) == [16, 64, 256, 1024, 4096, 16384, 65536]
    assert budget_grid(10, 1000, 3) == [10, 100, 1000]
    assert budget_grid(2, 3, 2) == [2, 3]


def test_budget_grid_dedupes_narrow_ranges():
    grid = budget_grid(100, 102, 7)
    assert grid == sorted(set(grid))
    assert grid[0] == 100 and grid[-1] == 102


def test_budget_grid_faults():
    for args in [(10, 10, 3), (100, 10, 3), (0, 10, 3), (1, 10, 1)]:
        with pytest.raises(ValueError):
            budget_grid(*args)


@pytest.mark.parametrize("policy", [
    TauPower(1, 1), TauPower(0.5, 1), TauPower(2, 1), TauPower(1.5, 0.25),
    FixedInner(5), FixedOuter(100),
])
def test_policy_name_round_trips(policy):
    assert parse_policy(policy.name) == policy


def test_parse_policy_spellings():
    assert parse_policy("tau:alpha=1,c=1") == TauPower(1.0, 1.0)
    assert parse_policy("tau:alpha=2") == TauPower(2.0, 1.0)   # c defaults to 1
    assert parse_policy("fixed-inner:M=5") == FixedInner(5)
    assert parse_policy("fixed-outer:N=100") == FixedOuter(100)


def test_parse_policy_rejects_malformed_specs():
    for spec in ["huh:x=1", "tau:alpha=1,c=1,z=3", "tau:c=1", "fixed-inner:",
                 "fixed-inner:M=0", "tau:alpha", "tau:=1"]:
        with pytest.raises(ValueError):
            parse_policy(spec)


@given(alpha=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
       c=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
       T=st.integers(min_value=4, max_value=10**7))
@settings(max_examples=200, deadline=None)
def test_tau_power_split_feasible_and_maximal(alpha, c, T):
    p = TauPower(alpha, c)
    try:
        N, M = split_budget(p, T)
    except ValueError:
        # infeasible only when even M=1 overshoots
        assert tau(p, 1) * 1 > T
        return
    assert N >= 1 and M >= 1
    assert N * M <= T
    assert N == tau(p, M)
    assert tau(p, M + 1) * (M + 1) > T


@given(M0=st.integers(min_value=1, max_value=1000),
       T=st.integers(min_value=1, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_fixed_policies_never_overspend(M0, T):
    for p, fixed_side in [(FixedInner(M0), "M"), (FixedOuter(M0), "N")]:
        try:
            N, M = split_budget(p, T)
        except ValueError:
            assert T < M0
            continue
        assert N * M <= T
        assert (M if fixed_side == "M" else N) == M0


@given(T_min=st.integers(min_value=1, max_value=10**4),
       span=st.integers(min_value=1, max_value=10**5),
       points=st.integers(min_value=2, max_value=40))
@settings(max_examples=100, deadline=None)
def test_budget_grid_properties(T_min, span, points):
    T_max = T_min + span
    grid = budget_grid(T_min, T_max, points)
    assert grid[0] == T_min and grid[-1] == T_max
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert 2 <= len(grid) <= points


def test_balanced_policy_wins_at_fixed_budget():
    # Median-over-replications squared error at T=65536 with shared streams:
    # the alpha=1 coupling must beat both mismatched powers.
    from nestmc.estimators import nmc_estimate
    from nestmc.models import CATALOG
    from nestmc.rng import make_root

    p = CATALOG["gauss-log"]()
    s = make_root(6)
    policies = [TauPower(0.5, 1), TauPower(1, 1), TauPower(2, 1)]
    splits = [split_budget(q, 65536) for q in policies]
    R = 200
    sq = np.empty((3, R))
    for r in range(R):
        rep = s.split(r)
        for j, (N, M) in enumerate(splits):
            sq[j, r] = (nmc_estimate(p, N, M, rep).value - p.truth) ** 2
    med = np.median(sq, axis=1)
    assert med[1] <= med[0] and med[1] <= med[2]
