"""
Freezing the inner count caps the achievable accuracy.

With M held fixed, growing N only averages away variance; the per-term
bias stays, and the MSE flattens onto the squared expected bias.  The
quadratic-error model makes the floor predictable in closed form,
(c/M)^2, so the plateau can be checked against an exact number.  A
coupled policy at the same budgets keeps improving instead.

Equivalent CLI runs (the first via a fixed-inner policy):

    nestmc converge --model bias-quad-pos --policy fixed-inner:M=5 \
        --budgets 500,5000,50000,500000 --reps 200 --seed 7
    nestmc converge --model bias-quad-pos --policy tau:alpha=1,c=1 \
        --budgets 500,5000,50000,500000 --reps 200 --seed 7
"""

import os

from nestmc import (CATALOG, TauPower, bias_quadratic_expected_value, make_root,
                    run_convergence, run_fixed_inner)

M = 5


def main():
    problem = CATALOG["bias-quad-pos"]()
    Ns = [10**k for k in range(2, 6)]
    # Values do not depend on the worker count, so use every core.
    workers = os.cpu_count() or 1
    pinned = run_fixed_inner(problem, M, Ns, 200, make_root(7), workers=workers)
    coupled = run_convergence(problem, TauPower(1, 1), [N * M for N in Ns], 200,
                              make_root(7), workers=workers)
    floor = bias_quadratic_expected_value(M) ** 2

    print(f"bias floor for M={M}: (c/{M})^2 = {floor:.3e}")
    print(f"{'N':>7} {'mse, M=5 pinned':>16} {'mse, N=M coupled':>17}")
    for prow, crow in zip(pinned.rows, coupled.rows):
        print(f"{prow.N:>7} {prow.mse:>16.3e} {crow.mse:>17.3e}")
    top = pinned.rows[-1]
    print(f"pinned-M MSE at N={top.N}: {top.mse:.3e}, "
          f"{top.mse / floor:.2f}x the predicted floor")


if __name__ == "__main__":
    main()
