"""
Linear outer functions do not need nesting at all.

When f(y, w) = g(y) * w the nested expectation rearranges into a single
expectation over the joint draw (y, z), so one sample per outer draw
suffices and the plain Monte Carlo 1/N rate returns.  The nested
estimator on the same model is unbiased too, but it pays for inner
averaging out of the same budget, so at matched T it converges with a
visibly flatter slope on small budgets.

Equivalent CLI run:

    nestmc collapse --model linear-gauss --budgets 100:10000:3 --reps 400 --seed 7
"""

from nestmc import CATALOG, make_root, run_collapse


def main():
    problem = CATALOG["linear-gauss"]()
    collapsed, nested = run_collapse(problem, [100, 1000, 10000], 400, make_root(7))

    print(f"{'T':>7} {'collapsed mse':>14} {'nested mse':>12} {'nested (N,M)':>13}")
    for crow, nrow in zip(collapsed.rows, nested.rows):
        print(f"{crow.T:>7} {crow.mse:>14.3e} {nrow.mse:>12.3e} "
              f"{'(%d,%d)' % (nrow.N, nrow.M):>13}")
    print(f"collapsed slope: {collapsed.fit.slope:.3f}   (plain MC rate, theory -1)")
    print(f"nested slope:    {nested.fit.slope:.3f}   (pays for unneeded inner draws)")


if __name__ == "__main__":
    main()
