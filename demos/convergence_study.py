"""Measure how fast the multiphase approximation closes on the full solve.

The three-mode line scenario is integrated once at the profile level, then
compared with the semiclassical solver across a decreasing list of eps.
The sup error shrinks roughly linearly in eps; the remainder report shows
why: no Euclidean curvature term, and the worst resonance defect is 2.
"""

import argparse
import cmath

import numpy as np

from nlsoptics import (
    SimParams,
    WaveVector,
    close_under_resonances,
    integrate_torus,
    remainder_report,
    run_convergence,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deep", action="store_true",
                    help="extend the sweep to eps=1/64 (slower)")
    args = ap.parse_args()

    modes = close_under_resonances(
        [WaveVector((-1,)), WaveVector((0,)), WaveVector((1,))], 1
    )
    alpha = np.array([0.5, 1.0, 0.7 * cmath.exp(1j * cmath.pi / 4)])
    eps_list = [1 / 8, 1 / 16, 1 / 32] + ([1 / 64] if args.deep else [])

    table = run_convergence(modes, alpha, 1.0, eps_list, 1.0)
    print("eps        n      sup error   w error     status")
    for r in table.rows:
        print(f"1/{round(1 / r.eps):<8d} {r.grid_n:<6d} {r.sup_error:.3e}  "
              f"{r.w_error:.3e}  {r.status}")
    print(f"fitted order: sup {table.fitted_order_label('sup')}, "
          f"w {table.fitted_order_label('w')}")

    params = SimParams(lam=1.0, t_final=1.0, dt=1e-3)
    final = integrate_torus(alpha, modes, params).final
    rep = remainder_report(final)
    print(f"\nremainder budget: curvature term {rep.r2_bound}, "
          f"{rep.nonresonant_tuples} non-resonant tuples, "
          f"smallest defect {rep.min_delta}")


if __name__ == "__main__":
    main()
