"""Show the norm-inflation mechanism: tiny data changes, order-one output gap.

Two WKB data differ by an amplitude bump at relative frequency K.  Measured
in H^s with s < 0 the bump is O(K^s), yet the zero-mode modulation rates
differ by 2/delta, so the zero modes separate by an O(1) gap before t=delta.
"""

import argparse
import warnings

from nlsoptics import run_instability


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--K", type=int, default=512,
                    help="relative perturbation frequency")
    ap.add_argument("--cross-check", action="store_true",
                    help="also measure the gap from two semiclassical solves "
                         "at eps=1/K^2 on 16 points; both data walk one "
                         "step-doubling ladder together, solved as one "
                         "stack while they share a step, and each keeps "
                         "its own step or its Richardson extrapolant "
                         "(3,600 split steps in 4 solve calls at K=32)")
    args = ap.parse_args()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = run_instability(1.0, 0.1, -0.5, args.K, sigma=1, lam=1.0,
                              cross_check=args.cross_check)
    for w in caught:
        print(f"note: {w.message}")

    print(f"base datum:      alpha0={rec.alpha0}, alpha1={rec.alpha1:.4f}")
    print(f"perturbed datum: alpha0={rec.alpha0_tilde}, "
          f"alpha1={rec.alpha1_tilde:.4f}")
    print(f"H^s smallness premise K > delta^(1/s): {rec.hs_condition_ok} "
          f"(K={rec.K}, threshold {rec.delta ** (1 / rec.s):.0f})")
    print(f"zero-mode rates: {rec.theta0} vs {rec.theta0_tilde} "
          f"(split {rec.theta0_tilde - rec.theta0:.4f} = 2/delta)")
    print(f"gap {rec.gap:.4f} at t*={rec.t_star} (rho/2 = {rec.rho / 2})")
    if rec.solver_gap is not None:
        print(f"solver cross-check at eps={rec.eps}: gap {rec.solver_gap:.4f}, "
              f"deviation {rec.solver_formula_deviation:.2e}")
        for i, check in enumerate(rec.solver_checks, 1):
            kept = ", extrapolated" if check.extrapolated else ""
            print(f"  datum {i}: step {check.dt / rec.eps:.3g}*eps{kept}, step-doubling "
                  f"delta {check.step_delta / rec.eps:.1e}*eps")


if __name__ == "__main__":
    main()
