"""Integrate the coupled profile equations and check every closed form.

Three comparisons: the d=1 cubic modulation law, the two-mode binomial
phases for sigma up to 3, and the Euclidean two-Gaussian quadrature form.
"""

import cmath

import numpy as np

from nlsoptics import (
    SimParams,
    WaveVector,
    close_under_resonances,
    explicit_euclid_1d,
    explicit_torus_1d,
    explicit_two_mode,
    integrate_euclid,
    integrate_torus,
)


def line_modes(*ks, sigma=1):
    return close_under_resonances([WaveVector((k,)) for k in ks], sigma)


def main():
    # d=1 cubic: each |a_j| is frozen and the phase rotates at 2M - |a_j|^2
    modes = line_modes(-1, 0, 1)
    alpha = np.array([0.5, 1.0, 0.7 * cmath.exp(1j * cmath.pi / 4)])
    params = SimParams(lam=1.0, t_final=1.0, dt=1e-3)
    traj = integrate_torus(alpha, modes, params)
    ref = explicit_torus_1d(alpha, 1.0, 1.0)
    print("d=1 cubic law, three modes:")
    print(f"  max deviation {np.max(np.abs(traj.final.amps - ref)):.3e}")
    print(f"  mass drift    {np.ptp(traj.mass_series()):.3e}")

    # two modes never create anything, and the modulation rates are the
    # binomial sums C(sigma+1,n) C(sigma,n) |a|^(2 sigma - 2n) |a'|^(2n)
    a_j, a_l = 0.8 * cmath.exp(0.2j), 0.55j
    print("\ntwo modes, closed form per sigma:")
    for sigma in (1, 2, 3):
        m = line_modes(0, 2, sigma=sigma)
        p = SimParams(lam=-0.7, t_final=1.0, dt=1e-3)
        tr = integrate_torus(np.array([a_j, a_l]), m, p)
        ref = np.array(explicit_two_mode(a_j, a_l, sigma, -0.7, 1.0))
        print(f"  sigma={sigma}: max deviation "
              f"{np.max(np.abs(tr.final.amps - ref)):.3e}")

    # Euclidean line: transport plus a phase that integrates the other
    # profile's intensity along the backward characteristic
    length, n = 60.0, 512
    x = np.arange(n) * (length / n)
    funcs = [
        lambda y: 0.9 * np.exp(-((y - 25.0) ** 2) / (2 * 1.5 ** 2)),
        lambda y: 0.7j * np.exp(-((y - 35.0) ** 2) / (2 * 2.0 ** 2)),
    ]
    fields = np.stack([funcs[0](x), funcs[1](x)]).astype(complex)
    emodes = line_modes(-1, 1)
    etraj = integrate_euclid(fields, emodes, params, length)
    ref = explicit_euclid_1d(funcs, [-1.0, 1.0], 1.0, 1.0, x, 1e-3)
    print("\nEuclidean two-Gaussian crossing:")
    print(f"  max deviation {np.max(np.abs(etraj.fields[-1] - ref)):.3e}")


if __name__ == "__main__":
    main()
