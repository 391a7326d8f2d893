"""Acceptance battery: ten numbered end-to-end criteria with pinned tolerances.

Each test prints one live "criterion N: PASS/FAIL - ..." line with the
measured numbers (bypassing capture) and then asserts with the same message.
Criteria 1 and 10 fail with the pinned constants; their measured diagnoses
are in the "Acceptance battery" section of the README, and the measured
margins are part of the failure message.
"""

import cmath
import itertools
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from nlsoptics.lattice_geometry import (
    ClosureWarning,
    ModeSet,
    WaveVector,
    close_under_resonances,
    enumerate_interactions,
)
from nlsoptics.profile_dynamics import (
    SimParams,
    explicit_euclid_1d,
    explicit_torus_1d,
    explicit_two_mode,
    integrate_euclid,
    integrate_torus,
)
from nlsoptics.small_divisors import fit_generalized_bound, survey_divisors
from nlsoptics.spectral_nls import (
    GridField,
    SolverConfig,
    default_dt,
    default_grid_size,
    plane_wave_exact,
    solve,
)
from nlsoptics.wiener_norms import (
    FourierSeries,
    free_propagator,
    substitution_isometry_check,
    w_norm,
)
from nlsoptics.wkb_pipeline import run_convergence, run_instability

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

EPS_SWEEP = (1 / 8, 1 / 16, 1 / 32, 1 / 64)


def wv(*coords):
    return WaveVector(tuple(coords))


def closure(coords, sigma, **kw):
    return close_under_resonances([wv(*c) for c in coords], sigma, **kw)


def amps_for(modes, table):
    return np.array([table[v.coords] for v in modes.vectors], dtype=complex)


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)

    return _announce


def test_criterion_01_leading_order_sweep(announce):
    # d=1 torus, sigma=1, three modes, T=1: fitted order of the sup error
    # against eps must reach 0.9 and every row must sit below 1.0*eps
    t0 = time.perf_counter()
    modes = closure([(-1,), (0,), (1,)], 1)
    alpha = amps_for(modes, {
        (-1,): 0.5,
        (0,): 1.0,
        (1,): 0.7 * cmath.exp(1j * math.pi / 4),
    })
    table = run_convergence(modes, alpha, 1.0, EPS_SWEEP, 1.0)
    runtime = time.perf_counter() - t0
    rows_ok = all(r.ok for r in table.rows)
    order = table.order_sup
    worst = max(r.sup_error / r.eps for r in table.rows)
    ok = (rows_ok and order is not None and order >= 0.9
          and worst <= 1.0 and runtime < 60)
    detail = (f"sup order {table.fitted_order_label()} (need >= 0.9), "
              f"worst row error {worst:.2f}*eps (need <= 1.0*eps), "
              f"{runtime:.1f}s (budget 60s)")
    announce(1, ok, detail)
    assert ok, detail


def test_criterion_02_mode_creation_sweep(announce):
    # 2D square corners plus the created zero mode started at exactly zero;
    # the sweep must still converge at first order and the zero-mode profile
    # must leave zero by a visible margin
    t0 = time.perf_counter()
    modes = closure([(0, 1), (1, 0), (1, 1)], 1)
    assert wv(0, 0) in modes.vectors
    alpha = amps_for(modes, {
        (0, 0): 0.0,
        (0, 1): 0.2,
        (1, 0): 0.3,
        (1, 1): 0.25 * cmath.exp(1j * math.pi / 6),
    })
    traj = integrate_torus(
        alpha, modes, SimParams(lam=1.0, t_final=0.5, dt=1e-3)
    )
    a00 = abs(traj.final.amps[modes.index(wv(0, 0))])
    table = run_convergence(modes, alpha, 1.0, EPS_SWEEP, 0.5)
    runtime = time.perf_counter() - t0
    rows_ok = all(r.ok for r in table.rows)
    order = table.order_sup
    ok = (rows_ok and order is not None and order >= 0.9
          and a00 > 1e-3 and runtime < 300)
    detail = (f"sup order {table.fitted_order_label()} (need >= 0.9), "
              f"|a_00(0.5)| {a00:.2e} (need > 1e-3), "
              f"{runtime:.0f}s (budget 300s)")
    announce(2, ok, detail)
    assert ok, detail


def test_criterion_03_oracle_agreement(announce):
    # the generic integrators must reproduce every closed form: d=1 cubic
    # law, two-mode binomial phases for sigma 1..3, and the Euclidean
    # two-Gaussian quadrature form
    params = SimParams(lam=1.0, t_final=1.0, dt=1e-3)
    modes = closure([(-1,), (0,), (1,)], 1)
    alpha = amps_for(modes, {
        (-1,): 0.5,
        (0,): 1.0,
        (1,): 0.7 * cmath.exp(1j * math.pi / 4),
    })
    traj = integrate_torus(alpha, modes, params)
    dev_torus = float(np.max(np.abs(
        traj.final.amps - explicit_torus_1d(alpha, 1.0, 1.0)
    )))

    dev_pair = 0.0
    pair_modes = closure([(0,), (2,)], 1)
    a_j, a_l = 0.8 * cmath.exp(0.2j), 0.55j
    pair_alpha = amps_for(pair_modes, {(0,): a_j, (2,): a_l})
    for sigma in (1, 2, 3):
        p = SimParams(lam=-0.7, t_final=1.0, dt=1e-3)
        m = closure([(0,), (2,)], sigma)
        tr = integrate_torus(pair_alpha, m, p)
        ref = explicit_two_mode(a_j, a_l, sigma, -0.7, 1.0)
        dev_pair = max(dev_pair, float(np.max(np.abs(
            tr.final.amps - np.array(ref)
        ))))

    length, n = 60.0, 2048
    x = np.arange(n) * (length / n)
    funcs = [
        lambda y: 0.9 * np.exp(-((y - 25.0) ** 2) / (2 * 1.5 ** 2)),
        lambda y: 0.7j * np.exp(-((y - 35.0) ** 2) / (2 * 2.0 ** 2)),
    ]
    fields = np.stack([funcs[0](x), funcs[1](x)]).astype(complex)
    emodes = closure([(-1,), (1,)], 1)
    etraj = integrate_euclid(fields, emodes, params, length)
    ref = explicit_euclid_1d(funcs, [-1.0, 1.0], 1.0, 1.0, x, 1e-3)
    dev_euclid = float(np.max(np.abs(etraj.fields[-1] - ref)))

    ok = dev_torus <= 1e-8 and dev_pair <= 1e-8 and dev_euclid <= 1e-6
    detail = (f"torus law {dev_torus:.2e}, two-mode {dev_pair:.2e} "
              f"(need <= 1e-8), euclid gaussians {dev_euclid:.2e} "
              f"(need <= 1e-6)")
    announce(3, ok, detail)
    assert ok, detail


def test_criterion_04_conservation(announce):
    # mass along profile trajectories, discrete L2 along the spectral solve,
    # and the d=1 cubic per-mode moduli must all stay put
    modes = closure([(-1,), (0,), (1,)], 1)
    alpha = amps_for(modes, {
        (-1,): 0.5,
        (0,): 1.0,
        (1,): 0.7 * cmath.exp(1j * math.pi / 4),
    })
    traj = integrate_torus(
        alpha, modes, SimParams(lam=1.0, t_final=1.0, dt=1e-3)
    )
    mass = traj.mass_series()
    mass_drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    moduli = np.abs(traj.amps)
    mode_drift = float(np.max(np.abs(moduli - moduli[0]) / moduli[0]))

    rng = np.random.default_rng(11)
    spec = np.zeros(64, dtype=complex)
    for k in range(-3, 4):
        spec[k % 64] = 0.2 * (rng.normal() + 1j * rng.normal())
    u0 = GridField(1, 64, np.fft.ifft(spec) * 64)
    cfg = SolverConfig(eps=1 / 4, lam=1.0, sigma=1, dt=1e-3, n=64, t_final=1.0)
    res = solve(u0, cfg)
    l2_drift = res.l2_relative_drift

    ok = mass_drift <= 1e-10 and l2_drift <= 1e-12 and mode_drift <= 1e-10
    detail = (f"mass drift {mass_drift:.2e} (need <= 1e-10), spectral L2 "
              f"drift {l2_drift:.2e} over 10^3 steps (need <= 1e-12), "
              f"per-mode modulus drift {mode_drift:.2e} (need <= 1e-10)")
    announce(4, ok, detail)
    assert ok, detail


def _brute_force_tuples(modes, j, sigma):
    vecs = modes.vectors
    out = []
    for tup in itertools.product(range(len(vecs)), repeat=2 * sigma + 1):
        combo = None
        for p, idx in enumerate(tup):
            v = vecs[idx] if p % 2 == 0 else -vecs[idx]
            combo = v if combo is None else combo + v
        if combo != vecs[j]:
            continue
        lhs = sum(
            (+1 if p % 2 == 0 else -1) * vecs[i].norm_sq
            for p, i in enumerate(tup)
        )
        if lhs == vecs[j].norm_sq:
            out.append(tup)
    return sorted(out)


def test_criterion_05_resonance_golds(announce):
    checks = []

    s = closure([(0, 1), (1, 0), (1, 1)], 1)
    checks.append(("square", [v.coords for v in s.vectors]
                   == [(0, 0), (0, 1), (1, 0), (1, 1)] and s.saturated))

    s = closure([(1, 1), (1, 2), (3, 2)], 1)
    created = [v for v, g in zip(s.vectors, s.generations) if g > 0]
    checks.append(("skew", created == [wv(3, 1)] and s.saturated))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClosureWarning)
        s = closure([(-1, 1), (0, 1), (0, 0), (1, 0)], 1, max_generations=2)
    gen1 = {v.coords for v, g in zip(s.vectors, s.generations) if g == 1}
    gen2 = {v.coords for v, g in zip(s.vectors, s.generations) if g == 2}
    checks.append(("cascade", gen1 == {(1, 1), (-1, 0)}
                   and gen2 == {(0, 2), (0, -1)} and not s.saturated))

    s = closure([(-3,), (1,), (4,)], 1)
    checks.append(("line-cubic", len(s.vectors) == 3 and s.saturated))

    pair_ok = True
    for sigma in (1, 2, 3):
        s = closure([(0,), (2,)], sigma)
        pair_ok = pair_ok and len(s.vectors) == 2 and s.saturated
    checks.append(("two-mode", pair_ok))

    s = closure([(-1,), (0,), (2,)], 2)
    created = [v for v, g in zip(s.vectors, s.generations) if g > 0]
    checks.append(("quintic", wv(3) in created and s.saturated))

    rng = np.random.default_rng(7)
    brute_ok = True
    for _ in range(30):
        d = int(rng.integers(1, 3))
        nv = int(rng.integers(1, 7))
        seen = set()
        while len(seen) < nv:
            seen.add(tuple(int(c) for c in rng.integers(-3, 4, size=d)))
        m = ModeSet.from_vectors([wv(*c) for c in seen], 1)
        for j in range(len(m.vectors)):
            got = sorted(t.indices for t in enumerate_interactions(m, j))
            if got != _brute_force_tuples(m, j, 1):
                brute_ok = False
    checks.append(("brute-force", brute_ok))

    failed = [name for name, good in checks if not good]
    ok = not failed
    detail = (f"{len(checks)} golden cases exact"
              if ok else f"failed cases: {', '.join(failed)}")
    announce(5, ok, detail)
    assert ok, detail


def test_criterion_06_quintic_initial_derivative(announce):
    # quintic cascade -1, 0, 2 -> 3: the created amplitude must leave zero
    # at the closed-form rate -3i*lam*a2^2*a(-1)*conj(a0)^2 (three ordered
    # tuples share that single content class).  Richardson extrapolation of
    # the one-sided difference removes the O(h) term.
    lam = 1.0
    modes = closure([(-1,), (0,), (2,)], 2)
    alpha = amps_for(modes, {
        (-1,): 0.6 * cmath.exp(0.5j),
        (0,): 0.8 * cmath.exp(-0.25j),
        (2,): 0.7 * cmath.exp(1.1j),
        (3,): 0.0,
    })
    h = 4e-5
    traj = integrate_torus(
        alpha, modes,
        SimParams(lam=lam, t_final=h, dt=h / 8),
        snapshot_times=[h / 2, h],
    )
    j3 = modes.index(wv(3))
    d_h = traj.at(h)[j3] / h
    d_half = traj.at(h / 2)[j3] / (h / 2)
    fd = 2 * d_half - d_h
    expected = (-3j * lam
                * alpha[modes.index(wv(2))] ** 2
                * alpha[modes.index(wv(-1))]
                * np.conj(alpha[modes.index(wv(0))]) ** 2)
    rel = abs(fd - expected) / abs(expected)
    ok = rel <= 1e-6 and abs(fd) > 0
    detail = (f"created-mode rate {fd:.6f} vs closed form "
              f"{complex(expected):.6f}, relative deviation {rel:.2e} "
              f"(need <= 1e-6)")
    announce(6, ok, detail)
    assert ok, detail


def test_criterion_07_plane_wave_exactness(announce):
    worst = 0.0
    for sigma in (1, 2):
        eps = 1 / 16
        n = default_grid_size(eps, sigma, 1)
        cfg = SolverConfig(eps=eps, lam=1.0, sigma=sigma, dt=default_dt(eps),
                           n=n, t_final=1.0)
        alpha = 0.9 * cmath.exp(0.4j)
        res = solve(plane_wave_exact(alpha, (1,), cfg, 0.0), cfg)
        exact = plane_wave_exact(alpha, (1,), cfg, 1.0)
        worst = max(worst, float(np.max(np.abs(res.final.values - exact.values))))
    ok = worst <= 1e-10
    detail = f"worst sup deviation {worst:.2e} over sigma 1, 2 (need <= 1e-10)"
    announce(7, ok, detail)
    assert ok, detail


def test_criterion_08_wiener_lemmas(announce):
    # 10^3 random sparse series: fast-scale substitution is an exact
    # isometry, products obey the algebra bound, the free propagator
    # preserves the norm
    rng = np.random.default_rng(20260822)
    failures = {"substitution": 0, "product": 0, "propagator": 0}
    for _ in range(1000):
        def random_series():
            size = int(rng.integers(1, 9))
            freqs = rng.choice(np.arange(-40, 41), size=size, replace=False)
            return FourierSeries({
                (int(k),): complex(rng.normal(), rng.normal())
                for k in freqs
            })

        f, g = random_series(), random_series()
        inv = int(rng.choice([2, 4, 8]))
        before, after = substitution_isometry_check(f, 1.0 / inv)
        if before != after:
            failures["substitution"] += 1
        if w_norm(f * g) > w_norm(f) * w_norm(g) * (1 + 1e-12):
            failures["product"] += 1
        t = float(rng.uniform(-5, 5))
        propagated = free_propagator(f, t, 1.0 / inv)
        if not math.isclose(w_norm(propagated), w_norm(f), rel_tol=1e-12):
            failures["propagator"] += 1
    ok = not any(failures.values())
    detail = (f"1000 series: {failures['substitution']} substitution, "
              f"{failures['product']} product, {failures['propagator']} "
              f"propagator failures (need 0)")
    announce(8, ok, detail)
    assert ok, detail


def test_criterion_09_small_divisors(announce):
    # integer lattices: the smallest nonzero defect is never below 1, and
    # the largest admissible weighted constant grows with the weight
    checked = 0
    min_seen = math.inf
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        kappas = [tuple(m["kappa"]) for m in doc["initial_modes"]]
        sigma = doc["sigma"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClosureWarning)
            m = close_under_resonances(
                [wv(*k) for k in kappas], sigma, max_generations=2
            )
        s = survey_divisors(m)
        checked += 1
        if s.min_delta is not None:
            min_seen = min(min_seen, s.min_delta)

    rng = np.random.default_rng(29)
    for _ in range(30):
        d = int(rng.integers(1, 3))
        nv = int(rng.integers(2, 5))
        seen = set()
        while len(seen) < nv:
            seen.add(tuple(int(c) for c in rng.integers(-3, 4, size=d)))
        sigma = int(rng.integers(1, 3))
        m = ModeSet.from_vectors([wv(*c) for c in seen], sigma)
        s = survey_divisors(m)
        checked += 1
        if s.min_delta is not None:
            min_seen = min(min_seen, s.min_delta)

    monotone = True
    b_grid = [0.0, 0.5, 1.0, 2.0, 4.0]
    for _ in range(10):
        seen = set()
        while len(seen) < 3:
            seen.add(tuple(int(c) for c in rng.integers(-3, 4, size=2)))
        m = ModeSet.from_vectors([wv(*c) for c in seen], 1)
        fit = fit_generalized_bound(m, b_grid=b_grid)
        values = [c for _, c in fit if c is not None]
        if any(b > a * (1 + 1e-12) for a, b in zip(values[1:], values)):
            monotone = False

    ok = min_seen >= 1 and monotone
    detail = (f"min |delta| {min_seen} over {checked} integer-lattice sets "
              f"(need >= 1), weighted bound monotone in b: {monotone}")
    announce(9, ok, detail)
    assert ok, detail


def test_criterion_10_instability_gap(announce):
    # negative-order data separation: an O(K^s)-small perturbation must open
    # an O(1) zero-mode gap by t=delta, and two semiclassical solves at
    # eps=1/K^2 must reproduce the formula gap within 5*eps.  K=32 sits
    # below the premise threshold K > delta^(1/s) = 100 by design (the step
    # count scales like K^2), so the premise warning is expected.  The
    # deviation, 6.75e-3 here, is the same at dt = eps/100 and eps/400 and
    # falls like about 0.2/K over K = 8..128, slower than 5*eps = 5/K^2: it
    # is the WKB remainder for data whose high amplitude alpha1 =
    # alpha0*K^(1/2) grows with K, and the solver clause fails on it.
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rec = run_instability(1.0, 0.1, -0.5, 32, sigma=1, lam=1.0,
                              cross_check=True)
    runtime = time.perf_counter() - t0
    dev = rec.solver_formula_deviation
    formula_ok = rec.gap >= 0.5 and rec.t_star <= 0.1 + 1e-12
    solver_ok = dev is not None and dev <= 5 * rec.eps
    ok = formula_ok and solver_ok and runtime < 120
    detail = (f"formula gap {rec.gap:.4f} at t*={rec.t_star:.3f} "
              f"(need >= 0.5 by t=0.1), solver deviation {dev:.2e} vs "
              f"5*eps={5 * rec.eps:.2e}, {runtime:.0f}s (budget 120s)")
    announce(10, ok, detail)
    assert ok, detail
