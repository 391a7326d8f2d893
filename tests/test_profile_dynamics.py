import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsoptics.lattice_geometry import (
    ClosureWarning,
    ModeSet,
    WaveVector,
    close_under_resonances,
    enumerate_interactions,
)
from nlsoptics.profile_dynamics import (
    BlowUpError,
    ProfileStateEuclid,
    SimParams,
    explicit_euclid_1d,
    explicit_torus_1d,
    explicit_two_mode,
    integrate_euclid,
    integrate_torus,
    interactions_for,
)
from nlsoptics import profile_dynamics
from nlsoptics.profile_dynamics import _coupling, _snapshot_marks
from nlsoptics.spectral_nls import GridField, SolverConfig, solve
from nlsoptics.wiener_norms import FourierSeries, ProfileSpectrum, e_norm


def wv(*coords):
    return WaveVector(tuple(coords))


def line_modes(*ks, sigma=1):
    return ModeSet.from_vectors([wv(k) for k in ks], sigma, saturated=True)


class TestTimeGrid:
    """One segment walker and one time lookup for the RK4 sweep and the
    split-step solver."""

    T, DT, SNAPS = 0.5, 0.013, [0.07, 0.11, 0.3]  # uneven segments

    def _runs(self):
        modes = line_modes(-1, 1)
        params = SimParams(lam=1.0, t_final=self.T, dt=self.DT)
        torus = integrate_torus([0.6, 0.3j], modes, params, snapshot_times=self.SNAPS)
        x = np.arange(64) * (20.0 / 64)
        fields = np.stack([np.exp(-((x - 10.0) ** 2)), 0.5 * np.exp(-((x - 9.0) ** 2))])
        euclid = integrate_euclid(fields, modes, params, 20.0, snapshot_times=self.SNAPS)
        u0 = GridField(1, 16, np.full(16, 0.5 + 0.1j))
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=self.DT, n=16, t_final=self.T)
        return torus, euclid, solve(u0, cfg, snapshot_times=self.SNAPS)

    def test_one_walker_one_set_of_steps(self):
        torus, euclid, res = self._runs()
        marks = _snapshot_marks(self.T, self.SNAPS)
        assert res.steps == len(torus.times) - 1
        assert euclid.times.tolist() == marks and res.times.tolist() == marks
        assert len(euclid.mass_times) == len(torus.times)

    def test_one_lookup(self):
        torus, euclid, res = self._runs()
        for at, times, rows in (
            (torus.at, torus.times, torus.amps),
            (euclid.at, euclid.times, euclid.fields),
            (lambda t: res.at(t).values, res.times, res.fields),
        ):
            for t in self.SNAPS + [self.T]:
                assert np.array_equal(at(t * (1 + 1e-12)), rows[list(times).index(t)])
                with pytest.raises(KeyError):
                    at(t + 1e-6)


class TestTorusIntegration:
    def test_matches_1d_closed_form(self):
        modes = line_modes(-1, 0, 1)
        alpha = np.array([0.5, 1.0, 0.7 * np.exp(1j * np.pi / 4)])
        params = SimParams(lam=1.0, t_final=1.0, dt=1e-3)
        traj = integrate_torus(alpha, modes, params)
        ref = explicit_torus_1d(alpha, 1.0, 1.0)
        assert np.max(np.abs(traj.amps[-1] - ref)) < 1e-8

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_matches_two_mode_closed_form(self, sigma):
        modes = line_modes(0, 2, sigma=sigma)
        alpha = np.array([0.8, 0.5j])
        params = SimParams(lam=-1.0, t_final=1.0, dt=1e-3)
        traj = integrate_torus(alpha, modes, params)
        ref = explicit_two_mode(alpha[0], alpha[1], sigma, -1.0, 1.0)
        assert abs(traj.amps[-1][0] - ref[0]) < 1e-8
        assert abs(traj.amps[-1][1] - ref[1]) < 1e-8

    def test_snapshot_times_recorded(self):
        modes = line_modes(0, 1)
        params = SimParams(lam=1.0, t_final=0.5, dt=1e-2)
        traj = integrate_torus(
            np.array([1.0, 0.5]), modes, params, snapshot_times=[0.17, 0.25]
        )
        for t in (0.0, 0.17, 0.25, 0.5):
            state = traj.at(t)
            assert state.shape == (2,)
        with pytest.raises(KeyError):
            traj.at(0.1234567)

    def test_mass_and_moduli_conserved(self):
        modes = line_modes(-1, 0, 1)
        alpha = np.array([0.5, 1.0, 0.7 * np.exp(1j * np.pi / 4)])
        params = SimParams(lam=1.0, t_final=1.0, dt=1e-3)
        traj = integrate_torus(alpha, modes, params,
                               snapshot_times=np.linspace(0, 1, 11))
        masses = traj.mass_series()
        assert np.max(np.abs(masses - masses[0])) / masses[0] < 1e-10
        # in d=1, sigma=1 each modulus is separately conserved
        mods = np.abs(traj.amps)
        assert np.max(np.abs(mods - mods[0])) < 1e-10

    def test_blow_up_guard_raises(self):
        modes = line_modes(0, 1)
        params = SimParams(lam=1.0, t_final=1.0, dt=1e-2)
        bad = np.array([np.nan + 0j, 0.5])
        with pytest.raises(BlowUpError):
            integrate_torus(bad, modes, params)

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                               allow_infinity=False),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_mass_conserved_random_data(self, amps):
        modes = line_modes(-1, 0, 1)
        params = SimParams(lam=1.0, t_final=0.3, dt=1e-3)
        traj = integrate_torus(np.array(amps), modes, params)
        masses = traj.mass_series()
        if masses[0] > 1e-12:
            assert np.max(np.abs(masses - masses[0])) / masses[0] < 1e-10


class TestQuinticCascade:
    def test_created_mode_grows_from_zero(self):
        modes = close_under_resonances([wv(-1), wv(0), wv(2)], 2)
        assert wv(3) in modes.vectors
        alpha = np.zeros(len(modes.vectors), dtype=complex)
        alpha[modes.index(wv(-1))] = 0.6
        alpha[modes.index(wv(0))] = 0.8
        alpha[modes.index(wv(2))] = 0.7
        params = SimParams(lam=1.0, t_final=0.2, dt=1e-3)
        traj = integrate_torus(alpha, modes, params)
        a3 = traj.amps[-1][modes.index(wv(3))]
        assert abs(a3) > 1e-3

    def test_initial_derivative_formula(self):
        # the only quintic tuples feeding kappa=3 from {-1,0,2} put {2,2,-1}
        # in the plain slots and {0,0} in the conjugated ones, 3 orderings:
        # da_3/dt(0) = -i lam * 3 * a_2^2 a_-1 conj(a_0)^2
        modes = close_under_resonances([wv(-1), wv(0), wv(2)], 2)
        j3 = modes.index(wv(3))
        alpha = np.zeros(len(modes.vectors), dtype=complex)
        alpha[modes.index(wv(-1))] = 0.6 * np.exp(0.3j)
        alpha[modes.index(wv(0))] = 0.8 * np.exp(-0.2j)
        alpha[modes.index(wv(2))] = 0.7 * np.exp(1.1j)
        lam = 1.0
        h = 1e-6
        params = SimParams(lam=lam, t_final=h, dt=h / 10)
        traj = integrate_torus(alpha, modes, params)
        fd = traj.amps[-1][j3] / h
        expected = (
            -1j * lam * 3.0
            * alpha[modes.index(wv(2))] ** 2
            * alpha[modes.index(wv(-1))]
            * np.conj(alpha[modes.index(wv(0))]) ** 2
        )
        assert abs(fd - expected) / abs(expected) < 1e-4


class TestEuclidIntegration:
    def _gaussians(self, length, n):
        x = np.arange(n) * (length / n)
        f1 = 0.9 * np.exp(-((x - 25.0) ** 2) / (2 * 1.5**2))
        f2 = 0.7j * np.exp(-((x - 35.0) ** 2) / (2 * 2.0**2))
        return x, np.stack([f1, f2]).astype(complex)

    def test_matches_closed_form(self):
        length, n = 60.0, 1024
        modes = line_modes(-1, 1)
        x, fields = self._gaussians(length, n)
        params = SimParams(lam=1.0, t_final=1.0, dt=1e-3)
        traj = integrate_euclid(fields, modes, params, length)
        funcs = [
            lambda y: 0.9 * np.exp(-((y - 25.0) ** 2) / (2 * 1.5**2)),
            lambda y: 0.7j * np.exp(-((y - 35.0) ** 2) / (2 * 2.0**2)),
        ]
        ref = explicit_euclid_1d(funcs, [-1.0, 1.0], 1.0, 1.0, x, 1e-3)
        assert np.max(np.abs(traj.fields[-1] - ref)) < 1e-6

    def test_guard_is_1e6_times_the_e_norm(self, monkeypatch):
        # the shipped Gaussians at n=2048: E norm 4.011, the e_norm of the
        # from_grid spectra, not (L / 2 pi)^d times it (38.30)
        levels = []
        real = profile_dynamics._rk4_sweep

        def sweep(*args):
            levels.append(args[5])
            return real(*args)

        monkeypatch.setattr(profile_dynamics, "_rk4_sweep", sweep)
        length, n = 60.0, 2048
        modes = line_modes(-1, 1)
        _, fields = self._gaussians(length, n)
        integrate_euclid(fields, modes, SimParams(lam=1.0, t_final=1e-3, dt=1e-3), length)
        spectra = ProfileSpectrum([FourierSeries.from_grid(f, length) for f in fields],
                                  [(-1,), (1,)])
        assert e_norm(spectra) == pytest.approx(4.011, abs=5e-4)
        assert levels == [pytest.approx(1e6 * e_norm(spectra), rel=1e-12)]

    def test_mass_conserved(self):
        length, n = 60.0, 512
        modes = line_modes(-1, 1)
        _, fields = self._gaussians(length, n)
        params = SimParams(lam=-1.0, t_final=0.5, dt=2e-3)
        traj = integrate_euclid(fields, modes, params, length)
        drift = np.max(np.abs(traj.masses - traj.masses[0])) / traj.masses[0]
        assert drift < 1e-10

    def test_transport_moves_profiles(self):
        # lam=0: pure transport at speed kappa, so the final profile is the
        # initial one shifted by t*kappa
        length, n = 60.0, 1024
        modes = line_modes(2)
        x = np.arange(n) * (length / n)
        f = (0.8 * np.exp(-((x - 30.0) ** 2) / 2.0)).astype(complex)[None, :]
        params = SimParams(lam=0.0, t_final=1.5, dt=1e-2)
        traj = integrate_euclid(f, modes, params, length)
        expected = 0.8 * np.exp(-((x - 1.5 * 2.0 - 30.0) ** 2) / 2.0)
        assert np.max(np.abs(traj.fields[-1][0] - expected)) < 1e-10


class TestClosedForms:
    def test_explicit_torus_modulus_preserved(self):
        alpha = np.array([0.5, 1.0, 0.25j])
        out = explicit_torus_1d(alpha, 2.0, 3.7)
        assert np.allclose(np.abs(out), np.abs(alpha))

    def test_two_mode_sigma1_phase_rates(self):
        # sigma=1 rates: theta_j = |a_j|^2 + 2 |a_l|^2
        a, b = 0.6, 0.3
        t, lam = 0.9, 1.3
        r0, r1 = explicit_two_mode(a, b, 1, lam, t)
        assert abs(r0 - a * np.exp(-1j * lam * t * (a * a + 2 * b * b))) < 1e-14
        assert abs(r1 - b * np.exp(-1j * lam * t * (b * b + 2 * a * a))) < 1e-14

    def test_explicit_euclid_zero_time(self):
        funcs = [lambda y: np.exp(-(y**2))]
        out = explicit_euclid_1d(funcs, [1.0], 1.0, 0.0, np.array([0.0, 1.0]), 1e-2)
        assert np.allclose(out[0], [1.0, np.exp(-1.0)])


def per_tuple_sum(amps, modes):
    """The coupling sum tuple by tuple: np.add.at over enumerate_interactions."""
    rows = [(t.indices, j) for j in range(len(modes)) for t in enumerate_interactions(modes, j)]
    idx = np.array([r for r, _ in rows])
    terms = np.prod(
        [np.conj(amps[col]) if p % 2 else amps[col] for p, col in enumerate(idx.T)], axis=0
    )
    out = np.zeros_like(amps)
    np.add.at(out, np.array([j for _, j in rows]), terms)
    return out


class TestCouplingSum:
    """The class-factored coupling against the per-tuple sum."""

    @pytest.mark.parametrize(
        "vectors,sigma",
        [
            ([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)], 1),
            ([(-1,), (0,), (2,), (3,)], 2),
            ([(-2,), (0,), (1,), (3,), (4,)], 3),
        ],
    )
    def test_matches_loop_with_an_empty_mode(self, vectors, sigma):
        # mode 1 carries no amplitude, so every tuple through it drops out
        modes = ModeSet.from_vectors([wv(*c) for c in vectors], sigma)
        rng = np.random.default_rng(5)
        n = len(modes)
        flat = rng.normal(size=n) + 1j * rng.normal(size=n)
        grid = rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))
        for amps in (flat, grid):
            amps[1] = 0
            got = _coupling(modes, 1.0, amps.ndim - 1)(amps)
            assert got.shape == amps.shape
            ref = per_tuple_sum(amps, modes)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_target_without_live_tuples_is_exactly_zero(self):
        # Every mode of a set is the target of (j, l, l) and (l, l, j), so no
        # target has an empty tuple list.  In 1D at sigma=1 every tuple aimed
        # at j also passes through j, since zero defect forces l_2 = l_1 or
        # l_2 = l_3; a mode without amplitude then has no nonzero tuple.
        modes = line_modes(-3, -1, 0, 2, 5)
        counts = [len(enumerate_interactions(modes, j)) for j in range(len(modes))]
        assert min(counts) >= 2 * len(modes) - 1
        for shape in ((5,), (5, 6)):
            amps = np.random.default_rng(2).normal(size=shape) + 0.5j
            amps[2] = 0
            got = _coupling(modes, 1.0, len(shape) - 1)(amps)
            assert np.all(got[2] == 0)
            ref = per_tuple_sum(amps, modes)
            assert np.all(ref[2] == 0)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_trajectory_counts_tuples(self):
        modes = line_modes(-1, 0, 1)
        traj = integrate_torus([0.5, 1.0, 0.3], modes, SimParams(1.0, 0.01, 1e-3))
        assert traj.interaction_tuples == 15  # (j, l, l) and (l, l, j): 2*3 - 1 each
        assert len(traj.times) == 11

    def test_tuple_counts_match_the_tuple_lists(self):
        # the class sizes count the tuples that interactions_for lists, on
        # the 81-mode box and the 9-mode quintic set, both cut by the cap
        with pytest.warns(ClosureWarning):
            box = close_under_resonances(
                [wv(0, 0), wv(1, 0), wv(0, 1), wv(2, 1)], 1, max_sup_norm=4
            )
        with pytest.warns(ClosureWarning):
            quintic = close_under_resonances([wv(k) for k in range(-4, 5)], 2, max_sup_norm=4)
        for modes, want in ((line_modes(-1, 0, 1), 15), (box, 29393), (quintic, 4077)):
            assert sum(map(len, interactions_for(modes))) == want
            n = len(modes)
            params = SimParams(1.0, 1e-3, 1e-3)
            torus = integrate_torus(np.full(n, 0.1 + 0j), modes, params)
            euclid = integrate_euclid(
                np.full((n,) + (4,) * modes.d, 0.1 + 0j), modes, params, 2 * math.pi
            )
            assert torus.interaction_tuples == euclid.interaction_tuples == want


class TestInteractionsCompilation:
    def test_lists_align_with_modes(self):
        modes = close_under_resonances([wv(0, 1), wv(1, 0), wv(1, 1)], 1)
        lists = interactions_for(modes)
        assert len(lists) == len(modes.vectors)
        vecs = modes.as_array()
        for j, rows in enumerate(lists):
            # each row's alternating sum of wave vectors is mode j's vector
            combined = vecs[rows[:, 0]] - vecs[rows[:, 1]] + vecs[rows[:, 2]]
            assert np.all(combined == vecs[j])

    @pytest.mark.parametrize(
        "seeds,sigma,cap",
        [([(0, 0), (1, 0), (0, 1), (2, 1)], 1, 4), ([(k,) for k in range(-4, 5)], 2, 4)],
    )
    def test_arrays_match_per_target_query(self, seeds, sigma, cap):
        # the 81-mode box and the 9-mode quintic set, both cut by the cap
        with pytest.warns(ClosureWarning):
            modes = close_under_resonances([wv(*c) for c in seeds], sigma, max_sup_norm=cap)
        lists = interactions_for(modes)
        assert len(lists) == len(modes)
        for j, rows in enumerate(lists):
            assert rows.shape[1:] == (2 * sigma + 1,)
            want = [t.indices for t in enumerate_interactions(modes, j)]
            assert list(map(tuple, rows.tolist())) == want  # order included
