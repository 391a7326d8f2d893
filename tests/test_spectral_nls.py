import math

import numpy as np
import pytest

from nlsoptics.spectral_nls import (
    DENSE_MAX_N,
    AliasingWarning,
    GridField,
    SolverConfig,
    default_dt,
    default_grid_size,
    _linear_flow,
    plane_wave_exact,
    solve,
    sup_norm_of_field,
    w_norm_of_field,
)


def _smooth_field(n, rng, modes=3, scale=0.2):
    spec = np.zeros(n, dtype=complex)
    for k in range(-modes, modes + 1):
        spec[k % n] = scale * (rng.normal() + 1j * rng.normal())
    return GridField(1, n, np.fft.ifft(spec) * n)


class TestDefaults:
    def test_grid_size_rule(self):
        assert default_grid_size(1 / 8, 1, 1) == 128
        assert default_grid_size(1 / 8, 2, 2) == 512
        assert default_grid_size(1 / 2, 1, 0) == 16

    def test_grid_size_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            default_grid_size(0.3, 1, 1)

    def test_dt_rule(self):
        assert default_dt(1 / 32) == (1 / 32) / 100


class TestConfigValidation:
    def test_eps_must_be_unit_fraction(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.3, lam=1.0, sigma=1, dt=1e-3, n=64, t_final=1.0)

    def test_n_power_of_two(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.5, lam=1.0, sigma=1, dt=1e-3, n=48, t_final=1.0)


class TestGridField:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            GridField(2, 8, np.zeros(8, dtype=complex))

    def test_power_of_two_checked(self):
        with pytest.raises(ValueError):
            GridField(1, 12, np.zeros(12, dtype=complex))

    def test_from_values(self):
        u = GridField.from_values(np.zeros((16, 16), dtype=complex))
        assert u.d == 2 and u.n == 16


class TestPlaneWaves:
    @pytest.mark.parametrize("sigma", [1, 2])
    def test_single_carrier_is_exact(self, sigma):
        eps = 1 / 16
        n = default_grid_size(eps, sigma, 1)
        cfg = SolverConfig(
            eps=eps, lam=1.0, sigma=sigma, dt=default_dt(eps), n=n, t_final=1.0
        )
        alpha = 0.9 * np.exp(0.4j)
        u0 = plane_wave_exact(alpha, (1,), cfg, 0.0)
        res = solve(u0, cfg)
        exact = plane_wave_exact(alpha, (1,), cfg, 1.0)
        assert np.max(np.abs(res.final.values - exact.values)) < 1e-10
        assert not res.aliasing_flagged

    def test_single_carrier_2d(self):
        eps = 1 / 4
        cfg = SolverConfig(eps=eps, lam=-1.0, sigma=1, dt=default_dt(eps), n=64,
                           t_final=0.25)
        alpha = 0.7 - 0.2j
        u0 = plane_wave_exact(alpha, (1, 1), cfg, 0.0)
        res = solve(u0, cfg)
        exact = plane_wave_exact(alpha, (1, 1), cfg, 0.25)
        assert np.max(np.abs(res.final.values - exact.values)) < 1e-10

    def test_norm_helpers_on_plane_wave(self):
        cfg = SolverConfig(eps=1 / 4, lam=1.0, sigma=1, dt=1e-2, n=64, t_final=1.0)
        u = plane_wave_exact(0.5j, (1,), cfg, 0.3)
        assert abs(w_norm_of_field(u) - 0.5) < 1e-12
        assert abs(sup_norm_of_field(u) - 0.5) < 1e-12


class TestConservationAndSnapshots:
    def test_l2_drift_over_thousand_steps(self):
        # n=64 keeps the top-band monitor quiet over the full second of drift
        rng = np.random.default_rng(11)
        u0 = _smooth_field(64, rng)
        cfg = SolverConfig(eps=1 / 4, lam=1.0, sigma=1, dt=1e-3, n=64, t_final=1.0)
        res = solve(u0, cfg, snapshot_times=np.linspace(0, 1, 5))
        assert res.l2_relative_drift < 1e-12
        assert not res.aliasing_flagged

    def test_snapshots_land_exactly(self):
        rng = np.random.default_rng(3)
        u0 = _smooth_field(16, rng, modes=1)
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=16, t_final=0.5)
        res = solve(u0, cfg, snapshot_times=[0.333])
        assert np.any(res.times == 0.333)
        got = res.at(0.333)
        assert got.n == 16
        with pytest.raises(KeyError):
            res.at(0.2)

    def test_snapshot_outside_range_rejected(self):
        rng = np.random.default_rng(4)
        u0 = _smooth_field(16, rng, modes=1)
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=16, t_final=0.5)
        with pytest.raises(ValueError):
            solve(u0, cfg, snapshot_times=[0.7])

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        u0 = _smooth_field(16, rng, modes=1)
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=32, t_final=0.5)
        with pytest.raises(ValueError):
            solve(u0, cfg)

    def test_non_finite_initial_rejected(self):
        vals = np.zeros(16, dtype=complex)
        vals[3] = np.nan
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=16, t_final=0.5)
        with pytest.raises(ValueError):
            solve(GridField(1, 16, vals), cfg)


class TestAliasingMonitor:
    def test_top_band_content_flagged(self):
        spec = np.zeros(16, dtype=complex)
        spec[0] = 1.0
        spec[8] = 0.05  # |k| = 8 >= 0.9 * 8
        u0 = GridField(1, 16, np.fft.ifft(spec) * 16)
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=16, t_final=0.0)
        with pytest.warns(AliasingWarning):
            res = solve(u0, cfg)
        assert res.aliasing_flagged
        assert res.aliasing_fractions[0] > 1e-8

    def test_clean_run_not_flagged(self):
        rng = np.random.default_rng(6)
        u0 = _smooth_field(64, rng, modes=2)
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=64, t_final=0.2)
        res = solve(u0, cfg)
        assert not res.aliasing_flagged


class TestSplittingAccuracy:
    def test_second_order_in_dt(self):
        # two-carrier data has genuine nonlinear-linear commutator error
        eps = 1 / 4
        cfg_ref = SolverConfig(eps=eps, lam=1.0, sigma=1, dt=1e-5, n=128, t_final=0.1)
        alpha = {0: 0.8, 1: 0.5}
        u0 = GridField(
            1,
            128,
            sum(
                a * plane_wave_exact(1.0, (k,), cfg_ref, 0.0).values
                for k, a in alpha.items()
            ),
        )
        ref = solve(u0, cfg_ref).final.values
        errs = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(eps=eps, lam=1.0, sigma=1, dt=dt, n=128, t_final=0.1)
            errs.append(np.max(np.abs(solve(u0, cfg).final.values - ref)))
        order = math.log2(errs[0] / errs[1])
        assert 1.7 < order < 2.3


class TestLinearFlow:
    """Both sides of DENSE_MAX_N: per-axis propagator matmuls and FFT pairs."""

    @pytest.mark.parametrize("d,n", [(1, 16), (1, 64), (1, 128), (2, 16), (2, 128), (3, 8)])
    def test_free_flow_matches_fourier_multiplier(self, d, n):
        eps, times = 1 / 2, [0.0, 0.1, 0.25, 0.3]
        rng = np.random.default_rng(100 * d + n)
        k = np.fft.fftfreq(n, 1.0 / n)
        grids = np.meshgrid(*[k] * d, indexing="ij")
        ksq = sum(g**2 for g in grids)
        spec = rng.normal(size=(n,) * d) + 1j * rng.normal(size=(n,) * d)
        spec[np.max([np.abs(g) for g in grids], axis=0) > n // 4] = 0  # band-limited
        u0 = GridField(d, n, np.fft.ifftn(spec) * n**d)
        cfg = SolverConfig(eps=eps, lam=0.0, sigma=1, dt=1e-2, n=n, t_final=times[-1])
        res = solve(u0, cfg, snapshot_times=times[1:-1])
        assert list(res.times) == times
        scale = np.max(np.abs(u0.values))
        for t, field in zip(times, res.fields):
            exact = np.fft.ifftn(spec * np.exp(-0.5j * eps * t * ksq)) * n**d
            assert np.max(np.abs(field.values - exact)) <= 1e-12 * scale
            assert field.values.flags.c_contiguous
        assert res.l2_relative_drift <= 1e-13
        assert not res.aliasing_flagged
        flow = _linear_flow(d, n, eps * 1e-2, ksq)
        assert flow(u0.values.copy()).flags.c_contiguous
        # the cases straddle the switch: n = 8, 16, 64 dense, n = 128 FFT
        assert (n <= DENSE_MAX_N) == (n in (8, 16, 64))
