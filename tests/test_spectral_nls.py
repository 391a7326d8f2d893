import math
import warnings

import numpy as np
import pytest

from nlsoptics import spectral_nls, wkb_pipeline
from nlsoptics.profile_dynamics import _axis_wavenumbers, _snapshot_marks
from nlsoptics.spectral_nls import (
    ALIASING_BAND,
    ALIASING_TOLERANCE,
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
from nlsoptics.wkb_pipeline import run_instability


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
        assert not np.any(res.aliasing_fractions > ALIASING_TOLERANCE)

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
        assert not np.any(res.aliasing_fractions > ALIASING_TOLERANCE)

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the solve itself measures nothing
            res = solve(u0, cfg)
        with pytest.warns(AliasingWarning):  # the first health read warns
            assert np.any(res.aliasing_fractions > ALIASING_TOLERANCE)
        assert res.aliasing_fractions[0] > 1e-8

    def test_clean_run_not_flagged(self):
        rng = np.random.default_rng(6)
        u0 = _smooth_field(64, rng, modes=2)
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=64, t_final=0.2)
        res = solve(u0, cfg)
        assert not np.any(res.aliasing_fractions > ALIASING_TOLERANCE)


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
            assert np.max(np.abs(field - exact)) <= 1e-12 * scale
            assert field.flags.c_contiguous
        assert res.l2_relative_drift <= 1e-13
        assert not np.any(res.aliasing_fractions > ALIASING_TOLERANCE)
        flow = _linear_flow(d, n, [eps * 1e-2])
        assert flow(u0.values[None].copy()).flags.c_contiguous
        # the cases straddle the switch: n = 8, 16, 64 dense, n = 128 FFT
        assert (n <= DENSE_MAX_N) == (n in (8, 16, 64))


def _reference_flow(d, n, s, ksq):
    """The linear flow written out with the `@` operator: the per-axis
    propagator up to DENSE_MAX_N points per axis, an FFT pair above."""
    if n > DENSE_MAX_N:
        mult = np.exp(-0.5j * s * ksq)
        return lambda u: np.fft.ifftn(np.fft.fftn(u) * mult)
    k = np.fft.fftfreq(n, 1.0 / n)
    prop = np.fft.ifft(np.exp(-0.5j * s * k**2)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    if d == 1:
        return lambda u: prop @ u

    def flow(u):
        for a in range(d - 1):
            u = prop @ u.reshape(n**a, n, -1)
        return (u.reshape(-1, n) @ prop.T).reshape((n,) * d)

    return flow


def _reference_solve(u0, cfg, snapshot_times):
    """The Strang loop in its plainest form: a fresh flow per segment and
    |u|^2 as u.real**2 + u.imag**2; returns fields, L2s, fractions, steps."""
    d, n = u0.d, cfg.n
    ksq = np.zeros((n,) * d)
    band = np.zeros((n,) * d, dtype=bool)
    for k in _axis_wavenumbers(d, n):
        ksq = ksq + k**2
        band |= np.abs(k) >= ALIASING_BAND * n / 2

    def rotate(u, tau):
        if tau == 0 or cfg.lam == 0:
            return u
        mag2 = u.real**2 + u.imag**2
        u *= np.exp((-1j * cfg.lam * tau) * (mag2 if cfg.sigma == 1 else mag2**cfg.sigma))
        return u

    fields, l2s, fracs = [], [], []

    def snapshot(u):
        spec_mag2 = np.abs(np.fft.fftn(u)) ** 2
        fracs.append(float(spec_mag2[band].sum() / spec_mag2.sum()))
        fields.append(u.copy())
        l2s.append(math.sqrt((2 * math.pi / n) ** d * float(np.sum(u.real**2 + u.imag**2))))

    marks = _snapshot_marks(cfg.t_final, snapshot_times)
    u = u0.values.copy()
    snapshot(u)
    steps = 0
    for left, right in zip(marks[:-1], marks[1:]):
        seg = right - left
        m = max(1, math.ceil(seg / cfg.dt - 1e-9))
        h = seg / m
        steps += m
        linear = _reference_flow(d, n, cfg.eps * h, ksq)
        u = rotate(u, h / 2)
        for i in range(m):
            u = rotate(linear(u), h if i < m - 1 else h / 2)
        snapshot(u)
    return fields, np.array(l2s), np.array(fracs), steps


def _band_limited_field(d, n, seed):
    """Random field with modes |k|_inf <= 3 only, scaled to peak 0.8."""
    rng = np.random.default_rng(seed)
    k = np.fft.fftfreq(n, 1.0 / n)
    grids = np.meshgrid(*[k] * d, indexing="ij")
    spec = rng.normal(size=(n,) * d) + 1j * rng.normal(size=(n,) * d)
    spec[np.max([np.abs(g) for g in grids], axis=0) > 3] = 0
    values = np.fft.ifftn(spec)
    return GridField(d, n, 0.8 * values / np.max(np.abs(values)))


class TestBitIdentity:
    """`solve` reuses one flow per distinct step and preallocated buffers;
    its results must equal the plain loop above bit for bit."""

    @pytest.mark.parametrize("lam", [0.0, 1.3])
    @pytest.mark.parametrize("sigma", [1, 2])
    @pytest.mark.parametrize(
        "d,n", [(1, 16), (1, 32), (1, 128), (2, 16), (2, 32), (2, 128), (3, 16), (3, 32)]
    )
    def test_matches_reference_loop(self, d, n, sigma, lam):
        u0 = _band_limited_field(d, n, 1000 * d + 10 * n + sigma)
        # segments of 0.01, 0.025, 0.025, 0.02 and 0.03: three distinct steps
        snaps = [0.01, 0.035, 0.06, 0.08]
        cfg = SolverConfig(eps=1 / 4, lam=lam, sigma=sigma, dt=4e-3, n=n, t_final=0.11)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve(u0, cfg, snaps)
        assert caught == []  # health, and its warning, wait for the first read
        fields, l2s, fracs, steps = _reference_solve(u0, cfg, snaps)
        assert res.fields.shape == (6,) + (n,) * d and len(fields) == 6
        for k, want in enumerate(fields):
            assert np.array_equal(res.fields[k], want)
        assert res.steps == steps
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert np.array_equal(res.l2_values, l2s)
            assert np.array_equal(res.aliasing_fractions, fracs)
            # computed once: later reads return the same arrays, warning no more
            assert res.l2_values is res.l2_values
            assert res.aliasing_fractions is res.aliasing_fractions
            flagged = bool(np.any(fracs > ALIASING_TOLERANCE))
            assert np.any(res.aliasing_fractions > ALIASING_TOLERANCE) == flagged
        # the 16-point cells with coupling reach the top band: one warning
        assert [w.category for w in caught] == [AliasingWarning] * flagged


class TestMarkHealth:
    """Health is measured at every mark, in one pass when first read; the
    finite check runs in the solve, after the last step."""

    def test_non_finite_field_raises_by_t_final(self):
        # |u|^2 overflows in the first sub-step, so every mark after t=0 is
        # NaN; the solve runs on to t_final and names the first of them
        u0 = GridField(1, 16, np.full(16, 1e200 + 0j))
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=16, t_final=0.5)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match=r"by t=0\.1$"):
                solve(u0, cfg, [0.1, 0.3])

    def test_single_mark_measures_once(self):
        u0 = _band_limited_field(1, 16, 3)
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=16, t_final=0.0)
        res = solve(u0, cfg)
        assert res.fields.shape == (1, 16) and not res.fields.flags.writeable
        assert res.l2_values.shape == res.aliasing_fractions.shape == (1,)


class TestStackedSolve:
    """A stack of data on a leading axis shares one loop of numpy calls; each
    datum's result must equal the plain loop over that datum alone,
    `_reference_solve`, bit for bit (a one-field solve is a stack of one,
    so comparing with it would compare the code with itself)."""

    @staticmethod
    def _assert_reference(res, u0, cfg, snaps):
        fields, l2s, fracs, steps = _reference_solve(u0, cfg, snaps)
        assert np.array_equal(res.times, _snapshot_marks(cfg.t_final, snaps))
        assert res.fields.flags.c_contiguous and not res.fields.flags.writeable
        assert len(res.fields) == len(fields)
        for k, want in enumerate(fields):
            assert np.array_equal(res.fields[k], want)
        assert res.steps == steps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasingWarning)  # 16-point cells with coupling
            assert np.array_equal(res.l2_values, l2s)
            assert np.array_equal(res.aliasing_fractions, fracs)

    @pytest.mark.parametrize("lam", [0.0, 1.3])
    @pytest.mark.parametrize("sigma", [1, 2])
    @pytest.mark.parametrize("d,n", [(1, 16), (1, 32), (1, 128), (2, 16)])
    def test_each_datum_equals_its_own_solve(self, d, n, sigma, lam):
        data = [_band_limited_field(d, n, 1000 * d + 10 * n + seed) for seed in range(3)]
        snaps = [0.01, 0.035, 0.06, 0.08]
        cfg = SolverConfig(eps=1 / 4, lam=lam, sigma=sigma, dt=4e-3, n=n, t_final=0.11)
        stacked = solve(GridField(d, n, np.stack([u.values for u in data])), cfg, snaps)
        assert len(stacked) == len(data)
        assert stacked.fields.shape == (6, len(data)) + (n,) * d
        assert not stacked.fields.flags.writeable
        for u0, res in zip(data, stacked):
            assert res.times is stacked.times  # data of one config share its marks
            self._assert_reference(res, u0, cfg, snaps)

    @pytest.mark.parametrize("sigma", [1, 2])
    @pytest.mark.parametrize("d,n", [(1, 16), (1, 32), (1, 128), (2, 16), (2, 32), (3, 16)])
    def test_data_with_their_own_configs_equal_their_own_solves(self, d, n, sigma):
        # the period cells of one problem at eps = 1/8, 1/16 and 1/32 share
        # the physical step and horizon, so each datum has its own coupling,
        # cell step, horizon and marks, and the same step counts; each also
        # has its own dispersion scale
        data = [_band_limited_field(d, n, 100 * d + n + seed) for seed in range(3)]
        rows = []
        for k, eps in enumerate([1 / 8, 1 / 16, 1 / 32]):
            cfg = SolverConfig(eps=1 / (k + 1), lam=1.3 * eps, sigma=sigma, dt=0.01 / eps, n=n,
                               t_final=0.4 / eps)
            rows.append((cfg, [t / eps for t in (0.1, 0.25, 0.3)]))
        stacked = solve(GridField(d, n, np.stack([u.values for u in data])), *rows[0], rows[1:])
        assert stacked.times is stacked[0].times
        for u0, (cfg, marks), res in zip(data, rows, stacked):
            self._assert_reference(res, u0, cfg, marks)

    def test_data_with_other_step_counts_are_refused(self):
        u = _band_limited_field(1, 16, 5).values
        cfg = SolverConfig(eps=1.0, lam=0.125, sigma=1, dt=0.1, n=16, t_final=1.0)
        stack = GridField(1, 16, np.stack([u, u]))
        other = SolverConfig(eps=1.0, lam=0.125, sigma=1, dt=0.05, n=16, t_final=1.0)
        with pytest.raises(ValueError, match="same step count"):
            solve(stack, cfg, [0.5], [(other, [0.5])])
        with pytest.raises(ValueError, match="same step count"):
            solve(stack, cfg, [0.5], [(cfg, [0.25, 0.5])])  # one more segment
        with pytest.raises(ValueError, match="others holds 2 configs; a stack of 2 data needs 1$"):
            solve(stack, cfg, [0.5], [(cfg, [0.5])] * 2)
        with pytest.raises(ValueError, match="others holds 1 configs; a stack of 1 data needs 0$"):
            solve(GridField(1, 16, u), cfg, [0.5], [(cfg, [0.5])])
        with pytest.raises(ValueError, match="share n and sigma"):
            solve(stack, cfg, [0.5], [(SolverConfig(1.0, 0.125, 2, 0.1, 16, 1.0), [0.5])])

    def test_non_finite_datum_raises_naming_the_mark(self):
        # the second datum's |u|^2 overflows in the first sub-step; the
        # stack names the first mark, as the datum's own solve does
        good = _band_limited_field(1, 16, 3).values
        stack = GridField(1, 16, np.stack([good, np.full(16, 1e200 + 0j)]))
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=1e-2, n=16, t_final=0.5)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match=r"by t=0\.1$"):
                solve(stack, cfg, [0.1, 0.3])

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError):
            GridField(1, 16, np.zeros((2, 2, 16), dtype=complex))
        assert GridField(2, 8, np.zeros((3, 8, 8), dtype=complex)).values.shape == (3, 8, 8)


def _count_flows(monkeypatch):
    """Patch the module's flow builder with a counter; returns the list of
    step arguments s, one per build."""
    built = []
    real = spectral_nls._linear_flow

    def counting(d, n, s):
        built.append(s)
        return real(d, n, s)

    monkeypatch.setattr(spectral_nls, "_linear_flow", counting)
    return built


class TestPropagatorReuse:
    def test_crosscheck_builds_one_flow_per_distinct_step(self, monkeypatch):
        built = _count_flows(monkeypatch)
        per_solve = []
        real_solve = wkb_pipeline.solve

        def recording(u0, cfg, snapshot_times=None, others=()):
            start = len(built)
            res = real_solve(u0, cfg, snapshot_times, others)
            marks = _snapshot_marks(cfg.t_final, snapshot_times)
            segs = [b - a for a, b in zip(marks[:-1], marks[1:]) if b > a]
            hs = {seg / max(1, math.ceil(seg / cfg.dt - 1e-9)) for seg in segs}
            per_solve.append((len(built) - start, len(hs), len(segs)))
            steps.extend(r.steps for r in res)
            return res

        steps = []
        monkeypatch.setattr(wkb_pipeline, "solve", recording)
        rec = run_instability(1.0, 0.1, -2.0, 16, cross_check=True)
        # both data walk the ladder together from its top rung's coarse
        # partner down to their chosen rung 1, one stacked solve per rung,
        # then share one solve on the doubled cell
        assert [c.rung for c in rec.solver_checks] == [1, 1]
        assert len(per_solve) == 5 + 1
        assert len(steps) == 2 * len(per_solve)
        # each datum counts its own steps: the stacks' even and odd entries
        assert [c.steps for c in rec.solver_checks] == [sum(steps[0::2]), sum(steps[1::2])]
        for builds, distinct, segments in per_solve:
            assert segments == 100
            assert builds == distinct < segments

    def test_two_segment_lengths_build_two_flows(self, monkeypatch):
        built = _count_flows(monkeypatch)
        rng = np.random.default_rng(7)
        u0 = _smooth_field(16, rng, modes=2)
        cfg = SolverConfig(eps=1 / 2, lam=1.0, sigma=1, dt=0.03, n=16, t_final=0.375)
        res = solve(u0, cfg, [0.125, 0.25])  # three segments of 0.125 share one step
        assert res.steps == 3 * 5
        assert len(built) == 1
        built.clear()
        res = solve(u0, cfg, [0.125])  # segments 0.125 and 0.25: steps 0.025 and 0.25/9
        assert res.steps == 5 + 9
        assert len(built) >= 2
