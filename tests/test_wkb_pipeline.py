import math
import warnings
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from nlsoptics.lattice_geometry import ModeSet, WaveVector, close_under_resonances
from nlsoptics.profile_dynamics import (
    BlowUpError,
    ProfileStateEuclid,
    ProfileStateTorus,
    SimParams,
    explicit_torus_1d,
    integrate_torus,
)
from nlsoptics.spectral_nls import (
    GridField,
    SolveResult,
    SolverConfig,
    SolveStack,
    default_dt,
    default_grid_size,
    solve,
    sup_norm_of_field,
    w_norm_of_field,
)
from nlsoptics import wkb_pipeline
from nlsoptics.profile_dynamics import _relative_drift, _snapshot_marks, _two_mode_terms
from nlsoptics.wiener_norms import e_norm
from nlsoptics.wkb_pipeline import (
    ERROR_FLOOR,
    LADDER_FRACTION,
    PROFILE_DT,
    ConvergenceRow,
    ConvergenceTable,
    LadderCheck,
    _cell_config,
    _extrapolate,
    _field_delta,
    _ladder,
    _solve_alpha1_for_theta,
    assemble_uapp,
    remainder_report,
    run_convergence,
    run_instability,
    two_mode_theta,
)


def wv(*coords):
    return WaveVector(tuple(coords))


def line_modes(*ks, sigma=1, saturated=True):
    return ModeSet.from_vectors([wv(k) for k in ks], sigma, saturated=saturated)


class TestAssembly:
    def test_single_carrier_matches_plane_wave(self):
        modes = line_modes(1)
        eps, n, t = 1 / 4, 64, 0.7
        alpha = 0.8 * np.exp(0.25j)
        state = ProfileStateTorus(modes, np.array([alpha]), t)
        u = assemble_uapp(state, eps, n)
        x = 2 * math.pi * np.arange(n) / n
        expected = alpha * np.exp(1j * (4 * x - 0.5 * 4 * t))
        assert np.max(np.abs(u.values - expected)) < 1e-12

    def test_two_carriers_superpose(self):
        modes = line_modes(-1, 1)
        eps, n, t = 1 / 8, 128, 0.3
        amps = np.array([0.5, 0.25j])
        state = ProfileStateTorus(modes, amps, t)
        u = assemble_uapp(state, eps, n)
        x = 2 * math.pi * np.arange(n) / n
        expected = amps[0] * np.exp(1j * (-8 * x - 0.5 * 8 * t)) + amps[1] * np.exp(
            1j * (8 * x - 0.5 * 8 * t)
        )
        assert np.max(np.abs(u.values - expected)) < 1e-12

    def test_two_dimensional_assembly(self):
        modes = ModeSet.from_vectors([wv(1, 1)], 1, saturated=True)
        eps, n = 1 / 2, 32
        state = ProfileStateTorus(modes, np.array([1.0]), 0.0)
        u = assemble_uapp(state, eps, n)
        x = 2 * math.pi * np.arange(n) / n
        expected = np.exp(1j * 2 * (x[:, None] + x[None, :]))
        assert np.max(np.abs(u.values - expected)) < 1e-12

    def test_unresolved_carrier_rejected(self):
        modes = line_modes(1)
        state = ProfileStateTorus(modes, np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            assemble_uapp(state, 1 / 16, 32)


class TestConvergence:
    def test_two_leg_sweep(self):
        modes = line_modes(0, 1)
        table = run_convergence(
            modes, [0.7, 0.4], 1.0, [1 / 4, 1 / 8], 0.3, checkpoints=2
        )
        assert [r.eps for r in table.rows] == [0.25, 0.125]
        assert all(r.ok for r in table.rows)
        assert table.rows[1].sup_error < table.rows[0].sup_error
        assert table.checkpoint_times == pytest.approx((0.1, 0.2, 0.3))
        # two coarse legs sit before the asymptotic regime; just require decay
        assert table.order_sup is not None and 0.0 < table.order_sup < 1.5
        assert not table.at_floor

    def test_linear_runs_sit_at_floor(self):
        modes = line_modes(0, 1)
        table = run_convergence(
            modes, [0.7, 0.4], 0.0, [1 / 4, 1 / 8], 0.2,
            checkpoints=1,
        )
        assert all(r.sup_error <= ERROR_FLOOR for r in table.rows)
        assert table.at_floor
        assert table.order_sup is None
        assert table.fitted_order_label("sup") == "n/a (floor)"

    def test_failed_leg_recorded_not_raised(self, monkeypatch):
        # the eps = 1/8 leg overflows; its cell has coupling lam*eps = 1/8
        real_solve = wkb_pipeline.solve

        def solve_or_overflow(u0, cfg, snapshot_times=None, others=()):
            # the legs share their stacked solves: any stack holding the
            # eps = 1/8 leg raises, and so does that leg's own solve
            if any(c.lam == 1 / 8 for c, _ in [(cfg, None), *others]):
                raise FloatingPointError("overflow in the split step")
            return real_solve(u0, cfg, snapshot_times, others)

        modes = line_modes(0, 1)
        sweep = ([0.5, 0.3], 1.0, [1 / 4, 1 / 8, 1 / 16], 0.1)
        unpatched = run_convergence(modes, *sweep, checkpoints=1)
        monkeypatch.setattr(wkb_pipeline, "solve", solve_or_overflow)
        table = run_convergence(modes, *sweep, checkpoints=1)
        ok_rows = [table.rows[0], table.rows[2]]
        failed = table.rows[1]
        assert not failed.ok
        assert failed.status == "FloatingPointError: overflow in the split step"
        assert math.isnan(failed.sup_error) and math.isnan(failed.w_error)
        assert failed.grid_n == 8 * default_grid_size(1.0, 1, 1)
        assert all(r.ok and r.sup_error > ERROR_FLOOR for r in ok_rows)
        # the other legs keep the rows they make when no leg fails
        for row, other in zip(ok_rows, [unpatched.rows[0], unpatched.rows[2]]):
            assert _row_values(row) == _row_values(other)
        # the fits see only the two legs that ran
        for attr, order in (("sup_error", table.order_sup), ("w_error", table.order_w)):
            x = np.log([r.eps for r in ok_rows])
            y = np.log([getattr(r, attr) for r in ok_rows])
            assert order == float(np.polyfit(x, y, 1)[0])

    def test_non_finite_leg_in_a_shared_stack_fails_alone(self, monkeypatch):
        # the eps = 1/8 leg's datum is made to overflow inside every solve
        # it takes part in: the stacked solve that holds it goes non-finite,
        # and the leg fails alone with its own solve's error
        real_solve = wkb_pipeline.solve
        calls = []

        def overflowing(u0, cfg, snapshot_times=None, others=()):
            lams = [c.lam for c, _ in [(cfg, None), *others]]
            calls.append(len(lams))
            values = u0.values.copy()
            for b, lam in enumerate(lams):
                if lam == 1 / 8:
                    values[b if others else ...] = 1e200
            return real_solve(GridField(u0.d, u0.n, values), cfg, snapshot_times, others)

        modes = line_modes(0, 1)
        sweep = ([0.5, 0.3], 1.0, [1 / 4, 1 / 8, 1 / 16], 0.1)
        unpatched = run_convergence(modes, *sweep, checkpoints=1)
        monkeypatch.setattr(wkb_pipeline, "solve", overflowing)
        with np.errstate(over="ignore", invalid="ignore"):
            table = run_convergence(modes, *sweep, checkpoints=1)
        assert max(calls) == 3  # the three legs shared the first run
        failed = table.rows[1]
        assert failed.status.startswith(
            "FloatingPointError: solver produced non-finite values by t=")
        assert math.isnan(failed.sup_error) and math.isnan(failed.w_error)
        assert failed.check is None and failed.stage_s == {}
        for i in (0, 2):
            assert _row_values(table.rows[i]) == _row_values(unpatched.rows[i])

    def test_bad_eps_raises_before_any_row(self, monkeypatch):
        # every leg's cell is built before the profiles and the first leg
        calls = []

        def recorder(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("integrate_torus", "solve"):
            monkeypatch.setattr(wkb_pipeline, name, recorder(name, getattr(wkb_pipeline, name)))
        modes = line_modes(0, 1)
        with pytest.raises(ValueError, match="1/eps"):
            run_convergence(
                modes, [0.5, 0.3], 1.0, [1 / 8, 0.3], 0.1,
                checkpoints=1,
            )
        assert calls == []
        # the recorder sees a sweep that does run
        run_convergence(modes, [0.5, 0.3], 1.0, [1 / 8], 0.1, checkpoints=1)
        assert calls[0] == "integrate_torus" and "solve" in calls

    @pytest.mark.parametrize(
        "eps_list, checkpoints",
        [([], 1), ([1 / 8], -1), ([1 / 8], 1.5), ([1 / 8], None)],
    )
    def test_bad_sweep_shape_raises_before_any_work(self, monkeypatch, eps_list, checkpoints):
        # a negative checkpoints used to yield rows at the floor with no
        # checkpoint at all; an empty eps_list an empty table
        def forbidden(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(wkb_pipeline, "integrate_torus", forbidden)
        monkeypatch.setattr(wkb_pipeline, "solve", forbidden)
        with pytest.raises(ValueError, match="eps_list|checkpoints"):
            run_convergence(
                line_modes(0, 1), [0.7, 0.4], 0.0, eps_list, 0.25, checkpoints=checkpoints
            )

    def test_period_solve_matches_full_grid(self):
        # oracle: the full default grid, solved directly at the step the
        # ladder chose for each row, against the table's profiles; the
        # sweep solves one 2 pi eps period per leg instead
        modes = close_under_resonances([wv(0, 1), wv(1, 0), wv(1, 1)], 1)
        alpha = np.array([0.0, 0.2, 0.3, 0.25 * np.exp(1j * math.pi / 6)])
        eps_list, t_final = [1 / 8, 1 / 16], 0.1
        table = run_convergence(
            modes, alpha, 1.0, eps_list, t_final, checkpoints=2
        )
        checks = table.checkpoint_times
        amps = _table_profiles(table, modes, alpha, 1.0, t_final)
        for eps, row in zip(eps_list, table.rows):
            assert row.ok and row.check is not None
            assert row.check.dt <= row.check.rung * default_dt(eps)
            n = default_grid_size(eps, 1, modes.max_sup_norm)
            cfg = SolverConfig(eps, 1.0, 1, row.check.dt, n, t_final)
            u0 = assemble_uapp(ProfileStateTorus(modes, alpha, 0.0), eps, n)
            res = solve(u0, cfg, snapshot_times=checks)
            sup_err = w_err = 0.0
            for t in checks:
                uapp = assemble_uapp(ProfileStateTorus(modes, amps[t], t), eps, n)
                diff = GridField(2, n, res.at(t).values - uapp.values)
                sup_err = max(sup_err, sup_norm_of_field(diff))
                w_err = max(w_err, w_norm_of_field(diff))
            assert row.grid_n == n
            assert sup_err > 1e3 * ERROR_FLOOR
            assert math.isclose(row.sup_error, sup_err, rel_tol=1e-10)
            assert math.isclose(row.w_error, w_err, rel_tol=1e-10)

    def test_default_grid_off_the_period_reports_period_points(self):
        # the period gets default_grid_size(1, ...) points, and the row
        # reports the grid those periods tile, whatever 1/eps is
        modes = line_modes(0, 1)
        table = run_convergence(
            modes, [0.5, 0.3], 1.0, [1 / 3], 0.1,
            checkpoints=1,
        )
        row = table.rows[0]
        assert row.ok
        assert row.grid_n == 3 * default_grid_size(1.0, 1, 1)

    def test_unsaturated_set_warns(self):
        modes = line_modes(0, 1, saturated=False)
        with pytest.warns(UserWarning, match="not closed"):
            run_convergence(
                modes, [0.5, 0.3], 1.0, [1 / 2], 0.05,
                checkpoints=1,
            )

    def test_label_formatting(self):
        table = ConvergenceTable(
            rows=[], checkpoint_times=(), order_sup=0.9126, order_w=None,
            at_floor=False, profile=LadderCheck(1, PROFILE_DT, False, 0.0),
        )
        assert table.fitted_order_label("sup") == "0.913"
        assert table.fitted_order_label("w") == "n/a"


def criterion_one_data():
    modes = close_under_resonances([wv(-1), wv(0), wv(1)], 1)
    amps = {(-1,): 0.5, (0,): 1.0, (1,): 0.7 * np.exp(1j * math.pi / 4)}
    alpha = np.array([amps[v.coords] for v in modes.vectors])
    return modes, alpha


def _one(run):
    """A ladder run of one datum from run(h)."""
    return lambda h, some: [run(h)]


def _plain(fine, coarse):
    """A combine whose extrapolant is the fine run: each extrapolated pair
    is the plain pair again, so the walk is the plain pairs' alone."""
    return fine


def _strang_extrapolant(fine, coarse):
    """The split-step ladder's E of two solves at steps h and 2h."""
    return SolveResult(fine.times, _extrapolate(fine.fields, coarse.fields, 2), 0)


def _table_profiles(table, modes, alpha, lam, t_final):
    """The profile amplitudes of each checkpoint that a table's rows were
    measured against, rebuilt from the report: RK4 at the profile's dt, or
    its extrapolant with the run at twice that step, evaluated as the
    ladder does, bit for bit."""
    checks = table.checkpoint_times

    def at(dt):
        return integrate_torus(alpha, modes, SimParams(lam, t_final, dt), snapshot_times=checks).at

    fine = at(table.profile.dt)
    if not table.profile.extrapolated:
        return {t: fine(t) for t in checks}
    coarse = at(2 * table.profile.dt)
    return {t: _extrapolate(fine(t), coarse(t), 4) for t in checks}


class TestSharedWalk:
    """run_convergence walks its legs in one ladder; the legs whose next
    run takes the same step share that run as one stacked solve."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_legs_off_a_dyadic_family_equal_their_own_walks(self, d, monkeypatch):
        # th11's data in 1D, creation2d's in 2D, on eps = 1/8, 1/12, 1/16
        if d == 1:
            (modes, alpha), t_final = criterion_one_data(), 1.0
        else:
            modes = close_under_resonances([wv(0, 1), wv(1, 0), wv(1, 1)], 1)
            amps = {(0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.21650635094610965 + 0.125j}
            alpha = np.array([amps.get(v.coords, 0.0) for v in modes.vectors])
            t_final = 0.5
        sweep = (modes, alpha, 1.0, [1 / 8, 1 / 12, 1 / 16], t_final)
        solves = _record(monkeypatch)
        table = run_convergence(*sweep)
        shared = [res if isinstance(res, SolveStack) else [res] for res in solves]
        del solves[:]
        real = wkb_pipeline._checked_solve

        def leg_by_leg(legs, *args):
            walks = [real([leg], *args) for leg in legs]
            return [walk for [walk], _ in walks], [spent for _, [spent] in walks]

        monkeypatch.setattr(wkb_pipeline, "_checked_solve", leg_by_leg)
        alone = run_convergence(*sweep)
        assert [_row_values(r) for r in table.rows] == [_row_values(r) for r in alone.rows]
        assert (table.order_sup, table.order_w) == (alone.order_sup, alone.order_w)
        # the shared walk solved every datum the walks leg by leg solved, in
        # fewer calls; a call's data take the same count of steps, and no
        # two calls on one cell size take the same count
        assert sum(map(len, shared)) == len(solves) > len(shared)
        taken = [(res[0].fields.shape[1], res[0].steps) for res in shared]
        assert all(len({one.steps for one in res}) == 1 for res in shared)
        assert len(set(taken)) == len(taken)

    def test_initial_fields_assembled_once_per_cell_size(self, monkeypatch):
        # th11's four legs share one initial state: it is assembled on the
        # cell and on the doubled cell, once each, for every run of the walk
        calls = []
        real = wkb_pipeline.assemble_uapp

        def counting(state, eps, n):
            calls.append((state.t, n))
            return real(state, eps, n)

        monkeypatch.setattr(wkb_pipeline, "assemble_uapp", counting)
        modes, alpha = criterion_one_data()
        table = run_convergence(modes, alpha, 1.0, [1 / 8, 1 / 16, 1 / 32, 1 / 64], 1.0)
        n = table.rows[0].grid_n // 8
        assert [c for c in calls if c[0] == 0] == [(0, n), (0, 2 * n)]
        # the rest are the rows' approximations, one per checkpoint
        assert len(calls) == 2 + len(table.rows) * len(table.checkpoint_times)


class TestLadderCheck:
    def test_over_names_the_deltas_above_budget(self):
        assert LadderCheck(1, 0.1, False, 1.0, 1.0).over(1.0) == {}  # equal is within
        assert LadderCheck(1, 0.1, False, 2.0, 0.5).over(1.0) == {"step": 2.0}
        assert LadderCheck(1, 0.1, True, 0.5, 3.0).over(1.0) == {"grid": 3.0}
        both = LadderCheck(2, 0.2, False, math.inf, math.nan).over(1.0)
        assert list(both) == ["step", "grid"] and both["step"] == math.inf
        # the profile ladder's check has no grid delta, which is never over
        assert LadderCheck(1, 0.1, False, 0.5).over(0.0) == {"step": 0.5}
        assert LadderCheck(1, 0.1, False, 0.0).over(0.0) == {}


class TestStepLadder:
    # unit 1 on a shortest segment of 32: the top rung is 16 and rung r runs
    # at step h = 32/(32//r) = r, so each run is its rung (a segment of 8
    # tops out at rung 4)
    def test_walks_down_to_the_first_passing_rung(self):
        # delta of rung r is (2 r)^2: 16 and 8 fail a budget of 100, 4 passes
        runs = []

        def run(r):
            runs.append(r)
            return r

        [walk] = _ladder(_one(run), [None], [1.0], 32, lambda a, b: b * b, [100.0], _plain)
        assert walk == (LadderCheck(4, 4.0, False, 64), 4, 4, 8)
        assert runs == [32, 16, 8, 4]  # one new run per rung

    def test_extrapolant_is_tried_after_the_plain_pair(self):
        # the plain pairs fail down to rung 4, the extrapolants pass from
        # rung 8: E_16 has no E_32 (no rung 64 ran), E_8 against E_16 passes
        runs, combined = [], []

        def run(r):
            runs.append(r)
            return r

        def combine(fine, coarse):
            combined.append((fine, coarse))
            return ("E", fine)

        def delta(a, b):
            return 1.0 if isinstance(a, tuple) else b * b

        [walk] = _ladder(_one(run), [None], [1.0], 32, delta, [100.0], combine)
        assert walk == (LadderCheck(8, 8.0, True, 1.0), ("E", 8), 8, 16)
        assert runs == [32, 16, 8] and combined == [(16, 32), (8, 16)]

    def test_plain_pair_within_budget_is_not_extrapolated(self):
        # the plain pair passes at rung 8, where E_8 against E_16 would pass
        # too: the plain run is kept and rung 8's extrapolant is never formed
        combined = []

        def combine(fine, coarse):
            combined.append((fine, coarse))
            return ("E", fine)

        def delta(a, b):
            return 0.0 if isinstance(a, tuple) else b * b / 4

        [walk] = _ladder(_one(lambda r: r), [None], [1.0], 32, delta, [100.0], combine)
        assert walk == (LadderCheck(8, 8.0, False, 64.0), 8, 8, 16)
        assert combined == [(16, 32)]

    def test_rung_one_keeps_the_plain_run_when_both_pairs_fail(self):
        def delta(a, b):
            return 1e3 if isinstance(a, tuple) else 1e6

        [walk] = _ladder(_one(lambda r: r), [None], [1.0], 8, delta, [1.0], lambda f, c: ("E", f))
        assert walk == (LadderCheck(1, 1.0, False, 1e6), 1, 1, 2)

    def test_blown_up_rung_is_over_budget(self):
        # rungs above 4 trip the guard: their comparisons are over budget
        # (delta inf) and the walk goes on; rung 2 against rung 4 passes
        runs = []

        def run(r):
            runs.append(r)
            if r > 4:
                raise BlowUpError(0.5)
            return r

        [walk] = _ladder(_one(run), [None], [1.0], 32, lambda a, b: b - a, [100.0], _plain)
        assert walk == (LadderCheck(2, 2.0, False, 2), 2, 2, 4)
        assert runs == [32, 16, 8, 4, 2]

    def test_blow_up_at_rung_one_raises(self):
        def run(r):
            if r > 1:
                raise BlowUpError(0.5)
            return r

        # the coarse partner of rung 1 blew up: the delta is inf, not raised
        assert _ladder(_one(run), [None], [1.0], 32, lambda a, b: 0.0, [0.0], _plain) == [
            (LadderCheck(1, 1.0, False, math.inf), 1, 1, None)
        ]

        def run_all(r):
            raise BlowUpError(0.25)

        with pytest.raises(BlowUpError, match="t=0.25"):
            _ladder(_one(run_all), [None], [1.0], 32, lambda a, b: 0.0, [0.0], _plain)

    def test_data_walk_together_and_leave_at_their_own_rungs(self):
        # datum "a" has delta (2 r)^2 and passes at rung 4; "b" passes at the
        # top; the rungs both walk are one call each, "a" walks on alone
        calls = []

        def run(r, some):
            calls.append((r, tuple(some)))
            return [(datum, r) for datum in some]

        def delta(fine, coarse):
            return coarse[1] ** 2 if fine[0] == "a" else 0.0

        walks = _ladder(run, ["a", "b"], [1.0, 1.0], 32, delta, [100.0, 100.0], _plain)
        assert walks == [
            (LadderCheck(4, 4.0, False, 64), ("a", 4), ("a", 4), ("a", 8)),
            (LadderCheck(16, 16.0, False, 0.0), ("b", 16), ("b", 16), ("b", 32)),
        ]
        assert calls == [(32, ("a", "b")), (16, ("a", "b")), (8, ("a",)), (4, ("a",))]

    def test_leg_takes_the_largest_passing_rung(self):
        # criterion 1's data at eps = 1/8: the walk starts at rung 32, the
        # top the 1/9 segments allow; rung 8 passes on its plain pair, and
        # one rung up neither the plain pair nor the extrapolants are within
        # budget
        modes, alpha = criterion_one_data()
        eps, t_final = 1 / 8, 1.0
        table = run_convergence(modes, alpha, 1.0, [eps], t_final)
        row = table.rows[0]
        check = row.check
        assert row.ok and check.rung == 8 and check.extrapolated is False
        # 2 steps per 1/9 segment at rung 64, the top's coarse partner (64x
        # the default step is 0.08 of it), so rung r takes 128/r: 16 at rung 8
        assert 9 * 16 * check.dt == pytest.approx(t_final, rel=1e-12)
        assert 0 < check.step_delta <= LADDER_FRACTION * eps
        assert 0 < check.grid_delta <= LADDER_FRACTION * eps
        checks = table.checkpoint_times
        cell = _cell_config(eps, 1.0, 1, 1, t_final)
        u0 = assemble_uapp(ProfileStateTorus(modes, alpha, 0.0), 1.0, cell.n)
        times = [t / eps for t in checks]
        # rung r rebuilt from the record at r/8 times its step
        at = {
            r: solve(u0, replace(cell, dt=r // 8 * check.dt / eps), snapshot_times=times)
            for r in (8, 16, 32, 64)
        }
        assert _field_delta(at[8], at[16]) == check.step_delta
        assert _field_delta(at[16], at[32]) > LADDER_FRACTION * eps
        e16, e32 = _strang_extrapolant(at[16], at[32]), _strang_extrapolant(at[32], at[64])
        assert _field_delta(e16, e32) > LADDER_FRACTION * eps
        # 9 segments, solved at rungs 64, 32, 16 and 8, plus the 32-point
        # grid at rung 16
        assert check.steps == 9 * (2 + 4 + 8 + 16 + 8)
        # the profile's top, rung 32 (2 RK4 steps per segment at rung 64, 4
        # at rung 32), passes on its plain pair
        profile = table.profile
        assert profile.rung == 32 and 9 * 4 * profile.dt == pytest.approx(t_final, rel=1e-12)
        assert profile.extrapolated is False and profile.grid_delta is None
        assert 0 < profile.step_delta <= LADDER_FRACTION * eps
        assert profile.steps == 9 * (2 + 4)

    @pytest.mark.parametrize("eps,t_final,checkpoints", [
        (1 / 8, 1.0, 8), (1 / 64, 1.0, 8), (1 / 4, 0.3, 2), (1 / 16, 0.013, 3),
        (1 / 4, 0.0031, 1),
    ])
    def test_rung_step_counts_are_nested(self, monkeypatch, eps, t_final, checkpoints):
        # both ladders of one leg, the split-step solves and the profile's
        # RK4 runs: every run takes one count of equal steps on every
        # segment between its marks, each rung exactly twice its coarser
        # neighbour's, a solve's grid check its coarse rung's; the kept
        # rung's count is the one its dt makes on every segment, dt is at most
        # rung times a unit of at most half a segment (also on segments
        # shorter than two unit steps), and the drift is the rung's run's
        runs = {name: _record(monkeypatch, name) for name in ("solve", "integrate_torus")}
        modes, alpha = criterion_one_data()
        table = run_convergence(modes, alpha, 1.0, [eps], t_final, checkpoints=checkpoints)
        [row] = table.rows
        assert row.ok
        marks = _snapshot_marks(t_final, table.checkpoint_times)
        assert len(marks) == checkpoints + 2
        segment = marks[1] - marks[0]
        for left, right in zip(marks, marks[1:]):
            assert right - left == pytest.approx(segment, rel=1e-12)
        solves = []
        for res in runs["solve"]:
            assert np.allclose(res.times * eps, marks, rtol=0, atol=1e-12)
            per_segment, rest = divmod(res.steps, len(marks) - 1)
            assert rest == 0
            solves.append((res.fields.shape[1], per_segment))
        *solves, (grid_n, grid_count) = solves
        assert {n for n, _ in solves} == {grid_n // 2}
        assert grid_count == solves[-2][1]
        assert row.check.drift == runs["solve"][-2].l2_relative_drift
        profiles = []
        for traj in runs["integrate_torus"]:
            ends = np.searchsorted(traj.times, np.array(marks) - 1e-12)
            assert np.allclose(traj.times[ends], marks, rtol=0, atol=1e-12)
            [per_segment] = set(np.diff(ends))
            profiles.append(per_segment)
        assert table.profile.drift == _relative_drift(runs["integrate_torus"][-1].mass_series())
        for check, counts, extra, unit in (
            (row.check, [c for _, c in solves], grid_count, default_dt(eps)),
            (table.profile, profiles, 0, PROFILE_DT),
        ):
            assert all(fine == 2 * coarse for coarse, fine in zip(counts, counts[1:]))
            assert (sum(counts) + extra) * (len(marks) - 1) == check.steps
            assert counts[-1] * check.dt == pytest.approx(segment, rel=1e-12)
            assert check.dt <= check.rung * min(unit, segment / 2) * (1 + 1e-12)

    def test_extrapolant_error_falls_sixteenfold(self):
        # th11's cell at eps = 1/8 against a fine reference: halving the
        # step cuts the Strang error 4x and the extrapolant's error over 10x
        modes, alpha = criterion_one_data()
        eps = 1 / 8
        cell = _cell_config(eps, 1.0, 1, 1, 1.0)
        times = [k / 9 / eps for k in range(1, 10)]
        u0 = assemble_uapp(ProfileStateTorus(modes, alpha, 0.0), 1.0, cell.n)

        def at(m):  # m steps per segment
            return solve(u0, replace(cell, dt=times[0] / m), snapshot_times=times)

        ref = _strang_extrapolant(at(1024), at(512)).fields
        u = {m: at(m) for m in (8, 16, 32, 64)}
        strang = [np.max(np.abs(u[m].fields - ref)) for m in (16, 32, 64)]
        extra = [
            np.max(np.abs(_strang_extrapolant(u[m], u[m // 2]).fields - ref))
            for m in (16, 32, 64)
        ]
        for coarse, fine in zip(strang, strang[1:]):
            assert 3.8 < coarse / fine < 4.2
        for coarse, fine in zip(extra, extra[1:]):
            assert coarse / fine >= 10
        assert extra[0] < strang[-1]

    def test_rk4_extrapolant_error_falls_over_25fold(self):
        # a 1D cubic set against its closed form, on nested counts of RK4
        # steps per segment: halving the step cuts the RK4 error 16x and
        # that of its extrapolant with p = 4 over 25x (about 40x here; with
        # p = 2 it would fall 16x, as RK4's own)
        modes = line_modes(-1, 0, 1)
        alpha = np.array([0.5, 1.0, 0.7 * np.exp(1j * math.pi / 4)])
        checks = [k / 9 for k in range(1, 10)]

        def at(m):  # m steps per segment
            params = SimParams(1.0, 1.0, checks[0] / m)
            return integrate_torus(alpha, modes, params, snapshot_times=checks).at

        def error(amps):
            return max(e_norm(amps(t) - explicit_torus_1d(alpha, 1.0, t)) for t in checks)

        run = {m: at(m) for m in (2, 4, 8, 16)}
        rk4 = [error(run[m]) for m in (4, 8, 16)]
        extra = [
            error(lambda t, m=m: _extrapolate(run[m](t), run[m // 2](t), 4)) for m in (4, 8, 16)
        ]
        for coarse, fine in zip(rk4, rk4[1:]):
            assert 15 < coarse / fine < 17
        for coarse, fine in zip(extra, extra[1:]):
            assert coarse / fine >= 25

    def test_deep_sigma_two_profile_is_extrapolated(self, monkeypatch):
        # the quintic set {-1, 0, 1} with alpha = (0.5, 1, 0.5+0.5i) over
        # T = 0.5, checked against 0.01 * (1/1024): E_4 (16 against 8 RK4
        # steps per segment) passes in 270 steps, 2 + 4 + 8 + 16 per
        # segment from rung 32; the legs' solves fail at once, only the
        # profile is checked here
        def failing(*args, **kwargs):
            raise FloatingPointError("not solved")

        monkeypatch.setattr(wkb_pipeline, "solve", failing)
        modes = close_under_resonances([wv(-1), wv(0), wv(1)], 2)
        assert modes.saturated
        amps = {(-1,): 0.5, (0,): 1.0, (1,): 0.5 + 0.5j}
        alpha = np.array([amps[v.coords] for v in modes.vectors])
        table = run_convergence(modes, alpha, 1.0, [1 / 8, 1 / 1024], 0.5)
        profile = table.profile
        assert profile.extrapolated is True
        assert profile.rung == 4 and profile.steps == 270
        assert 0 < profile.step_delta <= LADDER_FRACTION / 1024
        assert not any(row.ok for row in table.rows)

    def test_row_whose_bottom_rung_fails_is_marked_failed(self, monkeypatch):
        # a budget below rounding fails both ladders down to rung 1 (at
        # 1e-12*eps the profile's extrapolant passes at rung 4)
        monkeypatch.setattr(wkb_pipeline, "LADDER_FRACTION", 1e-16)
        modes = line_modes(0, 1)
        table = run_convergence(
            modes, [0.7, 0.4], 1.0, [1 / 4], 0.3, checkpoints=2
        )
        row = table.rows[0]
        assert not row.ok
        assert row.status.startswith("check over 1e-16*eps: step delta")
        assert "profile delta" in row.status
        # rung 1 takes the ladder's finest counts on each 0.1 segment: 64
        # split steps of at most default_dt(1/4) and 128 RK4 steps of at most
        # PROFILE_DT
        assert row.check.rung == 1 and 64 * row.check.dt == pytest.approx(0.1, rel=1e-12)
        assert row.check.step_delta > 1e-16 / 4
        assert table.profile.rung == 1
        assert 128 * table.profile.dt == pytest.approx(0.1, rel=1e-12)
        # measured, not discarded, but kept out of the fit
        assert math.isfinite(row.sup_error) and row.sup_error > 0
        assert table.order_sup is None

    def test_rounded_horizon_keeps_the_ladder(self):
        # 0.45 * 9 / 9 falls one ulp short of 0.45; as two marks they would
        # cap both ladders at a step of a few ulps and never finish
        table = run_convergence(line_modes(0, 1), [0.7, 0.4], 1.0, [1 / 4], 0.45)
        row = table.rows[0]
        assert row.ok and row.check.rung == 8 and table.profile.rung == 16
        checks = table.checkpoint_times
        assert checks[-1] < 0.45
        assert _snapshot_marks(0.45, checks) == [0.0, *checks[:-1], 0.45]

    def test_report_rebuilds_its_runs(self, monkeypatch):
        # th11's sweep (criterion 1's data): a run at a check's dt is the
        # rung's run, bit for bit; the profiles keep rung 16, 8 RK4 steps of
        # about 1/72 on each 1/9 segment (r*unit is 0.016), and each leg's
        # rung solve, one datum of a solve its legs may share, is the one
        # solve of its cell at the check's step
        profiles = _record(monkeypatch, "integrate_torus")
        solves = _record_data(monkeypatch)
        modes, alpha = criterion_one_data()
        table = run_convergence(modes, alpha, 1.0, [1 / 8, 1 / 16, 1 / 32, 1 / 64], 1.0)
        checks = table.checkpoint_times
        assert table.profile.rung == 16 and table.profile.extrapolated is False
        params = SimParams(1.0, 1.0, table.profile.dt)
        traj = integrate_torus(alpha, modes, params, snapshot_times=checks)
        assert len(traj.times) - 1 == 72
        kept = profiles[-1]  # the walk ends at its rung
        assert np.array_equal(traj.times, kept.times) and np.array_equal(traj.amps, kept.amps)
        for row in table.rows:
            cfg = replace(_cell_config(row.eps, 1.0, 1, 1, 1.0), dt=row.check.dt / row.eps)
            [kept] = [res for one, res in solves if one == cfg]
            u0 = assemble_uapp(ProfileStateTorus(modes, alpha, 0.0), 1.0, cfg.n)
            res = solve(u0, cfg, snapshot_times=[t / row.eps for t in checks])
            assert res.steps == kept.steps and np.array_equal(res.fields, kept.fields)

    def test_row_equals_a_hand_built_period_solve(self):
        # 4 steps per segment at the top, rung 32: the plain pair passes there
        self.check_hand_built(line_modes(0, 1), np.array([0.7, 0.4]), 1 / 8, 0.3, 2, 4,
                              extrapolated=False)

    def test_extrapolated_row_equals_a_hand_built_extrapolant(self):
        # th11's leg at eps = 1/32 walks from rung 128 (2 steps per segment at
        # rung 256) and takes E_16, 32 steps per segment against 16
        modes, alpha = criterion_one_data()
        self.check_hand_built(modes, alpha, 1 / 32, 1.0, 8, 32, extrapolated=True)

    def test_row_against_extrapolated_profiles_equals_a_hand_built_one(self):
        # th11 at eps = 1/32 with two checkpoints: the profiles keep E_64
        # (8 against 4 RK4 steps per 1/3 segment), and the leg walks from
        # rung 512 (2 steps per segment at rung 1024) to E_16, 128 steps per
        # segment against 64
        modes, alpha = criterion_one_data()
        table = self.check_hand_built(modes, alpha, 1 / 32, 1.0, 2, 128, extrapolated=True)
        assert table.profile.extrapolated is True and table.profile.rung == 64

    @staticmethod
    def check_hand_built(modes, alpha, eps, t_final, checkpoints, count, *, extrapolated):
        """The row's errors are those of one period solve at the row's dt,
        count steps per segment, or of its extrapolant with the solve at
        twice the step, against the table's profiles, bit for bit; the drift
        is the period solve's in both cases.  Returns the table."""
        table = run_convergence(modes, alpha, 1.0, [eps], t_final, checkpoints=checkpoints)
        row = table.rows[0]
        assert row.ok and row.check.extrapolated is extrapolated
        checks = table.checkpoint_times
        assert count * row.check.dt == pytest.approx(checks[0], rel=1e-12)
        amps = _table_profiles(table, modes, alpha, 1.0, t_final)
        times = [t / eps for t in checks]

        def period_solve(dt):
            cell = SolverConfig(1.0, eps, 1, dt / eps, 16, t_final / eps)
            u0 = assemble_uapp(ProfileStateTorus(modes, alpha, 0.0), 1.0, 16)
            return solve(u0, cell, snapshot_times=times)

        res = kept = period_solve(row.check.dt)
        if extrapolated:
            kept = _strang_extrapolant(res, period_solve(2 * row.check.dt))
        sup_err = w_err = 0.0
        for t in checks:
            uapp = assemble_uapp(ProfileStateTorus(modes, amps[t], t / eps), 1.0, 16)
            diff = GridField(1, 16, kept.at(t / eps).values - uapp.values)
            sup_err = max(sup_err, sup_norm_of_field(diff))
            w_err = max(w_err, w_norm_of_field(diff))
        assert (row.sup_error, row.w_error) == (sup_err, w_err)
        assert row.check.drift == res.l2_relative_drift
        return table


class TestRemainderReport:
    def test_torus_profiles_have_no_transverse_term(self):
        modes = line_modes(0, 1)
        state = ProfileStateTorus(modes, np.array([0.5, 0.5]), 0.0)
        rep = remainder_report(state)
        assert rep.r2_bound == 0.0
        assert rep.min_delta == 2
        assert rep.nonresonant_tuples == 2
        assert state.modes.sigma == 1

    def test_euclid_gaussian_matches_continuum(self):
        # (1/2)(2 pi)^(-1/2) int xi^2 |f_hat_raw| dxi = sqrt(2 pi)/2 for e^{-x^2/2}
        modes = line_modes(1)
        length, n = 40.0, 512
        x = np.arange(n) * (length / n) - length / 2
        fields = np.exp(-0.5 * x**2).astype(complex)[None, :]
        rep = remainder_report(ProfileStateEuclid(modes, fields, 0.0, length))
        assert abs(rep.r2_bound - 0.5 * math.sqrt(2 * math.pi)) < 1e-6

    def test_euclid_sums_over_profiles(self):
        modes = line_modes(-1, 1)
        length, n = 40.0, 256
        x = np.arange(n) * (length / n) - length / 2
        one = np.exp(-0.5 * x**2).astype(complex)
        single = remainder_report(
            ProfileStateEuclid(line_modes(1), one[None, :], 0.0, length)
        )
        double = remainder_report(
            ProfileStateEuclid(modes, np.stack([one, one]), 0.0, length)
        )
        assert math.isclose(double.r2_bound, 2 * single.r2_bound, rel_tol=1e-12)

    def test_rejects_other_states(self):
        with pytest.raises(TypeError):
            remainder_report(np.zeros(4))


class TestTwoModeTheta:
    def test_bracket_doubles_past_one(self):
        # sigma=2, alpha0=0.5: 1.5 y + 3 y^2 = 100 needs y = 5.53, past the
        # first bracket [0, 1]; the exact cross terms give theta back
        alpha1 = _solve_alpha1_for_theta(0.5, 100.0, 2)
        y = Fraction(alpha1) ** 2
        assert y > 4
        cross = sum(_two_mode_terms(Fraction(0.25), y, 2)[1:])
        assert abs(float(cross / 100 - 1)) <= 2e-15
        # 3 y^2 = 1e30 needs y = 5.8e14, past the largest bracket
        with pytest.raises(ValueError, match="no amplitude"):
            _solve_alpha1_for_theta(0.5, 1e30, 2)

    def test_cubic_rates(self):
        assert two_mode_theta(0.25, 0.09, 1) == pytest.approx(0.25 + 2 * 0.09)

    def test_quintic_rates(self):
        own, other = 0.3, 0.2
        expected = own**2 + 6 * own * other + 3 * other**2
        assert two_mode_theta(own, other, 2) == pytest.approx(expected)


class TestInstability:
    def test_perturb_high_rate_split(self):
        rec = run_instability(1.0, 0.1, -2.0, 32)
        assert rec.variant == "perturb_high"
        assert rec.alpha0 == 0.5
        # exact in real arithmetic; numerically the difference passes through
        # sqrt(alpha1^2 + 1/delta) at alpha1 = 512, costing ~1e-10
        assert math.isclose(rec.theta0_tilde - rec.theta0, 2 / 0.1, rel_tol=1e-8)
        assert rec.hs_condition_ok
        # the phase difference grows monotonically up to t=delta here
        assert rec.t_star == 0.1
        expected_gap = (
            2
            * rec.alpha0
            * abs(math.sin(0.5 * rec.lam * (rec.theta0_tilde - rec.theta0) * rec.t_star))
        )
        assert math.isclose(rec.gap, expected_gap, rel_tol=1e-9)
        assert rec.gap > 0.8
        assert rec.solver_gap is None

    def test_perturb_zero_starts_separated(self):
        rec = run_instability(1.0, 0.25, -1.0, 16, variant="perturb_zero")
        assert rec.alpha0_tilde == rec.alpha0 + 0.25
        assert rec.gap >= 0.25
        assert rec.alpha1_tilde == rec.alpha1

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_weak_limit_theta_roundtrip(self, sigma):
        theta = 3.0
        rec = run_instability(
            1.0, 0.2, -2.0, 32, sigma=sigma, variant="weak_limit", theta=theta
        )
        assert rec.theta_user == theta
        assert rec.alpha1_tilde is None
        own = rec.alpha0**2
        assert rec.theta0_tilde == pytest.approx(own**sigma)
        for theta in (0.5, 3.0):
            alpha1 = _solve_alpha1_for_theta(rec.alpha0, theta, sigma)
            if sigma == 1:  # theta0 - alpha0^2 = 2 alpha1^2
                assert alpha1 == math.sqrt(theta / 2)
            else:  # the bisection stops at adjacent floats
                recovered = two_mode_theta(own, alpha1**2, sigma) - own**sigma
                assert abs(recovered - theta) <= 4 * math.ulp(theta)
        assert rec.alpha1 == alpha1
        # rho=10, where alpha0^(2 sigma) >> theta: the cross terms alone,
        # summed exactly at the returned alpha1, give theta back to rounding
        own = Fraction(5.0) ** 2
        for s, theta in ((sigma, 1e-3), (8, 1e-6)) if sigma > 1 else ():
            y = Fraction(_solve_alpha1_for_theta(5.0, theta, s)) ** 2
            cross = sum(
                math.comb(s + 1, n) * math.comb(s, n) * own ** (s - n) * y**n
                for n in range(1, s + 1)
            )
            assert abs(float((cross - Fraction(theta)) / Fraction(theta))) <= 2e-15

    @pytest.mark.parametrize(
        "kwargs,omega",
        [
            ({"lam": 2.0}, 8.0),  # the rates differ by 2/delta = 4
            ({"variant": "weak_limit", "theta": 20.0}, 20.0),
        ],
    )
    def test_gap_sup_reached_inside_the_window(self, kwargs, omega):
        # |omega| delta >= pi: the sup alpha0 + alpha0~ is first reached at
        # pi/|omega|, which a sampled curve only approaches
        rec = run_instability(1.0, 0.5, -2.0, 4, **kwargs)
        assert rec.t_star == pytest.approx(math.pi / omega, rel=1e-12)
        assert rec.gap == rec.alpha0 + rec.alpha0_tilde == 1.0
        times, gaps = wkb_pipeline.gap_curve(rec, 10_001)
        assert np.max(gaps) <= rec.gap + 1e-15
        # the sampled argmax may sit on a later peak; the first near-sup
        # sample sits at t*
        assert abs(times[np.argmax(gaps >= rec.gap - 1e-6)] - rec.t_star) < 1e-3

    def test_rates_that_round_together_keep_their_difference(self):
        # alpha1 = 50 * 4096^2: theta0 and theta0~ round to one float, while
        # the exact difference of the data's rates is 50^2 - 51^2 = -101
        rec = run_instability(100.0, 1.0, -2.0, 4096, variant="perturb_zero")
        assert rec.theta0 == rec.theta0_tilde
        assert rec.t_star == math.pi / 101
        assert rec.gap == rec.alpha0 + rec.alpha0_tilde == 101.0
        times, gaps = wkb_pipeline.gap_curve(rec, 10_001)
        assert np.max(gaps) == pytest.approx(101.0, rel=1e-6)

    def test_sigma_8_rate_difference_past_rounding(self):
        # both rates are 2.13e259; the exact difference, led by
        # 288 (alpha0~^2 - alpha0^2) alpha1^14, turns the phase by pi at once
        rec = run_instability(100.0, 0.5, -4.0, 4096, sigma=8, variant="perturb_zero")
        assert rec.theta0 == rec.theta0_tilde
        assert rec.gap == 100.5
        assert 0 < rec.t_star < 1e-200

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((1.0, 0.1, -3.0, 4096), {}),  # alpha1^2 + 1/delta rounds to alpha1^2
            ((1.0, 0.1, -4.0, 4096), {}),
            ((100.0, 1e-15, -2.0, 4096), {"variant": "perturb_zero"}),  # 50 + 1e-15
        ],
    )
    def test_perturbation_lost_to_rounding_is_refused(self, args, kwargs):
        with pytest.raises(FloatingPointError, match="lost to rounding"):
            run_instability(*args, **kwargs)

    def test_cross_check_data_overflowing_when_squared_are_refused(self):
        # alpha1~ = 3.2e153: 16 (alpha0 + alpha1~) squared overflows
        with pytest.warns(UserWarning, match="premise"), \
                pytest.raises(OverflowError, match="overflows when squared"):
            run_instability(100.0, 1e-307, -4.0, 4096, cross_check=True)

    @pytest.mark.parametrize("delta", [1e-40, 1e-100])
    def test_cross_check_zero_mode_below_rounding_is_refused(self, delta):
        # alpha1~ = 1e20 and 1e50: 16 ulps of alpha0 + alpha1~ dwarf the
        # step budget 0.01*eps, so the solver gap would read rounding noise
        with pytest.warns(UserWarning, match="premise"), \
                pytest.raises(FloatingPointError, match="hides its zero mode"):
            run_instability(100.0, delta, -4.0, 4096, cross_check=True)

    def test_constant_gap_at_delta(self):
        # lam = 0: omega = 0, the gap never moves; t* is delta
        rec = run_instability(1.0, 0.5, -2.0, 4, lam=0.0)
        assert (rec.t_star, rec.gap) == (0.5, 0.0)

    def test_weak_limit_cubic_amplitude(self):
        rec = run_instability(1.0, 0.2, -2.0, 32, variant="weak_limit", theta=3.0)
        assert math.isclose(rec.alpha1, math.sqrt(1.5), rel_tol=1e-12)

    def test_hs_premise_flagged(self):
        with pytest.warns(UserWarning, match="premise"):
            rec = run_instability(1.0, 0.5, -2.0, 1)
        assert not rec.hs_condition_ok

    @pytest.mark.parametrize("delta, s", [(1e-300, -0.5), (0.5, -1e-10)])
    def test_hs_bound_overflow_is_unmet(self, delta, s):
        # delta^(1/s) overflows a float; no K exceeds it
        with pytest.warns(UserWarning, match=r"delta\^\(1/s\)=inf"):
            rec = run_instability(1.0, delta, s, 4)
        assert not rec.hs_condition_ok
        assert math.isfinite(rec.gap)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_instability(1.0, 0.1, -2.0, 0)
        with pytest.raises(ValueError):
            run_instability(1.0, 0.1, 2.0, 8)
        with pytest.raises(ValueError):
            run_instability(1.0, 1.5, -2.0, 8)
        with pytest.raises(ValueError):
            run_instability(0.0, 0.1, -2.0, 8)
        with pytest.raises(ValueError):
            run_instability(1.0, 0.1, -2.0, 8, variant="nope")
        with pytest.raises(ValueError):
            run_instability(1.0, 0.1, -2.0, 8, variant="weak_limit")
        with pytest.raises(ValueError):
            run_instability(
                1.0, 0.1, -2.0, 8, variant="weak_limit", theta=1.0, cross_check=True
            )
        # K=128 solves two 16-point periods in about a second
        with pytest.warns(UserWarning, match="premise"):
            rec = run_instability(1.0, 0.01, -0.5, 128, cross_check=True)
        assert math.isfinite(rec.solver_formula_deviation)
        assert rec.solver_formula_deviation == pytest.approx(2.6e-3, rel=0.1)

    def test_cross_check_small_case(self):
        rec = run_instability(1.0, 0.5, -2.0, 4, cross_check=True)
        assert rec.eps == 1 / 16
        assert rec.solver_gap is not None
        assert rec.solver_t_star is not None
        assert rec.solver_formula_deviation == pytest.approx(
            abs(rec.solver_gap - rec.gap)
        )
        assert rec.solver_formula_deviation < 1.0
        assert rec.solver_grid_n == 16
        # both data keep rung 2, four steps per 0.005 sample segment, walked
        # from the top's coarse partner at one step (rungs 8, 4 and 2), with
        # the grid check at two: 9 steps on each of the 100 segments
        for check in rec.solver_checks:
            assert check.rung == 2 and 4 * check.dt == pytest.approx(0.005, rel=1e-12)
            assert check.steps == 100 * (1 + 2 + 4 + 2)
        for check in rec.solver_checks:
            assert 0.0 <= check.drift < 1e-12 and 0.0 <= check.aliasing < 1e-8

    def test_cross_check_health_covers_every_sample(self):
        # both data re-solved on the period cell at the steps their ladders chose
        with pytest.warns(UserWarning, match="premise"):
            rec = run_instability(1.0, 0.1, -0.5, 16, cross_check=True)
        eps = rec.eps
        cell = _cell_config(eps, 1.0, 1, 1, 0.1)
        pair = ModeSet.from_vectors([WaveVector((0,)), WaveVector((1,))], 1)
        sample = np.linspace(0.0, 0.1, 101)
        data = ((rec.alpha0, rec.alpha1), (rec.alpha0_tilde, rec.alpha1_tilde))
        solves = []
        for (a0, a1), dt in zip(data, [c.dt for c in rec.solver_checks], strict=True):
            u0 = assemble_uapp(ProfileStateTorus(pair, [a0, a1], 0.0), 1.0, cell.n)
            res = solve(u0, replace(cell, dt=dt / eps), snapshot_times=sample / eps)
            assert res.l2_values.shape == res.aliasing_fractions.shape == (101,)
            solves.append(res)
        assert [c.drift for c in rec.solver_checks] == [r.l2_relative_drift for r in solves]
        assert [c.aliasing for c in rec.solver_checks] == [
            np.max(r.aliasing_fractions) for r in solves
        ]

    @pytest.mark.parametrize("K", [4, 8])
    def test_cross_check_period_matches_full_grid(self, K):
        # oracle: both data solved directly on the full 16*K^2-point grid
        with pytest.warns(UserWarning, match="premise"):
            rec = run_instability(1.0, 0.1, -0.5, K, cross_check=True)
        eps = 1.0 / (K * K)
        n = default_grid_size(eps, 1, 1)
        assert n == 16 * K * K
        sample = np.linspace(0.0, 0.1, 101)
        zero_modes = []
        data = ((rec.alpha0, rec.alpha1), (rec.alpha0_tilde, rec.alpha1_tilde))
        for (a0, a1), dt in zip(data, [c.dt for c in rec.solver_checks], strict=True):
            # each datum at the physical step its ladder chose
            cfg = SolverConfig(eps, 1.0, 1, dt, n, 0.1)
            spec = np.zeros(n, dtype=complex)
            spec[0] = a0
            spec[K * K] = a1
            u0 = GridField(1, n, np.fft.ifft(spec) * n)
            res = solve(u0, cfg, snapshot_times=sample)
            zero_modes.append(np.array([np.mean(res.at(t).values) for t in sample]))
        diffs = np.abs(zero_modes[0] - zero_modes[1])
        k = int(np.argmax(diffs))
        assert math.isclose(rec.solver_gap, diffs[k], rel_tol=1e-10)
        assert math.isclose(rec.solver_t_star, sample[k], rel_tol=1e-10)


def _row_values(row: ConvergenceRow) -> dict:
    """A row's fields, check included, without its timings."""
    values = asdict(row)
    del values["runtime"], values["stage_s"]
    return values


def _record(monkeypatch, name: str = "solve") -> list:
    """Wrap the pipeline's `solve` or `integrate_torus`; returns the list of
    its results, one per call (a stacked solve's is its SolveStack)."""
    results = []
    real = getattr(wkb_pipeline, name)

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(wkb_pipeline, name, recording)
    return results


def _record_data(monkeypatch) -> list:
    """Wrap the pipeline's `solve`; returns one (config, result) per datum
    of every call, a stacked call's data in stack order."""
    data = []
    real = wkb_pipeline.solve

    def recording(u0, cfg, snapshot_times=None, others=()):
        res = real(u0, cfg, snapshot_times, others)
        results = list(res) if isinstance(res, SolveStack) else [res]
        configs = [cfg] + [c for c, _ in others] if others else [cfg] * len(results)
        data.extend(zip(configs, results))
        return res

    monkeypatch.setattr(wkb_pipeline, "solve", recording)
    return data


def _measured(results) -> list:
    """The data whose health was read: a cached property, once computed,
    sits in the instance dict."""
    results = [r for res in results for r in (res if isinstance(res, SolveStack) else [res])]
    health = [{"l2_values", "aliasing_fractions"} & set(vars(r)) for r in results]
    assert all(h in (set(), {"l2_values", "aliasing_fractions"}) for h in health)
    return [r for r, h in zip(results, health) if h]


class TestHealthOnRead:
    """Only the solves a record reports measure health: discarded ladder
    rungs and grid checks compute no norms, no transforms, and warn nothing."""

    def test_crosscheck_measures_the_kept_solves(self, monkeypatch):
        results = _record(monkeypatch)
        with pytest.warns(UserWarning, match="premise"):
            rec = run_instability(1.0, 0.1, -0.5, 16, cross_check=True)
        assert [c.rung for c in rec.solver_checks] == [8, 8] and len(results) == 3
        assert len(_measured(results)) == 2

    def test_coarse_rungs_warn_nothing(self, monkeypatch):
        # the walk from rung 16 to rung 1 passes rungs whose top band holds
        # 1e-2 to 1e-1 of the mass; the kept rung-1 solves hold about 1e-13
        results = _record(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = run_instability(1.0, 0.1, -2.0, 16, cross_check=True)
        assert [c.rung for c in rec.solver_checks] == [1, 1] and len(results) == 6
        assert len(_measured(results)) == 2
        assert caught == []
        assert all(c.aliasing < 1e-8 for c in rec.solver_checks)

    def test_converge_measures_one_solve_per_row(self, monkeypatch):
        results = _record(monkeypatch)
        table = run_convergence(line_modes(0, 1), [0.7, 0.4], 1.0, [1 / 4, 1 / 8], 0.3,
                                checkpoints=2)
        assert all(r.ok for r in table.rows)
        data = sum(len(res) if isinstance(res, SolveStack) else 1 for res in results)
        assert data > 2 * len(table.rows)
        kept = _measured(results)
        assert len(kept) == len(table.rows)
        assert [r.l2_relative_drift for r in kept] == [r.check.drift for r in table.rows]
