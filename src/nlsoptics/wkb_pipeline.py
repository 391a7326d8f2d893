"""End-to-end approximation pipeline: assemble multiphase fields, compare
against spectral solutions over an epsilon sweep, bound remainders, and
quantify the modulated-phase instability of the weak limit.

The approximate field carries each profile on its oscillation e^{i phi/eps}
with phi = kappa.x - t|kappa|^2/2; on the torus grid that is a pure Fourier
mode at integer wavenumber kappa/eps, so assembly happens in Fourier space
and is exact to rounding.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .lattice_geometry import ModeSet, WaveVector
from .profile_dynamics import (
    BlowUpError,
    ProfileStateEuclid,
    ProfileStateTorus,
    SimParams,
    TorusTrajectory,
    _axis_wavenumbers,
    _relative_drift,
    _snapshot_marks,
    _two_mode_terms,
    integrate_torus,
    two_mode_theta,
)
from .small_divisors import survey_divisors
from .spectral_nls import (
    GridField,
    SolveResult,
    SolverConfig,
    default_dt,
    default_grid_size,
    solve,
    sup_norm_of_field,
    w_norm_of_field,
)
from .wiener_norms import _box_coefficients, _check_eps, e_norm

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "RemainderReport",
    "InstabilityRecord",
    "assemble_uapp",
    "run_convergence",
    "remainder_report",
    "run_instability",
]

ERROR_FLOOR = 1e-10  # rows below this are rounding noise, excluded from fits
PROFILE_DT = 1e-3  # the profile ladder's unit RK4 step
LADDER_FRACTION = 1e-2  # self-check budget, as a fraction of eps


def assemble_uapp(
    profiles: ProfileStateTorus, eps: float, n: int
) -> GridField:
    """Build sum_j a_j(t) e^{i(kappa_j.x - t|kappa_j|^2/2)/eps} on an n^d grid.

    Each carrier kappa_j/eps must be an integer wavenumber strictly inside
    the Nyquist band of the grid; otherwise the oscillation cannot be
    represented and a ValueError is raised.
    """
    inv = _check_eps(eps)
    modes = profiles.modes
    d = modes.d
    arr = modes.as_array()
    t = profiles.t
    spec = np.zeros((n,) * d, dtype=np.complex128)
    for j in range(arr.shape[0]):
        kap = arr[j]
        wave = kap * inv
        if np.any(np.abs(wave) >= n // 2):
            raise ValueError(
                f"unresolved carrier frequency {tuple(int(w) for w in wave)} "
                f"for grid size {n}"
            )
        nsq = int(kap @ kap)
        phase = np.exp(-0.5j * nsq * inv * t)
        spec[tuple(int(w) % n for w in wave)] += profiles.amps[j] * phase
    values = np.fft.ifftn(spec) * n**d
    return GridField(d=d, n=n, values=values)


@dataclass(frozen=True)
class LadderCheck:
    """The step-and-grid check of one run chosen on the step ladder, and
    the health of the runs behind it.

    rung is the ladder rung and dt the step its run took (`_ladder`), so a
    run at dt rebuilds it bit for bit; extrapolated is whether the kept run
    is the Richardson extrapolant of the rung's run and the one at twice its
    step (`_extrapolate`) rather than the rung's run itself.  step_delta is
    the step-doubling delta of the accepted pair (|E_r - E_2r| when
    extrapolated; inf when a run of the pair blew up), grid_delta the
    grid-doubling delta of the rung's coarse solve against its doubled-cell
    twin, None for the profile ladder, which has no grid.

    The health: steps counts the split or RK4 steps of every run the datum
    took part in (each rung walked and the grid check; in a stacked solve,
    the datum's own), drift is the relative drift of the conserved quantity
    of the rung's run (an extrapolant is not a run), the L2 norm of its
    Strang solve or the mass sum_j |a_j|^2 of its RK4 profile run, and
    aliasing the worst top-band fraction of the rung's solve, None for the
    profile.  Every field is deterministic and goes inside the report hash.
    """

    rung: int
    dt: float
    extrapolated: bool
    step_delta: float
    grid_delta: Optional[float] = None
    steps: int = 0
    drift: Optional[float] = None
    aliasing: Optional[float] = None

    def over(self, budget: float) -> dict[str, float]:
        """The deltas not within budget by name ('step', 'grid'), in that
        order: a delta equal to the budget is within it, inf and NaN are
        not, and a missing grid delta is never over."""
        return {
            name: gap
            for name, gap in (("step", self.step_delta), ("grid", self.grid_delta))
            if gap is not None and not gap <= budget
        }


@dataclass(kw_only=True)
class ConvergenceRow:
    """One epsilon leg of the sweep.  status is 'ok' or a failure note and
    a row that is not ok is excluded from order fits.  A leg whose solve
    failed keeps NaN errors, no check and no health; a leg whose check
    exceeded its budget keeps its measured errors and deltas.

    The fields, in order, are the columns of `convergence.csv` and the keys
    of a report row, all but the timings (with the fields of check in its
    place in the CSV).  check is the leg's `LadderCheck`, health
    included.  runtime and stage_s (seconds in the checks and their health
    reads, the rung's solve, and assembly plus norms) are timings.
    """

    eps: float
    grid_n: int
    sup_error: float
    w_error: float
    check: Optional[LadderCheck] = None
    runtime: float
    status: str = "ok"
    stage_s: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ConvergenceTable:
    """The sweep's rows and fits, plus the `LadderCheck` of the shared
    profile integration (no grid, no aliasing) and the seconds it took."""

    rows: list[ConvergenceRow]
    checkpoint_times: tuple[float, ...]
    order_sup: Optional[float]
    order_w: Optional[float]
    at_floor: bool
    profile: LadderCheck
    profile_s: float = 0.0

    def fitted_order_label(self, which: str = "sup") -> str:
        order = self.order_sup if which == "sup" else self.order_w
        if order is None:
            return "n/a (floor)" if self.at_floor else "n/a"
        return f"{order:.3f}"


def _fit_order(rows: Sequence[ConvergenceRow], attr: str) -> Optional[float]:
    pts = [
        (r.eps, getattr(r, attr))
        for r in rows
        if r.ok and getattr(r, attr) > ERROR_FLOOR
    ]
    if len(pts) < 2:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def _ladder(run, data: Sequence, unit: float, shortest: float, delta, budget: float, combine):
    """Choose a step for each of the data on a power-of-two ladder of nested
    steps, the rungs r = top, ..., 2, 1.

    The unit is shrunk to at most half the shortest snapshot segment, and
    top is the largest power of two whose coarse partner, a step of 2*top
    units, still fits into that segment (at least 1).  Rung 1 takes per equal
    steps on the shortest segment, the fewest of at most unit that are a
    multiple of 2*top, and rung r takes per//r of them: its step
    h = shortest/(per//r) is at most r*unit and exactly twice rung r/2's.
    run(h, some) integrates the data in `some` (a sub-list of data, in
    order) together over the whole horizon at step h, and returns one run
    per datum; delta(a, b) measures two runs of one datum.  Each rung r is
    compared with rung 2r, and a datum leaves the walk at its first rung
    within budget: the data still walking share every run, and only the
    runs the next comparisons need are kept.  combine(fine, coarse) is the
    method's Richardson extrapolant (`_extrapolate`): a rung whose plain
    pair is over budget is tried once more, E_r = combine(run_r, run_2r)
    against E_2r = combine(run_2r, run_4r), which exists below the top
    rung; the plain pair is tried first.  A call that trips the blow-up
    guard gives None for each of its data, and a comparison with None is
    over budget (delta inf), except that a blow-up at rung 1 itself raises
    its BlowUpError.
    Returns one (check, kept, fine, coarse) per datum: its `LadderCheck`,
    with the step h of the rung's run and no grid delta, E_r when
    extrapolated else the run at rung r (fine), that run, and the run at
    rung 2r; at rung 1, with neither pair within budget, kept is fine and
    the check holds the plain gap, which may exceed the budget.
    """
    unit = min(unit, shortest / 2)
    top = 1
    while 4 * top * unit <= shortest:
        top *= 2
    per = math.ceil(shortest / (2 * top * unit) - 1e-9) * 2 * top

    def step(r: int) -> float:
        return shortest / (per // r)

    def attempt(h: float, some: list):
        try:
            return run(h, some)
        except BlowUpError:
            return [None] * len(some)

    chosen = [None] * len(data)
    walking = list(range(len(data)))
    coarse = attempt(step(2 * top), list(data))
    coarse_e = [None] * len(data)  # E_2r of each walking datum, once rung 4r ran
    r = top
    while walking:
        fine = (run if r == 1 else attempt)(step(r), [data[i] for i in walking])
        still, kept, kept_e = [], [], []
        for i, f, c, ce in zip(walking, fine, coarse, coarse_e):
            pair = f is not None and c is not None
            plain = LadderCheck(r, step(r), False, delta(f, c) if pair else math.inf)
            e = combine(f, c) if pair and plain.over(budget) else None
            extra = replace(plain, extrapolated=True,
                            step_delta=math.inf if e is None or ce is None else delta(e, ce))
            if not plain.over(budget) or (r == 1 and extra.over(budget)):
                chosen[i] = (plain, f, f, c)
            elif not extra.over(budget):
                chosen[i] = (extra, e, f, c)
            else:
                still.append(i)
                kept.append(f)
                kept_e.append(e)
        r, walking, coarse, coarse_e = r // 2, still, kept, kept_e
    return chosen


def _field_delta(a: SolveResult, b: SolveResult) -> float:
    """The largest pointwise |a - b| on a's grid points over the marks after
    t=0, which two solves of one horizon and snapshot times share; b's grid
    may refine a's by a power of two, and is sampled there."""
    ratio = b.fields.shape[1] // a.fields.shape[1]
    sub = (slice(1, None),) + (slice(None, None, ratio),) * (a.fields.ndim - 1)
    return float(np.max(np.abs(a.fields[1:] - b.fields[sub])))


def _zero_mode_delta(a: SolveResult, b: SolveResult) -> float:
    """The largest |difference| of the zero Fourier modes (spatial means) of
    two solves over the marks after t=0, which two solves of one horizon and
    snapshot times share; the grids may differ, the zero mode is read on
    each one's own."""
    return float(np.max(np.abs(_zero_modes(a)[1:] - _zero_modes(b)[1:])))


def _zero_modes(res: SolveResult) -> np.ndarray:
    """The zero Fourier mode (the spatial mean) of the field at each mark."""
    return res.fields.mean(axis=tuple(range(1, res.fields.ndim)))


def _amp_delta(a: TorusTrajectory, b: TorusTrajectory, times: Sequence[float]) -> float:
    """max over times of sum_j |a_j - b_j|: the W norm of the difference of
    the assembled fields, which bounds its sup."""
    return max(e_norm(a.at(t) - b.at(t)) for t in times)


def _cell_config(
    eps: float, lam: float, sigma: int, kappa_sup: int, t_final: float
) -> SolverConfig:
    """The eps=1 problem on one 2 pi eps period of the torus.

    Carriers at kappa/eps on the integer lattice make a field 2 pi eps
    periodic, and NLS keeps that period, so u(t, x) = v(t/eps, x/eps)
    exactly: v solves the eps=1 equation with coupling lam*eps, step
    default_dt(eps)/eps and horizon t_final/eps on one period of
    `default_grid_size(1, sigma, kappa_sup)` points, the cell the Nyquist
    rule asks for at any scale.  Sup, W and L2 norms, spatial means and the
    aliasing fraction are the same on the period as on the grid the periods
    tile.  Raises ValueError unless 1/eps is a positive integer.
    """
    _check_eps(eps)
    return SolverConfig(
        1.0, lam * eps, sigma, default_dt(eps) / eps,
        default_grid_size(1.0, sigma, kappa_sup), t_final / eps,
    )


def _extrapolate(fine: np.ndarray, coarse: np.ndarray, p: int) -> np.ndarray:
    """E = (2^p fine - coarse) / (2^p - 1) for a method of order p run at
    steps h and 2h: its global error expands in powers of h, so E cancels
    the h^p term (Hairer-Norsett-Wanner, Solving ODEs I, II.9).  Symmetric
    Strang (p = 2) expands in even powers and gains two orders, RK4 (p = 4)
    at least one."""
    return (2**p * fine - coarse) / (2**p - 1)


def _checked_solve(
    states: Sequence[ProfileStateTorus], cell: SolverConfig, eps: float,
    times: Sequence[float], shortest: float, delta,
):
    """Solve the period data `states` (at t=0) on `cell`, with snapshots at
    the physical `times`, and check each datum's step and grid: the
    split-step ladder of `run_convergence` and `run_instability`, which pass
    their own delta and times.

    Each datum's rung is chosen by `_ladder` against LADDER_FRACTION*eps on
    delta, the plain Strang pair first and then its Richardson extrapolants
    (`_extrapolate`, p = 2; E is not a solve: it takes no steps and has no
    health), and the data still walking share each rung's solve.  Each
    solve runs at the physical step h that `_ladder` hands it from unit
    default_dt(eps), h/eps on the cell (the marks of both callers are
    uniform; a longer segment would take the fewest steps of at most h).
    One more solve at the chosen rung's coarse step 2*check.dt on the
    doubled cell, shared by the data that chose that rung, gives each of
    them its grid-doubling delta: delta of its coarse solve and that
    doubled-cell twin, whether or not the rung was extrapolated.  Every
    solve runs through this module's `solve`: of one field when it solves
    one datum, else of their stack, so data that choose one rung make half
    the solve calls of two walks.  A delta over budget is recorded in the
    check, not raised.

    Returns (checked, spent): one (check, kept) per datum, its `LadderCheck`
    with its health and E_r when extrapolated else the solve at rung r; and
    the seconds of each solve by (physical step, cell points).  A failing
    solve raises; a converge row records it, with no check.
    """
    cell_times = [t / eps for t in times]
    steps = [0] * len(states)
    spent = {}

    def run(h: float, some: list, m: int = cell.n) -> list:
        # the ladder's data are indices into states: each datum counts its steps
        t0 = time.perf_counter()
        cfg = replace(cell, dt=h / eps, n=m)
        u0 = [assemble_uapp(states[i], 1.0, m) for i in some]
        if len(u0) == 1:
            res = [solve(u0[0], cfg, snapshot_times=cell_times)]
        else:
            stack = GridField(u0[0].d, m, np.stack([u.values for u in u0]))
            res = solve(stack, cfg, snapshot_times=cell_times)
        spent[h, m] = time.perf_counter() - t0
        for i, one in zip(some, res):
            steps[i] += one.steps
        return res

    def combine(fine: SolveResult, coarse: SolveResult) -> SolveResult:
        return SolveResult(fine.times, _extrapolate(fine.fields, coarse.fields, 2), 0)

    walks = _ladder(run, range(len(states)), default_dt(eps), shortest, delta,
                    LADDER_FRACTION * eps, combine)
    by_step = {}
    for i, (check, *_) in enumerate(walks):
        by_step.setdefault(check.dt, []).append(i)
    checked = [None] * len(states)
    for h, which in by_step.items():
        for i, twin in zip(which, run(2 * h, which, 2 * cell.n)):
            check, kept, fine, coarse = walks[i]
            checked[i] = (replace(
                check, grid_delta=delta(coarse, twin), steps=steps[i],
                drift=fine.l2_relative_drift, aliasing=float(np.max(fine.aliasing_fractions)),
            ), kept)
    return checked, spent


def run_convergence(
    modes: ModeSet,
    alpha: Sequence[complex],
    lam: float,
    eps_list: Sequence[float],
    t_final: float,
    *,
    checkpoints: int = 8,
) -> ConvergenceTable:
    """Sweep epsilon, comparing the spectral solution with the assembled
    multiphase field at t_final and `checkpoints` intermediate times.

    The profile system is integrated once (it does not depend on epsilon)
    and shared across all legs.  Every carrier sits at kappa/eps on the
    integer lattice, so each leg is solved on one 2 pi eps period, the cell
    of `_cell_config`; rows report the physical dt and the grid the cells
    tile, the cell's points times 1/eps.  Every eps must have an integer
    1/eps: the cells are built before anything runs, so a bad eps, an empty
    eps_list or a checkpoints that is not an int >= 0 raises ValueError
    before the profile integration and before any row.

    Each leg's step and grid are checked by `_checked_solve` on the sup over
    checkpoints of the pointwise gap of two solves (`_field_delta`); a leg's
    errors come from the kept run, the rung's solve or its extrapolant, and
    its check's health from the rung's solve.  The profile system's step is
    chosen by `_ladder` on the same nested steps (from unit PROFILE_DT; its
    check's dt is the rung's RK4 step) and extrapolants, with p = 4, against
    LADDER_FRACTION*min(eps), on the largest summed amplitude gap
    sum_j |delta a_j| over checkpoints, which is the W norm of the assembled
    difference and bounds its sup; an extrapolant holds t=0 and the
    checkpoints only.  Its check counts the RK4 steps of every integration
    and the mass drift of the rung's run.  A row one of whose checks, its
    own or the profile's, is over LADDER_FRACTION*eps (`LadderCheck.over`)
    is marked failed.  A leg whose solve fails (non-finite values) is recorded
    with its failure note instead of aborting the sweep.  A profile rung
    that trips the blow-up guard counts as over budget; only a blow-up at
    rung 1 raises BlowUpError, and then no row is made.
    """
    if not eps_list:
        raise ValueError("eps_list must not be empty")
    if not (isinstance(checkpoints, int) and checkpoints >= 0):
        raise ValueError(f"checkpoints must be an integer >= 0, got {checkpoints!r}")
    if not modes.saturated:
        warnings.warn(
            "mode set is not closed under resonances; dropped interactions "
            "make the measured rate meaningless",
            stacklevel=2,
        )
    alpha = np.asarray(alpha, dtype=np.complex128)
    checks = tuple(
        t_final * k / (checkpoints + 1) for k in range(1, checkpoints + 2)
    )
    marks = _snapshot_marks(t_final, checks)
    shortest = min(b - a for a, b in zip(marks, marks[1:]))
    kappa_sup = modes.max_sup_norm
    eps_list = [float(eps) for eps in eps_list]
    cells = [
        _cell_config(eps, lam, modes.sigma, kappa_sup, t_final) for eps in eps_list
    ]

    start = time.perf_counter()
    profile_steps = 0

    def integrate(h: float, _) -> list[TorusTrajectory]:
        nonlocal profile_steps
        params = SimParams(lam=lam, t_final=t_final, dt=h)
        traj = integrate_torus(alpha, modes, params, snapshot_times=checks)
        profile_steps += len(traj.times) - 1
        return [traj]

    def combine(fine: TorusTrajectory, coarse: TorusTrajectory) -> TorusTrajectory:
        amps = [_extrapolate(fine.at(t), coarse.at(t), 4) for t in marks]
        return TorusTrajectory(modes, np.array(marks), np.array(amps))

    [(check, traj, fine, _)] = _ladder(
        integrate, [alpha], PROFILE_DT, shortest, lambda a, b: _amp_delta(a, b, checks),
        LADDER_FRACTION * min(eps_list), combine,
    )
    profile = replace(check, steps=profile_steps, drift=_relative_drift(fine.mass_series()))
    profile_s = time.perf_counter() - start

    def one_leg(eps: float, cell: SolverConfig) -> ConvergenceRow:
        grid_n = cell.n * _check_eps(eps)
        start = time.perf_counter()
        try:
            [(check, res)], spent = _checked_solve(
                [ProfileStateTorus(modes, alpha, 0.0)], cell, eps, checks, shortest,
                _field_delta,
            )
            solve_s = spent[check.dt, cell.n]
            t0 = time.perf_counter()
            sup_err = w_err = 0.0
            for t in checks:
                state = ProfileStateTorus(modes=modes, amps=traj.at(t), t=t / eps)
                uapp = assemble_uapp(state, 1.0, cell.n)
                diff = GridField(modes.d, cell.n, res.at(t / eps).values - uapp.values)
                sup_err = max(sup_err, sup_norm_of_field(diff))
                w_err = max(w_err, w_norm_of_field(diff))
            budget = LADDER_FRACTION * eps
            over = check.over(budget)
            over.update(("profile", gap) for gap in profile.over(budget).values())
            note = ", ".join(f"{name} delta {gap / eps:.3g}*eps" for name, gap in over.items())
            return ConvergenceRow(
                eps=eps, grid_n=grid_n, sup_error=sup_err, w_error=w_err,
                status=f"check over {LADDER_FRACTION:g}*eps: {note}" if over else "ok",
                check=check,
                stage_s={
                    "checks": t0 - start - solve_s,
                    "solve": solve_s,
                    "assembly_norms": time.perf_counter() - t0,
                },
                runtime=time.perf_counter() - start,
            )
        except (ValueError, FloatingPointError) as exc:
            return ConvergenceRow(
                eps=eps, grid_n=grid_n, sup_error=math.nan, w_error=math.nan,
                status=f"{type(exc).__name__}: {exc}",
                runtime=time.perf_counter() - start,
            )

    rows = [one_leg(eps, cell) for eps, cell in zip(eps_list, cells)]

    ok_rows = [r for r in rows if r.ok]
    at_floor = bool(ok_rows) and all(r.sup_error <= ERROR_FLOOR for r in ok_rows)
    return ConvergenceTable(
        rows=rows,
        checkpoint_times=checks,
        order_sup=_fit_order(rows, "sup_error"),
        order_w=_fit_order(rows, "w_error"),
        at_floor=at_floor,
        profile=profile,
        profile_s=profile_s,
    )


@dataclass(frozen=True)
class RemainderReport:
    """Ingredients of the remainder estimate for the current profile state.

    r2_bound is half the summed Wiener norm of the profile Laplacians,
    1/2 dxi^d sum |xi|^2 |b| over the `_box_coefficients` b of the profiles
    (zero on the torus, where profiles carry no transverse variable).  min_delta is
    the smallest nonzero resonance defect over all interaction tuples, in
    lattice units; it is positive whenever any non-resonant tuple exists,
    which is what lets the non-characteristic source be integrated by parts.
    For a set that is not closed under resonances the count only covers
    tuples inside the set, so the report understates the true source.
    """

    r2_bound: float
    nonresonant_tuples: int
    min_delta: Optional[int]


def remainder_report(state) -> RemainderReport:
    if not isinstance(state, (ProfileStateTorus, ProfileStateEuclid)):
        raise TypeError("state must be a torus or euclid profile state")
    modes = state.modes
    survey = survey_divisors(modes)
    if isinstance(state, ProfileStateTorus):
        r2 = 0.0
    else:
        d, length = modes.d, state.length
        b = _box_coefficients(state.fields, length, d)
        xi_sq = sum(xi * xi for xi in _axis_wavenumbers(d, state.n, length))
        r2 = 0.5 * (2 * math.pi / length) ** d * float(np.sum(xi_sq * np.abs(b)))
    return RemainderReport(
        r2_bound=r2,
        nonresonant_tuples=survey.nonresonant_count,
        min_delta=survey.min_delta,
    )


@dataclass(frozen=True)
class InstabilityRecord:
    """Two nearby WKB data and the O(1) gap their zero modes develop.

    alpha0/alpha1 describe the base datum alpha0 + alpha1 e^{ix/eps}; the
    tilde pair is the perturbed one.  theta0/theta0_tilde are the zero-mode
    modulation rates, gap the sup over [0, delta] of |alpha0 - alpha0~ e^{i omega t}|,
    omega = lam (theta0 - theta0~) summed exactly (`_rate_difference`), and
    t_star its first time (`run_instability`).
    For the weak-limit variant the tilde datum is the formal limit profile
    and alpha1_tilde is None.  solver_gap is the same quantity measured from
    two spectral solves via the zero Fourier mode (None unless cross-checked).
    The solver_* fields after it record the points of the period grid and
    one `LadderCheck` per datum (base, perturbed) on its zero-mode curve,
    with its solves' health (None unless cross-checked).
    """

    variant: str
    rho: float
    delta: float
    s: float
    K: int
    sigma: int
    lam: float
    alpha0: float
    alpha1: float
    alpha0_tilde: float
    alpha1_tilde: Optional[float]
    theta0: float
    theta0_tilde: float
    theta_user: Optional[float]
    t_star: float
    gap: float
    hs_condition_ok: bool
    eps: Optional[float] = None
    solver_gap: Optional[float] = None
    solver_t_star: Optional[float] = None
    solver_formula_deviation: Optional[float] = None
    solver_grid_n: Optional[int] = None
    solver_checks: Optional[tuple[LadderCheck, ...]] = None


def _solve_alpha1_for_theta(alpha0: float, theta: float, sigma: int) -> float:
    """Invert the cross part of the modulation rate: find alpha1 >= 0 with
    theta0(alpha0, alpha1) = theta + alpha0^(2 sigma).

    The cross part, the terms n >= 1 of `_two_mode_terms` (own = alpha0^2,
    y = alpha1^2), is summed alone, free of cancellation against own^sigma,
    and increases on y >= 0.  At sigma=1 the root of 2y - theta is exact;
    above, y is bisected on the doubling bracket until its ends are adjacent
    floats, keeping the end with the smaller excess."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    if sigma == 1:
        return math.sqrt(theta / 2)
    own = alpha0 * alpha0

    def excess(y: float) -> float:
        return sum(_two_mode_terms(own, y, sigma)[1:]) - theta

    lo, hi = 0.0, 1.0
    while excess(hi) < 0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            raise ValueError("no amplitude realizes the requested theta")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    y = lo if abs(excess(lo)) < abs(excess(hi)) else hi
    return math.sqrt(y)


def _rate_difference(lam, sigma, alpha0, alpha1, alpha0_t, alpha1_t) -> float:
    """omega = lam (theta0 - theta0~), the zero-mode rates of the data
    (alpha0, alpha1) and (alpha0_t, alpha1_t), summed exactly from the
    squares of the float amplitudes (`_two_mode_terms` on Fractions) and
    rounded once.  alpha1_t None is the weak limit, which sees only its own
    modulus.  Raises OverflowError when omega overflows a float."""
    def rate(a0, a1):
        return sum(_two_mode_terms(Fraction(a0) ** 2, Fraction(a1 or 0.0) ** 2, sigma))

    return float(Fraction(lam) * (rate(alpha0, alpha1) - rate(alpha0_t, alpha1_t)))


def _gaps(alpha0, alpha0_t, omega, times: np.ndarray) -> np.ndarray:
    """|alpha0 - alpha0_t e^{i omega t}| at each time t: the zero-mode gap
    |alpha0 e^{-i lam theta0 t} - alpha0_t e^{-i lam theta0_t t}|."""
    return np.abs(alpha0 - alpha0_t * np.exp(1j * omega * times))


def gap_curve(rec: InstabilityRecord, grid_points: int):
    """(times, gaps): the record's zero-mode gap at grid_points even times in
    [0, delta], from its exact omega (`_rate_difference`)."""
    omega = _rate_difference(
        rec.lam, rec.sigma, rec.alpha0, rec.alpha1, rec.alpha0_tilde, rec.alpha1_tilde
    )
    times = np.linspace(0.0, rec.delta, grid_points)
    return times, _gaps(rec.alpha0, rec.alpha0_tilde, omega, times)


def run_instability(
    rho: float,
    delta: float,
    s: float,
    K: int,
    *,
    sigma: int = 1,
    lam: float = 1.0,
    variant: str = "perturb_high",
    theta: Optional[float] = None,
    cross_check: bool = False,
) -> InstabilityRecord:
    """Quantify how an O(K^s)-small (in H^s, s < 0) change of WKB data at
    relative frequency K produces an O(1) zero-mode gap by time delta.

    Variants: 'perturb_high' bumps the high-mode amplitude so the rates
    differ by exactly 2 sigma^2.../delta (for sigma=1, by 2/delta);
    'perturb_zero' bumps the zero-mode amplitude by delta itself;
    'weak_limit' compares one datum against its formal weak limit, whose
    zero mode misses the cross modulation theta entirely (user-chosen).

    The gap and t* are exact: with omega = lam (theta0 - theta0~), summed
    exactly from the amplitudes by `_rate_difference` (two rounded rates of
    order alpha1^(2 sigma) would cancel), the squared gap is
    alpha0^2 + alpha0~^2 - 2 alpha0 alpha0~ cos(omega t), so t* = pi/|omega|
    and gap = alpha0 + alpha0~ when |omega| delta >= pi, else t* = delta.

    The separation argument needs K large enough that the perturbation is
    actually small in H^s, i.e. K > delta^(1/s); smaller K still produces
    the gap but the record flags the premise as unmet.  Raises
    OverflowError when delta is so small that the perturbed rate of
    'perturb_high', of order delta^-sigma, or omega overflows a float, and
    FloatingPointError when the perturbed datum rounds to the base one.

    With cross_check=True (variants with two data only) the gap is also
    measured from two semiclassical solves at eps = 1/K^2 through the zero
    Fourier mode, sampled at 101 even times in [0, delta].  Both data are
    2 pi eps periodic, so each solve runs on one period, the cell of
    `_cell_config` (16 points for sigma=1).  The initial data are assembled
    by `assemble_uapp` on the two-mode set {0, 1} of the period.  Both
    data are checked together by one `_checked_solve`, from the top the
    sample segment delta/100 allows, on the largest zero-mode gap over the
    samples (`_zero_mode_delta`).  The solver gap is read from each datum's
    kept run, its solve or its extrapolant, and its check's health from its
    solves.  Raises OverflowError before any solve when the data
    overflow when squared, so that the solves' health would not be finite,
    and FloatingPointError when the rounding floor of the zero-mode read,
    n ulps of alpha0~ + alpha1~, exceeds the step budget
    LADDER_FRACTION*eps, so that the solver gap would be rounding noise.
    """
    if not (isinstance(K, int) and K >= 1):
        raise ValueError("K must be a positive integer")
    if s >= 0:
        raise ValueError("s must be negative")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if variant not in ("perturb_high", "perturb_zero", "weak_limit"):
        raise ValueError(f"unknown variant {variant!r}")

    alpha0 = rho / 2.0
    theta_user = None
    if variant == "weak_limit":
        if theta is None:
            raise ValueError("weak_limit variant requires theta")
        theta_user = float(theta)
        alpha1 = _solve_alpha1_for_theta(alpha0, theta_user, sigma)
        alpha0_t, alpha1_t = alpha0, None  # the naive limit sees only its own modulus
    else:
        alpha1 = alpha0 * K ** (-s)
        if variant == "perturb_high":
            alpha0_t, alpha1_t = alpha0, math.sqrt(alpha1 * alpha1 + 1.0 / delta)
        else:
            alpha0_t, alpha1_t = alpha0 + delta, alpha1
        if (alpha0_t, alpha1_t) == (alpha0, alpha1):
            raise FloatingPointError(
                f"delta={delta:.6g} is lost to rounding: the perturbed datum is "
                f"the base datum ({alpha0:.6g}, {alpha1:.6g})"
            )
    try:
        theta0 = two_mode_theta(alpha0 * alpha0, alpha1 * alpha1, sigma)
        a1_t = alpha1_t or 0.0
        theta0_t = two_mode_theta(alpha0_t * alpha0_t, a1_t * a1_t, sigma)
        omega = _rate_difference(lam, sigma, alpha0, alpha1, alpha0_t, alpha1_t)
    except OverflowError:
        theta0_t = math.inf
    if math.isinf(theta0_t):
        raise OverflowError(
            f"the perturbed rate, of order delta^-sigma, or lam times the rate "
            f"difference overflows at delta={delta:.6g}, sigma={sigma}"
        )

    try:
        hs_bound = delta ** (1.0 / s)
    except OverflowError:  # no integer K exceeds it
        hs_bound = math.inf
    hs_ok = K > hs_bound
    if not hs_ok:
        warnings.warn(
            f"K={K} <= delta^(1/s)={hs_bound:.6g}: the data are "
            "not close in H^s, the separation premise is unmet",
            stacklevel=2,
        )

    if abs(omega) * delta >= math.pi:
        t_star, gap = math.pi / abs(omega), alpha0 + alpha0_t
    else:
        t_star = delta
        gap = float(_gaps(alpha0, alpha0_t, omega, np.array([delta]))[0])

    eps = solver_gap = solver_t_star = solver_dev = solver_n = solver_checks = None
    if cross_check:
        if variant == "weak_limit":
            raise ValueError(
                "cross_check needs two data to solve; the weak limit is not "
                "a solution"
            )
        eps = 1.0 / (K * K)
        cell = _cell_config(eps, lam, sigma, 1, delta)
        # the carrier at 1/eps is wavenumber 1 on the period
        pair = ModeSet.from_vectors([WaveVector((0,)), WaveVector((1,))], sigma)
        sample = np.linspace(0.0, delta, 101)
        # |F u|^2 <= n sum |u|^2 = n^2 (a0^2 + a1^2), kept by the split step,
        # so every square the health reads is finite if the larger datum's is
        peak = cell.n * (alpha0_t + alpha1_t)
        if not math.isfinite(peak * peak):
            raise OverflowError(f"the cross-check datum ({alpha0_t:.6g}, {alpha1_t:.6g}) "
                                f"overflows when squared on {cell.n} points")
        # the zero mode is the mean of n samples of size up to alpha0 + alpha1,
        # so rounding reads it to about n ulps of that size at best
        floor = cell.n * math.ulp(alpha0_t + alpha1_t)
        if floor > LADDER_FRACTION * eps:
            raise FloatingPointError(
                f"the cross-check datum ({alpha0_t:.6g}, {alpha1_t:.6g}) hides its "
                f"zero mode: rounding on {cell.n} points reads it to {floor:.3g}, "
                f"over the step budget {LADDER_FRACTION:g}*eps = {LADDER_FRACTION * eps:.3g}"
            )
        checked, _ = _checked_solve(
            [ProfileStateTorus(pair, [a0, a1], 0.0)
             for a0, a1 in ((alpha0, alpha1), (alpha0_t, alpha1_t))],
            cell, eps, sample, delta / 100, _zero_mode_delta,
        )
        # one row per sample: the samples are the solves' marks
        zero_modes = [_zero_modes(kept) for _, kept in checked]
        diffs = np.abs(zero_modes[0] - zero_modes[1])
        k = int(np.argmax(diffs))
        solver_gap = float(diffs[k])
        solver_t_star = float(sample[k])
        solver_dev = abs(solver_gap - gap)
        solver_n = cell.n
        solver_checks = tuple(check for check, _ in checked)

    return InstabilityRecord(
        variant=variant,
        rho=rho,
        delta=delta,
        s=s,
        K=K,
        sigma=sigma,
        lam=lam,
        alpha0=alpha0,
        alpha1=alpha1,
        alpha0_tilde=alpha0_t,
        alpha1_tilde=alpha1_t,
        theta0=theta0,
        theta0_tilde=theta0_t,
        theta_user=theta_user,
        t_star=t_star,
        gap=gap,
        hs_condition_ok=hs_ok,
        eps=eps,
        solver_gap=solver_gap,
        solver_t_star=solver_t_star,
        solver_formula_deviation=solver_dev,
        solver_grid_n=solver_n,
        solver_checks=solver_checks,
    )
