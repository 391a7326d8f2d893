"""Coupled amplitude system: integrators and closed-form oracles.

Each mode j in a ModeSet carries a slowly varying amplitude a_j.  On the torus
the amplitudes are x-independent and satisfy the ODE system

    d/dt a_j = -i lambda sum_{(l_1,...,l_{2s+1}) in I_j} a_{l_1} conj(a_{l_2}) ... a_{l_{2s+1}},

conjugation on even (1-based) slots.  On the Euclidean box each a_j(t,x) is
additionally transported at velocity kappa_j; the substitution
b_j(t,x) = a_j(t, x + t*kappa_j) removes the transport term exactly, and the
shift is realized spectrally, so no spatial derivative is ever discretized.

Time stepping is classical fixed-step RK4 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice_geometry import ModeSet, _coupling_classes, _interaction_table
from .wiener_norms import _box_coefficients, e_norm

__all__ = [
    "SimParams",
    "ProfileStateTorus",
    "ProfileStateEuclid",
    "BlowUpError",
    "interactions_for",
    "integrate_torus",
    "integrate_euclid",
    "explicit_torus_1d",
    "explicit_euclid_1d",
    "explicit_two_mode",
    "two_mode_theta",
    "TorusTrajectory",
    "EuclidTrajectory",
]

BLOWUP_FACTOR = 1e6  # abort when any |a_j| exceeds this multiple of the initial E norm


class BlowUpError(RuntimeError):
    """Amplitude exceeded the guard threshold: local existence time passed."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"amplitude blow-up guard tripped at t={t:.6g}")


@dataclass(frozen=True)
class SimParams:
    """Coupling, horizon, and time step; the mode set carries sigma."""

    lam: float
    t_final: float
    dt: float

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError("coupling must be finite")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_final > 0 and self.dt > self.t_final * (1 + 1e-12):
            raise ValueError("dt must not exceed t_final")


@dataclass(frozen=True)
class ProfileStateTorus:
    modes: ModeSet
    amps: np.ndarray  # shape (|J|,), complex
    t: float

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (len(self.modes),):
            raise ValueError("one amplitude per mode required")
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True)
class ProfileStateEuclid:
    modes: ModeSet
    fields: np.ndarray  # shape (|J|, n, ..., n), complex, box [0, length)^d
    t: float
    length: float

    def __post_init__(self):
        fields = np.asarray(self.fields, dtype=complex)
        if fields.ndim != 1 + self.modes.d or fields.shape[0] != len(self.modes):
            raise ValueError("fields must be stacked as (|J|, n per dimension)")
        n = fields.shape[1]
        if any(s != n for s in fields.shape[1:]):
            raise ValueError("grid must be square")
        if n & (n - 1):
            raise ValueError("points per dimension must be a power of two")
        object.__setattr__(self, "fields", fields)

    @property
    def n(self) -> int:
        return self.fields.shape[1]


def interactions_for(modes: ModeSet) -> list[np.ndarray]:
    """Resonant tuples per target, index-aligned with the mode set.

    Entry j is a read-only (T_j, 2*sigma+1) integer array of the ordered
    tuples aimed at mode j, in lexicographic order: a view of the table
    that lattice_geometry joins from the coupling classes, split at its
    target bounds.
    """
    idx, bounds = _interaction_table(modes)
    return np.split(idx, bounds[1:-1])


def _coupling(modes: ModeSet, scale: complex, grid_ndim: int = 0):
    """f(amps) = scale * sum over I_j of a_{l_1} conj(a_{l_2}) ..., per target j.

    amps has shape (|J|,) + grid, len(grid) == grid_ndim.  The folded plus
    products of _coupling_classes, times scale and their orderings, are
    summed per class; each target then sums its class sums against the
    conjugate minus products, elementwise.  O(|J|^(sigma+1)) work per call.
    """
    cols, mult, members, label, _ = _coupling_classes(modes)
    weights = (scale * mult).reshape((-1,) + (1,) * grid_ndim)
    first, *rest = cols
    later_minus_slots = range(modes.sigma - 1)

    def coupling(amps):
        minus = amps
        for _ in later_minus_slots:
            minus = (minus[:, None] * amps).reshape((-1,) + amps.shape[1:])
        sums = weights * amps[first]
        for col in rest:
            sums *= amps[col]
        for lo, k in members:
            sums[:k] += sums[lo:lo + k]
        return np.einsum("jm...,m...->j...", sums[label], np.conj(minus))

    return coupling


def _snapshot_marks(t_final: float, snapshot_times) -> list[float]:
    """Sorted segment ends: 0, t_final and every snapshot time in [0, t_final].

    A time within 1e-12*t_final of t_final is t_final, on either side, so a
    rounded t_final*k/k adds no segment of a few ulps."""
    marks = {0.0, t_final}
    if snapshot_times is not None:
        for t in snapshot_times:
            t = float(t)
            if t < -1e-12 or t > t_final * (1 + 1e-12):
                raise ValueError("snapshot times must lie in [0, t_final]")
            marks.add(t_final if t >= t_final * (1 - 1e-12) else max(t, 0.0))
    return sorted(marks)


def _segments(t_final: float, dt: float, snapshot_times):
    """(left, right, m, h) for each segment between consecutive marks: the
    fewest m equal steps of at most dt, each h = (right - left) / m.

    The one time grid of the RK4 sweep and the split-step solver: both land
    exactly on the same marks with the same steps."""
    marks = _snapshot_marks(t_final, snapshot_times)
    for left, right in zip(marks[:-1], marks[1:]):
        m = max(1, math.ceil((right - left) / dt - 1e-9))
        yield left, right, m, (right - left) / m


def _time_index(times: np.ndarray, t: float) -> int:
    """Index of the recorded time within 1e-9*max(1, |t|) of t."""
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise KeyError(f"time {t} was not recorded; pass it as a snapshot time")
    return i


def _relative_drift(series: np.ndarray) -> float:
    """max_k |s_k - s_0| / |s_0| of a conserved series (0 for a zero series)."""
    return float(np.max(np.abs(series - series[0])) / max(abs(series[0]), 1e-300))


def _rk4_sweep(
    y0: np.ndarray,
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_final: float,
    dt: float,
    snapshot_times,
    guard_level: float,
    record: Callable[[float, np.ndarray, bool], None],
) -> None:
    """Fixed-step RK4 from 0 to t_final on the steps of `_segments`.

    record(t, y, mark) is called at t=0 and after every step, with mark
    true at 0 and at each segment end.  Before each call the blow-up guard
    raises BlowUpError when max|y| is not finite or exceeds guard_level.
    """

    def guard(t: float, y: np.ndarray) -> None:
        m = float(np.max(np.abs(y))) if y.size else 0.0
        if not np.isfinite(m):
            raise BlowUpError(t, f"non-finite values at t={t:.6g}")
        if m > guard_level:
            raise BlowUpError(t)

    y = y0.copy()
    guard(0.0, y)
    record(0.0, y, True)
    for left, right, m, h in _segments(t_final, dt, snapshot_times):
        for i in range(m):
            t = left + i * h
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + (h / 2) * k1)
            k3 = rhs(t + h / 2, y + (h / 2) * k2)
            k4 = rhs(t + h, y + h * k3)
            y += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t = right if i == m - 1 else left + (i + 1) * h
            guard(t, y)
            record(t, y, i == m - 1)


@dataclass
class TorusTrajectory:
    """Recorded states of a torus integration, one row per accepted step."""

    modes: ModeSet
    times: np.ndarray  # (S,)
    amps: np.ndarray  # (S, |J|)
    interaction_tuples: int = 0  # ordered resonant tuples in the coupling

    @property
    def final(self) -> ProfileStateTorus:
        return ProfileStateTorus(self.modes, self.amps[-1], float(self.times[-1]))

    def at(self, t: float) -> np.ndarray:
        """Amplitudes at a recorded step time (see `_time_index`)."""
        return self.amps[_time_index(self.times, t)]

    def mass_series(self) -> np.ndarray:
        return np.sum(np.abs(self.amps) ** 2, axis=1)


def integrate_torus(
    alpha: Sequence[complex],
    modes: ModeSet,
    params: SimParams,
    *,
    snapshot_times=None,
) -> TorusTrajectory:
    """RK4 integration of the torus amplitude ODEs from amplitudes alpha.

    Returns the state at every accepted step.  Aborts with BlowUpError when
    any |a_j| exceeds 1e6 times the initial E norm, or on non-finite values.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (len(modes),):
        raise ValueError("one initial amplitude per mode required")
    coupling = _coupling(modes, -1j * params.lam)

    guard_level = BLOWUP_FACTOR * max(e_norm(alpha), 1e-300)
    times = []
    rows = []

    def record(t, y, mark):
        times.append(t)
        rows.append(y.copy())

    _rk4_sweep(
        alpha, lambda t, y: coupling(y), params.t_final, params.dt, snapshot_times,
        guard_level, record,
    )
    return TorusTrajectory(
        modes, np.array(times), np.array(rows), _coupling_classes(modes)[-1]
    )


@dataclass
class EuclidTrajectory:
    """Snapshots of a Euclidean integration in the lab (unshifted) frame."""

    modes: ModeSet
    length: float
    times: np.ndarray  # (S,) snapshot times
    fields: np.ndarray  # (S, |J|, n per dimension)
    mass_times: np.ndarray  # every accepted step
    masses: np.ndarray
    interaction_tuples: int = 0  # ordered resonant tuples in the coupling

    @property
    def final(self) -> ProfileStateEuclid:
        return ProfileStateEuclid(
            self.modes, self.fields[-1], float(self.times[-1]), self.length
        )

    def at(self, t: float) -> np.ndarray:
        """Lab-frame fields at a snapshot time (see `_time_index`)."""
        return self.fields[_time_index(self.times, t)]


def _axis_wavenumbers(
    d: int, n: int, length: Optional[float] = None
) -> list[np.ndarray]:
    """FFT wavenumbers per axis, each shaped to broadcast over the (n,)*d grid.

    The integers k of the 2 pi torus when length is None, else the physical
    wavenumbers 2 pi k / length of [0, length)^d.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    if length is not None:
        k = 2 * math.pi * k / length
    return [k.reshape([n if a == axis else 1 for a in range(d)]) for axis in range(d)]


def integrate_euclid(
    alpha: np.ndarray,
    modes: ModeSet,
    params: SimParams,
    length: float,
    *,
    snapshot_times=None,
) -> EuclidTrajectory:
    """RK4 integration of the Euclidean profile system on a periodic box.

    alpha: initial fields stacked as (|J|, n, ..., n) on [0, length)^d.  The
    transport part is removed exactly by working on b_j(t,x) = a_j(t, x+t*kappa_j);
    the frame change is a spectral phase multiplication.  The box must be large
    enough that profiles stay numerically supported away from the boundary for
    the whole run; that is the caller's responsibility.

    Snapshots (lab frame) are recorded at the marks of `_snapshot_marks`
    (0, the snapshot times and t_final); the discrete mass at every step.
    Aborts with BlowUpError when any |a_j| exceeds 1e6 times the initial E
    norm dxi^d * sum |b| over the `_box_coefficients` b of the profiles,
    dxi = 2 pi / length: the summed `w_norm` of their `FourierSeries.from_grid`
    spectra.  Non-finite values abort too.
    """
    alpha = np.asarray(alpha, dtype=complex)
    state0 = ProfileStateEuclid(modes, alpha, 0.0, length)  # validates shape
    d, n = modes.d, state0.n
    nonlinear = _coupling(modes, -1j * params.lam, d)
    cell = (length / n) ** d
    axes = tuple(range(1, d + 1))
    xi = _axis_wavenumbers(d, n, length)
    kap = modes.as_array().astype(float)  # (|J|, d)

    # kappa_j . xi on the grid, one entry per mode, shaped (|J|, n, ..., n)
    kdotxi = sum(kap[:, axis].reshape((-1,) + (1,) * d) * xi[axis] for axis in range(d))

    dxi = 2 * math.pi / length
    enorm0 = dxi**d * float(np.abs(_box_coefficients(alpha, length, d)).sum())
    guard_level = BLOWUP_FACTOR * max(enorm0, 1e-300)

    def to_lab(b, phase):
        """a_j(t, x) from the co-moving fields, phase = e^{-i t kappa_j.xi}."""
        return np.fft.ifftn(np.fft.fftn(b, axes=axes) * phase, axes=axes)

    def rhs(t, b):
        phase = np.exp(-1j * t * kdotxi)
        return np.fft.ifftn(
            np.fft.fftn(nonlinear(to_lab(b, phase)), axes=axes) * np.conj(phase), axes=axes
        )

    snap_times, snaps = [], []
    mass_times, masses = [], []

    def record(t, b, mark):
        mass_times.append(t)
        masses.append(cell * float(np.sum(b.real**2 + b.imag**2)))
        if mark:
            snap_times.append(t)
            snaps.append(to_lab(b, np.exp(-1j * t * kdotxi)))

    _rk4_sweep(alpha, rhs, params.t_final, params.dt, snapshot_times, guard_level, record)
    return EuclidTrajectory(
        modes, length, np.array(snap_times), np.array(snaps),
        np.array(mass_times), np.array(masses), _coupling_classes(modes)[-1],
    )


def explicit_torus_1d(alpha: Sequence[complex], lam: float, t: float) -> np.ndarray:
    """Closed-form torus amplitudes for d=1, sigma=1: alpha_j e^{-i lam t (2M - |alpha_j|^2)}."""
    alpha = np.asarray(alpha, dtype=complex)
    mod2 = np.abs(alpha) ** 2
    total = mod2.sum()
    return alpha * np.exp(-1j * lam * t * (2 * total - mod2))


def explicit_euclid_1d(
    alpha: Sequence[Callable[[np.ndarray], np.ndarray]],
    kappas: Sequence[float],
    lam: float,
    t: float,
    x: np.ndarray,
    quadrature_dt: float,
) -> np.ndarray:
    """Closed-form Euclidean amplitudes for d=1, sigma=1, at points x.

    a_j(t,x) = alpha_j(x - t kappa_j) e^{i S_j(t,x)} with

        S_j = -2 lam int_0^t sum_{l != j} |alpha_l(x + (tau-t) kappa_j - tau kappa_l)|^2 dtau
              - t lam |alpha_j(x - t kappa_j)|^2.

    The time integral uses composite Simpson quadrature at step quadrature_dt.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = len(alpha)
    if len(kappas) != m:
        raise ValueError("one velocity per profile required")
    out = np.empty((m,) + x.shape, dtype=complex)
    if t == 0:
        for j in range(m):
            out[j] = alpha[j](x)
        return out
    if quadrature_dt <= 0:
        raise ValueError("quadrature_dt must be positive")
    panels = max(2, 2 * math.ceil(t / (2 * quadrature_dt)))
    tau = np.linspace(0.0, t, panels + 1)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (t / panels) / 3.0
    for j in range(m):
        shifted = alpha[j](x - t * kappas[j])
        cross = np.zeros_like(x)
        for l in range(m):
            if l == j:
                continue
            # |alpha_l| along the backward characteristic of mode j
            pts = x[None, :] + (tau[:, None] - t) * kappas[j] - tau[:, None] * kappas[l]
            vals = np.abs(alpha[l](pts)) ** 2
            cross += weights @ vals
        phase = -2 * lam * cross - t * lam * np.abs(shifted) ** 2
        out[j] = shifted * np.exp(1j * phase)
    return out


def _two_mode_terms(own_sq, other_sq, sigma: int) -> list:
    """The terms C(sigma+1, n) C(sigma, n) own^(sigma-n) other^n, n = 0..sigma,
    of the two-mode rate, in the arguments' arithmetic (floats or Fractions)."""
    return [
        math.comb(sigma + 1, n) * math.comb(sigma, n) * own_sq ** (sigma - n) * other_sq**n
        for n in range(sigma + 1)
    ]


def two_mode_theta(own_sq: float, other_sq: float, sigma: int) -> float:
    """Constant modulation rate of one profile in a two-mode closed system:
    theta = sum_n C(sigma+1, n) C(sigma, n) own^(sigma-n) other^n with the
    moduli squared as arguments (`_two_mode_terms`)."""
    return float(sum(_two_mode_terms(own_sq, other_sq, sigma)))


def explicit_two_mode(
    alpha_j: complex, alpha_l: complex, sigma: int, lam: float, t: float
) -> tuple[complex, complex]:
    """Closed-form two-mode torus amplitudes for any sigma.

    Each mode rotates at its two_mode_theta rate, with (own, other) =
    (|alpha_j|^2, |alpha_l|^2) for the first mode and swapped for the second.
    """
    if sigma < 1:
        raise ValueError("sigma must be a positive integer")
    mj, ml = abs(alpha_j) ** 2, abs(alpha_l) ** 2
    return (
        alpha_j * np.exp(-1j * lam * t * two_mode_theta(mj, ml, sigma)),
        alpha_l * np.exp(-1j * lam * t * two_mode_theta(ml, mj, sigma)),
    )
