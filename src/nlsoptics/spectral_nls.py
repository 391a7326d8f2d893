"""Split-step Fourier reference solver for the semiclassical cubic-type NLS.

Solves  i eps d_t u + (eps^2/2) Lap u = lambda eps |u|^{2 sigma} u  on the
torus [0, 2pi)^d, i.e.  d_t u = i (eps/2) Lap u - i lambda |u|^{2 sigma} u.
Strang splitting alternates two exactly solvable flows:

  nonlinear  u -> u exp(-i lambda tau |u|^{2 sigma})   (|u| pointwise conserved)
  linear     multiply the discrete transform by exp(-i eps tau |k|^2 / 2)

The linear flow is circulant and, since |k|^2 = sum_a k_a^2, factorizes per
axis.  Up to DENSE_MAX_N points per axis it is applied as the exact n x n
propagator matrix, one matmul per axis, because on small grids a transform
pair costs more in per-call overhead than the dense product does in flops;
above that it is a forward and inverse FFT pair.  Both sub-steps preserve
the discrete L2 norm to rounding, so the solver inherits exact mass
conservation.  Carriers sit at integer frequencies kappa/eps with 1/eps a
positive integer; the grid rule below keeps their (2 sigma + 1)-fold
harmonics inside the resolved band.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .lattice_geometry import WaveVector
from .profile_dynamics import _axis_wavenumbers, _relative_drift, _segments, _time_index
from .wiener_norms import _check_eps

__all__ = [
    "GridField",
    "SolverConfig",
    "SolveResult",
    "SolveStack",
    "AliasingWarning",
    "default_grid_size",
    "default_dt",
    "solve",
    "plane_wave_exact",
    "w_norm_of_field",
    "sup_norm_of_field",
]

ALIASING_BAND = 0.9  # frequencies with |k|_inf >= ALIASING_BAND * (n/2) are "top 10%"
ALIASING_TOLERANCE = 1e-8
# Largest points-per-axis for the dense per-axis propagator.  Per call of the
# linear flow on a 2-core Xeon, median of 300 batches of 50 calls on one
# OpenBLAS thread, dense flow against the numpy FFT pair: 1D 0.5 vs 14 us at
# n=16, 0.7 vs 15 us at n=32, 1.6 vs 15 us at n=64; 2D 5.6 vs 30, 14 vs 44
# and 71 vs 87 us at the same n.  Under OpenBLAS's default 2 threads the
# worst 1D n=64 batch took 8 ms per call (the pair's worst: 79 us).
DENSE_MAX_N = 64


class AliasingWarning(UserWarning):
    """Spectral mass reached the top of the resolved band; results suspect."""


@dataclass(frozen=True)
class GridField:
    """Complex field sampled on the uniform grid x_m = 2 pi m / n of [0,2pi)^d.

    values may also hold a stack of B fields on that grid, on a leading
    axis, (B,) + (n,)*d: the stacked data `solve` evolves together."""

    d: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        grid = (self.n,) * self.d
        stack = values.ndim - self.d  # 0 for one field, 1 for a stack
        if stack not in (0, 1) or values.shape[stack:] != grid:
            raise ValueError(f"values must have shape {grid}, or (B,) + {grid} for B fields")
        if self.n & (self.n - 1) or self.n < 2:
            raise ValueError("n must be a power of two")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "GridField":
        values = np.asarray(values, dtype=complex)
        return cls(d=values.ndim, n=values.shape[0], values=values)


def default_grid_size(eps: float, sigma: int, kappa_sup: int) -> int:
    """Smallest power of two >= 4 (2 sigma + 2) kappa_sup / eps (floor 16).

    Carriers oscillate at |k| up to kappa_sup/eps and (2 sigma + 1)-fold
    products push harmonics to (2 sigma + 1) times that; the factor 4 leaves
    the monitored top band empty for clean data.
    """
    _check_eps(eps)
    need = 4 * (2 * sigma + 2) * max(kappa_sup, 0) / eps
    n = 16
    while n < need:
        n *= 2
    return n


def default_dt(eps: float) -> float:
    """Default solver step eps/100: splitting error well under the O(eps) budget."""
    return eps / 100.0


@dataclass(frozen=True)
class SolverConfig:
    eps: float
    lam: float
    sigma: int
    dt: float
    n: int
    t_final: float

    def __post_init__(self):
        _check_eps(self.eps)
        if self.sigma < 1:
            raise ValueError("sigma must be a positive integer")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n & (self.n - 1) or self.n < 2:
            raise ValueError("n must be a power of two")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")


@dataclass
class SolveResult:
    """Snapshots of one solve, or of one datum of a stacked solve, one per
    mark of the shared time grid.

    times holds the marks (0, the snapshot times and t_final, sorted), and
    fields the field at each mark, stacked as one read-only (S,) + (n,)*d
    array.  `at` and `final` return GridField views of its rows.

    The health series, one value per mark, are each computed in one pass
    over the stack when first read, so a solve nobody reads (a discarded
    ladder rung, a grid check) measures nothing: the L2 norms sqrt(cell *
    sum |u|^2) and the top-band shares of sum |F u|^2 (0 for a zero field),
    each equal to its per-field form bit for bit.  The band entries are
    gathered into a C-contiguous array before the sum, because summing the
    strided gather rounds differently on 2D and 3D grids.  The first read of
    the fractions warns when one exceeds ALIASING_TOLERANCE."""

    times: np.ndarray  # (S,) marks, starting at 0
    fields: np.ndarray  # (S,) + (n,)*d, read-only
    steps: int  # split steps taken over all segments

    @cached_property
    def l2_values(self) -> np.ndarray:
        u = self.fields
        cell = (2 * math.pi / u.shape[1]) ** (u.ndim - 1)
        return np.sqrt(cell * (u.real**2 + u.imag**2).reshape(len(u), -1).sum(axis=1))

    @cached_property
    def aliasing_fractions(self) -> np.ndarray:
        marks, n, d = len(self.fields), self.fields.shape[1], self.fields.ndim - 1
        band = np.zeros((n,) * d, dtype=bool)
        for k in _axis_wavenumbers(d, n):  # integer wavenumbers
            band |= np.abs(k) >= ALIASING_BAND * n / 2
        axes = tuple(range(1, d + 1))
        spec_mag2 = (np.abs(np.fft.fftn(self.fields, axes=axes)) ** 2).reshape(marks, -1)
        total = spec_mag2.sum(axis=1)
        top = np.ascontiguousarray(spec_mag2[:, band.ravel()]).sum(axis=1)
        fracs = np.divide(top, total, out=np.zeros(marks), where=total > 0)
        if np.any(fracs > ALIASING_TOLERANCE):
            warnings.warn(
                f"top-band spectral mass fraction reached {np.max(fracs):.3e} "
                f"(threshold {ALIASING_TOLERANCE}); increase the grid size",
                AliasingWarning,
                stacklevel=3,  # past functools' descriptor, to the reader
            )
        return fracs

    @property
    def l2_relative_drift(self) -> float:
        return _relative_drift(self.l2_values)

    @property
    def final(self) -> "GridField":
        return GridField.from_values(self.fields[-1])

    def at(self, t: float) -> "GridField":
        """The field at a recorded time (see `_time_index`)."""
        return GridField.from_values(self.fields[_time_index(self.times, t)])


class SolveStack(tuple):
    """The SolveResults of one stacked solve, one per datum in stack order.

    times are the first datum's marks, and fields the read-only (S, B) +
    (n,)*d array the solve wrote, of which each datum's result holds its
    column: a C-contiguous view, since `solve` stores a stack datum by
    datum.  Data that share their config share one marks array."""

    times: np.ndarray
    fields: np.ndarray

    def __new__(cls, times: Sequence[np.ndarray], fields: np.ndarray, steps: int):
        results = []
        for b, marks in enumerate(times):
            results.append(SolveResult(marks, fields[:, b], steps))
        stack = super().__new__(cls, results)
        stack.times, stack.fields = times[0], fields
        return stack


def solve(
    u0: GridField,
    cfg: SolverConfig,
    snapshot_times: Optional[Sequence[float]] = None,
    others: Sequence[tuple[SolverConfig, Optional[Sequence[float]]]] = (),
) -> SolveResult | SolveStack:
    """Strang-split evolution of u0, with snapshots at the requested times.

    u0 is one field, and the solve returns its SolveResult; or a stack of B
    fields on a leading axis (see GridField), evolved together, and the
    solve returns their SolveStack, each datum's result equal bit for bit
    to its own solve.  cfg and snapshot_times are the first datum's; others
    holds the (SolverConfig, snapshot_times) of data 1, ..., B-1 in order,
    and is empty when every datum takes cfg and snapshot_times.  The data
    of a stack share d, n and sigma and take the same step count on every
    segment, else ValueError; each keeps its own eps, lam, step, horizon
    and marks.  A stacked step makes the same numpy calls as a step of one
    field, so per-call overhead is paid once per stack.

    The steps are those of `_segments`, the time grid the profile RK4 also
    walks: each segment between marks takes the fewest equal steps of at
    most dt.  The half nonlinear sub-steps of adjacent steps are merged,
    so a segment of m steps costs m linear flows: m rounds of one batched
    propagator matmul per axis on grids of at most DENSE_MAX_N points per
    axis, else m transform pairs.  One propagator (or transform multiplier)
    is built per distinct step of the call and shared by every segment and
    every datum that takes that step, and the work buffers of the nonlinear
    sub-step are reused by every step.  Each datum's nonlinear phase uses
    its own coefficient -1j * lam * tau, the scalar of a one-field solve.
    The fields equal, bit for bit, a loop over each datum alone that builds
    a flow per segment and forms |u|^2 as u.real**2 + u.imag**2.

    At each mark the field is written into the result's stacked fields.
    Once the solve ends, one finite check over the stack raises
    FloatingPointError naming the first mark, of the first datum's marks,
    at which a field is not finite.  The solve measures no health: the
    result's L2 norms and top-band fractions are computed when first read,
    and that first read raises the AliasingWarning.
    """
    if u0.n != cfg.n or u0.d < 1:
        raise ValueError("initial field does not match the configured grid")
    if not np.isfinite(u0.values).all():
        raise ValueError("initial field contains non-finite values")
    d, n = u0.d, cfg.n
    shape = u0.values.shape
    stacked = len(shape) > d
    rows = [(cfg, snapshot_times), *others]
    if others and (not stacked or shape[0] != len(rows)):
        raise ValueError(f"others holds {len(others)} configs; the stack has "
                         f"{shape[0] if stacked else 1} data")
    if any((c.n, c.sigma) != (n, cfg.sigma) for c, _ in rows):
        raise ValueError("the data of a stack must share n and sigma")
    # data that share one config and one set of marks share one row of
    # every per-datum factor below
    if all(c == cfg and np.array_equal(t, snapshot_times) for c, t in others):
        rows = rows[:1]
    plans = [list(_segments(c.t_final, c.dt, t)) for c, t in rows]
    counts = [m for _, _, m, _ in plans[0]]
    if any([m for _, _, m, _ in plan] != counts for plan in plans[1:]):
        raise ValueError("the data of a stack must take the same step count on every segment")
    scales = [(c.eps, c.lam) for c, _ in rows]
    hs = [tuple(h for *_, h in plan) for plan in plans]  # each row's step per segment

    # Work buffers of the nonlinear sub-step, reused by every step of this
    # call: |u|^2 is the sum of the even and odd entries of the squared
    # real view, the same sums u.real**2 + u.imag**2 forms.  The buffers
    # are flat, because on a 16-point cell a pointwise call on a strided
    # (B, n) view costs about twice the call on a flat one.  The phase is
    # a scalar times the flat power when one row serves every datum, else a
    # (B, 1) column of coefficients times the (B, points) view.
    size = math.prod(shape)
    sq = np.empty(2 * size)
    re2, im2 = sq[0::2], sq[1::2]
    mag2 = np.empty(size)
    power = mag2 if cfg.sigma == 1 else np.empty_like(mag2)
    phase = np.empty(size, dtype=complex)
    sq_u, phase_u = sq.reshape(shape[:-1] + (2 * n,)), phase.reshape(shape)
    power_r, phase_r = (power, phase) if len(scales) == 1 else (
        power.reshape(len(scales), -1), phase.reshape(len(scales), -1))

    def rotate(u: np.ndarray, coef) -> np.ndarray:
        if coef is None:
            return u
        np.square(u.view(float), out=sq_u)
        np.add(re2, im2, out=mag2)
        if cfg.sigma > 1:
            np.power(mag2, cfg.sigma, out=power)
        np.multiply(power_r, coef, out=phase_r)
        np.exp(phase, out=phase)
        u *= phase_u
        return u

    def coefs(taus: Sequence[float]):
        # each datum's -1j * lam * tau; None when every one is 0
        col = [-1j * lam * tau for (_, lam), tau in zip(scales, taus)]
        if not any(col):
            return None
        return col[0] if len(col) == 1 else np.array(col)[:, None]

    times = [np.array([0.0] + [right for _, right, _, _ in plan]) for plan in plans]
    # a stack is stored datum by datum, (B, S) + (n,)*d, and written
    # through its (S, B) view, so that each datum's marks are contiguous
    store = np.empty(shape[:stacked] + (len(counts) + 1,) + shape[stacked:], dtype=complex)
    fields = store.swapaxes(0, 1) if stacked else store
    u = fields[0] = u0.values.copy()
    flows = {}  # one linear flow, and its sub-step coefficients, per distinct step
    for k, (m, step) in enumerate(zip(counts, zip(*hs)), 1):
        if step not in flows:
            s = [eps * h for (eps, _), h in zip(scales, step)]
            flows[step] = (_linear_flow(d, n, s, stacked), coefs(step),
                           coefs([h / 2 for h in step]))
        linear, full, half = flows[step]
        u = rotate(u, half)
        for i in range(m):
            u = rotate(linear(u), full if i < m - 1 else half)
        fields[k] = u

    store.flags.writeable = fields.flags.writeable = False
    finite = np.isfinite(fields).all(axis=tuple(range(1, fields.ndim)))
    if not finite.all():
        raise FloatingPointError(
            f"solver produced non-finite values by t={times[0][np.argmin(finite)]:.6g}"
        )
    steps = sum(counts)
    if stacked:
        return SolveStack(times * (shape[0] // len(times)), fields, steps)
    return SolveResult(times[0], fields, steps)


def _linear_flow(d: int, n: int, s: Sequence[float], stacked: bool):
    """u -> F^-1 diag(exp(-i s |k|^2 / 2)) F u on the (n,)*d grid, or on
    each field b of a (B,) + (n,)*d stack when stacked, with s_b its own.

    s holds one value per field of the stack, or one for every field, and
    each factor below is built once per distinct s_b.  Up to DENSE_MAX_N
    points per axis the flow is the per-axis propagator
    P_b = F^-1 diag(exp(-i s_b k^2 / 2)) F, an n x n circulant matrix,
    applied by matmul along each axis (a matrix-vector product in 1D; a
    stack's matmul batches the fields' propagators, broadcasting a single
    one); every result is a fresh C-contiguous array.  Above it, one FFT
    pair with each field's multiplier.  Each field of a stack rounds
    exactly as the flow of that field alone does: in 1D each row is an
    (n, n) by (n, 1) matmul, which rounds like P_b.dot (one (B, n) by
    (n, n) product does not).
    """
    if n > DENSE_MAX_N:
        ksq = sum(k**2 for k in _axis_wavenumbers(d, n))
        built = {sb: np.exp(-0.5j * sb * ksq) for sb in dict.fromkeys(s)}
    else:
        k2, dft = _axis_wavenumbers(1, n)[0] ** 2, np.fft.fft(np.eye(n), axis=0)
        built = {sb: np.fft.ifft(np.exp(-0.5j * sb * k2)[:, None] * dft, axis=0)
                 for sb in dict.fromkeys(s)}
    # (R,) + the factor's shape, R = 1 when one factor serves every field
    factor = np.stack([built[sb] for sb in s]) if len(s) > 1 else built[s[0]][None]
    if n > DENSE_MAX_N:
        axes = tuple(range(-d, 0)) if stacked else None
        mult = factor if stacked else factor[0]
        return lambda u: np.fft.ifftn(np.fft.fftn(u, axes=axes) * mult, axes=axes)
    if d == 1 and not stacked:
        return factor[0].dot
    if d == 1:
        return lambda u: np.matmul(factor, u[..., None])[..., 0]
    rows, prop_a, prop_t = len(factor), factor[:, None], factor.transpose(0, 2, 1)

    def flow(u: np.ndarray) -> np.ndarray:
        # field b's axis a is the middle axis of row b of (R, B n^a / R, n, rest)
        shape = u.shape
        for a in range(d - 1):
            u = prop_a @ u.reshape(rows, -1, n, n ** (d - 1 - a))
        return np.matmul(u.reshape(rows, -1, n), prop_t).reshape(shape)

    return flow


def plane_wave_exact(alpha: complex, kappa, cfg: SolverConfig, t: float) -> GridField:
    """alpha e^{i(kappa.x - |kappa|^2 t/2)/eps} e^{-i lambda t |alpha|^{2 sigma}} on the grid."""
    inv = _check_eps(cfg.eps)
    if isinstance(kappa, WaveVector):
        coords = kappa.coords
    else:
        coords = tuple(int(c) for c in kappa)
    d, n = len(coords), cfg.n
    norm_sq = sum(c * c for c in coords)
    grid = 2 * math.pi * np.arange(n) / n
    phase = np.zeros((n,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n
        phase = phase + (coords[axis] * inv) * grid.reshape(shape)
    modulation = np.exp(
        -0.5j * norm_sq * inv * t - 1j * cfg.lam * t * abs(alpha) ** (2 * cfg.sigma)
    )
    values = alpha * np.exp(1j * phase) * modulation
    return GridField(d, n, values)


def w_norm_of_field(u: GridField) -> float:
    """l1 sum of discrete Fourier coefficient magnitudes: the grid W norm."""
    coef = np.fft.fftn(u.values) / u.n**u.d
    return float(np.sum(np.abs(coef)))


def sup_norm_of_field(u: GridField) -> float:
    return float(np.max(np.abs(u.values)))
