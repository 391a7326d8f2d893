"""Absolutely summable Fourier norms and their algebra/isometry properties.

The W norm of f = sum_k b_k e^{i k.x} is sum_k |b_k|.  On the line the same
object discretizes ||f_hat||_{L^1}: coefficients live on a frequency grid of
spacing dxi and the norm picks up a dxi^d quadrature weight.  Both cases share
one representation, FourierSeries, with dxi = 1 meaning a plain exponential
sum on the torus.

The E norm of a profile family is the sum of per-mode W norms; assembling the
family onto carriers kappa_j / eps (all distinct) turns the E norm into the W
norm of the assembled function, exactly on the torus and as an upper bound on
the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "FourierSeries",
    "ProfileSpectrum",
    "w_norm",
    "e_norm",
    "substitution_isometry_check",
    "free_propagator",
]

PRUNE_TOLERANCE = 1e-30  # coefficients below this absolute size are dropped


def _normalize_key(k) -> tuple[int, ...]:
    if isinstance(k, int):
        return (k,)
    key = tuple(int(c) for c in k)
    return key


@dataclass(frozen=True)
class FourierSeries:
    """Finite sum over an integer frequency grid: f = sum_k b_k e^{i (k*dxi).x}.

    terms maps integer d-tuples to complex coefficients.  dxi is the physical
    frequency spacing of the grid (1 for torus series, 2*pi/L for a length-L
    box acting as a Fourier-transform surrogate).
    """

    terms: Mapping[tuple[int, ...], complex]
    dxi: float = 1.0

    def __post_init__(self):
        cleaned = {}
        d = None
        for k, v in self.terms.items():
            key = _normalize_key(k)
            if d is None:
                d = len(key)
            elif len(key) != d:
                raise ValueError("mixed frequency dimensions in one series")
            c = complex(v)
            if abs(c) >= PRUNE_TOLERANCE:
                cleaned[key] = cleaned.get(key, 0j) + c
        object.__setattr__(self, "terms", cleaned)
        if self.dxi <= 0:
            raise ValueError("frequency spacing must be positive")

    @property
    def dim(self) -> int:
        for k in self.terms:
            return len(k)
        return 1  # dimension of the zero series is immaterial

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        self._check_compatible(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0j) + v
        return FourierSeries(out, self.dxi)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + other.scaled(-1)

    def scaled(self, c: complex) -> "FourierSeries":
        return FourierSeries({k: c * v for k, v in self.terms.items()}, self.dxi)

    def __mul__(self, other: "FourierSeries") -> "FourierSeries":
        """Pointwise product of the functions: exact coefficient convolution."""
        self._check_compatible(other)
        out: dict = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, 0j) + va * vb
        return FourierSeries(out, self.dxi)

    def conjugate(self) -> "FourierSeries":
        return FourierSeries(
            {tuple(-c for c in k): v.conjugate() for k, v in self.terms.items()},
            self.dxi,
        )

    def dilated(self, factor: int) -> "FourierSeries":
        """Frequency map k -> factor*k, realizing x -> x/eps with factor = 1/eps."""
        if factor != int(factor) or factor <= 0:
            raise ValueError("dilation factor must be a positive integer")
        factor = int(factor)
        out: dict = {}
        for k, v in self.terms.items():
            key = tuple(factor * c for c in k)
            out[key] = out.get(key, 0j) + v
        return FourierSeries(out, self.dxi)

    def shifted(self, offset: Sequence[int]) -> "FourierSeries":
        off = tuple(int(c) for c in offset)
        out: dict = {}
        for k, v in self.terms.items():
            key = tuple(a + b for a, b in zip(k, off))
            out[key] = out.get(key, 0j) + v
        return FourierSeries(out, self.dxi)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f at points; x has shape (..., d) or (...,) when d = 1."""
        x = np.asarray(x, dtype=float)
        if self.dim == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x[..., None]
        out = np.zeros(x.shape[:-1], dtype=complex)
        for k, v in self.terms.items():
            kappa = np.array(k, dtype=float) * self.dxi
            out = out + v * np.exp(1j * (x @ kappa))
        return out

    def _check_compatible(self, other: "FourierSeries") -> None:
        if abs(self.dxi - other.dxi) > 1e-15 * max(self.dxi, other.dxi):
            raise ValueError("series live on different frequency grids")

    @classmethod
    def zero(cls, dxi: float = 1.0) -> "FourierSeries":
        return cls({}, dxi)

    @classmethod
    def from_grid(cls, values: np.ndarray, length: float) -> "FourierSeries":
        """Discrete transform of samples on a uniform periodic box of side length.

        The coefficients are `_box_coefficients` of the samples on the grid
        xi_k = k * (2 pi / length).
        """
        values = np.asarray(values, dtype=complex)
        n = values.shape[0]
        if any(s != n for s in values.shape):
            raise ValueError("grid must have equal extent per dimension")
        coef = _box_coefficients(values, length, values.ndim)
        freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        keys = np.stack(np.meshgrid(*[freqs] * values.ndim, indexing="ij"), axis=-1)
        kept = np.abs(coef) >= PRUNE_TOLERANCE
        terms = dict(zip(map(tuple, keys[kept].tolist()), coef[kept].tolist()))
        return cls(terms, dxi=2 * math.pi / length)


def _box_coefficients(values: np.ndarray, length: float, d: int) -> np.ndarray:
    """b_k = (2 pi)^(-d/2) * dx^d * sum_m f(x_m) e^{-i xi_k x_m} over the last
    d axes of values, samples of f on the uniform periodic box [0, length)^d.

    The rectangle-rule surrogate of the unitary Fourier transform on the
    grid xi_k = k * dxi, dxi = 2 pi / length, in FFT order; dxi^d * sum |b_k|
    is the W norm of f's `from_grid` series.
    """
    values = np.asarray(values, dtype=complex)
    dx = length / values.shape[-1]
    axes = tuple(range(values.ndim - d, values.ndim))
    return np.fft.fftn(values, axes=axes) * (dx**d * (2 * math.pi) ** (-d / 2))


@dataclass(frozen=True)
class ProfileSpectrum:
    """Per-mode discrete spectra of Euclidean profiles plus their carriers.

    spectra[j] is the FourierSeries of profile a_j on a shared grid; carriers[j]
    is the integer wave vector kappa_j whose oscillation e^{i kappa_j.x/eps}
    multiplies a_j in the assembled two-scale function.
    """

    spectra: tuple[FourierSeries, ...]
    carriers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "spectra", tuple(self.spectra))
        object.__setattr__(
            self, "carriers", tuple(_normalize_key(c) for c in self.carriers)
        )
        if len(self.spectra) != len(self.carriers):
            raise ValueError("one carrier per spectrum required")
        if not self.spectra:
            return
        dxi = self.spectra[0].dxi
        for s in self.spectra[1:]:
            if abs(s.dxi - dxi) > 1e-15 * dxi:
                raise ValueError("spectra must share grid metadata")

    @property
    def dxi(self) -> float:
        return self.spectra[0].dxi if self.spectra else 1.0

    def assembled(self, eps: float) -> FourierSeries:
        """Spectrum of sum_j a_j(x) e^{i kappa_j.x/eps} on the shared grid.

        Each carrier frequency kappa_j/eps must be a grid frequency, i.e. an
        integer multiple of dxi; otherwise the shift is not representable.
        """
        total = FourierSeries.zero(self.dxi)
        for series, kappa in zip(self.spectra, self.carriers):
            offset = []
            for c in kappa:
                shift = c / (eps * self.dxi)
                if abs(shift - round(shift)) > 1e-9:
                    raise ValueError(
                        f"carrier component {c}/eps is not on the frequency grid "
                        f"(spacing {self.dxi}); choose the box length accordingly"
                    )
                offset.append(int(round(shift)))
            total = total + series.shifted(offset)
        return total


def w_norm(f) -> float:
    """Quadrature-weighted l1 norm of the coefficients: dxi^d * sum |b_k|."""
    if isinstance(f, FourierSeries):
        if not f.terms:
            return 0.0
        weight = f.dxi ** f.dim
        return weight * math.fsum(abs(v) for v in f.terms.values())
    raise TypeError(f"w_norm expects a FourierSeries, got {type(f).__name__}")


def e_norm(a) -> float:
    """Aggregate profile size: sum_j |a_j| (torus) or sum_j w_norm(a_j_hat)."""
    if isinstance(a, ProfileSpectrum):
        return math.fsum(w_norm(s) for s in a.spectra)
    amps = getattr(a, "amps", a)
    arr = np.asarray(amps)
    if arr.size == 0:
        return 0.0
    return float(np.sum(np.abs(arr)))


def substitution_isometry_check(f, eps: float) -> tuple[float, float]:
    """Compare a norm before and after the fast-scale substitution x -> x/eps.

    FourierSeries input (torus): returns (w_norm(f), w_norm of the dilated
    series with frequencies k -> k/eps); the two are equal because the dilation
    is injective on the lattice.  Requires 1/eps to be a positive integer.

    ProfileSpectrum input (Euclidean surrogate): returns (sum_j w_norm(a_j_hat),
    w_norm of the assembled spectrum with carriers kappa_j/eps); the second is
    at most the first, with equality iff no shifted supports overlap.
    """
    if isinstance(f, ProfileSpectrum):
        return e_norm(f), w_norm(f.assembled(eps))
    if not isinstance(f, FourierSeries):
        raise TypeError("expected a FourierSeries or ProfileSpectrum")
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-9 or round(inv) < 1:
        raise ValueError("torus substitution needs 1/eps to be a positive integer")
    return w_norm(f), w_norm(f.dilated(int(round(inv))))


def free_propagator(f: FourierSeries, t: float, eps: float) -> FourierSeries:
    """Apply U^eps(t) = e^{i eps t Laplacian / 2}: b_k -> e^{-i eps t |kappa_k|^2/2} b_k.

    A modulus-one multiplier per coefficient, so the W norm is unchanged.
    """
    out = {}
    for k, v in f.terms.items():
        kappa = tuple(c * f.dxi for c in k)
        out[k] = complex(np.exp(-0.5j * eps * t * sum(c * c for c in kappa))) * v
    return FourierSeries(out, f.dxi)
