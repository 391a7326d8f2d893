"""Small-divisor surveys over non-resonant tuples and Diophantine probes.

The divisor of a (2*sigma+1)-tuple is the absolute resonance defect delta; the
tuples with delta > 0 drive the non-characteristic remainder, and a lower
bound on delta over them controls it after one integration by parts in time.
On an integer lattice delta is a positive integer, so the bound is 1 for free.
For generic real generators no finite scan can prove a bound; the Gram probe
below only searches for small values of |sum beta_ij kappa_i.kappa_j| as
falsification evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .lattice_geometry import ModeSet, _defect_blocks, _prefix_sums

__all__ = [
    "DivisorSurvey",
    "GramProbe",
    "survey_divisors",
    "fit_generalized_bound",
    "gram_diophantine_probe",
]


@dataclass(frozen=True)
class DivisorSurvey:
    """Defect statistics over all ordered tuples of a mode set.

    min_delta and argmin are None exactly when every tuple is resonant (the
    distinguished all-resonant outcome, e.g. a single mode).  The wave
    vectors are integer, so every defect is an integer and min_delta >= 1.
    The weighted minima c(b) for b > 0 are fit_generalized_bound's; c(0) is
    min_delta.
    """

    sigma: int
    tuples_scanned: int
    nonresonant_count: int
    min_delta: Optional[int]
    argmin: Optional[tuple[int, ...]]

    @property
    def all_resonant(self) -> bool:
        return self.nonresonant_count == 0


def survey_divisors(modes: ModeSet) -> DivisorSurvey:
    """Scan all tuples in J^(2*sigma+1), sigma = modes.sigma, recording the
    nonzero-defect minimum.

    Each defect block of the lattice kernel (_defect_blocks, one leading
    index l_1 per block, rows in lexicographic order) is reduced as it
    comes: count, running minimum, and the lexicographically first argmin.
    """
    sigma = modes.sigma
    n, width = len(modes), 2 * sigma + 1
    nonres = 0
    best: Optional[int] = None
    best_at = 0
    for start, defects in _defect_blocks(modes.as_array(), sigma):
        absd = np.abs(defects)
        mask = absd > 0
        count = int(np.count_nonzero(mask))
        if count == 0:
            continue
        nonres += count
        local = int(absd[mask].min())
        if best is None or local < best:
            best = local
            best_at = start * n + int(np.argmax(absd.ravel() == local))
    return DivisorSurvey(
        sigma=sigma,
        tuples_scanned=n**width,
        nonresonant_count=nonres,
        min_delta=best,
        argmin=None if best is None else tuple(
            int(i) for i in np.unravel_index(best_at, (n,) * width)
        ),
    )


def fit_generalized_bound(
    modes: ModeSet, b_grid: Sequence[float] = (0.0,)
) -> list[tuple[float, Optional[float]]]:
    """Largest admissible constant c(b) = min over non-resonant tuples of
    |delta| * prod_p <kappa_p>^b, for each b in b_grid, sigma = modes.sigma.

    Since <kappa> >= 1, c(b) is nondecreasing in b.  Returns (b, c) pairs;
    c is None when the non-resonant set is empty, and a non-empty set whose
    c(b) overflows a float raises OverflowError naming b.  Each defect
    block of _defect_blocks updates a running minimum per b; a tuple's log
    weight, the sum of log <kappa_p> = log(1 + |kappa_p|^2) / 2 over its
    slots, is added slot by slot.
    """
    sigma = modes.sigma
    for b in b_grid:
        if b < 0:
            raise ValueError("b must be nonnegative")
    log_weights = 0.5 * np.log1p(np.array([v.norm_sq for v in modes.vectors], dtype=float))
    prefix = _prefix_sums(log_weights, 2 * sigma, alternate=False)
    best = [math.inf] * len(b_grid)
    nonres = False
    for start, defects in _defect_blocks(modes.as_array(), sigma):
        absd = np.abs(defects)
        mask = absd > 0
        if not mask.any():
            continue
        nonres = True
        logw = prefix[start:start + len(defects), None] + log_weights
        delta, logw = absd[mask].astype(float), logw[mask]
        # an inf term raises below if it is c(b), and cannot be c(b) otherwise
        with np.errstate(over="ignore"):
            for i, b in enumerate(b_grid):
                best[i] = min(best[i], float(np.min(delta * np.exp(b * logw))))
    for b, c in zip(b_grid, best):
        if nonres and not math.isfinite(c):
            raise OverflowError(f"c(b) overflows a float at b={b:g}")
    return [(float(b), c if nonres else None) for b, c in zip(b_grid, best)]


@dataclass(frozen=True)
class GramProbe:
    """Result of the integer-combination scan over a Gram matrix.

    minimum is the smallest nonzero |sum_{i,j} beta_ij G_ij| over scanned
    combinations; beta_argmin realizes it with entries bounded by the
    configured beta_bound.  exact_minimum is set when the generators were
    rational (and then minimum == float(exact_minimum) after re-verification).
    Combinations that vanish identically are excluded from the minimum but
    flagged in zero_combinations: for a nonzero beta they witness an exact
    rational relation among the Gram entries (orthogonal or rationally
    dependent generators), the degenerate situation a generic choice avoids.
    """

    p: int
    beta_bound: int
    combos_scanned: int
    partial: bool
    minimum: float
    exact_minimum: Optional[Fraction]
    beta_argmin: tuple[tuple[int, ...], ...]
    sum_abs_beta: int
    zero_combinations: bool
    b_prime: Optional[float]
    c_prime_at_argmin: Optional[float]
    c_prime_scan: Optional[float]


def _common_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of values (1 when empty)."""
    return math.lcm(*(v.denominator for v in values))


def _parse_generators(generators):
    """Return (rows, rational) with rows as Fractions when exactly representable."""
    rows = []
    rational = True
    for vec in generators:
        row = []
        for c in vec:
            if isinstance(c, float):
                rational = False
                row.append(c)
            else:
                row.append(Fraction(c))
        rows.append(row)
    if not rows:
        raise ValueError("at least one generator required")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise ValueError("generators must share one dimension")
    return rows, rational


def gram_diophantine_probe(
    generators: Sequence[Sequence],
    beta_bound: int = 6,
    *,
    b_prime: Optional[float] = None,
    budget: int = 10_000_000,
) -> GramProbe:
    """Scan for the smallest nonzero |sum beta_ij kappa_i.kappa_j| over
    integer matrices beta != 0 with entries bounded by beta_bound.

    Because the Gram matrix is symmetric, only the symmetrized combination
    m_ij = beta_ij + beta_ji matters; the scan runs over upper-triangle
    coefficients (diagonal in [-B, B], off-diagonal sums in [-2B, 2B]) and
    reconstructs a realizing beta with entries within [-B, B].  Purely
    antisymmetric matrices annihilate the Gram form identically, so they are
    outside the scanned (and meaningful) space.  Combinations that evaluate
    to exactly zero are excluded from the minimum (for generic generators
    they never occur) and reported through zero_combinations.  Raises
    ValueError when every Gram entry, so every combination, is zero.

    Rational generators are scanned in exact integer arithmetic; float
    generators use extended-precision accumulation and the reported minimum
    is then approximate.  When the coefficient space exceeds the budget the
    scan stops early and is flagged partial.
    """
    if beta_bound < 1:
        raise ValueError("beta_bound must be a positive integer")
    rows, rational = _parse_generators(generators)
    p = len(rows)

    if rational:
        denom = _common_denominator(c for r in rows for c in r)
        int_rows = [[int(c * denom) for c in r] for r in rows]
        gram_exact = [
            [
                Fraction(sum(a * b for a, b in zip(int_rows[i], int_rows[j])), denom * denom)
                for j in range(p)
            ]
            for i in range(p)
        ]
        q = _common_denominator(g for row in gram_exact for g in row)
        scaled = [[int(g * q) for g in row] for row in gram_exact]
        # the scan works on q*value as int64; guard against overflow on the
        # exact ints, before any of them is converted
        cap = sum(abs(g) for row in scaled for g in row) * 2 * beta_bound * p * p
        if cap >= 2**62:
            raise OverflowError("rational generators too large for exact scan")
        gram_scaled = np.array(scaled, dtype=np.int64)
        gvals_dtype = np.int64
    else:
        gram_scaled = np.array(
            [
                [
                    math.fsum(float(a) * float(b) for a, b in zip(rows[i], rows[j]))
                    for j in range(p)
                ]
                for i in range(p)
            ],
            dtype=np.longdouble,
        )
        q = 1
        gvals_dtype = np.longdouble

    if not gram_scaled.any():  # the diagonal holds the squared norms
        raise ValueError("every Gram entry is zero, so is every combination: the "
                         "generators are zero or their squares underflow")

    # free coefficients: diagonal entries then upper-triangle pair sums
    coeffs = []  # (gram value in scan units, range array)
    positions = []
    diag_range = np.arange(-beta_bound, beta_bound + 1)
    off_range = np.arange(-2 * beta_bound, 2 * beta_bound + 1)
    for i in range(p):
        coeffs.append((gram_scaled[i, i], diag_range))
        positions.append((i, i))
    for i in range(p):
        for j in range(i + 1, p):
            coeffs.append((gram_scaled[i, j], off_range))
            positions.append((i, j))

    # vectorize over the trailing coefficients whose combined range fits in memory
    tail_size = 1
    split = len(coeffs)
    while split > 0 and tail_size * len(coeffs[split - 1][1]) <= 1_000_000:
        tail_size *= len(coeffs[split - 1][1])
        split -= 1
    head, tail = coeffs[:split], coeffs[split:]

    tail_vals = np.zeros(1, dtype=gvals_dtype)
    tail_abs = np.zeros(1, dtype=np.int64)
    for g, rng in tail:
        tail_vals = (tail_vals[:, None] + g * rng[None, :]).ravel()
        tail_abs = (tail_abs[:, None] + np.abs(rng)[None, :]).ravel()
    # entry r of the tail tables is the combination at index r of this shape
    tail_shape = [len(rng) for _, rng in tail]

    best_val = None
    best_digits = None
    best_abs = 0
    best_cprime = math.inf
    zero_found = False
    scanned = 0
    partial = False

    head_ranges = [rng for _, rng in head]
    head_gs = [g for g, _ in head]
    for head_combo in itertools.product(*[r.tolist() for r in head_ranges]):
        head_val = sum(g * c for g, c in zip(head_gs, head_combo))
        head_abs = sum(abs(c) for c in head_combo)
        vals = np.abs(tail_vals + head_val)
        abss = tail_abs + head_abs
        nz = (abss > 0) & (vals != 0)
        zero_found = zero_found or bool(np.any((abss > 0) & (vals == 0)))
        scanned += len(vals)
        if nz.any():
            v = vals[nz]
            a = abss[nz]
            k = int(np.lexsort((a, v))[0])  # min value, then min support
            if (
                best_val is None
                or v[k] < best_val
                or (v[k] == best_val and a[k] < best_abs)
            ):
                best_val = v[k]
                best_abs = int(a[k])
                at = np.unravel_index(np.nonzero(nz)[0][k], tail_shape)
                best_digits = tuple(head_combo) + tuple(
                    int(rng[i]) for (_, rng), i in zip(tail, at)
                )
            if b_prime is not None:
                weighted = v.astype(float) * (a.astype(float) ** b_prime) / float(q)
                wmin = float(weighted.min())
                if wmin < best_cprime:
                    best_cprime = wmin
        if scanned >= budget:
            partial = True
            break

    if best_val is None:  # a Gram entry is nonzero, so the scan stopped early
        raise ValueError(
            "the partial scan found no combination with nonzero value; increase budget"
        )

    # reconstruct a realizing beta matrix with entries within [-B, B]
    beta = [[0] * p for _ in range(p)]
    for (i, j), c in zip(positions, best_digits):
        if i == j:
            beta[i][i] = int(c)
        else:
            hi = int(math.ceil(c / 2))
            beta[i][j] = hi
            beta[j][i] = int(c) - hi

    exact_min = None
    if rational:
        exact_min = Fraction(0)
        for (i, j), c in zip(positions, best_digits):
            exact_min += int(c) * gram_exact[i][j]
        exact_min = abs(exact_min)
        minimum = float(exact_min)
    else:
        minimum = float(best_val)

    sum_abs = sum(abs(beta[i][j]) for i in range(p) for j in range(p))
    c_at = None
    if b_prime is not None:
        c_at = minimum * (sum_abs ** b_prime)
    return GramProbe(
        p=p,
        beta_bound=beta_bound,
        combos_scanned=scanned,
        partial=partial,
        minimum=minimum,
        exact_minimum=exact_min,
        beta_argmin=tuple(tuple(r) for r in beta),
        sum_abs_beta=sum_abs,
        zero_combinations=zero_found,
        b_prime=b_prime,
        c_prime_at_argmin=c_at,
        c_prime_scan=None if b_prime is None else best_cprime,
    )
