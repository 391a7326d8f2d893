import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsoptics.lattice_geometry import ModeSet, WaveVector
from nlsoptics.small_divisors import (
    fit_generalized_bound,
    gram_diophantine_probe,
    survey_divisors,
)


def wv(*coords):
    return WaveVector(tuple(coords))


def modeset(coords, sigma=1):
    return ModeSet.from_vectors([wv(*c) for c in coords], sigma, saturated=True)


small_sets = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=3,
    unique=True,
)


class TestSurvey:
    def test_two_mode_line(self):
        s = survey_divisors(modeset([(0,), (1,)]))
        assert s.tuples_scanned == 8
        assert s.nonresonant_count == 2
        assert s.min_delta == 2
        assert s.argmin == (0, 1, 0)
        assert not s.all_resonant

    def test_single_mode_all_resonant(self):
        s = survey_divisors(modeset([(5,)]))
        assert s.all_resonant
        assert s.min_delta is None
        assert s.argmin is None

    def test_square_min_defect_is_two(self):
        s = survey_divisors(modeset([(0, 0), (0, 1), (1, 0), (1, 1)]))
        assert s.min_delta == 2
        assert s.tuples_scanned == 4**3

    def test_weighted_minimum(self):
        # b=2 weights each slot by 1+|kappa|^2; argmin tuple (0,1,0) scores 2*2=4
        modes = modeset([(0,), (1,)])
        (b, c), = fit_generalized_bound(modes, b_grid=(2.0,))
        assert b == 2.0 and math.isclose(c, 4.0)
        assert survey_divisors(modes).min_delta == 2

    def test_defects_even_for_cubic_integer_modes(self):
        s = survey_divisors(modeset([(1, 2), (-1, 0), (3, 1)]))
        assert s.min_delta is not None and s.min_delta % 2 == 0

    def test_bad_sigma_rejected(self):
        # sigma comes from the mode set, which rejects sigma < 1 before any survey
        with pytest.raises(ValueError):
            survey_divisors(modeset([(0,), (1,)], sigma=0))

    @given(small_sets, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, coords, shift):
        base = survey_divisors(modeset(coords))
        moved = survey_divisors(
            modeset([(a + shift[0], b + shift[1]) for a, b in coords])
        )
        assert moved.min_delta == base.min_delta
        assert moved.nonresonant_count == base.nonresonant_count

    @given(small_sets)
    @settings(max_examples=40, deadline=None)
    def test_minimum_matches_brute_force(self, coords):
        modes = modeset(coords)
        arr = modes.as_array()
        best = None
        for idx in np.ndindex(*(len(coords),) * 3):
            signs = (1, -1, 1)
            vec = sum(s * arr[i] for s, i in zip(signs, idx))
            nsum = sum(s * int(arr[i] @ arr[i]) for s, i in zip(signs, idx))
            delta = abs(int(vec @ vec) - nsum)
            if delta > 0 and (best is None or delta < best):
                best = delta
        assert survey_divisors(modes).min_delta == best


class TestGeneralizedFit:
    def test_b_zero_recovers_min_delta(self):
        modes = modeset([(0, 1), (1, 0), (1, 1)])
        (b0, c0), = fit_generalized_bound(modes, b_grid=(0.0,))
        assert b0 == 0.0
        assert c0 == survey_divisors(modes).min_delta

    def test_matches_weighted_survey(self):
        modes = modeset([(0,), (1,), (2,)])
        grid = (0.5, 1.0, 2.0)
        *_, weighted = brute_force_survey(modes.as_array().tolist(), 1, grid)
        for b, w in zip(grid, weighted):
            (_, c), = fit_generalized_bound(modes, b_grid=(b,))
            assert math.isclose(c, w, rel_tol=1e-12)

    def test_all_resonant_yields_none(self):
        out = fit_generalized_bound(modeset([(3,)]), b_grid=(0.0, 1.0))
        assert out == [(0.0, None), (1.0, None)]

    def test_overflowing_bound_raises_naming_b(self):
        # c(100) of {60, 61} is 2 * 3661^100, past the largest float; None
        # would read as an empty non-resonant set
        modes = modeset([(60,), (61,)])
        assert fit_generalized_bound(modes, b_grid=(0.0, 1.0)) == [
            (0.0, 2.0), (1.0, pytest.approx(439381.03, rel=1e-8))
        ]
        with pytest.raises(OverflowError, match=r"at b=100$"):
            fit_generalized_bound(modes, b_grid=(0.0, 1.0, 100.0))

    def test_negative_b_rejected(self):
        with pytest.raises(ValueError):
            fit_generalized_bound(modeset([(0,), (1,)]), b_grid=(-1.0,))

    @given(small_sets)
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_b(self, coords):
        grid = (0.0, 0.5, 1.0, 2.0)
        out = fit_generalized_bound(modeset(coords), b_grid=grid)
        values = [c for _, c in out]
        if values[0] is None:
            assert all(v is None for v in values)
        else:
            assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))


def brute_force_survey(coords, sigma, b_grid):
    """Every tuple in lexicographic order: (nonresonant count, min |delta|,
    its first tuple, min over nonresonant tuples of |delta| prod <kappa>^b per b)."""
    arr = [np.array(c) for c in coords]
    logs = [0.5 * math.log1p(int(a @ a)) for a in arr]
    count, best, first = 0, None, None
    weighted = [math.inf] * len(b_grid)
    for tup in itertools.product(range(len(arr)), repeat=2 * sigma + 1):
        signs = [1 if p % 2 == 0 else -1 for p in range(len(tup))]
        vec = sum(s * arr[i] for s, i in zip(signs, tup))
        nsum = sum(s * int(arr[i] @ arr[i]) for s, i in zip(signs, tup))
        delta = abs(int(vec @ vec) - nsum)
        if delta == 0:
            continue
        count += 1
        if best is None or delta < best:
            best, first = delta, tup
        logw = sum(logs[i] for i in tup)
        for k, b in enumerate(b_grid):
            weighted[k] = min(weighted[k], delta * math.exp(b * logw))
    return count, best, first, weighted


class TestBlockedSurveyBruteForce:
    B_GRID = (0.0, 0.5, 1.0, 2.5)

    @pytest.mark.parametrize(
        "coords,sigma",
        [
            ([(0, 0), (2, 0), (1, 3), (-1, 1), (3, 2)], 1),
            ([(-2,), (0,), (1,), (3,)], 2),
        ],
    )
    def test_survey_and_fit(self, coords, sigma):
        modes = modeset(coords, sigma=sigma)
        count, best, first, weighted = brute_force_survey(
            modes.as_array().tolist(), sigma, self.B_GRID
        )
        s = survey_divisors(modes)
        assert s.tuples_scanned == len(coords) ** (2 * sigma + 1)
        assert s.nonresonant_count == count
        assert s.min_delta == best
        assert s.argmin == first  # lexicographically first minimizer
        fit = fit_generalized_bound(modes, b_grid=self.B_GRID)
        for (_, c), w in zip(fit, weighted):
            assert math.isclose(c, w, rel_tol=1e-12)

    def test_minimum_attained_many_times(self):
        # the argmin must be the first of several minimizers, not any one
        modes = modeset([(0, 0), (2, 0), (1, 3), (-1, 1), (3, 2)])
        arr = modes.as_array()
        s = survey_divisors(modes)
        hits = [
            tup for tup in itertools.product(range(5), repeat=3)
            if abs(2 * int((arr[tup[1]] - arr[tup[0]]) @ (arr[tup[1]] - arr[tup[2]])))
            == s.min_delta
        ]
        assert len(hits) > 1 and s.argmin == hits[0]

    @pytest.mark.parametrize("sigma", [1, 2])
    def test_single_mode_all_resonant(self, sigma):
        modes = modeset([(4, -1)], sigma=sigma)
        s = survey_divisors(modes)
        assert s.all_resonant and s.tuples_scanned == 1
        assert s.min_delta is None and s.argmin is None
        assert fit_generalized_bound(modes, b_grid=(0.0, 2.0)) == [(0.0, None), (2.0, None)]


class TestGramProbe:
    def test_single_generator(self):
        probe = gram_diophantine_probe([[2]])
        assert probe.p == 1
        assert probe.minimum == 4.0
        assert probe.exact_minimum == Fraction(4)
        assert abs(probe.beta_argmin[0][0]) == 1
        assert probe.sum_abs_beta == 1
        assert not probe.partial
        assert not probe.zero_combinations

    def test_orthonormal_pair(self):
        probe = gram_diophantine_probe([[1, 0], [0, 1]])
        assert probe.minimum == 1.0
        assert probe.exact_minimum == Fraction(1)
        assert probe.sum_abs_beta == 1
        # the zero off-diagonal admits exact vanishing combinations
        assert probe.zero_combinations

    def test_rational_combination_floor(self):
        # common denominator 9, so any nonzero value is at least 1/9, attained
        probe = gram_diophantine_probe([[1, 0], [0, Fraction(1, 3)]])
        assert probe.exact_minimum == Fraction(1, 9)
        assert math.isclose(probe.minimum, 1 / 9)
        beta = np.array(probe.beta_argmin)
        assert abs(beta).sum() == 1 and beta[1][1] != 0

    def test_beta_entries_respect_bound(self):
        probe = gram_diophantine_probe(
            [[1, 1], [Fraction(1, 2), 3]], beta_bound=4
        )
        beta = np.array(probe.beta_argmin)
        assert np.all(np.abs(beta) <= 4)
        # symmetrized coefficients reproduce the reported exact minimum
        gram = np.array(
            [
                [Fraction(2), Fraction(7, 2)],
                [Fraction(7, 2), Fraction(37, 4)],
            ]
        )
        val = sum(
            int(beta[i][j]) * gram[i][j] for i in range(2) for j in range(2)
        )
        assert abs(val) == probe.exact_minimum

    def test_float_generators_report_approximate(self):
        probe = gram_diophantine_probe([[1.0, 0.0], [0.0, math.sqrt(2)]])
        assert probe.exact_minimum is None
        # float rounding of sqrt(2)^2 leaves a ~4e-16 residue the scan finds
        assert 0 < probe.minimum < 1e-14
        assert probe.zero_combinations

    def test_budget_marks_partial(self):
        probe = gram_diophantine_probe(
            [[1, 0, 0], [0, Fraction(2, 3), 0], [0, 0, Fraction(3, 5)]],
            budget=1000,
        )
        assert probe.partial
        assert probe.combos_scanned >= 1000
        assert probe.minimum > 0

    def test_weighted_probe_outputs(self):
        probe = gram_diophantine_probe([[1, 0], [0, Fraction(1, 3)]], b_prime=2.0)
        assert probe.b_prime == 2.0
        assert math.isclose(
            probe.c_prime_at_argmin, probe.minimum * probe.sum_abs_beta**2
        )
        assert probe.c_prime_scan <= probe.c_prime_at_argmin + 1e-12

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            gram_diophantine_probe([[1]], beta_bound=0)
        with pytest.raises(ValueError):
            gram_diophantine_probe([])
        with pytest.raises(ValueError):
            gram_diophantine_probe([[1, 0], [1]])
        # no bound finds a nonzero combination of an all-zero Gram matrix
        for gens in ([[0, 0], [0, "0/3"]], [[0.0]], [[1e-200]]):
            with pytest.raises(ValueError, match="every Gram entry is zero"):
                gram_diophantine_probe(gens, beta_bound=64)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            gram_diophantine_probe([[2**40]])
        # a Gram entry past int64 is refused before numpy converts it
        with pytest.raises(OverflowError, match="too large for exact scan"):
            gram_diophantine_probe([["1/3"], ["7000000000"]])

    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(-5, 5)), min_size=1, max_size=2
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_integer_generators_have_integer_minimum(self, gens):
        try:
            probe = gram_diophantine_probe(list(map(list, gens)), beta_bound=3)
        except ValueError:
            return  # everything vanished; needs a larger bound than the test uses
        assert probe.exact_minimum is not None
        assert probe.exact_minimum.denominator == 1
        assert probe.exact_minimum >= 1
