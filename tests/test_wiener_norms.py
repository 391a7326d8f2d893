import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsoptics.wiener_norms import (
    FourierSeries,
    e_norm,
    free_propagator,
    substitution_isometry_check,
    w_norm,
)

coeffs = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


def series_1d(max_size=6):
    return st.dictionaries(
        st.tuples(st.integers(-5, 5)), coeffs, max_size=max_size
    ).map(lambda terms: FourierSeries(terms))


def series_2d(max_size=5):
    return st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), coeffs, max_size=max_size
    ).map(lambda terms: FourierSeries(terms))


class TestNormBasics:
    def test_plane_wave(self):
        f = FourierSeries({(3,): 2.0 - 1.0j})
        assert math.isclose(w_norm(f), abs(2.0 - 1.0j))

    def test_zero_series(self):
        assert w_norm(FourierSeries.zero()) == 0.0
        assert w_norm(FourierSeries({(1,): 0.0})) == 0.0

    def test_quadrature_weight(self):
        f = FourierSeries({(1,): 1.0, (4,): 2.0}, dxi=0.25)
        assert math.isclose(w_norm(f), 0.25 * 3.0)

    def test_weight_scales_with_dimension(self):
        f = FourierSeries({(1, 0): 1.0}, dxi=0.5)
        assert math.isclose(w_norm(f), 0.25)

    def test_rejects_non_series(self):
        with pytest.raises(TypeError):
            w_norm(np.array([1.0, 2.0]))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            FourierSeries({(1,): 1.0, (1, 2): 1.0})

    def test_integer_keys_normalized(self):
        f = FourierSeries({2: 1.0})
        assert (2,) in f.terms

    def test_keys_that_normalize_alike_are_summed_then_pruned(self):
        assert FourierSeries({2: 1.0, (2,): -1.0}).terms == {}

    def test_pairs_accumulate_in_order(self):
        f = FourierSeries([((1,), 0.1), (1, 0.2), ((-1,), 1j), ((1,), 0.3)])
        assert f.terms == {(1,): (0.1 + 0.2) + 0.3 + 0j, (-1,): 1j}


class TestAlgebraProperties:
    @given(series_1d(), series_1d())
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, f, g):
        assert w_norm(f + g) <= w_norm(f) + w_norm(g) + 1e-12

    @given(series_1d(), series_1d())
    @settings(max_examples=60, deadline=None)
    def test_submultiplicative(self, f, g):
        bound = w_norm(f) * w_norm(g)
        assert w_norm(f * g) <= bound + 1e-10 * (1.0 + bound)

    @given(series_2d(), series_2d())
    @settings(max_examples=30, deadline=None)
    def test_submultiplicative_2d(self, f, g):
        bound = w_norm(f) * w_norm(g)
        assert w_norm(f * g) <= bound + 1e-10 * (1.0 + bound)

    @given(series_1d())
    @settings(max_examples=60, deadline=None)
    def test_conjugate_invariance(self, f):
        assert w_norm(f.conjugate()) == w_norm(f)

    @given(series_1d(), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, f, off):
        assert w_norm(f.shifted((off,))) == w_norm(f)

    def test_product_coefficients_exact(self):
        cos2 = FourierSeries({(1,): 1.0, (-1,): 1.0})
        sq = cos2 * cos2
        assert sq.terms == {(2,): 1.0 + 0j, (0,): 2.0 + 0j, (-2,): 1.0 + 0j}

    def test_incompatible_grids_rejected(self):
        f = FourierSeries({(1,): 1.0}, dxi=1.0)
        g = FourierSeries({(1,): 1.0}, dxi=0.5)
        with pytest.raises(ValueError):
            f + g
        with pytest.raises(ValueError):
            f * g


class TestDilationAndSubstitution:
    @given(series_1d(), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_dilation_is_isometric(self, f, m):
        assert w_norm(f.dilated(m)) == w_norm(f)

    @given(series_2d(), st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_dilation_is_isometric_2d(self, f, m):
        assert w_norm(f.dilated(m)) == w_norm(f)

    def test_dilation_rejects_bad_factor(self):
        f = FourierSeries({(1,): 1.0})
        for bad in (0, -2, 1.5):
            with pytest.raises(ValueError):
                f.dilated(bad)

    def test_substitution_check_torus(self):
        f = FourierSeries({(1,): 0.5, (-2,): 1.5j})
        before, after = substitution_isometry_check(f, 1 / 8)
        assert before == after == 2.0

    def test_substitution_check_needs_integer_inverse(self):
        f = FourierSeries({(1,): 1.0})
        with pytest.raises(ValueError):
            substitution_isometry_check(f, 0.3)

    def test_substitution_check_type(self):
        with pytest.raises(TypeError):
            substitution_isometry_check([1.0], 0.5)


class TestPropagator:
    @given(series_1d(), st.floats(-3, 3), st.sampled_from([1.0, 0.5, 0.125]))
    @settings(max_examples=60, deadline=None)
    def test_norm_preserved(self, f, t, eps):
        assert math.isclose(
            w_norm(free_propagator(f, t, eps)), w_norm(f), rel_tol=1e-12, abs_tol=1e-12
        )

    def test_phase_values(self):
        f = FourierSeries({(3,): 1.0})
        g = free_propagator(f, 0.7, 0.25)
        expected = np.exp(-0.5j * 0.25 * 0.7 * 9)
        assert abs(g.terms[(3,)] - expected) < 1e-15

    def test_group_property(self):
        f = FourierSeries({(1,): 1.0, (-2,): 0.5j, (4,): 0.25})
        one = free_propagator(free_propagator(f, 0.3, 0.5), 0.9, 0.5)
        two = free_propagator(f, 1.2, 0.5)
        diff = one - two
        assert w_norm(diff) < 1e-14

    def test_respects_physical_frequencies(self):
        # on a dxi grid the multiplier sees kappa = k*dxi, not the integer index
        f = FourierSeries({(2,): 1.0}, dxi=0.5)
        g = free_propagator(f, 1.0, 1.0)
        assert abs(g.terms[(2,)] - np.exp(-0.5j * 1.0)) < 1e-15


class TestENorm:
    def test_e_norm_of_amplitude_views(self):
        class Holder:
            amps = np.array([1.0, -2.0j, 0.5])

        assert math.isclose(e_norm(Holder()), 3.5)
        assert math.isclose(e_norm(np.array([3.0, 4.0j])), 7.0)
        assert e_norm(np.array([])) == 0.0


class TestFromGrid:
    def test_plane_wave_single_bin(self):
        # fft rounding leaves dust in the other bins; it must stay negligible
        length, n, k = 8.0, 64, 3
        x = np.arange(n) * (length / n)
        values = np.exp(1j * k * (2 * math.pi / length) * x)
        f = FourierSeries.from_grid(values, length)
        assert math.isclose(
            abs(f.terms[(k,)]), length / math.sqrt(2 * math.pi), rel_tol=1e-12
        )
        assert all(abs(v) < 1e-12 for kk, v in f.terms.items() if kk != (k,))
        assert math.isclose(w_norm(f), math.sqrt(2 * math.pi), rel_tol=1e-9)

    def test_round_trip_evaluation(self):
        # evaluating the series at the grid gives (2 pi)^(-1/2) * length * f
        length, n = 10.0, 32
        x = np.arange(n) * (length / n)
        rng = np.random.default_rng(7)
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = FourierSeries.from_grid(values, length)
        back = f.evaluate(x) * math.sqrt(2 * math.pi) / length
        assert np.max(np.abs(back - values)) < 1e-10

    def test_gaussian_norm_approximates_continuum(self):
        # coefficients surrogate the unitary transform, so the norm tends to
        # || f_hat ||_{L^1} = int e^{-xi^2/2} dxi = sqrt(2 pi) for f = e^{-x^2/2}
        length, n = 40.0, 512
        x = np.arange(n) * (length / n) - length / 2
        f = FourierSeries.from_grid(np.exp(-0.5 * x**2).astype(complex), length)
        assert abs(w_norm(f) - math.sqrt(2 * math.pi)) < 1e-6

    def test_rectangular_grid_rejected(self):
        with pytest.raises(ValueError):
            FourierSeries.from_grid(np.ones((4, 8), dtype=complex), 1.0)
