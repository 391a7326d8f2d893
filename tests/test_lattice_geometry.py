import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsoptics.lattice_geometry import (
    ClosureWarning,
    ModeSet,
    WaveVector,
    close_under_resonances,
    complete_rectangle,
    enumerate_interactions,
    resonance_defect,
)
from nlsoptics.lattice_geometry import (
    _creation_scan,
    _defect_blocks,
    _prefix_sums,
    _row_finder,
)


def wv(*coords):
    return WaveVector(tuple(coords))


def closure(vectors, sigma, **kw):
    return close_under_resonances([wv(*c) for c in vectors], sigma, **kw)


def closure_checked(vectors, sigma, **kw):
    """closure(), asserting that it warns, once with a ClosureWarning and
    with nothing else, exactly when the result is unsaturated."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = closure(vectors, sigma, **kw)
    assert [w.category for w in caught] == [ClosureWarning] * (not s.saturated)
    return s


class TestWaveVector:
    def test_arithmetic(self):
        a, b = wv(1, 2), wv(3, -1)
        assert (a + b).coords == (4, 1)
        assert (a - b).coords == (-2, 3)
        assert (-a).coords == (-1, -2)
        assert a.dot(b) == 1
        assert a.norm_sq == 5
        assert b.sup_norm == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wv(1, 2).dot(wv(1))

    def test_integer_coords_required(self):
        with pytest.raises(TypeError):
            WaveVector((1.5, 2.0))

    @pytest.mark.parametrize(
        "coords", [(True, 0), (0, False), (True,), (np.bool_(True), 1), (True, 0.5)]
    )
    def test_bool_coords_rejected(self, coords):
        with pytest.raises(TypeError):
            WaveVector(coords)

    def test_numpy_integer_coords_coerced(self):
        v = WaveVector((np.int64(2), -1))
        assert v.coords == (2, -1) and type(v.coords[0]) is int


class TestResonanceDefect:
    def test_exact_integer(self):
        # (k - l + m) pattern with a right angle: defect 0
        k, l, m = wv(0, 1), wv(1, 1), wv(1, 0)
        assert resonance_defect([k, l, m]) == 0

    def test_cubic_identity(self):
        # defect of (i, j, k) equals 2 (kj - ki) . (kj - kk)
        rng = np.random.default_rng(7)
        for _ in range(200):
            ki, kj, kk = (wv(*rng.integers(-9, 10, size=3)) for _ in range(3))
            expected = 2 * (kj - ki).dot(kj - kk)
            assert resonance_defect([ki, kj, kk]) == expected

    def test_odd_length_required(self):
        with pytest.raises(ValueError):
            resonance_defect([wv(1), wv(2)])

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            min_size=3,
            max_size=7,
        ).filter(lambda v: len(v) % 2 == 1),
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    )
    def test_translation_invariance(self, coords, shift):
        # alternating-sign sums leave one net copy of the shift; the defect
        # cancels it exactly
        vecs = [wv(*c) for c in coords]
        shifted = [wv(*(a + s for a, s in zip(c, shift))) for c in coords]
        assert resonance_defect(vecs) == resonance_defect(shifted)

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            min_size=3,
            max_size=3,
        )
    )
    def test_cubic_defect_even(self, coords):
        assert resonance_defect([wv(*c) for c in coords]) % 2 == 0


class TestCompleteRectangle:
    def test_square_corner(self):
        assert complete_rectangle(wv(0, 1), wv(1, 1), wv(1, 0)) == wv(0, 0)

    def test_degenerate_pairs_none(self):
        k, m = wv(0, 1), wv(1, 0)
        assert complete_rectangle(k, k, m) is None
        assert complete_rectangle(k, m, m) is None

    def test_non_orthogonal_none(self):
        assert complete_rectangle(wv(0, 1), wv(0, 0), wv(1, 1)) is None


class TestGoldenClosures:
    def test_square_creates_zero_mode(self):
        s = closure([(0, 1), (1, 0), (1, 1)], 1)
        assert [v.coords for v in s.vectors] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert s.generations[s.index(wv(0, 0))] == 1
        assert s.saturated

    def test_skew_triple_creates_one(self):
        s = closure([(1, 1), (1, 2), (3, 2)], 1)
        created = [v for v, g in zip(s.vectors, s.generations) if g > 0]
        assert created == [wv(3, 1)]
        assert s.saturated

    def test_two_generation_cascade(self):
        # this seed spans the lattice, so the closure keeps growing; the
        # first two generations are the documented golden content
        with pytest.warns(ClosureWarning):
            s = closure([(-1, 1), (0, 1), (0, 0), (1, 0)], 1,
                        max_generations=2)
        gen1 = {v.coords for v, g in zip(s.vectors, s.generations) if g == 1}
        gen2 = {v.coords for v, g in zip(s.vectors, s.generations) if g == 2}
        assert gen1 == {(1, 1), (-1, 0)}
        assert gen2 == {(0, 2), (0, -1)}
        assert not s.saturated

    def test_1d_cubic_never_creates(self):
        s = closure([(-3,), (1,), (4,)], 1)
        assert len(s.vectors) == 3 and s.saturated

    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_two_modes_never_create(self, sigma):
        s = closure([(0,), (2,)], sigma)
        assert len(s.vectors) == 2 and s.saturated

    def test_quintic_creates_three(self):
        s = closure([(-1,), (0,), (2,)], 2)
        created = [v for v, g in zip(s.vectors, s.generations) if g > 0]
        assert wv(3,) in created
        assert s.saturated

    def test_square_plus_zero_already_saturated(self):
        s = closure([(0, 0), (0, 1), (1, 0), (1, 1)], 1)
        assert len(s.vectors) == 4 and s.saturated
        assert all(g == 0 for g in s.generations)

    def test_mode_lattice_box_golden(self):
        # the 81-mode box of perfbench's mode_lattice workload, pinned from
        # the prefix-kernel scan
        with pytest.warns(ClosureWarning):
            s = closure([(0, 0), (1, 0), (0, 1), (2, 1)], 1, max_generations=8,
                        max_sup_norm=4, record_edges=True)
        assert [v.coords for v in s.vectors] == [
            (x, y) for x in range(-4, 5) for y in range(-4, 5)
        ]
        assert np.array(s.generations).reshape(9, 9).tolist() == [
            [7, 7, 7, 6, 7, 7, 6, 7, 7],
            [7, 6, 6, 6, 5, 5, 6, 6, 6],
            [6, 6, 6, 5, 5, 5, 5, 6, 6],
            [6, 6, 5, 4, 3, 3, 4, 4, 6],
            [6, 5, 4, 3, 0, 0, 2, 4, 5],
            [6, 5, 4, 2, 0, 1, 1, 3, 5],
            [6, 5, 4, 3, 1, 0, 2, 4, 5],
            [6, 6, 5, 4, 3, 3, 4, 4, 6],
            [7, 6, 6, 5, 5, 5, 5, 6, 6],
        ]
        assert not s.saturated and len(s.creation_edges) == 1774
        assert s.creation_edges[0] == (((1, 0), (0, 0), (0, 1)), (1, 1), 1)
        assert s.creation_edges[-1] == (((3, -4), (4, 3), (-3, 4)), (-4, -3), 7)
        digest = hashlib.sha256(repr(s.creation_edges).encode()).hexdigest()
        assert digest == "69257f5690a08c0e8def72ea7165f2b2200343185790d9194fdd8a9ed5211e63"


class TestClosureLimits:
    def test_norm_truncation_warns_and_unsaturates(self):
        # the skew triple would create (3, 1), which the cap blocks
        with pytest.warns(ClosureWarning):
            s = closure([(1, 1), (1, 2), (3, 2)], 1, max_sup_norm=2)
        assert not s.saturated
        assert len(s.vectors) == 3

    def test_generation_budget_marks_unsaturated(self):
        with pytest.warns(ClosureWarning):
            s = closure([(-1, 1), (0, 1), (0, 0), (1, 0)], 1, max_generations=1)
        assert not s.saturated
        assert max(s.generations) == 1

    def test_final_scan_finds_the_set_complete(self):
        # the one generation creates (0, 0); the scan after the budget finds
        # nothing more, so the closure is saturated and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClosureWarning)
            s = closure([(0, 1), (1, 0), (1, 1)], 1, max_generations=1)
        assert s.saturated
        assert [v.coords for v in s.vectors] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert s.generations == (1, 0, 0, 0)

    def test_final_scan_finds_only_corners_beyond_the_cap(self):
        # generation 1 creates (2, 1), within the cap; every corner the scan
        # after the budget finds has sup norm above 2, so the cap decides
        with pytest.warns(ClosureWarning, match="sup-norm cap"):
            s = closure([(-1, -1), (-1, 1), (1, 0), (2, -1)], 1,
                        max_generations=1, max_sup_norm=2)
        assert not s.saturated
        assert [v.coords for v in s.vectors] == [(-1, -1), (-1, 1), (1, 0), (2, -1), (2, 1)]
        # without the cap, a second generation creates (3, 0) and saturates
        wide = closure([(-1, -1), (-1, 1), (1, 0), (2, -1)], 1, max_generations=2)
        assert wide.saturated
        assert [v.coords for v, g in zip(wide.vectors, wide.generations) if g == 2] == [(3, 0)]


def _hnf_membership(diffs, target):
    """Exact integer test: is target in the lattice spanned by diffs?

    Column-style Hermite reduction with Fractions kept exact; membership is
    solvability of the triangular system over the integers.
    """
    basis = [list(d) for d in diffs]
    dim = len(target)
    # Gaussian elimination over Q tracking the lattice: use the Smith-style
    # gcd sweep on columns instead, dimension is tiny
    import math as _m

    rows = [list(c) for c in zip(*basis)] if basis else [[] for _ in range(dim)]
    # build a column HNF by repeated gcd on the first nonzero row entries
    cols = [list(c) for c in basis]
    pivots = []
    r = 0
    while r < dim and cols:
        cols = [c for c in cols if any(c[r:])]
        live = [c for c in cols if c[r] != 0]
        if not live:
            r += 1
            continue
        while len([c for c in cols if c[r] != 0]) > 1:
            live = sorted((c for c in cols if c[r] != 0), key=lambda c: abs(c[r]))
            a, b = live[0], live[1]
            q = b[r] // a[r]
            for i in range(dim):
                b[i] -= q * a[i]
            cols = [c for c in cols if any(c)]
        pivot = next(c for c in cols if c[r] != 0)
        pivots.append((r, pivot))
        cols = [c for c in cols if c is not pivot]
        r += 1
    t = list(target)
    for r, col in pivots:
        if t[r] % col[r] != 0:
            return False
        q = t[r] // col[r]
        for i in range(len(t)):
            t[i] -= q * col[i]
    return all(v == 0 for v in t)


small_vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


class TestClosureProperties:
    @given(st.lists(small_vec, min_size=1, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_idempotent(self, coords):
        s = closure_checked(coords, 1, max_sup_norm=32)
        for c in coords:
            assert wv(*c) in s.vectors
        # idempotence is claimed for closed sets only; re-closing a set cut at
        # the generation cap grows it again, at a cost of minutes and gigabytes
        if s.saturated:
            again = close_under_resonances(list(s.vectors), 1, max_sup_norm=32)
            assert again.vectors == s.vectors
            assert all(g == 0 for g in again.generations)

    @given(
        st.lists(small_vec, min_size=1, max_size=4, unique=True),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance(self, coords, shift):
        s0 = closure_checked(coords, 1, max_sup_norm=64)
        shifted = [tuple(a + b for a, b in zip(c, shift)) for c in coords]
        s1 = closure_checked(shifted, 1, max_sup_norm=64 + 10)
        if s0.saturated and s1.saturated:
            moved = sorted(
                wv(*(a + b for a, b in zip(v.coords, shift))) for v in s0.vectors
            )
            assert list(s1.vectors) == moved

    @given(st.lists(small_vec, min_size=2, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_confined_to_affine_lattice(self, coords):
        # every created vector is base + integer combination of differences
        s = closure_checked(coords, 1, max_sup_norm=32)
        base = coords[0]
        diffs = [
            tuple(a - b for a, b in zip(c, base)) for c in coords[1:]
        ]
        for v, g in zip(s.vectors, s.generations):
            if g > 0:
                target = tuple(a - b for a, b in zip(v.coords, base))
                assert _hnf_membership(diffs, target)


class TestEnumerateInteractions:
    def brute_force(self, modes, j, sigma):
        vecs = modes.vectors
        out = []
        for tup in itertools.product(range(len(vecs)), repeat=2 * sigma + 1):
            combo = None
            for p, idx in enumerate(tup):
                v = vecs[idx] if p % 2 == 0 else -vecs[idx]
                combo = v if combo is None else combo + v
            if combo != vecs[j]:
                continue
            chain = [vecs[i] for i in tup] + [vecs[j]]
            # defect of the full (2 sigma + 2)-phase combination: the target
            # enters with sign -1, equivalently compare characteristic sums
            lhs = sum(
                (+1 if p % 2 == 0 else -1) * vecs[i].norm_sq
                for p, i in enumerate(tup)
            )
            if lhs == vecs[j].norm_sq:
                out.append(tup)
        return sorted(out)

    @pytest.mark.parametrize(
        "vectors,sigma",
        [
            ([(0, 0), (0, 1), (1, 0), (1, 1)], 1),
            ([(0,), (1,)], 1),
            ([(-1,), (0,), (2,), (3,)], 2),
            ([(1, 1), (1, 2), (3, 1), (3, 2)], 1),
            # 2D at sigma=2: plus and minus widths (3 vs 2) and both axes matter
            ([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)], 2),
        ],
    )
    def test_matches_brute_force(self, vectors, sigma):
        modes = ModeSet.from_vectors([wv(*c) for c in vectors], sigma)
        for j in range(len(modes.vectors)):
            got = [t.indices for t in enumerate_interactions(modes, j)]
            assert got == self.brute_force(modes, j, sigma)  # lexicographic order

    def test_random_sets_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            nv = int(rng.integers(2, 7))
            seen = set()
            while len(seen) < nv:
                seen.add(tuple(int(x) for x in rng.integers(-3, 4, size=d)))
            modes = ModeSet.from_vectors([wv(*c) for c in seen], 1)
            for j in range(len(modes.vectors)):
                got = sorted(t.indices for t in enumerate_interactions(modes, j))
                assert got == self.brute_force(modes, j, 1)

    def test_square_zero_mode_cross_tuples(self):
        modes = closure([(0, 0), (0, 1), (1, 0), (1, 1)], 1)
        tuples = {t.indices for t in enumerate_interactions(modes, 0)}
        # self interactions plus the two rectangle orderings
        assert (1, 3, 2) in tuples and (2, 3, 1) in tuples


class TestBlockedKernel:
    """The prefix-sum kernel behind closure and divisor surveys, and the
    enumeration joined from the coupling classes."""

    def test_prefix_sums_lexicographic_and_signed(self):
        arr = np.array([[1, -2], [0, 3], [4, 1]], dtype=np.int64)
        want = [
            sum((1 if p % 2 == 0 else -1) * arr[i] for p, i in enumerate(pre))
            for pre in itertools.product(range(3), repeat=3)
        ]
        assert np.array_equal(_prefix_sums(arr, 3), np.array(want))

    def test_prefix_sums_round_like_python_sum(self):
        w = np.array([0.1, 0.7, 1.3, 2.9]) / 3.0
        want = [sum(w[i] for i in pre) for pre in itertools.product(range(4), repeat=3)]
        assert _prefix_sums(w, 3, alternate=False).tolist() == want

    @pytest.mark.parametrize("sigma", [1, 2])
    def test_defect_blocks_match_resonance_defect(self, sigma):
        vecs = [wv(0, 0), wv(1, 2), wv(-1, 1), wv(3, -2)]
        arr = np.array([v.coords for v in vecs], dtype=np.int64)
        blocks = list(_defect_blocks(arr, sigma))
        assert len(blocks) == len(vecs)  # one block per leading index
        assert [start for start, _ in blocks] == [
            i * 4 ** (2 * sigma - 1) for i in range(4)
        ]
        flat = np.concatenate([defects.ravel() for _, defects in blocks])
        want = [
            resonance_defect([vecs[i] for i in tup])
            for tup in itertools.product(range(4), repeat=2 * sigma + 1)
        ]
        assert flat.tolist() == want

    @given(
        st.one_of(
            st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                     min_size=1, max_size=40, unique=True),
            # collinear sets: points of one line through a lattice point
            st.tuples(
                st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                st.lists(st.integers(-2, 2), min_size=1, max_size=5, unique=True),
            ).map(lambda t: [(t[0][0] + s * t[1][0], t[0][1] + s * t[1][1])
                             for s in (t[2] if t[1] != (0, 0) else t[2][:1])]),
        ),
        st.lists(st.booleans(), min_size=40, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_right_angle_join_matches_prefix_kernel(self, coords, flags):
        # the sigma=1 2D scan is a join on perpendicular lines; embedded in
        # 3D the same set goes through the prefix kernel, and both scans
        # return the same arrays, bit for bit
        arr = np.array(sorted(coords), dtype=np.int64)
        new_mask = np.array(flags[:len(arr)])
        idx, made = _creation_scan(arr, new_mask, 1)
        flat = np.column_stack([arr, np.zeros(len(arr), dtype=np.int64)])
        want_idx, want_made = _creation_scan(flat, new_mask, 1)
        assert idx.dtype == want_idx.dtype and made.dtype == want_made.dtype
        assert np.array_equal(idx, want_idx) and idx.shape == want_idx.shape
        assert not want_made[:, 2].any()
        assert np.array_equal(made, want_made[:, :2]) and made.shape[1] == 2

    def test_row_finder(self):
        arr = np.array([[2, 0], [-1, 5], [0, 0], [2, 5]], dtype=np.int64)
        find = _row_finder(arr)
        rows = np.array([[0, 0], [2, 5], [-1, 0], [9, 9], [2, 0], [-1, 5], [0, 5]])
        assert find(rows).tolist() == [2, 3, -1, -1, 0, 1, -1]
        assert find(np.empty((0, 2), dtype=np.int64)).tolist() == []

    @pytest.mark.parametrize(
        "vectors,sigma",
        [([(0, 0), (1, 0), (0, 2), (3, 1)], 1), ([(-1,), (0,), (2,)], 2)],
    )
    def test_one_pass_covers_every_target(self, vectors, sigma):
        modes = closure(vectors, sigma, max_sup_norm=6)
        vecs, n = modes.vectors, len(modes)
        want = {j: [] for j in range(n)}
        for tup in itertools.product(range(n), repeat=2 * sigma + 1):
            chain = [vecs[i] for i in tup]
            combo = chain[0]
            for p, v in enumerate(chain[1:], start=1):
                combo = combo - v if p % 2 else combo + v
            if combo in vecs and resonance_defect(chain) == 0:
                want[modes.index(combo)].append(tup)
        for j in range(n):
            got = enumerate_interactions(modes, j)
            assert all(t.target == j for t in got)
            assert [t.indices for t in got] == want[j]  # lexicographic order

    def test_creation_edges_golden(self):
        # lists as the per-triple rectangle scan and the per-prefix general
        # scan produced them, order included
        s = closure([(0, 0), (1, 0), (0, 2), (3, 1)], 1, max_sup_norm=6,
                    record_edges=True)
        assert s.creation_edges == (
            (((1, 0), (0, 0), (0, 2)), (1, 2), 1),
            (((0, 2), (0, 0), (1, 0)), (1, 2), 1),
            (((0, 2), (1, 0), (3, 1)), (2, 3), 1),
            (((3, 1), (1, 0), (0, 2)), (2, 3), 1),
            (((0, 0), (1, 2), (3, 1)), (2, -1), 2),
            (((3, 1), (1, 2), (0, 0)), (2, -1), 2),
        )
        # the right-angle vertex leads: indices (1, 2, 3), (3, 2, 1), (0, 3, 2),
        # (2, 3, 0) in input order, not lexicographic
        s = closure([(-2, 1), (0, 2), (0, -2), (-2, -2)], 1, max_sup_norm=3,
                    record_edges=True)
        assert s.saturated and s.creation_edges == (
            (((0, 2), (0, -2), (-2, -2)), (-2, 2), 1),
            (((-2, -2), (0, -2), (0, 2)), (-2, 2), 1),
            (((-2, 1), (-2, -2), (0, -2)), (0, 1), 1),
            (((0, -2), (-2, -2), (-2, 1)), (0, 1), 1),
        )
        s = closure([(-1,), (0,), (2,)], 2, max_sup_norm=6, record_edges=True)
        assert s.creation_edges == (
            (((-1,), (0,), (2,), (0,), (2,)), (3,), 1),
            (((2,), (0,), (-1,), (0,), (2,)), (3,), 1),
            (((2,), (0,), (2,), (0,), (-1,)), (3,), 1),
        )

