"""Integer wave vectors, resonance defects, and resonance closure.

A plane-wave phase with wave vector kappa is phi(t,x) = kappa.x - t|kappa|^2/2,
the solution of the eikonal equation d_t phi + |grad phi|^2/2 = 0 with linear
initial data.  A (2*sigma+1)-tuple of wave vectors is resonant when its
alternating-sign combination is again characteristic, i.e. when

    |sum_p (-1)^(p+1) kappa_p|^2  ==  sum_p (-1)^(p+1) |kappa_p|^2.

Everything here is exact integer arithmetic: wave vectors are integer, so
every defect is an integer and a nonzero defect is at least 1 in absolute value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "WaveVector",
    "ModeSet",
    "ResonantTuple",
    "ClosureWarning",
    "resonance_defect",
    "complete_rectangle",
    "close_under_resonances",
    "enumerate_interactions",
]


class ClosureWarning(UserWarning):
    """Raised as a warning when a closure run hits a truncation limit."""


@dataclass(frozen=True, order=True)
class WaveVector:
    """Integer lattice vector kappa; equality and ordering are componentwise."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) == 0:
            raise ValueError("wave vector needs at least one coordinate")
        # bools are ints in python, reject them anyway
        if any(isinstance(c, (bool, np.bool_)) for c in self.coords):
            raise TypeError("wave vector coordinates must be integers")
        if not all(isinstance(c, int) for c in self.coords):
            coerced = []
            for c in self.coords:
                ic = int(c)
                if ic != c:
                    raise TypeError("wave vector coordinates must be integers")
                coerced.append(ic)
            object.__setattr__(self, "coords", tuple(coerced))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def norm_sq(self) -> int:
        return sum(c * c for c in self.coords)

    @property
    def sup_norm(self) -> int:
        return max(abs(c) for c in self.coords)

    def dot(self, other: "WaveVector") -> int:
        _check_dim(self, other)
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def __add__(self, other: "WaveVector") -> "WaveVector":
        _check_dim(self, other)
        return WaveVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "WaveVector") -> "WaveVector":
        _check_dim(self, other)
        return WaveVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "WaveVector":
        return WaveVector(tuple(-a for a in self.coords))

    def __repr__(self) -> str:
        return f"WaveVector({self.coords})"


def _check_dim(a: WaveVector, b: WaveVector) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True)
class ResonantTuple:
    """Ordered index tuple (l_1, ..., l_{2 sigma + 1}) resonant toward mode j."""

    indices: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class ModeSet:
    """A finite set of wave vectors closed (or truncated) under resonances.

    The vectors are integer lattice vectors in the units of the input, and
    sigma >= 1 is checked here, so every consumer takes sigma from the set.
    Vectors are kept in lexicographic order; this ordering is the canonical
    index set J that all downstream modules use.  ``generations[i]`` is the
    closure generation at which ``vectors[i]`` first appeared (0 for initial
    data).  ``saturated`` is True iff a full creation scan produced nothing new
    within limits, i.e. the set is genuinely closed.
    """

    d: int
    sigma: int
    vectors: tuple[WaveVector, ...]
    generations: tuple[int, ...]
    saturated: bool
    creation_edges: tuple = ()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.sigma < 1:
            raise ValueError("sigma must be a positive integer")
        if len(self.vectors) != len(self.generations):
            raise ValueError("vectors and generations must be aligned")
        if any(v.dim != self.d for v in self.vectors):
            raise ValueError("all vectors must share the ModeSet dimension")
        if len(set(self.vectors)) != len(self.vectors):
            raise ValueError("duplicate vectors in ModeSet")
        if list(self.vectors) != sorted(self.vectors):
            raise ValueError("ModeSet vectors must be in lexicographic order")

    def __len__(self) -> int:
        return len(self.vectors)

    def index(self, v: WaveVector) -> int:
        try:
            return self._index_map[v]
        except KeyError:
            raise ValueError(f"{v} not in ModeSet") from None

    @property
    def _index_map(self) -> dict:
        # frozen dataclass, cache on first use
        m = self.__dict__.get("_index_map_cache")
        if m is None:
            m = {v: i for i, v in enumerate(self.vectors)}
            self.__dict__["_index_map_cache"] = m
        return m

    def as_array(self) -> np.ndarray:
        """Vectors as an (n, d) int64 array."""
        return np.array([v.coords for v in self.vectors], dtype=np.int64)

    @property
    def max_sup_norm(self) -> int:
        return max(v.sup_norm for v in self.vectors)

    @classmethod
    def from_vectors(
        cls,
        vectors: Iterable[WaveVector],
        sigma: int,
        *,
        generations: Optional[Sequence[int]] = None,
        saturated: bool = False,
    ) -> "ModeSet":
        vecs = list(vectors)
        if not vecs:
            raise ValueError("empty vector list")
        d = vecs[0].dim
        gens = list(generations) if generations is not None else [0] * len(vecs)
        order = sorted(range(len(vecs)), key=lambda i: vecs[i])
        return cls(
            d=d,
            sigma=sigma,
            vectors=tuple(vecs[i] for i in order),
            generations=tuple(gens[i] for i in order),
            saturated=saturated,
        )


def resonance_defect(vectors: Sequence[WaveVector]) -> int:
    """Exact defect |sum_p (-1)^(p+1) kappa_p|^2 - sum_p (-1)^(p+1) |kappa_p|^2.

    The list length must be odd (2*sigma+1 for some sigma >= 1 or a single
    vector, which trivially gives 0).  Zero defect means the alternating
    combination is characteristic.
    """
    n = len(vectors)
    if n % 2 == 0 or n == 0:
        raise ValueError("resonance defect needs an odd number of vectors")
    d = vectors[0].dim
    for v in vectors:
        if v.dim != d:
            raise ValueError("dimension mismatch in resonance_defect")
    acc = [0] * d
    norms = 0
    for p, v in enumerate(vectors):
        sign = 1 if p % 2 == 0 else -1
        for i, c in enumerate(v.coords):
            acc[i] += sign * c
        norms += sign * v.norm_sq
    return sum(c * c for c in acc) - norms


def complete_rectangle(
    k: WaveVector, l: WaveVector, m: WaveVector
) -> Optional[WaveVector]:
    """Fourth rectangle corner opposite l, if (k, l, m) carries a right angle at l.

    Returns kappa_k - kappa_l + kappa_m when (kappa_l - kappa_m).(kappa_l - kappa_k) == 0
    and the configuration is non-degenerate (k != l and m != l); the two
    degenerate configurations resonate but create nothing, so they return None.
    """
    _check_dim(k, l)
    _check_dim(l, m)
    if k == l or m == l:
        return None
    if (l - m).dot(l - k) != 0:
        return None
    return k - l + m


def _prefix_sums(per_mode: np.ndarray, length: int, *, alternate: bool = True) -> np.ndarray:
    """Sums of per_mode over all ordered index prefixes (l_1, ..., l_length).

    Row r belongs to the prefix whose base-|J| digits are r (lexicographic
    order).  Slot p (1-based) enters with sign (-1)^(p+1) when alternate,
    else +1.  Slots are added one at a time from zero, so a float row rounds
    exactly like sum(per_mode[l] for l in prefix).
    """
    acc = np.zeros((1,) + per_mode.shape[1:], dtype=per_mode.dtype)
    for p in range(length):
        term = -per_mode if alternate and p % 2 else per_mode
        acc = (acc[:, None] + term[None]).reshape((-1,) + per_mode.shape[1:])
    return acc


def _defect_blocks(arr: np.ndarray, sigma: int):
    """Resonance defects of all ordered (2*sigma+1)-tuples of rows of arr.

    The int64 prefix sums vec = sum +-kappa and nsum = sum +-|kappa|^2 of all
    2*sigma-prefixes are built once; the tuples are then visited in blocks
    of one leading index l_1, so no |J|^(2 sigma + 1) table is ever held.
    Yields (start, defects) per block: defects[r, m] = |vec[r] + kappa_m|^2
    - nsum[r] - |kappa_m|^2 = |vec[r]|^2 - nsum[r] + 2 vec[r].kappa_m is the
    defect of (prefix number start + r, m).
    """
    n, d = arr.shape
    _check_defect_range(arr, sigma)
    norms = np.einsum("ij,ij->i", arr, arr)
    sums = _prefix_sums(np.column_stack([arr, norms]), 2 * sigma)
    vec = sums[:, :d]
    base = np.einsum("ij,ij->i", vec, vec) - sums[:, d]
    rows = n ** (2 * sigma - 1)
    for start in range(0, len(sums), rows):
        v = vec[start:start + rows]
        yield start, base[start:start + rows, None] + 2 * (v @ arr.T)


def _check_defect_range(arr: np.ndarray, sigma: int) -> None:
    """Refuse wave vectors whose (2*sigma+1)-tuple defects overflow int64."""
    if arr.shape[1] * ((2 * sigma + 1) * int(np.abs(arr).max())) ** 2 >= 2**62:
        raise OverflowError("wave vectors too large for exact int64 defects")


def _row_finder(arr: np.ndarray):
    """find(rows) -> index of each row of rows in arr, or -1 where absent.

    Coordinates are replaced by their rank among arr's values on their axis,
    so the mixed-radix int64 code of a row stays below |J|^d.
    """
    axes = [np.unique(col) for col in arr.T]
    sizes = [len(v) for v in axes]

    def encode(rows):
        ranks = [np.searchsorted(v, c).clip(max=len(v) - 1) for v, c in zip(axes, rows.T)]
        hit = np.all([v[r] == c for v, r, c in zip(axes, ranks, rows.T)], axis=0)
        return np.ravel_multi_index(ranks, sizes), hit

    codes = encode(arr)[0]
    order = np.argsort(codes)
    ranked = codes[order]

    def find(rows):
        code, hit = encode(rows)
        pos = np.minimum(np.searchsorted(ranked, code), len(ranked) - 1)
        return np.where(hit & (ranked[pos] == code), order[pos], -1)

    return find


def _line_codes(offsets: np.ndarray, bound: int) -> np.ndarray:
    """An int64 code of the line through 0 of each nonzero 2D offset row,
    equal for offsets on one line and distinct otherwise.

    The line's primitive direction (a, b) is signed so that a > 0, or a == 0
    and b > 0; with |a|, |b| <= bound the code is a*(2 bound + 1) + b + bound.
    """
    p = offsets // np.gcd(offsets[:, 0], offsets[:, 1])[:, None]
    p *= np.sign(np.where(p[:, 0] != 0, p[:, 0], p[:, 1]))[:, None]
    return p[:, 0] * (2 * bound + 1) + p[:, 1] + bound


def _right_angles(arr: np.ndarray, touch: np.ndarray) -> list[np.ndarray]:
    """Every (k, l, m) of distinct rows of a 2D arr with a right angle at l
    and at least one of k, l, m flagged in touch.

    (kappa_k - kappa_l).(kappa_m - kappa_l) == 0 exactly when kappa_k -
    kappa_l lies on the line of the rotated offset rot(kappa_m - kappa_l),
    rot(a, b) = (-b, a).  Every ordered pair (l, v), v != l, is keyed by l
    and the line of its offset; every pair (l, m) with l or m flagged is
    keyed by l and the line of its rotated offset, and joined with the pairs
    (l, k) of the same key by the sort/searchsorted/repeat idiom of
    _interaction_table.  A right angle whose only flagged vertex is k is the
    mirror (m, l, k) of one found with m flagged.  O(|J|^2 log |J| + output)
    in integer arithmetic.  Within the int64 defect range the line codes fit
    in int64, and they are ranked before l enters the key, so no key
    overflows.  Returns the index columns [k, l, m], unordered.
    """
    n = len(arr)
    bound = int(arr.max() - arr.min())  # bounds every offset coordinate
    l, v = np.divmod(np.flatnonzero(~np.eye(n, dtype=bool)), n)
    offsets = arr[v] - arr[l]
    outer = np.flatnonzero(touch[l] | touch[v])
    rotated = offsets[outer, ::-1] * [-1, 1]
    lines, rank = np.unique(
        np.concatenate([_line_codes(offsets, bound), _line_codes(rotated, bound)]),
        return_inverse=True,
    )
    key = np.concatenate([l, l[outer]]) * len(lines) + rank
    by_key = np.argsort(key[:len(l)])
    ranked = key[by_key]
    lo = np.searchsorted(ranked, key[len(l):])
    count = np.searchsorted(ranked, key[len(l):], side="right") - lo
    pair = np.repeat(np.arange(len(outer)), count)
    member = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    k, l, m = v[by_key[lo[pair] + member]], l[outer[pair]], v[outer[pair]]
    flip = ~(touch[k] | touch[l])
    return [np.concatenate([k, m[flip]]), np.concatenate([l, l[flip]]),
            np.concatenate([m, k[flip]])]


def _creation_scan(arr: np.ndarray, new_mask: np.ndarray, sigma: int):
    """Resonant tuples of rows of arr whose combined vector is not a row.

    For sigma=1 the resonant triples (k, l, m) are the right angles at l,
    and the combined vector kappa_k - kappa_l + kappa_m is the fourth
    rectangle corner.  In 2D a right angle pairs the line of one offset with
    the perpendicular line of the other, and a line is a key, so the
    candidates come from a join on lines (_right_angles).  In d >= 3 the
    perpendicular of a line is a plane, which is no key, and sigma >= 2 has
    no right angle to join on: there the candidates are the zero-defect
    tuples of the prefix kernel (_defect_blocks), which the divisor survey
    also keeps, since it visits every tuple by definition.  Both paths
    refuse the same vectors (the int64 defect range) and give the same
    arrays.  When new_mask flags any row, only tuples touching a flagged
    row are kept (the others were handled in an earlier generation); then
    those whose combined vector is a row of arr (by _row_finder) are
    dropped.  Returns (idx, made): the index rows and created coordinates,
    in lexicographic order, for sigma=1 with l leading.
    """
    touch = new_mask | ~new_mask.any()
    if sigma == 1 and arr.shape[1] == 2:
        _check_defect_range(arr, sigma)
        cols = _right_angles(arr, touch)
    else:
        parts = []
        for start, defects in _defect_blocks(arr, sigma):
            r, m = np.nonzero(defects == 0)
            parts.append((start + r, m))
        prefix, last = (np.concatenate(p) for p in zip(*parts))
        cols = [*np.unravel_index(prefix, (len(arr),) * (2 * sigma)), last]
        live = np.logical_or.reduce([touch[c] for c in cols])
        cols = [c[live] for c in cols]
    made = sum(arr[c] for c in cols[0::2]) - sum(arr[c] for c in cols[1::2])
    keep = _row_finder(arr)(made) < 0
    idx, made = np.column_stack(cols)[keep], made[keep]
    if sigma == 1:
        order = np.lexsort((idx[:, 2], idx[:, 0], idx[:, 1]))
        idx, made = idx[order], made[order]
    return idx, made


def close_under_resonances(
    initial: Sequence[WaveVector],
    sigma: int,
    *,
    max_generations: int = 8,
    max_sup_norm: int = 64,
    record_edges: bool = False,
) -> ModeSet:
    """Close a set of wave vectors under (2*sigma+1)-wave resonant creation.

    Per generation, every zero-defect alternating combination of current
    vectors contributes its combined vector; combinations already present
    create nothing.  Stops at a fixed point (saturated=True) or when a limit
    is hit (saturated=False, with a ClosureWarning).  Created vectors whose
    sup norm exceeds max_sup_norm are discarded, which also marks the result
    unsaturated.

    Each generation runs one creation scan (_creation_scan), which keeps in
    numpy the tuples that touch a vector of the previous generation and
    whose combined vector is absent; the sup-norm cap is applied to the
    created corners in numpy too, so WaveVectors are built only for distinct
    corners within it.  For sigma=1 this is rectangle completion of right
    angles.  A scan is a join on perpendicular lines for sigma=1 in 2D,
    O(|J|^2 log |J| + output), and the blocked prefix-sum kernel,
    O(|J|^(2 sigma + 1)), otherwise; _creation_scan says why.  In d=1 with
    sigma=1 no triple can create, so the closure is the input.
    creation_edges are listed only when record_edges is set.
    """
    vecs = list(dict.fromkeys(initial))
    if not vecs:
        raise ValueError("initial set must be nonempty")
    if len(vecs) != len(initial):
        raise ValueError("initial vectors must be distinct")
    d = vecs[0].dim
    for v in vecs:
        if v.dim != d:
            raise ValueError("all initial vectors must share one dimension")
    if max_generations < 1 or max_sup_norm < 1:
        raise ValueError("closure limits must be positive")
    if sigma < 1:
        raise ValueError("sigma must be a positive integer")

    generation = {v: 0 for v in vecs}
    edges = []
    truncated_by_norm = False
    saturated = False

    def scan(current: list[WaveVector], new_from: int):
        """(idx, made, keep): creating tuples, their corners, and which
        corners lie within max_sup_norm."""
        arr = np.array([v.coords for v in current], dtype=np.int64)
        new_mask = np.zeros(len(current), dtype=bool)
        new_mask[new_from:] = True
        idx, made = _creation_scan(arr, new_mask, sigma)
        return idx, made, np.abs(made).max(axis=1) <= max_sup_norm

    current = list(vecs)
    prev_size = 0
    for gen in range(1, max_generations + 1):
        idx, made, keep = scan(current, prev_size)
        prev_size = len(current)
        truncated_by_norm |= not keep.all()
        made = made[keep].tolist()
        if record_edges:
            edges.extend(
                (tuple(current[i].coords for i in row), tuple(coords), gen)
                for row, coords in zip(idx[keep].tolist(), made)
            )
        fresh = [WaveVector(c) for c in sorted(set(map(tuple, made)))]
        if not fresh:
            saturated = not truncated_by_norm
            break
        for v in fresh:
            generation[v] = gen
        current = current + fresh
    else:
        # generation budget exhausted with the last scan still productive;
        # one more scan decides whether the set happens to be complete
        _, made, keep = scan(current, prev_size)
        if not keep.any():
            truncated_by_norm = truncated_by_norm or len(made) > 0
            saturated = not truncated_by_norm

    if not saturated:
        reason = "sup-norm cap" if truncated_by_norm else "generation cap"
        warnings.warn(
            f"resonance closure truncated by {reason} "
            f"(max_generations={max_generations}, max_sup_norm={max_sup_norm})",
            ClosureWarning,
            stacklevel=2,
        )

    ordered = sorted(generation)
    return ModeSet(
        d=d,
        sigma=sigma,
        vectors=tuple(ordered),
        generations=tuple(generation[v] for v in ordered),
        saturated=saturated,
        creation_edges=tuple(edges),
    )


def _coupling_classes(modes: ModeSet):
    """Resonance classes of the profile coupling, folded and member-major.

    A tuple aimed at mode j is resonant iff its sigma+1 plus slots have the
    key (sum kappa, sum |kappa|^2) of its sigma minus slots plus j.  Row r of
    one prefix-sum key table over J^(sigma+1) is both the plus tuple with
    base-|J| digits r and the pair (minus tuple r // |J|, target r % |J|); a
    class is the set of rows with one key (by _row_finder's rank codes), and
    a class of s rows holds s^2 resonant tuples.  Rows that differ by an
    ordering of their slots have equal products, so a class keeps its
    nondecreasing (folded) rows, each with its number of orderings mult.

    Returns (cols, mult, members, label, tuples).  cols (sigma+1, F) indexes
    the folded rows, classes numbered largest first and stored member-major:
    rows 0:C hold each class's first member, and member m >= 1 of the k
    classes with more than m members sits at rows lo:lo+k, (lo, k) in
    members.  label (|J|, |J|^sigma) is the class of (target j, minus tuple
    M); tuples = sum of s^2.  Cached on the mode set, read-only.
    """
    classes = modes.__dict__.get("_coupling_classes_cache")
    if classes is None:
        arr = modes.as_array()
        n, width = len(arr), modes.sigma + 1
        keys = _prefix_sums(
            np.column_stack([arr, np.einsum("ij,ij->i", arr, arr)]), width, alternate=False
        )
        _, label, size = np.unique(
            _row_finder(keys)(keys), return_inverse=True, return_counts=True
        )
        # every ordered row folds onto the row of its sorted digits
        rows = np.arange(len(keys))
        digits = np.sort(np.unravel_index(rows, (n,) * width), axis=0)
        folded = np.ravel_multi_index(digits, (n,) * width)
        kept = np.flatnonzero(folded == rows)
        renumber = np.argsort(np.argsort(-np.bincount(label[kept]), kind="stable"))
        cls = renumber[label[kept]]
        order = np.argsort(cls, kind="stable")
        cls = cls[order]
        member = np.arange(len(cls)) - np.searchsorted(cls, cls)
        depth = np.bincount(member)  # classes with more than m members
        lo = np.cumsum(depth) - depth
        layout = np.empty_like(kept)
        layout[lo[member] + cls] = kept[order]
        classes = (
            digits[:, layout],
            np.bincount(folded)[layout],
            tuple(zip(lo[1:].tolist(), depth[1:].tolist())),
            np.ascontiguousarray(renumber[label].reshape(-1, n).T),
            int(size @ size),
        )
        for table in classes[:2] + classes[3:4]:
            table.flags.writeable = False
        modes.__dict__["_coupling_classes_cache"] = classes
    return classes


def _interaction_table(modes: ModeSet) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered resonant tuple of modes, grouped by target.

    A join on the resonance classes of _coupling_classes: the ordered row
    r = M*|J| + j of J^(sigma+1) is in class label[j, M], and the tuples aimed
    at j with minus slots M take as plus slots (the odd slots) every ordered
    row of that class.  O(|J|^(sigma+1) + output).  Returns (idx, bounds):
    the tuples of target j are idx[bounds[j]:bounds[j+1]], in lexicographic
    order.  Cached on the mode set, read-only, since callers receive views of it.
    """
    table = modes.__dict__.get("_interaction_table_cache")
    if table is None:
        n, width = len(modes), modes.sigma + 1
        row_class = _coupling_classes(modes)[3].T.ravel()
        size = np.bincount(row_class)
        by_class = np.argsort(row_class, kind="stable")  # each class's rows, ascending
        count = size[row_class]
        pair = np.repeat(np.arange(len(row_class)), count)
        member = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
        plus = by_class[(np.cumsum(size) - size)[row_class[pair]] + member]
        *minus, target = np.unravel_index(pair, (n,) * width)
        cols = [None] * (2 * width - 1)
        cols[0::2] = np.unravel_index(plus, (n,) * width)
        cols[1::2] = minus
        order = np.lexsort(cols[::-1] + [target])
        idx = np.column_stack(cols)[order]
        idx.flags.writeable = False
        table = (idx, np.searchsorted(target[order], np.arange(n + 1)))
        modes.__dict__["_interaction_table_cache"] = table
    return table


def enumerate_interactions(modes: ModeSet, j: int) -> list[ResonantTuple]:
    """All ordered resonant tuples in J^(2*sigma+1) targeting mode j.

    A slice of one table over all targets (_interaction_table), joined from
    the resonance classes of the profile coupling: the plus slots of a tuple
    aimed at j share the key (sum kappa, sum |kappa|^2) of its minus slots
    plus j.  Each tuple appears once, in lexicographic order.
    """
    n = len(modes)
    if not 0 <= j < n:
        raise IndexError(f"mode index {j} out of range for |J| = {n}")
    idx, bounds = _interaction_table(modes)
    return [
        ResonantTuple(indices=tuple(row), target=j)
        for row in idx[bounds[j]:bounds[j + 1]].tolist()
    ]
