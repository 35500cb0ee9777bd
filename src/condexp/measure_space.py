"""Finite measure spaces, partition sub-sigma-algebras, and conditional expectation.

Everything here works on a finite set of points carrying strictly positive
masses, so "almost everywhere" statements become exact pointwise statements
and the conditional expectation with respect to a partition is plain weighted
block averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

#: default absolute tolerance for support / level-set / clustering decisions
DEFAULT_TOL = 1e-9
#: default tolerance used when deciding whether a conditional moment vanishes
DEFAULT_SUPPORT_TOL = 1e-12


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """A finite set of points, each carrying a strictly positive mass."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise ValueError("point masses must be finite")
        if np.any(w <= 0.0):
            raise ValueError("point masses must be strictly positive")
        with np.errstate(over="ignore"):  # an overflow fails the check below
            if not np.isfinite(w.sum()):
                raise ValueError("the total mass must be finite")
        object.__setattr__(self, "weights", _frozen_array(w, float))

    @property
    def point_count(self) -> int:
        return int(self.weights.size)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def __eq__(self, other):
        if not isinstance(other, FiniteMeasureSpace):
            return NotImplemented
        return self.weights.shape == other.weights.shape and bool(
            np.all(self.weights == other.weights)
        )

    def __hash__(self):
        return hash(self.weights.tobytes())


@dataclass(frozen=True)
class SubSigmaAlgebra:
    """A partition of the points into atoms; the finite stand-in for a
    sub-sigma-algebra of the power set."""

    blocks: tuple
    point_count: int
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.point_count)
        if n < 1:
            raise ValueError("point_count must be >= 1")
        blocks = tuple(np.asarray(b) for b in self.blocks)
        for k, b in enumerate(blocks):
            if b.ndim != 1:
                raise ValueError(f"block {k} must be a flat list of point indices")
            if b.size == 0:
                raise ValueError("blocks must be nonempty")
            if b.dtype.kind not in "iu":
                raise ValueError(f"block {k} contains non-integer indices")
        sizes = np.fromiter(map(len, blocks), int, len(blocks))
        points = np.concatenate([b.astype(int, copy=False) for b in blocks] or [np.empty(0, int)])
        outside = np.flatnonzero((points < 0) | (points >= n))
        if outside.size:
            k = np.searchsorted(np.cumsum(sizes), outside[0], side="right")
            raise ValueError(f"block {k} contains out-of-range indices")
        counts = np.bincount(points, minlength=n)
        if (counts > 1).any():
            raise ValueError("blocks must be pairwise disjoint without repeats")
        if (counts == 0).any():
            raise ValueError("blocks must cover every point")
        labels = np.empty(n, dtype=int)
        labels[points] = np.arange(len(blocks)).repeat(sizes)
        # each block's points in increasing order, read-only views of one array
        points = _frozen_array(labels.argsort(kind="stable"), int)
        object.__setattr__(self, "blocks", tuple(np.split(points, sizes.cumsum()[:-1])))
        object.__setattr__(self, "point_count", n)
        object.__setattr__(self, "labels", _frozen_array(labels, int))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def _masses(self, weights: np.ndarray) -> tuple:
        """(mu(B) per atom, each point's share mu_i / mu(B)) of the read-only
        ``weights``, kept with them for the last weights asked."""
        held = self.__dict__.get("_masses_of")
        if held is None or held[0] is not weights:
            mass = _atom_sums(self, weights)
            held = (weights, mass, weights / mass[self.labels])
            self.__dict__["_masses_of"] = held
            for array in held[1:]:
                array.setflags(write=False)
        return held[1:]

    @cached_property
    def _firsts(self) -> np.ndarray:
        """The first point of each atom, in block order: an atom-constant
        function read there gives its value once per atom."""
        return _frozen_array([b[0] for b in self.blocks], int)

    @cached_property
    def _part_labels(self) -> np.ndarray:
        """Bins of a complex array's float view for ``_atom_sums``: 2 labels[i]
        and 2 labels[i] + 1 for point i's real and imaginary parts."""
        return _frozen_array((2 * self.labels[:, None] + np.arange(2)).ravel(), int)


@dataclass(frozen=True)
class MeasurableFunction:
    """A complex-valued function given by one value per point of a space."""

    values: np.ndarray
    space: FiniteMeasureSpace

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1 or v.size != self.space.point_count:
            raise ValueError("value vector length must match the space")
        object.__setattr__(self, "values", _frozen_array(_finite_values(v), complex))

    def conj(self) -> "MeasurableFunction":
        return MeasurableFunction._of(np.conj(self.values), self.space)

    @classmethod
    def _of(cls, values: np.ndarray, space: FiniteMeasureSpace) -> "MeasurableFunction":
        """The function over ``values``, a new complex array the caller hands
        over, checked finite and frozen in place, not copied."""
        f = object.__new__(cls)
        object.__setattr__(f, "values", _finite_values(values))
        object.__setattr__(f, "space", space)
        values.setflags(write=False)
        return f

    def __mul__(self, other):
        if isinstance(other, MeasurableFunction):
            _check_same_space(self, other)
            return MeasurableFunction(self.values * other.values, self.space)
        return MeasurableFunction(self.values * other, self.space)

    __rmul__ = __mul__

    def __add__(self, other):
        _check_same_space(self, other)
        return MeasurableFunction(self.values + other.values, self.space)

    def __sub__(self, other):
        _check_same_space(self, other)
        return MeasurableFunction(self.values - other.values, self.space)

    @staticmethod
    def constant(space: FiniteMeasureSpace, value: complex) -> "MeasurableFunction":
        return MeasurableFunction(np.full(space.point_count, value, dtype=complex), space)


@dataclass(frozen=True, eq=False)
class Base:
    """A function on the points that the sides of pairs (a, b) of operators
    M_a E M_b share, on the atoms of ``algebra``, with its mean square
    E|f|^2 on each atom where its maker has it, and what is taken of it
    once (``_memo``)."""

    values: np.ndarray
    algebra: SubSigmaAlgebra
    mean_squares: Optional[np.ndarray] = None
    _memo: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True, eq=False)
class Side:
    """One function of a pair, held per atom: ``coefficient``, one value per
    atom, times its base's values, conjugated where ``conjugated``.
    ``numpy.asarray`` expands it to its values on the points."""

    coefficient: np.ndarray
    base: Base
    conjugated: bool = False

    def __array__(self, dtype=None, copy=None):
        values = np.conj(self.base.values) if self.conjugated else self.base.values
        return np.asarray(self.coefficient[self.base.algebra.labels] * values, dtype=dtype)

    def conj(self) -> "Side":
        return Side(np.conj(self.coefficient), self.base, not self.conjugated)

    def times(self, coefficient: np.ndarray) -> "Side":
        """The side times ``coefficient``, one value per atom."""
        return Side(self.coefficient * coefficient, self.base, self.conjugated)


def function_side(
    algebra: SubSigmaAlgebra, values: np.ndarray, mean_squares: Optional[np.ndarray] = None
) -> Side:
    """``values`` as a side of coefficient 1 on its own base, whose E|f|^2 on
    each atom is ``mean_squares`` where the caller has it."""
    base = Base(np.asarray(values), algebra, mean_squares)
    return Side(np.ones(algebra.block_count, dtype=complex), base)


def _check_tol(tol: float) -> None:
    """A tolerance must be finite and >= 0: a negative one rejects every
    point, a NaN or infinite one decides every comparison vacuously."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _check_same_space(f: MeasurableFunction, g: MeasurableFunction) -> None:
    if f.space.point_count != g.space.point_count or not np.array_equal(
        f.space.weights, g.space.weights
    ):
        raise ValueError("functions live on different spaces")


def conditional_expectation(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, f: MeasurableFunction
) -> MeasurableFunction:
    """Weighted block average of ``f`` over the atoms of ``algebra``.

    The result is constant on each atom B and satisfies the averaging
    identity sum_B (Ef) mu = sum_B f mu. Each point is weighted by its share
    mu_i / mu(B) of the atom's mass, which is exactly 1 on a one-point atom,
    so there E f = f even where mu_i f_i would underflow.
    """
    if f.space.point_count != space.point_count:
        raise ValueError("function does not live on the given space")
    return MeasurableFunction(_conditional_means(space, algebra, f.values)[0], space)


def _conditional_means(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, *values) -> list:
    """``conditional_expectation`` of each array of ``values``, on arrays, with
    one set of atom shares (``SubSigmaAlgebra._masses``); the caller checks
    finite what a ``MeasurableFunction`` would (``_finite_values``)."""
    return [m[algebra.labels] for m in _atom_means(space, algebra, *values)]


def _atom_means(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, *values) -> list:
    """The conditional mean of each array of ``values`` once per atom, in
    block order, before ``_conditional_means`` gathers it to the points."""
    if algebra.point_count != space.point_count:
        raise ValueError("algebra does not partition the given space")
    share = algebra._masses(space.weights)[1]
    return [_atom_sums(algebra, share * f) for f in values]


def _finite_values(values: np.ndarray) -> np.ndarray:
    """values, once every one is checked finite."""
    if not np.isfinite(values).all():
        raise ValueError("function values must be finite")
    return values


def _atom_sums(algebra: SubSigmaAlgebra, values: np.ndarray) -> np.ndarray:
    """The sum of ``values`` over each atom (one per atom, in block order):
    one bincount for a real array, and one of the float view of a complex
    one, whose parts each atom sums in point order in its own bin."""
    if values.dtype.kind != "c":
        return np.bincount(algebra.labels, weights=values, minlength=algebra.block_count)
    parts = np.ascontiguousarray(values, dtype=complex).view(float)
    sums = np.bincount(algebra._part_labels, weights=parts, minlength=2 * algebra.block_count)
    return sums.view(complex)


def support(f: MeasurableFunction, tol: float = DEFAULT_SUPPORT_TOL) -> np.ndarray:
    """The read-only boolean mask of the points where |f| exceeds ``tol``."""
    _check_tol(tol)
    return _frozen_array(np.abs(f.values) > tol, bool)


def ess_sup_norm(f: MeasurableFunction) -> float:
    """max_i |f_i|; every point has positive mass, so the essential sup is
    the plain maximum."""
    return float(np.max(np.abs(f.values)))


def ess_range(f: MeasurableFunction, tol: float = DEFAULT_TOL) -> list:
    """The attained values of ``f``, merged into clusters of diameter ~tol.

    Each cluster is represented by its centroid. On a finite space with
    positive masses the essential range is exactly the attained-value set.
    """
    _check_tol(tol)
    return cluster_values(f.values, tol)


def cluster_values(values: Sequence[complex], tol: float) -> list:
    """Greedy tolerance clustering of complex scalars; returns centroids.

    The values are swept in lexicographic order (real part, then imaginary);
    each joins the first cluster, in creation order, whose running centroid
    is within tol, or starts a new one. A centroid whose real part is more
    than tol behind the sweep can take no later value (their real parts only
    grow, and a centroid moves only when a value joins it), so it leaves the
    scan: each value is compared only with the centroids near its real part.

    Equal values are swept once, with their multiplicity: each copy meets
    the centroids before the one the first copy joined or started as that
    copy did, so the copies after it replay the update of that centroid,
    in numpy scalars, while it stays within tol; once the update leaves the
    centroid at v, the copies left leave it there to the bit.
    """
    distinct, counts = np.unique(np.asarray(values, dtype=complex), return_counts=True)
    reps: list = []
    sizes: list = []
    live: list = []  # indices of the centroids still in the scan, in creation order
    for v, count in zip(distinct, counts.tolist()):
        live = [j for j in live if v.real - reps[j].real <= tol]
        while count:
            j = next((j for j in live if abs(v - reps[j]) <= tol), None)
            if j is None:
                j = len(reps)
                live.append(j)
                reps.append(complex(v))
                sizes.append(1)
                count -= 1
            # running centroid keeps the representative inside the cluster
            while count and abs(v - reps[j]) <= tol:
                sizes[j] += 1
                reps[j] = reps[j] + (v - reps[j]) / sizes[j]
                count -= 1
                if reps[j] == v:
                    sizes[j] += count
                    count = 0
    return reps


def level_set(
    f: MeasurableFunction, lam: complex, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """The read-only boolean mask of the points where f is within ``tol`` of
    ``lam``; some point is in it iff the level set has positive measure."""
    _check_tol(tol)
    return _frozen_array(np.abs(f.values - lam) <= tol, bool)


def is_algebra_measurable(
    f: MeasurableFunction, algebra: SubSigmaAlgebra, tol: float = DEFAULT_TOL
) -> bool:
    """True iff ``f`` varies by at most ``tol`` inside every atom.

    The spread is taken around one value of each atom (its first point):
    O(|B|) per atom, where the spread between every pair of values costs
    |B|^2. It is at least half that pairwise spread and at most all of it,
    and exactly 0 on a constant atom, where a computed mean can be off by
    rounding.
    """
    _check_tol(tol)
    first = np.array([b[0] for b in algebra.blocks])
    reference = f.values[first][algebra.labels]
    return bool(np.abs(f.values - reference).max() <= tol)
