"""Operators on the weighted L2 space, stored atom by atom, and the
numerical oracle.

An operator is stored as its diagonal blocks: ``blocks`` partitions the
points into index arrays, and ``parts`` holds, for each block B, the matrix
the operator acts by on value vectors over B (the entries
``entries[np.ix_(B, B)]`` of the full matrix, which vanishes outside the
blocks). Memory and every elementwise step cost sum |B|^2 over the blocks
instead of n^2; the full n x n matrix ``entries`` is assembled only when it
is read. The Hilbert structure is the weighted inner product, so the
adjoint is the diagonal similarity D^-1 A^H D with D = diag(mu), block by
block. All spectral computations conjugate by D^(1/2), which turns the
weighted space into standard C^n and lets the dense LAPACK routines apply
unchanged to each block.

The oracle factors per atom. Every eigenvalue, SVD and eigh call, and every
product, runs on the diagonal blocks, so it costs sum |B|^3 over the blocks
instead of n^3. One SVD per block, cut at the one rank cutoff, gives each
block's rank-r factors X diag(s) Y^H; only these |B| x r factors are
memoized. They serve the norm and the singular values, the eigenvalues (a
rank-deficient block's come from its r x r core), every power of T*T and
TT*, |T|, |T*|, the polar isometry, the Aluthge transform and the kernel
projection. The R of one QR of [Y X] per block gives the block's joint
core: the block is Q K Q^H with K of at most 2r x 2r, Q an orthonormal
basis of the ranges of the block and its adjoint that is never formed. The
class margins, the normality check and the joint point spectrum read K, so
none of them holds a |B| x |B| array. An operator the oracle builds as
L K R^H from a small core K keeps the core, so its own factors cost one
r x r SVD. Operators built from T = M_w E M_u carry the atoms of the
partition, which is the definition of E; the oracle never reads the
conditional moments, so it stays independent of the closed forms it checks.
Every decision over the whole operator (the rank cutoff, the PSD scale, the
Loewner norm) uses the values of all blocks, so results match a one-block
factorization to rounding. An operator given without blocks is one block:
the dense oracle, which the tests use as the reference. An operator is
immutable, so its factorizations and its adjoint are computed once and
shared by every caller. An operator and its adjoint share one
factorization: the adjoint's standard-coordinate blocks are the conjugate
transposes, so its factors are the operator's swapped (Y diag(s) X^H),
read through a weak reference that keeps no operator alive.

The closed forms all have the shape M_a E M_b, rank one on each atom, and
are handled as their pairs (a, b). ``expectation_operator`` builds a pair's
blocks (``_expectation_blocks`` yields them one atom at a time); the pair
rules (adjoint, product, coimage projection, norm per atom) and
``expectation_distance`` cost O(n) in segment sums over the atoms plus one
stacked SVD of 2 x 2 cores, and build no block.
"""

from __future__ import annotations

import functools
import logging
import time
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .measure_space import (
    DEFAULT_TOL,
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    _atom_sums,
    _frozen_array,
    conditional_expectation,
)

#: relative cutoff below which a singular value counts as zero (rank decisions)
DEFAULT_RANK_TOL = 1e-10
#: relative floor under which an eigenvalue of a PSD operator is an exact zero
EIGEN_ZERO_TOL = 1e-12

log = logging.getLogger("condexp")


class SolverError(RuntimeError):
    """Raised when a dense eigenvalue/SVD routine fails to converge."""


def _as_blocks(blocks, n: int) -> tuple:
    """Read-only index arrays that partition range(n); None is one block."""
    if blocks is None:
        return (_frozen_array(np.arange(n), int),)
    blocks = tuple(blocks)
    arrays = [np.asarray(b) for b in blocks]
    if any(a.ndim != 1 or a.size == 0 or a.dtype.kind not in "iu" for a in arrays):
        raise ValueError("blocks must be nonempty 1-d integer index arrays")
    if not np.array_equal(np.sort(np.concatenate(arrays)), np.arange(n)):
        raise ValueError("blocks must partition the points")
    if all(isinstance(b, np.ndarray) and not b.flags.writeable for b in blocks):
        return blocks  # already frozen (an algebra's atoms): keep the same tuple
    return tuple(_frozen_array(a, int) for a in arrays)


@dataclass(frozen=True, init=False, eq=False)
class WeightedOperator:
    """A linear operator on L2(mu), stored as its diagonal blocks.

    ``WeightedOperator(entries, space, blocks)`` takes the n x n matrix on
    value vectors. ``blocks`` partitions the points into index arrays, and
    the matrix must vanish outside the diagonal blocks they define; without
    it the whole space is one block. ``parts[k]`` is the block over
    ``blocks[k]``, and ``entries`` assembles the full matrix on each read.
    """

    space: FiniteMeasureSpace
    blocks: tuple
    parts: tuple
    _memo: dict = field(repr=False)

    def __init__(self, entries, space: FiniteMeasureSpace, blocks=None):
        m = np.asarray(entries, dtype=complex)
        n = space.point_count
        if m.shape != (n, n):
            raise ValueError(f"entries must be a {n}x{n} matrix")
        blocks = _as_blocks(blocks, n)
        parts = tuple(m[np.ix_(b, b)] for b in blocks)  # fancy indexing copies
        if len(blocks) > 1 and np.count_nonzero(m) != sum(map(np.count_nonzero, parts)):
            raise ValueError("operator entries must vanish outside the blocks")
        self._assign(parts, space, blocks)

    @classmethod
    def _of_blocks(cls, parts, space: FiniteMeasureSpace, blocks: tuple):
        """The operator with these diagonal blocks over ``blocks`` (already a
        partition). The arrays are new ones the caller hands over: they are
        frozen in place, not copied."""
        op = cls.__new__(cls)
        op._assign(tuple(parts), space, blocks)
        return op

    def _assign(self, parts: tuple, space: FiniteMeasureSpace, blocks: tuple) -> None:
        fields = (("space", space), ("blocks", blocks), ("parts", parts), ("_memo", {}))
        for name, value in fields:
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Every construction ends here: each block must be a finite square
        matrix over its indices; it is stored complex and read-only."""
        parts = tuple(np.asarray(p, dtype=complex) for p in self.parts)
        for b, p in zip(self.blocks, parts, strict=True):
            if p.shape != (b.size, b.size):
                raise ValueError("each block must be square over its indices")
            if not np.all(np.isfinite(p)):
                raise ValueError("operator entries must be finite")
            p.setflags(write=False)
        object.__setattr__(self, "parts", parts)

    @property
    def entries(self) -> np.ndarray:
        """The n x n matrix on value vectors, assembled on each read."""
        n = self.space.point_count
        out = np.zeros((n, n), dtype=complex)
        for b, p in zip(self.blocks, self.parts):
            out[np.ix_(b, b)] = p
        out.setflags(write=False)
        return out


def _expectation_blocks(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple):
    """The blocks of M_a E M_b for the pair (a, b), one atom's at a time, in
    block order: on an atom B the rank-one block a_B (mu_B b_B)^T / mu(B)."""
    a, b = pair
    mu = space.weights
    for block in algebra.blocks:
        mu_b = mu[block]
        yield np.outer(a[block], mu_b * b[block] / mu_b.sum())


def expectation_operator(
    space: FiniteMeasureSpace,
    algebra: SubSigmaAlgebra,
    left: Optional[np.ndarray] = None,
    right: Optional[np.ndarray] = None,
) -> WeightedOperator:
    """The operator f -> left * E(right * f), block-diagonal over the atoms
    of ``algebra`` (``_expectation_blocks``); the conditional expectation E
    itself when both are omitted."""
    n = space.point_count
    pair = (np.ones(n) if left is None else left, np.ones(n) if right is None else right)
    return WeightedOperator._of_blocks(
        _expectation_blocks(space, algebra, pair), space, algebra.blocks
    )


def expectation_adjoint(pair: tuple) -> tuple:
    """The pair of the adjoint of M_a E M_b on L2(mu): (conj(b), conj(a))."""
    a, b = pair
    return np.conj(b), np.conj(a)


def expectation_product(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, first: tuple, second: tuple
) -> tuple:
    """The pair of (M_a E M_b)(M_c E M_d) = M_{a E(bc)} E M_d, in O(n)."""
    (a, b), (c, d) = first, second
    return a * conditional_expectation(space, algebra, MeasurableFunction(b * c, space)).values, d


def _rank_one_atoms(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple) -> tuple:
    """(sigma, p, q) of M_a E M_b: on each atom B its standard-coordinate
    block sqrt(mu) a (sqrt(mu) b)^T / mu(B) is sigma_B p q^H, with p and q
    the unit vectors on B along sqrt(mu) a and conj(sqrt(mu) b), and
    sigma_B = ||sqrt(mu) a||_B ||sqrt(mu) b||_B / mu(B) (one per atom). An
    atom with sigma_B = 0 has p = q = 0 on it."""
    d = _sqrt_weights(space)
    lines = (d * pair[0], np.conj(d * pair[1]))
    norms = [np.sqrt(_atom_sums(algebra, np.abs(v) ** 2)) for v in lines]
    sigma = norms[0] * norms[1] / _atom_sums(algebra, space.weights)
    on = sigma > 0
    p, q = (
        v * np.divide(1.0, norm, out=np.zeros_like(norm), where=on)[algebra.labels]
        for v, norm in zip(lines, norms)
    )
    return sigma, p, q


def expectation_norms(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple
) -> np.ndarray:
    """||M_a E M_b|| on each atom, in block order: the singular value of its
    rank-one block; the largest is the operator norm."""
    return _rank_one_atoms(space, algebra, pair)[0]


def expectation_coimage(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple
) -> tuple:
    """The pair of the weighted-orthogonal projection onto the coimage of
    M_a E M_b (the orthogonal complement of its kernel):
    (chi conj(b) / E|b|^2, b), where chi marks the atoms whose norm passes
    the oracle's rank rule, DEFAULT_RANK_TOL times the largest."""
    _, b = pair
    sigma = expectation_norms(space, algebra, pair)
    mu = space.weights
    e_b2 = _atom_sums(algebra, mu * np.abs(b) ** 2) / _atom_sums(algebra, mu)
    keep = sigma > DEFAULT_RANK_TOL * sigma.max(initial=0.0)
    factor = np.divide(1.0, e_b2, out=np.zeros_like(e_b2), where=keep)
    return factor[algebra.labels] * np.conj(b), b


def expectation_distance(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, first: tuple, second: tuple
) -> float:
    """||M_a E M_b - M_c E M_d|| on L2(mu) for the pairs first = (a, b) and
    second = (c, d), with no |B| x |B| array: the largest over the atoms of
    the norm of sigma_1 p_1 q_1^H - sigma_2 p_2 q_2^H (``_rank_one_atoms``).

    On each atom the second pair's lines are split along the first's,
    p_2 = c p_1 + rho e with rho = ||p_2 - c p_1|| (the Gram-Schmidt
    residual: sqrt(1 - |c|^2) would lose the digits when the lines
    nearly coincide, the case a passing check measures), and likewise
    q_2 = d q_1 + tau f. The difference is then a 2 x 2 core in the
    orthonormal bases (p_1, e) and (q_1, f), and one stacked values-only
    SVD of the cores gives every atom's norm."""
    s1, p1, q1 = _rank_one_atoms(space, algebra, first)
    s2, p2, q2 = _rank_one_atoms(space, algebra, second)
    splits = []
    for x1, x2 in ((p1, p2), (q1, q2)):
        along = _atom_sums(algebra, np.conj(x1) * x2)
        residual = x2 - along[algebra.labels] * x1
        splits.append((along, np.sqrt(_atom_sums(algebra, np.abs(residual) ** 2))))
    (c, rho), (d, tau) = splits
    cores = np.empty((algebra.block_count, 2, 2), dtype=complex)
    cores[:, 0, 0] = s1 - s2 * c * np.conj(d)
    cores[:, 0, 1] = -s2 * c * tau
    cores[:, 1, 0] = -s2 * rho * np.conj(d)
    cores[:, 1, 1] = -s2 * rho * tau
    return float(_solve("svd", cores, compute_uv=False).max(initial=0.0))


def _check_space(a: WeightedOperator, b) -> None:
    if a.space.point_count != getattr(b, "space").point_count or not np.array_equal(
        a.space.weights, b.space.weights
    ):
        raise ValueError("operands live on different spaces")


def _same_blocks(A: WeightedOperator, B: WeightedOperator) -> bool:
    return A.blocks is B.blocks or (
        len(A.blocks) == len(B.blocks)
        and all(np.array_equal(a, b) for a, b in zip(A.blocks, B.blocks))
    )


def _sqrt_weights(space: FiniteMeasureSpace) -> np.ndarray:
    return np.sqrt(space.weights)


def _std_blocks(T: WeightedOperator):
    """(indices, diagonal block of the standard-coordinate matrix) per block.

    Conjugating by D^(1/2) gives a matrix on standard C^n unitarily
    equivalent to T, so the dense LAPACK routines apply to its blocks."""
    d = _sqrt_weights(T.space)
    for b, p in zip(T.blocks, T.parts):
        db = d[b]
        yield b, (db[:, None] * p) / db[None, :]


def _from_std_blocks(pieces, T: WeightedOperator) -> WeightedOperator:
    """The operator with T's blocks whose standard-coordinate diagonal blocks
    are ``pieces`` (pairs of indices and matrices, in T's block order; an
    iterable, so a generator's matrix is freed once it is rescaled)."""
    d = _sqrt_weights(T.space)
    parts = [(mat / d[b][:, None]) * d[b][None, :] for b, mat in pieces]
    return WeightedOperator._of_blocks(parts, T.space, T.blocks)


#: memo key of an adjoint: a weak reference to the operator it is the adjoint of
_ADJOINT_OF = "adjoint_of"


def _once_per_operator(fn):
    """fn(T) computed once per operator: T is immutable, so every caller can
    share the result (an array result is made read-only)."""

    @functools.wraps(fn)
    def memoized(T: WeightedOperator):
        if fn.__name__ not in T._memo:
            value = fn(T)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            T._memo[fn.__name__] = value
        return T._memo[fn.__name__]

    return memoized


def _solve(routine: str, mat: np.ndarray, **kwargs):
    """``numpy.linalg.<routine>`` on one block matrix, or on a stack of them.

    The routine is looked up at call time, so a wrapper installed on
    numpy.linalg (a profiler, a test probe) sees every call. A LAPACK failure
    becomes SolverError; each call is logged at DEBUG with its whole shape
    (``svd 9x2x2`` for a stack of nine 2 x 2 matrices) and its time.
    """
    start = time.perf_counter()
    try:
        out = getattr(np.linalg, routine)(mat, **kwargs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"{routine} did not converge: {exc}") from exc
    if log.isEnabledFor(logging.DEBUG):
        shape = "x".join(map(str, mat.shape))
        log.debug("%s %s %.6f s", routine, shape, time.perf_counter() - start)
    return out


def _cut(svds: list) -> list:
    """(indices, X, s, Y) of each block U diag(s) V^H above the oracle's one
    rank cutoff, DEFAULT_RANK_TOL times the largest singular value: the part
    X diag(s) Y^H, with X = U_r and Y = V_r (|B| x r, orthonormal columns).
    They are copies, so U and V^H are not kept alive."""
    cutoff = DEFAULT_RANK_TOL * max(s.max(initial=0.0) for _, _, s, _ in svds)
    out = []
    for b, u, s, vh in svds:
        rank = int(np.sum(s > cutoff))
        out.append((b, u[:, :rank].copy(), s[:rank].copy(), vh[:rank].conj().T))
    return out


#: memo key of an operator the oracle built from cores: its list of
#: (indices, L, K, R), each standard-coordinate block being L K R^H
_CORES = "cores"


@_once_per_operator
def _factors(T: WeightedOperator) -> list:
    """(indices, X, s, Y) of each standard-coordinate block X diag(s) Y^H,
    cut at the oracle's one rank cutoff (``_cut``); every rank decision of
    the oracle reads them.

    The adjoint of a live A has A's factors swapped, the same arrays. An
    operator built from cores L K R^H with orthonormal L and R factors each
    r x r core, K = P diag(s) Q^H, so X = L P and Y = R Q. Any other
    operator cuts one SVD of each of its blocks."""
    ref = T._memo.get(_ADJOINT_OF)
    source = ref() if ref is not None else None
    if source is not None:
        return [(b, y, s, x) for b, x, s, y in _factors(source)]
    cores = T._memo.get(_CORES)
    if cores is None:
        return _cut([(b, *_solve("svd", m)) for b, m in _std_blocks(T)])
    cut = _cut([(b, *_solve("svd", k)) for b, _, k, _ in cores])
    return [(b, left @ p, s, right @ q) for (b, p, s, q), (_, left, _, right) in zip(cut, cores)]


@_once_per_operator
def _joint_cores(T: WeightedOperator) -> list:
    """(R_y, R_x, K) of each block X diag(s) Y^H of T's factors, from the R
    of one QR [Y X] = Q [R_y R_x]. Q has orthonormal columns, min(|B|, 2r)
    of them, spanning the ranges of the block and of its adjoint, so the
    block is Q K Q^H with the core K = R_x diag(s) R_y^H, and both vanish on
    Q's complement. Q itself is never formed: every question asked of it is
    answered on the core."""
    out = []
    for _, x, s, y in _factors(T):
        r = _solve("qr", np.hstack([y, x]), mode="r")
        ry, rx = r[:, : s.size], r[:, s.size :]
        out.append((ry, rx, (rx * s) @ ry.conj().T))
    return out


def _core(x: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The r x r core Y^H X diag(s) of a block X diag(s) Y^H: the block has
    the core's eigenvalues, plus zeros (X (S Y^H) and (S Y^H) X share their
    nonzero ones)."""
    return y.conj().T @ (x * s)


def _from_cores(cores: list, T: WeightedOperator) -> WeightedOperator:
    """The operator with T's blocks whose standard-coordinate blocks are
    L K R^H for each (indices, L, K, R) in ``cores`` (L and R with
    orthonormal columns); it keeps the cores, so its factors cost one r x r
    SVD per block."""
    op = _from_std_blocks(((b, (left @ k) @ right.conj().T) for b, left, k, right in cores), T)
    op._memo[_CORES] = cores
    return op


def apply(T: WeightedOperator, f: MeasurableFunction) -> MeasurableFunction:
    _check_space(T, f)
    out = np.empty(T.space.point_count, dtype=complex)
    for b, p in zip(T.blocks, T.parts):
        out[b] = p @ f.values[b]
    return MeasurableFunction(out, T.space)


@_once_per_operator
def adjoint(T: WeightedOperator) -> WeightedOperator:
    """The unique T* with <Tf, g> = <f, T*g> for the weighted inner product;
    built once per operator, so the factorizations of T* are shared too."""
    mu = T.space.weights
    parts = [
        (p.conj().T * mu[b][None, :]) / mu[b][:, None] for b, p in zip(T.blocks, T.parts)
    ]
    adj = WeightedOperator._of_blocks(parts, T.space, T.blocks)
    # weak: T's memo holds T*, so a strong reference back would be a cycle
    adj._memo[_ADJOINT_OF] = weakref.ref(T)
    return adj


def compose(A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    """A B, block by block when both have the same blocks; otherwise one
    dense product whose result is one block."""
    _check_space(A, B)
    if not _same_blocks(A, B):
        return WeightedOperator(A.entries @ B.entries, A.space)
    return WeightedOperator._of_blocks(
        [a @ b for a, b in zip(A.parts, B.parts)], A.space, A.blocks
    )


def subtract(A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    """A - B, block by block when both have the same blocks; otherwise one
    block."""
    _check_space(A, B)
    if not _same_blocks(A, B):
        return WeightedOperator(A.entries - B.entries, A.space)
    return WeightedOperator._of_blocks(
        [a - b for a, b in zip(A.parts, B.parts)], A.space, A.blocks
    )


@_once_per_operator
def eigenvalues(T: WeightedOperator) -> np.ndarray:
    """All n eigenvalues with multiplicity (unordered multiset, read-only).

    A block of rank r below its size (under the rank cutoff over all
    blocks) has the eigenvalues of the r x r core of its factors and exact
    zeros; a full-rank block is factored by eigvals."""
    evals = []
    for (_, m), (_, x, s, y) in zip(_std_blocks(T), _factors(T)):
        if s.size == len(m):
            evals.append(_solve("eigvals", m))
            continue
        if s.size:
            evals.append(_solve("eigvals", _core(x, s, y)))
        evals.append(np.zeros(len(m) - s.size, dtype=complex))
    return np.concatenate(evals)


@_once_per_operator
def singular_values(T: WeightedOperator) -> np.ndarray:
    """Descending singular values (read-only), read off the factors, so the
    ones under the rank cutoff are exact zeros; the largest is the operator
    norm on L2(mu)."""
    s = np.concatenate([s for _, _, s, _ in _factors(T)])
    return np.concatenate([np.sort(s)[::-1], np.zeros(T.space.point_count - s.size)])


def operator_norm(T: WeightedOperator) -> float:
    return float(singular_values(T)[0])


def _asymmetry(blocks: list) -> tuple:
    """(the largest entry of M - M^H, 1 + the largest entry of M) over the
    matrices M (standard-coordinate blocks, or their cores): the
    self-adjointness test compares them."""
    scale_ = 1.0 + max(np.abs(m).max(initial=0.0) for m in blocks)
    asymmetry = max(np.abs(m - m.conj().T).max(initial=0.0) for m in blocks)
    return asymmetry, scale_


def is_hermitian(T: WeightedOperator, tol: float = DEFAULT_TOL) -> bool:
    asymmetry, scale_ = _asymmetry([m for _, m in _std_blocks(T)])
    return bool(asymmetry <= tol * scale_)


class LoewnerMargins(NamedTuple):
    """The four numbers the Loewner test A >= B decides on, all of
    D = A - B in standard coordinates, read off the cores K of its blocks
    (``_margins``)."""

    asymmetry: float  # largest entry of K - K^H, K the core of each block Z K Z^H of D
    scale: float  # 1 + the largest entry of K
    smallest: float  # smallest eigenvalue of the self-adjoint part of D
    norm: float  # largest eigenvalue modulus of the self-adjoint part of D


def loewner_margins(A: WeightedOperator, B: WeightedOperator) -> LoewnerMargins:
    """The margins of A >= B; they do not depend on a tolerance, so one set
    serves every tolerance (``loewner_holds``)."""
    _check_space(A, B)
    return _margins([m for _, m in _std_blocks(subtract(A, B))])


def _margins(cores: list) -> LoewnerMargins:
    """The Loewner margins of the standard-coordinate blocks Z K Z^H given by
    their ``cores`` K (Z with orthonormal columns; a block is its own core
    for Z = I): D - D^H = Z (K - K^H) Z^H vanishes iff K - K^H does, so the
    asymmetry and the scale are read off K, and the eigenvalues of D's
    self-adjoint part are K's, the rest being exact zeros."""
    asymmetry, scale_ = _asymmetry(cores)
    evals = np.concatenate([_solve("eigvalsh", 0.5 * (k + k.conj().T)) for k in cores])
    return LoewnerMargins(
        asymmetry, scale_, evals.min(initial=0.0), np.abs(evals).max(initial=0.0)
    )


def loewner_holds(margins: LoewnerMargins, tol: float = DEFAULT_TOL) -> bool:
    """The Loewner test on its margins: the difference is self-adjoint and
    PSD to tolerance."""
    return bool(
        margins.asymmetry <= tol * margins.scale
        and margins.smallest >= -tol * (1.0 + margins.norm)
    )


def loewner_geq(
    A: WeightedOperator, B: WeightedOperator, tol: float = DEFAULT_TOL
) -> bool:
    """A >= B in the Loewner order: A - B self-adjoint and PSD (to tolerance)."""
    return loewner_holds(loewner_margins(A, B), tol)


def fractional_power(
    A: WeightedOperator, p: float, tol: float = DEFAULT_TOL
) -> WeightedOperator:
    """Spectral calculus A^p for self-adjoint PSD A (weighted inner product).

    Eigenvalues in [-tol*scale, 0) are clamped to 0; more negative ones are an
    error because A is then not PSD.
    """
    if p <= 0:
        raise ValueError("power must be positive")
    if not is_hermitian(A, tol):
        raise ValueError("operator is not self-adjoint to tolerance")
    eigs = [(b, *_solve("eigh", 0.5 * (m + m.conj().T))) for b, m in _std_blocks(A)]
    evals = np.concatenate([e for _, e, _ in eigs])
    scale_ = 1.0 + np.abs(evals).max(initial=0.0)
    if evals.min(initial=0.0) < -tol * scale_:
        raise ValueError("operator is not positive semidefinite to tolerance")
    pieces = []
    for b, e, v in eigs:
        # eigenvalues at rounding-noise level are exact zeros; powers p < 1
        # would otherwise amplify them (eps -> eps^p)
        clamped = np.where(e > EIGEN_ZERO_TOL * scale_, e, 0.0)
        pieces.append((b, (v * clamped**p) @ v.conj().T))
    return _from_std_blocks(pieces, A)


def gram_power(T: WeightedOperator, p: float) -> WeightedOperator:
    """(T* T)^p, read off the memoized factors: a standard-coordinate block
    B = X S Y^H gives (B^H B)^p = Y S^(2p) Y^H, and p = 1/2 is |T|. The
    singular values under the rank cutoff are exact zeros. (T T*)^p is
    ``gram_power(adjoint(T), p)``: T*'s factors are T's swapped, so it
    factors nothing new."""
    if p <= 0:
        raise ValueError("power must be positive")
    cores = [(b, y, np.diag(s ** (2 * p)), y) for b, _, s, y in _factors(T)]
    return _from_cores(cores, T)


def polar_isometry_numeric(T: WeightedOperator) -> WeightedOperator:
    """The partial isometry U of the polar decomposition T = U |T|, whose
    modulus |T| is ``gram_power(T, 0.5)``, with the kernel condition: U is
    T|T|^-1 on range(|T|) and 0 on kernel(|T|), so N(U) = N(|T|). A block
    X S Y^H gives U = X Y^H and |T| = Y S Y^H."""
    return _from_cores([(b, x, np.eye(s.size), y) for b, x, s, y in _factors(T)], T)


def aluthge_numeric(T: WeightedOperator) -> WeightedOperator:
    """|T|^(1/2) U |T|^(1/2) from the numeric polar decomposition.

    A block X S Y^H has |T|^(1/2) = Y S^(1/2) Y^H and U = X Y^H, so the
    transform is Y (S^(1/2) C S^(1/2)) Y^H with the r x r core C = Y^H X,
    which the result keeps. The singular values under the cutoff are exact
    zeros: the square root would amplify their noise (eps -> sqrt(eps))."""
    cores = []
    for b, x, s, y in _factors(T):
        root = np.sqrt(s)
        cores.append((b, y, root[:, None] * (y.conj().T @ x) * root[None, :], y))
    return _from_cores(cores, T)


def kernel_projection(T: WeightedOperator) -> WeightedOperator:
    """The weighted-orthogonal projection onto the numeric null space of T,
    block-diagonal like T: I - Y Y^H on each block X diag(s) Y^H of T's
    factors, so an operator built from cores factors only its r x r cores."""
    return _from_std_blocks(
        [(b, np.eye(b.size) - y @ y.conj().T) for b, _, _, y in _factors(T)], T
    )


def is_normal(T: WeightedOperator, tol: float = DEFAULT_TOL) -> bool:
    """T T* = T* T to tolerance, read off T's joint cores: a block Q K Q^H
    (``_joint_cores``) gives T T* - T* T = Q (K K^H - K^H K) Q^H, whose norm
    is the largest eigenvalue modulus of that Hermitian core."""
    comm = max(
        np.abs(_solve("eigvalsh", k @ k.conj().T - k.conj().T @ k)).max(initial=0.0)
        for _, _, k in _joint_cores(T)
    )
    return bool(comm <= tol * (1.0 + operator_norm(T) ** 2))
