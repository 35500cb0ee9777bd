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
product, runs on the diagonal blocks, so it costs at most sum |B|^3 over
the blocks instead of n^3. One factorization per block, cut at the one rank
cutoff, gives each block's rank-r factors X diag(s) Y^H; only these |B| x r
factors are memoized. On a block of 16 points or more it is a certified
sketch: Q from the QR of B Omega, with four seeded Gaussian columns Omega,
and the SVD of the small Q^H B, accepted when the residual
||B - Q Q^H B||_F is at most 1e-13 s_1, so a block of rank at most four
costs |B|^2 times four; the full SVD runs where the sketch is not
certified, and where a sketched value lies within its residual of the
cutoff, so the rank decisions are the full SVD's. The factors serve the
norm and the singular values, the eigenvalues (a rank-deficient block's
come from its r x r core), every power of T*T and TT*, |T|, |T*|, the polar
isometry, the Aluthge transform and the kernel projection. The R of one
QR of [Y X] per block gives the block's joint core: the block is Q K Q^H
with K of at most 2r x 2r, Q an orthonormal basis of the ranges of the
block and its adjoint that is never formed. The class margins, the
normality check and the joint point spectrum read K, so none of them holds
a |B| x |B| array. An operator the oracle builds as L K R^H from a small
core K keeps only the core, so its own factors cost one r x r SVD, and its
blocks are built, and checked finite, when they are read. Operators built from T = M_w E M_u carry the atoms of the
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
read through a weak reference that keeps no operator alive; the adjoint
keeps what defines the operator's blocks and builds its own when they are
read.

The closed forms all have the shape M_a E M_b, rank one on each atom, and
are handled as their pairs (a, b). ``expectation_operator`` builds a pair's
blocks (``_expectation_blocks`` yields them one atom at a time); the pair
rules (adjoint, product, coimage projection, norm per atom) cost O(n) in
segment sums over the atoms and build no block. ``core_distance`` is the
one comparison, the operator norm of a difference: each side a pair or an
operator held as its cores, it costs O(n r^2) in segment sums over the
blocks plus one stacked values-only SVD of cores of at most
(r_1 + r_2) x (r_1 + r_2), and builds no block either.
"""

from __future__ import annotations

import functools
import logging
import math
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
    An operator the oracle derives keeps only what defines it (its cores,
    or the operator it is the adjoint of): its ``parts`` are assembled on
    their first read.
    """

    space: FiniteMeasureSpace
    blocks: tuple
    _parts: object = field(repr=False)  # the blocks, or a callable yielding them
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
        self._assign(parts, space, blocks, {})

    @classmethod
    def _of_blocks(cls, parts, space: FiniteMeasureSpace, blocks: tuple, memo=None):
        """The operator with these diagonal blocks over ``blocks`` (already a
        partition). ``parts`` is an iterable of new arrays the caller hands
        over, frozen in place, not copied; or a callable yielding them one
        block at a time, called when ``parts`` is read, with what defines
        them in ``memo``."""
        op = cls.__new__(cls)
        op._assign(parts if callable(parts) else tuple(parts), space, blocks, dict(memo or {}))
        return op

    def _assign(self, parts, space: FiniteMeasureSpace, blocks: tuple, memo: dict) -> None:
        fields = (("space", space), ("blocks", blocks), ("_parts", parts), ("_memo", memo))
        for name, value in fields:
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Every construction ends here: each block must be a finite square
        matrix over its indices; it is stored complex and read-only. An
        operator held as its cores checks that they are finite instead, and
        its blocks are checked when they are built (``_block_parts``)."""
        parts = self._parts
        if not callable(parts):
            object.__setattr__(self, "_parts", _checked_parts(self.blocks, parts))
            return
        cores = self._memo.get(_CORES)
        arrays = [a.ravel() for core in cores or () for a in core[1:]]
        if arrays and not np.isfinite(np.concatenate(arrays)).all():
            raise ValueError("operator entries must be finite")

    @property
    def parts(self) -> tuple:
        """The diagonal blocks in block order, assembled on the first read
        where the operator keeps only what defines them. ``_parts`` is read
        once, so two threads reading it first both assemble the same blocks."""
        parts = self._parts
        if callable(parts):
            parts = _checked_parts(self.blocks, parts())
            object.__setattr__(self, "_parts", parts)
        return parts

    @property
    def entries(self) -> np.ndarray:
        """The n x n matrix on value vectors, assembled on each read."""
        n = self.space.point_count
        out = np.zeros((n, n), dtype=complex)
        for b, p in zip(self.blocks, self.parts):
            out[np.ix_(b, b)] = p
        out.setflags(write=False)
        return out


def _checked_parts(blocks: tuple, parts) -> tuple:
    """``parts`` as complex read-only arrays, each a finite square matrix
    over its indices."""
    parts = tuple(np.asarray(p, dtype=complex) for p in parts)
    for b, p in zip(blocks, parts, strict=True):
        if p.shape != (b.size, b.size):
            raise ValueError("each block must be square over its indices")
        _finite(p).setflags(write=False)
    return parts


def _finite(p: np.ndarray) -> np.ndarray:
    """p, once every entry is checked finite."""
    if not np.isfinite(p).all():
        raise ValueError("operator entries must be finite")
    return p


def _select(items, which):
    """``items`` at the indices ``which``, in that order; all of them when
    ``which`` is None."""
    return items if which is None else [items[k] for k in which]


def _holding_blocks(T: WeightedOperator) -> WeightedOperator:
    """T where it holds its blocks; where it keeps only what defines them, a
    copy of T holding them, so each is built once for several reads and T
    keeps none."""
    parts = T._parts  # read once: another thread may assemble T's blocks
    if not callable(parts):
        return T
    return WeightedOperator._of_blocks(parts(), T.space, T.blocks)


def _iter_parts(parts, which=None):
    """The blocks held as ``parts`` (a tuple, or a callable yielding them),
    one at a time: those at the indices ``which`` (``_select``); a callable
    builds only those."""
    return parts(which) if callable(parts) else iter(_select(parts, which))


def _block_parts(T: WeightedOperator, which=None):
    """T's blocks one at a time, in block order, or those at the indices
    ``which``. Where T keeps only what defines them they are built as
    ``parts`` would build them, to the bit, and checked finite as ``parts``
    would check them, but none is kept and no other block is built."""
    parts = T._parts  # read once: another thread may assemble T's blocks
    blocks = _iter_parts(parts, which)
    return map(_finite, blocks) if callable(parts) else blocks


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


def _rank_one_scales(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple) -> tuple:
    """(sigma, scales) of M_a E M_b: on each atom B its standard-coordinate
    block sqrt(mu) a (sqrt(mu) b)^T / mu(B) is sigma_B p q^H, with p and q
    the unit vectors on B along the lines sqrt(mu) a and conj(sqrt(mu) b)
    (``_unit_line``), and sigma_B = ||sqrt(mu) a||_B ||sqrt(mu) b||_B / mu(B).
    scales[side] is 1 over that line's norm on each atom, 0 where sigma_B
    is, so there p = q = 0. The lines are formed one at a time, not kept."""
    norms = [np.sqrt(_atom_sums(algebra, np.abs(_line(space, pair, s)) ** 2)) for s in (0, 1)]
    sigma = norms[0] * norms[1] / _atom_sums(algebra, space.weights)
    on = sigma > 0
    return sigma, [np.divide(1.0, norm, out=np.zeros_like(norm), where=on) for norm in norms]


def _line(space: FiniteMeasureSpace, pair: tuple, side: int) -> np.ndarray:
    """sqrt(mu) a (side 0) or conj(sqrt(mu) b) (side 1) of the pair (a, b),
    a new complex array."""
    line = np.multiply(_sqrt_weights(space), pair[side], dtype=complex)
    return np.conj(line, out=line) if side else line


def _unit_line(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple, side: int, scales: list
) -> np.ndarray:
    """p (side 0) or q (side 1) of ``_rank_one_scales``, a new array."""
    line = _line(space, pair, side)
    line *= scales[side][algebra.labels]
    return line


def expectation_norms(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple
) -> np.ndarray:
    """||M_a E M_b|| on each atom, in block order: the singular value of its
    rank-one block; the largest is the operator norm."""
    return _rank_one_scales(space, algebra, pair)[0]


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


def _check_space(a: WeightedOperator, b) -> None:
    """b, an operator or a function, or b itself a space, must be a's space."""
    other = getattr(b, "space", b)
    if a.space is not other and (
        a.space.point_count != other.point_count
        or not np.array_equal(a.space.weights, other.weights)
    ):
        raise ValueError("operands live on different spaces")


def _same_blocks(first: tuple, second: tuple) -> bool:
    """The two tuples of index arrays are the same blocks in the same order."""
    return first is second or (
        len(first) == len(second) and all(map(np.array_equal, first, second))
    )


def _sqrt_weights(space: FiniteMeasureSpace) -> np.ndarray:
    return np.sqrt(space.weights)


def _standard(db: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The standard-coordinate block of the block p, with db the square roots
    of the weights over its indices."""
    return (db[:, None] * p) / db[None, :]


def _std_blocks(T: WeightedOperator, which=None):
    """(indices, diagonal block of the standard-coordinate matrix) per block,
    or for the blocks at the indices ``which`` alone (``_block_parts``).

    Conjugating by D^(1/2) gives a matrix on standard C^n unitarily
    equivalent to T, so the dense LAPACK routines apply to its blocks."""
    d = _sqrt_weights(T.space)
    for b, p in zip(_select(T.blocks, which), _block_parts(T, which)):
        yield b, _standard(d[b], p)


def _from_std_blocks(pieces, T: WeightedOperator) -> WeightedOperator:
    """The operator with T's blocks whose standard-coordinate diagonal blocks
    are ``pieces`` (pairs of indices and matrices, in T's block order)."""
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


def _cutoff(svds: list) -> float:
    """The oracle's one rank cutoff over the blocks U diag(s) V^H:
    DEFAULT_RANK_TOL times the largest singular value of any of them."""
    return DEFAULT_RANK_TOL * max(s.max(initial=0.0) for _, _, s, _ in svds)


def _cut(svds: list) -> list:
    """(indices, X, s, Y) of each block U diag(s) V^H above the oracle's one
    rank cutoff (``_cutoff``): the part X diag(s) Y^H, with X = U_r and
    Y = V_r (|B| x r, orthonormal columns). They are copies, so U and V^H
    are not kept alive."""
    cutoff = _cutoff(svds)
    out = []
    for b, u, s, vh in svds:
        rank = int(np.sum(s > cutoff))
        out.append((b, u[:, :rank].copy(), s[:rank].copy(), vh[:rank].conj().T))
    return out


#: memo key of an operator the oracle built from cores: its list of
#: (indices, L, K, R), each standard-coordinate block being L K R^H
_CORES = "cores"

#: Gaussian columns of a block's sketch; a sketch is taken only where its
#: width is at most a quarter of the block's size, where it is cheaper than
#: the full SVD, so blocks of fewer than 16 points are factored in full
_SKETCH_WIDTH = 4
#: a sketch is accepted when its residual is at most this times its largest
#: singular value; it lies below DEFAULT_RANK_TOL, so every singular value a
#: sketch misses is under the rank cutoff
_SKETCH_TOL = 1e-13
#: seed of every sketch's Gaussian columns, so a block's factors depend on
#: the block alone, not on the run or the blocks factored before it
_SKETCH_SEED = 0


def _sketch(m: np.ndarray):
    """(U, s, V^H, residual) of the square standard-coordinate block m by
    the range finder of Halko, Martinsson and Tropp ("Finding structure with
    randomness", SIAM Review 53(2), 2011), or None where the full SVD is to
    be run instead.

    Q from the QR of m Omega, with Omega _SKETCH_WIDTH Gaussian columns
    drawn from _SKETCH_SEED, spans most of m's range; the SVD of the small
    Q^H m = P diag(s) V^H gives U = Q P. Every singular value of m lies
    within the residual ||m - Q Q^H m||_F of its sketched value (Weyl's
    inequality), and those past the width under it. The sketch is taken
    only where its width is at most a quarter of the block's size, and
    accepted when the residual is at most _SKETCH_TOL s_1. The residual is
    formed explicitly: ||m||^2 - ||Q^H m||^2 would cancel away the digits
    it is read for."""
    size = m.shape[0]
    if 4 * _SKETCH_WIDTH > size:
        return None
    omega = np.random.default_rng(_SKETCH_SEED).standard_normal((size, _SKETCH_WIDTH))
    q = _solve("qr", m @ omega)[0]
    c = q.conj().T @ m
    p, s, vh = _solve("svd", c, full_matrices=False)
    r = q @ c
    r -= m
    residual = math.sqrt(np.vdot(r, r).real)
    accepted = residual <= _SKETCH_TOL * s[0]
    ratio = residual / s[0] if s[0] > 0 else (math.inf if residual else 0.0)
    log.debug(
        "sketch %dx%d width %d residual/s1 %.3g %s",
        size, size, _SKETCH_WIDTH, ratio,
        "accepted" if accepted else "rejected, fell back to the full SVD",
    )
    return (q @ p, s, vh, residual) if accepted else None


def _block_svds(T: WeightedOperator) -> list:
    """(indices, U, s, V^H) of each standard-coordinate block of T: its
    certified sketch (``_sketch``), or its full SVD. A sketched block with a
    singular value within its residual of the one rank cutoff is factored in
    full too, so every rank decision is the full SVD's: the sketched values
    of the other blocks lie on the same side of the cutoff as the true ones.
    Only such a block is built a second time, alone."""
    svds, residuals = [], []
    for b, m in _std_blocks(T):
        *usv, residual = _sketch(m) or (*_solve("svd", m), None)
        svds.append((b, *usv))
        residuals.append(residual)
    cutoff = _cutoff(svds)
    undecided = [
        k
        for k, ((_, _, s, _), residual) in enumerate(zip(svds, residuals))
        if residual is not None and np.any(np.abs(s - cutoff) <= residual)
    ]
    for k, (b, m) in zip(undecided, _std_blocks(T, undecided)):
        log.debug(
            "sketch %dx%d fell back to the full SVD: a value within its residual"
            " of the rank cutoff", b.size, b.size,
        )
        svds[k] = (b, *_solve("svd", m))
    return svds


@_once_per_operator
def _factors(T: WeightedOperator) -> list:
    """(indices, X, s, Y) of each standard-coordinate block X diag(s) Y^H,
    cut at the oracle's one rank cutoff (``_cut``); every rank decision of
    the oracle reads them.

    The adjoint of a live A has A's factors swapped, the same arrays. An
    operator built from cores L K R^H with orthonormal L and R factors each
    r x r core, K = P diag(s) Q^H, so X = L P and Y = R Q. Any other
    operator cuts one factorization of each of its blocks (``_block_svds``):
    a certified sketch of _SKETCH_WIDTH columns, which costs |B|^2 times
    the width, or else the full SVD."""
    ref = T._memo.get(_ADJOINT_OF)
    source = ref() if ref is not None else None
    if source is not None:
        return [(b, y, s, x) for b, x, s, y in _factors(source)]
    cores = T._memo.get(_CORES)
    if cores is None:
        return _cut(_block_svds(T))
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
    orthonormal columns). It keeps only the cores: its factors cost one
    r x r SVD per block, and its blocks are built when they are read."""
    build = functools.partial(_cored_parts, cores, T.space)
    return WeightedOperator._of_blocks(build, T.space, T.blocks, {_CORES: cores})


def _cored_parts(cores: list, space: FiniteMeasureSpace, which=None):
    """The blocks on value vectors of the operator held as ``cores``, one at
    a time (``_from_cores``), or those at the indices ``which``:
    D^(-1/2) L K R^H D^(1/2) over each block, with the weights applied to
    the |B| x r factors, so one product builds it."""
    d = _sqrt_weights(space)
    for b, left, k, right in _select(cores, which):
        db = d[b][:, None]
        yield ((left / db) @ k) @ (right * db).conj().T


def core_distance(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, first, second) -> float:
    """||first - second|| on L2(mu), with no |B| x |B| array. Each side is
    the pair (a, b) of M_a E M_b on the atoms of ``algebra``, or an operator
    held as its cores (``_from_cores``: L K R^H on each block in standard
    coordinates, L and R with orthonormal columns). NaN where a side is not
    finite.

    On each block the difference is [L_1 L_2] diag(K_1, -K_2) [R_1 R_2]^H,
    with side 1 an operator held as its cores. Gram-Schmidt of each stack of
    factors against side 1's orthonormal columns (``_gram_schmidt``) gives
    its R factor, and R_L diag(K_1, -K_2) R_R^H, at most
    (r_1 + r_2) x (r_1 + r_2), is a core with the difference's singular
    values: one stacked values-only SVD of the cores gives every block's
    norm, in O(n r^2) over all blocks. A pair's block on an atom B is
    (sqrt(mu) a) (1 / mu(B)) (conj(sqrt(mu) b))^H. Sides blocked
    differently, such as a pair and an operator of one block, are compared
    as one block, whose factors take each block's as columns
    (``_as_one_block``). Two pairs take the rank-one arithmetic of
    ``_pair_distance``."""
    if isinstance(first, tuple):
        if isinstance(second, tuple):
            return _pair_distance(space, algebra, first, second)
        first, second = second, first
    _check_space(first, space)
    sides = [(first.blocks, _cored_lines(first))]
    if isinstance(second, tuple):
        sides.append((algebra.blocks, _pair_lines(space, algebra, second)))
    else:
        _check_space(second, space)
        sides.append((second.blocks, _cored_lines(second)))
    if not _same_blocks(sides[0][0], sides[1][0]):
        sides = [(None, _as_one_block(*side)) for side in sides]
    return _lines_distance(sides[0][1], sides[1][1])


def _pair_distance(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, first: tuple, second: tuple
) -> float:
    """||M_a E M_b - M_c E M_d|| for the pairs first = (a, b) and
    second = (c, d): the largest over the atoms of the norm of
    sigma_1 p_1 q_1^H - sigma_2 p_2 q_2^H (``_rank_one_scales``).

    On each atom the second pair's lines are split along the first's,
    p_2 = c p_1 + rho e with rho = ||p_2 - c p_1|| (the Gram-Schmidt
    residual: sqrt(1 - |c|^2) would lose the digits when the lines
    nearly coincide, the case a passing check measures), and likewise
    q_2 = d q_1 + tau f. The difference is then a 2 x 2 core in the
    orthonormal bases (p_1, e) and (q_1, f)."""
    (s1, scales1), (s2, scales2) = (_rank_one_scales(space, algebra, x) for x in (first, second))
    (c, rho), (d, tau) = (
        _split(space, algebra, (first, scales1), (second, scales2), side) for side in (0, 1)
    )
    cores = np.empty((algebra.block_count, 2, 2), dtype=complex)
    cores[:, 0, 0] = s1 - s2 * c * np.conj(d)
    cores[:, 0, 1] = -s2 * c * tau
    cores[:, 1, 0] = -s2 * rho * np.conj(d)
    cores[:, 1, 1] = -s2 * rho * tau
    return _largest_value(cores)


def _split(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, first: tuple, second: tuple, side: int
) -> tuple:
    """(c, rho) of ``_pair_distance`` on one side (0 for p, 1 for q), each
    of first and second a pair with its ``_rank_one_scales``: the second's
    unit line is c times the first's plus a residual of norm rho, per atom.
    Only this side's lines are formed."""
    x1, x2 = (_unit_line(space, algebra, pair, side, scales) for pair, scales in (first, second))
    inner = np.conj(x1)
    inner *= x2
    along = _atom_sums(algebra, inner)
    del inner  # a line's memory, free before the residual takes its own
    residual = along[algebra.labels]
    residual *= x1
    np.subtract(x2, residual, out=residual)
    return along, np.sqrt(_atom_sums(algebra, np.abs(residual) ** 2))


def _largest_value(cores: np.ndarray) -> float:
    """The largest singular value over a stack of cores, by one values-only
    SVD; NaN where a core is not finite, which LAPACK would reject."""
    if not np.isfinite(cores).all():
        return math.nan
    return float(_solve("svd", cores, compute_uv=False).max(initial=0.0))


class _Lines(NamedTuple):
    """A block-diagonal operator whose standard-coordinate block is L K R^H
    on each block, held flat over its blocks listed one after the other
    (block k from row ``starts[k]``, in ``sizes[k]`` rows): ``lines``
    stacks L and R (2 x n x r) with their rows in that order, and ``core``
    the K (blocks x r x r). A block of lower rank has zero columns in L and
    R and zero rows and columns in K. Each is built for one comparison,
    which overwrites its lines (``_gram_schmidt``)."""

    starts: np.ndarray
    sizes: np.ndarray
    lines: np.ndarray
    core: np.ndarray


def _segments(blocks: tuple) -> tuple:
    """(starts, sizes) of ``blocks`` listed one after the other."""
    sizes = np.fromiter(map(len, blocks), int, len(blocks))
    return np.add.accumulate(sizes) - sizes, sizes


def _pair_lines(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple) -> _Lines:
    """The ``_Lines`` of M_a E M_b over the atoms of ``algebra``, in their
    order: L = sqrt(mu) a, K = 1 / mu(B) and R = conj(sqrt(mu) b) on each
    atom B."""
    order, (starts, sizes) = np.concatenate(algebra.blocks), _segments(algebra.blocks)
    lines = np.empty((2, order.size, 1), dtype=complex)
    for side in (0, 1):  # "wrap" takes into out with no buffer; order never wraps
        np.take(_line(space, pair, side), order, out=lines[side, :, 0], mode="wrap")
    mass = np.add.reduceat(space.weights[order], starts).astype(complex)
    return _Lines(starts, sizes, lines, (1.0 / mass)[:, None, None])


def _cored_lines(T: WeightedOperator) -> _Lines:
    """The ``_Lines`` of an operator held as its cores, gathered anew by one
    ``_padded``: each block's L and R go under the previous block's and its
    K into the stack, each zero-padded to the largest rank."""
    cores = T._memo.get(_CORES)
    if cores is None:
        raise ValueError("an operand must be a pair or an operator held as its cores")
    starts, sizes = _segments(T.blocks)
    _, lefts, ks, rights = zip(*cores)
    mats = lefts + rights + ks
    rows, cols = _shapes(mats)
    rank, n = cols.max(), sizes.sum()
    heights = np.concatenate([sizes, sizes, np.full(len(ks), rank)])
    flat = _padded(mats, rows, cols, heights, rank)
    core = flat[2 * n :].reshape(len(ks), rank, rank)
    return _Lines(starts, sizes, flat[: 2 * n].reshape(2, n, rank), core)


def _shapes(mats) -> tuple:
    """(rows, columns) of the 2-d arrays ``mats``, read one at a time: a
    list of all their shape tuples would leave them on the interpreter's
    free list of tuples, held for the rest of the run."""
    count = len(mats)
    return np.fromiter(map(len, mats), int, count), np.fromiter(
        (m.shape[1] for m in mats), int, count
    )


def _padded(mats, rows, cols, heights: np.ndarray, width: int) -> np.ndarray:
    """The 2-d arrays ``mats``, of these numbers of ``rows`` and ``cols``,
    one under another, mats[k] in the first rows of a slot of
    ``heights[k]`` rows, zero-padded on the right to ``width``: one masked
    assignment, the mask True on each slot's top-left corner of its
    matrix's shape, which it fills in row-major order."""
    ends = np.add.accumulate(heights) - heights + rows  # past each matrix's last row
    below = np.arange(heights.sum()) < np.repeat(ends, heights)
    mask = below[:, None] & (np.arange(width) < np.repeat(cols, heights)[:, None])
    out = np.zeros(mask.shape, dtype=complex)
    out[mask] = np.concatenate(mats, axis=None)
    return out


def _as_one_block(blocks: tuple, side: _Lines) -> _Lines:
    """The operator held as ``side`` over ``blocks`` as one block over the
    points in their own order: block k's columns of L and R become columns
    k r to (k + 1) r of the one block's, and its K the k-th diagonal block
    of the one K. Blocks are disjoint, so orthonormal columns stay
    orthonormal."""
    n, count, rank = side.lines.shape[1], side.sizes.size, side.core.shape[1]
    columns = np.repeat(np.arange(count), side.sizes)[:, None] * rank + np.arange(rank)
    lines = np.zeros((2, n, count * rank), dtype=complex)
    lines[:, np.concatenate(blocks)[:, None], columns] = side.lines
    at = np.arange(count)[:, None, None] * rank
    core = np.zeros((1, count * rank, count * rank), dtype=complex)
    core[0, at + np.arange(rank)[:, None], at + np.arange(rank)] = side.core
    return _Lines(np.zeros(1, dtype=int), np.full(1, n), lines, core)


def _lines_distance(first: _Lines, second: _Lines) -> float:
    """||first - second|| for two operators held as ``_Lines`` over the same
    blocks in the same order, first's L and R with orthonormal columns: per
    block, the largest singular value of the core R_L diag(K_1, -K_2) R_R^H
    (``core_distance``). Gram-Schmidt loops once per column of second: on
    one block, a pair's columns are its atoms."""
    r1, r2 = first.core.shape[1], second.core.shape[1]
    core = np.zeros((first.starts.size, r1 + r2, r1 + r2), dtype=complex)
    core[:, :r1, :r1] = first.core
    core[:, r1:, r1:] = -second.core
    left, right = _gram_schmidt(first.lines, second.lines, first.starts, first.sizes)
    return _largest_value(left @ core @ right.conj().transpose(0, 2, 1))


def _segment_sums(x: np.ndarray, y: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sums of x * y over each block of rows (axis 1, block k from row
    ``starts[k]``), formed in x's memory: x is overwritten."""
    return np.add.reduceat(np.multiply(x, y, out=x), starts, axis=1)


def _combination(q: np.ndarray, c: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """On each block, q's columns combined with that block's coefficients c
    (blocks x columns, along axis 1), for blocks of ``sizes`` rows."""
    out = np.repeat(c, sizes, axis=1)
    out *= q
    return out[..., 0] if out.shape[-1] == 1 else out.sum(axis=-1)


def _gram_schmidt(basis: np.ndarray, x: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """The upper-triangular R of [basis x] = Q R on each block, for each of
    the stacks of factors along the first axis (L's and R's). ``basis`` has
    orthonormal (or zero) columns on each block, so R begins with the
    identity and Q with ``basis``; Q's other columns are orthonormal or zero
    and not kept. Rows are in block order, block k from row ``starts[k]``
    in ``sizes[k]`` rows. x is overwritten with its residuals.

    Classical Gram-Schmidt over x's columns, with every inner product a
    segment sum over the rows, so it costs O(n m^2) for m columns and has
    no loop over the blocks. The residual is formed explicitly, so a column
    nearly in the span of those before it keeps its digits. A column is
    projected twice ("twice is enough": Giraud, Langou and Rozloznik,
    Comput. Math. Appl. 50, 2005), and dropped when its second projection
    still loses over half its norm, as it then lies in that span to
    rounding. The last column is projected once: nothing is projected onto
    it, and it enters R only through its norm."""
    stacks, rows, r = basis.shape
    m = r + x.shape[2]
    q = basis
    if m - r > 1:
        q = np.concatenate([basis, np.zeros((stacks, rows, m - r - 1), dtype=complex)], axis=2)
    out = np.zeros((stacks, starts.size, m, m), dtype=complex)
    out[..., range(r), range(r)] = 1.0
    for j in range(r, m):
        v, norms = x[..., j - r], []  # a view: the residual is formed in x
        for _ in range(2 if j < m - 1 else 1):
            c = _segment_sums(np.conj(q[..., :j]), v[..., None], starts)
            v -= _combination(q[..., :j], c, sizes)
            out[..., :j, j] += c
            squares = np.abs(v)
            norms.append(np.sqrt(_segment_sums(squares, squares, starts)))
        norm = norms[-1] if len(norms) == 1 else np.where(norms[1] >= 0.5 * norms[0], norms[1], 0)
        out[..., j, j] = norm
        if j < m - 1:
            scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0)
            np.multiply(v, np.repeat(scale, sizes, axis=1), out=q[..., j])
    return out


def apply(T: WeightedOperator, f: MeasurableFunction) -> MeasurableFunction:
    _check_space(T, f)
    out = np.empty(T.space.point_count, dtype=complex)
    for b, p in zip(T.blocks, T.parts):
        out[b] = p @ f.values[b]
    return MeasurableFunction(out, T.space)


@_once_per_operator
def adjoint(T: WeightedOperator) -> WeightedOperator:
    """The unique T* with <Tf, g> = <f, T*g> for the weighted inner product;
    built once per operator, so the factorizations of T* are shared too. It
    keeps what defines T's blocks, not T, and builds its own when they are
    read."""
    build = functools.partial(_adjoint_parts, T._parts, T.blocks, T.space.weights)
    adj = WeightedOperator._of_blocks(build, T.space, T.blocks)
    # weak: T's memo holds T*, so a strong reference back would be a cycle
    adj._memo[_ADJOINT_OF] = weakref.ref(T)
    return adj


def _adjoint_parts(source, blocks: tuple, mu: np.ndarray, which=None):
    """The blocks of the adjoint, D^-1 P^H D for each block P of ``source``
    (the blocks, or a callable yielding them), one at a time, or those at
    the indices ``which``: only the matching blocks of ``source`` are read."""
    for b, p in zip(_select(blocks, which), _iter_parts(source, which)):
        yield (p.conj().T * mu[b][None, :]) / mu[b][:, None]


def compose(A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    """A B, block by block when both have the same blocks; otherwise one
    dense product whose result is one block."""
    _check_space(A, B)
    if not _same_blocks(A.blocks, B.blocks):
        return WeightedOperator(A.entries @ B.entries, A.space)
    return WeightedOperator._of_blocks(
        [a @ b for a, b in zip(A.parts, B.parts)], A.space, A.blocks
    )


def subtract(A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    """A - B, block by block when both have the same blocks; otherwise one
    block."""
    _check_space(A, B)
    if not _same_blocks(A.blocks, B.blocks):
        return WeightedOperator(A.entries - B.entries, A.space)
    return WeightedOperator._of_blocks(
        [a - b for a, b in zip(A.parts, B.parts)], A.space, A.blocks
    )


@_once_per_operator
def eigenvalues(T: WeightedOperator) -> np.ndarray:
    """All n eigenvalues with multiplicity (unordered multiset, read-only).

    A block of rank r below its size (under the rank cutoff over all
    blocks) has the eigenvalues of the r x r core of its factors and exact
    zeros; a full-rank block, the only one built here, is factored by
    eigvals."""
    evals = []
    for k, (b, x, s, y) in enumerate(_factors(T)):
        if s.size == b.size:
            evals.append(_solve("eigvals", next(_std_blocks(T, [k]))[1]))
            continue
        if s.size:
            evals.append(_solve("eigvals", _core(x, s, y)))
        evals.append(np.zeros(b.size - s.size, dtype=complex))
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
    A = _holding_blocks(A)  # built once, for the test and for eigh
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
