"""Operators on the weighted L2 space, stored atom by atom, and the
numerical oracle.

An operator is block-diagonal: ``blocks`` partitions the points into index
arrays, and ``parts`` gives, for each block B, the matrix the operator acts
by on value vectors over B. It is held in one of two forms: its blocks
(the dense reference), or its lines and cores L K R^H on each block (T,
T* and the oracle's derived operators), which build ``parts`` and the
full n x n matrix ``entries`` on each read and keep neither. The adjoint
on the weighted inner product is D^-1 A^H D with D = diag(mu), block by
block, held in its operator's form, and all spectral computations
conjugate by D^(1/2) into standard C^n, so LAPACK runs on each block, at a
cost of at most sum |B|^3 instead of n^3.

The oracle factors each block once, cut at the one rank cutoff over all
blocks, into rank-r factors X diag(s) Y^H, memoized in one flat form
(``_Factors``: X and Y as n x R arrays zero-padded to the largest rank R).
T = M_w E M_u is rank one on each atom, so ``expectation_operator`` holds
it as its unit lines and 1 x 1 cores, read off (w, u) in segment sums. T,
T* and every operator the oracle derives from them (``_Lines``) are held
as lines of width 1, so every question asked of one is read in closed
form off one record per atom: its unit lines x and y, s = |k| with the
phase of its core k, g = y^H x (``_inner_cores``) and h = ||x - g y||
(``_rank_one_r``). Its factors take no SVD (``_cored_factors``), its
eigenvalues are s g with no block built (``eigenvalues``), its joint core
is [[s g, 0], [s h, 0]] (``_joint_cores``), and the class margins and the
normality check read those. So a verify of T makes no LAPACK call but the
joint point spectrum's SVDs of its candidate 2 x 2 cores: on
random_instance(7, 64, 8), ``svd 16x2x2`` twice. The width-general routes
are those of the one-block reference the tests compare against, taken
where the factors are wider than one column: the full SVD of each block
of an operator held as its blocks (``_cut``), one stacked SVD of wider
cores, Gram-Schmidt of [Y X] in segment sums (``_gram_schmidt``), and
stacked eigvals and eigvalsh. Every question is stacked arithmetic over
all blocks, with each result masked by the block's rank: the norm, the
singular values, the eigenvalues, the powers of T*T and TT*, the polar
isometry, the Aluthge transform and the kernel projection. The oracle
reads the partition and (w, u), never the conditional moments, so it
stays independent of the closed forms it checks; every decision over the
whole operator uses all blocks' values, so results match a one-block
factorization (the dense oracle) to rounding. Operators are immutable, so
factorizations and adjoints are computed once and shared; an adjoint's
factors are its operator's swapped, read through a weak reference.

The closed forms all have the shape M_a E M_b, rank one on each atom, and
are handled as their pairs (a, b): the pair rules (adjoint, product,
coimage projection, norm per atom) cost O(n) in segment sums over the
atoms, with every norm safe at any scale (``_block_norms``).
``core_distances`` is the one comparison, the operator norm of a
difference, for a batch of them, each side a pair or an operator held as
its cores. Where every side has width 0 or 1, as in every comparison of
a verify, a rank-one kernel writes each distinct line the batch reads
into one stack once, forms each distinct projection of one line on
another by index over it, over bounded groups of atoms, and takes the
largest singular value of each 2 x 2 core in closed form
(``_rank_one_distances``), with no LAPACK call. Wider sides take one
Gram-Schmidt over the batch in O(n r^2) per comparison, giving each
difference's core of at most (r_1 + r_2) x (r_1 + r_2), and one stacked
values-only SVD. No pair rule and no comparison builds a block.
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
    """A linear operator on L2(mu), block-diagonal over ``blocks``.

    ``WeightedOperator(entries, space, blocks)`` takes the n x n matrix on
    value vectors, which must vanish outside the diagonal blocks that
    ``blocks`` (index arrays partitioning the points; one block without
    it) define. ``parts[k]`` is the block over ``blocks[k]``. An operator
    is held in one of two forms: its blocks (``_parts``; the dense
    reference), or its lines and cores (``_memo[_LINES]``; T, T* and the
    oracle's derived operators), which hold no block (``_parts`` is None)
    and build ``parts`` on each read.
    """

    space: FiniteMeasureSpace
    blocks: tuple
    _parts: Optional[tuple] = field(repr=False)  # the blocks, or None
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
        over, frozen in place, not copied; or None for an operator held as
        its lines, given in ``memo``."""
        op = cls.__new__(cls)
        op._assign(None if parts is None else tuple(parts), space, blocks, dict(memo or {}))
        return op

    def _assign(self, parts, space: FiniteMeasureSpace, blocks: tuple, memo: dict) -> None:
        fields = (("space", space), ("blocks", blocks), ("_parts", parts), ("_memo", memo))
        for name, value in fields:
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Every construction ends here: each block must be a finite square
        matrix over its indices, stored complex and read-only. An operator
        held as its lines checks its lines and cores finite instead, and its
        blocks when they are built (``_block_parts``)."""
        if self._parts is not None:
            object.__setattr__(self, "_parts", _checked_parts(self.blocks, self._parts))
            return
        held = self._memo[_LINES]
        if not (np.isfinite(held.lines).all() and np.isfinite(held.core).all()):
            raise ValueError("operator entries must be finite")

    @property
    def parts(self) -> tuple:
        """The diagonal blocks in block order: those held, or, for an
        operator held as its lines, built on each read
        (``_block_parts``), none kept."""
        if self._parts is not None:
            return self._parts
        return _checked_parts(self.blocks, _block_parts(self))

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


def _block_parts(T: WeightedOperator, which=None):
    """T's blocks one at a time, in block order, or those at the indices
    ``which``: the one reader of blocks. Held blocks are read; for T held
    as its lines each is built (``_built_block``) and checked finite, none
    is kept and no other block is built."""
    indices = range(len(T.blocks)) if which is None else which
    if T._parts is not None:
        return (T._parts[k] for k in indices)
    return (_finite(_built_block(T, k)) for k in indices)


def _built_block(T: WeightedOperator, k: int) -> np.ndarray:
    """Block k on value vectors of T held as its lines (``_Lines``),
    D^(-1/2) L K R^H D^(1/2) over the block, with the weights applied to
    the |B| x R lines, so one product builds it."""
    held = T._memo[_LINES]
    left, right = held.lines[:, held.starts[k] : held.starts[k] + held.sizes[k]]
    db = np.sqrt(T.space.weights[T.blocks[k]])[:, None]
    return ((left / db) @ held.core[k]) @ (right * db).conj().T


def expectation_operator(
    space: FiniteMeasureSpace,
    algebra: SubSigmaAlgebra,
    left: Optional[np.ndarray] = None,
    right: Optional[np.ndarray] = None,
) -> WeightedOperator:
    """The operator f -> left * E(right * f) over the atoms of ``algebra``
    (E itself when both are omitted), held as its lines, read-only. In
    standard coordinates its block on an atom B is x_B y_B^H, with
    x = sqrt(mu) left and y = conj(sqrt(mu) right) / mu(B), which
    ``_pair_lines`` holds as its exact SVD: L = x / ||x||_B and
    R = y / ||y||_B (zero where the atom's norm is 0), and the 1 x 1 core
    K = ||x||_B ||y||_B. Its blocks are built on each read
    (``_block_parts``), and its factors are read off its cores in closed
    form (``_cored_factors``)."""
    n = space.point_count
    pair = tuple(np.ones(n) if x is None else np.asarray(x) for x in (left, right))
    lines, cores = _pair_lines(space, algebra.blocks, [pair], True)
    held = _Lines(*_segments(algebra.blocks), lines[:, 0, :, None], cores[0, :, None, None] + 0j)
    for array in (lines, *held):
        array.setflags(write=False)
    return WeightedOperator._of_blocks(None, space, algebra.blocks, {_LINES: held})


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


def expectation_norms(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple
) -> np.ndarray:
    """||M_a E M_b|| on each atom, in block order: the singular value
    ||sqrt(mu) a||_B ||sqrt(mu) b||_B / mu(B) of its rank-one block; the
    largest is the operator norm. It is safe at any scale: where a sum of
    squares may have lost a square to overflow or underflow
    (``_squares_safe``), the norms are taken again on each atom's lines
    divided by their power of two (``_block_norms``)."""
    d, mass = _sqrt_weights(space), _atom_sums(algebra, space.weights)
    with np.errstate(over="ignore"):  # an overflow fails the check below
        sums = np.array([_atom_sums(algebra, np.abs(d * x) ** 2) for x in pair])
    if _squares_safe(sums):
        return np.sqrt(sums[0]) * np.sqrt(sums[1]) / mass
    (starts, sizes), order = _segments(algebra.blocks), np.concatenate(algebra.blocks)
    lines = np.multiply(np.stack(pair)[:, order], d[order], dtype=complex, order="C")
    norms, powers = _block_norms(lines, starts, sizes)
    return norms[0] * norms[1] / mass * powers[0] * powers[1]


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
    blocks = T.blocks if which is None else [T.blocks[k] for k in which]
    for b, p in zip(blocks, _block_parts(T, which)):
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
    share the result (an array result, and each array of a tuple result, is
    made read-only)."""

    @functools.wraps(fn)
    def memoized(T: WeightedOperator):
        if fn.__name__ not in T._memo:
            value = fn(T)
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
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


def _kept(ranks: np.ndarray, width: int) -> np.ndarray:
    """The blocks x width mask of the columns within each block's rank."""
    return np.arange(width) < ranks[:, None]


class _Factors(NamedTuple):
    """An operator's factors X diag(s) Y^H on each block, held flat over its
    blocks listed one after the other (block k from row ``starts[k]``, in
    ``sizes[k]`` rows): ``lines`` stacks X and Y (2 x n x R, orthonormal
    columns on each block) and ``s`` the singular values (blocks x R), each
    zero-padded past the block's rank ``ranks[k]`` to the largest rank R."""

    starts: np.ndarray
    sizes: np.ndarray
    ranks: np.ndarray
    lines: np.ndarray
    s: np.ndarray


def _cut(blocks: tuple, svds: list) -> _Factors:
    """The ``_Factors`` over ``blocks`` of the full SVD U diag(s) V^H of
    each block, in ``svds``, cut at the one rank cutoff, DEFAULT_RANK_TOL
    times the largest value of any block: X = U_r, s_r, Y = V_r."""
    cutoff = DEFAULT_RANK_TOL * max(s.max(initial=0.0) for _, s, _ in svds)
    starts, sizes = _segments(blocks)
    ranks = np.array([np.count_nonzero(s > cutoff) for _, s, _ in svds], dtype=int)
    width = ranks.max(initial=0)
    lines = np.zeros((2, sizes.sum(), width), dtype=complex)
    values = np.zeros((sizes.size, width))
    for k, (u, s, vh) in enumerate(svds):
        rows, rank = slice(starts[k], starts[k] + sizes[k]), ranks[k]
        lines[0, rows, :rank], lines[1, rows, :rank] = u[:, :rank], _conj_t(vh[:rank])
        values[k, :rank] = s[:rank]
    return _Factors(starts, sizes, ranks, lines, values)


#: memo key of an operator held as its lines: its ``_Lines``, each
#: standard-coordinate block being L K R^H
_LINES = "lines"


@_once_per_operator
def _factors(T: WeightedOperator) -> _Factors:
    """T's factors X diag(s) Y^H on each standard-coordinate block, cut at
    the oracle's one rank cutoff, held flat (``_Factors``). The adjoint of a
    live A has A's factors swapped, views of the same arrays. Otherwise the
    form T is held in decides: its lines and cores (T, T* and the oracle's
    derived operators), its cores' SVD, in closed form for 1 x 1 cores
    (``_cored_factors``); its blocks (the dense reference), the full SVD
    of each block
    (``_cut``). An adjoint whose operator is gone is held in that
    operator's form, so it takes the same route."""
    ref = T._memo.get(_ADJOINT_OF)
    source = ref() if ref is not None else None
    if source is not None:
        factors = _factors(source)
        return factors._replace(lines=factors.lines[::-1])
    if T._parts is None:
        return _cored_factors(T._memo[_LINES])
    return _cut(T.blocks, [_solve("svd", m) for _, m in _std_blocks(T)])


def _cored_factors(held: _Lines) -> _Factors:
    """The ``_Factors`` of the operator held as L K R^H on each block, L and
    R with orthonormal (or zero) columns, cut at the one rank cutoff. A
    1 x 1 core k (T, T* and every operator the oracle derives from them)
    is its own SVD: s = |k|, X = L k / |k| and Y = R. Wider cores (the
    one-block reference) take one stacked SVD K = P diag(s) Q^H, which
    gives X = L P and Y = R Q, one column at a time (``_combination``)."""
    if held.core.shape[1] <= 1:
        core = held.core.reshape(held.core.shape[:2])
        s = np.abs(core)
        kept = s > DEFAULT_RANK_TOL * s.max(initial=0.0)
        ranks = np.count_nonzero(kept, axis=1)
        turns = np.stack([np.divide(core, s, out=np.zeros_like(core), where=kept), kept + 0j])
        lines = held.lines * np.repeat(turns, held.sizes, axis=1)
        width = ranks.max(initial=0)
        values = np.where(kept, s, 0.0)[:, :width]
        return _Factors(held.starts, held.sizes, ranks, lines[..., :width], values)
    p, s, qh = _solve("svd", held.core)
    ranks = np.count_nonzero(s > DEFAULT_RANK_TOL * s.max(initial=0.0), axis=1)
    width = ranks.max(initial=0)
    kept = _kept(ranks, width)
    turns = np.stack([p[..., :width], _conj_t(qh[:, :width])]) * kept[:, None, :]
    lines = np.empty(held.lines.shape[:2] + (width,), dtype=complex)
    for j in range(width):
        lines[..., j] = _combination(held.lines, turns[..., j], held.sizes)
    return _Factors(held.starts, held.sizes, ranks, lines, np.where(kept, s[:, :width], 0.0))


def _conj_t(mats: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each of a stack of them."""
    return np.swapaxes(mats, -1, -2).conj()


@_once_per_operator
def _inner_cores(T: WeightedOperator) -> np.ndarray:
    """C = Y^H X on each block X diag(s) Y^H of T's factors (blocks x R x R,
    zero past each block's rank), one segment sum per column of Y: the
    block's eigenvalues are those of C diag(s), and T^2's block is
    X (S C S) Y^H."""
    factors = _factors(T)
    x, y = factors.lines
    out = np.empty((factors.starts.size,) + factors.s.shape[1:] * 2, dtype=complex)
    for i in range(y.shape[1]):
        out[:, i] = np.add.reduceat(np.conj(y[:, i, None]) * x, factors.starts, axis=0)
    return out


class _JointCores(NamedTuple):
    """T's joint cores (``_joint_cores``), stacked over its blocks: R_y and
    R_x (blocks x 2R x R), the cores K (blocks x 2R x 2R), ``dims``
    (blocks x 2R) True at the columns of Q that are vectors, and
    ``complement`` (blocks) True where Q's vectors do not span the block's
    points."""

    r_y: np.ndarray
    r_x: np.ndarray
    core: np.ndarray
    dims: np.ndarray
    complement: np.ndarray


@_once_per_operator
def _joint_cores(T: WeightedOperator) -> _JointCores:
    """The joint cores of T's blocks X diag(s) Y^H, from the R of
    [Y X] = Q [R_y R_x] on each block. Q's nonzero columns are orthonormal
    and span the ranges of the block and of its adjoint, so the block is
    Q K Q^H with K = R_x diag(s) R_y^H. A zero column of Q (past the rank,
    or a column of X in the span of those before it) is no vector: K's row
    and column there are zero, and ``dims`` leaves it out. Q itself is
    never formed. Of width 1 (T, T* and the operators derived from them) R
    is [[1, g], [0, h]] in closed form (``_rank_one_r``), so K is
    [[s g, 0], [s h, 0]]; wider factors (the one-block reference) take
    Gram-Schmidt in segment sums over all blocks (``_gram_schmidt``; a
    zero column comes last)."""
    factors = _factors(T)
    x, y = factors.lines
    width = factors.s.shape[1]
    if width <= 1:
        r = _rank_one_r(factors, _inner_cores(T))
    else:
        columns = np.zeros((1, x.shape[0], width + 1), dtype=complex)
        columns[0, :, :width] = x
        r = _gram_schmidt(y[None], columns, factors.starts, factors.sizes)[0, :, :-1, :-1].copy()
    r_y, r_x = r[..., :width], r[..., width:]
    core = (r_x * factors.s[:, None, :]) @ _conj_t(r_y)
    kept_x = np.diagonal(r_x[:, width:], axis1=1, axis2=2) > 0
    dims = np.concatenate([_kept(factors.ranks, width), kept_x], axis=1)
    return _JointCores(r_y, r_x, core, dims, np.count_nonzero(dims, axis=1) < factors.sizes)


def _rank_one_r(factors: _Factors, inner: np.ndarray) -> np.ndarray:
    """The R of [Y X] = Q R on each block of factors of width 0 or 1, as
    ``_gram_schmidt`` takes it, in closed form: [[1, g], [0, h]] with
    g = Y^H X (``inner``) and h = ||X - g Y||, the residual projected on Y
    once more and h zeroed where that second projection loses over half
    its norm (blocks x 2w x 2w)."""
    blocks, width = inner.shape[:2]
    r = np.zeros((blocks, 2 * width, 2 * width), dtype=complex)
    if not width:
        return r
    (x, y), starts, sizes = factors.lines[..., 0], factors.starts, factors.sizes
    g = inner[:, 0, 0]
    residual = x - np.repeat(g, sizes) * y
    before = np.sqrt(np.add.reduceat(np.abs(residual) ** 2, starts))
    residual -= np.repeat(np.add.reduceat(np.conj(y) * residual, starts), sizes) * y
    after = np.sqrt(np.add.reduceat(np.abs(residual) ** 2, starts))
    r[:, 0, 0], r[:, 0, 1] = 1.0, g
    r[:, 1, 1] = np.where(after >= 0.5 * before, after, 0.0)
    return r


def _from_lines(held: _Lines, T: WeightedOperator) -> WeightedOperator:
    """The operator with T's blocks whose standard-coordinate blocks are
    L K R^H, held as ``held`` in T's block order (L and R with orthonormal
    columns). It is held as ``held``: its factors come from its cores
    (``_cored_factors``), and its blocks are built on each read
    (``_block_parts``)."""
    return WeightedOperator._of_blocks(None, T.space, T.blocks, {_LINES: held})


class _Lines(NamedTuple):
    """A block-diagonal operator whose standard-coordinate block is L K R^H
    on each block, held flat like ``_Factors``: ``lines`` stacks L and R
    (2 x n x r) and ``core`` the K (blocks x r x r), zero past a block's
    rank. T = M_w E M_u holds its unit lines (2 x n x 1) and 1 x 1 cores
    (``expectation_operator``); an operator the oracle derives from T's
    factors holds T's X and Y as its lines. All are read-only, and the
    adjoint shares its operator's lines."""

    starts: np.ndarray
    sizes: np.ndarray
    lines: np.ndarray
    core: np.ndarray


def _segments(blocks: tuple) -> tuple:
    """(starts, sizes) of ``blocks`` listed one after the other."""
    sizes = np.fromiter(map(len, blocks), int, len(blocks))
    return np.add.accumulate(sizes) - sizes, sizes


def _held_lines(space: FiniteMeasureSpace, T: WeightedOperator) -> _Lines:
    """The ``_Lines`` the operator T on ``space`` is held as: T, T* or an
    operator derived from T's factors; one held as its blocks is refused."""
    _check_space(T, space)
    held = T._memo.get(_LINES)
    if held is None:
        raise ValueError("an operand must be a pair or an operator held as its cores, not blocks")
    return held


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


def core_distances(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, comparisons) -> np.ndarray:
    """||first - second|| on L2(mu) for each (first, second) of
    ``comparisons``, with no |B| x |B| array; NaN where a side is not
    finite. A side is the pair (a, b) of M_a E M_b on the atoms of
    ``algebra`` (its block (sqrt(mu) a) (1 / mu(B)) (conj(sqrt(mu) b))^H on
    an atom B) or an operator held as L K R^H (``_from_lines``). Each block
    of a difference is [L_1 L_2] diag(K_1, -K_2) [R_1 R_2]^H, side 1 held
    as its cores or, of two pairs, as its unit lines; the comparisons over
    the same tuple of blocks are measured together (``_lines_distances``):
    by the rank-one kernel, in bounded groups of atoms, where no side is
    wider than one column, as in every comparison of a verify, and else by
    one Gram-Schmidt and one pass over their cores. Sides blocked
    differently are compared as one block (``_as_one_block``)."""
    margins = np.empty(len(comparisons))
    groups = {}  # id(blocks) -> (blocks, indices, sides) of the comparisons over them
    for k, sides in enumerate(comparisons):
        if isinstance(sides[0], tuple) and not isinstance(sides[1], tuple):
            sides = sides[::-1]  # an operator held as its cores goes first
        own = [algebra.blocks if isinstance(x, tuple) else x.blocks for x in sides]
        sides = [x if isinstance(x, tuple) else _held_lines(space, x) for x in sides]
        blocks = own[0]
        if not _same_blocks(*own):
            blocks = (np.arange(space.point_count),)
            sides = [_one_block(space, b, x, not j) for j, (b, x) in enumerate(zip(own, sides))]
        group = groups.setdefault(id(blocks), (blocks, [], []))
        group[1].append(k)
        group[2].append(sides)
    for blocks, indices, sides in groups.values():
        margins[indices] = _lines_distances(space, blocks, sides)
    return margins


def _one_block(space: FiniteMeasureSpace, blocks: tuple, side, unit: bool) -> _Lines:
    """``side`` over ``blocks`` as one block (``_as_one_block``): its
    ``_Lines``, or those of a pair on them (``_pair_lines``)."""
    if not isinstance(side, _Lines):
        lines, cores = _pair_lines(space, blocks, [side], unit)
        side = _Lines(*_segments(blocks), lines[:, 0, :, None], cores[0, :, None, None])
    return _as_one_block(blocks, side)


def _pair_lines(space: FiniteMeasureSpace, blocks: tuple, pairs: list, unit: bool) -> tuple:
    """(lines, cores) of M_a E M_b for each pair (a, b) of ``pairs`` over
    the atoms ``blocks``, in their order: L = sqrt(mu) a and
    R = conj(sqrt(mu) b) (2 x pairs x n) and K = 1 / mu(B) (1 x atoms); or,
    ``unit``, L and R over their norms on each atom B and K the atom's norm
    ||L|| ||R|| / mu(B) (pairs x atoms; L = R = 0 where K is 0), taken
    safe at any scale (``_block_norms``)."""
    order, (starts, sizes) = np.concatenate(blocks), _segments(blocks)
    lines = np.empty((2, len(pairs), order.size), dtype=complex)
    for k, (a, b) in enumerate(pairs):
        lines[:, k] = a[order], b[order]
    lines *= _sqrt_weights(space)[order]
    np.conj(lines[1], out=lines[1])
    mass = np.add.reduceat(space.weights[order], starts)
    if not unit:
        return lines, (1.0 / mass)[None]
    norms, powers = _block_norms(lines, starts, sizes)
    cores = norms[0] * norms[1] / mass
    if powers is not None:
        cores *= powers[0] * powers[1]
    scales = np.divide(1.0, norms, out=np.zeros_like(norms), where=cores > 0)
    lines *= np.repeat(scales, sizes, axis=2)
    return lines, cores


def _lines_distances(space: FiniteMeasureSpace, blocks: tuple, comparisons: list) -> np.ndarray:
    """``core_distances`` of comparisons over the same ``blocks``, each side
    a pair on them or ``_Lines``. Where every side has width 0 or 1, as in
    every comparison of a verify, the rank-one kernel takes them
    (``_rank_one_distances``). Otherwise the R factors of [L_1 L_2] and
    [R_1 R_2] by one Gram-Schmidt over all comparisons, each side's columns
    zero-padded to the widest, give each block's core
    R_L diag(K_1, -K_2) R_R^H of at most (r_1 + r_2) x (r_1 + r_2), with
    the difference's singular values (``_largest_values``)."""
    # a pair, of no width here, takes one column, and each side at least one
    widths = [
        [x.core.shape[1] if isinstance(x, _Lines) else None for x in c] for c in comparisons
    ]
    r1, r2 = (max(w[j] or 1 for w in widths) for j in (0, 1))
    if r1 == r2 == 1:
        return _rank_one_distances(space, blocks, comparisons)
    (starts, sizes), count, n = _segments(blocks), len(comparisons), space.point_count
    factors = np.zeros((2, count, n, r1 + r2), dtype=complex)
    core = np.zeros((count, starts.size, r1 + r2, r1 + r2), dtype=complex)
    for j, at in enumerate((0, r1)):
        pairs = [k for k, w in enumerate(widths) if w[j] is None]
        if pairs:
            lines, cores = _pair_lines(space, blocks, [comparisons[k][j] for k in pairs], j == 0)
            factors[..., at][:, pairs] = lines
            core[pairs, :, at, at] = -cores if j else cores
            del lines  # free before the next side's, or Gram-Schmidt's, memory
        for k, (held, width) in enumerate(zip((c[j] for c in comparisons), (w[j] for w in widths))):
            if width is not None:
                factors[:, k, :, at : at + width] = held.lines
                core[k, :, at : at + width, at : at + width] = -held.core if j else held.core
    factors = factors.reshape(2 * count, n, r1 + r2)
    r = _gram_schmidt(factors[..., :r1], factors[..., r1:], starts, sizes)
    core = np.einsum("...ij,...jk->...ik", r[:count], core)
    return _largest_values(np.einsum("...ik,...jk->...ij", core, r[count:].conj()))


def _largest_values(cores: np.ndarray) -> np.ndarray:
    """The largest singular value over the blocks of each stack of cores
    (comparisons x blocks x m x m), NaN where one is not finite, by one
    values-only SVD of the finite stacks, as LAPACK rejects the others."""
    width = cores.shape[-1]
    finite = np.isfinite(cores).all(axis=(1, 2, 3))
    values = np.full(len(cores), math.nan)
    if finite.any():
        sv = _solve("svd", cores[finite].reshape(-1, width, width), compute_uv=False)
        values[finite] = sv.reshape(-1, cores.shape[1] * width).max(axis=1, initial=0.0)
    return values


def _rank_one_distances(space: FiniteMeasureSpace, blocks: tuple, comparisons: list) -> np.ndarray:
    """``core_distances`` of comparisons over the same ``blocks`` whose
    sides are pairs or ``_Lines`` of width 0 or 1, so each block of a
    difference is k_1 l_1 r_1^H - k_2 l_2 r_2^H, with l_1 and r_1 unit or
    zero (a pair on the first side as its unit lines, k_1 its atom's norm,
    as ``_pair_lines`` takes it). On each side l_2 = c l_1 + rho e, with
    c = <l_1, l_2>_B and rho = ||l_2 - c l_1||_B, the residual formed
    explicitly (``_rank_one_projections``), so the block is the 2 x 2 core
    [[k_1 - k_2 c_L conj(c_R), -k_2 c_L rho_R],
    [-k_2 rho_L conj(c_R), -k_2 rho_L rho_R]] on orthonormal bases, whose
    largest singular value is taken in closed form (``_largest_scaled``);
    NaN where a side is not finite."""
    (starts, sizes), count = _segments(blocks), len(comparisons)
    order = np.concatenate(blocks)
    mass = np.add.reduceat(space.weights[order], starts)
    d = _sqrt_weights(space)[order]
    pairs = [[not isinstance(x, _Lines) for x in sides] for sides in comparisons]
    (c_l, c_r), (rho_l, rho_r), norm = _rank_one_projections(
        comparisons, pairs, order, d, starts, sizes
    )
    k = np.zeros((2, count, starts.size), dtype=complex)
    firsts, seconds = np.array(pairs, dtype=bool).reshape(count, 2).T
    k[0, firsts] = norm[0, firsts] * norm[1, firsts] / mass
    k[1, seconds] = 1.0 / mass
    for i, sides in enumerate(comparisons):
        for j, side in enumerate(sides):
            if not pairs[i][j] and side.core.shape[1]:
                k[j, i] = side.core[:, 0, 0]
    left, right = -k[1] * c_l, -k[1] * rho_l
    np.conj(c_r, out=c_r)
    mats = np.empty((count, starts.size, 2, 2), dtype=complex)
    np.multiply(left, c_r, out=mats[..., 0, 0])
    mats[..., 0, 0] += k[0]
    np.multiply(left, rho_r, out=mats[..., 0, 1])
    np.multiply(right, c_r, out=mats[..., 1, 0])
    np.multiply(right, rho_r, out=mats[..., 1, 1])
    m, scale = _scaled(mats)
    values = (_largest_scaled(m) * scale).max(axis=1, initial=0.0)
    return np.where(np.isfinite(values), values, math.nan)


#: entries (rows times lines) the rank-one comparison kernel's working set
#: holds at a time (``_rank_one_projections``)
COMPARISON_CHUNK = 1 << 16


def _line_sources(comparisons: list, pairs: list) -> tuple:
    """The distinct lines the sides of ``comparisons`` read, each listed
    once, and the distinct projections of one on another they need:
    (vectors, combos, where). ``vectors[k]`` is (x, j, is a pair's): on
    side j (0 for L, 1 for R) a pair (where ``pairs[i][t]``) reads its
    function x, in point order, an operator held as ``_Lines`` of width 1
    line j of its lines x, in block order, and one of width 0 no vector
    (x None), a zero line; sides holding the same array on the same side
    share a line. ``combos[r]`` holds the lines (first, second) of a
    projection, and ``where[j][i]`` is the projection side j of
    comparison i takes."""
    seen, vectors, combos, where = {}, [], {}, ([], [])
    for j in (0, 1):
        for sides, kinds in zip(comparisons, pairs):
            places = []
            for side, pair in zip(sides, kinds):
                x = side[j] if pair else side.lines if side.core.shape[1] else None
                if (id(x), j) not in seen:
                    seen[id(x), j] = len(vectors)
                    vectors.append((x, j, pair))
                places.append(seen[id(x), j])
            where[j].append(combos.setdefault(tuple(places), len(combos)))
    return vectors, np.array(list(combos)), np.array(where)


def _rank_one_projections(
    comparisons: list, pairs: list, order: np.ndarray, d: np.ndarray, starts, sizes
) -> tuple:
    """(c, rho, norm) of the L side and then the R side of each comparison
    on each block (2 x comparisons x blocks each), from ``_projections``
    of the distinct projections the sides need (``_line_sources``). The
    blocks run in groups of whole blocks, and the projections in chunks,
    so that the working set (at most four lines per projection) stays
    within COMPARISON_CHUNK entries, or the lines of one block and one
    projection."""
    vectors, combos, where = _line_sources(comparisons, pairs)
    count, ends = len(combos), starts + sizes
    lines = 2 * count + max(2 * count, len(vectors))
    pieces, first = [], 0
    while first < starts.size:
        top = starts[first] + max(1, COMPARISON_CHUNK // lines)
        last = max(first + 1, int(np.searchsorted(ends, top, side="right")))
        group, rows = slice(first, last), slice(starts[first], ends[last - 1])
        width = rows.stop - rows.start
        step = count if lines * width <= COMPARISON_CHUNK else max(1, COMPARISON_CHUNK // (4 * width))
        for lo in range(0, count, step):
            chunk, used, local = slice(lo, lo + step), vectors, combos[lo : lo + step]
            if step < count:  # the lines of the chunk's projections alone
                places = np.unique(local)
                used, local = [vectors[k] for k in places], np.searchsorted(places, local)
            values = _projections(used, local, rows, order, d, starts[group], sizes[group])
            pieces.append((chunk, group, values))
        first = last
    values = pieces[0][2]
    if len(pieces) > 1:
        values = [np.empty((count, starts.size), dtype=x.dtype) for x in values]
        for chunk, group, piece in pieces:
            for x, part in zip(values, piece):
                x[chunk, group] = part
    return tuple(x[where] for x in values)


def _projections(vectors, combos, rows, order, d, starts, sizes) -> tuple:
    """(c, rho, norm) of the projections ``combos`` of the lines
    ``vectors`` (``_line_sources``) over one group of blocks, in ``rows``
    of the block order (``starts`` and ``sizes`` its blocks'). Each line
    is written once into a stack, a pair's function as sqrt(mu) times it,
    conjugated on the R side, with its norm n on each block
    (``_block_norms``, safe at any scale; ``norm``). By index over the
    stack, q is a projection's first line and v its second: c = <q, v>_B / n,
    v -= (c / n) q in place and rho = ||v||_B, each multiplied back by the
    power of two v was divided by. Beside q and v, one line per projection
    holds the products and half a line the residuals' coefficients, taken
    for half the projections at a time; the stack is made in that memory,
    or past it where it has more lines. No complex product is formed in
    place, as numpy may round an in-place product apart."""
    count, at, width, m = len(combos), starts - rows.start, rows.stop - rows.start, len(vectors)
    half = (count + 1) // 2
    buffer = np.empty((2 * count + max(count + half, m), width), dtype=complex)
    q, v, product = (buffer[k * count : (k + 1) * count] for k in range(3))
    stack, index, weights = buffer[2 * count : 2 * count + m], order[rows], d[rows]
    for (x, j, pair), line in zip(vectors, stack):
        if x is None:
            line[:] = 0.0
        elif pair:
            np.multiply(x[index], weights, out=line)
            if j:
                np.conj(line, out=line)
        else:
            line[:] = x[j, rows, 0]
    norms, powers = _block_norms(stack, at, sizes, buffer[:m])
    first, second = combos.T
    if powers is None:  # every norm is positive
        inverse = (1.0 / norms)[first]
    else:
        inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)[first]
    np.take(stack, first, axis=0, out=q, mode="clip")
    np.take(stack, second, axis=0, out=v, mode="clip")
    np.multiply(np.conj(q, out=q), v, out=product)  # q conjugated in place, and back
    np.conj(q, out=q)
    cq = np.add.reduceat(product, at, axis=1) * inverse
    coefficients, atoms = cq * inverse, np.repeat(np.arange(sizes.size), sizes)
    for lo in range(0, count, half):
        part, work = slice(lo, lo + half), buffer[3 * count : 3 * count + min(half, count - lo)]
        np.take(coefficients[part], atoms, axis=1, out=work, mode="clip")
        v[part] -= np.multiply(work, q[part], out=product[part])
    rho = _segment_norms(v, product, at)
    if powers is None:
        return cq, rho, norms[first]
    return cq * powers[second], rho * powers[second], norms[first] * powers[first]


def _squares_safe(sums: np.ndarray) -> bool:
    """Whether no square summed into ``sums`` can have overflowed, or have
    underflowed while mattering to its sum: every sum lies in
    [2^-900, 2^900]."""
    return bool(sums.size == 0 or (sums.min() > 2.0**-900 and sums.max() < 2.0**900))


def _block_norms(lines: np.ndarray, starts: np.ndarray, sizes: np.ndarray, work=None) -> tuple:
    """(norms, powers) of each complex line of ``lines`` on each block of
    its columns (block k from column ``starts[k]``, in ``sizes[k]``
    columns), safe at any scale: where a sum of squares may have lost a
    square (``_squares_safe``), each line is divided in place on each
    block by the power of two at its largest part (``powers``; None where
    none was), an exact division after which no square overflows or
    underflows, so its norm there is ``norms`` times that power. The
    division is part by part, so every sign is kept, a zero's too.
    ``work``, shaped like ``lines``, takes the scratch when given."""
    parts, scratch = lines.view(float), None if work is None else work.view(float)
    with np.errstate(over="ignore"):  # an overflow fails the check below
        squares = np.add.reduceat(np.square(parts, out=scratch), 2 * starts, axis=-1)
    if _squares_safe(squares):
        return np.sqrt(squares), None
    largest = np.maximum.reduceat(np.abs(parts, out=scratch), 2 * starts, axis=-1)
    powers = np.ldexp(0.5, np.frexp(largest)[1])
    parts /= np.repeat(powers, 2 * sizes, axis=-1)
    return np.sqrt(np.add.reduceat(np.square(parts, out=scratch), 2 * starts, axis=-1)), powers


def _segment_norms(lines: np.ndarray, work: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The norm of each row of ``lines`` (complex) over each block of its
    columns (block k from column ``starts[k]``): the squares of the real
    and imaginary parts, formed in ``work``, summed over twice as many
    float columns."""
    parts = lines.view(float)
    squares = np.multiply(parts, parts, out=work.view(float))
    return np.sqrt(np.add.reduceat(squares, 2 * starts, axis=1))


def _scaled(mats: np.ndarray) -> tuple:
    """(M / 2^e, 2^e) for each 2 x 2 matrix M of a stack, 2^e the power of
    two at its largest real or imaginary part, or the smallest normal one
    where that is subnormal: an exact division, after which no square of
    an entry overflows or underflows."""
    mats = np.ascontiguousarray(mats, dtype=complex)
    parts = np.abs(mats.view(float)).reshape(mats.shape[:-2] + (8,))
    exponent = np.frexp(parts.max(axis=-1, initial=0.0))[1]
    scale = np.ldexp(0.5, np.maximum(exponent, np.finfo(float).minexp + 1))
    return mats / scale[..., None, None], scale


def _largest_scaled(m: np.ndarray) -> np.ndarray:
    """The largest singular value of each 2 x 2 matrix M of a stack scaled
    by ``_scaled``. With M^H M = [[p, q], [conj(q), r]] and
    F = p + r = ||M||_F^2, it is sigma^2 = (F + sqrt(F^2 - 4 |det M|^2)) / 2,
    taken as F / 2 + hypot((p - r) / 2, |q|), nonnegative terms that keep
    their digits where the two values nearly meet."""
    parts = np.square(m.view(float))
    squares = parts[..., ::2] + parts[..., 1::2]
    p, r = (squares[..., 0, j] + squares[..., 1, j] for j in (0, 1))
    q = m[..., 0, 0].conj() * m[..., 0, 1] + m[..., 1, 0].conj() * m[..., 1, 1]
    return np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), np.abs(q)))


def _extreme_values(mats: np.ndarray) -> tuple:
    """(largest, smallest) singular value of each 2 x 2 matrix M of a stack,
    each M first scaled (``_scaled``): the largest sigma in closed form
    (``_largest_scaled``), the smallest |det M| / sigma."""
    m, scale = _scaled(mats)
    largest = _largest_scaled(m)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = np.abs(a * d - b * c)
    smallest = np.divide(det, largest, out=np.zeros_like(det), where=largest > 0)
    return largest * scale, smallest * scale


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
    """The upper-triangular R of [basis x] = Q R on each block (block k from
    row ``starts[k]`` in ``sizes[k]`` rows), for each stack along the first
    axis. ``basis`` has orthonormal (or zero) columns on each block, so R
    begins with the identity; Q is not kept, and x is overwritten with its
    residuals. Classical Gram-Schmidt with every inner product a segment
    sum, in O(n m^2) for m columns, with the residual formed explicitly. A
    column is projected twice ("twice is enough": Giraud, Langou and
    Rozloznik, Comput. Math. Appl. 50, 2005), and dropped when its second
    projection still loses over half its norm, as it then lies in the span
    before it to rounding; the last is projected once, as it enters R
    only through its norm."""
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
    """The unique T* with <Tf, g> = <f, T*g> for the weighted inner product,
    built once per operator and held in T's form: the lines L K R^H as
    R K^H L^H (for T = M_w E M_u, the lines of M_conj(u) E M_conj(w)), the
    blocks P as D^-1 P^H D, built and checked here. While T lives, T*'s
    factors are T's swapped (``_factors``); once T is gone, T* is factored
    by its form's own route."""
    if T._parts is None:
        held = T._memo[_LINES]
        parts, memo = None, {_LINES: held._replace(lines=held.lines[::-1], core=_conj_t(held.core))}
    else:
        mu = T.space.weights
        parts = ((p.conj().T * mu[b][None, :]) / mu[b][:, None] for b, p in zip(T.blocks, T._parts))
        memo = {}
    adj = WeightedOperator._of_blocks(parts, T.space, T.blocks, memo)
    # weak: T's memo holds T*, so a strong reference back would be a cycle
    adj._memo[_ADJOINT_OF] = weakref.ref(T)
    return adj


def compose(A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    """A B (``_blockwise``)."""
    return _blockwise(np.matmul, A, B)


def subtract(A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    """A - B (``_blockwise``)."""
    return _blockwise(np.subtract, A, B)


def _blockwise(op, A: WeightedOperator, B: WeightedOperator) -> WeightedOperator:
    """op of A's and B's blocks, block by block where both have the same
    blocks; otherwise op of their n x n matrices, as one block."""
    _check_space(A, B)
    if not _same_blocks(A.blocks, B.blocks):
        return WeightedOperator(op(A.entries, B.entries), A.space)
    return WeightedOperator._of_blocks(map(op, A.parts, B.parts), A.space, A.blocks)


@_once_per_operator
def eigenvalues(T: WeightedOperator) -> np.ndarray:
    """All n eigenvalues with multiplicity (unordered multiset, read-only),
    in block order.

    A block X diag(s) Y^H of T's factors, of rank r below its size, has
    the eigenvalues of its r x r core C diag(s) with C = Y^H X
    (``_inner_cores``; X (S Y^H) and (S Y^H) X share their nonzero ones),
    then |B| - r exact zeros. Of width 1 (T, T* and the operators derived
    from them) that is s g per atom of rank 1, g = Y^H X, in closed form.
    Wider factors (the one-block reference) run the cores of each rank as
    one stacked eigvals, cut to that rank, so padding adds no eigenvalue;
    a full-rank block, the only one built here, is its own r x r matrix:
    the core would move a defective eigenvalue by rounding to the power
    1/r."""
    factors = _factors(T)
    cores = _inner_cores(T) * factors.s[:, None, :]
    out = np.zeros(factors.sizes.sum(), dtype=complex)
    if cores.shape[-1] == 1:
        kept = factors.ranks > 0
        out[factors.starts[kept]] = cores[kept, 0, 0]
        return out
    for rank in np.unique(factors.ranks[factors.ranks > 0]):
        which = np.flatnonzero(factors.ranks == rank)
        mats = cores[which, :rank, :rank]
        whole = factors.sizes[which] == rank
        if whole.any():
            mats[whole] = np.stack([m for _, m in _std_blocks(T, which[whole])])
        out[factors.starts[which, None] + np.arange(rank)] = _solve("eigvals", mats)
    return out


@_once_per_operator
def singular_values(T: WeightedOperator) -> np.ndarray:
    """Descending singular values (read-only), read off the factors, so the
    ones under the rank cutoff are exact zeros; the largest is the operator
    norm on L2(mu)."""
    factors = _factors(T)
    s = factors.s[_kept(factors.ranks, factors.s.shape[1])]
    return np.concatenate([np.sort(s)[::-1], np.zeros(T.space.point_count - s.size)])


def operator_norm(T: WeightedOperator) -> float:
    return float(singular_values(T)[0])


def is_hermitian(T: WeightedOperator, tol: float = DEFAULT_TOL) -> bool:
    """Whether the largest entry of M - M^H is at most tol times 1 + the
    largest entry of M, over T's standard-coordinate blocks M."""
    mats = [m for _, m in _std_blocks(T)]
    scale_ = 1.0 + max(np.abs(m).max() for m in mats)
    return bool(max(np.abs(m - _conj_t(m)).max() for m in mats) <= tol * scale_)


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
    serves every tolerance (``loewner_holds``). The standard-coordinate
    blocks of the difference are zero-padded into one stack (``_margins``)."""
    _check_space(A, B)
    mats = [m for _, m in _std_blocks(subtract(A, B))]
    size = max(m.shape[0] for m in mats)
    stack = np.zeros((1, len(mats), size, size), dtype=complex)
    for k, m in enumerate(mats):
        stack[0, k, : m.shape[0], : m.shape[0]] = m
    return _margins(stack)[0]


def _margins(cores: np.ndarray) -> list:
    """The Loewner margins of each stack of cores along the first axis
    (groups x blocks x m x m): the standard-coordinate blocks Z K Z^H of
    one difference given by their cores K (Z with orthonormal columns;
    Z = I for a block itself). D - D^H = Z (K - K^H) Z^H, so the asymmetry
    and the scale are read off K, and the eigenvalues of D's self-adjoint
    part are K's and exact zeros, which zero padding adds; one eigvalsh
    takes every group's."""
    adjoints = _conj_t(cores)
    asymmetry = np.abs(cores - adjoints).max(axis=(1, 2, 3), initial=0.0)
    scale_ = 1.0 + np.abs(cores).max(axis=(1, 2, 3), initial=0.0)
    evals = _solve("eigvalsh", 0.5 * (cores + adjoints)).reshape(len(cores), -1)
    smallest, norm = evals.min(axis=1, initial=0.0), np.abs(evals).max(axis=1, initial=0.0)
    return [LoewnerMargins(*map(float, m)) for m in zip(asymmetry, scale_, smallest, norm)]


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
    A = WeightedOperator._of_blocks(A.parts, A.space, A.blocks)  # built once, for the test and eigh
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


def _diagonal(values: np.ndarray) -> np.ndarray:
    """The stack of complex diagonal matrices with the rows of ``values``
    (blocks x r) as their diagonals."""
    out = np.zeros(values.shape + values.shape[-1:], dtype=complex)
    index = np.arange(values.shape[-1])
    out[:, index, index] = values
    return out


@_once_per_operator
def _right_lines(T: WeightedOperator) -> np.ndarray:
    """The lines (L, R) = (Y, Y) of T's factors X diag(s) Y^H, one view for
    every operator held on them (T's powers of T*T and its Aluthge
    transform), so the comparison kernel reads Y once for them all
    (``_line_sources``); a stride of 0 is cheaper than broadcast_to."""
    y = _factors(T).lines[1]
    return np.ndarray((2,) + y.shape, y.dtype, y, 0, (0,) + y.strides)


def gram_power(T: WeightedOperator, p: float) -> WeightedOperator:
    """(T* T)^p, read off the memoized factors: a standard-coordinate block
    B = X S Y^H gives (B^H B)^p = Y S^(2p) Y^H, and p = 1/2 is |T|. The
    singular values under the rank cutoff are exact zeros. (T T*)^p is
    ``gram_power(adjoint(T), p)``: T*'s factors are T's swapped, so it
    factors nothing new."""
    if p <= 0:
        raise ValueError("power must be positive")
    factors = _factors(T)
    core = _diagonal(factors.s ** (2 * p))
    return _from_lines(_Lines(factors.starts, factors.sizes, _right_lines(T), core), T)


def polar_isometry_numeric(T: WeightedOperator) -> WeightedOperator:
    """The partial isometry U of the polar decomposition T = U |T|, whose
    modulus |T| is ``gram_power(T, 0.5)``, with the kernel condition: U is
    T|T|^-1 on range(|T|) and 0 on kernel(|T|), so N(U) = N(|T|). A block
    X S Y^H gives U = X Y^H and |T| = Y S Y^H."""
    factors = _factors(T)
    identities = _diagonal(_kept(factors.ranks, factors.s.shape[1]).astype(float))
    return _from_lines(_Lines(factors.starts, factors.sizes, factors.lines, identities), T)


def aluthge_numeric(T: WeightedOperator) -> WeightedOperator:
    """|T|^(1/2) U |T|^(1/2) from the numeric polar decomposition.

    A block X S Y^H has |T|^(1/2) = Y S^(1/2) Y^H and U = X Y^H, so the
    transform is Y (S^(1/2) C S^(1/2)) Y^H with the r x r core C = Y^H X
    (``_inner_cores``), which the result keeps. The singular values under
    the cutoff are exact zeros: the square root would amplify their noise
    (eps -> sqrt(eps))."""
    factors = _factors(T)
    root = np.sqrt(factors.s)
    core = root[:, :, None] * _inner_cores(T) * root[:, None, :]
    return _from_lines(_Lines(factors.starts, factors.sizes, _right_lines(T), core), T)


def kernel_projection(T: WeightedOperator) -> WeightedOperator:
    """The weighted-orthogonal projection onto the numeric null space of T,
    block-diagonal like T: I - Y Y^H on each block X diag(s) Y^H of T's
    factors, so an operator held as its cores factors only those. The
    projection's blocks are built here: it is a dense reference."""
    factors = _factors(T)
    ys = np.split(factors.lines[1], factors.starts[1:])
    return _from_std_blocks([(b, np.eye(b.size) - y @ y.conj().T) for b, y in zip(T.blocks, ys)], T)


def is_normal(T: WeightedOperator, tol: float = DEFAULT_TOL) -> bool:
    """T T* = T* T to tolerance, read off T's joint cores: a block Q K Q^H
    (``_joint_cores``) gives T T* - T* T = Q (K K^H - K^H K) Q^H, whose norm
    is the largest eigenvalue modulus of that Hermitian core. Of width 1
    (T, T* and the operators derived from them) K = [[a, 0], [b, 0]], and
    that modulus is |b| hypot(|a|, |b|) in closed form; wider factors (the
    one-block reference) take one stacked eigvalsh of every block's."""
    k = _joint_cores(T).core
    if k.shape[-1] > 2:
        kh = _conj_t(k)
        comm = np.abs(_solve("eigvalsh", k @ kh - kh @ k)).max(initial=0.0)
    else:
        a, b = np.abs(k[..., 0]).T if k.size else np.zeros((2, 0))
        comm = (b * np.hypot(a, b)).max(initial=0.0)
    return bool(comm <= tol * (1.0 + operator_norm(T) ** 2))
