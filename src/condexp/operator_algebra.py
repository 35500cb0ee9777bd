"""Operators on the weighted L2 space, stored atom by atom, and the
numerical oracle.

An operator is block-diagonal over ``blocks``, index arrays partitioning
the points, and is held in one form: its lines and cores L K R^H on each
block, of width 0 or 1 (T, T* and the oracle's derived operators), read in
closed form; ``parts`` and ``entries`` build its blocks on each read. The
adjoint on the weighted inner product is D^-1 A^H D with D = diag(mu), and
the lines are in standard coordinates, conjugated by D^(1/2).

T = M_w E M_u is rank one on each atom: ``expectation_operator`` holds it
as its unit lines and 1 x 1 cores, read off (w, u) in segment sums. Each
operator has one memoized per-atom record (``_atoms``), made in one pass
over its lines (s = |k|, the lines x = L k / |k| and y = R, and g = y^H x)
or, for an adjoint, swapped from its operator's; only T's own questions
add h = ||x - g y|| (``_heights``). Its singular values, eigenvalues s g,
normality, class margins and joint cores [[s g, 0], [s h, 0]] are read off
the record, and the powers of T*T, the Aluthge transforms and the adjoint
are built from it, so a verify makes no LAPACK call but the joint point
spectrum's SVDs of its candidate 2 x 2 cores (``svd 16x2x2`` twice on
random_instance(7, 64, 8)). The oracle reads the partition and (w, u),
never the conditional moments, so it stays independent of the closed forms
it checks. Operators are immutable, so what is computed of one is memoized.

The closed forms all have the shape M_a E M_b and are handled as their
pairs (a, b), each function a ``Side``: a coefficient per atom on a base
function shared with other sides, conjugated or not; an array is
coefficient 1 on itself. The pair rules (adjoint, product, coimage
projection, norm per atom) act on the coefficients in O(atoms), reading
each base's per-atom norm and mean square, each taken once and the norm
safe at any scale (``_base_norms``). ``core_distances`` is the one
comparison, the operator norm of differences of pairs and operators over
the same blocks: a rank-one kernel writes each distinct line once (a base,
conjugated or not, or an operator's line), forms each distinct projection
of one unit line on another once, over bounded groups of atoms, applies
each side's coefficients and base norms, or its cores, per comparison and
atom, and takes each 2 x 2 core's largest singular value in closed form
(``_rank_one_distances``), building no block.
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
    Base,
    FiniteMeasureSpace,
    Side,
    SubSigmaAlgebra,
    _atom_means,
    _atom_sums,
    _finite_values,
    function_side,
)

#: relative cutoff below which a singular value counts as zero (rank decisions)
DEFAULT_RANK_TOL = 1e-10

log = logging.getLogger("condexp")


class SolverError(RuntimeError):
    """Raised when a dense eigenvalue/SVD routine fails to converge."""


@dataclass(frozen=True, eq=False)
class WeightedOperator:
    """A linear operator on L2(mu), block-diagonal over ``blocks``, index
    arrays partitioning the points, held as its lines and cores of width 0
    or 1 (``_memo[_LINES]``, a ``_Lines``); ``parts[k]``, its block over
    ``blocks[k]``, is built on each read."""

    space: FiniteMeasureSpace
    blocks: tuple
    _memo: dict = field(repr=False)

    def __post_init__(self):
        """Every construction ends here: the operator checks its own cores,
        finite and of width 0 or 1 (its lines where they are made)."""
        if _finite(self._memo[_LINES].core).shape[1] > 1:
            raise ValueError("an operator held as its lines must have cores of width 0 or 1")

    @property
    def parts(self) -> tuple:
        """The diagonal blocks in block order, each built on this read
        (``_built_block``) and checked finite, none kept."""
        parts = tuple(_finite(_built_block(self, k)) for k in range(len(self.blocks)))
        for p in parts:
            p.setflags(write=False)
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


def _finite(p: np.ndarray) -> np.ndarray:
    """p, once every entry is checked finite."""
    if not np.isfinite(p).all():
        raise ValueError("operator entries must be finite")
    return p


def _built_block(T: WeightedOperator, k: int) -> np.ndarray:
    """Block k on value vectors of T, held as its lines (``_Lines``),
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
    (E itself when both are omitted), held as the exact SVD of its block
    x_B y_B^H on each atom B, x = sqrt(mu) left, y = conj(sqrt(mu) right) / mu(B):
    the unit lines and the core ||x||_B ||y||_B (``_pair_lines``), its lines
    checked finite here, once for every operator that shares them."""
    n = space.point_count
    pair = tuple(np.ones(n) if x is None else np.asarray(x) for x in (left, right))
    lines, cores = _pair_lines(space, algebra.blocks, pair)
    held = _Lines(*_segments(algebra.blocks), _finite(lines)[..., None], cores[:, None, None] + 0j)
    for array in (lines, *held):
        array.setflags(write=False)
    return WeightedOperator(space, algebra.blocks, {_LINES: held})


def _sides(algebra: SubSigmaAlgebra, pair: tuple) -> tuple:
    """The pair's two functions as sides: an array is coefficient 1 on
    itself (``function_side``)."""
    a, b = pair
    if isinstance(a, Side) and isinstance(b, Side):
        return pair
    return tuple(x if isinstance(x, Side) else function_side(algebra, x) for x in pair)


def expectation_adjoint(pair: tuple) -> tuple:
    """The pair of the adjoint of M_a E M_b on L2(mu): (conj(b), conj(a))."""
    a, b = pair
    return tuple(x.conj() if isinstance(x, Side) else np.conj(x) for x in (b, a))


def expectation_product(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, first: tuple, second: tuple
) -> tuple:
    """The pair of (M_a E M_b)(M_c E M_d) = M_{a E(bc)} E M_d: with b and c
    on one base, one conjugated, E(bc) is their coefficients times the
    base's E|f|^2 where it holds it, in O(atoms), else a mean over the
    points, checked finite."""
    (a, b), (c, d) = _sides(algebra, first), _sides(algebra, second)
    if b.base is c.base and b.conjugated != c.conjugated and b.base.mean_squares is not None:
        mean = b.base.mean_squares
    else:
        f, g = (np.conj(x.base.values) if x.conjugated else x.base.values for x in (b, c))
        (mean,) = _atom_means(space, algebra, _finite_values(np.multiply(f, g, dtype=complex)))
    return a.times(_finite_values(b.coefficient * c.coefficient * mean)), d


#: memo key of a ``Base``: its norm on each atom (``_base_norms``)
_NORMS = "norms"


def _base_norms(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, *bases: Base) -> list:
    """||sqrt(mu) f|| on each atom of each base, taken once per base and
    safe at any scale: where a sum of squares may have lost a square to
    overflow or underflow (``_squares_safe``), the norms of the bases not
    yet taken are taken again on their lines divided by their power of two
    on each atom (``_block_norms``)."""
    missing = list({id(b): b for b in bases if _NORMS not in b._memo}.values())
    if missing:
        d = _sqrt_weights(space)
        with np.errstate(over="ignore"):  # an overflow fails the check below
            sums = np.array([_atom_sums(algebra, np.abs(d * b.values) ** 2) for b in missing])
        if _squares_safe(sums):
            norms = np.sqrt(sums)
        else:
            (starts, sizes), order = _segments(algebra.blocks), np.concatenate(algebra.blocks)
            lines = np.stack([b.values[order] for b in missing])
            lines = np.multiply(lines, d[order], dtype=complex, order="C")
            # the lines' own sums of squares may all pass where those of |d f|^2 did not
            norms, powers = _block_norms(lines, starts, sizes)
            norms = norms if powers is None else norms * powers
        for b, norm in zip(missing, norms):
            b._memo[_NORMS] = norm
    return [b._memo[_NORMS] for b in bases]


def expectation_norms(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple
) -> np.ndarray:
    """||M_a E M_b|| on each atom, in block order: the singular value
    |alpha| ||sqrt(mu) f||_B |beta| ||sqrt(mu) g||_B / mu(B) of its rank-one
    block, for a = alpha f and b = beta g; the largest is the operator norm.
    It is safe at any scale as the bases' norms are (``_base_norms``)."""
    a, b = _sides(algebra, pair)
    norm_a, norm_b = _base_norms(space, algebra, a.base, b.base)
    mass = algebra._masses(space.weights)[0]
    return (np.abs(a.coefficient) * norm_a) * (np.abs(b.coefficient) * norm_b) / mass


def expectation_coimage(
    space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, pair: tuple
) -> tuple:
    """The pair of the weighted-orthogonal projection onto the coimage of
    M_a E M_b (the orthogonal complement of its kernel),
    (chi conj(b) / E|b|^2, b), which is the same for b times any nonzero
    constant on each atom: taken on b = g / ||sqrt(mu) g||_B, of
    E|b|^2 = 1 / mu(B), so each coefficient is safe at any scale where the
    base's norm is (``_base_norms``). chi marks the atoms whose norm passes
    the oracle's rank rule, DEFAULT_RANK_TOL times the largest."""
    _, b = _sides(algebra, pair)
    sigma = expectation_norms(space, algebra, pair)
    (norm,) = _base_norms(space, algebra, b.base)
    keep = sigma > DEFAULT_RANK_TOL * sigma.max(initial=0.0)
    unit = np.divide(1.0, norm, out=np.zeros(norm.shape), where=keep)
    right = Side(unit + 0j, b.base, b.conjugated)
    return right.conj().times(algebra._masses(space.weights)[0]), right


def _check_space(T: WeightedOperator, space: FiniteMeasureSpace) -> None:
    """T must live on ``space``."""
    if T.space is not space and (
        T.space.point_count != space.point_count
        or not np.array_equal(T.space.weights, space.weights)
    ):
        raise ValueError("operands live on different spaces")


def _same_blocks(first: tuple, second: tuple) -> bool:
    """The two tuples of index arrays are the same blocks in the same order."""
    return first is second or (
        len(first) == len(second) and all(map(np.array_equal, first, second))
    )


def _sqrt_weights(space: FiniteMeasureSpace) -> np.ndarray:
    return np.sqrt(space.weights)


#: memo key of an adjoint: a weak reference to the operator it is the adjoint of
_ADJOINT_OF = "adjoint_of"


def _once_per_operator(fn):
    """fn(T) computed once per operator: T is immutable, so every caller can
    share the result (an array result, and each array of a tuple result, is
    made read-only)."""

    name = fn.__name__

    @functools.wraps(fn)
    def memoized(T: WeightedOperator):
        memo = T._memo
        if name not in memo:
            value = fn(T)
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            memo[name] = value
        return memo[name]

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


#: memo key of an operator held as its lines: its ``_Lines``, each
#: standard-coordinate block being L K R^H
_LINES = "lines"


def _adjoint_source(T: WeightedOperator) -> Optional[WeightedOperator]:
    """The live operator T is the adjoint of, or None."""
    ref = T._memo.get(_ADJOINT_OF)
    return ref() if ref is not None else None


class _Atoms(NamedTuple):
    """An operator's record (``_atoms``): its factors s x y^H on each
    standard-coordinate block, held flat over its blocks listed one after
    the other (block k from row ``starts[k]``, in ``sizes[k]`` rows):
    ``ranks`` (1 where s passes the cutoff), ``s`` (0 past the rank),
    ``lines`` X and Y (2 x n x w, unit on each block of rank 1, w = 0 where
    no block passes), and on each block g = y^H x and g_adjoint = x^H y,
    each its own products' segment sum."""

    starts: np.ndarray
    sizes: np.ndarray
    ranks: np.ndarray
    s: np.ndarray
    lines: np.ndarray
    g: np.ndarray
    g_adjoint: np.ndarray


@_once_per_operator
def _atoms(T: WeightedOperator) -> _Atoms:
    """T's record (``_Atoms``), cut at the oracle's one rank cutoff,
    DEFAULT_RANK_TOL times the largest s: read off its lines in one pass (a
    1 x 1 core k is its own SVD, s = |k|, x = L k / |k| and y = R, each
    inner product one segment sum), or swapped from the record of the live
    operator it is the adjoint of."""
    source = _adjoint_source(T)
    if source is not None:
        atoms = _atoms(source)
        return atoms._replace(lines=atoms.lines[::-1], g=atoms.g_adjoint, g_adjoint=atoms.g)
    held = T._memo[_LINES]
    starts, sizes = held.starts, held.sizes
    core = held.core[:, 0, 0] if held.core.shape[1] else np.zeros(sizes.size, dtype=complex)
    s = np.abs(core)
    kept = s > DEFAULT_RANK_TOL * s.max(initial=0.0)
    turns = np.zeros((2, sizes.size), dtype=complex)
    np.divide(core, s, out=turns[0], where=kept)
    turns[1] = kept
    ranks, s = kept.astype(int), np.where(kept, s, 0.0)
    lines = (held.lines * turns.repeat(sizes, axis=1)[..., None])[..., : ranks.max(initial=0)]
    g = np.zeros((2, ranks.size), dtype=complex)
    if lines.shape[-1]:
        # y^H x and x^H y on each atom, in one product and one segment sum
        g = np.add.reduceat(np.conj(lines[::-1, :, 0]) * lines[..., 0], starts, axis=1)
    return _Atoms(starts, sizes, ranks, s, lines, *g)


@_once_per_operator
def _heights(T: WeightedOperator) -> np.ndarray:
    """h on each atom of T's record: ||x - g y||, the residual projected on y
    once more ("twice is enough": Giraud, Langou and Rozloznik, Comput.
    Math. Appl. 50, 2005) and zeroed where that loses over half its norm, as
    x then lies in y's span to rounding, so the atom's joint core is
    [[s g, 0], [s h, 0]] on the basis (y, (x - g y) / h); only T's read it."""
    atoms = _atoms(T)
    if not atoms.lines.shape[-1]:
        return np.zeros(atoms.ranks.size)
    (x, y), starts, sizes = atoms.lines[..., 0], atoms.starts, atoms.sizes
    residual = x - atoms.g.repeat(sizes) * y
    before = np.sqrt(np.add.reduceat(np.abs(residual) ** 2, starts))
    residual -= np.add.reduceat(np.conj(y) * residual, starts).repeat(sizes) * y
    after = np.sqrt(np.add.reduceat(np.abs(residual) ** 2, starts))
    return np.where(after >= 0.5 * before, after, 0.0)


class _Lines(NamedTuple):
    """A block-diagonal operator whose standard-coordinate block is L K R^H,
    flat like ``_Atoms``: ``lines`` stacks L and R (2 x n x r) and
    ``core`` the K (blocks x r x r), r at most 1. T holds its unit lines
    and 1 x 1 cores (``expectation_operator``); the operators derived from
    it hold its record's lines, and the adjoint its operator's, swapped."""

    starts: np.ndarray
    sizes: np.ndarray
    lines: np.ndarray
    core: np.ndarray


def _segments(blocks: tuple) -> tuple:
    """(starts, sizes) of ``blocks`` listed one after the other."""
    sizes = np.fromiter(map(len, blocks), int, len(blocks))
    return np.add.accumulate(sizes) - sizes, sizes


def core_distances(space: FiniteMeasureSpace, algebra: SubSigmaAlgebra, comparisons) -> np.ndarray:
    """||first - second|| on L2(mu) for each (first, second) of
    ``comparisons``; NaN where a side is not finite. A side is the pair
    (a, b) of M_a E M_b on the atoms of ``algebra`` or an operator, and
    both sides of a comparison must be over the same blocks. The
    comparisons over the same blocks are measured together by the rank-one
    kernel, with no |B| x |B| array (``_rank_one_distances``)."""
    margins = np.empty(len(comparisons))
    groups = {}  # id(blocks) -> (blocks, indices, sides) of the comparisons over them
    for k, sides in enumerate(comparisons):
        if isinstance(sides[0], tuple) and not isinstance(sides[1], tuple):
            sides = sides[::-1]  # an operator goes first
        own, held = [], []
        for x in sides:
            if isinstance(x, tuple):
                own.append(algebra.blocks)
                held.append(_sides(algebra, x))
            else:
                _check_space(x, space)
                own.append(x.blocks)
                held.append(x._memo[_LINES])
        if not _same_blocks(*own):
            raise ValueError("the sides of a comparison must be over the same blocks")
        group = groups.setdefault(id(own[0]), (own[0], [], []))
        group[1].append(k)
        group[2].append(held)
    for blocks, indices, sides in groups.values():
        margins[indices] = _rank_one_distances(space, blocks, sides)
    return margins


def _pair_lines(space: FiniteMeasureSpace, blocks: tuple, pair: tuple) -> tuple:
    """(lines, cores) of M_a E M_b for the pair (a, b) over the atoms
    ``blocks``, in their order: L = sqrt(mu) a and R = conj(sqrt(mu) b)
    over their norms on each atom B (2 x n) and K the atom's norm
    ||L|| ||R|| / mu(B) (L = R = 0 where K is 0), taken safe at any scale
    (``_block_norms``)."""
    order, (starts, sizes) = np.concatenate(blocks), _segments(blocks)
    lines = np.empty((2, order.size), dtype=complex)
    lines[0], lines[1] = pair[0][order], pair[1][order]
    lines *= _sqrt_weights(space)[order]
    np.conj(lines[1], out=lines[1])
    mass = np.add.reduceat(space.weights[order], starts)
    norms, powers = _block_norms(lines, starts, sizes)
    cores = norms[0] * norms[1] / mass
    if powers is not None:
        cores *= powers[0] * powers[1]
    scales = np.divide(1.0, norms, out=np.zeros(norms.shape), where=cores > 0)
    lines *= scales.repeat(sizes, axis=1)
    return lines, cores


def _rank_one_distances(space: FiniteMeasureSpace, blocks: tuple, comparisons: list) -> np.ndarray:
    """``core_distances`` of comparisons over the same ``blocks`` whose sides
    are pairs of sides or ``_Lines`` of width 0 or 1: each block of a
    difference is k_1 l_1 r_1^H - k_2 l_2 r_2^H, every line unit or zero (a
    pair as its bases' unit lines, as ``_pair_lines`` takes them, with its
    coefficients and its bases' norms in k). With l_2 = c l_1 + rho e on
    each side (``_rank_one_projections``) it is the 2 x 2 core
    [[k_1 - k_2 c_L conj(c_R), -k_2 c_L rho_R],
    [-k_2 rho_L conj(c_R), -k_2 rho_L rho_R]], whose largest singular value
    is taken in closed form (``_largest_scaled``); NaN where not finite."""
    (starts, sizes), count = _segments(blocks), len(comparisons)
    order = np.concatenate(blocks)
    mass = np.add.reduceat(space.weights[order], starts)
    d = _sqrt_weights(space)[order]
    pairs = [[not isinstance(x, _Lines) for x in sides] for sides in comparisons]
    (c_l, c_r), (rho_l, rho_r), *norms = _rank_one_projections(
        comparisons, pairs, order, d, starts, sizes
    )
    # k of a pair is (alpha n_L) (beta n_R) / mu(B) on its bases' unit lines, n their
    # norms; of an operator, its cores
    (lefts, rights, at), (cores, held) = ([], [], []), ([], [])
    for i, sides in enumerate(comparisons):
        for j, side in enumerate(sides):
            if pairs[i][j]:
                lefts.append(side[0].coefficient)
                rights.append(side[1].coefficient)
                at.append((j, i))
            elif side.core.shape[1]:
                cores.append(side.core[:, 0, 0])
                held.append((j, i))
    k = np.zeros((2, count, starts.size), dtype=complex)
    if held:
        k[tuple(np.transpose(held))] = cores
    if at:
        j, i = np.transpose(at)
        n_l, n_r = np.array(norms)[j, :, i].transpose(1, 0, 2)
        k[j, i] = (np.array(lefts) * n_l) * (np.array(rights) * n_r) / mass
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
    """(vectors, combos, where): the distinct lines ``comparisons`` read, each
    listed once as (x, flag, is a base's), and the distinct projections of
    one on another they need. A pair reads on L the base of its first side
    and on R that of its second, in point order, each conjugated (flag
    True) as its side is on L and as it is not on R; ``_Lines`` of width 1
    read line j (flag j) of their lines x on side j, one line where a
    stride of 0 makes the two one, and of width 0 a zero line (x None).
    ``combos[r]`` holds a projection's lines (first, second), and
    ``where[j][i]`` the projection side j (0 for L, 1 for R) of comparison
    i takes."""
    seen, vectors, combos, where = {}, [], {}, ([], [])
    for sides, kinds in zip(comparisons, pairs):
        places = []
        for side, pair in zip(sides, kinds):
            if pair:
                a, b = side
                lines = ((a.base.values, a.conjugated), (b.base.values, not b.conjugated))
            elif side.core.shape[1]:
                lines = ((side.lines, 0), (side.lines, int(side.lines.strides[0] != 0)))
            else:
                lines = ((None, 0),) * 2
            for x, flag in lines:
                if (id(x), flag) not in seen:
                    seen[id(x), flag] = len(vectors)
                    vectors.append((x, flag, pair))
                places.append(seen[id(x), flag])
        where[0].append(combos.setdefault((places[0], places[2]), len(combos)))
        where[1].append(combos.setdefault((places[1], places[3]), len(combos)))
    return vectors, np.array(list(combos)), np.array(where)


def _rank_one_projections(
    comparisons: list, pairs: list, order: np.ndarray, d: np.ndarray, starts, sizes
) -> tuple:
    """(c, rho, first norm, second norm) of the L and then the R side of each
    comparison on each block (2 x comparisons x blocks each), from
    ``_projections`` of the distinct projections (``_line_sources``), in
    groups of whole blocks and chunks of projections whose working set (at
    most four lines per projection) stays within COMPARISON_CHUNK entries,
    or one block's."""
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
    """(c, rho, first norm, second norm) of the projections ``combos`` of the
    lines ``vectors`` over one group of blocks, in ``rows`` of the block
    order. Each line is written once into a stack, a base as sqrt(mu) times
    it, conjugated where its flag says, with its norm n on each block
    (``_block_norms``, times the power of two a line was divided by). By
    index over the stack, q is a projection's first line and v its second:
    c = <q, v>_B / n_q, v -= (c / n_q) q and rho = ||v||_B, c and rho then
    over n_v, so that both lines are unit and neither's scale is in them
    (0 on a zero line). Beside q and v, one line per projection holds the
    products and half a line the residuals' coefficients; the stack is made
    in that memory, or past it. No complex product is formed in place, as
    numpy may round it apart."""
    count, at, width, m = len(combos), starts - rows.start, rows.stop - rows.start, len(vectors)
    half = (count + 1) // 2
    buffer = np.empty((2 * count + max(count + half, m), width), dtype=complex)
    q, v, product = (buffer[k * count : (k + 1) * count] for k in range(3))
    stack, index, weights = buffer[2 * count : 2 * count + m], order[rows], d[rows]
    for (x, flag, pair), line in zip(vectors, stack):
        if x is None:
            line[:] = 0.0
        elif pair:
            np.multiply(x[index], weights, out=line)
            if flag:
                np.conj(line, out=line)
        else:
            line[:] = x[flag, rows, 0]
    norms, powers = _block_norms(stack, at, sizes, buffer[:m])
    first, second = combos.T
    if powers is None:  # every norm is positive
        inverse = 1.0 / norms
    else:
        inverse = np.divide(1.0, norms, out=np.zeros(norms.shape), where=norms > 0)
        norms = norms * powers
    stack.take(first, axis=0, out=q, mode="clip")
    stack.take(second, axis=0, out=v, mode="clip")
    np.multiply(np.conj(q, out=q), v, out=product)  # q conjugated in place, and back
    np.conj(q, out=q)
    cq = np.add.reduceat(product, at, axis=1) * inverse[first]
    coefficients, atoms = cq * inverse[first], np.arange(sizes.size).repeat(sizes)
    for lo in range(0, count, half):
        part, work = slice(lo, lo + half), buffer[3 * count : 3 * count + min(half, count - lo)]
        coefficients[part].take(atoms, axis=1, out=work, mode="clip")
        v[part] -= np.multiply(work, q[part], out=product[part])
    rho = _segment_norms(v, product, at)
    unit = inverse[second]
    return cq * unit, rho * unit, norms[first], norms[second]


def _squares_safe(sums: np.ndarray) -> bool:
    """Whether no square summed into ``sums`` can have overflowed, or have
    underflowed while mattering to its sum: every sum lies in
    [2^-900, 2^900]."""
    return bool(sums.size == 0 or (sums.min() > 2.0**-900 and sums.max() < 2.0**900))


def _block_norms(lines: np.ndarray, starts: np.ndarray, sizes: np.ndarray, work=None) -> tuple:
    """(norms, powers) of each complex line of ``lines`` on each block of its
    columns, safe at any scale: where a sum of squares may have lost a
    square (``_squares_safe``), each line is divided in place on each block
    by the power of two at its largest part (``powers``; None where none
    was), exactly and part by part, so every sign is kept, and its norm is
    ``norms`` times that power. ``work``, shaped like ``lines``, takes the
    scratch when given."""
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
    """(M / 2^e, 2^e) for each 2 x 2 matrix M of a stack, 2^e the power of two
    at its largest part, or the smallest normal one: an exact division after
    which no square of an entry overflows or underflows. Where every largest
    part is 0 or in [2^-500, 2^500], none does so while it matters unscaled,
    and the stack is given as it is, with the scale 1."""
    mats = np.ascontiguousarray(mats, dtype=complex)
    parts = np.abs(mats.view(float)).reshape(mats.shape[:-2] + (8,))
    largest = parts.max(axis=-1, initial=0.0)
    lowest = largest.min(initial=2.0**500, where=largest > 0)
    if largest.max(initial=0.0) <= 2.0**500 and lowest >= 2.0**-500:
        return mats, 1.0
    exponent = np.frexp(largest)[1]
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
    smallest = np.divide(det, largest, out=np.zeros(det.shape), where=largest > 0)
    return largest * scale, smallest * scale


@_once_per_operator
def adjoint(T: WeightedOperator) -> WeightedOperator:
    """The unique T* with <Tf, g> = <f, T*g> for the weighted inner product,
    built once per operator: the lines L K R^H as R K^H L^H, each core of
    width 0 or 1 its own transpose, so K^H = conj(K); its cores alone are
    checked. While T lives, T*'s record is T's swapped (``_atoms``)."""
    held = T._memo[_LINES]
    swapped = held._replace(lines=held.lines[::-1], core=held.core.conj())
    # weak: T's memo holds T*, so a strong reference back would be a cycle
    return WeightedOperator(T.space, T.blocks, {_LINES: swapped, _ADJOINT_OF: weakref.ref(T)})


@_once_per_operator
def eigenvalues(T: WeightedOperator) -> np.ndarray:
    """All n eigenvalues with multiplicity (unordered multiset, read-only),
    in block order: s g on each block of rank 1 and zeros, read off the
    record (``_atoms``)."""
    atoms = _atoms(T)
    out = np.zeros(atoms.sizes.sum(), dtype=complex)
    kept = atoms.ranks > 0
    out[atoms.starts[kept]] = (atoms.g * atoms.s)[kept]
    return out


@_once_per_operator
def singular_values(T: WeightedOperator) -> np.ndarray:
    """Descending singular values (read-only), read off the record
    (``_atoms``), so the ones under the rank cutoff are exact zeros; the
    largest is the operator norm on L2(mu)."""
    atoms = _atoms(T)
    s = atoms.s[atoms.ranks > 0]
    return np.concatenate([np.sort(s)[::-1], np.zeros(T.space.point_count - s.size)])


def operator_norm(T: WeightedOperator) -> float:
    return float(singular_values(T)[0])


class LoewnerMargins(NamedTuple):
    """The two numbers the Loewner test A >= B decides on, both of the
    self-adjoint difference D = A - B; they do not depend on a tolerance,
    so one set serves every tolerance (``loewner_holds``)."""

    smallest: float  # smallest eigenvalue of D
    norm: float  # largest eigenvalue modulus of D


def loewner_holds(margins: LoewnerMargins, tol: float = DEFAULT_TOL) -> bool:
    """The Loewner test on its margins: the difference is PSD to tolerance."""
    return bool(margins.smallest >= -tol * (1.0 + margins.norm))


@_once_per_operator
def _right_lines(T: WeightedOperator) -> np.ndarray:
    """The lines (Y, Y) of T's record, one view for every operator held on
    them, so the comparison kernel reads Y once for them all; a stride of
    0 is cheaper than broadcast_to."""
    y = _atoms(T).lines[1]
    return np.ndarray((2,) + y.shape, y.dtype, y, 0, (0,) + y.strides)


def _on_right_lines(T: WeightedOperator, values: np.ndarray) -> WeightedOperator:
    """The operator over T's blocks held as c y y^H on each, y of T's record
    (``_right_lines``) and c the complex 1 x 1 core of ``values`` (0 x 0 at
    width 0)."""
    atoms = _atoms(T)
    width = atoms.lines.shape[-1]
    core = values[:, None, None][:, :width, :width].astype(complex)
    held = _Lines(atoms.starts, atoms.sizes, _right_lines(T), core)
    return WeightedOperator(T.space, T.blocks, {_LINES: held})


def gram_power(T: WeightedOperator, p: float) -> WeightedOperator:
    """(T* T)^p off T's record: a block s x y^H gives
    (B^H B)^p = s^(2p) y y^H, and p = 1/2 is |T|; values under the rank
    cutoff are exact zeros. (T T*)^p is ``gram_power(adjoint(T), p)``."""
    if p <= 0:
        raise ValueError("power must be positive")
    return _on_right_lines(T, _atoms(T).s ** (2 * p))


def aluthge_numeric(T: WeightedOperator) -> WeightedOperator:
    """|T|^(1/2) U |T|^(1/2) from the numeric polar decomposition: a block
    s x y^H gives (s^(1/2) g s^(1/2)) y y^H with g = y^H x. Values under the
    cutoff are exact zeros, as the square root would amplify their noise."""
    atoms = _atoms(T)
    root = np.sqrt(atoms.s)
    return _on_right_lines(T, root * atoms.g * root)


def is_normal(T: WeightedOperator, tol: float = DEFAULT_TOL) -> bool:
    """T T* = T* T to tolerance, read off T's joint cores
    K = [[s g, 0], [s h, 0]] (``_heights``): a block Q K Q^H gives
    T T* - T* T = Q (K K^H - K^H K) Q^H, of norm |s h| hypot(|s g|, |s h|)."""
    atoms = _atoms(T)
    a, b = np.abs(atoms.g * atoms.s), np.abs(_heights(T) * atoms.s)
    comm = (b * np.hypot(a, b)).max(initial=0.0)
    return bool(comm <= tol * (1.0 + operator_norm(T) ** 2))
