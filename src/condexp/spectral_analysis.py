"""Spectrum, point spectrum, joint point spectrum and spectral radius.

Closed forms come from the cached conditional moments (the spectrum of
T = M_w E M_u off zero is the attained-value set of E(uw), the spectral
radius its sup norm); the numeric side is the per-atom eigenvalue oracle.
On a finite space the point spectrum is the spectrum, and 0 belongs to it
iff T is rank deficient; T has one rank-one block per atom in S and G, so
its rank is the number of those atoms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .measure_space import cluster_values, ess_range, level_set
from .operator_algebra import (
    WeightedOperator,
    _core,
    _solve,
    _std_blocks,
    _svds,
    eigenvalues,
    operator_norm,
)
from .operator_classes import is_quasi_star_a_definitional
from .wce_operator import (
    WCEOperator,
    spectral_radius_closed_form,
    to_matrix,
)

__all__ = [
    "SpectrumReport",
    "EMuPointSpectrumReport",
    "JointSpectrumReport",
    "JointSpectrumRangeReport",
    "spectrum_closed_form",
    "spectrum_report",
    "em_u_point_spectrum",
    "joint_point_spectrum",
    "spectral_radius_closed_form",
    "sigma_p_equals_sigma_jp_check",
    "joint_spectrum_range_check",
    "hausdorff_distance",
]

log = logging.getLogger("condexp")

#: default tolerance for eigenvalue clustering and set comparisons
DEFAULT_SPECTRUM_TOL = 1e-7
#: default relative tolerance of the joint point spectrum and its identities
DEFAULT_JOINT_TOL = 1e-8
#: entries of the distance table ``hausdorff_distance`` holds at a time
DISTANCE_CHUNK = 1 << 16
#: two subspaces intersect nontrivially iff their smallest principal angle
#: is below this (radians)
PRINCIPAL_ANGLE_TOL = 1e-6


@dataclass(frozen=True)
class SpectrumReport:
    """Closed-form vs numeric spectrum of one operator."""

    closed_form_nonzero: tuple
    numeric_eigenvalues: np.ndarray
    zero_in_spectrum: bool
    zero_reason: str
    match: bool
    max_set_distance: float
    supports_cover_all: bool  # the S and G = X hypothesis, reported separately


@dataclass(frozen=True)
class EMuPointSpectrumReport:
    """Point spectrum of T = E M_u: level-set values of E(u) vs eigenvalues."""

    closed_level_values: tuple
    numeric_point_spectrum: tuple
    equality_off_zero: bool
    containment: bool
    zero_level_set_nonempty: bool
    zero_case_equality: Optional[bool]  # only when E(u) vanishes somewhere


@dataclass(frozen=True)
class JointSpectrumReport:
    """sigma_p vs sigma_jp, with the quasi-*-A hypothesis recorded."""

    quasi_star_a: bool
    point_spectrum: tuple
    joint_point_spectrum: tuple
    equal: Optional[bool]  # asserted only under the quasi-*-A hypothesis
    counterexamples: tuple = ()


@dataclass(frozen=True)
class JointSpectrumRangeReport:
    """Set identities for sigma_jp under |E(uw)|^2 >= E(|u|^2) E(|w|^2)."""

    hypothesis_holds: bool
    joint_point_spectrum: tuple
    essential_range_nonzero: tuple
    nonzero_sets_equal: Optional[bool]
    supports_cover_all: bool
    full_sets_equal: Optional[bool]  # only when S and G cover every point


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite sets of complex scalars.

    The distances are taken a bounded number of rows of the |a| x |b| table
    at a time, so memory is O(|a| + |b|)."""
    a = list(a)
    b = list(b)
    if not a and not b:
        return 0.0
    if not a or not b:
        return float("inf")
    av = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    rows = max(1, DISTANCE_CHUNK // bv.size)
    a_to_b = np.empty(av.size)  # distance from each point of a to b
    b_to_a = np.full(bv.size, np.inf)
    for start in range(0, av.size, rows):
        dist = np.abs(av[start : start + rows, None] - bv[None, :])
        a_to_b[start : start + rows] = dist.min(axis=1)
        np.minimum(b_to_a, dist.min(axis=0), out=b_to_a)
    return float(max(a_to_b.max(), b_to_a.max()))


def _nonzero_cluster(values, tol: float) -> list:
    return [v for v in cluster_values(values, tol) if abs(v) > tol]


def spectrum_closed_form(W: WCEOperator, tol: float = DEFAULT_SPECTRUM_TOL):
    """Nonzero spectrum = ess range(E(uw)) minus 0; 0 is in the spectrum iff
    rank T, the number of atoms in S and G, is below the point count.

    Returns (nonzero values, zero_flag, supports_cover_all).
    """
    nonzero = [v for v in ess_range(W.e_uw, tol) if abs(v) > tol]
    s_and_g = W.support_u2.intersection(W.support_w2)
    rank = np.unique(W.algebra.labels[list(s_and_g)]).size
    zero_flag = rank < W.space.point_count
    return nonzero, zero_flag, s_and_g.covers(W.space.point_count)


def spectrum_report(W: WCEOperator, tol: float = DEFAULT_SPECTRUM_TOL) -> SpectrumReport:
    """Cross-validate the closed-form spectrum against the eigenvalue oracle."""
    T = to_matrix(W)
    scale = 1.0 + operator_norm(T)
    set_tol = tol * scale
    closed_nonzero, zero_flag, covers = spectrum_closed_form(W, set_tol)
    evals = eigenvalues(T)
    numeric_nonzero = _nonzero_cluster(evals, set_tol)
    dist = hausdorff_distance(closed_nonzero, numeric_nonzero)
    return SpectrumReport(
        closed_form_nonzero=tuple(closed_nonzero),
        numeric_eigenvalues=evals,
        zero_in_spectrum=zero_flag,
        zero_reason=(
            "rank deficient" if zero_flag else "full rank (operator invertible)"
        ),
        match=dist <= set_tol,
        max_set_distance=dist,
        supports_cover_all=covers,
    )


def em_u_point_spectrum(
    W: WCEOperator, tol: float = DEFAULT_SPECTRUM_TOL
) -> EMuPointSpectrumReport:
    """Point spectrum of T = E M_u via the level sets of E(u), checked
    against the eigenvalue oracle in all three containment forms."""
    if not W.w_is_one(tol):
        raise ValueError("this analysis requires w identically 1")
    T = to_matrix(W)
    set_tol = tol * (1.0 + operator_norm(T))
    level_values = ess_range(W.e_u, set_tol)
    numeric = cluster_values(eigenvalues(T), set_tol)

    closed_nonzero = [v for v in level_values if abs(v) > set_tol]
    numeric_nonzero = [v for v in numeric if abs(v) > set_tol]
    equality_off_zero = (
        hausdorff_distance(closed_nonzero, numeric_nonzero) <= set_tol
    )
    containment = all(
        min((abs(v - m) for m in numeric), default=np.inf) <= set_tol
        for v in level_values
    )
    zero_attained = len(level_set(W.e_u, 0.0, set_tol)) > 0
    zero_case = None
    if zero_attained:
        zero_case = hausdorff_distance(level_values, numeric) <= set_tol
    return EMuPointSpectrumReport(
        closed_level_values=tuple(level_values),
        numeric_point_spectrum=tuple(numeric),
        equality_off_zero=equality_off_zero,
        containment=containment,
        zero_level_set_nonempty=zero_attained,
        zero_case_equality=zero_case,
    )


class _LowRank(NamedTuple):
    """A block B = U diag(s) V^H split at a cutoff into X Y^H + E, with
    X = U_r diag(s_r) and Y = V_r over the r singular values above it."""

    rank: int  # r
    dropped: float  # tau = s[r] = ||E||, the largest singular value cut off
    top: float  # s_1 = ||X||
    core: np.ndarray  # C = Y^H X, r x r: its eigenvalues are X Y^H's nonzero ones


def _low_rank(u: np.ndarray, s: np.ndarray, vh: np.ndarray, cutoff: float) -> _LowRank:
    rank = int(np.sum(s > cutoff))
    return _LowRank(
        rank,
        float(s[rank]) if rank < s.size else 0.0,
        float(s[0]) if rank else 0.0,
        _core(u[:, :rank], s[:rank], vh[:rank].conj().T),
    )


def _shift_bound(split: _LowRank, lam: complex) -> float:
    """A lower bound on sigma_min(X Y^H - lam I); 0.0 when there is none.

    For lam != 0, Woodbury gives (X Y^H - lam I)^-1 =
    -lam^-1 (I + X (lam I - C)^-1 Y^H), whose norm is at most
    (1 + s_1 / sigma_min(lam I - C)) / |lam|. So sigma_min(B - lam I) is at
    least this bound minus tau; at lam = 0 the bound is 0. An r x r core
    needs one singular-value call; r <= 1 needs none."""
    if split.rank == 0:
        gap = np.inf
    elif split.rank == 1:
        gap = abs(lam - split.core[0, 0])
    else:
        shifted = lam * np.eye(split.rank) - split.core
        gap = float(_solve("svd", shifted, compute_uv=False).min())
    if gap == 0:
        return 0.0
    return abs(lam) / (1.0 + split.top / gap)


def joint_point_spectrum(T: WeightedOperator, tol: float = DEFAULT_JOINT_TOL) -> list:
    """Eigenvalues that carry a common eigenvector of T and T* (conjugated).

    For each clustered eigenvalue the numeric null spaces of T - lambda I and
    T* - conj(lambda) I are intersected; the intersection is nontrivial iff
    the smallest principal angle between them is below the module threshold.
    Both null spaces are block-diagonal like T, so they are intersected block
    by block: the largest cosine over all blocks gives the smallest angle.
    One SVD per block and shift gives both: with B - lambda I = U S V^H, the
    right singular vectors past the rank span null(B - lambda I) and the
    left ones null(B^H - conj(lambda) I).

    At lambda = 0 the shifted block is B itself, so its SVD is the memoized
    ``_svds(T)`` and nothing is factored. For lambda != 0 a block is not
    factored when a bound from its own SVD proves that B - lambda I has no
    singular value within twice the cutoff, so no null vector:
    ``_shift_bound`` minus the dropped singular value. The bound needs a
    rank-deficient block; on a full-rank block, or at an eigenvalue of the
    block's core C, the block is factored. When the two null spaces of a
    block have dimensions that sum past its size they intersect, so the
    cosine is 1 with no SVD of the principal angles.
    """
    cutoff = tol * (1.0 + operator_norm(T))
    blocks = [
        (std, (u, s, vh), _low_rank(u, s, vh, cutoff))
        for (_, std), (_, u, s, vh) in zip(_std_blocks(T), _svds(T))
    ]
    clusters = cluster_values(eigenvalues(T), cutoff)
    result = []
    factored = reused = skipped = 0
    for lam in clusters:
        cosine = 0.0
        for b, svd, split in blocks:
            if lam == 0:
                reused += 1
                u, s, vh = svd
            elif split.rank < b.shape[0] and (
                _shift_bound(split, lam) - split.dropped > 2.0 * cutoff
            ):
                skipped += 1
                continue
            else:
                factored += 1
                u, s, vh = _solve("svd", b - lam * np.eye(b.shape[0]))
            rank = int(np.sum(s > cutoff))
            if 2 * rank < s.size:
                # two null spaces of dimension |B| - r > |B| / 2 intersect
                cosine = 1.0
            elif rank < s.size:
                k1 = vh[rank:, :].conj().T  # null(B - lambda I)
                k2 = u[:, rank:]  # null(B^H - conj(lambda) I)
                cosines = _solve("svd", k1.conj().T @ k2, compute_uv=False)
                cosine = max(cosine, float(cosines.max(initial=0.0)))
        angle = float(np.arccos(np.clip(cosine, -1.0, 1.0)))
        if angle < PRINCIPAL_ANGLE_TOL:
            result.append(lam)
    log.debug(
        "joint_point_spectrum: %d clusters, %d blocks, %d shifted-block SVDs "
        "factored, %d zero-shift SVDs reused, %d (shift, block) pairs skipped",
        len(clusters),
        len(blocks),
        factored,
        reused,
        skipped,
    )
    return result


def sigma_p_equals_sigma_jp_check(
    W: WCEOperator, tol: float = DEFAULT_JOINT_TOL
) -> JointSpectrumReport:
    """Under the quasi-*-A hypothesis the point and joint point spectra
    coincide; outside it both sets are reported without assertion."""
    T = to_matrix(W)
    set_tol = tol * (1.0 + operator_norm(T))
    quasi = is_quasi_star_a_definitional(T, tol)
    sigma_p = cluster_values(eigenvalues(T), set_tol)
    sigma_jp = joint_point_spectrum(T, tol)
    equal = None
    counterexamples: list = []
    if quasi:
        equal = hausdorff_distance(sigma_p, sigma_jp) <= set_tol
        if not equal:
            counterexamples = [
                lam
                for lam in sigma_p
                if min((abs(lam - m) for m in sigma_jp), default=np.inf) > set_tol
            ]
    return JointSpectrumReport(
        quasi_star_a=quasi,
        point_spectrum=tuple(sigma_p),
        joint_point_spectrum=tuple(sigma_jp),
        equal=equal,
        counterexamples=tuple(counterexamples),
    )


def joint_spectrum_range_check(
    W: WCEOperator, tol: float = DEFAULT_JOINT_TOL
) -> JointSpectrumRangeReport:
    """When |E(uw)|^2 >= E(|u|^2) E(|w|^2) pointwise, the joint point
    spectrum off zero equals the attained-value set of E(uw) off zero; when
    the supports of E(|u|^2) and E(|w|^2) cover every point the identity
    extends to zero."""
    hypothesis = bool(
        np.all(
            np.abs(W.e_uw.values) ** 2
            >= W.e_abs_u2.values.real * W.e_abs_w2.values.real - tol
        )
    )
    T = to_matrix(W)
    set_tol = tol * (1.0 + operator_norm(T))
    sigma_jp = joint_point_spectrum(T, tol)
    range_nonzero = [v for v in ess_range(W.e_uw, set_tol) if abs(v) > set_tol]
    jp_nonzero = [v for v in sigma_jp if abs(v) > set_tol]
    covers = W.support_u2.intersection(W.support_w2).covers(W.space.point_count)

    nonzero_equal = None
    full_equal = None
    if hypothesis:
        nonzero_equal = hausdorff_distance(jp_nonzero, range_nonzero) <= set_tol
        if covers:
            full_range = list(range_nonzero)
            if len(level_set(W.e_uw, 0.0, set_tol)) > 0:
                full_range.append(0.0 + 0.0j)
            full_equal = hausdorff_distance(sigma_jp, full_range) <= set_tol
    return JointSpectrumRangeReport(
        hypothesis_holds=hypothesis,
        joint_point_spectrum=tuple(sigma_jp),
        essential_range_nonzero=tuple(range_nonzero),
        nonzero_sets_equal=nonzero_equal,
        supports_cover_all=covers,
        full_sets_equal=full_equal,
    )
