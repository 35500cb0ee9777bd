"""Spectrum, point spectrum, joint point spectrum and spectral radius.

Closed forms come from the cached conditional moments (the spectrum of
T = M_w E M_u off zero is the attained-value set of E(uw), the spectral
radius its sup norm); the numeric side is the per-atom eigenvalue oracle.
On a finite space the point spectrum is the spectrum, and 0 belongs to it
iff T is rank deficient; T has one rank-one block per atom in S and G, so
its rank is the number of those atoms. The joint point spectrum is read off
T's factors too: each atom's joint core, 2 x 2 off T's record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure_space import cluster_values, ess_range, level_set
from .operator_algebra import (
    WeightedOperator,
    _atoms,
    _extreme_values,
    _heights,
    _joint_cores,
    _solve,
    eigenvalues,
    operator_norm,
)
from .operator_classes import is_quasi_star_a_definitional
from .wce_operator import (
    WCEOperator,
    spectral_radius_closed_form,
    to_matrix,
)

#: default tolerance for eigenvalue clustering and set comparisons
DEFAULT_SPECTRUM_TOL = 1e-7
#: default relative tolerance of the joint point spectrum and its identities
DEFAULT_JOINT_TOL = 1e-8
#: entries of the work arrays ``_set_distances`` and
#: ``joint_point_spectrum`` hold at a time (the latter's stacked matrices
#: and their two factors together)
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


def _eigenvalue_clusters(T: WeightedOperator, cutoff: float) -> tuple:
    """``cluster_values`` of T's eigenvalues at ``cutoff``, memoized on T by
    the cutoff: T is immutable, so the point spectrum and the joint point
    spectrum at one tolerance share one clustering."""
    key = ("eigenvalue_clusters", cutoff)
    if key not in T._memo:
        T._memo[key] = tuple(cluster_values(eigenvalues(T), cutoff))
    return T._memo[key]


def _set_distances(a, b) -> tuple:
    """(the distance from each point of a to the set b, from each point of b
    to a) for finite sets of complex scalars; a distance to an empty set is
    inf. The |a| x |b| table is taken a bounded number of rows at a time, so
    memory is O(|a| + |b|)."""
    av = np.asarray(list(a), dtype=complex)
    bv = np.asarray(list(b), dtype=complex)
    a_to_b = np.full(av.size, np.inf)
    b_to_a = np.full(bv.size, np.inf)
    rows = max(1, DISTANCE_CHUNK // max(1, bv.size))
    for start in range(0, av.size, rows):
        dist = np.abs(av[start : start + rows, None] - bv[None, :])
        a_to_b[start : start + rows] = dist.min(axis=1, initial=np.inf)
        np.minimum(b_to_a, dist.min(axis=0, initial=np.inf), out=b_to_a)
    return a_to_b, b_to_a


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite sets of complex scalars: 0
    between two empty sets, inf between an empty and a nonempty one."""
    a_to_b, b_to_a = _set_distances(a, b)
    return float(max(a_to_b.max(initial=0.0), b_to_a.max(initial=0.0)))


def spectrum_closed_form(W: WCEOperator, tol: float = DEFAULT_SPECTRUM_TOL):
    """Nonzero spectrum = ess range(E(uw)) minus 0; 0 is in the spectrum iff
    rank T, the number of atoms in S and G, is below the point count.

    Returns (nonzero values, zero_flag, supports_cover_all).
    """
    nonzero = [v for v in ess_range(W.e_uw, tol) if abs(v) > tol]
    s_and_g = W.support_u2 & W.support_w2
    rank = int(np.count_nonzero(np.bincount(W.algebra.labels[s_and_g])))
    zero_flag = rank < W.space.point_count
    return nonzero, zero_flag, bool(s_and_g.all())


def spectrum_report(W: WCEOperator, tol: float = DEFAULT_SPECTRUM_TOL) -> SpectrumReport:
    """Cross-validate the closed-form spectrum against the eigenvalue oracle."""
    T = to_matrix(W)
    scale = 1.0 + operator_norm(T)
    set_tol = tol * scale
    closed_nonzero, zero_flag, covers = spectrum_closed_form(W, set_tol)
    evals = eigenvalues(T)
    numeric_nonzero = [v for v in _eigenvalue_clusters(T, set_tol) if abs(v) > set_tol]
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
    numeric = _eigenvalue_clusters(T, set_tol)

    closed_nonzero = [v for v in level_values if abs(v) > set_tol]
    numeric_nonzero = [v for v in numeric if abs(v) > set_tol]
    equality_off_zero = (
        hausdorff_distance(closed_nonzero, numeric_nonzero) <= set_tol
    )
    containment = bool(np.all(_set_distances(level_values, numeric)[0] <= set_tol))
    zero_attained = bool(level_set(W.e_u, 0.0, set_tol).any())
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


def joint_point_spectrum(T: WeightedOperator, tol: float = DEFAULT_JOINT_TOL) -> list:
    """Eigenvalues that carry a common eigenvector of T and T* (conjugated):
    those where the smallest principal angle between the numeric null
    spaces of T - lambda I and T* - conj(lambda) I, over all blocks, is below
    the module threshold.

    Each block B is Q K Q^H with its joint core K, so both null spaces are
    Q's image of the core's, plus the complement of Q's vectors when
    |lambda| is within the cutoff. One SVD of K - lambda I per (block,
    shift) pair, a bounded number of blocks at a time, gives the core's two,
    past its rank: null(K - lambda I) from the right singular vectors and
    null(K^H - conj(lambda) I) from the left. A column of K that is no
    vector of Q (``dims``) gets a diagonal entry above the cutoff. A
    record's cores are [[s g, 0], [s h, 0]] (``_heights``), factored only
    where the closed-form smallest value (``_extreme_values``) is within
    twice the cutoff; wider factors take ``_joint_cores``."""
    cutoff = tol * (1.0 + operator_norm(T))
    clusters = _eigenvalue_clusters(T, cutoff)
    shifts = np.asarray(clusters, dtype=complex)
    atoms = _atoms(T)
    if atoms is None:
        joint = _joint_cores(T)
        cores, dims, complement = joint.core, joint.dims, joint.complement
    else:  # the cores as R_x diag(s) R_y^H forms them, a zero of either sign made +0
        h = _heights(T)
        cores = np.zeros((h.size, 2, 2), dtype=complex)
        cores[:, 0, 0], cores[:, 1, 0] = atoms.g * atoms.s + 0, h * atoms.s + 0j
        dims, complement = np.array([atoms.ranks > 0, h > 0]).T, atoms.ranks + (h > 0) < atoms.sizes
    cosine = np.zeros(shifts.size)
    if complement.any():
        cosine[np.abs(shifts) <= cutoff] = 1.0
    dim = cores.shape[-1]
    diagonal = np.arange(dim)
    rows = max(1, DISTANCE_CHUNK // max(1, 4 * dim * dim * shifts.size))
    for lo in range(0, len(cores), rows):
        part = slice(lo, lo + rows)
        mats = cores[part, None].repeat(shifts.size, axis=1)
        shifted = mats[..., diagonal, diagonal] - shifts[:, None]
        mats[..., diagonal, diagonal] = np.where(dims[part, None], shifted, 1.0 + 2.0 * cutoff)
        near = np.ones(mats.shape[:2], dtype=bool)
        if dim == 2:  # the SVD only near a null vector; the closed form is off by ulps
            largest, smallest = _extreme_values(mats)
            near = smallest <= 2.0 * cutoff + 8 * np.finfo(float).eps * largest
        shift, mats = near.nonzero()[1], mats[near]
        if not near.any():
            continue
        u, sv, vh = _solve("svd", mats)
        null = sv <= cutoff
        hit = null.any(axis=-1)  # the pairs whose block has a null vector at the shift
        u, vh, null = u[hit], vh[hit], null[hit]
        # k1^H k2 with k1 = null(K - lambda I), k2 = null(K^H - conj(lambda) I),
        # padded with zero rows and columns
        gram = (vh * null[:, :, None]) @ (u * null[:, None, :])
        cosines = _solve("svd", gram, compute_uv=False).max(axis=-1, initial=0.0)
        np.maximum.at(cosine, shift[hit], cosines)
    angles = np.arccos(np.clip(cosine, -1.0, 1.0))
    return [lam for lam, angle in zip(clusters, angles) if angle < PRINCIPAL_ANGLE_TOL]


def sigma_p_equals_sigma_jp_check(
    W: WCEOperator, tol: float = DEFAULT_JOINT_TOL
) -> JointSpectrumReport:
    """Under the quasi-*-A hypothesis the point and joint point spectra
    coincide; outside it both sets are reported without assertion."""
    T = to_matrix(W)
    set_tol = tol * (1.0 + operator_norm(T))
    quasi = is_quasi_star_a_definitional(T, tol)
    sigma_p = _eigenvalue_clusters(T, set_tol)
    sigma_jp = joint_point_spectrum(T, tol)
    equal = None
    counterexamples: list = []
    if quasi:
        equal = hausdorff_distance(sigma_p, sigma_jp) <= set_tol
        if not equal:
            to_jp = _set_distances(sigma_p, sigma_jp)[0]
            counterexamples = [lam for lam, d in zip(sigma_p, to_jp) if d > set_tol]
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
    covers = bool((W.support_u2 & W.support_w2).all())

    nonzero_equal = None
    full_equal = None
    if hypothesis:
        nonzero_equal = hausdorff_distance(jp_nonzero, range_nonzero) <= set_tol
        if covers:
            full_range = list(range_nonzero)
            if level_set(W.e_uw, 0.0, set_tol).any():
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
