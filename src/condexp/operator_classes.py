"""Membership tests for the A, *-A and quasi-*-A operator classes.

Each class has two routes: the definitional Loewner-order inequality,
evaluated on the matrix with the numerical oracle, and the pointwise
moment criteria, evaluated on the cached conditional moments. The two are
reported side by side and never mixed, so each cross-validates the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure_space import (
    DEFAULT_TOL,
    MeasurableFunction,
    is_algebra_measurable,
)
from .operator_algebra import (
    LoewnerMargins,
    WeightedOperator,
    _atoms,
    _conj_t,
    _diagonal,
    _factors,
    _heights,
    _inner_cores,
    _joint_cores,
    _margins,
    _once_per_operator,
    _solve,
    is_normal,
    loewner_holds,
)
from .wce_operator import WCEOperator, to_matrix

A_CLASS = "A"
STAR_A_CLASS = "star_A"
QUASI_STAR_A_CLASS = "quasi_star_A"

#: note attached to *-A verdicts: the pointwise inequality mixes complex
#: quantities, so both sides are compared in modulus
MODULUS_INTERPRETATION = "complex sides compared by modulus"


@dataclass(frozen=True)
class ClassVerdict:
    """Side-by-side result of the definitional test and the moment criteria.

    ``sufficient_criterion`` and ``necessary_criterion`` are None when not
    applicable. The fields are reported as computed, never reconciled: a
    sufficient criterion that holds while the definitional test fails is a
    genuine inconsistency and is surfaced as such by the test suite.
    """

    class_name: str
    definitional: bool
    sufficient_criterion: Optional[bool]
    necessary_criterion: Optional[bool]
    witness: Optional[str] = None
    supports_equal: Optional[bool] = None
    interpretation: Optional[str] = None


@dataclass(frozen=True)
class NormalityReport:
    """The three equivalent conditions for T = E M_u (w identically 1)."""

    is_normal: bool
    is_quasi_star_a: bool
    u_is_algebra_measurable: bool

    @property
    def consistent(self) -> bool:
        return self.is_normal == self.is_quasi_star_a == self.u_is_algebra_measurable


@_once_per_operator
def _class_margins(T: WeightedOperator) -> dict:
    """The Loewner margins of the three definitional tests, keyed by class:
    on a block X S Y^H with C = Y^H X, T^2 is X M Y^H with M = S C S, so the
    A and quasi-*-A differences are Y K Y^H with K = |M| - S^2 and
    S (C^H |M| C - S^2) S, and the *-A one is Q K Q^H on the joint basis Q of
    [Y X] with K = R_y |M| R_y^H - R_x S^2 R_x^H. A record's are in closed
    form (``_rank_one_margins``); wider factors take one SVD for |M| and one
    eigvalsh over the three zero-padded cores (``_margins``)."""
    atoms = _atoms(T)
    if atoms is not None:
        return _rank_one_margins(atoms.s, atoms.g, _heights(T))
    s, c, joint = _factors(T).s, _inner_cores(T), _joint_cores(T)
    width = s.shape[1]
    _, sigma, qh = _solve("svd", s[:, :, None] * c * s[:, None, :])
    abs_m = (_conj_t(qh) * sigma[:, None, :]) @ qh
    sq = _diagonal(s**2)
    cores = np.zeros((3,) + joint.core.shape, dtype=complex)
    cores[0, :, :width, :width] = abs_m - sq
    cores[1] = joint.r_y @ abs_m @ _conj_t(joint.r_y) - joint.r_x @ sq @ _conj_t(joint.r_x)
    cores[2, :, :width, :width] = s[:, :, None] * (_conj_t(c) @ abs_m @ c - sq) * s[:, None, :]
    return dict(zip((A_CLASS, STAR_A_CLASS, QUASI_STAR_A_CLASS), _margins(cores)))


def _rank_one_margins(s: np.ndarray, g: np.ndarray, h: np.ndarray) -> dict:
    """``_class_margins`` of a record in closed form, from each atom's s,
    g = y^H x and h (``_heights``): the A and quasi-*-A cores are
    s^2 (|g| - 1) and s^4 (|g|^3 - 1), and the *-A core is s^2 H with
    H = [[|g| (1 - |g|), -g h], [-conj(g) h, -h^2]], whose eigenvalues
    (p + r) / 2 -+ hypot((p - r) / 2, |q|) keep their digits where they meet."""
    s2, a = s**2, np.abs(g)
    p, r, q = a * (1.0 - a), -h * h, a * h
    mean, radius = 0.5 * (p + r), np.hypot(0.5 * (p - r), q)
    a_core, quasi_core = s2 * (a - 1.0), s2 * s2 * (a**3 - 1.0)
    star = s2 * np.array([mean - radius, mean + radius])
    entries = s2 * np.maximum(np.maximum(np.abs(p), q), -r)
    return {
        A_CLASS: _closed_margins(a_core, np.abs(a_core)),
        STAR_A_CLASS: _closed_margins(star, entries),
        QUASI_STAR_A_CLASS: _closed_margins(quasi_core, np.abs(quasi_core)),
    }


def _closed_margins(eigenvalues: np.ndarray, entries: np.ndarray) -> LoewnerMargins:
    """The margins of Hermitian cores with these ``eigenvalues`` (and zero
    padding) and these moduli of their largest entries, as ``_margins``
    reads them."""
    return LoewnerMargins(
        0.0,
        1.0 + float(entries.max(initial=0.0)),
        float(eigenvalues.min(initial=0.0)),
        float(np.abs(eigenvalues).max(initial=0.0)),
    )


def is_a_class_definitional(T: WeightedOperator, tol: float = DEFAULT_TOL) -> bool:
    """A-class: |T|^2 <= |T^2| in the Loewner order."""
    return loewner_holds(_class_margins(T)[A_CLASS], tol)


def is_star_a_definitional(T: WeightedOperator, tol: float = DEFAULT_TOL) -> bool:
    """*-A-class: |T^2| >= |T*|^2."""
    return loewner_holds(_class_margins(T)[STAR_A_CLASS], tol)


def is_quasi_star_a_definitional(
    T: WeightedOperator, tol: float = DEFAULT_TOL
) -> bool:
    """quasi-*-A-class: T* |T^2| T >= T* |T*|^2 T."""
    return loewner_holds(_class_margins(T)[QUASI_STAR_A_CLASS], tol)


def _pointwise_holds(lhs: np.ndarray, rhs: np.ndarray, mask: np.ndarray, tol: float):
    """Check lhs >= rhs - tol on the masked points; return (ok, witness)."""
    margin = lhs - rhs
    bad = mask & (margin < -tol)
    if not bad.any():
        return True, None
    i = int(np.argmin(np.where(bad, margin, np.inf)))
    return False, f"point {i}: margin {margin[i]:.6g}"


def cauchy_schwarz_gap(W: WCEOperator) -> MeasurableFunction:
    """Pointwise E(|u|^2) E(|w|^2) - |E(uw)|^2; nonnegative up to rounding by
    the conditional Cauchy-Schwarz inequality."""
    gap = (
        W.e_abs_u2.values.real * W.e_abs_w2.values.real
        - np.abs(W.e_uw.values) ** 2
    )
    return MeasurableFunction(gap, W.space)


def a_class_pointwise(W: WCEOperator, tol: float = DEFAULT_TOL):
    """The moment inequalities of the A-class criteria, without the (much
    costlier) definitional Loewner test.

    Returns (sufficient, necessary, witness): the sufficient inequality
    |E(uw)|^2 >= E(|u|^2) E(|w|^2) on S, and the necessary one on S'.
    """
    lhs = np.abs(W.e_uw.values) ** 2
    rhs = W.e_abs_u2.values.real * W.e_abs_w2.values.real
    sufficient, witness = _pointwise_holds(lhs, rhs, W.support_u2, tol)
    necessary, nec_witness = _pointwise_holds(lhs, rhs, W.support_eu, tol)
    return sufficient, necessary, witness or nec_witness


def a_class_criterion(W: WCEOperator, tol: float = DEFAULT_TOL) -> ClassVerdict:
    """Moment criteria for A-class membership, side by side with the
    definitional Loewner test.

    Sufficient: |E(uw)|^2 >= E(|u|^2) E(|w|^2) on S = S(E(|u|^2)).
    Necessary: the same inequality on S' = S(E(u)).
    When S = S' the two bound each other and the criterion is exact.
    """
    sufficient, necessary, witness = a_class_pointwise(W, tol)
    return ClassVerdict(
        class_name=A_CLASS,
        definitional=is_a_class_definitional(to_matrix(W), tol),
        sufficient_criterion=sufficient,
        necessary_criterion=necessary,
        witness=witness,
        supports_equal=bool(np.array_equal(W.support_u2, W.support_eu)),
    )


def star_a_criteria(W: WCEOperator, tol: float = DEFAULT_TOL) -> ClassVerdict:
    """Moment criteria for *-A-class membership.

    The sufficient inequality
        u |E(uw)|^(1/2) (E|w|^2 / E|u|^2)^(1/4) chi_S >= conj(w) (E|u|^2)^(1/2)
    compares generally complex functions; both sides are compared in modulus
    (recorded in the verdict). The necessary inequality is real-valued.
    """
    n = W.space.point_count
    on_s = W.support_u2
    eu2 = W.e_abs_u2.values.real
    ew2 = W.e_abs_w2.values.real
    ratio = np.zeros(n)
    ratio[on_s] = ew2[on_s] / eu2[on_s]

    suff_lhs = np.abs(W.u.values) * np.sqrt(np.abs(W.e_uw.values)) * ratio**0.25 * on_s
    suff_rhs = np.abs(W.w.values) * np.sqrt(np.maximum(eu2, 0.0))
    sufficient, witness = _pointwise_holds(
        suff_lhs, suff_rhs, np.ones(n, dtype=bool), tol
    )

    nec_lhs = np.abs(W.e_u.values) ** 2 * np.abs(W.e_uw.values) * np.sqrt(ratio) * on_s
    nec_rhs = np.sqrt(np.maximum(eu2, 0.0)) * np.abs(W.e_w.values) ** 2
    necessary, nec_witness = _pointwise_holds(
        nec_lhs, nec_rhs, np.ones(n, dtype=bool), tol
    )
    return ClassVerdict(
        class_name=STAR_A_CLASS,
        definitional=is_star_a_definitional(to_matrix(W), tol),
        sufficient_criterion=sufficient,
        necessary_criterion=necessary,
        witness=witness or nec_witness,
        interpretation=MODULUS_INTERPRETATION,
    )


def quasi_star_a_criteria(W: WCEOperator, tol: float = DEFAULT_TOL) -> ClassVerdict:
    """Moment criteria for quasi-*-A-class membership.

    Sufficient: |E(uw)|^2 >= E(|u|^2) E(|w|^2) everywhere.
    Necessary: |E(uw)|^3 (E|w|^2)^(1/2) >= (E|u|^2)^(3/2) (E|w|^2)^2.
    """
    n = W.space.point_count
    everywhere = np.ones(n, dtype=bool)
    eu2 = np.maximum(W.e_abs_u2.values.real, 0.0)
    ew2 = np.maximum(W.e_abs_w2.values.real, 0.0)
    abs_euw = np.abs(W.e_uw.values)

    sufficient, witness = _pointwise_holds(abs_euw**2, eu2 * ew2, everywhere, tol)
    necessary, nec_witness = _pointwise_holds(
        abs_euw**3 * np.sqrt(ew2), eu2**1.5 * ew2**2, everywhere, tol
    )
    return ClassVerdict(
        class_name=QUASI_STAR_A_CLASS,
        definitional=is_quasi_star_a_definitional(to_matrix(W), tol),
        sufficient_criterion=sufficient,
        necessary_criterion=necessary,
        witness=witness or nec_witness,
    )


def normality_equivalence(W: WCEOperator, tol: float = DEFAULT_TOL) -> NormalityReport:
    """For T = E M_u the conditions 'T normal', 'T quasi-*-A' and
    'u algebra-measurable' are equivalent; all three are reported."""
    if not W.w_is_one(tol):
        raise ValueError("normality equivalence requires w identically 1")
    T = to_matrix(W)
    return NormalityReport(
        is_normal=is_normal(T, tol),
        is_quasi_star_a=is_quasi_star_a_definitional(T, tol),
        u_is_algebra_measurable=is_algebra_measurable(W.u, W.algebra, tol),
    )
