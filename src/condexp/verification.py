"""Per-instance cross-validation of every closed form against the oracle.

Each check compares a moment-based closed form, the pair (a, b) of an
operator M_a E M_b, with the corresponding computation of the per-atom
numerical oracle, or, for the polar decomposition, with T's own definition,
and records a pass/fail with its margin and tolerance. The fifteen operator
checks (the powers, the polar decomposition, the Aluthge transforms and the
adjoint isometry) share one metric, the operator norm of the difference on
L2(mu), read off the cores of both sides: T's side (the powers of T*T,
the polar decomposition, the Aluthge transforms) and T*'s side (the powers
of TT*, the adjoint) each compare all their operators in one
``core_distances`` call, two calls per verify, and T's rank-one atoms make
every core 2 x 2, so its largest value is taken in closed form. This module
backs both the ``verify`` CLI subcommand and the acceptance test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import operator_algebra as oa
from . import operator_classes as oc
from . import spectral_analysis as sa
from . import wce_operator as wce
from .instance_factory import Instance, as_wce
from .measure_space import DEFAULT_SUPPORT_TOL, DEFAULT_TOL
from .operator_algebra import WeightedOperator
from .wce_operator import WCEOperator

POWERS = (0.5, 1.0, 2.0, 3.5)


@dataclass(frozen=True)
class Tolerances:
    psd: float = DEFAULT_TOL  # Loewner / definitional class tests
    match: float = 1e-8  # closed form vs oracle matrix comparisons
    spectrum: float = sa.DEFAULT_SPECTRUM_TOL  # eigenvalue set comparisons (relative)
    support: float = DEFAULT_SUPPORT_TOL  # conditional-moment support decisions
    gap: float = 1e-9  # Cauchy-Schwarz floor

    def __post_init__(self):
        """Every tolerance must be finite and >= 0: a negative one fails
        every check, an infinite or NaN one passes or fails them vacuously."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {f.name!r} must be finite and >= 0, got {value}")


@dataclass
class Check:
    name: str
    passed: bool
    margin: float
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "tolerance": float(self.tolerance),
        }


def _check(name: str, margin: float, tolerance: float) -> Check:
    return Check(name, margin <= tolerance, margin, tolerance)


def verify_instance(instance: Instance, tols: Tolerances = Tolerances()) -> list:
    """Run the full closed-form vs oracle suite on one instance, the checks in
    section order. T's side (the powers of T*T, the polar decomposition,
    the Aluthge transforms) and T*'s side (the powers of TT*, the adjoint:
    the T-side sections on ``adjoint_wce(W)`` and ``adjoint(T)``) are each
    measured by one ``core_distances`` call, a side's operators freed once
    its checks are made. Every question asked of T reads its per-atom
    record, made once, so a verify builds no block and makes no LAPACK call
    but the joint point spectrum's (``svd 16x2x2`` twice on
    random_instance(7, 64, 8))."""
    W = as_wce(instance, support_tol=tols.support)
    T = wce.to_matrix(W)
    norm_t = oa.operator_norm(T)

    # operator norm (closed form vs largest singular value)
    checks = [
        _check(
            "norm_formula",
            abs(wce.norm_closed_form(W) - norm_t),
            tols.match * (1.0 + norm_t),
        )
    ]
    checks += _compared(
        W,
        _power_comparisons(W, T, "tstar_t_power", tols)
        + _polar_comparisons(W, tols)
        + _aluthge_comparisons(W, T, tols),
    )
    checks += _compared(
        W,
        _power_comparisons(wce.adjoint_wce(W), oa.adjoint(T), "t_tstar_power", tols)
        + _adjoint_comparisons(W, T, tols),
    )
    set_tol = tols.spectrum * (1.0 + norm_t)
    checks += _spectrum_checks(W, set_tol, tols)
    checks += _class_checks(W, tols)
    # each w = 1 analysis tests w at its own tolerance: run them if neither rejects W
    if W.w_is_one(min(tols.psd, tols.spectrum)):
        checks += _w_one_checks(W, set_tol, tols)
    return checks


def _compared(W: WCEOperator, comparisons: list) -> list:
    """One check per (name, first, second, tolerance) of ``comparisons``,
    all measured by one ``core_distances`` call."""
    pairs = [(first, second) for _, first, second, _ in comparisons]
    margins = oa.core_distances(W.space, W.algebra, pairs).tolist()
    return [_check(name, m, tol) for (name, _, _, tol), m in zip(comparisons, margins)]


def _power_comparisons(W: WCEOperator, T: WeightedOperator, name: str, tols: Tolerances) -> list:
    """Powers of T*T, read off T's factors; on T* they are the powers of TT*."""
    return [
        (f"{name}_{p}", wce.tstar_t_power(W, p), oa.gram_power(T, p), tols.match) for p in POWERS
    ]


def _polar_comparisons(W: WCEOperator, tols: Tolerances) -> list:
    """The polar decomposition T = U |T|, with |T| = ``tstar_t_power(W, 0.5)``,
    measured on the pairs (a, b) of the operators M_a E M_b: T's own pair
    (w, u) and those of the two closed forms, combined by the pair rules and
    compared on their 2 x 2 cores (``core_distances`` on pairs), so no
    |B| x |B| block is built.
    The kernel condition N(U) = N(|T|) compares the coimage projections:
    ||P_ker U - P_ker |T||| = ||P_coim |T| - P_coim U||."""
    space, algebra = W.space, W.algebra
    t_pair = (W.w.values, W.u.values)  # the vectors T's blocks are built from
    u_part = wce.polar_isometry_closed_form(W)
    modulus = wce.tstar_t_power(W, 0.5)
    u_modulus = oa.expectation_product(space, algebra, u_part, modulus)
    u_u_star = oa.expectation_product(space, algebra, u_part, oa.expectation_adjoint(u_part))
    u_u_star_u = oa.expectation_product(space, algebra, u_u_star, u_part)
    u_norm = float(oa.expectation_norms(space, algebra, u_part).max(initial=0.0))
    coimages = [oa.expectation_coimage(space, algebra, x) for x in (modulus, u_part)]
    return [
        ("polar_reconstruction", u_modulus, t_pair, tols.match),
        ("polar_partial_isometry", u_u_star_u, u_part, tols.match * (1.0 + u_norm)),
        ("polar_kernel_condition", *coimages, tols.match),
    ]


def _aluthge_comparisons(W: WCEOperator, T: WeightedOperator, tols: Tolerances) -> list:
    """The Aluthge transform and its fixed-point property."""
    alu_numeric = oa.aluthge_numeric(T)
    return [
        ("aluthge_matches_oracle", wce.aluthge_closed_form(W), alu_numeric, tols.match),
        ("aluthge_idempotent", oa.aluthge_numeric(alu_numeric), alu_numeric, tols.match),
    ]


def _adjoint_comparisons(W: WCEOperator, T: WeightedOperator, tols: Tolerances) -> list:
    """Partial isometry and Aluthge transform of T*: the T-side closed forms
    of V = adjoint_wce(W), the isometry against the adjoint pair of T's
    closed-form one and the Aluthge transform against the oracle on
    adjoint(T)."""
    V = wce.adjoint_wce(W)
    u_star = oa.expectation_adjoint(wce.polar_isometry_closed_form(W))
    isometry, alu = wce.polar_isometry_closed_form(V), wce.aluthge_closed_form(V)
    return [
        ("adjoint_isometry_is_adjoint_of_isometry", isometry, u_star, tols.match),
        ("adjoint_aluthge_matches_oracle", alu, oa.aluthge_numeric(oa.adjoint(T)), tols.match),
    ]


def _spectrum_checks(W: WCEOperator, set_tol: float, tols: Tolerances) -> list:
    """The spectrum and the spectral radius."""
    report = sa.spectrum_report(W, tols.spectrum)
    radius_numeric = float(np.abs(report.numeric_eigenvalues).max(initial=0.0))
    return [
        _check("spectrum_sets_match", report.max_set_distance, set_tol),
        _check(
            "spectral_radius_formula",
            abs(sa.spectral_radius_closed_form(W) - radius_numeric),
            set_tol,
        ),
    ]


def _class_checks(W: WCEOperator, tols: Tolerances) -> list:
    """Operator classes (a sufficient criterion implies the definitional
    test, the definitional test implies the necessary criterion), the
    Cauchy-Schwarz floor, and sigma_p = sigma_jp under quasi-*-A."""
    a_verdict = oc.a_class_criterion(W, tols.psd)
    q_verdict = oc.quasi_star_a_criteria(W, tols.psd)
    gap_min = float(oc.cauchy_schwarz_gap(W).values.real.min())
    jp_report = sa.sigma_p_equals_sigma_jp_check(W, tols.match)
    return [
        Check(
            "a_class_sufficient_implies_definitional",
            (not a_verdict.sufficient_criterion) or a_verdict.definitional,
            0.0,
            tols.psd,
        ),
        Check(
            "a_class_definitional_implies_necessary",
            (not a_verdict.definitional) or bool(a_verdict.necessary_criterion),
            0.0,
            tols.psd,
        ),
        Check(
            "quasi_star_a_sufficient_implies_definitional",
            (not q_verdict.sufficient_criterion) or q_verdict.definitional,
            0.0,
            tols.psd,
        ),
        _check("cauchy_schwarz_gap_nonnegative", max(0.0, -gap_min), tols.gap),
        Check(
            "quasi_star_a_implies_sigma_p_equals_sigma_jp",
            (not jp_report.quasi_star_a) or bool(jp_report.equal),
            0.0,
            tols.match,
        ),
    ]


def _w_one_checks(W: WCEOperator, set_tol: float, tols: Tolerances) -> list:
    """For w identically 1: the three normality conditions agree, and the
    level sets of E(u) describe the point spectrum."""
    normality = oc.normality_equivalence(W, tols.psd)
    em_report = sa.em_u_point_spectrum(W, tols.spectrum)
    ok = em_report.equality_off_zero and em_report.containment
    if em_report.zero_case_equality is not None:
        ok = ok and em_report.zero_case_equality
    return [
        Check("normality_equivalence_consistent", normality.consistent, 0.0, tols.psd),
        Check("em_u_point_spectrum_claims", ok, 0.0, set_tol),
    ]


def summarize(checks: list) -> dict:
    failures = [c.as_dict() for c in checks if not c.passed]
    return {
        "total": len(checks),
        "passed": len(checks) - len(failures),
        "failed": len(failures),
        "failures": failures,
        "all_passed": not failures,
    }
