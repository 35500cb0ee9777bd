"""Per-instance cross-validation of every closed form against the oracle.

Each check compares a moment-based closed form with the corresponding
computation of the per-atom numerical oracle and records a pass/fail with
its margin and tolerance. This module backs both the ``verify`` CLI
subcommand and the acceptance test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operator_algebra as oa
from . import operator_classes as oc
from . import spectral_analysis as sa
from . import wce_operator as wce
from .instance_factory import Instance, as_wce
from .operator_algebra import WeightedOperator

POWERS = (0.5, 1.0, 2.0, 3.5)


@dataclass(frozen=True)
class Tolerances:
    psd: float = 1e-9  # Loewner / definitional class tests
    match: float = 1e-8  # closed form vs oracle matrix comparisons
    spectrum: float = 1e-7  # eigenvalue set comparisons (relative)
    support: float = 1e-12  # conditional-moment support decisions
    gap: float = 1e-9  # Cauchy-Schwarz floor


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


def _max_diff(A: WeightedOperator, B: WeightedOperator) -> float:
    """The largest entry of A - B in modulus, over its blocks."""
    return float(max(np.abs(p).max(initial=0.0) for p in oa.subtract(A, B).parts))


def _kernel_agreement(A: WeightedOperator, B: WeightedOperator) -> float:
    """Operator-norm distance between the orthogonal projections onto the
    two numeric kernels."""
    return oa.operator_norm(oa.subtract(oa.kernel_projection(A), oa.kernel_projection(B)))


def verify_instance(instance: Instance, tols: Tolerances = Tolerances()) -> list:
    """Run the full closed-form vs oracle suite on one instance."""
    W = as_wce(instance, support_tol=tols.support)
    T = wce.to_matrix(W)
    norm_t = oa.operator_norm(T)
    checks: list = []

    def record(name, margin, tolerance):
        checks.append(Check(name, margin <= tolerance, margin, tolerance))

    # operator norm (closed form vs largest singular value)
    record(
        "norm_formula",
        abs(wce.norm_closed_form(W) - norm_t),
        tols.match * (1.0 + norm_t),
    )

    # powers of T*T and TT*
    tstar_t = oa.compose(oa.adjoint(T), T)
    t_tstar = oa.compose(T, oa.adjoint(T))
    for p in POWERS:
        record(
            f"tstar_t_power_{p}",
            _max_diff(wce.tstar_t_power(W, p), oa.fractional_power(tstar_t, p)),
            tols.match,
        )
        record(
            f"t_tstar_power_{p}",
            _max_diff(wce.t_tstar_power(W, p), oa.fractional_power(t_tstar, p)),
            tols.match,
        )

    # polar decomposition
    parts = wce.polar_closed_form(W)
    oracle = oa.polar_decompose_numeric(T)
    record(
        "polar_reconstruction",
        oa.operator_norm(
            oa.subtract(oa.compose(parts.isometry_part, parts.modulus_part), T)
        ),
        tols.match,
    )
    record(
        "polar_modulus_matches_oracle",
        _max_diff(parts.modulus_part, oracle.modulus_part),
        tols.match,
    )
    u_part = parts.isometry_part
    record(
        "polar_partial_isometry",
        oa.operator_norm(
            oa.subtract(oa.compose(oa.compose(u_part, oa.adjoint(u_part)), u_part), u_part)
        ),
        tols.match * (1.0 + oa.operator_norm(u_part)),
    )
    record(
        "polar_kernel_condition",
        _kernel_agreement(u_part, parts.modulus_part),
        tols.match,
    )

    # Aluthge transform and its fixed-point property
    alu_closed = wce.aluthge_closed_form(W)
    alu_numeric = oa.aluthge_numeric(T)
    record("aluthge_matches_oracle", _max_diff(alu_closed, alu_numeric), tols.match)
    record(
        "aluthge_idempotent",
        _max_diff(oa.aluthge_numeric(alu_numeric), alu_numeric),
        tols.match,
    )

    # adjoint parts
    adj_parts = wce.adjoint_parts_closed_form(W)
    adj_oracle = oa.polar_decompose_numeric(oa.adjoint(T))
    record(
        "adjoint_modulus_matches_oracle",
        _max_diff(adj_parts.modulus_part, adj_oracle.modulus_part),
        tols.match,
    )
    record(
        "adjoint_isometry_is_adjoint_of_isometry",
        _max_diff(adj_parts.isometry_part, oa.adjoint(parts.isometry_part)),
        tols.match,
    )
    record(
        "adjoint_aluthge_matches_oracle",
        _max_diff(adj_parts.aluthge, oa.aluthge_numeric(oa.adjoint(T))),
        tols.match,
    )

    # spectrum and spectral radius
    set_tol = tols.spectrum * (1.0 + norm_t)
    report = sa.spectrum_report(W, tols.spectrum)
    record("spectrum_sets_match", report.max_set_distance, set_tol)
    radius_numeric = float(np.abs(report.numeric_eigenvalues).max(initial=0.0))
    record(
        "spectral_radius_formula",
        abs(sa.spectral_radius_closed_form(W) - radius_numeric),
        set_tol,
    )

    # operator classes: sufficient criterion implies the definitional test,
    # definitional implies the necessary criterion
    a_verdict = oc.a_class_criterion(W, tols.psd)
    checks.append(
        Check(
            "a_class_sufficient_implies_definitional",
            (not a_verdict.sufficient_criterion) or a_verdict.definitional,
            0.0,
            tols.psd,
        )
    )
    checks.append(
        Check(
            "a_class_definitional_implies_necessary",
            (not a_verdict.definitional) or bool(a_verdict.necessary_criterion),
            0.0,
            tols.psd,
        )
    )
    q_verdict = oc.quasi_star_a_criteria(W, tols.psd)
    checks.append(
        Check(
            "quasi_star_a_sufficient_implies_definitional",
            (not q_verdict.sufficient_criterion) or q_verdict.definitional,
            0.0,
            tols.psd,
        )
    )

    # Cauchy-Schwarz floor
    gap_min = float(oc.cauchy_schwarz_gap(W).values.real.min())
    record("cauchy_schwarz_gap_nonnegative", max(0.0, -gap_min), tols.gap)

    # point vs joint point spectrum under the quasi-*-A hypothesis
    jp_report = sa.sigma_p_equals_sigma_jp_check(W, tols.match)
    checks.append(
        Check(
            "quasi_star_a_implies_sigma_p_equals_sigma_jp",
            (not jp_report.quasi_star_a) or bool(jp_report.equal),
            0.0,
            tols.match,
        )
    )

    # w identically 1: the three normality conditions agree, and the level
    # sets of E(u) describe the point spectrum
    if np.abs(instance.w.values - 1.0).max() <= tols.psd:
        normality = oc.normality_equivalence(W, tols.psd)
        checks.append(
            Check("normality_equivalence_consistent", normality.consistent, 0.0, tols.psd)
        )
        em_report = sa.em_u_point_spectrum(W, tols.spectrum)
        ok = em_report.equality_off_zero and em_report.containment
        if em_report.zero_case_equality is not None:
            ok = ok and em_report.zero_case_equality
        checks.append(Check("em_u_point_spectrum_claims", ok, 0.0, set_tol))

    return checks


def summarize(checks: list) -> dict:
    failures = [c.as_dict() for c in checks if not c.passed]
    return {
        "total": len(checks),
        "passed": len(checks) - len(failures),
        "failed": len(failures),
        "failures": failures,
        "all_passed": not failures,
    }
