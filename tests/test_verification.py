"""The set of checks ``verify_instance`` reports: each by its own name, once."""

from collections import Counter

import numpy as np
import pytest

from condexp import (
    adjoint,
    adjoint_wce,
    as_wce,
    expectation_operator,
    operator_norm,
    polar_isometry_closed_form,
    random_instance,
    symmetric_interval_example,
    to_matrix,
    tstar_t_power,
)
from condexp import operator_algebra as oa
from condexp import wce_operator as wce
from condexp.measure_space import MeasurableFunction
from condexp.operator_algebra import gram_power
from condexp.verification import POWERS, verify_instance

import dense_reference as dense
from conftest import standard

#: the checks every instance gets
CHECKS = {
    "norm_formula",
    *(f"{side}_power_{p}" for side in ("tstar_t", "t_tstar") for p in (0.5, 1.0, 2.0, 3.5)),
    "polar_reconstruction",
    "polar_partial_isometry",
    "polar_kernel_condition",
    "aluthge_matches_oracle",
    "aluthge_idempotent",
    "adjoint_isometry_is_adjoint_of_isometry",
    "adjoint_aluthge_matches_oracle",
    "spectrum_sets_match",
    "spectral_radius_formula",
    "a_class_sufficient_implies_definitional",
    "a_class_definitional_implies_necessary",
    "quasi_star_a_sufficient_implies_definitional",
    "cauchy_schwarz_gap_nonnegative",
    "quasi_star_a_implies_sigma_p_equals_sigma_jp",
}
#: the checks added when w is identically 1
W_ONE_CHECKS = {"normality_equivalence_consistent", "em_u_point_spectrum_claims"}


def _names(instance) -> Counter:
    return Counter(c.name for c in verify_instance(instance))


def test_each_check_runs_once():
    assert len(CHECKS) == 23
    assert _names(random_instance(3, 24, 4)) == Counter(CHECKS)


def test_w_one_adds_its_two_checks():
    assert _names(symmetric_interval_example(8)) == Counter(CHECKS | W_ONE_CHECKS)
    assert len(CHECKS | W_ONE_CHECKS) == 25


def _polar(instance) -> dict:
    return {c.name: c for c in verify_instance(instance) if c.name.startswith("polar_")}


def test_polar_checks_catch_an_isometry_without_its_square_root(monkeypatch):
    """U = (E|w|^2 E|u|^2)^-1 w E(u .), its factor's root dropped, fails the
    reconstruction and the partial isometry, each by the dense norm of the
    assembled operators' residual."""
    instance = random_instance(3, 24, 4)
    W = as_wce(instance)
    original = wce.polar_isometry_closed_form

    def rootless(V):
        a, b = original(V)
        return a / np.sqrt(V.e_abs_w2.values.real * V.e_abs_u2.values.real), b

    monkeypatch.setattr(wce, "polar_isometry_closed_form", rootless)
    checks = _polar(instance)
    U = expectation_operator(W.space, W.algebra, *rootless(W))
    modulus = expectation_operator(W.space, W.algebra, *tstar_t_power(W, 0.5))
    u, t = standard(U), standard(to_matrix(W))
    residuals = {
        "polar_reconstruction": dense.norm(u @ standard(modulus) - t),
        "polar_partial_isometry": dense.norm(u @ u.conj().T @ u - u),
    }
    for name, residual in residuals.items():
        assert not checks[name].passed
        assert checks[name].margin == pytest.approx(residual, rel=1e-12)
    assert checks["polar_partial_isometry"].tolerance == pytest.approx(
        1e-8 * (1.0 + operator_norm(U)), rel=1e-12
    )


def test_polar_checks_catch_a_wrong_modulus_power(monkeypatch):
    """|T| taken as (T*T)^0.4 fails the reconstruction by the dense norm of
    U (T*T)^0.4 - T; the kernels, and so the kernel condition, agree."""
    instance = random_instance(3, 24, 4)
    W = as_wce(instance)
    original = wce.tstar_t_power
    monkeypatch.setattr(wce, "tstar_t_power", lambda V, p: original(V, 0.4))
    checks = _polar(instance)
    monkeypatch.undo()
    u, modulus = (
        standard(expectation_operator(W.space, W.algebra, *pair))
        for pair in (polar_isometry_closed_form(W), tstar_t_power(W, 0.4))
    )
    residual = dense.norm(u @ modulus - standard(to_matrix(W)))
    assert not checks["polar_reconstruction"].passed
    assert checks["polar_reconstruction"].margin == pytest.approx(residual, rel=1e-12)
    assert checks["polar_partial_isometry"].passed
    assert checks["polar_kernel_condition"].passed


def _checks(instance) -> dict:
    return {c.name: c for c in verify_instance(instance)}


def _dense_distance(W, first, second) -> float:
    """The dense reference's norm of the difference, a pair (a, b) taken as
    its operator M_a E M_b."""
    A, B = (
        expectation_operator(W.space, W.algebra, *x) if isinstance(x, tuple) else x
        for x in (first, second)
    )
    return dense.norm(standard(A) - standard(B))


def test_power_checks_catch_a_wrong_power(monkeypatch):
    """(T*T)^p and (TT*)^p taken at p + 0.1 fail all eight power checks, each
    by the dense norm of the difference from the oracle's power."""
    instance = random_instance(3, 24, 4)
    W = as_wce(instance)
    T = to_matrix(W)
    original = wce.tstar_t_power
    monkeypatch.setattr(wce, "tstar_t_power", lambda V, p: original(V, p + 0.1))
    checks = _checks(instance)
    monkeypatch.undo()
    for p in POWERS:
        for name, V, S in (("tstar_t", W, T), ("t_tstar", adjoint_wce(W), adjoint(T))):
            check = checks[f"{name}_power_{p}"]
            distance = _dense_distance(W, tstar_t_power(V, p + 0.1), gram_power(S, p))
            assert not check.passed
            assert check.margin == pytest.approx(distance, rel=1e-9)


def _vanishing_on_an_atom(instance, which):
    """The instance with u (or w) zero on its first atom, so E|u|^2 (or
    E|w|^2) vanishes there."""
    values = getattr(instance, which).values.copy()
    values[instance.algebra.blocks[0]] = 0.0
    return instance._replace(**{which: MeasurableFunction(values, instance.space)})


@pytest.mark.parametrize(
    "which, name", [("u", "aluthge_matches_oracle"), ("w", "adjoint_aluthge_matches_oracle")]
)
def test_aluthge_checks_catch_a_closed_form_without_its_support(monkeypatch, which, name):
    """The Aluthge closed form E(uw) / E|u|^2 without chi_S is 0/0 where u
    vanishes on an atom, on T's side, or where w does, on T*'s; the check
    passes with chi_S and fails without it."""
    instance = _vanishing_on_an_atom(random_instance(3, 24, 4), which)
    assert _checks(instance)[name].passed

    def unsupported(V):
        with np.errstate(invalid="ignore"):
            factor = V.e_uw.values / V.e_abs_u2.values.real
        return factor * np.conj(V.u.values), V.u.values

    monkeypatch.setattr(wce, "aluthge_closed_form", unsupported)
    assert not _checks(instance)[name].passed


def test_adjoint_isometry_check_catches_an_unconjugated_adjoint(monkeypatch):
    """U* taken as the pair (b, a) of U = M_a E M_b, left unconjugated, fails
    the adjoint-isometry check by the dense norm of the difference."""
    instance = random_instance(3, 24, 4)
    W = as_wce(instance)
    monkeypatch.setattr(oa, "expectation_adjoint", lambda pair: (pair[1], pair[0]))
    check = _checks(instance)["adjoint_isometry_is_adjoint_of_isometry"]
    monkeypatch.undo()
    a, b = polar_isometry_closed_form(W)
    distance = _dense_distance(W, polar_isometry_closed_form(adjoint_wce(W)), (b, a))
    assert not check.passed
    assert check.margin == pytest.approx(distance, rel=1e-9)

