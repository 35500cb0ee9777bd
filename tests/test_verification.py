"""The set of checks ``verify_instance`` reports: each by its own name, once."""

from collections import Counter

import numpy as np
import pytest

from condexp import (
    WeightedOperator,
    adjoint,
    adjoint_wce,
    as_wce,
    compose,
    expectation_operator,
    operator_norm,
    polar_isometry_closed_form,
    random_instance,
    symmetric_interval_example,
    to_matrix,
    tstar_t_power,
)
from condexp import wce_operator as wce
from condexp.operator_algebra import gram_power, subtract
from condexp.verification import _max_diff, verify_instance

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


def _assembled_max_diff(W, A, B) -> float:
    """The reference for ``_max_diff``: the largest entry of the assembled
    difference, a pair (a, b) taken as its operator M_a E M_b."""
    A, B = (
        x if isinstance(x, WeightedOperator) else expectation_operator(W.space, W.algebra, *x)
        for x in (A, B)
    )
    return float(np.abs(A.entries - B.entries).max())


def test_max_diff_is_the_largest_entry_of_the_difference_bit_for_bit():
    """Pairs and operators blocked by the atoms are compared atom by atom, a
    one-block operator over the entries; every combination gives the
    largest entry of the assembled difference exactly."""
    W = as_wce(random_instance(4, 24, 4))
    T = to_matrix(W)
    closed = tstar_t_power(W, 0.5)
    oracle = gram_power(T, 0.5)
    one_block = WeightedOperator(oracle.entries, W.space)
    cases = (
        (closed, oracle),  # a pair against an operator blocked by the atoms
        (closed, one_block),  # a pair against a one-block operator
        (oracle, T),  # an operator against an operator
        (one_block, T),  # the same, over the entries
        (closed, tstar_t_power(adjoint_wce(W), 0.5)),  # a pair against a pair
        (T, T),
    )
    for A, B in cases:
        assert _max_diff(W, A, B) == _assembled_max_diff(W, A, B)
    assert min(_max_diff(W, A, B) for A, B in cases[1:-1]) > 0.0
    assert _max_diff(W, T, T) == 0.0


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
    residuals = {
        "polar_reconstruction": operator_norm(subtract(compose(U, modulus), to_matrix(W))),
        "polar_partial_isometry": operator_norm(subtract(compose(compose(U, adjoint(U)), U), U)),
    }
    for name, dense in residuals.items():
        assert not checks[name].passed
        assert checks[name].margin == pytest.approx(dense, rel=1e-12)
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
    U, modulus = (
        expectation_operator(W.space, W.algebra, *pair)
        for pair in (polar_isometry_closed_form(W), tstar_t_power(W, 0.4))
    )
    dense = operator_norm(subtract(compose(U, modulus), to_matrix(W)))
    assert not checks["polar_reconstruction"].passed
    assert checks["polar_reconstruction"].margin == pytest.approx(dense, rel=1e-12)
    assert checks["polar_partial_isometry"].passed
    assert checks["polar_kernel_condition"].passed
