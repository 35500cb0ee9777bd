"""The set of checks ``verify_instance`` reports: each by its own name, once."""

from collections import Counter

import numpy as np
import pytest

from condexp import (
    WeightedOperator,
    adjoint,
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
from condexp.operator_algebra import gram_power, norm_distance, subtract
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


def _subtracted_max_diff(A, B) -> float:
    """The reference for ``_max_diff``: the largest entry over the blocks of
    the operator A - B."""
    return float(max(np.abs(p).max(initial=0.0) for p in subtract(A, B).parts))


def test_max_diff_is_the_largest_entry_of_the_difference_bit_for_bit():
    """Same blocks are compared block by block, different ones over the
    entries; both give the subtracted operator's largest entry exactly."""
    W = as_wce(random_instance(4, 24, 4))
    T = to_matrix(W)
    closed = tstar_t_power(W, 0.5)
    one_block = WeightedOperator(gram_power(T, 0.5).entries, W.space)
    for A, B in ((closed, gram_power(T, 0.5)), (closed, one_block), (T, T)):
        assert _max_diff(A, B) == _subtracted_max_diff(A, B)
    assert _max_diff(closed, one_block) > 0.0
    assert _max_diff(T, T) == 0.0


def _polar(instance) -> dict:
    return {c.name: c for c in verify_instance(instance) if c.name.startswith("polar_")}


def test_polar_checks_catch_an_isometry_without_its_square_root(monkeypatch):
    """U = (E|w|^2 E|u|^2)^-1 w E(u .), its factor's root dropped, fails the
    reconstruction and the partial isometry, each by the dense norm of the
    assembled operators' residual."""
    instance = random_instance(3, 24, 4)
    W = as_wce(instance)
    original = wce._polar_isometry_pair

    def rootless(V):
        a, b = original(V)
        return a / np.sqrt(V.e_abs_w2.values.real * V.e_abs_u2.values.real), b

    monkeypatch.setattr(wce, "_polar_isometry_pair", rootless)
    checks = _polar(instance)
    U = expectation_operator(W.space, W.algebra, *rootless(W))
    residuals = {
        "polar_reconstruction": norm_distance(compose(U, tstar_t_power(W, 0.5)), to_matrix(W)),
        "polar_partial_isometry": norm_distance(compose(compose(U, adjoint(U)), U), U),
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
    original = wce._tstar_t_power_pair
    monkeypatch.setattr(wce, "_tstar_t_power_pair", lambda V, p: original(V, 0.4))
    checks = _polar(instance)
    monkeypatch.undo()
    dense = norm_distance(
        compose(polar_isometry_closed_form(W), tstar_t_power(W, 0.4)), to_matrix(W)
    )
    assert not checks["polar_reconstruction"].passed
    assert checks["polar_reconstruction"].margin == pytest.approx(dense, rel=1e-12)
    assert checks["polar_partial_isometry"].passed
    assert checks["polar_kernel_condition"].passed
