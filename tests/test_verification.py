"""The set of checks ``verify_instance`` reports: each by its own name, once."""

from collections import Counter

from condexp import random_instance, symmetric_interval_example
from condexp.verification import verify_instance

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
