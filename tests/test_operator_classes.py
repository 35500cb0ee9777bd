import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    a_class_criterion,
    as_wce,
    build_wce,
    cauchy_schwarz_gap,
    is_a_class_definitional,
    is_quasi_star_a_definitional,
    is_star_a_definitional,
    normality_equivalence,
    proportional_instance,
    quasi_star_a_criteria,
    random_instance,
    star_a_criteria,
    symmetric_interval_example,
    to_matrix,
)
from condexp.operator_algebra import expectation_operator

from conftest import discrete_algebra, make_function, trivial_algebra


def rank_one_wce():
    space = FiniteMeasureSpace([1.0, 1.0])
    algebra = trivial_algebra(2)
    return build_wce(
        space, algebra, make_function(space, [2, 0]), make_function(space, [1, 1])
    )


def real_equal_uw_wce(seed=0, n=8, blocks=3):
    inst = random_instance(seed, n, blocks, complex_valued=False)
    return build_wce(inst.space, inst.algebra, inst.u, inst.u)


class TestDefinitional:
    def test_normal_diagonal_is_a_class(self):
        space = FiniteMeasureSpace(np.ones(3))
        T = expectation_operator(space, discrete_algebra(3), np.array([1.0, -2.0, 0.5]))
        assert is_a_class_definitional(T)

    def test_rank_one_is_not_a_class(self):
        assert not is_a_class_definitional(to_matrix(rank_one_wce()))

    def test_singleton_block_wce_is_a_class(self):
        space = FiniteMeasureSpace([1.0, 2.0])
        algebra = discrete_algebra(2)
        W = build_wce(
            space, algebra, make_function(space, [1 + 1j, 2]), make_function(space, [3, 1j])
        )
        assert is_a_class_definitional(to_matrix(W))

    def test_rank_one_is_not_star_a(self):
        assert not is_star_a_definitional(to_matrix(rank_one_wce()))

    def test_zero_is_star_a(self):
        zero = expectation_operator(FiniteMeasureSpace([1, 1]), trivial_algebra(2), np.zeros(2))
        assert is_star_a_definitional(zero)

    def test_symmetric_interval_is_quasi_star_a(self):
        W = as_wce(symmetric_interval_example(20))
        assert is_quasi_star_a_definitional(to_matrix(W))

    def test_rank_one_is_not_quasi_star_a(self):
        assert not is_quasi_star_a_definitional(to_matrix(rank_one_wce()))


class TestAClassCriterion:
    def test_real_equal_uw_sufficient(self):
        # for real u = w the conditional Cauchy-Schwarz holds with equality
        verdict = a_class_criterion(real_equal_uw_wce())
        assert verdict.sufficient_criterion
        assert verdict.definitional

    def test_rank_one_fails_with_witness(self):
        verdict = a_class_criterion(rank_one_wce())
        assert not verdict.sufficient_criterion
        assert verdict.witness is not None
        assert "margin" in verdict.witness
        # |E(uw)|^2 = 1, product = 2: margin is -1
        assert "-1" in verdict.witness

    def test_singleton_blocks_equality(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        algebra = discrete_algebra(2)
        W = build_wce(
            space, algebra, make_function(space, [1 + 2j, 1]), make_function(space, [2, -1j])
        )
        verdict = a_class_criterion(W)
        assert verdict.sufficient_criterion
        assert verdict.necessary_criterion

    def test_reports_support_equality_hypothesis(self):
        verdict = a_class_criterion(real_equal_uw_wce(seed=2))
        assert verdict.supports_equal is not None


class TestStarACriteria:
    def test_constant_one_holds_with_equality(self):
        space = FiniteMeasureSpace(np.ones(4))
        algebra = SubSigmaAlgebra(([0, 1], [2, 3]), 4)
        one = MeasurableFunction.constant(space, 1.0)
        verdict = star_a_criteria(build_wce(space, algebra, one, one))
        assert verdict.sufficient_criterion
        assert verdict.necessary_criterion
        assert verdict.definitional

    def test_rank_one_fails_necessary(self):
        # |E(u)|^2 |E(uw)| sqrt(1/2) = 1/sqrt(2) < sqrt(2) = sqrt(E|u|^2) |E(w)|^2
        verdict = star_a_criteria(rank_one_wce())
        assert not verdict.necessary_criterion

    def test_interpretation_recorded(self):
        verdict = star_a_criteria(rank_one_wce())
        assert verdict.interpretation is not None

    def test_singleton_positive_case(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        algebra = discrete_algebra(2)
        one = MeasurableFunction.constant(space, 1.0)
        verdict = star_a_criteria(build_wce(space, algebra, one, one))
        assert verdict.sufficient_criterion


class TestQuasiStarACriteria:
    def test_symmetric_interval_equality_case(self):
        # E(uw) = u = x^2 - 1 with |E(uw)|^2 = E(|u|^2) E(|w|^2) exactly
        W = as_wce(symmetric_interval_example(25))
        verdict = quasi_star_a_criteria(W)
        assert verdict.sufficient_criterion
        assert verdict.definitional

    def test_constant_one(self):
        space = FiniteMeasureSpace(np.ones(3))
        one = MeasurableFunction.constant(space, 1.0)
        verdict = quasi_star_a_criteria(
            build_wce(space, trivial_algebra(3), one, one)
        )
        assert verdict.sufficient_criterion
        assert verdict.necessary_criterion

    def test_generic_random_instance_fails_with_witness(self):
        # independent u, w inside a block: strict Cauchy-Schwarz
        W = as_wce(random_instance(1, 10, 2))
        verdict = quasi_star_a_criteria(W)
        assert not verdict.sufficient_criterion
        assert verdict.witness is not None


class TestTheoremConsistency:
    def test_sufficient_implies_definitional_on_equality_cases(self):
        for seed in range(15):
            W = as_wce(proportional_instance(seed, 10, 3))
            a = a_class_criterion(W)
            q = quasi_star_a_criteria(W)
            assert a.sufficient_criterion, seed
            assert a.definitional, seed
            assert q.sufficient_criterion, seed
            assert q.definitional, seed

    def test_definitional_implies_necessary_on_random_instances(self):
        for seed in range(25):
            W = as_wce(random_instance(seed, 8, 3))
            a = a_class_criterion(W)
            if a.definitional:
                assert a.necessary_criterion, seed

    def test_generic_instances_fail_sufficient(self):
        # strict conditional Cauchy-Schwarz on any block with independent
        # values makes equality-level criteria fail
        failures = 0
        for seed in range(10):
            W = as_wce(random_instance(seed + 40, 10, 2))
            if not a_class_criterion(W).sufficient_criterion:
                failures += 1
        assert failures == 10


class TestStarANecessaryCriterionDefect:
    """The *-A necessary inequality as transcribed,
    |E(u)|^2 |E(uw)| (E|w|^2 / E|u|^2)^(1/2) chi_S >= (E|u|^2)^(1/2) |E(w)|^2,
    has degree 2 in u on the left and 1 on the right, so rescaling u changes
    its answer. It fails on Cauchy-Schwarz-equal instances that the
    definitional test puts in *-A. Pinned as computed; the README's honesty
    note records it."""

    def test_fails_on_every_proportional_instance(self):
        for seed in range(100):
            verdict = star_a_criteria(as_wce(proportional_instance(seed, 24, 6)))
            assert verdict.definitional, seed
            assert verdict.sufficient_criterion, seed
            assert verdict.necessary_criterion is False, seed

    def test_witness_of_seed_zero(self):
        verdict = star_a_criteria(as_wce(proportional_instance(0, 24, 6)))
        assert verdict.witness == "point 4: margin -0.14213"


class TestNormality:
    def _em_u(self, u_values, blocks, weights=None):
        n = len(u_values)
        space = FiniteMeasureSpace(weights if weights is not None else np.ones(n))
        algebra = SubSigmaAlgebra(blocks, n)
        u = make_function(space, u_values)
        one = MeasurableFunction.constant(space, 1.0)
        return build_wce(space, algebra, u, one)

    def test_block_constant_u_all_true(self):
        report = normality_equivalence(self._em_u([2, 2, 5, 5], ([0, 1], [2, 3])))
        assert report.is_normal
        assert report.is_quasi_star_a
        assert report.u_is_algebra_measurable
        assert report.consistent

    def test_non_measurable_u_all_false(self):
        report = normality_equivalence(self._em_u([2, 0], ([0, 1],)))
        assert not report.is_normal
        assert not report.is_quasi_star_a
        assert not report.u_is_algebra_measurable
        assert report.consistent

    def test_symmetric_interval_all_true(self):
        W = as_wce(symmetric_interval_example(20))
        report = normality_equivalence(W)
        assert report.is_normal and report.is_quasi_star_a
        assert report.u_is_algebra_measurable
        assert report.consistent

    def test_rejects_nonconstant_w(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        algebra = trivial_algebra(2)
        W = build_wce(
            space, algebra, make_function(space, [2, 0]), make_function(space, [1, 3])
        )
        with pytest.raises(ValueError):
            normality_equivalence(W)

    def test_equivalence_on_random_em_u(self):
        for seed in range(20):
            inst = random_instance(seed, 9, 3)
            one = MeasurableFunction.constant(inst.space, 1.0)
            W = build_wce(inst.space, inst.algebra, inst.u, one)
            assert normality_equivalence(W).consistent, seed


class TestCauchySchwarzGap:
    def test_real_equal_uw_gap_zero(self):
        gap = cauchy_schwarz_gap(real_equal_uw_wce())
        np.testing.assert_allclose(gap.values.real, 0.0, atol=1e-12)

    def test_rank_one_gap(self):
        gap = cauchy_schwarz_gap(rank_one_wce())
        np.testing.assert_allclose(gap.values.real, 1.0)

    def test_nonnegative_on_random_instances(self):
        for seed in range(30):
            W = as_wce(random_instance(seed, 12, 4))
            assert cauchy_schwarz_gap(W).values.real.min() >= -1e-9
