import numpy as np
import pytest

from condexp import (
    as_wce,
    cauchy_schwarz_gap,
    conditional_expectation,
    fingerprint,
    is_algebra_measurable,
    is_quasi_star_a_definitional,
    product_space_example,
    proportional_instance,
    quasi_star_a_criteria,
    random_instance,
    symmetric_interval_example,
    to_matrix,
)
from condexp.instance_factory import _random_partition
from condexp.measure_space import MeasurableFunction


def product_moment_errors(n_x, n_y):
    """Max absolute deviation of each discretized moment from its analytic
    value, per column x: E(|u|^2) = 4/(4+x), E(|w|^2) = (4+x)/2 and
    |E(uw)| = 8 sqrt(4+x)/(x+12)."""
    W = as_wce(product_space_example(n_x, n_y))
    xs = (np.arange(n_x) + 0.5) / n_x
    err_u2 = err_w2 = err_uw = 0.0
    for b, block in enumerate(W.algebra.blocks):
        i = block[0]
        x = xs[b]
        err_u2 = max(err_u2, abs(W.e_abs_u2.values[i].real - 4.0 / (4.0 + x)))
        err_w2 = max(err_w2, abs(W.e_abs_w2.values[i].real - (4.0 + x) / 2.0))
        analytic_uw = 8.0 * np.sqrt(4.0 + x) / (x + 12.0)
        err_uw = max(err_uw, abs(abs(W.e_uw.values[i]) - analytic_uw))
    return err_u2, err_w2, err_uw


class TestProductSpaceExample:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            product_space_example(0, 5)
        with pytest.raises(ValueError):
            product_space_example(5, 0)

    def test_total_mass_is_one(self):
        inst = product_space_example(4, 6)
        assert inst.space.weights.sum() == pytest.approx(1.0)

    def test_blocks_are_columns(self):
        inst = product_space_example(3, 4)
        assert len(inst.algebra.blocks) == 3
        assert all(len(b) == 4 for b in inst.algebra.blocks)

    def test_moments_match_analytic_values(self):
        err_u2, err_w2, err_uw = product_moment_errors(8, 200)
        assert err_u2 <= 0.01
        assert err_w2 <= 0.01
        assert err_uw <= 0.02

    def test_w_squared_moment_is_exact(self):
        # |w|^2 = (4+x) y is linear in y, so the midpoint rule is exact
        _, err_w2, _ = product_moment_errors(8, 50)
        assert err_w2 <= 1e-12

    def test_u_squared_moment_converges_at_first_order(self):
        errors = [product_moment_errors(8, ny)[0] for ny in (50, 100, 200)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.5 <= coarse / fine <= 2.5

    def test_uw_moment_error_at_least_halves(self):
        # the integrand y^(1/2 + x/8) has unbounded derivative at y = 0, and
        # the observed decay is faster than first order (ratio around 2.8)
        errors = [product_moment_errors(8, ny)[2] for ny in (50, 100, 200)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 2.0

    def test_u_is_not_algebra_measurable(self):
        inst = product_space_example(4, 10)
        assert not is_algebra_measurable(inst.u, inst.algebra)


class TestSymmetricIntervalExample:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            symmetric_interval_example(0)

    def test_total_mass_is_one(self):
        inst = symmetric_interval_example(25)
        assert inst.space.weights.sum() == pytest.approx(1.0)

    def test_expectation_kills_odd_functions(self):
        inst = symmetric_interval_example(10)
        points = np.concatenate([(np.arange(10) + 0.5) / 10, -(np.arange(10) + 0.5) / 10])
        odd = MeasurableFunction(points**3, inst.space)
        e_odd = conditional_expectation(inst.space, inst.algebra, odd)
        np.testing.assert_allclose(e_odd.values, 0.0, atol=1e-12)

    def test_u_is_algebra_measurable(self):
        inst = symmetric_interval_example(15)
        assert is_algebra_measurable(inst.u, inst.algebra)
        e_u = conditional_expectation(inst.space, inst.algebra, inst.u)
        np.testing.assert_allclose(e_u.values, inst.u.values, atol=1e-12)

    def test_operator_is_quasi_star_a(self):
        W = as_wce(symmetric_interval_example(20))
        assert quasi_star_a_criteria(W).definitional
        assert is_quasi_star_a_definitional(to_matrix(W))


class TestRandomInstance:
    def test_deterministic_per_seed(self):
        a = fingerprint(random_instance(42, 16, 4))
        b = fingerprint(random_instance(42, 16, 4))
        assert a == b

    def test_distinct_seeds_differ(self):
        assert fingerprint(random_instance(0, 12, 3)) != fingerprint(
            random_instance(1, 12, 3)
        )

    def test_golden_fingerprints(self):
        # frozen values guard the generator against silent drift
        assert (
            fingerprint(random_instance(42, 16, 4))
            == "6d1d7f9e012018e4218afe0f9cd60789cfa6454ee64d9dddd153c91bafca313c"
        )
        assert (
            fingerprint(random_instance(7, 10, 3, complex_valued=False))
            == "a003e18e89204afa4b3223185d4dc63ceded87c485e2b8f22a88f2bc949a9c39"
        )

    def test_weights_in_declared_range(self):
        for seed in range(10):
            w = random_instance(seed, 20, 5).space.weights
            assert w.min() >= 0.1 and w.max() <= 2.0

    def test_partition_is_surjective(self):
        for seed in range(10):
            inst = random_instance(seed, 12, 5)
            assert len(inst.algebra.blocks) == 5
            assert all(len(b) >= 1 for b in inst.algebra.blocks)

    def test_singleton_blocks_make_expectation_identity(self):
        inst = random_instance(3, 8, 8)
        f = inst.u
        ef = conditional_expectation(inst.space, inst.algebra, f)
        np.testing.assert_allclose(ef.values, f.values)

    def test_real_flag(self):
        inst = random_instance(5, 10, 3, complex_valued=False)
        assert np.abs(inst.u.values.imag).max() == 0
        assert np.abs(inst.w.values.imag).max() == 0

    def test_rejects_bad_block_count(self):
        with pytest.raises(ValueError):
            random_instance(0, 4, 5)
        with pytest.raises(ValueError):
            random_instance(0, 4, 0)


def _nonzero_partition(rng, n_points, n_blocks):
    """The reference for ``_random_partition``: the same labels, each block
    read off them by one np.nonzero per block."""
    labels = np.concatenate(
        [np.arange(n_blocks), rng.integers(0, n_blocks, size=n_points - n_blocks)]
    )
    labels = labels[rng.permutation(n_points)]
    return tuple(np.nonzero(labels == k)[0] for k in range(n_blocks))


@pytest.mark.parametrize(
    "n_points, n_blocks",
    [(1, 1), (2, 1), (2, 2), (7, 1), (7, 3), (7, 7), (64, 8), (500, 37), (500, 500)],
)
def test_random_partition_matches_one_nonzero_per_block(n_points, n_blocks):
    """One stable argsort and one split give each block's index array, in
    increasing order, as one np.nonzero per block did, and leave the
    generator in the same state."""
    for seed in range(3):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _random_partition(rngs[0], n_points, n_blocks)
        want = _nonzero_partition(rngs[1], n_points, n_blocks)
        assert len(got) == len(want) == n_blocks
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert rngs[0].random() == rngs[1].random()


class TestProportionalInstance:
    def test_cauchy_schwarz_equality(self):
        for seed in range(10):
            W = as_wce(proportional_instance(seed, 12, 4))
            gap = cauchy_schwarz_gap(W)
            assert np.abs(gap.values).max() <= 1e-10, seed

    def test_quasi_star_a_definitional(self):
        for seed in range(5):
            W = as_wce(proportional_instance(seed, 10, 3))
            assert is_quasi_star_a_definitional(to_matrix(W)), seed

    def test_deterministic(self):
        assert fingerprint(proportional_instance(1, 9, 3)) == fingerprint(
            proportional_instance(1, 9, 3)
        )

    def test_weights_in_declared_range(self):
        w = proportional_instance(2, 15, 4).space.weights
        assert w.min() >= 0.1 and w.max() <= 2.0


class TestFingerprint:
    def test_sensitive_to_values(self):
        a = random_instance(0, 8, 2)
        b = a._replace(u=MeasurableFunction(a.u.values + 1.0, a.space))
        assert fingerprint(a) != fingerprint(b)

    def test_sensitive_to_partition(self):
        assert fingerprint(random_instance(0, 8, 2)) != fingerprint(
            random_instance(0, 8, 3)
        )
