import dataclasses

import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    WCEOperator,
    adjoint,
    adjoint_wce,
    aluthge_closed_form,
    aluthge_numeric,
    as_wce,
    build_wce,
    compose,
    expectation_operator,
    fractional_power,
    kernel_projection,
    norm_closed_form,
    operator_norm,
    polar_isometry_closed_form,
    polar_isometry_numeric,
    proportional_instance,
    random_instance,
    singular_values,
    symmetric_interval_example,
    to_matrix,
    tstar_t_power,
)

from condexp import wce_operator as wce_module
from condexp.operator_algebra import gram_power, subtract

from conftest import discrete_algebra, make_function, trivial_algebra

POWERS = (0.5, 1.0, 2.0, 3.5)


def rank_one_instance():
    """weights (1,1), one block, u=(2,0), w=(1,1): T = [[1,0],[1,0]]."""
    space = FiniteMeasureSpace([1.0, 1.0])
    algebra = trivial_algebra(2)
    u = make_function(space, [2, 0])
    w = make_function(space, [1, 1])
    return build_wce(space, algebra, u, w)


def ones_instance(n=4, blocks=None):
    space = FiniteMeasureSpace(np.ones(n))
    algebra = (
        SubSigmaAlgebra(blocks, n) if blocks else trivial_algebra(n)
    )
    one = MeasurableFunction.constant(space, 1.0)
    return build_wce(space, algebra, one, one)


def as_operator(closed_form, W, *args):
    """The operator M_a E M_b of the pair (a, b) the closed form returns."""
    return expectation_operator(W.space, W.algebra, *closed_form(W, *args))


def max_diff(A, B):
    return np.abs(A.entries - B.entries).max()


def assert_partial_isometry_with_kernel_condition(W):
    """U U* U = U and N(U) = N(|T|), measured as verify measures them."""
    U = as_operator(polar_isometry_closed_form, W)
    residual = operator_norm(subtract(compose(compose(U, adjoint(U)), U), U))
    assert residual <= 1e-8 * (1.0 + operator_norm(U))
    modulus = as_operator(tstar_t_power, W, 0.5)
    assert operator_norm(subtract(kernel_projection(U), kernel_projection(modulus))) <= 1e-8


class TestBuild:
    def test_constant_one_moments(self):
        W = ones_instance()
        for moment in (W.e_uw, W.e_abs_u2, W.e_abs_w2):
            np.testing.assert_allclose(moment.values, 1.0)
        n = W.space.point_count
        for mask in (W.support_u2, W.support_w2, W.support_eu):
            assert mask.dtype == bool and mask.shape == (n,)
            assert mask.all() and not mask.flags.writeable

    def test_singleton_blocks_pointwise_products(self):
        space = FiniteMeasureSpace([1.0, 2.0, 0.5])
        algebra = discrete_algebra(3)
        u = make_function(space, [1 + 1j, 2, -1])
        w = make_function(space, [0.5, 1j, 3])
        W = build_wce(space, algebra, u, w)
        np.testing.assert_allclose(W.e_uw.values, u.values * w.values)
        np.testing.assert_allclose(W.e_abs_u2.values, np.abs(u.values) ** 2)

    def test_rank_one_moments(self):
        W = rank_one_instance()
        np.testing.assert_allclose(W.e_uw.values, 1.0)
        np.testing.assert_allclose(W.e_abs_u2.values, 2.0)
        np.testing.assert_allclose(W.e_abs_w2.values, 1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_invalid_support_tolerance(self, tol):
        # a NaN tolerance used to give empty supports and a zero polar isometry
        with pytest.raises(ValueError, match="finite"):
            build_wce(*random_instance(0, 8, 2), support_tol=tol)

    def test_dimension_mismatch(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        other = FiniteMeasureSpace([1.0])
        algebra = trivial_algebra(2)
        with pytest.raises(ValueError):
            build_wce(space, algebra, make_function(other, [1]), make_function(other, [1]))

    def test_moments_match_recomputation(self):
        inst = random_instance(3, 10, 3)
        W = as_wce(inst)
        e = expectation_operator(inst.space, inst.algebra).entries
        np.testing.assert_allclose(W.e_uw.values, e @ (inst.u.values * inst.w.values))


class TestToMatrix:
    def test_rank_one(self):
        T = to_matrix(rank_one_instance())
        np.testing.assert_allclose(T.entries, [[1, 0], [1, 0]])

    def test_ones_gives_projection(self):
        W = ones_instance()
        e = expectation_operator(W.space, W.algebra)
        np.testing.assert_allclose(to_matrix(W).entries, e.entries)

    def test_singleton_blocks_diagonal(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        algebra = discrete_algebra(2)
        u = make_function(space, [2, 3])
        w = make_function(space, [5, -1])
        T = to_matrix(build_wce(space, algebra, u, w))
        np.testing.assert_allclose(T.entries, np.diag([10, -3]))

    def test_rank_bounded_by_block_count(self):
        inst = random_instance(9, 12, 3)
        s = singular_values(to_matrix(as_wce(inst)))
        assert np.sum(s > 1e-10 * s[0]) <= 3


class TestNorm:
    def test_rank_one_norm(self):
        W = rank_one_instance()
        assert norm_closed_form(W) == pytest.approx(np.sqrt(2))
        assert operator_norm(to_matrix(W)) == pytest.approx(np.sqrt(2))

    def test_projection_norm(self):
        assert norm_closed_form(ones_instance()) == pytest.approx(1.0)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(20):
            W = as_wce(random_instance(seed, 4 + seed % 10, 1 + seed % 4))
            closed = norm_closed_form(W)
            numeric = operator_norm(to_matrix(W))
            assert abs(closed - numeric) <= 1e-8 * (1 + numeric)


class TestPowers:
    def test_p1_matches_products(self):
        for seed in range(5):
            W = as_wce(random_instance(seed, 8, 3))
            T = to_matrix(W)
            assert max_diff(as_operator(tstar_t_power, W, 1), compose(adjoint(T), T)) <= 1e-9
            tts = as_operator(tstar_t_power, adjoint_wce(W), 1)
            assert max_diff(tts, compose(T, adjoint(T))) <= 1e-9

    def test_p_half_matches_modulus(self):
        for seed in range(5):
            W = as_wce(random_instance(seed + 30, 8, 3))
            T = to_matrix(W)
            assert max_diff(as_operator(tstar_t_power, W, 0.5), gram_power(T, 0.5)) <= 1e-8
            tts_half = as_operator(tstar_t_power, adjoint_wce(W), 0.5)
            assert max_diff(tts_half, gram_power(adjoint(T), 0.5)) <= 1e-8

    def test_singleton_blocks_p2_diagonal(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        algebra = discrete_algebra(2)
        u = make_function(space, [2, 1])
        w = make_function(space, [1, 3])
        W = build_wce(space, algebra, u, w)
        # E = I: (T*T)^2 = diag(|u w|^4)
        expected = np.diag(np.abs(u.values * w.values) ** 4)
        square = as_operator(tstar_t_power, W, 2)
        np.testing.assert_allclose(square.entries, expected, atol=1e-12)

    def test_all_powers_match_spectral_calculus(self):
        for seed in range(10):
            W = as_wce(random_instance(seed + 60, 6 + seed, 1 + seed % 5))
            T = to_matrix(W)
            tst = compose(adjoint(T), T)
            tts = compose(T, adjoint(T))
            for p in POWERS:
                assert max_diff(as_operator(tstar_t_power, W, p), fractional_power(tst, p)) <= 1e-8
                tts_p = as_operator(tstar_t_power, adjoint_wce(W), p)
                assert max_diff(tts_p, fractional_power(tts, p)) <= 1e-8

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            tstar_t_power(rank_one_instance(), 0.0)


class TestPolar:
    def test_projection_case(self):
        W = ones_instance()
        e = expectation_operator(W.space, W.algebra)
        parts = (as_operator(polar_isometry_closed_form, W), as_operator(tstar_t_power, W, 0.5))
        for part in parts:
            np.testing.assert_allclose(part.entries, e.entries, atol=1e-12)

    def test_rank_one_case(self):
        W = rank_one_instance()
        modulus = as_operator(tstar_t_power, W, 0.5)
        np.testing.assert_allclose(modulus.entries, [[np.sqrt(2), 0], [0, 0]], atol=1e-12)
        T = to_matrix(W)
        U = as_operator(polar_isometry_closed_form, W)
        assert max_diff(U, polar_isometry_numeric(T)) <= 1e-10
        assert max_diff(modulus, gram_power(T, 0.5)) <= 1e-10

    def test_random_instances_match_oracle(self):
        for seed in range(10):
            W = as_wce(random_instance(seed, 16, 4))
            T = to_matrix(W)
            U = as_operator(polar_isometry_closed_form, W)
            modulus = as_operator(tstar_t_power, W, 0.5)
            assert max_diff(U, polar_isometry_numeric(T)) <= 1e-8
            assert max_diff(modulus, gram_power(T, 0.5)) <= 1e-8
            recon = compose(U, modulus)
            assert operator_norm(recon) == pytest.approx(operator_norm(T), abs=1e-9)
            assert max_diff(recon, T) <= 1e-8
            assert_partial_isometry_with_kernel_condition(W)

    def test_vanishing_moment_blocks(self):
        # zero u on one block, zero w on another: U stays a partial isometry
        # with the kernel condition intact
        inst = random_instance(77, 12, 4)
        u_vals = inst.u.values.copy()
        w_vals = inst.w.values.copy()
        u_vals[list(inst.algebra.blocks[0])] = 0
        w_vals[list(inst.algebra.blocks[1])] = 0
        W = build_wce(
            inst.space,
            inst.algebra,
            MeasurableFunction(u_vals, inst.space),
            MeasurableFunction(w_vals, inst.space),
        )
        T = to_matrix(W)
        U = as_operator(polar_isometry_closed_form, W)
        recon = compose(U, as_operator(tstar_t_power, W, 0.5))
        assert max_diff(recon, T) <= 1e-8
        assert_partial_isometry_with_kernel_condition(W)


class TestAluthge:
    def test_projection_is_fixed(self):
        W = ones_instance()
        e = expectation_operator(W.space, W.algebra)
        alu = as_operator(aluthge_closed_form, W)
        np.testing.assert_allclose(alu.entries, e.entries, atol=1e-12)

    def test_symmetric_interval_collapse(self):
        # u = x^2 - 1 is algebra-measurable and w = 1, so the transform
        # reproduces T itself
        W = as_wce(symmetric_interval_example(16))
        assert max_diff(as_operator(aluthge_closed_form, W), to_matrix(W)) <= 1e-10

    def test_matches_oracle(self):
        for seed in range(10):
            W = as_wce(random_instance(seed + 200, 10, 3))
            alu = as_operator(aluthge_closed_form, W)
            assert max_diff(alu, aluthge_numeric(to_matrix(W))) <= 1e-8

    def test_closed_form_is_aluthge_fixed_point(self):
        for seed in range(5):
            W = as_wce(random_instance(seed + 300, 10, 3))
            once = as_operator(aluthge_closed_form, W)
            assert max_diff(aluthge_numeric(once), once) <= 1e-8


class TestAdjointParts:
    """The polar factors and Aluthge transform of T*: the T-side closed forms
    of adjoint_wce(W), with |T*| = tstar_t_power(adjoint_wce(W), 0.5)."""

    def test_projection_case(self):
        W = ones_instance()
        e = expectation_operator(W.space, W.algebra)
        V = adjoint_wce(W)
        parts = (
            as_operator(tstar_t_power, V, 0.5),
            as_operator(polar_isometry_closed_form, V),
            as_operator(aluthge_closed_form, V),
        )
        for part in parts:
            np.testing.assert_allclose(part.entries, e.entries, atol=1e-12)

    def test_isometry_is_adjoint_of_isometry(self):
        for seed in range(5):
            W = as_wce(random_instance(seed + 400, 9, 3))
            adj_isometry = as_operator(polar_isometry_closed_form, adjoint_wce(W))
            isometry = as_operator(polar_isometry_closed_form, W)
            assert max_diff(adj_isometry, adjoint(isometry)) <= 1e-10

    def test_modulus_matches_oracle(self):
        for seed in range(5):
            W = as_wce(random_instance(seed + 500, 9, 3))
            T = to_matrix(W)
            V = adjoint_wce(W)
            modulus = as_operator(tstar_t_power, V, 0.5)
            assert max_diff(modulus, gram_power(adjoint(T), 0.5)) <= 1e-8
            U = as_operator(polar_isometry_closed_form, V)
            assert max_diff(U, polar_isometry_numeric(adjoint(T))) <= 1e-8
            alu = as_operator(aluthge_closed_form, V)
            assert max_diff(alu, aluthge_numeric(adjoint(T))) <= 1e-8


class TestAdjointWCE:
    def test_real_data_swaps_u_and_w(self):
        space = FiniteMeasureSpace([1.0, 2.0, 1.0])
        algebra = SubSigmaAlgebra(([0, 1], [2]), 3)
        u = make_function(space, [1, 2, 3])
        w = make_function(space, [4, 5, 6])
        W = build_wce(space, algebra, u, w)
        A = adjoint_wce(W)
        np.testing.assert_allclose(A.u.values, w.values)
        np.testing.assert_allclose(A.w.values, u.values)

    def test_double_adjoint_restores_moments(self):
        W = as_wce(random_instance(11, 8, 2))
        back = adjoint_wce(adjoint_wce(W))
        np.testing.assert_allclose(back.e_uw.values, W.e_uw.values, atol=1e-14)
        np.testing.assert_allclose(back.e_abs_u2.values, W.e_abs_u2.values, atol=1e-14)

    def test_build_takes_one_set_of_atom_shares(self, monkeypatch):
        """build_wce takes its five moments in one ``_conditional_means``
        call, which sums the masses over the atoms once: one set of shares
        mu_i / mu(B) for all five."""
        from condexp import measure_space

        inst = random_instance(4, 30, 5)
        calls, masses = [], []

        def means(space, algebra, *values, _original=wce_module._conditional_means):
            calls.append(len(values))
            return _original(space, algebra, *values)

        def sums(algebra, values, _original=measure_space._atom_sums):
            masses.append(values is inst.space.weights)
            return _original(algebra, values)

        monkeypatch.setattr(wce_module, "_conditional_means", means)
        monkeypatch.setattr(measure_space, "_atom_sums", sums)
        build_wce(inst.space, inst.algebra, inst.u, inst.w)
        assert calls == [5]
        assert masses == [True] + [False] * 5

    def test_built_once_per_operator(self, monkeypatch):
        W = as_wce(random_instance(13, 12, 3))
        rebuilt = build_wce(W.space, W.algebra, W.w.conj(), W.u.conj(), W.support_tol)
        calls = []

        def probe(space, algebra, *values, _original=wce_module._conditional_means):
            calls.append(len(values))
            return _original(space, algebra, *values)

        monkeypatch.setattr(wce_module, "_conditional_means", probe)
        assert adjoint_wce(W) is adjoint_wce(W)
        for p in POWERS:
            for cached, fresh in zip(
                tstar_t_power(adjoint_wce(W), p), tstar_t_power(rebuilt, p), strict=True
            ):
                np.testing.assert_array_equal(cached, fresh)
        polar_isometry_closed_form(adjoint_wce(W))
        aluthge_closed_form(adjoint_wce(W))
        assert calls == [1]  # E(u'w') alone: the other moments are W's

    @pytest.mark.parametrize(
        "instance",
        [random_instance(s, 30, 1 + s % 7) for s in range(20)]
        + [random_instance(s, 30, 6, complex_valued=False) for s in range(5)]
        + [proportional_instance(s, 30, 5) for s in range(5)]
        + [random_instance(7, 9, 9), symmetric_interval_example(6)],
    )
    def test_every_field_is_a_rebuild_to_the_bit(self, instance):
        """The moments and supports adjoint_wce takes from W equal those of
        build_wce on (conj(w), conj(u)), every field to the bit."""
        W = as_wce(instance)
        rebuilt = build_wce(W.space, W.algebra, W.w.conj(), W.u.conj(), W.support_tol)
        V = adjoint_wce(W)
        for field in dataclasses.fields(WCEOperator):
            cached, fresh = getattr(V, field.name), getattr(rebuilt, field.name)
            if isinstance(fresh, MeasurableFunction):
                cached, fresh = cached.values, fresh.values
            if isinstance(fresh, np.ndarray):
                np.testing.assert_array_equal(cached, fresh, strict=True, err_msg=field.name)
            else:
                assert cached == fresh, field.name

    def test_matrix_identity(self):
        for seed in range(5):
            W = as_wce(random_instance(seed + 600, 8, 3))
            lhs = to_matrix(adjoint_wce(W))
            rhs = adjoint(to_matrix(W))
            assert max_diff(lhs, rhs) <= 1e-12
