import gc
import logging
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    SubSigmaAlgebra,
    WeightedOperator,
    adjoint,
    aluthge_numeric,
    apply,
    as_wce,
    build_wce,
    compose,
    eigenvalues,
    expectation_operator,
    fractional_power,
    is_hermitian,
    is_normal,
    joint_point_spectrum,
    kernel_projection,
    loewner_geq,
    operator_norm,
    polar_isometry_numeric,
    random_instance,
    singular_values,
    to_matrix,
    weighted_inner,
)
from condexp import operator_algebra
from condexp.measure_space import cluster_values
from condexp.operator_algebra import (
    _Lines,
    _factors,
    _extreme_values,
    _from_lines,
    _joint_cores,
    _segments,
    _std_blocks,
    core_distances,
    expectation_adjoint,
    expectation_coimage,
    expectation_norms,
    expectation_product,
    gram_power,
    subtract,
)

from condexp.verification import (
    Tolerances,
    _aluthge_comparisons,
    _polar_comparisons,
    _power_comparisons,
    verify_instance,
)

from conftest import (
    block_factors,
    discrete_algebra,
    make_function,
    multiset_close,
    trivial_algebra,
)


def flat_space(n):
    return FiniteMeasureSpace(np.ones(n))


def random_operator(seed, n=6):
    rng = np.random.default_rng(seed)
    space = FiniteMeasureSpace(rng.uniform(0.2, 2.0, n))
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return WeightedOperator(entries, space)


def random_psd(seed, n=6, space=None):
    if space is None:
        space = random_operator(seed, n).space
    rng = np.random.default_rng(seed + 1000)
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    T = WeightedOperator(entries, space)
    return compose(adjoint(T), T)


RANK_ONE = [[1, 0], [1, 0]]  # f -> (f_0, f_0); eigenvalues {0, 1}


class TestApplyCompose:
    def test_identity(self):
        space = flat_space(3)
        f = make_function(space, [1, 2j, -1])
        out = apply(WeightedOperator(np.eye(3), space), f)
        np.testing.assert_allclose(out.values, f.values)

    def test_zero(self):
        space = flat_space(2)
        f = make_function(space, [5, 7])
        assert np.all(apply(WeightedOperator(np.zeros((2, 2)), space), f).values == 0)

    def test_row_evaluation(self):
        space = flat_space(2)
        T = WeightedOperator(RANK_ONE, space)
        out = apply(T, make_function(space, [2, 5]))
        np.testing.assert_allclose(out.values, [2, 2])

    def test_compose_identity(self):
        T = random_operator(0)
        out = compose(WeightedOperator(np.eye(6), T.space), T)
        np.testing.assert_allclose(out.entries, T.entries)

    def test_compose_zero(self):
        T = random_operator(1)
        out = compose(T, WeightedOperator(np.zeros((6, 6)), T.space))
        assert np.all(out.entries == 0)

    def test_compose_idempotent(self):
        space = flat_space(2)
        T = WeightedOperator(RANK_ONE, space)
        np.testing.assert_allclose(compose(T, T).entries, RANK_ONE)

    def test_dimension_mismatch(self):
        a = WeightedOperator(np.eye(2), flat_space(2))
        b = WeightedOperator(np.eye(3), flat_space(3))
        with pytest.raises(ValueError):
            compose(a, b)


class TestAdjoint:
    def test_multiplication_operator(self):
        space = FiniteMeasureSpace([1.0, 3.0])
        w = make_function(space, [2 + 1j, -1j])
        adj = adjoint(expectation_operator(space, discrete_algebra(2), w.values))
        np.testing.assert_allclose(adj.entries, np.diag(np.conj(w.values)))

    def test_expectation_is_self_adjoint(self):
        space = FiniteMeasureSpace([1.0, 2.0, 0.5, 0.5])
        algebra = SubSigmaAlgebra(([0, 2], [1, 3]), 4)
        e = expectation_operator(space, algebra)
        for i in range(4):
            for j in range(4):
                f = make_function(space, np.eye(4)[i])
                g = make_function(space, np.eye(4)[j])
                assert weighted_inner(apply(e, f), g) == pytest.approx(
                    weighted_inner(f, apply(e, g))
                )

    def test_involution(self):
        T = random_operator(3)
        np.testing.assert_allclose(adjoint(adjoint(T)).entries, T.entries)

    def test_defining_identity(self):
        T = random_operator(4)
        rng = np.random.default_rng(11)
        f = make_function(T.space, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        g = make_function(T.space, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert weighted_inner(apply(T, f), g) == pytest.approx(
            weighted_inner(f, apply(adjoint(T), g))
        )


class TestEigenvalues:
    def test_diagonal(self):
        space = flat_space(2)
        evals = eigenvalues(WeightedOperator(np.diag([1.0, 2.0]), space))
        assert multiset_close(evals, [1, 2], 1e-12)

    def test_rank_one_projection_like(self):
        evals = eigenvalues(WeightedOperator(RANK_ONE, flat_space(2)))
        assert multiset_close(evals, [0, 1], 1e-12)

    def test_nilpotent(self):
        evals = eigenvalues(WeightedOperator([[0, 1], [0, 0]], flat_space(2)))
        assert np.abs(evals).max() < 1e-7

    def test_nilpotent_rank_one_atom_gives_exact_zeros(self):
        """E(uw) = 0 on the first atom with u, w != 0, so its rank-one block
        is nilpotent. Dense eigvals spreads its zeros to about
        sqrt(eps) ||B||; the SVD core gives |B| - 1 exact zeros and one
        eigenvalue of rounding size."""
        space = flat_space(6)
        algebra = SubSigmaAlgebra(([0, 1, 2, 3], [4, 5]), 6)
        u = make_function(space, [1, 1, 1, 1, 2, 1j])
        w = make_function(space, [1, -1, 2, -2, 1, 3])
        T = to_matrix(build_wce(space, algebra, u, w))
        norm = operator_norm(T)
        evals = eigenvalues(T)
        assert np.count_nonzero(evals[:4]) <= 1
        assert np.abs(evals[:4]).max() <= 1e-15 * norm
        assert multiset_close(evals[4:], [1 + 1.5j, 0], 1e-14)
        dense = np.linalg.eigvals(next(_std_blocks(T))[1])
        assert np.abs(dense).max() > 1e-12 * norm

    @pytest.mark.parametrize(
        "entries",
        [
            np.diag([1.0, 2.0, 3.0]),
            np.eye(3, k=1) + 2 * np.eye(3),
            np.triu(np.arange(1, 10).reshape(3, 3) * (1 - 0.5j)),
        ],
        ids=["diagonal", "defective", "non-normal"],
    )
    def test_full_rank_keeps_dense_eigvals(self, entries):
        T = WeightedOperator(entries, FiniteMeasureSpace([0.5, 1.0, 2.0]))
        dense = np.linalg.eigvals(next(_std_blocks(T))[1])
        np.testing.assert_array_equal(eigenvalues(T), dense)


class TestSingularValues:
    def test_identity(self):
        s = singular_values(WeightedOperator(np.eye(4), flat_space(4)))
        np.testing.assert_allclose(s, np.ones(4))

    def test_rank_one(self):
        s = singular_values(WeightedOperator(RANK_ONE, flat_space(2)))
        np.testing.assert_allclose(s, [np.sqrt(2), 0], atol=1e-14)

    def test_zero(self):
        s = singular_values(WeightedOperator(np.zeros((3, 3)), flat_space(3)))
        np.testing.assert_allclose(s, 0)

    def test_invariant_under_adjoint(self):
        for seed in range(5):
            T = random_operator(seed)
            np.testing.assert_allclose(
                singular_values(T), singular_values(adjoint(T)), atol=1e-10
            )


class TestLoewner:
    def test_identity_geq_zero(self):
        space = flat_space(2)
        zero = WeightedOperator(np.zeros((2, 2)), space)
        assert loewner_geq(WeightedOperator(np.eye(2), space), zero)

    def test_indefinite_difference(self):
        space = flat_space(2)
        a = WeightedOperator(np.diag([1.0, 2.0]), space)
        b = WeightedOperator(np.diag([0.0, 3.0]), space)
        assert not loewner_geq(a, b)

    def test_reflexive(self):
        for seed in range(5):
            A = random_psd(seed)
            assert loewner_geq(A, A)

    def test_antisymmetric(self):
        for seed in range(5):
            A = random_psd(seed)
            B = random_psd(seed + 100, space=A.space)
            if loewner_geq(A, B, 1e-10) and loewner_geq(B, A, 1e-10):
                diff = WeightedOperator(A.entries - B.entries, A.space)
                assert operator_norm(diff) <= 1e-8 * (1 + operator_norm(A))
            # perturbing A within tolerance keeps both directions true
            eps = 1e-12
            A_eps = WeightedOperator(A.entries * (1 + eps), A.space)
            assert loewner_geq(A, A_eps, 1e-9) and loewner_geq(A_eps, A, 1e-9)

    def test_transitive_on_constructed_chain(self):
        for seed in range(5):
            A = random_psd(seed)
            B = WeightedOperator(
                A.entries + random_psd(seed + 50, space=A.space).entries, A.space
            )
            C = WeightedOperator(
                B.entries + random_psd(seed + 90, space=A.space).entries, B.space
            )
            assert loewner_geq(C, B) and loewner_geq(B, A)
            assert loewner_geq(C, A)

    def test_rejects_non_hermitian_difference(self):
        space = flat_space(2)
        a = WeightedOperator([[0, 1], [0, 0]], space)
        assert not loewner_geq(a, WeightedOperator(np.zeros((2, 2)), space))


class TestFractionalPower:
    def test_square_root_of_diagonal(self):
        space = flat_space(2)
        A = WeightedOperator(np.diag([4.0, 9.0]), space)
        np.testing.assert_allclose(
            fractional_power(A, 0.5).entries, np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_power_one_is_identity_map(self):
        A = random_psd(7)
        np.testing.assert_allclose(fractional_power(A, 1.0).entries, A.entries, atol=1e-10)

    def test_power_two_is_square(self):
        A = random_psd(8)
        np.testing.assert_allclose(
            fractional_power(A, 2.0).entries, compose(A, A).entries, atol=1e-9
        )

    def test_power_addition(self):
        for seed in range(5):
            A = random_psd(seed)
            for p, q in [(0.5, 0.5), (1.5, 2.0), (0.25, 0.75)]:
                lhs = compose(fractional_power(A, p), fractional_power(A, q))
                rhs = fractional_power(A, p + q)
                assert np.abs(lhs.entries - rhs.entries).max() <= 1e-8

    def test_rejects_non_psd(self):
        space = flat_space(2)
        A = WeightedOperator(np.diag([1.0, -1.0]), space)
        with pytest.raises(ValueError):
            fractional_power(A, 0.5)

    def test_rejects_non_hermitian(self):
        space = flat_space(2)
        A = WeightedOperator([[0, 1], [0, 0]], space)
        with pytest.raises(ValueError):
            fractional_power(A, 0.5)


class TestModulusPolar:
    def test_positive_diagonal(self):
        space = flat_space(2)
        D = WeightedOperator(np.diag([2.0, 3.0]), space)
        np.testing.assert_allclose(gram_power(D, 0.5).entries, D.entries, atol=1e-12)

    def test_lower_shift(self):
        space = flat_space(2)
        T = WeightedOperator([[0, 0], [1, 0]], space)
        np.testing.assert_allclose(
            gram_power(T, 0.5).entries, np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_unitary_has_identity_modulus(self):
        space = flat_space(2)
        theta = 0.7
        U = WeightedOperator(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], space
        )
        np.testing.assert_allclose(gram_power(U, 0.5).entries, np.eye(2), atol=1e-12)

    def test_polar_of_positive_diagonal(self):
        space = flat_space(2)
        T = WeightedOperator(np.diag([2.0, 3.0]), space)
        np.testing.assert_allclose(polar_isometry_numeric(T).entries, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(gram_power(T, 0.5).entries, T.entries, atol=1e-12)

    def test_polar_of_rank_one(self):
        space = flat_space(2)
        T = WeightedOperator(RANK_ONE, space)
        np.testing.assert_allclose(
            gram_power(T, 0.5).entries, np.diag([np.sqrt(2), 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            polar_isometry_numeric(T).entries,
            [[1 / np.sqrt(2), 0], [1 / np.sqrt(2), 0]],
            atol=1e-12,
        )

    def test_polar_of_zero(self):
        space = flat_space(3)
        zero = WeightedOperator(np.zeros((3, 3)), space)
        assert np.all(polar_isometry_numeric(zero).entries == 0)
        assert np.all(gram_power(zero, 0.5).entries == 0)

    def test_reconstruction_and_kernel_condition(self):
        for seed in range(8):
            T = random_operator(seed)
            U, modulus = polar_isometry_numeric(T), gram_power(T, 0.5)
            recon = compose(U, modulus)
            err = operator_norm(WeightedOperator(recon.entries - T.entries, T.space))
            assert err <= 1e-8 * (1 + operator_norm(T))
            ku = kernel_projection(U)
            km = kernel_projection(modulus)
            assert operator_norm(subtract(ku, km)) <= 1e-8


class TestAluthge:
    def test_fixes_normal_diagonal(self):
        space = flat_space(3)
        T = WeightedOperator(np.diag([1.0, -2.0, 3.0]), space)
        np.testing.assert_allclose(aluthge_numeric(T).entries, T.entries, atol=1e-10)

    def test_annihilates_nilpotent(self):
        space = flat_space(2)
        T = WeightedOperator([[0, 1], [0, 0]], space)
        assert np.abs(aluthge_numeric(T).entries).max() <= 1e-12

    def test_zero(self):
        space = flat_space(2)
        out = aluthge_numeric(WeightedOperator(np.zeros((2, 2)), space))
        assert np.all(out.entries == 0)

    def test_preserves_eigenvalue_multiset(self):
        for seed in range(8):
            T = random_operator(seed)
            assert multiset_close(
                eigenvalues(T),
                eigenvalues(aluthge_numeric(T)),
                1e-6 * (1 + operator_norm(T)),
            )


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        projection = kernel_projection(WeightedOperator(np.eye(3), flat_space(3)))
        np.testing.assert_allclose(projection.entries, 0.0, atol=1e-12)

    def test_zero_has_full_kernel(self):
        projection = kernel_projection(WeightedOperator(np.zeros((3, 3)), flat_space(3)))
        np.testing.assert_allclose(projection.entries, np.eye(3), atol=1e-12)

    def test_rank_one(self):
        # the kernel is span{(0, 1)}
        projection = kernel_projection(WeightedOperator(RANK_ONE, flat_space(2)))
        np.testing.assert_allclose(projection.entries, np.diag([0.0, 1.0]), atol=1e-12)


#: three atoms of five points with random masses, for the pair tests
PAIR_SPACE = FiniteMeasureSpace(np.random.default_rng(21).uniform(0.1, 2.0, 15))
PAIR_ALGEBRA = SubSigmaAlgebra(tuple(range(k, k + 5) for k in (0, 5, 10)), 15)
#: the angle of the near-coincident lines: sqrt(1 - |c|^2) has no digits left
NEAR_ANGLE = 1e-9


def _complex_vector(rng, n=15):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _turned(v, rng, angle):
    """v turned by ``angle`` on each atom, in the weighted inner product: cos
    v + sin r, with r orthogonal to v on the atom and of the same norm."""
    mu, out = PAIR_SPACE.weights, np.empty_like(v)
    for b in PAIR_ALGEBRA.blocks:
        x = _complex_vector(rng, b.size)
        x -= v[b] * np.sum(mu[b] * np.conj(v[b]) * x) / np.sum(mu[b] * np.abs(v[b]) ** 2)
        x *= np.sqrt(np.sum(mu[b] * np.abs(v[b]) ** 2) / np.sum(mu[b] * np.abs(x) ** 2))
        out[b] = np.cos(angle) * v[b] + np.sin(angle) * x
    return out


def _adversarial_pairs():
    """(name, first, second) pairs of M_a E M_b: lines that coincide, point
    opposite, differ by phases or nearly coincide, zero atoms and zero
    operands, and two unrelated operators."""
    rng = np.random.default_rng(5)
    a, b, c, d = (_complex_vector(rng) for _ in range(4))
    zero = np.zeros(15, dtype=complex)
    a_gap, d_gap = a.copy(), d.copy()
    a_gap[5:10] = 0.0
    d_gap[10:] = 0.0
    yield "parallel", (a, b), (2.5 * a, b)
    yield "antiparallel", (a, b), (-a, b)
    yield "phases", (a, b), (np.exp(0.7j) * a, np.exp(-0.3j) * b)
    yield "real_signs", (a.real, b.real), (-0.5 * a.real, b.real)
    yield "zero_atoms", (a_gap, b), (c, d_gap)
    yield "zero_operand", (a, b), (zero, zero)
    yield "zero_first", (zero, b), (a, b)
    yield "near_left", (a, b), (_turned(a, rng, NEAR_ANGLE), b)
    yield "near_both", (a, b), (1.5 * _turned(a, rng, NEAR_ANGLE), _turned(b, rng, NEAR_ANGLE))
    yield "generic", (a, b), (c, d)


def _pair_operator(pair):
    return expectation_operator(PAIR_SPACE, PAIR_ALGEBRA, *pair)


def core_distance(space, algebra, first, second):
    """||first - second||, as one comparison of ``core_distances``."""
    (margin,) = core_distances(space, algebra, [(first, second)])
    return margin


class TestExpectationPairs:
    """The pair rules of M_a E M_b against the operators they stand for."""

    @pytest.mark.parametrize("name, first, second", list(_adversarial_pairs()))
    def test_distance_is_the_dense_norm_of_the_difference(self, name, first, second):
        A, B = _pair_operator(first), _pair_operator(second)
        scale = max(operator_norm(A), operator_norm(B))
        got = core_distance(PAIR_SPACE, PAIR_ALGEBRA, first, second)
        assert abs(got - operator_norm(subtract(A, B))) <= 1e-14 * scale
        assert core_distance(PAIR_SPACE, PAIR_ALGEBRA, first, first) <= 1e-14 * scale

    def test_near_coincident_lines_defeat_the_cosine_form(self):
        """At the angle 1e-9, sqrt(1 - |c|^2) keeps no digit of the sine:
        the near cases above need the Gram-Schmidt residual."""
        rng = np.random.default_rng(0)
        v = _complex_vector(rng)
        turned = _turned(v, rng, NEAR_ANGLE)
        mu, b = PAIR_SPACE.weights, PAIR_ALGEBRA.blocks[0]
        unit = lambda x: np.sqrt(mu[b]) * x[b] / np.sqrt(np.sum(mu[b] * np.abs(x[b]) ** 2))
        cosine = abs(np.vdot(unit(v), unit(turned)))
        assert abs(np.sqrt(max(0.0, 1.0 - cosine**2)) - np.sin(NEAR_ANGLE)) > 0.5 * NEAR_ANGLE

    @pytest.mark.parametrize("name, first, second", list(_adversarial_pairs()))
    def test_product_adjoint_and_norms(self, name, first, second):
        A, B = _pair_operator(first), _pair_operator(second)
        product = _pair_operator(expectation_product(PAIR_SPACE, PAIR_ALGEBRA, first, second))
        np.testing.assert_allclose(product.entries, compose(A, B).entries, atol=1e-12)
        star = _pair_operator(expectation_adjoint(first))
        np.testing.assert_allclose(star.entries, adjoint(A).entries, atol=1e-12)
        norms = expectation_norms(PAIR_SPACE, PAIR_ALGEBRA, first)
        assert norms.max() == pytest.approx(operator_norm(A), rel=1e-12)

    @pytest.mark.parametrize("name, first, second", list(_adversarial_pairs()))
    def test_coimage_is_the_complement_of_the_kernel_projection(self, name, first, second):
        """The coimage pair is I - kernel_projection, rank cut included, so
        the coimage distance is the distance of the kernel projections."""
        coimages = [expectation_coimage(PAIR_SPACE, PAIR_ALGEBRA, x) for x in (first, second)]
        kernels = [kernel_projection(_pair_operator(x)) for x in (first, second)]
        for pair, kernel in zip(coimages, kernels):
            complement = np.eye(15) - _pair_operator(pair).entries
            np.testing.assert_allclose(complement, kernel.entries, atol=1e-12)
        got = core_distance(PAIR_SPACE, PAIR_ALGEBRA, *coimages)
        assert abs(got - operator_norm(subtract(*kernels))) <= 1e-12

    def test_coimage_cuts_atoms_under_the_rank_rule(self):
        """An atom whose norm is under DEFAULT_RANK_TOL times the largest is
        in the kernel, as the oracle's rank cut decides."""
        rng = np.random.default_rng(2)
        a, b = _complex_vector(rng), _complex_vector(rng)
        a[10:] *= 1e-12
        pair = expectation_coimage(PAIR_SPACE, PAIR_ALGEBRA, (a, b))
        kernel = kernel_projection(_pair_operator((a, b)))
        np.testing.assert_allclose(pair[0][10:], 0.0)
        complement = np.eye(15) - _pair_operator(pair).entries
        np.testing.assert_allclose(complement, kernel.entries, atol=1e-12)

    def test_distance_of_two_pairs_runs_no_solver(self, monkeypatch):
        """Two pairs give one 2 x 2 core per atom, whose largest value is
        taken in closed form: no numpy.linalg routine runs."""
        calls = []
        for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr"):

            def probe(a, *args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, probe)
        for _, first, second in _adversarial_pairs():
            core_distance(PAIR_SPACE, PAIR_ALGEBRA, first, second)
        assert calls == []


def _orthonormal(rng, rows, cols):
    """A complex rows x cols matrix with orthonormal columns."""
    return np.linalg.qr(_complex_vector(rng, rows * cols).reshape(rows, cols))[0]


def _held(blocks, cores, space=PAIR_SPACE):
    """The operator on ``space`` over ``blocks`` held as the lines and
    cores L K R^H, one (L, K, R) per block, each zero-padded to the largest
    rank (``_Lines``)."""
    starts, sizes = _segments(blocks)
    n = space.point_count
    rank = max(k.shape[0] for _, k, _ in cores)
    lines = np.zeros((2, n, rank), dtype=complex)
    core = np.zeros((len(blocks), rank, rank), dtype=complex)
    for j, (start, size, (left, k, right)) in enumerate(zip(starts, sizes, cores)):
        r = k.shape[0]
        lines[0, start : start + size, :r], lines[1, start : start + size, :r] = left, right
        core[j, :r, :r] = k
    held = _Lines(starts, sizes, lines, core)
    return _from_lines(held, WeightedOperator(np.zeros((n, n)), space, blocks))


def _cored(blocks, rng, ranks, space=PAIR_SPACE, scale=1.0):
    """An operator on ``space`` over ``blocks`` held as random cores
    L K R^H of these ranks, one per block, K times ``scale``."""
    cores = [
        (_orthonormal(rng, b.size, r), scale * _complex_vector(rng, r * r).reshape(r, r),
         _orthonormal(rng, b.size, r))
        for b, r in zip(blocks, ranks)
    ]
    return _held(blocks, cores, space)


def _pair_as_cores(pair, blocks):
    """M_a E M_b held as cores over ``blocks``, each the union of atoms: the
    rank-one lines sigma p q^H of its atoms, one column per atom."""
    sigma = expectation_norms(PAIR_SPACE, PAIR_ALGEBRA, pair)
    d = np.sqrt(PAIR_SPACE.weights)
    p, q = d * pair[0], np.conj(d * pair[1])
    for atom, b in enumerate(PAIR_ALGEBRA.blocks):
        if sigma[atom] > 0:
            p[b] /= np.linalg.norm(p[b])
            q[b] /= np.linalg.norm(q[b])
        else:
            p[b] = q[b] = 0.0
    cores = []
    for b in blocks:
        atoms = np.unique(PAIR_ALGEBRA.labels[b])
        columns = PAIR_ALGEBRA.labels[b][:, None] == atoms[None, :]
        cores.append((p[b, None] * columns, np.diag(sigma[atoms]), q[b, None] * columns))
    return _held(blocks, cores)


ONE_BLOCK = (np.arange(15),)


def _core_cases():
    """(name, first, second): pairs and operators held as cores, of ranks
    0, 1 and 2 per atom or up to the atom count on one block, lines that
    coincide to rounding, and a pair against one block."""
    rng = np.random.default_rng(8)
    atoms = PAIR_ALGEBRA.blocks
    a, b = _complex_vector(rng), _complex_vector(rng)
    yield "pair-rank-0", (a, b), _cored(atoms, rng, (0, 0, 0))
    yield "pair-rank-1", (a, b), _cored(atoms, rng, (1, 1, 1))
    yield "pair-rank-2", (a, b), _cored(atoms, rng, (2, 2, 2))
    yield "pair-mixed-ranks", (a, b), _cored(atoms, rng, (0, 1, 2))
    yield "cored-cored", _cored(atoms, rng, (2, 0, 1)), _cored(atoms, rng, (1, 2, 2))
    yield "cored-itself", *[_cored(atoms, np.random.default_rng(3), (1, 2, 0))] * 2
    yield "pair-coinciding", (a, b), _pair_as_cores((a, b), atoms)
    yield "pair-coinciding-scaled", (2.5 * a, b), _pair_as_cores((a, 2.5 * b), atoms)
    near = (_turned(a, rng, NEAR_ANGLE), b)
    yield "pair-near", near, _pair_as_cores((a, b), atoms)
    yield "cored-coinciding", _pair_as_cores((a, b), atoms), _pair_as_cores((a, b), atoms)
    yield "pair-one-block-rank-3", (a, b), _cored(ONE_BLOCK, rng, (3,))
    yield "pair-one-block-coinciding", (a, b), _pair_as_cores((a, b), ONE_BLOCK)
    yield "pair-one-block-near", near, _pair_as_cores((a, b), ONE_BLOCK)
    yield "cored-one-block", _cored(atoms, rng, (1, 2, 1)), _cored(ONE_BLOCK, rng, (2,))


def _as_operator(x, space=PAIR_SPACE, algebra=PAIR_ALGEBRA):
    """x, or the operator M_a E M_b of the pair x = (a, b)."""
    return x if isinstance(x, WeightedOperator) else expectation_operator(space, algebra, *x)


class TestCoreDistance:
    """``core_distances`` against the dense reference: the operator norm of
    the assembled difference, a pair taken as its ``expectation_operator``."""

    @pytest.mark.parametrize("name, first, second", list(_core_cases()))
    def test_is_the_dense_norm_of_the_difference(self, name, first, second):
        A, B = _as_operator(first), _as_operator(second)
        bound = 1e-12 * (1.0 + max(operator_norm(A), operator_norm(B)))
        dense = operator_norm(subtract(A, B))
        for x, y in ((first, second), (second, first)):
            assert abs(core_distance(PAIR_SPACE, PAIR_ALGEBRA, x, y) - dense) <= bound
        if "coinciding" in name or name == "cored-itself":
            assert dense <= bound

    @pytest.mark.parametrize("seed", range(3))
    def test_transforms_of_t_as_one_block(self, seed):
        """T as one block, of rank up to its atom count: its Aluthge
        transform against the transform's own and T*T against its pair,
        each to 1e-12 of the dense norm of the difference."""
        W = as_wce(random_instance(seed, 40, 5))
        one_block = WeightedOperator(to_matrix(W).entries, W.space)
        t_pair = (W.w.values, W.u.values)
        gram = expectation_product(W.space, W.algebra, expectation_adjoint(t_pair), t_pair)
        transform = aluthge_numeric(one_block)
        cases = ((aluthge_numeric(transform), transform), (gram, gram_power(one_block, 1.0)))
        for first, second in cases:
            A, B = (_as_operator(x, W.space, W.algebra) for x in (first, second))
            bound = 1e-12 * (1.0 + max(operator_norm(A), operator_norm(B)))
            got = core_distance(W.space, W.algebra, first, second)
            assert abs(got - operator_norm(subtract(A, B))) <= bound

    def test_near_lines_keep_their_digits(self):
        """Lines turned by 1e-9 are compared to 1e-6 relative, on the atoms
        and on one block: a Gram matrix of the lines would keep no digit."""
        cases = {name: (x, y) for name, x, y in _core_cases()}
        for name in ("pair-near", "pair-one-block-near"):
            near, cored = cases[name]
            dense = operator_norm(subtract(_pair_operator(near), cored))
            assert dense > 0.1 * NEAR_ANGLE
            got = core_distance(PAIR_SPACE, PAIR_ALGEBRA, near, cored)
            assert got == pytest.approx(dense, rel=1e-6)

    def test_runs_one_stacked_svd_of_small_cores(self, monkeypatch):
        """Ranks 2 and 1 per atom give one stacked SVD of 3 x 3 cores: no
        |B| x |B| matrix is factored."""
        shapes = []

        def probe(a, *args, _original=np.linalg.svd, **kwargs):
            shapes.append((np.shape(a), kwargs.get("compute_uv", True)))
            return _original(a, *args, **kwargs)

        rng = np.random.default_rng(1)
        first = _cored(PAIR_ALGEBRA.blocks, rng, (2, 2, 2))
        monkeypatch.setattr(np.linalg, "svd", probe)
        pair = (_complex_vector(rng), _complex_vector(rng))
        core_distance(PAIR_SPACE, PAIR_ALGEBRA, first, pair)
        assert shapes == [((3, 3, 3), False)]

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_a_pair_is_measured_at_any_scale(self, scale):
        """With w times c, on random_instance(0, 12, 4), ||M_wc E M_u - 0||
        and the largest of ``expectation_norms`` are c times their values
        at c = 1, to 1e-12 relative: each atom's line is divided by the
        power of two at its largest entry before it is squared."""
        inst = random_instance(0, 12, 4)
        zero = np.zeros(inst.space.point_count)

        def measured(c):
            pair = (inst.w.values * c, inst.u.values)
            norms = expectation_norms(inst.space, inst.algebra, pair)
            distance = core_distances(inst.space, inst.algebra, [(pair, (zero, zero))])[0]
            return np.array([distance, norms.max()])

        base = measured(1.0)
        assert base.min() > 0
        np.testing.assert_allclose(measured(scale), scale * base, rtol=1e-12, atol=0.0)

    def test_a_side_that_is_not_finite_gives_nan(self):
        rng = np.random.default_rng(2)
        a, b = _complex_vector(rng), _complex_vector(rng)
        a[3] = np.nan
        cored = _cored(PAIR_ALGEBRA.blocks, rng, (1, 1, 1))
        assert np.isnan(core_distance(PAIR_SPACE, PAIR_ALGEBRA, (a, b), cored))
        assert np.isnan(core_distance(PAIR_SPACE, PAIR_ALGEBRA, (a, b), (b, a)))

    def test_a_mixed_batch_is_each_comparison_alone(self):
        """One call on every case above, both ways round, with the pairs of
        ``_adversarial_pairs`` and a side that is not finite: pair/pair,
        pair/held, held/held and one-block comparisons in one batch, each
        margin within the bounds of its own case against the dense norm."""
        rng = np.random.default_rng(2)
        a, b = _complex_vector(rng), _complex_vector(rng)
        a[3] = np.nan
        cases = [(x, y) for _, x, y in _core_cases()]
        cases += [(y, x) for x, y in cases]
        pairs = [(x, y) for _, x, y in _adversarial_pairs()]
        nan_cases = [((a, b), _cored(PAIR_ALGEBRA.blocks, rng, (1, 1, 1))), ((a, b), (b, a))]
        got = core_distances(PAIR_SPACE, PAIR_ALGEBRA, cases + pairs + nan_cases)
        assert got.shape == (len(cases) + len(pairs) + 2,)
        for margin, (x, y) in zip(got, cases):
            A, B = _as_operator(x), _as_operator(y)
            bound = 1e-12 * (1.0 + max(operator_norm(A), operator_norm(B)))
            assert abs(margin - operator_norm(subtract(A, B))) <= bound
        for margin, (x, y) in zip(got[len(cases) :], pairs):
            A, B = _pair_operator(x), _pair_operator(y)
            scale = max(operator_norm(A), operator_norm(B))
            assert abs(margin - operator_norm(subtract(A, B))) <= 1e-14 * scale
        assert np.isnan(got[-2:]).all()
        assert core_distances(PAIR_SPACE, PAIR_ALGEBRA, []).shape == (0,)

    def test_an_operator_must_be_held_as_its_cores(self):
        """T = M_a E M_b is held as its lines, so it compares with its own
        pair to rounding; an operator held as its blocks is refused."""
        rng = np.random.default_rng(6)
        for pair in [(np.ones(15), np.ones(15)), (_complex_vector(rng), _complex_vector(rng))]:
            T = _pair_operator(pair)
            margin = core_distance(PAIR_SPACE, PAIR_ALGEBRA, pair, T)
            assert margin <= 1e-14 * (1.0 + operator_norm(T))
            with pytest.raises(ValueError, match="held as its cores"):
                core_distance(PAIR_SPACE, PAIR_ALGEBRA, pair, WeightedOperator(T.entries, T.space))


#: nine points in four atoms, two of one point each, listed out of order
KERNEL_SPACE = FiniteMeasureSpace(np.random.default_rng(31).uniform(0.1, 2.0, 9))
KERNEL_ALGEBRA = SubSigmaAlgebra(((3,), (0, 5, 8), (1,), (2, 4, 6, 7)), 9)


def _kernel_cases():
    """(name, first, second) on KERNEL_SPACE, every side of width 0 or 1:
    pairs, operators held as cores of rank 0 or 1 per atom, zero atoms and
    zero operands, each also at 1e150 and 1e-150 per vector (1e+-300 per
    entry), the same draws at every scale."""
    rng = np.random.default_rng(9)
    atoms, n = KERNEL_ALGEBRA.blocks, 9
    a, b, c, d = (_complex_vector(rng, n) for _ in range(4))
    a_gap, d_gap = a.copy(), d.copy()
    a_gap[[0, 5, 8]] = 0.0
    d_gap[[2, 4, 6, 7]] = 0.0
    zero = np.zeros(n, dtype=complex)
    for scale in (1.0, 1e150, 1e-150):
        pair = lambda x, y: (scale * x, scale * y)
        cored = lambda ranks, seed: _cored(
            atoms, np.random.default_rng(seed), ranks, KERNEL_SPACE, scale**2
        )
        yield f"pair-pair-{scale:g}", pair(a, b), pair(c, d)
        yield f"pair-zero-atoms-{scale:g}", pair(a_gap, b), pair(c, d_gap)
        yield f"pair-zero-{scale:g}", pair(a, b), (zero, zero)
        yield f"pair-itself-{scale:g}", pair(a, b), pair(a, b)
        yield f"width-0-pair-{scale:g}", cored((0, 0, 0, 0), 1), pair(a, b)
        yield f"width-1-pair-{scale:g}", cored((1, 1, 1, 1), 2), pair(c, d)
        yield f"width-1-zero-atoms-{scale:g}", cored((1, 0, 1, 0), 3), pair(a_gap, b)
        yield f"width-1-width-1-{scale:g}", cored((1, 1, 0, 1), 4), cored((1, 1, 1, 1), 5)
        yield f"width-0-width-1-{scale:g}", cored((0, 0, 0, 0), 6), cored((1, 1, 1, 1), 7)
        yield f"width-1-itself-{scale:g}", *[cored((1, 1, 1, 1), 8)] * 2


def _kernel_nan_cases():
    """(first, second): a pair with a NaN entry against a pair or an
    operator held as width-1 cores, both ways round."""
    rng = np.random.default_rng(10)
    a, b = _complex_vector(rng, 9), _complex_vector(rng, 9)
    a[5] = np.nan
    cored = _cored(KERNEL_ALGEBRA.blocks, rng, (1, 1, 1, 1), KERNEL_SPACE)
    cases = [((a, b), cored), ((a, b), (b, b)), ((b, b), (a, b))]
    return cases + [(y, x) for x, y in cases]


def _verify_side(seed=3, n=64, atoms=8):
    """The space, the algebra and the 9 comparisons of T's side of a verify
    of random_instance(seed, n, atoms): the powers, polar and Aluthge."""
    W = as_wce(random_instance(seed, n, atoms))
    T, tols = to_matrix(W), Tolerances()
    comparisons = (
        _power_comparisons(W, T, "p", tols) + _polar_comparisons(W, tols)
        + _aluthge_comparisons(W, T, tols)
    )
    return W.space, W.algebra, [(first, second) for _, first, second, _ in comparisons]


class TestRankOneKernel:
    """``core_distances`` of sides of width 0 or 1, which the rank-one
    kernel takes, against the dense reference."""

    @pytest.mark.parametrize("name, first, second", list(_kernel_cases()))
    def test_is_the_dense_norm_of_the_difference(self, name, first, second):
        A, B = (_as_operator(x, KERNEL_SPACE, KERNEL_ALGEBRA) for x in (first, second))
        bound = 1e-12 * (1.0 + max(operator_norm(A), operator_norm(B)))
        dense = operator_norm(subtract(A, B))
        for x, y in ((first, second), (second, first)):
            got = core_distance(KERNEL_SPACE, KERNEL_ALGEBRA, x, y)
            assert abs(got - dense) <= bound
        if "itself" in name:
            assert dense <= bound

    def test_is_homogeneous_at_1e_plus_minus_150(self):
        """At 1e+-150 per vector each margin is 1e+-300 times the margin at
        1, to 1e-12 relative: the 1e-12 (1 + norm) bound alone says
        nothing at 1e-300. A side against itself is rounding noise alone."""
        cases = {name: (x, y) for name, x, y in _kernel_cases() if "itself" not in name}
        for name in [name for name in cases if name.endswith("-1")]:
            base = core_distance(KERNEL_SPACE, KERNEL_ALGEBRA, *cases[name])
            assert base > 0
            for scale in (1e150, 1e-150):
                got = core_distance(KERNEL_SPACE, KERNEL_ALGEBRA, *cases[f"{name[:-1]}{scale:g}"])
                assert got == pytest.approx(scale**2 * base, rel=1e-12, abs=0.0)

    def test_a_side_that_is_not_finite_gives_nan(self):
        got = core_distances(KERNEL_SPACE, KERNEL_ALGEBRA, _kernel_nan_cases())
        assert np.isnan(got).all()

    def test_runs_no_solver_and_no_gram_schmidt(self, monkeypatch):
        """Sides of width 0 or 1 take the kernel: no numpy.linalg routine
        and no Gram-Schmidt runs, and a verify's side takes it too."""
        calls = []
        for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr"):

            def probe(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, probe)
        space, algebra, side = _verify_side()
        cases = [(x, y) for _, x, y in _kernel_cases()] + _kernel_nan_cases()
        calls.clear()
        monkeypatch.setattr(operator_algebra, "_gram_schmidt", None)
        core_distances(KERNEL_SPACE, KERNEL_ALGEBRA, cases)
        core_distances(space, algebra, side)
        assert calls == []

    @pytest.mark.parametrize("chunk", [1, 3, 7, 40])
    def test_atom_groups_give_the_one_group_margins(self, monkeypatch, chunk):
        """A row bound small enough to cut the atoms into several groups,
        and the comparisons into chunks, gives the margins of one group to
        the bit, on the cases above and on a verify's side."""
        cases = [(x, y) for _, x, y in _kernel_cases()]
        cases += [(y, x) for x, y in cases] + _kernel_nan_cases()
        space, algebra, side = _verify_side()
        batches = ((KERNEL_SPACE, KERNEL_ALGEBRA, cases), (space, algebra, side))
        whole = [core_distances(*batch) for batch in batches]
        monkeypatch.setattr(operator_algebra, "COMPARISON_CHUNK", chunk)
        for batch, want in zip(batches, whole):
            np.testing.assert_array_equal(core_distances(*batch), want)

    def test_working_set_is_bounded_by_the_row_bound(self, monkeypatch):
        """One call over a verify's 9 comparisons at
        random_instance(0, 20000, 200), with the row bound at 4096 entries,
        allocates less than: the kernel's stack (q, v and two work arrays of
        4096 complex entries each), three O(n) arrays (the points in block
        order, their weights and square roots) and sixteen complex values
        per comparison and atom. That is under one complex entry per point
        and comparison (2.9 MB), so a stack that grows with n x comparisons
        does not fit."""
        space, algebra, side = _verify_side(0, 20_000, 200)
        chunk, n, count = 4096, space.point_count, len(side)
        monkeypatch.setattr(operator_algebra, "COMPARISON_CHUNK", chunk)
        core_distances(space, algebra, side)  # warm: first-call allocations are not the call's
        gc.collect()
        tracemalloc.start()
        try:
            core_distances(space, algebra, side)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 16 * (4 * chunk + 3 * n + 16 * count * algebra.block_count)
        assert peak < bound < 16 * n * count


#: a unit in the last place at 1, the closed form's tolerance unit
ULP = np.finfo(float).eps


def _random_cores(rng, count, scale=1.0):
    return scale * (rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2)))


class TestExtremeValues:
    """The closed-form singular values of 2 x 2 cores against LAPACK's, to
    4 ulp of the largest."""

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e200, 1e-200])
    def test_random_cores_match_lapack(self, scale):
        cores = _random_cores(np.random.default_rng(0), 10_000, scale)
        largest, smallest = _extreme_values(cores)
        reference = np.linalg.svd(cores, compute_uv=False)
        assert np.all(np.abs(largest - reference[:, 0]) <= 4 * ULP * reference[:, 0])
        assert np.all(np.abs(smallest - reference[:, 1]) <= 4 * ULP * reference[:, 0])

    def test_the_largest_value_to_two_ulp_of_an_extended_reference(self):
        """LAPACK's own largest value can be off by over 4 ulp (4.7 on
        200,000 random stacks); the closed form, against
        sigma^2 = (p + r) / 2 + sqrt(((p - r) / 2)^2 + |q|^2) in extended
        precision, by at most 2."""
        if np.finfo(np.longdouble).eps >= ULP:
            pytest.skip("no extended precision on this platform")
        cores = _random_cores(np.random.default_rng(1), 10_000)
        re, im = cores.real.astype(np.longdouble), cores.imag.astype(np.longdouble)
        squares = re**2 + im**2
        p, r = squares[:, 0, 0] + squares[:, 1, 0], squares[:, 0, 1] + squares[:, 1, 1]
        q_re = (re[:, 0, 0] * re[:, 0, 1] + im[:, 0, 0] * im[:, 0, 1]
                + re[:, 1, 0] * re[:, 1, 1] + im[:, 1, 0] * im[:, 1, 1])
        q_im = (re[:, 0, 0] * im[:, 0, 1] - im[:, 0, 0] * re[:, 0, 1]
                + re[:, 1, 0] * im[:, 1, 1] - im[:, 1, 0] * re[:, 1, 1])
        reference = np.sqrt((p + r) / 2 + np.sqrt(((p - r) / 2) ** 2 + q_re**2 + q_im**2))
        largest = _extreme_values(cores)[0]
        assert np.all(np.abs(largest - reference) <= 2 * ULP * reference)

    def test_zero_and_rank_one_cores(self):
        rng = np.random.default_rng(2)
        zeros = np.zeros((3, 2, 2), dtype=complex)
        assert [v.tolist() for v in _extreme_values(zeros)] == [[0.0] * 3] * 2
        for scale in (1.0, 1e150, 1e-150, 1e200, 1e-200):
            x, y = (_random_cores(rng, 1000)[:, :, :1] for _ in range(2))
            cores = scale * (x @ y.conj().swapaxes(-1, -2))
            largest, smallest = _extreme_values(cores)
            reference = np.linalg.svd(cores, compute_uv=False)
            assert np.all(np.abs(largest - reference[:, 0]) <= 4 * ULP * reference[:, 0])
            assert np.all(smallest <= 4 * ULP * largest)

    def test_real_and_strided_stacks(self):
        cores = _random_cores(np.random.default_rng(3), 50)
        for view in (cores.real, cores.swapaxes(-1, -2), cores[::2]):
            reference = np.linalg.svd(view, compute_uv=False)
            for got, want in zip(_extreme_values(view), reference.T):
                assert np.all(np.abs(got - want) <= 4 * ULP * reference[:, 0])


class TestNormal:
    def test_expectation_operator_is_normal(self):
        space = FiniteMeasureSpace([1.0, 2.0, 0.5])
        algebra = SubSigmaAlgebra(([0, 1], [2]), 3)
        assert is_normal(expectation_operator(space, algebra))

    def test_rank_one_is_not_normal(self):
        assert not is_normal(WeightedOperator(RANK_ONE, flat_space(2)))

    def test_unitary_is_normal(self):
        space = flat_space(2)
        U = WeightedOperator([[0, 1], [-1, 0]], space)
        assert is_normal(U)

    def test_zero_is_normal(self):
        """A zero operator has rank 0 on every atom: its joint cores are
        0 x 0."""
        assert is_normal(WeightedOperator(np.zeros((3, 3)), FiniteMeasureSpace([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize("seed", range(4))
    def test_decides_on_the_dense_commutator_norm(self, seed):
        """The tolerance at which is_normal turns is ||TT* - T*T|| / (1 + ||T||^2),
        with the commutator taken densely in standard coordinates, for T
        blocked by its atoms, T as one block and a full-rank operator."""
        T = to_matrix(as_wce(random_instance(seed, 18, 3)))
        for X in (T, WeightedOperator(T.entries, T.space), random_operator(seed)):
            d = np.sqrt(X.space.weights)
            m = d[:, None] * X.entries / d[None, :]
            comm = np.linalg.norm(m @ m.conj().T - m.conj().T @ m, 2)
            turn = comm / (1.0 + operator_norm(X) ** 2)
            assert is_normal(X, turn * (1 + 1e-6)) is True
            assert is_normal(X, turn * (1 - 1e-6)) is False

    def test_reads_only_the_joint_cores(self, monkeypatch):
        """With T's factors memoized, is_normal reads T's 2 x 2 joint cores
        in closed form: no SVD and no eigvalsh runs, and no operator is
        built. T as one block (the one-block reference, of width r) runs
        one eigvalsh, of its one 2r x 2r core."""
        T = to_matrix(as_wce(random_instance(0, 18, 3)))
        one_block = WeightedOperator(T.entries, T.space)
        rank = _factors(one_block).s.shape[1]
        _factors(T)
        calls = []

        def probe(routine):
            def wrapped(a, *args, _original=getattr(np.linalg, routine), **kwargs):
                calls.append((routine, np.shape(a)))
                return _original(a, *args, **kwargs)

            return wrapped

        for routine in ("svd", "eigvalsh"):
            monkeypatch.setattr(np.linalg, routine, probe(routine))
        built = []
        monkeypatch.setattr(WeightedOperator, "__post_init__", lambda op: built.append(op))
        assert not is_normal(T)
        assert calls == [] and built == []
        _joint_cores(one_block)
        calls.clear()
        assert not is_normal(one_block)
        assert calls == [("eigvalsh", (1, 2 * rank, 2 * rank))]
        assert built == []

    def test_hermitian_check(self):
        space = FiniteMeasureSpace([1.0, 3.0])
        algebra = trivial_algebra(2)
        assert is_hermitian(expectation_operator(space, algebra))
        assert not is_hermitian(WeightedOperator([[0, 1], [0, 0]], space))


class TestSolverLog:
    def test_one_debug_record_per_solver_call(self, monkeypatch, caplog):
        """A verify of random_instance(7, 64, 8) makes two LAPACK calls, the
        joint point spectrum's SVDs of its 16 candidate 2 x 2 cores, and
        logs one record for each, with its shape and seconds: T's factors,
        eigenvalues, joint cores and class margins are read in closed
        form, and log nothing."""
        calls = []
        for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr"):

            def probe(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls.append(f"{_name} {'x'.join(map(str, np.shape(a)))}")
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, probe)
        caplog.set_level(logging.DEBUG, logger="condexp")
        verify_instance(random_instance(7, 64, 8))
        records = [r.getMessage().split() for r in caplog.records if r.name == "condexp"]
        for _, _, seconds, unit in records:
            assert float(seconds) >= 0.0 and unit == "s"
        assert [" ".join(r[:2]) for r in records] == calls == ["svd 16x2x2"] * 2

    def test_a_stacked_call_logs_its_whole_shape(self, caplog):
        """The joint point spectrum factors, in one stacked SVD, the 2 x 2
        cores of the (rank-one atom, shift) pairs whose smallest singular
        value lies within twice the cutoff, and takes the principal angles
        at the pairs with a null vector in another: each record gives the
        stack's whole shape."""
        T = to_matrix(as_wce(random_instance(0, 10, 3)))
        assert all(b.size >= 2 for b in T.blocks)
        cutoff = 1e-8 * (1.0 + operator_norm(T))
        shifts = np.array(cluster_values(eigenvalues(T), cutoff))
        record, h = operator_algebra._atoms(T), operator_algebra._heights(T)
        assert (record.ranks == 1).all() and (h > 0).all()
        core = np.zeros((len(T.blocks), 2, 2), dtype=complex)  # [[s g, 0], [s h, 0]]
        core[:, 0, 0], core[:, 1, 0] = record.s * record.g, record.s * h
        shifted = core[:, None] - shifts[None, :, None, None] * np.eye(2)
        smallest = np.linalg.svd(shifted, compute_uv=False)[..., -1]
        candidates = np.count_nonzero(smallest <= 2 * cutoff)
        caplog.set_level(logging.DEBUG, logger="condexp")
        joint_point_spectrum(T, 1e-8)
        shapes = [m.split()[1] for m in caplog.messages if m.startswith("svd ")]
        assert shifts.size > 1
        assert 0 < candidates < len(T.blocks) * shifts.size
        assert len(shapes) == 2
        assert shapes[0] == f"{candidates}x2x2"
        assert re.fullmatch(r"\d+x2x2", shapes[1])

    def test_silent_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="condexp")
        operator_norm(to_matrix(as_wce(random_instance(0, 10, 3))))
        assert not [r for r in caplog.records if r.name == "condexp"]


def _atom_operator(seed):
    """T = M_w E M_u over 3 atoms, held by nothing but the caller."""
    inst = random_instance(seed, 18, 3)
    return expectation_operator(inst.space, inst.algebra, inst.w.values, inst.u.values)


def _reconstruction_error(A):
    return max(
        np.abs((x * s) @ y.conj().T - m).max()
        for (_, x, s, y), (_, m) in zip(block_factors(A), _std_blocks(A))
    )


#: the forms an operator is held in, each with a builder over
#: random_instance(seed, 18, 3): a random operator held as its blocks, and,
#: held as their lines, T built from its pair and two operators derived
#: from T's factors
HELD_AS = {
    "blocks": lambda inst, T: _random_blocks(inst),
    "pair": lambda inst, T: T,
    "gram_power": lambda inst, T: gram_power(T, 1.0),
    "aluthge": lambda inst, T: aluthge_numeric(T),
}


def _random_blocks(inst):
    """A random complex operator held as its blocks over inst's atoms."""
    rng = np.random.default_rng(11)
    n = inst.space.point_count
    entries = np.zeros((n, n), dtype=complex)
    for b in inst.algebra.blocks:
        entries[np.ix_(b, b)] = rng.standard_normal((b.size, 2 * b.size)).view(complex)
    return WeightedOperator(entries, inst.space, inst.algebra.blocks)


def _held_as(form):
    """An operator held in ``form`` (``HELD_AS``), held by nothing but the
    caller."""
    inst = random_instance(4, 18, 3)
    T = expectation_operator(inst.space, inst.algebra, inst.w.values, inst.u.values)
    return HELD_AS[form](inst, T)


def _form(X) -> list:
    """Which of its blocks and its lines X holds."""
    return [X._parts is not None, operator_algebra._LINES in X._memo]


@pytest.mark.parametrize("form", HELD_AS)
def test_the_adjoint_keeps_its_operator_form(form):
    """adjoint(X) is held in X's form, refers back to X, and is
    D^-1 X^H D; the adjoint of the adjoint is X again."""
    X = _held_as(form)
    A = adjoint(X)
    assert _form(A) == _form(X) and _form(X).count(True) == 1
    assert A._memo[operator_algebra._ADJOINT_OF]() is X
    mu = X.space.weights
    expected = (X.entries.conj().T * mu[None, :]) / mu[:, None]
    scale = 1.0 + np.abs(expected).max()
    assert np.abs(A.entries - expected).max() <= 1e-12 * scale
    assert np.abs(adjoint(A).entries - X.entries).max() <= 1e-12 * scale


#: the numpy.linalg calls that factor an adjoint whose operator is gone,
#: for each form, as (routine, shape of its input): lines of width 1, T's
#: among them, read their 1 x 1 cores in closed form, with no call, and
#: blocks take one SVD per block
FREED_CALLS = {
    "blocks": lambda A: [("svd", (b.size, b.size)) for b in A.blocks],
    "pair": lambda A: [],
    "gram_power": lambda A: [],
    "aluthge": lambda A: [],
}


@pytest.mark.parametrize("form", HELD_AS)
def test_the_adjoint_of_a_freed_operator_factors_by_its_form(monkeypatch, form):
    """Once X is freed, adjoint(X) factors itself by its own form's route,
    and its factors reconstruct its blocks: lines, T's among them, from
    their 1 x 1 cores in closed form with no LAPACK call, blocks by one
    full SVD per block."""
    X = _held_as(form)
    A = adjoint(X)
    del X
    gc.collect()
    assert A._memo[operator_algebra._ADJOINT_OF]() is None
    calls = []

    def probe(routine):
        def counted(a, *args, _original=getattr(np.linalg, routine), **kwargs):
            calls.append((routine, np.shape(a)))
            return _original(a, *args, **kwargs)

        return counted

    for routine in ("svd", "qr", "eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, routine, probe(routine))
    _factors(A)
    monkeypatch.undo()
    assert calls == FREED_CALLS[form](A)
    assert _reconstruction_error(A) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("points, atoms", [(40, 40), (64, 8)])
def test_the_eigenvalues_of_the_adjoint_are_conjugate(seed, points, atoms):
    """eigenvalues(T*) is conj(eigenvalues(T)) as a multiset, within the
    corpus's 1e-15 (1 + ||T||): both are s g on each atom, read off T's
    factors and off T*'s, T's swapped, with no block built."""
    T = to_matrix(as_wce(random_instance(seed, points, atoms)))
    bound = 1e-15 * (1.0 + operator_norm(T))
    assert multiset_close(eigenvalues(adjoint(T)), np.conj(eigenvalues(T)), bound)


class TestAdjointSharesSVD:
    LINALG = ("svd", "eig", "eigvals", "eigh", "eigvalsh")

    def test_adjoint_reads_the_operator_svd(self, monkeypatch):
        T = _atom_operator(1)
        _factors(T)

        def no_call(*args, **kwargs):
            raise AssertionError("numpy.linalg was called")

        for name in self.LINALG:
            monkeypatch.setattr(np.linalg, name, no_call)
        assert _reconstruction_error(adjoint(T)) <= 1e-12

    def test_adjoint_of_a_freed_operator_factors_itself(self, monkeypatch):
        """T is held as its lines, and so is T*: while T lives, T*'s factors
        are T's swapped, views of the same arrays, computed once; once T is
        freed, T*'s factors are read off its own 1 x 1 cores in closed
        form, with no LAPACK call, and they are T's swapped up to a phase
        per atom, with the same singular values."""
        T = _atom_operator(2)
        factors, swapped = _factors(T), _factors(adjoint(T))
        assert np.shares_memory(swapped.lines, factors.lines) and _factors(T) is factors
        assert np.array_equal(swapped.lines, factors.lines[::-1])
        s = factors.s.copy()
        A = adjoint(T)
        del T, factors, swapped
        gc.collect()
        A._memo.pop("_factors")
        calls = []

        def probe(routine):
            def counted(a, *args, _original=getattr(np.linalg, routine), **kwargs):
                calls.append((routine, np.shape(a)))
                return _original(a, *args, **kwargs)

            return counted

        for routine in self.LINALG + ("qr",):
            monkeypatch.setattr(np.linalg, routine, probe(routine))
        assert _reconstruction_error(A) <= 1e-12
        assert calls == []
        np.testing.assert_allclose(_factors(A).s, s, rtol=1e-15)

    def test_adjoint_does_not_keep_the_operator_alive(self):
        gc.disable()
        try:
            T = _atom_operator(3)
            A = adjoint(T)
            _factors(A)
            ref = weakref.ref(T)
            del T
            assert ref() is None
            assert _reconstruction_error(A) <= 1e-12
        finally:
            gc.enable()


class TestScaledFastPath:
    """``_scaled`` gives a stack whose every largest part is 0 or in
    [2^-500, 2^500] as it is, with the scale 1; the closed forms read the
    same bits off it as off the stack divided by its powers of two."""

    @staticmethod
    def _divided(mats):
        parts = np.abs(mats.view(float)).reshape(mats.shape[:-2] + (8,))
        exponent = np.frexp(parts.max(axis=-1, initial=0.0))[1]
        scale = np.ldexp(0.5, np.maximum(exponent, np.finfo(float).minexp + 1))
        return mats / scale[..., None, None], scale

    def _extreme(self, mats):
        m, scale = self._divided(mats)
        largest = operator_algebra._largest_scaled(m)
        det = np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])
        smallest = np.divide(det, largest, out=np.zeros_like(det), where=largest > 0)
        return largest * scale, smallest * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_both_routes_are_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        shape = (4000, 2, 2)
        mats = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 2.0 ** rng.uniform(
            -480, 480, (shape[0], 1, 1)
        )
        mats[:10] = 0.0
        m, scale = operator_algebra._scaled(mats)
        assert m is mats and scale == 1.0
        divided, powers = self._divided(mats)
        np.testing.assert_array_equal(
            operator_algebra._largest_scaled(m) * scale,
            operator_algebra._largest_scaled(divided) * powers,
        )
        for got, want in zip(_extreme_values(mats), self._extreme(mats)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("power", [600, -600])
    def test_a_stack_far_out_takes_the_scaled_route(self, power):
        rng = np.random.default_rng(7)
        mats = (rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))) * 2.0**power
        m, scale = operator_algebra._scaled(mats)
        divided, powers = self._divided(mats)
        np.testing.assert_array_equal(scale, powers)
        np.testing.assert_array_equal(m, divided)
        for got, want in zip(_extreme_values(mats), self._extreme(mats)):
            np.testing.assert_array_equal(got, want)
        assert np.isfinite(_extreme_values(mats)[0]).all()


#: a valid instance on which the sums of |d a|^2 of expectation_norms fell
#: under 2^-900 while those of the lines' squared parts did not
GUARD_MISMATCH = {
    "weights": [1.4605582545268825e-271, 1.0],
    "blocks": [[0], [1]],
    "u": [[0.11658903841798231, 0.89241638046417], [1.0, 0.0]],
    "w": [[1.0, 0.0], [1.0, 0.0]],
}


class TestExpectationNormsGuard:
    def test_a_sum_unsafe_only_for_the_first_guard_is_read(self):
        """The instance whose verify crashed: expectation_norms' own guard
        finds a sum of |d x|^2 under 2^-900, the lines' norms find every sum
        safe and give no powers; the norms are read as they are."""
        from condexp.cli import instance_from_json

        instance = instance_from_json(GUARD_MISMATCH)
        checks = verify_instance(instance)
        assert len(checks) == 25 and all(c.passed for c in checks)

    def test_the_guards_disagreeing_is_forced(self, monkeypatch):
        """With the first guard forced to fail, the norms come from the
        lines (``_block_norms``, which finds them safe) and equal the ones
        the first guard passes, to rounding."""
        rng = np.random.default_rng(3)
        inst = random_instance(3, 12, 4)
        pair = (rng.standard_normal(12) + 1j, rng.standard_normal(12) - 2j)
        want = expectation_norms(inst.space, inst.algebra, pair)
        calls = []

        def guard(sums, _original=operator_algebra._squares_safe):
            calls.append(1)
            return len(calls) > 1 and _original(sums)

        monkeypatch.setattr(operator_algebra, "_squares_safe", guard)
        got = expectation_norms(inst.space, inst.algebra, pair)
        assert len(calls) == 2
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
