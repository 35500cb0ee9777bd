"""The dense reference against known answers.

``dense_reference`` is what the oracle's tests compare with, so it is
checked on its own: small matrices whose factors, powers, polar parts,
Aluthge transforms, kernels, eigenvalues, Loewner order, normality and
joint point spectrum are known by hand. On unit weights the standard
coordinates are the matrix itself.
"""

import numpy as np
import pytest

import dense_reference as dense

RANK_ONE = np.array([[1, 0], [1, 0]], dtype=complex)  # f -> (f_0, f_0); eigenvalues {0, 1}
NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)
LOWER_SHIFT = NILPOTENT.T
ROTATION = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]], dtype=complex)
QUARTER_TURN = np.array([[0, 1], [-1, 0]], dtype=complex)
# x y^H with y^H x = 0: nilpotent, null spaces y-perp and x-perp meet in 2 dims
ORTHOGONAL_RANK_ONE = np.outer([1, 1j, 0, 2], np.conj([1j, 1, 3, 0]))


def _random(seed, n=6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_standard_coordinates_conjugate_by_the_square_roots_of_the_weights():
    entries = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = dense.standard(entries, [1.0, 4.0])
    np.testing.assert_allclose(m, [[1.0, 1.0], [6.0, 4.0]])


class TestFactors:
    def test_identity(self):
        np.testing.assert_allclose(dense.factors(np.eye(4))[1], np.ones(4))

    def test_rank_one(self):
        _, s, _ = dense.factors(RANK_ONE)
        np.testing.assert_allclose(s, [np.sqrt(2)])
        assert dense.norm(RANK_ONE) == pytest.approx(np.sqrt(2))

    def test_zero(self):
        x, s, y = dense.factors(np.zeros((3, 3)))
        assert s.size == 0 and x.shape == y.shape == (3, 0)
        assert dense.norm(np.zeros((3, 3))) == 0.0


class TestPowersAndPolar:
    def test_square_root_of_diagonal(self):
        # (A^H A)^(1/4) = A^(1/2) for A >= 0
        root = dense.gram_power(np.diag([4.0, 9.0]), 0.25)
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-12)

    def test_positive_diagonal(self):
        d = np.diag([2.0, 3.0])
        np.testing.assert_allclose(dense.gram_power(d, 0.5), d, atol=1e-12)
        np.testing.assert_allclose(dense.polar_isometry(d), np.eye(2), atol=1e-12)

    def test_lower_shift(self):
        np.testing.assert_allclose(dense.gram_power(LOWER_SHIFT, 0.5), np.diag([1.0, 0.0]), atol=1e-12)

    def test_unitary_has_identity_modulus(self):
        np.testing.assert_allclose(dense.gram_power(ROTATION, 0.5), np.eye(2), atol=1e-12)

    def test_polar_of_rank_one(self):
        np.testing.assert_allclose(
            dense.gram_power(RANK_ONE, 0.5), np.diag([np.sqrt(2), 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            dense.polar_isometry(RANK_ONE),
            [[1 / np.sqrt(2), 0], [1 / np.sqrt(2), 0]],
            atol=1e-12,
        )

    def test_polar_of_zero(self):
        zero = np.zeros((3, 3))
        assert np.all(dense.polar_isometry(zero) == 0)
        assert np.all(dense.gram_power(zero, 0.5) == 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction_and_kernel_condition(self, seed):
        m = _random(seed)
        m[:, 0] = m[:, 1]  # rank deficient
        u, modulus = dense.polar_isometry(m), dense.gram_power(m, 0.5)
        assert dense.norm(u @ modulus - m) <= 1e-12 * dense.norm(m)
        assert dense.norm(dense.kernel_projection(u) - dense.kernel_projection(modulus)) <= 1e-12


class TestAluthge:
    def test_fixes_normal_diagonal(self):
        d = np.diag([1.0, -2.0, 3.0])
        np.testing.assert_allclose(dense.aluthge(d), d, atol=1e-12)

    def test_annihilates_nilpotent(self):
        assert np.abs(dense.aluthge(NILPOTENT)).max() <= 1e-12

    def test_zero(self):
        assert np.all(dense.aluthge(np.zeros((2, 2))) == 0)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        np.testing.assert_allclose(dense.kernel_projection(np.eye(3)), 0.0, atol=1e-12)

    def test_zero_has_full_kernel(self):
        np.testing.assert_allclose(dense.kernel_projection(np.zeros((3, 3))), np.eye(3), atol=1e-12)

    def test_rank_one(self):
        # the kernel is span{(0, 1)}
        np.testing.assert_allclose(dense.kernel_projection(RANK_ONE), np.diag([0.0, 1.0]), atol=1e-12)


def _multiset(values):
    return sorted(np.round(np.asarray(values, dtype=complex), 9).tolist(), key=lambda z: (z.real, z.imag))


class TestEigenvalues:
    def test_diagonal(self):
        assert _multiset(dense.eigenvalues(np.diag([1.0, 2.0]))) == [1, 2]

    def test_rank_one_projection_like(self):
        assert _multiset(dense.eigenvalues(RANK_ONE)) == [0, 1]

    def test_nilpotent_gives_exact_zeros(self):
        """The rank-one core of a nilpotent block is 0 to rounding, and its
        other eigenvalue is an exact zero."""
        evals = dense.eigenvalues(NILPOTENT)
        assert np.abs(evals).max() <= 1e-15 and np.count_nonzero(evals) <= 1


class TestLoewner:
    def test_identity_geq_zero(self):
        assert dense.loewner_geq(dense.loewner_margins(np.eye(2), np.zeros((2, 2))), 1e-9)

    def test_indefinite_difference(self):
        margins = dense.loewner_margins(np.diag([1.0, 2.0]), np.diag([0.0, 3.0]))
        assert not dense.loewner_geq(margins, 1e-9)

    def test_rejects_non_hermitian_difference(self):
        assert not dense.loewner_geq(dense.loewner_margins(NILPOTENT, np.zeros((2, 2))), 1e-9)


class TestClassMargins:
    @pytest.mark.parametrize(
        "m, classes",
        [
            (np.diag([1.0, -2.0, 0.5]), (True, True, True)),  # normal
            (np.array([[2.0, 1.0], [1.0, 3.0]]), (True, True, True)),  # self-adjoint
            (QUARTER_TURN, (True, True, True)),  # unitary
            (np.zeros((2, 2)), (True, True, True)),
            (NILPOTENT, (False, False, False)),
        ],
        ids=["diagonal", "self-adjoint", "quarter-turn", "zero", "nilpotent"],
    )
    def test_known_classes(self, m, classes):
        """Normal operators are in all three classes. The nilpotent N has
        |N^2| = 0 below |N|^2 = diag(0, 1) and |N*|^2 = diag(1, 0), and
        N* |N^2| N = 0 below N* |N*|^2 N = diag(0, 1): it is in none."""
        margins = dense.class_margins(np.asarray(m, dtype=complex))
        assert tuple(dense.loewner_geq(x, 1e-9) for x in margins) == classes


class TestNormal:
    def test_rank_one_is_not_normal(self):
        assert not dense.is_normal(RANK_ONE, 1e-9)

    def test_unitary_is_normal(self):
        assert dense.is_normal(QUARTER_TURN, 1e-9)
        assert dense.is_normal(ROTATION, 1e-9)


class TestJointPointSpectrum:
    def test_diagonal_with_repeat(self):
        m = np.diag([1.0, 2.0, 2.0]).astype(complex)
        assert dense.joint_point_spectrum(m, [1.0, 2.0], 1e-8) == [1.0, 2.0]

    def test_nilpotent_has_empty_joint_spectrum(self):
        """null(N) = span{e_0} and null(N^H) = span{e_1} are orthogonal."""
        assert dense.joint_point_spectrum(NILPOTENT, [0.0], 1e-8) == []

    def test_orthogonal_rank_one(self):
        """x y^H with y^H x = 0 has the one eigenvalue 0, and its kernel y-perp
        and its adjoint's x-perp meet in two dimensions."""
        assert dense.joint_point_spectrum(ORTHOGONAL_RANK_ONE, [0.0], 1e-8) == [0.0]

    def test_rotation_has_both_eigenvalues(self):
        lams = [np.exp(0.7j), np.exp(-0.7j)]
        assert dense.joint_point_spectrum(ROTATION, lams, 1e-8) == lams
