import tracemalloc

import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    as_wce,
    build_wce,
    joint_spectrum_range_check,
    eigenvalues,
    em_u_point_spectrum,
    hausdorff_distance,
    is_normal,
    aluthge_numeric,
    joint_point_spectrum,
    operator_norm,
    product_space_example,
    proportional_instance,
    random_instance,
    sigma_p_equals_sigma_jp_check,
    singular_values,
    spectral_radius_closed_form,
    spectrum_closed_form,
    spectrum_report,
    symmetric_interval_example,
    to_matrix,
)
from condexp import spectral_analysis
from condexp.operator_algebra import (
    DEFAULT_RANK_TOL,
    _LINES,
    WeightedOperator,
    _Lines,
    _atoms,
    _segments,
    expectation_operator,
)

from conftest import (
    dense_hausdorff_distance,
    discrete_algebra,
    make_function,
    reference_joint_point_spectrum,
    trivial_algebra,
)


def rank_one_wce():
    space = FiniteMeasureSpace([1.0, 1.0])
    algebra = trivial_algebra(2)
    return build_wce(
        space, algebra, make_function(space, [2, 0]), make_function(space, [1, 1])
    )


def singleton_wce(u_values, w_values, weights=None):
    n = len(u_values)
    space = FiniteMeasureSpace(weights if weights is not None else np.ones(n))
    algebra = discrete_algebra(n)
    return build_wce(
        space, algebra, make_function(space, u_values), make_function(space, w_values)
    )


def em_u_wce(u_values, blocks, weights=None):
    n = len(u_values)
    space = FiniteMeasureSpace(weights if weights is not None else np.ones(n))
    algebra = SubSigmaAlgebra(blocks, n)
    one = MeasurableFunction.constant(space, 1.0)
    return build_wce(space, algebra, make_function(space, u_values), one)


class TestHausdorff:
    def test_empty_sets(self):
        assert hausdorff_distance([], []) == 0.0

    def test_one_empty(self):
        assert hausdorff_distance([1], []) == np.inf

    def test_symmetric(self):
        a, b = [0, 1], [0.5]
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a) == 0.5

    @pytest.mark.parametrize("sizes", [(1, 1), (3, 300), (300, 3), (300, 500)])
    def test_chunks_give_the_dense_result_bit_for_bit(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        a, b = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in sizes)
        assert hausdorff_distance(a, b) == dense_hausdorff_distance(a, b)

    def test_many_small_chunks(self, monkeypatch):
        monkeypatch.setattr(spectral_analysis, "DISTANCE_CHUNK", 7)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        b = np.concatenate([a[:5], rng.standard_normal(9)])  # shared points
        assert hausdorff_distance(a, b) == dense_hausdorff_distance(a, b)
        assert hausdorff_distance(b, a) == dense_hausdorff_distance(b, a)

    @pytest.mark.parametrize("sizes", [(0, 0), (0, 5), (5, 0), (1, 1), (40, 9), (9, 300)])
    def test_set_distances_match_the_python_loops(self, monkeypatch, sizes):
        """Each point's distance to the other set, inf toward an empty one,
        as the Python loops ``min(abs(x - y) for y in other)`` give it (to
        numpy's complex abs, one ulp), with duplicates and shared points;
        thresholds keep the same points."""
        monkeypatch.setattr(spectral_analysis, "DISTANCE_CHUNK", 64)
        rng = np.random.default_rng(sum(sizes) + 3)
        a, b = (list(rng.standard_normal(k) + 1j * rng.standard_normal(k)) for k in sizes)
        a = a + a[:3] + b[:2] if a else a
        b = b + b[:2]
        for x, y, got in zip((a, b), (b, a), spectral_analysis._set_distances(a, b)):
            loops = [min((abs(v - m) for m in y), default=np.inf) for v in x]
            np.testing.assert_allclose(got, loops, rtol=1e-15, atol=0)
            for tol in (0.05, 0.5):
                far = [v for v, d in zip(x, loops) if d > tol]
                assert [v for v, d in zip(x, got) if d > tol] == far
                assert bool(np.all(got <= tol)) == (not far)

    def test_memory_is_linear_in_the_set_sizes(self):
        """5000 x 5000 distances would take 400 MB as one complex table."""
        rng = np.random.default_rng(2)
        a, b = (rng.standard_normal(5000) + 1j * rng.standard_normal(5000) for _ in "ab")
        tracemalloc.start()
        try:
            hausdorff_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestSpectrumClosedForm:
    def test_rank_one(self):
        nonzero, zero_flag, covers = spectrum_closed_form(rank_one_wce())
        assert [round(z.real, 9) for z in nonzero] == [1]
        assert zero_flag  # rank 1 < 2
        assert covers  # E(|u|^2) = 2 and E(|w|^2) = 1 everywhere

    def test_singleton_blocks_spectrum_is_uw_values(self):
        W = singleton_wce([2, 3, 1], [1, -1, 4])
        nonzero, zero_flag, _ = spectrum_closed_form(W)
        assert sorted(round(z.real, 9) for z in nonzero) == [-3, 2, 4]
        assert not zero_flag

    def test_projection_spectrum(self):
        space = FiniteMeasureSpace(np.ones(4))
        one = MeasurableFunction.constant(space, 1.0)
        W = build_wce(space, trivial_algebra(4), one, one)
        nonzero, zero_flag, covers = spectrum_closed_form(W)
        assert [round(z.real, 9) for z in nonzero] == [1]
        assert zero_flag
        assert covers

    def test_zero_flag_matches_dense_rank(self):
        """0 in sigma(T) by counting the atoms in S and G agrees with the
        dense decision rank T < n from the singular values."""
        instances = [
            make(seed, points, blocks)
            for make in (
                random_instance,
                lambda *a: random_instance(*a, complex_valued=False),
                proportional_instance,
            )
            for points, blocks in ((10, 3), (7, 7))  # (7, 7): singleton atoms
            for seed in range(8)
        ]
        instances += [product_space_example(4, 20), symmetric_interval_example(10)]
        Ws = [as_wce(inst) for inst in instances]
        for inst in (random_instance(0, 10, 3), random_instance(0, 7, 7)):
            u = inst.u.values.copy()
            u[inst.algebra.blocks[0]] = 0.0  # u vanishes on one atom
            Ws.append(
                build_wce(inst.space, inst.algebra, MeasurableFunction(u, inst.space), inst.w)
            )
        flags = []
        for W in Ws:
            s = singular_values(to_matrix(W))
            dense_rank = int(np.sum(s > DEFAULT_RANK_TOL * s.max(initial=0.0)))
            flags.append(spectrum_closed_form(W)[1])
            assert flags[-1] == (dense_rank < W.space.point_count)
        assert any(flags) and not all(flags)

    def test_report_matches_numeric(self):
        for seed in range(15):
            report = spectrum_report(as_wce(random_instance(seed, 10, 3)))
            assert report.match, (seed, report.max_set_distance)


def point_spectrum(W):
    """sigma_p = sigma on a finite space: the closed-form spectrum as one list."""
    nonzero, zero_flag, _ = spectrum_closed_form(W)
    return nonzero + [0j] if zero_flag else nonzero


class TestPointSpectrum:
    def test_block_values(self):
        W = em_u_wce([3, 3, 3, 3, 7, 7], ([0, 1], [2, 3], [4, 5]))
        values = point_spectrum(W)
        nonzero = sorted(round(z.real, 9) for z in values if abs(z) > 1e-9)
        assert nonzero == [3, 7]

    def test_zero_function(self):
        W = em_u_wce([0, 0], ([0, 1],))
        values = point_spectrum(W)
        assert all(abs(z) <= 1e-9 for z in values)

    def test_rank_one_includes_zero_via_kernel(self):
        values = point_spectrum(rank_one_wce())
        assert any(abs(z - 1) < 1e-9 for z in values)
        assert any(abs(z) < 1e-9 for z in values)


class TestEMuPointSpectrum:
    def test_two_block_values(self):
        W = em_u_wce([2, 2, 5, 5], ([0, 1], [2, 3]))
        report = em_u_point_spectrum(W)
        closed = sorted(round(z.real, 6) for z in report.closed_level_values)
        assert closed == [2, 5]
        assert report.equality_off_zero
        assert report.containment

    def test_block_constant_single_value(self):
        W = em_u_wce([4, 4, 4], ([0, 1, 2],))
        report = em_u_point_spectrum(W)
        nonzero = [z for z in report.closed_level_values if abs(z) > 1e-6]
        assert len(nonzero) == 1 and abs(nonzero[0] - 4) < 1e-9

    def test_vanishing_block_gives_full_equality(self):
        # E(u) = 0 on the first block
        W = em_u_wce([1, -1, 3, 3], ([0, 1], [2, 3]))
        report = em_u_point_spectrum(W)
        assert report.zero_level_set_nonempty
        assert report.zero_case_equality

    def test_rejects_nonconstant_w(self):
        with pytest.raises(ValueError):
            em_u_point_spectrum(
                singleton_wce([1, 2], [3, 4])
            )


WEIGHTS = np.array([0.5, 1.0, 2.0, 1.5])
# x y^H with y^H x = 0: nilpotent, null spaces y-perp and x-perp meet in 2 dims
X, Y = np.array([1, 1j, 0, 2]), np.array([1j, 1, 3, 0])
ORTHOGONAL_RANK_ONE = np.outer(X, np.conj(Y))


def _nilpotent():
    """f -> (f_1, 0): M_a E M_b with a = (2, 0) and b = (0, 1) on one atom
    of two unit points."""
    space = FiniteMeasureSpace(np.ones(2))
    return expectation_operator(space, trivial_algebra(2), np.array([2.0, 0.0]), np.array([0.0, 1.0]))


def _orthogonal_rank_one():
    """ORTHOGONAL_RANK_ONE on the weights WEIGHTS, one atom: X Y^H is
    M_a E M_b with a = X and b = conj(Y) mu(B) / mu."""
    space = FiniteMeasureSpace(WEIGHTS)
    T = expectation_operator(space, trivial_algebra(4), X, np.conj(Y) * WEIGHTS.sum() / WEIGHTS)
    np.testing.assert_allclose(T.entries, ORTHOGONAL_RANK_ONE, atol=1e-15)
    return T


class TestJointPointSpectrum:
    def test_normal_operator_equals_point_spectrum(self):
        space = FiniteMeasureSpace(np.ones(3))
        T = expectation_operator(space, discrete_algebra(3), np.array([1.0, 2.0, 2.0]))
        jp = joint_point_spectrum(T)
        assert hausdorff_distance(jp, [1, 2]) <= 1e-9

    def test_nilpotent_has_empty_joint_spectrum(self):
        assert joint_point_spectrum(_nilpotent()) == []

    def test_symmetric_interval_normal_case(self):
        W = as_wce(symmetric_interval_example(12))
        T = to_matrix(W)
        sigma_p = [complex(z) for z in np.unique(np.round(eigenvalues(T), 9))]
        jp = joint_point_spectrum(T)
        assert hausdorff_distance(jp, sigma_p) <= 1e-7

    def test_orthogonal_rank_one_matches_the_reference(self):
        """A rank-one block whose null(B - lambda I) and
        null(B^H - conj(lambda) I) differ, and meet in two dimensions at 0:
        the dense reference's verdicts, and sigma_jp = {0}."""
        T = _orthogonal_rank_one()
        assert not is_normal(T)
        jp = joint_point_spectrum(T)
        assert jp == reference_joint_point_spectrum(T)
        assert hausdorff_distance(jp, [0.0]) <= 1e-7

    def test_subset_of_point_spectrum(self):
        for seed in range(10):
            T = to_matrix(as_wce(random_instance(seed, 8, 3)))
            evals = eigenvalues(T)
            for lam in joint_point_spectrum(T):
                assert min(abs(evals - lam)) <= 1e-6 * (1 + operator_norm(T))


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rank_one_blocks(parts, weights):
    """The operator whose value-coordinate blocks are ``parts``, each of
    rank 0 or 1 on its own atom, held as the lines and core of the leading
    singular triple of each standard-coordinate block."""
    sizes = [len(p) for p in parts]
    n = sum(sizes)
    space = FiniteMeasureSpace(weights)
    blocks = tuple(np.split(np.arange(n), np.cumsum(sizes)[:-1]))
    d = np.sqrt(space.weights)
    lines = np.zeros((2, n, 1), dtype=complex)
    core = np.zeros((len(parts), 1, 1), dtype=complex)
    for k, (b, p) in enumerate(zip(blocks, parts)):
        u, s, vh = np.linalg.svd(d[b][:, None] * p / d[b][None, :])
        lines[0, b, 0], lines[1, b, 0], core[k] = u[:, 0], vh[0].conj(), s[0]
    held = _Lines(*_segments(blocks), lines, core)
    return WeightedOperator(space, blocks, {_LINES: held})


class TestJointPointSpectrumOnCores:
    """The joint point spectrum read off each atom's joint core gives the
    dense reference's list."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("chunk", [1, spectral_analysis.DISTANCE_CHUNK])
    def test_rank_one_blocks_take_the_closed_form_prefilter(self, monkeypatch, seed, chunk):
        """Blocks of rank 0 and 1 give 2 x 2 joint cores, whose pairs the
        closed form sorts before the SVD: normal and non-normal rank-one
        blocks, one sharing a normal block's eigenvalue, zero blocks, a
        1-point atom of rank 1 and one of rank 0, at several tolerances and
        in chunks of one pair, give the dense reference's list."""
        rng = np.random.default_rng(seed)
        shared = _complex(rng)

        def normal(n, lam):
            x = _complex(rng, n, 1)
            return lam * (x @ x.conj().T) / np.vdot(x, x)

        def generic(n, lam):
            x, y = _complex(rng, n, 1), _complex(rng, n, 1)
            return lam * (x @ y.conj().T) / np.vdot(y, x)

        parts = [
            normal(4, shared),
            generic(5, shared),
            np.zeros((3, 3)),
            np.array([[0.7 - 0.2j]]),
            np.zeros((1, 1)),
            normal(6, _complex(rng)),
            generic(2, _complex(rng)),
        ]
        T = _rank_one_blocks(parts, np.ones(sum(len(p) for p in parts)))
        assert _atoms(T).ranks.tolist() == [1, 1, 0, 1, 0, 1, 1]
        monkeypatch.setattr(spectral_analysis, "DISTANCE_CHUNK", chunk)
        for tol in (1e-10, 1e-8, 1e-4):
            jp = joint_point_spectrum(T, tol)
            assert jp == reference_joint_point_spectrum(T, tol)
        expected = [shared, 0.7 - 0.2j, 0.0, np.trace(parts[5])]  # the normal blocks', and 0
        assert hausdorff_distance(joint_point_spectrum(T), expected) <= 1e-7

    def test_a_null_vector_near_the_cutoff_is_kept(self):
        """A normal rank-one block whose eigenvalue lies 0.95 cutoff from
        that of three non-normal ones: their cluster's centroid leaves its
        2 x 2 core a smallest singular value of about 0.71 cutoff, under the
        cutoff, so the cluster is in sigma_jp through that block alone."""
        rng = np.random.default_rng(4)
        lam, tol = 1.0 + 0.5j, 1e-4
        generic = []
        for n in (3, 4, 5):
            x, y = _complex(rng, n, 1), _complex(rng, n, 1)
            generic.append(lam * (x @ y.conj().T) / np.vdot(y, x))
        cutoff = tol * (1.0 + max(np.linalg.norm(p, 2) for p in generic))
        x = _complex(rng, 4, 1)
        parts = generic + [(lam + 0.95 * cutoff) * (x @ x.conj().T) / np.vdot(x, x)]
        T = _rank_one_blocks(parts, np.ones(16))
        assert abs(tol * (1.0 + operator_norm(T)) - cutoff) <= 1e-12 * cutoff
        jp = joint_point_spectrum(T, tol)
        assert jp == reference_joint_point_spectrum(T, tol)
        assert min(abs(np.array(jp) - lam)) <= cutoff

class TestSpectralRadius:
    def test_rank_one(self):
        assert spectral_radius_closed_form(rank_one_wce()) == pytest.approx(1.0)

    def test_symmetric_interval(self):
        n = 30
        W = as_wce(symmetric_interval_example(n))
        # max |x^2 - 1| over the grid is at the point closest to 0
        x_min = 0.5 / n
        assert spectral_radius_closed_form(W) == pytest.approx(1 - x_min**2)

    def test_projection(self):
        space = FiniteMeasureSpace(np.ones(3))
        one = MeasurableFunction.constant(space, 1.0)
        W = build_wce(space, trivial_algebra(3), one, one)
        assert spectral_radius_closed_form(W) == pytest.approx(1.0)

    def test_matches_numeric_radius(self):
        for seed in range(15):
            W = as_wce(random_instance(seed, 10, 4))
            T = to_matrix(W)
            numeric = np.abs(eigenvalues(T)).max()
            closed = spectral_radius_closed_form(W)
            assert abs(closed - numeric) <= 1e-7 * (1 + operator_norm(T))


def _aluthge_iterates(T, n):
    """Delta(T), Delta(Delta(T)), ..., n transforms in all."""
    out = []
    for _ in range(n):
        T = aluthge_numeric(T)
        out.append(T)
    return out


class TestIteratedAluthge:
    def test_fixes_normal_diagonal(self):
        space = FiniteMeasureSpace(np.ones(3))
        T = expectation_operator(space, discrete_algebra(3), np.array([1.0, 2.0, -1.0]))
        for iterate in _aluthge_iterates(T, 3):
            np.testing.assert_allclose(iterate.entries, T.entries, atol=1e-9)

    def test_stabilizes_after_one_step_on_wce(self):
        for seed in range(5):
            T = to_matrix(as_wce(random_instance(seed, 8, 3)))
            d1, d2 = _aluthge_iterates(T, 2)
            assert np.abs(d1.entries - d2.entries).max() <= 1e-8

    def test_nilpotent_collapses_to_zero(self):
        for iterate in _aluthge_iterates(_nilpotent(), 3):
            assert np.abs(iterate.entries).max() <= 1e-12

    def test_norm_sequence_reaches_spectral_radius(self):
        for seed in range(5):
            W = as_wce(random_instance(seed + 20, 8, 3))
            T = to_matrix(W)
            stabilized = operator_norm(aluthge_numeric(T))
            assert stabilized == pytest.approx(
                spectral_radius_closed_form(W), abs=1e-7 * (1 + operator_norm(T))
            )


class TestSigmaPEqualsSigmaJP:
    def test_symmetric_interval(self):
        report = sigma_p_equals_sigma_jp_check(as_wce(symmetric_interval_example(25)))
        assert report.quasi_star_a
        assert report.equal

    def test_normal_singleton_instance(self):
        report = sigma_p_equals_sigma_jp_check(singleton_wce([1, 2j, -1], [1, 1, 1]))
        assert report.quasi_star_a
        assert report.equal

    def test_proportional_instances(self):
        for seed in range(10):
            report = sigma_p_equals_sigma_jp_check(as_wce(proportional_instance(seed, 10, 3)))
            assert report.quasi_star_a, seed
            assert report.equal, seed
            assert report.counterexamples == ()

    def test_non_quasi_instance_reports_without_assertion(self):
        report = sigma_p_equals_sigma_jp_check(rank_one_wce())
        assert not report.quasi_star_a
        assert report.equal is None


class TestJointSpectrumRangeIdentity:
    def test_symmetric_interval(self):
        report = joint_spectrum_range_check(as_wce(symmetric_interval_example(20)))
        assert report.hypothesis_holds
        assert report.nonzero_sets_equal

    def test_constant_one(self):
        space = FiniteMeasureSpace(np.ones(3))
        one = MeasurableFunction.constant(space, 1.0)
        W = build_wce(space, trivial_algebra(3), one, one)
        report = joint_spectrum_range_check(W)
        assert report.hypothesis_holds
        assert report.nonzero_sets_equal
        assert [round(z.real, 9) for z in report.essential_range_nonzero] == [1]

    def test_proportional_instances_nonzero_identity(self):
        for seed in range(10):
            report = joint_spectrum_range_check(as_wce(proportional_instance(seed, 9, 3)))
            assert report.hypothesis_holds, seed
            assert report.nonzero_sets_equal, seed

    def test_kernel_breaks_full_set_identity(self):
        # with more points than blocks the operator has a nontrivial kernel
        # shared with its adjoint, so 0 lies in the joint point spectrum even
        # though E(uw) never vanishes; the full-set identity must be
        # reported as failing, not glossed over
        report = joint_spectrum_range_check(as_wce(proportional_instance(0, 9, 3)))
        assert report.supports_cover_all
        assert report.full_sets_equal is False
        assert any(abs(z) <= 1e-7 for z in report.joint_point_spectrum)
        assert all(abs(z) > 1e-7 for z in report.essential_range_nonzero)

    def test_full_set_identity_holds_without_kernel(self):
        # singleton blocks with nonvanishing uw: full rank, no extra 0
        report = joint_spectrum_range_check(singleton_wce([1, 2, -1], [1, 1, 1]))
        assert report.hypothesis_holds
        assert report.supports_cover_all
        assert report.full_sets_equal

    def test_generic_instance_reports_without_assertion(self):
        report = joint_spectrum_range_check(as_wce(random_instance(0, 8, 2)))
        assert not report.hypothesis_holds
        assert report.nonzero_sets_equal is None
