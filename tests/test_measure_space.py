import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condexp import (
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    conditional_expectation,
    ess_range,
    ess_sup_norm,
    is_algebra_measurable,
    level_set,
    support,
)
from condexp.measure_space import cluster_values

from conftest import discrete_algebra, greedy_cluster_values, make_function, trivial_algebra

#: grid step of the clustering tests; a power of two, so grid values one
#: tolerance apart are exactly one tolerance apart in floating point
GRID = 0.125


@st.composite
def space_algebra_functions(draw, max_points=10, n_functions=2):
    n = draw(st.integers(1, max_points))
    weights = draw(
        st.lists(st.floats(0.05, 4.0, allow_nan=False), min_size=n, max_size=n)
    )
    n_blocks = draw(st.integers(1, n))
    labels = [k % n_blocks for k in range(n)]
    perm = draw(st.permutations(list(range(n))))
    blocks = [[] for _ in range(n_blocks)]
    for pos, point in enumerate(perm):
        blocks[labels[pos]].append(point)
    space = FiniteMeasureSpace(weights)
    algebra = SubSigmaAlgebra(tuple(blocks), n)
    coord = st.floats(-5.0, 5.0, allow_nan=False)
    funcs = []
    for _ in range(n_functions):
        re = draw(st.lists(coord, min_size=n, max_size=n))
        im = draw(st.lists(coord, min_size=n, max_size=n))
        funcs.append(
            MeasurableFunction(np.array(re) + 1j * np.array(im), space)
        )
    return space, algebra, funcs


#: f = 5e-324 at a point of mass 0.5, on the discrete algebra: weighted by
#: its mass before the division it underflows, and E f would read 0 there
_TINY_SPACE = FiniteMeasureSpace([0.5, 1.0])
TINY_VALUE_CASE = (
    _TINY_SPACE,
    discrete_algebra(2),
    (MeasurableFunction(np.array([5e-324, 1.0], dtype=complex), _TINY_SPACE),) * 2,
)


class TestValidation:
    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            FiniteMeasureSpace([1.0, 0.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            FiniteMeasureSpace([1.0, -0.5])

    def test_rejects_weights_whose_total_overflows(self):
        """Finite masses whose sum is inf would make an atom's mass inf and
        its conditional means 0."""
        with pytest.raises(ValueError, match="total mass must be finite"):
            FiniteMeasureSpace([1e308, 1e308])

    def test_rejects_empty_space(self):
        with pytest.raises(ValueError):
            FiniteMeasureSpace([])

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError):
            SubSigmaAlgebra(([0, 1], [1, 2]), 3)

    def test_rejects_incomplete_partition(self):
        with pytest.raises(ValueError):
            SubSigmaAlgebra(([0],), 2)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            SubSigmaAlgebra(([0, 1], []), 2)

    def test_rejects_non_integer_index(self):
        with pytest.raises(ValueError):
            SubSigmaAlgebra(([0, 1.7],), 2)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            SubSigmaAlgebra(([0, 5],), 2)

    @pytest.mark.parametrize(
        "blocks, n, message",
        [
            (([0, 1], [2, -1], [3]), 4, "block 1 contains out-of-range indices"),
            (([0], [1], [2, 9]), 3, "block 2 contains out-of-range indices"),
            ((np.array([0], np.uint64), np.array([2**63 + 1], np.uint64)), 1, "block 1 contains"),
            (([0, 1], [1, 2]), 3, "pairwise disjoint without repeats"),
            (([0, 0, 1],), 2, "pairwise disjoint without repeats"),
            (([0], [2]), 3, "cover every point"),
            ((), 2, "cover every point"),
            (([0], [1.0]), 2, "block 1 contains non-integer indices"),
            (([0], [], [1]), 2, "blocks must be nonempty"),
        ],
    )
    def test_each_rejection_names_its_cause(self, blocks, n, message):
        """The checks run over all blocks at once, and still name the first
        block with an index out of range."""
        with pytest.raises(ValueError, match=message):
            SubSigmaAlgebra(blocks, n)

    def test_labels_and_sorted_blocks(self):
        algebra = SubSigmaAlgebra((np.array([4, 0], np.uint8), [3, 1], (2,)), 5)
        assert algebra.labels.tolist() == [0, 1, 2, 1, 0]
        assert [b.tolist() for b in algebra.blocks] == [[0, 4], [1, 3], [2]]
        assert not algebra.labels.flags.writeable

    @pytest.mark.parametrize(
        "blocks, n", [(([[0, 1], [2, 3]],), 4), ((0,), 1)], ids=["nested", "scalar"]
    )
    def test_rejects_a_block_that_is_not_1d(self, blocks, n):
        """A nested list would otherwise be one atom with a 2 x 2 index array."""
        with pytest.raises(ValueError, match="flat list"):
            SubSigmaAlgebra(blocks, n)

    def test_rejects_wrong_length_function(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        with pytest.raises(ValueError):
            MeasurableFunction([1.0], space)

    def test_rejects_nonfinite_values(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        with pytest.raises(ValueError):
            MeasurableFunction([1.0, np.nan], space)


class TestConditionalExpectation:
    def test_equal_weight_block_average(self):
        space = FiniteMeasureSpace([1, 1, 1, 1])
        algebra = SubSigmaAlgebra(([0, 1], [2, 3]), 4)
        f = make_function(space, [1, 3, 5, 7])
        ef = conditional_expectation(space, algebra, f)
        np.testing.assert_allclose(ef.values, [2, 2, 6, 6])

    def test_singleton_blocks_identity(self):
        space = FiniteMeasureSpace([2.0, 0.5, 1.0])
        algebra = discrete_algebra(3)
        f = make_function(space, [1 + 2j, -3, 0.25])
        ef = conditional_expectation(space, algebra, f)
        np.testing.assert_allclose(ef.values, f.values)

    def test_weighted_block_mean(self):
        # (2*1 + 6*3) / (1 + 3) = 5
        space = FiniteMeasureSpace([1.0, 3.0])
        algebra = trivial_algebra(2)
        f = make_function(space, [2, 6])
        ef = conditional_expectation(space, algebra, f)
        np.testing.assert_allclose(ef.values, [5, 5])

    def test_dimension_mismatch(self):
        space = FiniteMeasureSpace([1.0, 1.0])
        other = FiniteMeasureSpace([1.0, 1.0, 1.0])
        algebra = trivial_algebra(2)
        f = make_function(other, [1, 2, 3])
        with pytest.raises(ValueError):
            conditional_expectation(space, algebra, f)

    @settings(max_examples=60, deadline=None)
    @given(space_algebra_functions())
    def test_idempotent(self, saf):
        space, algebra, (f, _) = saf
        once = conditional_expectation(space, algebra, f)
        twice = conditional_expectation(space, algebra, once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(space_algebra_functions())
    def test_averaging_identity(self, saf):
        space, algebra, (f, _) = saf
        ef = conditional_expectation(space, algebra, f)
        scale = 1e-12 * (1.0 + np.abs(f.values).max())
        for b in algebra.blocks:
            lhs = np.sum(ef.values[b] * space.weights[b])
            rhs = np.sum(f.values[b] * space.weights[b])
            assert abs(lhs - rhs) <= scale * (1.0 + space.weights[b].sum())

    @settings(max_examples=60, deadline=None)
    @given(space_algebra_functions())
    def test_self_adjoint(self, saf):
        space, algebra, (f, g) = saf
        ef = conditional_expectation(space, algebra, f)
        eg = conditional_expectation(space, algebra, g)
        lhs = np.sum(ef.values * np.conj(g.values) * space.weights)
        rhs = np.sum(f.values * np.conj(eg.values) * space.weights)
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-11 * scale

    @settings(max_examples=60, deadline=None)
    @given(space_algebra_functions())
    def test_positivity(self, saf):
        space, algebra, (f, _) = saf
        nonneg = MeasurableFunction(np.abs(f.values), space)
        ef = conditional_expectation(space, algebra, nonneg)
        assert np.all(ef.values.real >= -1e-13)

    @settings(max_examples=60, deadline=None)
    @given(space_algebra_functions())
    def test_conditional_cauchy_schwarz(self, saf):
        space, algebra, (u, w) = saf
        e = lambda f: conditional_expectation(space, algebra, f).values
        lhs = np.abs(e(u * w)) ** 2
        rhs = e(MeasurableFunction(np.abs(u.values) ** 2, space)).real * e(
            MeasurableFunction(np.abs(w.values) ** 2, space)
        ).real
        assert np.all(lhs <= rhs + 1e-9 * (1.0 + rhs))

    @settings(max_examples=30, deadline=None)
    @given(space_algebra_functions())
    @example(TINY_VALUE_CASE)
    def test_full_algebra_is_identity(self, saf):
        space, _, (f, _) = saf
        full = discrete_algebra(space.point_count)
        ef = conditional_expectation(space, full, f)
        np.testing.assert_allclose(ef.values, f.values)


def assert_mask(mask, expected):
    """``mask`` is a read-only boolean mask over the points equal to ``expected``."""
    assert mask.dtype == bool
    assert mask.shape == (len(expected),)
    assert not mask.flags.writeable
    np.testing.assert_array_equal(mask, np.array(expected, dtype=bool))


class TestSupport:
    def test_single_nonzero(self):
        space = FiniteMeasureSpace([1, 1, 1, 1])
        f = make_function(space, [0, 0, 2, 0])
        assert_mask(support(f, 0.0), [False, False, True, False])

    def test_zero_function(self):
        space = FiniteMeasureSpace([1, 1])
        assert_mask(support(make_function(space, [0, 0])), [False, False])

    def test_tolerance_cut(self):
        space = FiniteMeasureSpace([1, 1])
        f = make_function(space, [1e-15, 1])
        assert_mask(support(f, 1e-12), [False, True])

    def test_membership(self):
        space = FiniteMeasureSpace([1] * 6)
        s = support(make_function(space, [0, 3, 0, 1, 0, 2]), 0.0)
        assert s.shape == (6,)
        assert s[1] and s[np.int64(5)]
        assert not s[2] and not s[np.int64(0)]
        np.testing.assert_array_equal(np.flatnonzero(s), [1, 3, 5])
        with pytest.raises(ValueError):
            s[0] = True


class TestEssSupNorm:
    def test_real_values(self):
        space = FiniteMeasureSpace([1, 1, 1])
        assert ess_sup_norm(make_function(space, [1, -3, 2])) == 3

    def test_zero(self):
        space = FiniteMeasureSpace([1])
        assert ess_sup_norm(make_function(space, [0])) == 0

    def test_complex_modulus(self):
        space = FiniteMeasureSpace([1, 1])
        assert ess_sup_norm(make_function(space, [3 + 4j, 1])) == pytest.approx(5)


class TestEssRange:
    def test_two_values(self):
        space = FiniteMeasureSpace([1, 1, 1, 1])
        values = ess_range(make_function(space, [2, 2, 5, 5]))
        assert sorted(v.real for v in values) == [2, 5]

    def test_constant(self):
        space = FiniteMeasureSpace([1, 1])
        values = ess_range(make_function(space, [3 + 1j, 3 + 1j]))
        assert values == [3 + 1j]

    def test_tolerance_clustering(self):
        space = FiniteMeasureSpace([1, 1, 1])
        values = ess_range(make_function(space, [1.0, 1.0 + 1e-12, 7.0]), tol=1e-9)
        assert len(values) == 2
        assert min(abs(v - 1.0) for v in values) < 1e-9
        assert min(abs(v - 7.0) for v in values) == 0


@st.composite
def grid_values(draw):
    """Values on a coarse grid (ties, and pairs exactly a tolerance apart),
    some of them nudged off it."""
    cells = draw(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=40)
    )
    nudges = st.sampled_from([0.0, 0.0, 0.0, 1e-3, -0.07, 0.05 + 0.02j])
    return [complex(i * GRID, j * GRID) + draw(nudges) for i, j in cells]


class TestClusterValues:
    """The sweep that drops centroids behind it against the greedy loop that
    scans every centroid: the same centroids, in the same order, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(grid_values(), st.sampled_from([0.0, GRID, 2 * GRID, 3 * GRID, 0.3]))
    def test_matches_greedy_reference(self, values, tol):
        assert cluster_values(values, tol) == greedy_cluster_values(values, tol)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_greedy_reference_on_tight_clusters(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60)
        noise = 1e-9 * (rng.standard_normal(1200) + 1j * rng.standard_normal(1200))
        values = np.repeat(centers, 20) + noise
        values[::7] = values[::5][: values[::7].size]  # exact ties
        rng.shuffle(values)
        for tol in (1e-8, 1e-3, 0.2):
            assert cluster_values(values, tol) == greedy_cluster_values(values, tol)

    def test_chain_exactly_one_tolerance_apart(self):
        """0, tol, 2 tol, ...: each value is exactly tol from the previous one,
        on the real line and on a vertical line."""
        chain = GRID * np.arange(30)
        for values in (chain, 1j * chain, np.concatenate([chain, chain + 1j * GRID])):
            got = cluster_values(values, GRID)
            assert got == greedy_cluster_values(values, GRID)
        assert cluster_values(chain, GRID)[:2] == [GRID / 2, 2.5 * GRID]

    def test_empty(self):
        assert cluster_values([], 1e-9) == []

    def test_few_distinct_values_with_multiplicities(self):
        """A verify's shape: n values with k << n distinct ones, exact zeros
        many times over, and copies of a value joining a centroid that has
        moved, each by its own update; the centroids equal the greedy
        reference's to the bit."""
        tol = 1e-3
        values = np.concatenate(
            [
                np.zeros(300),
                np.full(7, -0.0),
                np.full(3, 1.0 + 1j),
                np.full(5, 1.0 + 1j + 0.6 * tol),  # joins after the centroid moved
                np.full(4, 1.0 + 1j + 1.2 * tol),  # within tol of the moved centroid
                np.full(6, 0.5 - 0.25j),
            ]
        )
        np.random.default_rng(4).shuffle(values)
        got, reference = cluster_values(values, tol), greedy_cluster_values(values, tol)
        assert len(got) == 3
        assert got == reference
        bits = [np.array(x, dtype=complex).view(np.uint64) for x in (got, reference)]
        assert np.array_equal(*bits)


class TestLevelSet:
    def test_exact(self):
        space = FiniteMeasureSpace([1, 1, 1, 1])
        f = make_function(space, [1, 1, 2, 3])
        assert_mask(level_set(f, 1, tol=0.0), [True, True, False, False])

    def test_missing_value(self):
        space = FiniteMeasureSpace([1, 1])
        f = make_function(space, [1, 2])
        assert_mask(level_set(f, 9), [False, False])

    def test_tolerance(self):
        space = FiniteMeasureSpace([1, 1])
        f = make_function(space, [1 + 1e-12, 5])
        assert_mask(level_set(f, 1, tol=1e-9), [True, False])


class TestAlgebraMeasurable:
    def test_block_constant(self):
        space = FiniteMeasureSpace([1, 1, 1, 1])
        algebra = SubSigmaAlgebra(([0, 1], [2, 3]), 4)
        f = make_function(space, [2, 2, 6, 6])
        assert is_algebra_measurable(f, algebra)

    def test_varies_inside_block(self):
        space = FiniteMeasureSpace([1, 1])
        algebra = trivial_algebra(2)
        f = make_function(space, [1, 2])
        assert not is_algebra_measurable(f, algebra, tol=0.0)

    def test_singleton_blocks_always(self):
        space = FiniteMeasureSpace([1, 1, 1])
        algebra = discrete_algebra(3)
        f = make_function(space, [1, 5, -2j])
        assert is_algebra_measurable(f, algebra)


class TestToleranceValidation:
    """A tolerance must be finite and >= 0, the rule ``Tolerances`` applies:
    a NaN used to pass the ``tol < 0`` test and decide every comparison
    false (empty supports and level sets)."""

    @staticmethod
    def _calls():
        space = FiniteMeasureSpace([1, 1, 1])
        algebra = trivial_algebra(3)
        f = make_function(space, [1, 1, 2])
        return {
            "support": lambda tol: support(f, tol),
            "ess_range": lambda tol: ess_range(f, tol),
            "level_set": lambda tol: level_set(f, 1, tol),
            "is_algebra_measurable": lambda tol: is_algebra_measurable(f, algebra, tol),
        }

    @pytest.mark.parametrize(
        "function", ["support", "ess_range", "level_set", "is_algebra_measurable"]
    )
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9])
    def test_rejects_invalid(self, function, tol):
        with pytest.raises(ValueError, match="finite"):
            self._calls()[function](tol)

    @pytest.mark.parametrize(
        "function", ["support", "ess_range", "level_set", "is_algebra_measurable"]
    )
    def test_accepts_zero(self, function):
        self._calls()[function](0.0)
