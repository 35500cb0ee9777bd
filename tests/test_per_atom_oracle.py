"""The per-atom oracle against the dense one.

An operator built from T = M_w E M_u carries the atoms of its partition, and
every factorization runs on the atom blocks. The same entries given without
blocks form one block, which is the dense whole-matrix oracle; each routine
must agree with it to rounding.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    Instance,
    MeasurableFunction,
    WCEOperator,
    WeightedOperator,
    adjoint,
    aluthge_numeric,
    as_wce,
    build_wce,
    compose,
    eigenvalues,
    expectation_operator,
    fractional_power,
    hausdorff_distance,
    is_hermitian,
    is_normal,
    joint_point_spectrum,
    kernel_projection,
    loewner_geq,
    operator_norm,
    polar_isometry_numeric,
    product_space_example,
    proportional_instance,
    random_instance,
    singular_values,
    symmetric_interval_example,
    to_matrix,
)
from condexp import operator_algebra as oa
from condexp.operator_algebra import (
    _factors,
    _std_blocks,
    gram_power,
    loewner_holds,
    loewner_margins,
)
from condexp.operator_classes import (
    A_CLASS,
    QUASI_STAR_A_CLASS,
    STAR_A_CLASS,
    _class_margins,
)
from condexp.verification import POWERS, Tolerances, summarize, verify_instance

from conftest import multiset_close, two_svd_joint_point_spectrum


def _u_vanishes_on_an_atom(seed):
    inst = random_instance(seed, 24, 4)
    u = inst.u.values.copy()
    u[inst.algebra.blocks[0]] = 0.0
    return build_wce(inst.space, inst.algebra, MeasurableFunction(u, inst.space), inst.w)


def _instances():
    cases = []
    for seed in range(3):
        cases += [
            (f"random-{seed}", as_wce(random_instance(seed, 40, 5))),
            (f"real-{seed}", as_wce(random_instance(seed, 40, 5, complex_valued=False))),
            (f"proportional-{seed}", as_wce(proportional_instance(seed, 40, 5))),
            (f"singletons-{seed}", as_wce(random_instance(seed, 9, 9))),
            (f"one-atom-{seed}", as_wce(random_instance(seed, 12, 1))),
            (f"u-vanishes-{seed}", _u_vanishes_on_an_atom(seed)),
        ]
    cases += [
        ("product", as_wce(product_space_example(4, 20))),
        ("symmetric", as_wce(symmetric_interval_example(12))),
    ]
    return cases


CASES = _instances()


def _pair(W):
    """The per-atom operator of W and the same entries as one block."""
    T = to_matrix(W)
    return T, WeightedOperator(T.entries, T.space)


def _close(A, B, scale):
    return np.abs(A.entries - B.entries).max() <= 1e-10 * (1.0 + scale)


@pytest.mark.parametrize("name, W", CASES, ids=[c[0] for c in CASES])
class TestAgreesWithDense:
    def test_blocks_are_the_atoms(self, name, W):
        T, D = _pair(W)
        assert len(T.blocks) == W.algebra.block_count
        assert len(D.blocks) == 1

    def test_eigenvalues(self, name, W):
        T, D = _pair(W)
        tol = 1e-7 * (1.0 + operator_norm(D))
        assert multiset_close(eigenvalues(T), eigenvalues(D), tol)

    def test_eigenvalues_per_block_match_dense_eigvals(self, name, W):
        """Each block's eigenvalues, from its SVD core where it is rank
        deficient, are the dense eigvals of that block as a multiset."""
        T, _ = _pair(W)
        evals = eigenvalues(T)
        tol = 1e-7 * (1.0 + operator_norm(T))
        start = 0
        for _, m in _std_blocks(T):
            stop = start + len(m)
            assert multiset_close(evals[start:stop], np.linalg.eigvals(m), tol)
            start = stop
        assert start == evals.size

    def test_singular_values(self, name, W):
        T, D = _pair(W)
        s_dense = singular_values(D)
        np.testing.assert_allclose(
            singular_values(T), s_dense, rtol=0, atol=1e-12 * (1.0 + s_dense[0])
        )

    def test_fractional_powers(self, name, W):
        T, D = _pair(W)
        norm = operator_norm(D)
        for p in POWERS:
            for X, Y in ((T, D), (adjoint(T), adjoint(D))):
                per_atom = fractional_power(compose(adjoint(X), X), p)
                dense = fractional_power(compose(adjoint(Y), Y), p)
                assert len(per_atom.blocks) == len(T.blocks)
                assert _close(per_atom, dense, norm ** (2 * p)), p
                # the same power read off X's factors (T*'s are T's swapped)
                assert _close(gram_power(X, p), dense, norm ** (2 * p)), p

    def test_modulus_polar_aluthge(self, name, W):
        T, D = _pair(W)
        norm = operator_norm(D)
        for X, Y in ((T, D), (adjoint(T), adjoint(D))):
            assert _close(gram_power(X, 0.5), gram_power(Y, 0.5), norm)
            assert _close(polar_isometry_numeric(X), polar_isometry_numeric(Y), 1.0)
            assert _close(aluthge_numeric(X), aluthge_numeric(Y), norm)

    def test_kernel_projections(self, name, W):
        T, _ = _pair(W)
        for X in (T, polar_isometry_numeric(T)):
            Y = WeightedOperator(X.entries, X.space)
            dense = kernel_projection(Y)
            projection = kernel_projection(X)
            assert _close(projection, dense, 1.0)
            # the trace of a projection is the dimension of its range
            nullity = [round(np.trace(P.entries).real) for P in (projection, dense)]
            assert nullity[0] == nullity[1]

    def test_loewner_and_normality(self, name, W):
        T, D = _pair(W)
        for X in (T, D):
            assert is_normal(X) == is_normal(D)
        for X, Y in ((T, D), (adjoint(T), adjoint(D))):
            mod_x, mod_y = gram_power(X, 0.5), gram_power(Y, 0.5)
            mod_sq_x = gram_power(compose(X, X), 0.5)
            mod_sq_y = gram_power(compose(Y, Y), 0.5)
            assert loewner_geq(mod_sq_x, compose(mod_x, mod_x)) == loewner_geq(
                mod_sq_y, compose(mod_y, mod_y)
            )
            assert loewner_geq(compose(mod_x, mod_x), mod_sq_x) == loewner_geq(
                compose(mod_y, mod_y), mod_sq_y
            )

    def test_joint_point_spectrum(self, name, W):
        T, D = _pair(W)
        per_atom, dense = joint_point_spectrum(T), joint_point_spectrum(D)
        assert len(per_atom) == len(dense)
        assert hausdorff_distance(per_atom, dense) <= 1e-7 * (1.0 + operator_norm(D))

    def test_joint_point_spectrum_matches_two_svd_reference(self, name, W):
        for X in _pair(W):
            assert joint_point_spectrum(X) == two_svd_joint_point_spectrum(X)


class TestBlocks:
    def test_entries_outside_the_blocks_are_rejected(self):
        T = to_matrix(as_wce(random_instance(0, 10, 3)))
        entries = T.entries.copy()
        a, b = T.blocks[0][0], T.blocks[1][0]
        entries[a, b] = 1e-3
        with pytest.raises(ValueError, match="outside the blocks"):
            WeightedOperator(entries, T.space, T.blocks)
        WeightedOperator(entries, T.space)  # one block: any matrix

    @pytest.mark.parametrize(
        "blocks", [([0, 1], [1, 2]), ([0, 1],), ([0, 1], [2, 5]), ([0, 1], []), ([0, 1.0], [2])]
    )
    def test_blocks_must_partition_the_points(self, blocks):
        T = WeightedOperator(np.eye(3), random_instance(0, 3, 1).space)
        with pytest.raises(ValueError):
            WeightedOperator(T.entries, T.space, blocks)

    def test_products_keep_shared_blocks_only(self):
        T = to_matrix(as_wce(random_instance(1, 12, 3)))
        assert compose(T, adjoint(T)).blocks is T.blocks
        D = WeightedOperator(T.entries, T.space)
        mixed = compose(T, D)
        assert len(mixed.blocks) == 1
        np.testing.assert_allclose(mixed.entries, T.entries @ T.entries)

    def test_blocks_built_from_finite_cores_are_checked_finite(self):
        """Every block is checked finite: on weights 1e-300 and 1e300 the
        value-coordinate blocks of T* and of T's derived operators scale
        finite cores by sqrt(mu_j / mu_i) = 1e300 and overflow. The adjoint
        of T, held as its blocks, builds them at once and is refused; the
        derived operators, held as their lines, are refused by every reader
        of their blocks."""
        space = FiniteMeasureSpace(np.array([1e-300, 1e300]))
        d = np.sqrt(space.weights)
        standard = np.array([[0.0, 0.0], [1e9, 1e9]])
        T = WeightedOperator((standard / d[:, None]) * d[None, :], space, [np.arange(2)])
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="must be finite"):
                adjoint(T)
            for op in (gram_power(T, 1), aluthge_numeric(T)):
                for read in (lambda: list(oa._block_parts(op)), lambda: is_hermitian(op)):
                    with pytest.raises(ValueError, match="must be finite"):
                        read()
                with pytest.raises(ValueError, match="must be finite"):
                    op.parts

    def test_fractional_power_builds_each_lazy_block_once(self, monkeypatch):
        """fractional_power of an operator held as its lines, or of its
        adjoint, held as its lines too, builds each block once for both the
        self-adjointness test and eigh, and the operator keeps none."""
        built = _count_block_builds(monkeypatch)
        T = to_matrix(as_wce(random_instance(1, 24, 4)))
        G = gram_power(T, 1.0)
        built.clear()
        root = fractional_power(G, 0.5)
        assert built == [0, 1, 2, 3]
        built.clear()
        fractional_power(adjoint(G), 0.5)
        assert built == [0, 1, 2, 3]
        assert G._parts is None and adjoint(G)._parts is None
        held = WeightedOperator(G.entries, G.space, G.blocks)
        np.testing.assert_allclose(root.entries, fractional_power(held, 0.5).entries, atol=1e-12)


def _count_block_builds(monkeypatch) -> list:
    """A list that records the index of each block the one builder
    (``_built_block``) builds from now on."""
    built = []

    def counted(T, k, _original=oa._built_block):
        built.append(k)
        return _original(T, k)

    monkeypatch.setattr(oa, "_built_block", counted)
    return built


FOUR_ATOMS = pytest.mark.parametrize(
    "instance",
    [random_instance(5, 64, 4), product_space_example(4, 20)],
    ids=["random", "product"],
)


@FOUR_ATOMS
def test_no_factorization_larger_than_an_atom(monkeypatch, instance):
    """Every numpy.linalg factorization during verify runs on one atom block."""
    largest = max(b.size for b in instance.algebra.blocks)
    orders = []
    for name in ("svd", "eigvals", "eigh", "eigvalsh", "norm"):

        def probe(a, *args, _original=getattr(np.linalg, name), **kwargs):
            a = np.asarray(a)
            if a.ndim >= 2:
                orders.append(max(a.shape[-2:]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, probe)
    assert summarize(verify_instance(instance))["all_passed"]
    assert orders
    assert max(orders) <= largest < instance.space.point_count


@FOUR_ATOMS
def test_no_matrix_larger_than_an_atom(monkeypatch, instance):
    """During verify no operator holds an array larger than the largest atom
    squared, and no n x n matrix is assembled."""
    largest = max(b.size for b in instance.algebra.blocks)
    sizes = []

    def recorded(op, _original=WeightedOperator.__post_init__):
        _original(op)
        sizes.append(max(p.size for p in op.parts))

    def no_entries(op):
        raise AssertionError("the n x n matrix was assembled")

    monkeypatch.setattr(WeightedOperator, "__post_init__", recorded)
    monkeypatch.setattr(WeightedOperator, "entries", property(no_entries))
    assert summarize(verify_instance(instance))["all_passed"]
    assert sizes
    assert max(sizes) <= largest**2 < instance.space.point_count ** 2


@FOUR_ATOMS
def test_eigenvalues_computed_once_per_atom(monkeypatch, instance):
    """verify reads T's eigenvalues once per atom, s g in closed form from
    T's factors: no numpy.linalg.eigvals call and no block built; they are
    the eigenvalues of T's blocks."""
    calls, built = [], []

    def probe(a, *args, _original=np.linalg.eigvals, **kwargs):
        calls.append(np.shape(a))
        return _original(a, *args, **kwargs)

    def counted(T, k, _original=oa._built_block):
        built.append(k)
        return _original(T, k)

    monkeypatch.setattr(np.linalg, "eigvals", probe)
    monkeypatch.setattr(oa, "_built_block", counted)
    verify_instance(instance)
    assert calls == [] and built == []
    T = to_matrix(as_wce(instance))
    dense = np.concatenate([np.linalg.eigvals(m) for _, m in _std_blocks(T)])
    monkeypatch.undo()
    assert multiset_close(eigenvalues(T), dense, 1e-12 * (1.0 + operator_norm(T)))


@FOUR_ATOMS
def test_verify_reads_t_through_its_svd(monkeypatch, instance):
    """During verify no eigh and no eigvals runs, and no values-only SVD
    runs on a block of T: T's eigenvalues are s g on each atom, read off
    its factors."""
    t_blocks = [m for _, m in _std_blocks(to_matrix(as_wce(instance)))]
    calls = {"eigh": [], "eigvals": [], "svd": []}
    for name in calls:

        def probe(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name].append((np.asarray(a), kwargs.get("compute_uv", True)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, probe)
    assert summarize(verify_instance(instance))["all_passed"]
    assert calls["eigh"] == [] and calls["eigvals"] == []
    values_only = [a for a, with_vectors in calls["svd"] if not with_vectors]
    assert not any(np.array_equal(a, m) for a in values_only for m in t_blocks)


@FOUR_ATOMS
def test_joint_point_spectrum_factors_only_the_cores(monkeypatch, instance):
    """With T's factors warm, the joint point spectrum runs no qr (the joint
    cores are read off T's record) and SVDs of the at most 2 x 2 cores of
    the rank-one atoms, stacked over the atoms and shifts, and no
    |B| x |B| SVD; it gives the two-SVD verdicts."""
    T = to_matrix(as_wce(instance))
    _factors(T)
    calls = {"svd": [], "qr": []}
    for name in calls:

        def probe(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, probe)
    jp = joint_point_spectrum(T)
    monkeypatch.undo()
    assert calls["qr"] == []
    assert calls["svd"]
    assert max(max(shape[-2:]) for shape in calls["svd"]) <= 2
    assert 0.0 in jp
    assert jp == two_svd_joint_point_spectrum(T)


def test_kernel_projection_of_an_oracle_built_operator_factors_only_its_cores(monkeypatch):
    """The polar isometry and the Aluthge transform keep their 1 x 1 cores,
    so their kernel projections read their factors off those in closed
    form, with no LAPACK call and no |B| x |B| block factored; they match
    the one-block projections of the same entries."""
    T = to_matrix(as_wce(product_space_example(4, 80)))
    built = [polar_isometry_numeric(T), aluthge_numeric(T)]
    orders = []
    for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr"):

        def probe(a, *args, _original=getattr(np.linalg, name), **kwargs):
            orders.append(max(np.shape(a)[-2:]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, probe)
    projections = [kernel_projection(X) for X in built]
    monkeypatch.undo()
    assert orders == []
    for X, projection in zip(built, projections):
        dense = kernel_projection(WeightedOperator(X.entries, X.space))
        assert _close(projection, dense, 1.0)


@FOUR_ATOMS
def test_verify_factors_neither_t_squared_nor_its_aluthge(monkeypatch, instance):
    """The class margins read T^2 and the second Aluthge transform reads
    Delta(T) off T's factors: no SVD runs on a block of T^2 or of Delta(T),
    and verify makes no full-size factorization of any block: T is
    factored from its 1 x 1 cores, whatever the size of its atoms, and the
    polar residuals are measured on 2 x 2 cores."""
    T = to_matrix(as_wce(instance))
    derived = [m for X in (compose(T, T), aluthge_numeric(T)) for _, m in _std_blocks(X)]
    sizes = {b.size for b in T.blocks}
    derived_svds, full_size = [], []
    for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr"):

        def probe(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            a = np.asarray(a)
            if _name == "svd" and any(np.array_equal(a, m) for m in derived):
                derived_svds.append(a.shape)
            if a.ndim == 2 and a.shape[0] == a.shape[1] and a.shape[0] in sizes:
                full_size.append((_name, a.shape))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, probe)
    assert summarize(verify_instance(instance))["all_passed"]
    assert derived_svds == []
    assert full_size == []


def _memo_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _memo_arrays(item)


def _small_memo(T) -> bool:
    """Apart from T's flat factors (2 x n x R lines) and the lines T is
    held as (2 x n x 1, its definition), no array memoized on T, nor the
    array it views, has two or more axes and more than blocks x (2R)^2
    entries: no |B| x |B| U or V^H and no n x 2R joint basis stays alive,
    only cores of at most 2R x 2R per atom."""
    factors = _factors(T)
    arrays = [a for a in _memo_arrays(list(T._memo.values())) if a.ndim >= 2]
    owned = [a if a.base is None else a.base for a in arrays]
    bound = len(T.blocks) * (2 * factors.s.shape[1]) ** 2
    exempt = (factors.lines, T._memo[oa._LINES].lines)
    assert any(np.shares_memory(a, factors.lines) for a in owned)
    return all(a.size <= bound or any(np.shares_memory(a, e) for e in exempt) for a in owned)


@FOUR_ATOMS
def test_adjoint_aluthge_keeps_no_copies_of_t_svd(instance):
    """T*'s factors are T's swapped, views of the same arrays: the Aluthge
    transform of T* memoizes no |B| x |B| array on T*, only its flat
    factors and r x r cores."""
    T = to_matrix(as_wce(instance))
    t_star = adjoint(T)
    aluthge_numeric(t_star)
    assert _small_memo(t_star)
    factors, swapped = _factors(T), _factors(t_star)
    assert np.shares_memory(swapped.lines, factors.lines) and swapped.s is factors.s
    assert np.array_equal(swapped.lines, factors.lines[::-1])


@FOUR_ATOMS
def test_t_memoizes_no_full_size_factor(instance):
    """After the norm, the eigenvalues, the class margins, the joint point
    spectrum and the normality check, T keeps only its flat factors and at
    most 2r x 2r joint cores of its rank-one atoms (``_small_memo``)."""
    T = to_matrix(as_wce(instance))
    operator_norm(T)
    eigenvalues(T)
    _class_margins(T)
    joint_point_spectrum(T)
    is_normal(T)
    assert _small_memo(T)


@pytest.mark.parametrize("read", [_class_margins, is_normal], ids=["class_margins", "is_normal"])
def test_class_margins_and_normality_peak_below_one_atom_block(read):
    """With T's factors memoized, the class margins and the normality check
    read only T's joint cores: on product_space_example(4, 80) with w = 1
    each peaks below 16 max |B|^2 bytes, one atom's complex block."""
    instance = product_space_example(4, 80)
    instance = instance._replace(w=MeasurableFunction.constant(instance.space, 1.0))
    read(to_matrix(as_wce(instance)))  # warm: first-call allocations are not read's
    T = to_matrix(as_wce(instance))
    _factors(T)
    gc.collect()
    tracemalloc.start()
    try:
        read(T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * max(b.size for b in instance.algebra.blocks) ** 2


@pytest.mark.parametrize("name, W", CASES, ids=[c[0] for c in CASES])
def test_class_margins_match_the_composed_operators(name, W):
    """The class margins read off T's factors give the verdicts of the
    generic route, loewner_margins on the composed |T^2|, |T|^2, |T*|^2 and
    T*(.)T, at both class tolerances, and the same eigenvalue margins."""
    T = to_matrix(W)
    t_star = adjoint(T)
    mod_t2 = gram_power(compose(T, T), 0.5)
    mod_sq = compose(gram_power(T, 0.5), gram_power(T, 0.5))
    adj_sq = compose(gram_power(t_star, 0.5), gram_power(t_star, 0.5))
    generic = {
        A_CLASS: loewner_margins(mod_t2, mod_sq),
        STAR_A_CLASS: loewner_margins(mod_t2, adj_sq),
        QUASI_STAR_A_CLASS: loewner_margins(
            compose(compose(t_star, mod_t2), T), compose(compose(t_star, adj_sq), T)
        ),
    }
    margins = _class_margins(T)
    scale = (1.0 + operator_norm(T)) ** 4
    for cls, reference in generic.items():
        for tol in (Tolerances().psd, Tolerances().match):
            assert loewner_holds(margins[cls], tol) == loewner_holds(reference, tol), cls
        np.testing.assert_allclose(
            [margins[cls].smallest, margins[cls].norm],
            [reference.smallest, reference.norm],
            rtol=0,
            atol=1e-12 * scale,
        )


#: bound on the tracemalloc peak of one verify, in units of 16 sum |B|^2 bytes
#: (the complex blocks of T): measured 4.3 (random) and 3.3 (product), so
#: the bound leaves 40% headroom
VERIFY_PEAK_PER_BLOCK_BYTE = 6.2


@FOUR_ATOMS
def test_verify_peak_memory_is_a_multiple_of_the_blocks(instance):
    """Each side of a verify frees its operators once its checks are made,
    and the comparison kernel works in bounded groups of atoms, so the
    peak stays a small multiple of T's blocks."""
    verify_instance(instance)  # warm: first-call allocations are not verify's
    gc.collect()
    tracemalloc.start()
    try:
        verify_instance(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = 16 * sum(b.size**2 for b in instance.algebra.blocks)
    assert peak < VERIFY_PEAK_PER_BLOCK_BYTE * block_bytes


def _one_block_matrix(W):
    T = expectation_operator(W.space, W.algebra, W.w.values, W.u.values)
    return WeightedOperator(T.entries, T.space)


@pytest.mark.parametrize("name, W", CASES, ids=[c[0] for c in CASES])
def test_verify_agrees_with_t_as_one_block(monkeypatch, name, W):
    """All of verify with T forced into one dense block gives the per-atom
    verdicts, with margins within 1e-12."""
    instance = Instance(W.space, W.algebra, W.u, W.w)
    per_atom = verify_instance(instance)
    monkeypatch.setattr(WCEOperator, "_matrix", property(_one_block_matrix))
    assert len(to_matrix(W).blocks) == 1
    dense = verify_instance(instance)
    assert [(c.name, c.passed) for c in dense] == [(c.name, c.passed) for c in per_atom]
    np.testing.assert_allclose(
        [c.margin for c in dense], [c.margin for c in per_atom], rtol=0, atol=1e-12
    )
