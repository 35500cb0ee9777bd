"""The per-atom oracle against the dense reference.

An operator built from T = M_w E M_u carries the atoms of its partition,
and every question is read off its per-atom record. The dense reference
(``dense_reference``) answers the same questions with plain numpy on T's
one n x n standard-coordinate matrix M; each must agree with it to
rounding.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    MeasurableFunction,
    WeightedOperator,
    adjoint,
    aluthge_numeric,
    as_wce,
    build_wce,
    eigenvalues,
    expectation_operator,
    is_a_class_definitional,
    is_normal,
    is_quasi_star_a_definitional,
    is_star_a_definitional,
    joint_point_spectrum,
    operator_norm,
    polar_isometry_closed_form,
    product_space_example,
    proportional_instance,
    random_instance,
    singular_values,
    symmetric_interval_example,
    to_matrix,
)
from condexp import operator_algebra as oa
from condexp.operator_algebra import _Lines, gram_power, loewner_holds
from condexp.operator_classes import (
    A_CLASS,
    QUASI_STAR_A_CLASS,
    STAR_A_CLASS,
    _class_margins,
)
from condexp.verification import POWERS, Tolerances, summarize, verify_instance

import dense_reference as dense
from conftest import multiset_close, reference_joint_point_spectrum, standard, standard_blocks


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


def _close(X, reference, scale):
    return np.abs(standard(X) - reference).max() <= 1e-10 * (1.0 + scale)


@pytest.mark.parametrize("name, W", CASES, ids=[c[0] for c in CASES])
class TestAgreesWithDense:
    def test_blocks_are_the_atoms(self, name, W):
        assert len(to_matrix(W).blocks) == W.algebra.block_count

    def test_eigenvalues(self, name, W):
        T = to_matrix(W)
        m = standard(T)
        tol = 1e-7 * (1.0 + dense.norm(m))
        assert multiset_close(eigenvalues(T), dense.eigenvalues(m), tol)

    def test_eigenvalues_per_block_match_dense_eigvals(self, name, W):
        """Each block's eigenvalues, read off the record, are the dense
        eigvals of that block as a multiset."""
        T = to_matrix(W)
        evals = eigenvalues(T)
        tol = 1e-7 * (1.0 + operator_norm(T))
        start = 0
        for _, m in standard_blocks(T):
            stop = start + len(m)
            assert multiset_close(evals[start:stop], np.linalg.eigvals(m), tol)
            start = stop
        assert start == evals.size

    def test_singular_values(self, name, W):
        T = to_matrix(W)
        s_dense = np.linalg.svd(standard(T), compute_uv=False)
        np.testing.assert_allclose(
            singular_values(T), s_dense, rtol=0, atol=1e-12 * (1.0 + s_dense[0])
        )

    def test_fractional_powers(self, name, W):
        """The powers of T*T and of TT*, read off T's record and off T*'s,
        T's swapped."""
        T = to_matrix(W)
        m = standard(T)
        norm = dense.norm(m)
        for p in POWERS:
            for X, mx in ((T, m), (adjoint(T), m.conj().T)):
                assert len(gram_power(X, p).blocks) == len(T.blocks)
                assert _close(gram_power(X, p), dense.gram_power(mx, p), norm ** (2 * p)), p

    def test_modulus_and_aluthge(self, name, W):
        T = to_matrix(W)
        m = standard(T)
        norm = dense.norm(m)
        for X, mx in ((T, m), (adjoint(T), m.conj().T)):
            assert _close(gram_power(X, 0.5), dense.gram_power(mx, 0.5), norm)
            assert _close(aluthge_numeric(X), dense.aluthge(mx), norm)

    def test_normality(self, name, W):
        T = to_matrix(W)
        assert is_normal(T) == dense.is_normal(standard(T), Tolerances().psd)

    def test_joint_point_spectrum(self, name, W):
        T = to_matrix(W)
        assert joint_point_spectrum(T) == reference_joint_point_spectrum(T)


class TestBlocks:
    def test_blocks_built_from_finite_cores_are_checked_finite(self):
        """Every block is checked finite: on weights 1e-300 and 1e300 the
        value-coordinate blocks of T* and of T's derived operators scale
        finite cores by sqrt(mu_j / mu_i) = 1e300 and overflow. Each is
        held as its lines and refused by every reader of its blocks; T's
        own block is finite."""
        space = FiniteMeasureSpace(np.array([1e-300, 1e300]))
        # the standard-coordinate block [[0, 0], [1e9, 1e9]] as its lines
        lines = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)[..., None]
        lines[1] /= np.sqrt(2.0)
        core = np.array([[[1e9 * np.sqrt(2.0)]]], dtype=complex)
        held = _Lines(np.array([0]), np.array([2]), lines, core)
        T = WeightedOperator(space, (np.arange(2),), {oa._LINES: held})
        assert np.isfinite(T.entries).all()
        with np.errstate(all="ignore"):
            for op in (adjoint(T), gram_power(T, 1), aluthge_numeric(T)):
                for read in (lambda: op.parts, lambda: op.entries):
                    with pytest.raises(ValueError, match="must be finite"):
                        read()


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
    dense = np.concatenate([np.linalg.eigvals(m) for _, m in standard_blocks(T)])
    monkeypatch.undo()
    assert multiset_close(eigenvalues(T), dense, 1e-12 * (1.0 + operator_norm(T)))


@FOUR_ATOMS
def test_verify_reads_t_through_its_svd(monkeypatch, instance):
    """During verify no eigh and no eigvals runs, and no values-only SVD
    runs on a block of T: T's eigenvalues are s g on each atom, read off
    its factors."""
    t_blocks = [m for _, m in standard_blocks(to_matrix(as_wce(instance)))]
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
    |B| x |B| SVD; it gives the dense reference's verdicts."""
    T = to_matrix(as_wce(instance))
    oa._atoms(T)
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
    assert jp == reference_joint_point_spectrum(T)


@FOUR_ATOMS
def test_verify_factors_neither_t_squared_nor_its_aluthge(monkeypatch, instance):
    """The class margins read T^2 and the second Aluthge transform reads
    Delta(T) off T's factors: no SVD runs on a block of T^2 or of Delta(T),
    and verify makes no full-size factorization of any block: T is
    factored from its 1 x 1 cores, whatever the size of its atoms, and the
    polar residuals are measured on 2 x 2 cores."""
    T = to_matrix(as_wce(instance))
    squares = [m @ m for _, m in standard_blocks(T)]
    derived = squares + [m for _, m in standard_blocks(aluthge_numeric(T))]
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
    """Apart from the lines of T's record (2 x n x R) and the lines T is
    held as (2 x n x 1, its definition), no array memoized on T, nor the
    array it views, has two or more axes and more than blocks x (2R)^2
    entries: no |B| x |B| U or V^H and no n x 2R joint basis stays alive,
    only cores of at most 2R x 2R per atom."""
    record = oa._atoms(T)
    arrays = [a for a in _memo_arrays(list(T._memo.values())) if a.ndim >= 2]
    owned = [a if a.base is None else a.base for a in arrays]
    bound = len(T.blocks) * (2 * record.lines.shape[-1]) ** 2
    exempt = (record.lines, T._memo[oa._LINES].lines)
    assert any(np.shares_memory(a, record.lines) for a in owned)
    return all(a.size <= bound or any(np.shares_memory(a, e) for e in exempt) for a in owned)


@FOUR_ATOMS
def test_adjoint_aluthge_keeps_no_copies_of_t_svd(instance):
    """T*'s record is T's swapped, views of the same arrays: the Aluthge
    transform of T* memoizes no |B| x |B| array on T*, only its record
    and r x r cores."""
    T = to_matrix(as_wce(instance))
    t_star = adjoint(T)
    aluthge_numeric(t_star)
    assert _small_memo(t_star)
    record, swapped = oa._atoms(T), oa._atoms(t_star)
    assert np.shares_memory(swapped.lines, record.lines) and swapped.s is record.s
    assert np.array_equal(swapped.lines, record.lines[::-1])


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
    oa._atoms(T)
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
    """The class margins read off T's record give the verdicts of the dense
    reference, the Loewner margins of the composed |T^2|, |T|^2, |T*|^2 and
    T*(.)T, at both class tolerances, and the same eigenvalue margins."""
    T = to_matrix(W)
    references = dense.class_margins(standard(T))
    margins = _class_margins(T)
    scale = (1.0 + operator_norm(T)) ** 4
    for cls, reference in zip((A_CLASS, STAR_A_CLASS, QUASI_STAR_A_CLASS), references):
        for tol in (Tolerances().psd, Tolerances().match):
            assert loewner_holds(margins[cls], tol) == dense.loewner_geq(reference, tol), cls
        np.testing.assert_allclose(
            [margins[cls].smallest, margins[cls].norm],
            reference[2:],
            rtol=0,
            atol=1e-12 * scale,
        )


#: bound on the tracemalloc peak of one verify, in units of 16 sum |B|^2 bytes
#: (the complex blocks of T): measured 5.95 (random) and 4.46 (product) with
#: the closed forms held as arrays on the points, 5.20 and 3.57 with them held
#: per atom on shared bases, so the bound leaves 19% headroom
VERIFY_PEAK_PER_BLOCK_BYTE = 6.2


@FOUR_ATOMS
def test_verify_peak_memory_is_a_multiple_of_the_blocks(instance):
    """A verify holds its closed forms per atom and the comparison kernel
    works in bounded groups of atoms, so the peak stays a small multiple
    of T's blocks."""
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


#: bound on the tracemalloc peak of one verify of random_instance(0, 20_000,
#: 200), in bytes per point above its input: measured 352 with the closed
#: forms held per atom on shared bases (433 with them held as arrays on the
#: points), so the bound leaves 14% headroom
VERIFY_PEAK_PER_POINT = 400


def test_verify_peak_memory_per_point():
    """A verify of 20,000 points in 200 atoms holds W, T, the oracle's
    records and the kernel's bounded working set, and no closed form as
    arrays on the points."""
    instance = random_instance(0, 20_000, 200)
    verify_instance(instance)  # warm: first-call allocations are not verify's
    gc.collect()
    tracemalloc.start()
    try:
        verify_instance(instance)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < VERIFY_PEAK_PER_POINT * instance.space.point_count


#: the definitional class tests and the reference's class margins, in order
DEFINITIONAL = (is_a_class_definitional, is_star_a_definitional, is_quasi_star_a_definitional)


@pytest.mark.parametrize("name, W", CASES, ids=[c[0] for c in CASES])
def test_verify_agrees_with_t_as_one_block(name, W):
    """Every value a verify reads off the oracle is the dense reference's on
    T's one n x n matrix M: the operators it compares within 1e-12 in the
    L2(mu) norm (the powers of T*T and of TT*, the Aluthge transforms of T,
    of that transform and of T*, and the closed-form polar isometry against
    M's), ||T|| and r(T) within 1e-12, the eigenvalues within
    1e-12 (1 + ||T||), and the same class verdicts at both class
    tolerances, sigma_jp and normality. By the triangle inequality every
    operator check's margin is then within 1e-12 of the reference's."""
    T = to_matrix(W)
    t_star, m = adjoint(T), standard(T)
    mh = m.conj().T
    alu = aluthge_numeric(T)
    pairs = [(gram_power(X, p), dense.gram_power(mx, p)) for p in POWERS for X, mx in ((T, m), (t_star, mh))]
    pairs += [
        (alu, dense.aluthge(m)),
        (aluthge_numeric(alu), dense.aluthge(dense.aluthge(m))),
        (aluthge_numeric(t_star), dense.aluthge(mh)),
        (t_star, mh),
        (expectation_operator(W.space, W.algebra, *polar_isometry_closed_form(W)), dense.polar_isometry(m)),
    ]
    for X, reference in pairs:
        assert dense.norm(standard(X) - reference) <= 1e-12
    norm = operator_norm(T)
    evals, reference_evals = eigenvalues(T), dense.eigenvalues(m)
    assert abs(norm - dense.norm(m)) <= 1e-12
    assert abs(np.abs(evals).max() - np.abs(reference_evals).max()) <= 1e-12
    assert multiset_close(evals, reference_evals, 1e-12 * (1.0 + norm))
    tols = Tolerances()
    for definitional, margins in zip(DEFINITIONAL, dense.class_margins(m)):
        for tol in (tols.psd, tols.match):
            assert definitional(T, tol) == dense.loewner_geq(margins, tol), definitional.__name__
    assert joint_point_spectrum(T, tols.match) == reference_joint_point_spectrum(T, tols.match)
    assert is_normal(T, tols.psd) == dense.is_normal(m, tols.psd)
