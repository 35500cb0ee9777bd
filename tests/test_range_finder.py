"""Factors of an operator held as its blocks against the dense SVD of each
block.

``_factors`` takes the full SVD of each standard-coordinate block of an
operator held as its blocks (the dense reference, ``compose``,
``fractional_power``, ``kernel_projection``, an adjoint whose operator is
gone): one ``svd`` call per block, logged at DEBUG, and no ``qr``. The
reference is numpy's SVD of
each block, cut at DEFAULT_RANK_TOL times the largest singular value of any
block: the ranks must match it exactly and the kept values to 1e-12 of the
largest. The flat factors of blocks of mixed ranks, and every question read
off them, are checked against the dense per-block references too.
"""

import gc
import logging

import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    WeightedOperator,
    adjoint,
    compose,
    eigenvalues,
    fractional_power,
    is_normal,
    joint_point_spectrum,
    kernel_projection,
    operator_norm,
    singular_values,
)
from condexp import operator_algebra as oa
from condexp.operator_algebra import (
    DEFAULT_RANK_TOL,
    _factors,
    _std_blocks,
    gram_power,
    loewner_holds,
    loewner_margins,
)
from condexp.operator_classes import A_CLASS, QUASI_STAR_A_CLASS, STAR_A_CLASS, _class_margins

from conftest import block_factors, multiset_close, two_svd_joint_point_spectrum


def _block(rng, size, values):
    """A complex size x size matrix with these singular values, zeros beyond."""
    bases = [
        np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
        for _ in range(2)
    ]
    s = np.zeros(size)
    s[: len(values)] = values
    return (bases[0] * s) @ bases[1].conj().T


def _operator(spec, seed=0, order=None):
    """The operator on random weights whose standard-coordinate blocks have
    the (size, singular values) of ``spec``, over consecutive indices,
    listed in ``order`` (default: as given)."""
    rng = np.random.default_rng(seed)
    mats = [_block(rng, size, values) for size, values in spec]
    weights = rng.uniform(0.5, 2.0, sum(len(m) for m in mats))
    d = np.sqrt(weights)
    entries = np.zeros((len(weights), len(weights)), dtype=complex)
    blocks, start = [], 0
    for m in mats:
        b = np.arange(start, start + len(m))
        entries[np.ix_(b, b)] = (m / d[b][:, None]) * d[b][None, :]
        blocks.append(b)
        start += len(m)
    order = range(len(blocks)) if order is None else order
    return WeightedOperator(entries, FiniteMeasureSpace(weights), [blocks[k] for k in order])


def _dense_reference(T) -> list:
    """The singular values of each standard-coordinate block above the one
    rank cutoff, by the full SVD of each block."""
    values = [np.linalg.svd(m, compute_uv=False) for _, m in _std_blocks(T)]
    cutoff = DEFAULT_RANK_TOL * max(s.max() for s in values)
    return [s[s > cutoff] for s in values]


#: (size, singular values) per block: "certificate-fallback" has rank 5,
#: and "rank-cut-fallback" values at the rank cutoff
CASES = {
    "rank-0": [(24, [1.0]), (20, [])],
    "rank-1": [(32, [2.0])],
    "rank-2": [(32, [1.0, 0.3]), (16, [0.7])],
    "rank-4": [(64, [1.0, 0.5, 0.3, 0.2])],
    "full-rank": [(20, np.linspace(1.0, 0.1, 20))],
    "just-above-and-below-the-cut": [(40, [1.0, 1.001e-10]), (40, [0.5, 0.999e-10])],
    "certificate-fallback": [(64, [1.0, 0.5, 0.3, 0.2, 0.1])],
    "rank-cut-fallback": [(64, [1.0, 1e-10 + 3e-15] + [5e-15] * 10)],
}


def _assert_full_svd_of_each_block(monkeypatch, T):
    """T's factors are the full SVD of each block: one ``svd`` call per
    block, each on the whole block, in block order, and no ``qr``; they
    match the dense reference."""
    calls = []

    def probe(routine):
        def counted(a, *args, _original=getattr(np.linalg, routine), **kwargs):
            calls.append((routine, np.shape(a)))
            return _original(a, *args, **kwargs)

        return counted

    for routine in ("svd", "qr"):
        monkeypatch.setattr(np.linalg, routine, probe(routine))
    factors = list(block_factors(T))
    monkeypatch.undo()
    assert calls == [("svd", (b.size, b.size)) for b in T.blocks]
    reference = _dense_reference(T)
    largest = max(s.max(initial=0.0) for s in reference)
    for (_, x, s, y), (_, m), dense in zip(factors, _std_blocks(T), reference, strict=True):
        assert s.size == dense.size
        np.testing.assert_allclose(s, dense, rtol=1e-12, atol=1e-12 * largest)
        np.testing.assert_allclose(x.conj().T @ x, np.eye(s.size), atol=1e-12)
        np.testing.assert_allclose(y.conj().T @ y, np.eye(s.size), atol=1e-12)
        # the block less its kept part holds only values under the cutoff
        assert np.abs((x * s) @ y.conj().T - m).max() <= 2 * DEFAULT_RANK_TOL * largest


@pytest.mark.parametrize("spec", CASES.values(), ids=CASES.keys())
def test_matches_the_dense_svd_of_each_block(monkeypatch, spec):
    """The factors are the full SVD of each block: one ``svd`` call per
    block, each on the whole block, and no ``qr``."""
    _assert_full_svd_of_each_block(monkeypatch, _operator(spec))


#: blocks of 24, 64, 6 and 20 points of rank 1, 4, 6 and 2
DERIVED_SPEC = [
    (24, [1.0]),
    (64, [1.0, 0.5, 0.3, 0.2]),
    (6, np.linspace(1.0, 0.5, 6)),
    (20, [0.8, 0.4]),
]


def _gone_adjoint():
    """The adjoint of an operator that is gone: it holds its own blocks,
    built with it."""
    A = adjoint(_operator(DERIVED_SPEC))
    gc.collect()
    assert A._memo[oa._ADJOINT_OF]() is None
    return A


def _square(T):
    """T T, by ``compose``."""
    return compose(T, T)


def _root_of_gram(T):
    """(T* T)^(1/2), by ``fractional_power`` of the composed T* T."""
    return fractional_power(compose(adjoint(T), T), 0.5)


#: the operators the library holds as their blocks, each built from
#: _operator(DERIVED_SPEC)
DERIVED = {
    "compose": lambda: _square(_operator(DERIVED_SPEC)),
    "fractional_power": lambda: _root_of_gram(_operator(DERIVED_SPEC)),
    "kernel_projection": lambda: kernel_projection(_operator(DERIVED_SPEC)),
    "gone-adjoint": _gone_adjoint,
}


@pytest.mark.parametrize("build", DERIVED.values(), ids=DERIVED.keys())
def test_derived_operators_take_the_full_svd_of_each_block(monkeypatch, build):
    """Every operator held as its blocks, not only the dense reference, is
    factored by the full SVD of each block."""
    T = build()
    assert T._parts is not None and oa._LINES not in T._memo
    _assert_full_svd_of_each_block(monkeypatch, T)


def test_each_block_logs_its_svd_and_no_range_finder(caplog):
    """At DEBUG, factoring an operator held as its blocks logs one ``svd``
    line per block, with its shape, and nothing else: no estimate is made,
    so a block with a value at the rank cutoff logs no fallback."""
    T = _operator(CASES["certificate-fallback"] + CASES["rank-cut-fallback"] + [(6, [1.0])])
    caplog.set_level(logging.DEBUG, logger="condexp")
    _factors(T)
    assert [m.split()[:2] for m in caplog.messages] == [
        ["svd", "64x64"],
        ["svd", "64x64"],
        ["svd", "6x6"],
    ]
    assert not any("range finder" in m or "fell back" in m for m in caplog.messages)


def _factor_arrays(T) -> dict:
    return {int(b[0]): (x, s, y) for b, x, s, y in block_factors(T)}


def test_factors_depend_on_neither_the_run_nor_the_block_order():
    """Each block is factored alone, so factoring twice or in the reverse
    block order gives the same arrays to the bit."""
    spec = [(24, [1.0]), (64, [1.0, 0.5, 0.3, 0.2]), (40, [0.5, 0.2])]
    runs = [_factor_arrays(_operator(spec)) for _ in range(2)]
    runs.append(_factor_arrays(_operator(spec, order=[2, 1, 0])))
    for run in runs[1:]:
        assert run.keys() == runs[0].keys()
        for key, arrays in run.items():
            assert all(np.array_equal(a, b) for a, b in zip(arrays, runs[0][key], strict=True))


def test_eigenvalues_build_only_full_rank_blocks(monkeypatch):
    """With T's factors memoized, the eigenvalues build the
    standard-coordinate block of a full-rank block alone; the others come
    from their factors' cores."""
    T = _operator([(32, [1.0]), (6, np.linspace(1.0, 0.5, 6)), (20, [0.8, 0.4])])
    _factors(T)
    built = []

    def counted(db, p, _original=oa._standard):
        built.append(p.shape)
        return _original(db, p)

    monkeypatch.setattr(oa, "_standard", counted)
    evals = eigenvalues(T)
    monkeypatch.undo()
    assert built == [(6, 6)]
    dense = np.concatenate([np.linalg.eigvals(m) for _, m in _std_blocks(T)])
    assert multiset_close(evals, dense, 1e-10)


def test_a_lazy_operator_builds_one_block_alone(monkeypatch):
    """The adjoint of an operator held as its blocks holds its own blocks,
    built with it. Once its operator is gone, factoring reads each block
    once, for its full SVD (one ``svd`` per block and no ``qr``); the
    eigenvalues read the full-rank block alone."""
    T = _operator(CASES["rank-cut-fallback"] + [(32, [0.5]), (6, np.linspace(1.0, 0.5, 6))])
    A = adjoint(T)
    assert isinstance(A._parts, tuple)
    del T
    gc.collect()
    read, calls = [], []

    def counted(db, p, _original=oa._standard):
        read.append(p.shape[0])
        return _original(db, p)

    def probe(routine):
        def recorded(a, *args, _original=getattr(np.linalg, routine), **kwargs):
            calls.append((routine, np.shape(a)))
            return _original(a, *args, **kwargs)

        return recorded

    monkeypatch.setattr(oa, "_standard", counted)
    for routine in ("svd", "qr"):
        monkeypatch.setattr(np.linalg, routine, probe(routine))
    _factors(A)
    assert read == [64, 32, 6]
    assert calls == [("svd", (size, size)) for size in read]
    read.clear()
    eigenvalues(A)
    assert read == [6]


#: blocks of rank 0, 1, 2 and 4 and of differing sizes, a 1-point atom among
#: them, all but one under 16 points: the flat factors pad every block to
#: rank 4
MIXED_RANKS = [
    (5, []),
    (1, [0.7]),
    (3, [0.9]),
    (6, [1.0, 0.4]),
    (20, [1.0, 0.5, 0.3, 0.2]),
    (12, [0.8, 0.6, 0.3, 0.1]),
]


def _jordan_operator():
    """A 1-point atom of rank 1 beside a 3 x 3 Jordan block of rank 2,
    whose kernel and its adjoint's meet only in 0: 0 is an eigenvalue, but
    no common eigenvector carries it, and the 1-point atom, padded to rank
    2, must not give it one."""
    parts = [np.array([[0.6 - 0.3j]]), np.diag([1.0, 2.0], k=1)]
    weights = np.array([1.3, 0.4, 1.7, 0.9])
    blocks = [np.arange(1), np.arange(1, 4)]
    d = np.sqrt(weights)
    entries = np.zeros((4, 4), dtype=complex)
    for b, m in zip(blocks, parts):
        entries[np.ix_(b, b)] = (m / d[b][:, None]) * d[b][None, :]
    return WeightedOperator(entries, FiniteMeasureSpace(weights), blocks)


@pytest.mark.parametrize("seed", range(3))
class TestMixedRanks:
    """The flat factors of blocks of rank 0, 1, 2 and 4, padded to rank 4,
    and every question read off them, against the dense per-block
    references: each block's SVD and eigvals, ``loewner_margins`` of the
    composed operators, the dense commutator and the two-SVD joint point
    spectrum."""

    def test_flat_factors_are_the_dense_svd_of_each_block(self, seed):
        T = _operator(MIXED_RANKS, seed)
        factors = _factors(T)
        reference = _dense_reference(T)
        largest = max(s.max(initial=0.0) for s in reference)
        assert factors.ranks.tolist() == [s.size for s in reference] == [0, 1, 1, 2, 4, 4]
        assert factors.lines.shape == (2, sum(b.size for b in T.blocks), 4)
        kept = np.arange(4) < factors.ranks[:, None]
        assert np.all(factors.s[~kept] == 0)
        for start, size, rank in zip(factors.starts, factors.sizes, factors.ranks):
            assert np.all(factors.lines[:, start : start + size, rank:] == 0)
        for (_, x, s, y), (_, m), dense in zip(block_factors(T), _std_blocks(T), reference):
            np.testing.assert_allclose(s, dense, rtol=1e-12, atol=1e-12 * largest)
            np.testing.assert_allclose(x.conj().T @ x, np.eye(s.size), atol=1e-12)
            np.testing.assert_allclose(y.conj().T @ y, np.eye(s.size), atol=1e-12)
            assert np.abs((x * s) @ y.conj().T - m).max() <= 2 * DEFAULT_RANK_TOL * largest

    def test_singular_values_and_eigenvalues(self, seed):
        T = _operator(MIXED_RANKS, seed)
        dense = np.sort(np.concatenate([s for s in _dense_reference(T)]))[::-1]
        got = singular_values(T)
        np.testing.assert_allclose(got[: dense.size], dense, rtol=0, atol=1e-12 * dense[0])
        assert np.all(got[dense.size :] == 0)
        evals, start = eigenvalues(T), 0
        for _, m in _std_blocks(T):
            got = evals[start : start + len(m)]
            assert multiset_close(got, np.linalg.eigvals(m), 1e-10)
            start += len(m)
        assert start == evals.size

    def test_class_margins(self, seed):
        T = _operator(MIXED_RANKS, seed)
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
            for tol in (1e-9, 1e-8):
                assert loewner_holds(margins[cls], tol) == loewner_holds(reference, tol), cls
            np.testing.assert_allclose(
                [margins[cls].smallest, margins[cls].norm],
                [reference.smallest, reference.norm],
                rtol=0,
                atol=1e-12 * scale,
            )

    def test_normality_and_joint_point_spectrum(self, seed):
        for T in (_operator(MIXED_RANKS, seed), _jordan_operator()):
            d = np.sqrt(T.space.weights)
            m = d[:, None] * T.entries / d[None, :]
            comm = np.linalg.norm(m @ m.conj().T - m.conj().T @ m, 2)
            turn = comm / (1.0 + operator_norm(T) ** 2)
            assert is_normal(T, turn * (1 + 1e-6)) and not is_normal(T, turn * (1 - 1e-6))
            assert joint_point_spectrum(T) == two_svd_joint_point_spectrum(T)
        assert 0.0 in eigenvalues(_jordan_operator())
        assert joint_point_spectrum(_jordan_operator()) == [0.6 - 0.3j]
