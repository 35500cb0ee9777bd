"""T = M_a E M_b factored from its lines against the dense SVD of each
block.

``expectation_operator`` holds M_a E M_b as its unit lines and 1 x 1
cores on each atom, read off (a, b) in segment sums, which are its exact
SVD; its record (``_atoms``) is read off the cores in closed form, with no
LAPACK call. The reference is numpy's SVD of each standard-coordinate
block, cut at DEFAULT_RANK_TOL times the largest singular value of any
block: the ranks must match it exactly and the kept values to 1e-12 of
the largest.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    SubSigmaAlgebra,
    expectation_operator,
    operator_norm,
    proportional_instance,
    random_instance,
    singular_values,
)
from condexp import operator_algebra as oa
from condexp.operator_algebra import DEFAULT_RANK_TOL, _atoms

from conftest import block_factors, standard_blocks

#: atom sizes: one-point atoms among atoms of 2 to 90 points, enough to make
#: more than one run, and an atom of 40 points where u vanishes (rank 0)
SIZES = [1, 1, 2, 3, 1, 5, 7, 16, 20, 40, 90, 1, 40]
ZERO_ATOM = 12


def _operator(seed, sizes=SIZES, zero=ZERO_ATOM):
    """M_a E M_b on random weights over atoms of ``sizes`` points, their
    points shuffled, with a and b complex Gaussian, b zero on the atom
    ``zero`` (none for None)."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    points = rng.permutation(n)
    blocks = np.split(points, np.cumsum(sizes)[:-1])
    space = FiniteMeasureSpace(rng.uniform(0.1, 2.0, n))
    a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    if zero is not None:
        b[blocks[zero]] = 0.0
    return expectation_operator(space, SubSigmaAlgebra(tuple(blocks), n), a, b)


def _assert_dense(T):
    """T's record is the dense SVD of each standard-coordinate block."""
    values = [np.linalg.svd(m, compute_uv=False) for _, m in standard_blocks(T)]
    cutoff = DEFAULT_RANK_TOL * max(s.max() for s in values)
    reference = [s[s > cutoff] for s in values]
    largest = max(s.max(initial=0.0) for s in reference)
    for (_, x, s, y), (_, m), dense in zip(block_factors(T), standard_blocks(T), reference, strict=True):
        assert s.size == dense.size
        np.testing.assert_allclose(s, dense, rtol=1e-12, atol=1e-12 * largest)
        np.testing.assert_allclose(x.conj().T @ x, np.eye(s.size), atol=1e-12)
        np.testing.assert_allclose(y.conj().T @ y, np.eye(s.size), atol=1e-12)
        assert np.abs((x * s) @ y.conj().T - m).max() <= 2 * DEFAULT_RANK_TOL * largest


@pytest.mark.parametrize("seed", range(4))
def test_flat_factors_are_the_dense_svd_of_each_block(monkeypatch, seed):
    """On mixed atom sizes, one-point atoms and a rank-0 atom among them,
    the record is made with no block built and is the dense SVD of each
    block."""
    T = _operator(seed)
    with monkeypatch.context() as patched:
        patched.setattr(oa, "_built_block", _no_block)
        atoms = _atoms(T)
    assert atoms.ranks.tolist() == [int(k != ZERO_ATOM) for k in range(len(SIZES))]
    _assert_dense(T)


def _no_block(T, k):
    raise AssertionError("a block was built")


def test_peak_memory_of_a_large_atom_beside_one_point_atoms(monkeypatch):
    """One 4,000-point atom beside 1,000 one-point atoms: a tracemalloc
    peak under 2 n 14 complex numbers plus the record, where the
    4,000 x 4,000 block alone would take 256 MB, and no block built."""
    n = 5000
    sizes = [4000] + [1] * 1000
    T = _operator(1, sizes, None)
    _atoms(_operator(1, sizes, None))  # warm: first-call allocations are not the factorization's
    monkeypatch.setattr(oa, "_built_block", _no_block)
    gc.collect()
    tracemalloc.start()
    try:
        atoms = _atoms(T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 14 * 16 + atoms.lines.nbytes + atoms.s.nbytes
    assert atoms.ranks.tolist() == [1] * len(sizes)


#: factors that take T's entries near the ends of the double range: their
#: squares overflow past 1e154 and underflow below 1e-154
EXTREME_SCALES = [1e-300, 1e-200, 1e-160, 1e30, 1e100, 1e150]


@pytest.mark.parametrize("side", ["u", "w"])
@pytest.mark.parametrize("scale", EXTREME_SCALES)
def test_norms_scale_with_w_or_u(side, scale):
    """T with u or w times c keeps T's rank, and its norm is c ||T|| to
    1e-12 relative: each atom's norm is taken on its line over the power
    of two at its largest entry, so no square overflows or underflows."""
    for make in (random_instance, proportional_instance):
        for seed in range(5):
            inst = make(seed, 12, 4)
            w, u = inst.w.values, inst.u.values
            scaled = (w * scale, u) if side == "w" else (w, u * scale)
            T0, T = (expectation_operator(inst.space, inst.algebra, *x) for x in [(w, u), scaled])
            assert np.count_nonzero(singular_values(T)) == np.count_nonzero(singular_values(T0))
            expected = scale * operator_norm(T0)
            assert operator_norm(T) == pytest.approx(expected, rel=1e-12, abs=0.0)
