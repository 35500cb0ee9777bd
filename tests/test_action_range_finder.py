"""T = M_a E M_b factored from its action against the dense SVD of each
block.

An operator held as its pair (``expectation_operator``) is factored by
one range finder over all its atoms (``_action_svds``): runs of atoms
padded to their largest, one stacked QR and one stacked SVD per run, and
an estimate from ten more probes. The reference stays numpy's SVD of each
standard-coordinate block, cut at DEFAULT_RANK_TOL times the largest
singular value of any block, with the bounds of ``test_range_finder``:
the ranks must match it exactly and the kept values to 1e-12 of the
largest.
"""

import gc
import logging
import re
import tracemalloc

import numpy as np
import pytest

from condexp import FiniteMeasureSpace, SubSigmaAlgebra, expectation_operator
from condexp import operator_algebra as oa
from condexp.operator_algebra import DEFAULT_RANK_TOL, _factors, _runs, _std_blocks

from conftest import block_factors

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
    """T's flat factors are the dense SVD of each standard-coordinate block,
    within the bounds of ``test_range_finder``."""
    values = [np.linalg.svd(m, compute_uv=False) for _, m in _std_blocks(T)]
    cutoff = DEFAULT_RANK_TOL * max(s.max() for s in values)
    reference = [s[s > cutoff] for s in values]
    largest = max(s.max(initial=0.0) for s in reference)
    for (_, x, s, y), (_, m), dense in zip(block_factors(T), _std_blocks(T), reference, strict=True):
        assert s.size == dense.size
        np.testing.assert_allclose(s, dense, rtol=1e-12, atol=1e-12 * largest)
        np.testing.assert_allclose(x.conj().T @ x, np.eye(s.size), atol=1e-12)
        np.testing.assert_allclose(y.conj().T @ y, np.eye(s.size), atol=1e-12)
        assert np.abs((x * s) @ y.conj().T - m).max() <= 2 * DEFAULT_RANK_TOL * largest


def _summary(messages) -> re.Match:
    lines = [m for m in messages if m.startswith("range finder: ")]
    assert len(lines) == 1
    return re.fullmatch(
        r"range finder: (\d+) atoms in (\d+) runs, width 4 \+ 10 probes,"
        r" largest estimate/s1 (\S+), (\d+) fell back to the full SVD",
        lines[0],
    )


@pytest.mark.parametrize("seed", range(4))
def test_flat_factors_are_the_dense_svd_of_each_block(caplog, seed):
    """On mixed atom sizes, one-point atoms and a rank-0 atom among them,
    no block is built, every atom is certified, and the factors are the
    dense SVD of each block."""
    T = _operator(seed)
    caplog.set_level(logging.DEBUG, logger="condexp")
    factors = _factors(T)
    assert T._parts is None
    summary = _summary(caplog.messages)
    assert int(summary[1]) == len(SIZES) and int(summary[2]) == len(_runs(factors.sizes)) > 1
    assert 0 < float(summary[3]) <= oa._SKETCH_TOL and summary[4] == "0"
    assert factors.ranks.tolist() == [int(k != ZERO_ATOM) for k in range(len(SIZES))]
    _assert_dense(T)


def test_an_atom_at_the_rank_cutoff_falls_back_alone(caplog, monkeypatch):
    """An atom whose value sits exactly at the rank cutoff: its data are
    those of the largest atom scaled by the cutoff's power of two, so its
    sketched value is the cutoff to the bit. That atom alone is built and
    factored by the full SVD, and the fallback is logged; its rank is the
    full SVD's."""
    monkeypatch.setattr(oa, "DEFAULT_RANK_TOL", 2.0**-33)
    rng = np.random.default_rng(5)
    size, n = 30, 90
    mu = rng.uniform(0.1, 2.0, size)
    a, b = (rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(2))
    space = FiniteMeasureSpace(np.concatenate([mu, mu, rng.uniform(0.1, 2.0, size)]))
    blocks = tuple(np.arange(k * size, (k + 1) * size) for k in range(3))
    left = np.concatenate([a, a, a[::-1]])
    right = np.concatenate([b, b * 2.0**-33, b[::-1] * 0.5])
    built = []

    def counted(T, k, _original=oa._built_block):
        block = _original(T, k)
        built.append(block.shape[0])
        return block

    monkeypatch.setattr(oa, "_built_block", counted)
    T = expectation_operator(space, SubSigmaAlgebra(blocks, n), left, right)
    caplog.set_level(logging.DEBUG, logger="condexp")
    factors = _factors(T)
    assert built == [size]
    note = "range finder 30x30 fell back to the full SVD: a value within its estimate of the rank cutoff"
    assert note in caplog.messages
    assert _summary(caplog.messages)[4] == "1"
    svds = [m for m in caplog.messages if m.startswith("svd ")]
    assert svds[-1].split()[1] == "30x30"
    # the rank is the full SVD's at the cutoff taken: that value is the
    # cutoff to rounding, so it may fall on either side
    dense = [np.linalg.svd(m, compute_uv=False) for _, m in _std_blocks(T)]
    cutoff = 2.0**-33 * factors.s.max()
    assert factors.ranks.tolist() == [np.count_nonzero(v > cutoff) for v in dense]
    assert factors.ranks[[0, 2]].tolist() == [1, 1]
    np.testing.assert_allclose(factors.s[[0, 2], 0], [v[0] for v in dense[::2]], rtol=1e-12)


def test_a_failed_certificate_gives_the_dense_factors(caplog, monkeypatch):
    """With the certificate forced to fail (_SKETCH_TOL = 0), every atom of
    five points or more but the rank-0 one, whose estimate is 0, is built
    alone and factored by the full SVD, and the factors are the dense
    ones."""
    monkeypatch.setattr(oa, "_SKETCH_TOL", 0.0)
    built = []

    def counted(T, k, _original=oa._built_block):
        block = _original(T, k)
        built.append(block.shape[0])
        return block

    monkeypatch.setattr(oa, "_built_block", counted)
    T = _operator(0)
    caplog.set_level(logging.DEBUG, logger="condexp")
    _factors(T)
    large = [s for k, s in enumerate(SIZES) if s >= 5 and k != ZERO_ATOM]
    assert sorted(large) == sorted(s for s in built if s >= 5)
    assert int(_summary(caplog.messages)[4]) == len(built)
    _assert_dense(T)


def test_runs_stay_within_twice_their_points():
    """Each run is padded to its largest atom, within twice its points, and
    equal atoms make one run."""
    rng = np.random.default_rng(0)
    for sizes in ([80] * 4, [1] * 1000 + [4000], list(rng.integers(1, 300, 200)), [1, 2, 4, 8, 16]):
        sizes = np.array(sizes)
        runs = _runs(sizes)
        assert sorted(np.concatenate(runs).tolist()) == list(range(sizes.size))
        for run in runs:
            assert run.size * sizes[run].max() <= 2 * sizes[run].sum()
        assert len(runs) <= np.log2(sizes.max()) + 1
    assert len(_runs(np.array([80] * 4))) == 1
    assert len(_runs(np.array([1] * 1000 + [4000]))) == 2


def test_peak_memory_of_a_large_atom_beside_one_point_atoms():
    """One 4,000-point atom beside 1,000 one-point atoms: two runs, and a
    tracemalloc peak under 2 n 14 complex numbers plus the factors,
    where the 4,000 x 4,000 block alone would take 256 MB."""
    n = 5000
    sizes = [4000] + [1] * 1000
    T = _operator(1, sizes, None)
    _factors(_operator(1, sizes, None))  # warm: first-call allocations are not the factorization's
    gc.collect()
    tracemalloc.start()
    try:
        factors = _factors(T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 14 * 16 + factors.lines.nbytes + factors.s.nbytes
    assert factors.ranks.tolist() == [1] * len(sizes)
    assert len(_runs(factors.sizes)) == 2 and T._parts is None
