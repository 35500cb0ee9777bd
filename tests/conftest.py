import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
    eigenvalues,
    operator_norm,
)
from condexp.measure_space import cluster_values
from condexp.operator_algebra import _factors, _std_blocks
from condexp.spectral_analysis import PRINCIPAL_ANGLE_TOL


@pytest.fixture
def two_point_space():
    return FiniteMeasureSpace([1.0, 1.0])


@pytest.fixture
def one_block_algebra():
    return SubSigmaAlgebra(([0, 1],), 2)


def discrete_algebra(n):
    """The full algebra on n points: each point is an atom, so E = I."""
    return SubSigmaAlgebra(tuple([i] for i in range(n)), n)


def trivial_algebra(n):
    """The trivial algebra on n points: one atom, so E is the weighted mean."""
    return SubSigmaAlgebra((list(range(n)),), n)


def make_function(space, values):
    return MeasurableFunction(np.asarray(values, dtype=complex), space)


def multiset_close(a, b, tol):
    """Greedy matching of two complex multisets up to tol."""
    a = sorted(np.asarray(a, dtype=complex), key=lambda z: (z.real, z.imag))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return False
    for x in a:
        dists = [abs(x - y) for y in b]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return False
        b.pop(j)
    return True


def block_factors(T):
    """T's flat factors (``_factors``) read back one block at a time, in
    block order: (indices, X, s, Y) of each block, cut to its rank."""
    factors = _factors(T)
    x, y = factors.lines
    for b, start, rank, s in zip(T.blocks, factors.starts, factors.ranks, factors.s):
        rows = slice(start, start + b.size)
        yield b, x[rows, :rank], s[:rank], y[rows, :rank]


def two_svd_joint_point_spectrum(T, tol=1e-8):
    """The reference for ``joint_point_spectrum``: the same principal-angle
    test, with one SVD for null(B - lambda I) and another for
    null(B^H - conj(lambda) I) on every block B."""

    def null_space(mat, cutoff):
        _, s, vh = np.linalg.svd(mat)
        return vh[int(np.sum(s > cutoff)):, :].conj().T

    blocks = [m for _, m in _std_blocks(T)]
    cutoff = tol * (1.0 + operator_norm(T))
    result = []
    for lam in cluster_values(eigenvalues(T), cutoff):
        cosine = 0.0
        for b in blocks:
            eye = np.eye(b.shape[0])
            k1 = null_space(b - lam * eye, cutoff)
            k2 = null_space(b.conj().T - np.conj(lam) * eye, cutoff)
            if k1.shape[1] and k2.shape[1]:
                cosines = np.linalg.svd(k1.conj().T @ k2, compute_uv=False)
                cosine = max(cosine, float(cosines.max(initial=0.0)))
        if np.arccos(np.clip(cosine, -1.0, 1.0)) < PRINCIPAL_ANGLE_TOL:
            result.append(lam)
    return result


def greedy_cluster_values(values, tol):
    """The reference for ``cluster_values``: every value is compared with
    every centroid made so far, in creation order."""
    vals = np.asarray(values, dtype=complex)
    order = np.lexsort((vals.imag, vals.real))
    reps: list = []
    counts: list = []
    for v in vals[order]:
        placed = False
        for j, r in enumerate(reps):
            if abs(v - r) <= tol:
                counts[j] += 1
                reps[j] = r + (v - r) / counts[j]
                placed = True
                break
        if not placed:
            reps.append(complex(v))
            counts.append(1)
    return reps


def dense_hausdorff_distance(a, b):
    """The reference for ``hausdorff_distance``: the whole distance table."""
    av = np.asarray(list(a), dtype=complex)
    bv = np.asarray(list(b), dtype=complex)
    dist = np.abs(av[:, None] - bv[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))
