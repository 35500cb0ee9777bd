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
from condexp.operator_algebra import _atoms

import dense_reference as dense


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
    """T's per-atom record (``_atoms``) read back one block at a time, in
    block order: (indices, X, s, Y) of each block, cut to its rank."""
    atoms = _atoms(T)
    x, y = atoms.lines
    for b, start, rank, s in zip(T.blocks, atoms.starts, atoms.ranks, atoms.s):
        rows = slice(start, start + b.size)
        yield b, x[rows, :rank], np.array([s])[:rank], y[rows, :rank]


def standard(X):
    """X's one n x n standard-coordinate matrix, the dense reference's input."""
    return dense.standard(X.entries, X.space.weights)


def standard_blocks(T):
    """(indices, the standard-coordinate block of the dense reference) of
    each of T's blocks, built from its ``parts``."""
    for b, p in zip(T.blocks, T.parts):
        yield b, dense.standard(p, T.space.weights[b])


def reference_joint_point_spectrum(T, tol=1e-8):
    """The dense reference's joint point spectrum of T, on T's eigenvalue
    clusters at the cutoff ``joint_point_spectrum`` takes, so the two lists
    compare entry by entry."""
    cutoff = tol * (1.0 + operator_norm(T))
    candidates = cluster_values(eigenvalues(T), cutoff)
    return dense.joint_point_spectrum(dense.standard(T.entries, T.space.weights), candidates, cutoff)


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
