"""Builders for worked examples and seeded random instances.

Two discretized analytic examples (a product space whose conditional
expectation integrates out the second coordinate, and a symmetric interval
whose atoms are the pairs {x, -x}), plus seeded random instances and the
Cauchy-Schwarz equality case that forces quasi-*-A membership.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np

from .measure_space import (
    DEFAULT_SUPPORT_TOL,
    FiniteMeasureSpace,
    MeasurableFunction,
    SubSigmaAlgebra,
)
from .wce_operator import WCEOperator, build_wce


class Instance(NamedTuple):
    space: FiniteMeasureSpace
    algebra: SubSigmaAlgebra
    u: MeasurableFunction
    w: MeasurableFunction


def as_wce(instance: Instance, support_tol: float = DEFAULT_SUPPORT_TOL) -> WCEOperator:
    return build_wce(*instance, support_tol=support_tol)


def product_space_example(n_x: int, n_y: int) -> Instance:
    """Midpoint grid on the unit square; atoms are the columns of constant x,
    so E integrates out the y coordinate.

    u(x, y) = y^(x/8) and w(x, y) = sqrt((4+x) y), which gives the analytic
    moments E(|u|^2) = 4/(4+x), E(|w|^2) = (4+x)/2, |E(uw)|^2 = 64(4+x)/(x+12)^2.
    """
    if n_x < 1 or n_y < 1:
        raise ValueError("grid sizes must be >= 1")
    xs = (np.arange(n_x) + 0.5) / n_x
    ys = (np.arange(n_y) + 0.5) / n_y
    # point index = i * n_y + j for grid point (x_i, y_j)
    x = np.repeat(xs, n_y)
    y = np.tile(ys, n_x)
    space = FiniteMeasureSpace(np.full(n_x * n_y, 1.0 / (n_x * n_y)))
    blocks = tuple(range(i * n_y, (i + 1) * n_y) for i in range(n_x))
    algebra = SubSigmaAlgebra(blocks, n_x * n_y)
    u = MeasurableFunction(y ** (x / 8.0), space)
    w = MeasurableFunction(np.sqrt((4.0 + x) * y), space)
    return Instance(space, algebra, u, w)


def symmetric_interval_example(n: int) -> Instance:
    """2n midpoints of [-1, 1], symmetric about 0 and excluding 0; atoms are
    the pairs {x, -x}, so Ef(x) = (f(x) + f(-x)) / 2.

    u(x) = x^2 - 1 (even, hence algebra-measurable) and w identically 1.
    """
    if n < 1:
        raise ValueError("grid size must be >= 1")
    xs = (np.arange(n) + 0.5) / n
    points = np.concatenate([xs, -xs])  # index k and k + n form a pair
    space = FiniteMeasureSpace(np.full(2 * n, 0.5 / n))
    algebra = SubSigmaAlgebra(tuple((k, k + n) for k in range(n)), 2 * n)
    u = MeasurableFunction(points**2 - 1.0, space)
    w = MeasurableFunction.constant(space, 1.0)
    return Instance(space, algebra, u, w)


def _random_partition(rng: np.random.Generator, n_points: int, n_blocks: int):
    if not 1 <= n_blocks <= n_points:
        raise ValueError("need 1 <= n_blocks <= n_points")
    # surjective assignment: one point per block first, the rest uniform
    labels = np.concatenate(
        [np.arange(n_blocks), rng.integers(0, n_blocks, size=n_points - n_blocks)]
    )
    labels = labels[rng.permutation(n_points)]
    # each block's points in increasing order, as np.nonzero(labels == k) gives them
    points = np.argsort(labels, kind="stable")
    return tuple(np.split(points, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1]))


def _random_values(rng: np.random.Generator, n: int, complex_valued: bool):
    vals = rng.uniform(-1.0, 1.0, size=n).astype(complex)
    if complex_valued:
        vals = vals + 1j * rng.uniform(-1.0, 1.0, size=n)
    return vals


def random_instance(
    seed: int, n_points: int, n_blocks: int, complex_valued: bool = True
) -> Instance:
    """Deterministic instance: masses uniform in [0.1, 2], random surjective
    partition, u and w with components uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 2.0, size=n_points)
    blocks = _random_partition(rng, n_points, n_blocks)
    space = FiniteMeasureSpace(weights)
    algebra = SubSigmaAlgebra(blocks, n_points)
    u = MeasurableFunction(_random_values(rng, n_points, complex_valued), space)
    w = MeasurableFunction(_random_values(rng, n_points, complex_valued), space)
    return Instance(space, algebra, u, w)


def proportional_instance(seed: int, n_points: int, n_blocks: int) -> Instance:
    """Cauchy-Schwarz equality case: w = conj(u) * c with a constant c per
    atom, so |E(uw)|^2 = E(|u|^2) E(|w|^2) exactly and the operator lands in
    the quasi-*-A class."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 2.0, size=n_points)
    blocks = _random_partition(rng, n_points, n_blocks)
    space = FiniteMeasureSpace(weights)
    algebra = SubSigmaAlgebra(blocks, n_points)
    u_vals = _random_values(rng, n_points, complex_valued=True)
    # block constants bounded away from zero
    magnitude = rng.uniform(0.2, 1.5, size=n_blocks)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_blocks)
    c = magnitude * np.exp(1j * phase)
    w_vals = np.conj(u_vals) * c[algebra.labels]
    return Instance(
        space,
        algebra,
        MeasurableFunction(u_vals, space),
        MeasurableFunction(w_vals, space),
    )


def fingerprint(instance: Instance, digits: int = 12) -> str:
    """Stable hash of an instance (weights, partition, u, w) for golden tests."""
    h = hashlib.sha256()
    h.update(np.round(instance.space.weights, digits).tobytes())
    h.update(instance.algebra.labels.tobytes())
    for f in (instance.u, instance.w):
        h.update(np.round(f.values.view(float), digits).tobytes())
    return h.hexdigest()
