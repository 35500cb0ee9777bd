"""Relations between the verify reports of instances that describe the same
operator, or its adjoint, in another form.

On random and proportional (12, 4) instances, seeds 0-19:

- listing the atoms in reverse order changes no verdict and no margin;
- conjugating u and w changes no verdict and no margin, as T becomes its
  entrywise conjugate, which has the same moduli throughout;
- (u, w) -> (conj(w), conj(u)) makes T into T*, so the powers of T*T and
  of TT* exchange places, with the same verdicts and with margins that
  agree to a small fraction of their tolerance;
- listing the points in another order, or splitting one point into two of
  half its mass with its values, inside its atom, describes the same T (the
  split one as T + 0 on one more dimension): the verdicts are the same, and
  the margins agree to a small fraction of their tolerance. These guard
  the per-atom sums against the order and the number of the points.
"""

import numpy as np
import pytest

from condexp import (
    FiniteMeasureSpace,
    Instance,
    MeasurableFunction,
    SubSigmaAlgebra,
    proportional_instance,
    random_instance,
)
from condexp.verification import POWERS, verify_instance

CASES = [
    (f"{kind.__name__}-{seed}", kind(seed, 12, 4))
    for kind in (random_instance, proportional_instance)
    for seed in range(20)
]


def _report(instance) -> dict:
    """name -> (passed, margin) of each check of a verify of ``instance``."""
    return {c.name: (c.passed, c.margin) for c in verify_instance(instance)}


def _function(instance, values) -> MeasurableFunction:
    return MeasurableFunction(values, instance.space)


@pytest.mark.parametrize("name, instance", CASES, ids=[c[0] for c in CASES])
def test_reversed_atoms_change_nothing(name, instance):
    algebra = instance.algebra
    reversed_atoms = SubSigmaAlgebra(algebra.blocks[::-1], algebra.point_count)
    assert _report(instance._replace(algebra=reversed_atoms)) == _report(instance)


@pytest.mark.parametrize("name, instance", CASES, ids=[c[0] for c in CASES])
def test_conjugated_functions_change_nothing(name, instance):
    u, w = (_function(instance, np.conj(f.values)) for f in (instance.u, instance.w))
    assert _report(instance._replace(u=u, w=w)) == _report(instance)


@pytest.mark.parametrize("name, instance", CASES, ids=[c[0] for c in CASES])
def test_the_adjoint_exchanges_the_two_powers(name, instance):
    u, w = (_function(instance, np.conj(f.values)) for f in (instance.w, instance.u))
    adjoint = Instance(instance.space, instance.algebra, u, w)
    checks = {c.name: c for c in verify_instance(instance)}
    swapped = {c.name: c for c in verify_instance(adjoint)}
    for p in POWERS:
        gram, co_gram = f"tstar_t_power_{p}", f"t_tstar_power_{p}"
        for a, b in ((checks[gram], swapped[co_gram]), (checks[co_gram], swapped[gram])):
            assert a.passed == b.passed, (a.name, b.name)
            assert abs(a.margin - b.margin) <= 1e-5 * a.tolerance, (a.name, b.name)


def _close_reports(first: list, second: list) -> None:
    """The same checks in the same order, with the same verdicts and margins
    within 1e-5 of their tolerance."""
    assert [c.name for c in first] == [c.name for c in second]
    for a, b in zip(first, second):
        assert a.passed == b.passed, a.name
        assert abs(a.margin - b.margin) <= 1e-5 * a.tolerance, a.name


@pytest.mark.parametrize("name, instance", CASES, ids=[c[0] for c in CASES])
def test_permuted_points_change_no_verdict(name, instance):
    n = instance.space.point_count
    order = np.random.default_rng(n + len(name)).permutation(n)  # new point i is old order[i]
    place = np.argsort(order)  # old point j is new place[j]
    space = FiniteMeasureSpace(instance.space.weights[order])
    algebra = SubSigmaAlgebra(tuple(place[b] for b in instance.algebra.blocks), n)
    u, w = (MeasurableFunction(f.values[order], space) for f in (instance.u, instance.w))
    _close_reports(verify_instance(instance), verify_instance(Instance(space, algebra, u, w)))


@pytest.mark.parametrize("name, instance", CASES, ids=[c[0] for c in CASES])
def test_a_split_point_changes_no_verdict(name, instance):
    """The first point of the largest atom split into two of half its mass,
    the new one last, with the same values of u and w."""
    n, blocks = instance.space.point_count, instance.algebra.blocks
    atom = max(range(len(blocks)), key=lambda k: len(blocks[k]))
    point = blocks[atom][0]
    weights = instance.space.weights.copy()
    weights[point] /= 2
    space = FiniteMeasureSpace(np.append(weights, weights[point]))
    split = tuple(np.append(b, n) if k == atom else b for k, b in enumerate(blocks))
    algebra = SubSigmaAlgebra(split, n + 1)
    u, w = (
        MeasurableFunction(np.append(f.values, f.values[point]), space)
        for f in (instance.u, instance.w)
    )
    _close_reports(verify_instance(instance), verify_instance(Instance(space, algebra, u, w)))
