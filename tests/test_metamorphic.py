"""Relations between the verify reports of instances that describe the same
operator, or its adjoint, in another form.

On random and proportional (12, 4) instances, seeds 0-19:

- listing the atoms in reverse order changes no verdict and no margin;
- conjugating u and w changes no verdict and no margin, as T becomes its
  entrywise conjugate, which has the same moduli throughout;
- (u, w) -> (conj(w), conj(u)) makes T into T*, so the powers of T*T and
  of TT* exchange places, with the same verdicts and with margins that
  agree to a small fraction of their tolerance.
"""

import numpy as np
import pytest

from condexp import (
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
