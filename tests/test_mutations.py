"""Every operator check of ``verify`` can fail: named mutants of the closed
forms and of the oracle, each changing one atom, at scale 1.

On random and proportional (12, 4) instances, seeds 0-4, the verify passes
unmutated, and each mutant fails the check it is named for (it may fail
others too). A closed-form mutant multiplies the first function of a pair
on the atom where the pair's operator is largest (``expectation_norms``) by
1 + delta, or by 0; an oracle mutant multiplies the per-atom value of a
derived operator on its largest atom by 1 + delta. delta is 1e-6, or more
where the atom's value is so small that 1e-6 of it is under a hundred
times the match tolerance (the powers at p = 3.5 on a small T).

``aluthge_idempotent`` compares two outputs of the oracle's Aluthge
transform, which is homogeneous on each atom, so a scaling on both sides
cancels; its mutant adds a constant on one atom instead, which the
transform of the transform adds twice.
"""

import numpy as np
import pytest

from condexp import proportional_instance, random_instance
from condexp import operator_algebra as oa
from condexp import wce_operator as wce
from condexp.verification import POWERS, Tolerances, verify_instance

CASES = [kind(seed, 12, 4) for kind in (random_instance, proportional_instance) for seed in range(5)]

#: a mutant's relative change on its atom, before it is raised to be seen
DELTA = 1e-6


def _delta(value: float) -> float:
    """DELTA, or the change that moves ``value`` by a hundred match
    tolerances where DELTA moves it by less."""
    return max(DELTA, 100.0 * Tolerances().match / value)


def _scaled_on_atom(pair, algebra, atom: int, factor) -> tuple:
    """The pair (a, b) with a times ``factor`` on ``atom``: its coefficient
    there, a being held per atom."""
    a, b = pair
    bump = np.ones(algebra.block_count)
    bump[atom] = factor
    return a.times(bump), b


def _closed_form(name: str, side: str, p=None, drop: bool = False):
    """A mutant of ``wce.<name>`` on T's side (W itself) or T*'s
    (``adjoint_wce(W)``), at the power p alone if given: its pair's first
    function times 1 + delta, or 0 if ``drop``, on its largest atom."""

    def install(monkeypatch, instance):
        original = getattr(wce, name)

        def mutated(V, *args):
            pair = original(V, *args)
            if (V.u is instance.u) != (side == "T") or (p is not None and args[0] != p):
                return pair
            norms = oa.expectation_norms(V.space, V.algebra, pair)
            atom = int(np.argmax(norms))
            factor = 0.0 if drop else 1.0 + _delta(norms[atom])
            return _scaled_on_atom(pair, V.algebra, atom, factor)

        monkeypatch.setattr(wce, name, mutated)

    return install


def _oracle(name: str, side: str, p=None, offset: bool = False):
    """A mutant of ``oa.<name>`` (``gram_power`` or ``aluthge_numeric``) on
    the operators of T's side (those that are no adjoint) or of T*'s: its
    per-atom value times 1 + delta on its largest atom, or plus delta times
    that value if ``offset``."""

    def install(monkeypatch, instance):
        def mutated(S, *args):
            atoms = oa._atoms(S)
            if args:
                values = atoms.s ** (2 * args[0])
            else:
                root = np.sqrt(atoms.s)
                values = root * atoms.g * root
            values = values.astype(complex)
            if (oa._adjoint_source(S) is None) == (side == "T") and (p is None or args[0] == p):
                atom = int(np.argmax(np.abs(values)))
                change = _delta(abs(values[atom])) * values[atom]
                values[atom] += abs(change) if offset else change
            return oa._on_right_lines(S, values)

        monkeypatch.setattr(oa, name, mutated)

    return install


MUTANTS = {
    **{
        f"tstar_t_power_{p}": [_closed_form("tstar_t_power", "T", p), _oracle("gram_power", "T", p)]
        for p in POWERS
    },
    **{
        f"t_tstar_power_{p}": [
            _closed_form("tstar_t_power", "T*", p),
            _oracle("gram_power", "T*", p),
        ]
        for p in POWERS
    },
    "polar_reconstruction": [
        _closed_form("polar_isometry_closed_form", "T"),
        _closed_form("tstar_t_power", "T", 0.5),
    ],
    "polar_partial_isometry": [_closed_form("polar_isometry_closed_form", "T")],
    "polar_kernel_condition": [_closed_form("polar_isometry_closed_form", "T", drop=True)],
    "aluthge_matches_oracle": [
        _closed_form("aluthge_closed_form", "T"),
        _oracle("aluthge_numeric", "T"),
    ],
    "aluthge_idempotent": [_oracle("aluthge_numeric", "T", offset=True)],
    "adjoint_isometry_is_adjoint_of_isometry": [
        _closed_form("polar_isometry_closed_form", "T*"),
        _closed_form("polar_isometry_closed_form", "T"),
    ],
    "adjoint_aluthge_matches_oracle": [
        _closed_form("aluthge_closed_form", "T*"),
        _oracle("aluthge_numeric", "T*"),
    ],
}

CHECKS = [(check, k) for check, mutants in MUTANTS.items() for k in range(len(mutants))]


def test_every_operator_check_has_a_mutant():
    operator_checks = {c.name for c in verify_instance(CASES[0])[1:16]}
    assert set(MUTANTS) == operator_checks and len(operator_checks) == 15


def test_the_unmutated_verify_passes():
    for instance in CASES:
        assert all(c.passed for c in verify_instance(instance))


@pytest.mark.parametrize("check, k", CHECKS, ids=[f"{c}-{k}" for c, k in CHECKS])
def test_the_mutant_fails_its_check(monkeypatch, check, k):
    for n, instance in enumerate(CASES):
        with monkeypatch.context() as patch:
            MUTANTS[check][k](patch, instance)
            checks = {c.name: c for c in verify_instance(instance)}
        assert not checks[check].passed, (n, checks[check])
