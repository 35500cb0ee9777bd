"""The committed verification corpus (``tests/corpus.py``) against a fresh
run: the same fingerprints and verdicts, every tolerance within 1e-12 of
the recorded one (relative: some scale with the oracle's ||T||), every
margin within 1e-5 of its tolerance of the recorded one, and the sigma_jp
lists of T and T* value by value within 1e-15 (1 + ||T||)."""

import json

import numpy as np
import pytest

from condexp import as_wce, operator_norm, to_matrix

from corpus import PATH, instances, record

RECORDED = json.loads(PATH.read_text(encoding="utf-8"))
INSTANCES = instances()


def test_the_corpus_lists_every_instance():
    assert [name for name, _ in INSTANCES] == list(RECORDED)
    assert len(RECORDED) == 130
    assert sum(len(r["checks"]) for r in RECORDED.values()) == 2992


@pytest.mark.parametrize("name, instance", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_matches_the_recorded_run(name, instance):
    recorded, fresh = RECORDED[name], record(instance)
    assert fresh["fingerprint"] == recorded["fingerprint"]
    assert [c[:2] for c in fresh["checks"]] == [c[:2] for c in recorded["checks"]]
    for (check, _, margin, tol), (_, _, old, old_tol) in zip(fresh["checks"], recorded["checks"]):
        assert tol == pytest.approx(old_tol, rel=1e-12), check
        assert abs(margin - old) <= 1e-5 * tol, check
    bound = 1e-15 * (1.0 + operator_norm(to_matrix(as_wce(instance))))
    for key in ("sigma_jp", "sigma_jp_adjoint"):
        got, want = (np.array(x).reshape(-1, 2) for x in (fresh[key], recorded[key]))
        assert got.shape == want.shape, key
        assert np.abs((got - want) @ [1, 1j]).max(initial=0.0) <= bound, key
