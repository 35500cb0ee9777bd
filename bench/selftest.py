"""Self-test of the benchmark: the correctness gate trips on corrupted
results, and the tracer accounts for an instance's time and restores what it
wrapped.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402

import condexp  # noqa: E402
import condexp.cli  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import Task, closed_form_failures, failures, run_task, verify_failures  # noqa: E402


def _small_verify_task():
    return Task(
        "random",
        5,
        ("verify", "--random", "--seed", "5", "--points", "12", "--blocks", "3"),
        lambda: condexp.random_instance(5, 12, 3),
    )


def _small_closed_form_task():
    return Task(
        "closed_form",
        5,
        ("inspect", "--random", "--seed", "5", "--points", "400", "--blocks", "10"),
        lambda: condexp.random_instance(5, 400, 10),
        closed_form=True,
    )


def _edit(output: bytes, change) -> bytes:
    report = json.loads(output)
    change(report)
    return json.dumps(report).encode()


def test_verify_gate_passes_a_good_result():
    task = _small_verify_task()
    assert failures(task, run_task(condexp, task)) == []


def test_verify_gate_trips_on_corrupted_results():
    good = run_task(condexp, _small_verify_task()).output

    def not_passed(r):
        r["summary"]["all_passed"] = False

    def two_results(r):
        r["results"].append(r["results"][0])

    def no_results(r):
        r["results"] = []

    corrupted = [
        (0, _edit(good, not_passed)),
        (0, _edit(good, two_results)),
        (0, _edit(good, no_results)),
        (1, good),
        (0, good[: len(good) // 2]),
    ]
    for exit_code, output in corrupted:
        assert verify_failures(exit_code, output), (exit_code, output[:80])


def test_closed_form_gate_passes_a_good_result():
    task = _small_closed_form_task()
    assert failures(task, run_task(condexp, task)) == []


def test_closed_form_gate_trips_on_corrupted_results():
    good = run_task(condexp, _small_closed_form_task())

    def bump_norm(r):
        r["norm_closed_form"] *= 1.0 + 1e-6

    corrupted = [
        dataclasses.replace(good, output=_edit(good.output, bump_norm)),
        dataclasses.replace(good, radius=good.radius * (1.0 + 1e-6)),
        dataclasses.replace(good, clusters=good.clusters - 1),
        dataclasses.replace(good, gap_min=-1e-6),
        dataclasses.replace(good, exit_code=2),
    ]
    for outcome in corrupted:
        assert closed_form_failures(outcome), outcome.exit_code


def test_tracer_accounts_for_the_instance_and_restores_originals():
    originals = (condexp.cli.main, condexp.wce_operator.to_matrix, np.linalg.svd)
    tracer = tracing.Tracer()
    task = _small_verify_task()
    with tracer.installed(condexp):
        assert condexp.wce_operator.to_matrix is not originals[1]
        with tracer.instance(0):
            run_task(condexp, task)
    assert (condexp.cli.main, condexp.wce_operator.to_matrix, np.linalg.svd) == originals

    metrics = tracing.aggregate(tracer)
    root = [s for s in tracer.spans if s[0] == tracing.ROOT]
    assert len(root) == 1
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    root_duration = root[0][2] - root[0][1]
    assert abs(layer_self + root[0][5] - root_duration) <= 1e-9 * max(1.0, root_duration)
    assert metrics["cli.calls"] >= 1 and metrics["linalg.svd.calls"] >= 1
    assert metrics["verification.checks"] >= 1


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
