"""The benchmark's workloads, their instances and the correctness gate.

Every instance is one closed-loop call from a single caller: ``verify`` or
``inspect`` through ``condexp.cli.main`` in-process (one instance per call,
never ``--count``), plus direct library calls for the closed-form route.
Instance seeds derive from the workload seed alone.

Why these four (shares measured on 2 cores, one BLAS thread); only
``sweep_small`` and ``few_large_atoms`` are declared in BENCHMARK.json, the
other two run on request because their run-to-run spread on a noisy machine
exceeds the bounds:

- ``sweep_small``: the acceptance-sweep shape, 64 points and 8 atoms, about
  60 ms each; half small SVDs, half Python per-call overhead. The one
  workload with enough instances per run for a p90.
- ``many_atoms``: 48-64 atoms at 128-192 points, 0.7-1.6 s each; the
  eigenvalue clusters track the atoms, so ``joint_point_spectrum`` (two dense
  SVDs per cluster) dominates. The symmetric example has w = 1, so the
  normality and E M_u checks run too.
- ``few_large_atoms``: 4 atoms at 320 points, 1.5-2 s each; few clusters,
  so dense n^3 SVD, eig and eigh in ``operator_algebra`` and the Loewner
  tests dominate. Atom sizes are furthest from n here.
- ``closed_form_scale``: 40,000 points and 400 atoms, no oracle at all:
  ``inspect`` (JSON emission) and ``cluster_values`` dominate. Oracle
  changes should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: relative tolerance of the gate's recomputed closed forms
GATE_RTOL = 1e-10
#: floor of the conditional Cauchy-Schwarz gap (the library's own default)
GAP_FLOOR = -1e-9


@dataclass(frozen=True)
class Task:
    """One benchmark instance: what to run and how to rebuild its input."""

    kind: str
    seed: int
    argv: tuple
    make: Callable  # () -> condexp Instance, for fingerprints and the gate
    closed_form: bool = False


@dataclass
class Outcome:
    """What one instance returned, kept only until it is gated."""

    exit_code: int
    output: bytes
    clusters: Optional[int] = None
    radius: Optional[float] = None
    gap_min: Optional[float] = None
    instance: object = None


def call_cli(main, argv):
    """Run ``main(argv)`` with stdout captured as UTF-8 bytes, as a user
    redirecting it to a file would."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    out.flush()
    return code, raw.getvalue()


def run_task(condexp, task: Task) -> Outcome:
    """The timed part of one instance."""
    code, output = call_cli(condexp.cli.main, task.argv)
    if not task.closed_form:
        return Outcome(code, output)
    instance = task.make()
    W = condexp.as_wce(instance)
    clusters = len(condexp.ess_range(W.e_uw))
    radius = condexp.spectral_radius_closed_form(W)
    condexp.a_class_pointwise(W)
    gap_min = float(condexp.cauchy_schwarz_gap(W).values.real.min())
    return Outcome(code, output, clusters, radius, gap_min, instance)


# -- correctness gate --------------------------------------------------------


def verify_failures(exit_code: int, output: bytes) -> list:
    """Reasons a ``verify`` instance failed; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(output)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    reasons = []
    if report.get("summary", {}).get("all_passed") is not True:
        failed = [f.get("name") for f in report.get("summary", {}).get("failures", [])]
        reasons.append(f"summary.all_passed is not true (failed: {failed})")
    if len(report.get("results", [])) != 1:
        reasons.append(f"{len(report.get('results', []))} results, expected exactly 1")
    return reasons


def per_atom_moments(instance):
    """E|u|^2, E|w|^2 and E(uw) per atom from the raw arrays, in plain numpy."""
    mu = np.asarray(instance.space.weights)
    labels = np.asarray(instance.algebra.labels)
    u = np.asarray(instance.u.values)
    w = np.asarray(instance.w.values)
    mass = np.bincount(labels, weights=mu)

    def mean(values):
        re = np.bincount(labels, weights=mu * values.real)
        im = np.bincount(labels, weights=mu * values.imag)
        return (re + 1j * im) / mass

    return mean(np.abs(u) ** 2).real, mean(np.abs(w) ** 2).real, mean(u * w)


def _close(a, b):
    return abs(a - b) <= GATE_RTOL * max(1.0, abs(b))


def closed_form_failures(outcome: Outcome) -> list:
    """Reasons a closed-form instance failed: the ``inspect`` norm, r(T) and
    the ess_range cluster count against per-atom sums recomputed here."""
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}"]
    try:
        norm = json.loads(outcome.output)["norm_closed_form"]
    except (ValueError, KeyError) as exc:
        return [f"unparsable inspect output: {exc!r}"]
    eu2, ew2, euw = per_atom_moments(outcome.instance)
    atoms = outcome.instance.algebra.block_count
    reasons = []
    expected_norm = float(np.sqrt(np.clip(eu2 * ew2, 0.0, None).max()))
    if not _close(norm, expected_norm):
        reasons.append(f"norm_closed_form {norm!r} != per-atom {expected_norm!r}")
    expected_radius = float(np.abs(euw).max())
    if not _close(outcome.radius, expected_radius):
        reasons.append(f"r(T) {outcome.radius!r} != max|E(uw)| {expected_radius!r}")
    if outcome.clusters != atoms:
        reasons.append(f"ess_range(E(uw)) has {outcome.clusters} clusters, {atoms} atoms")
    if outcome.gap_min < GAP_FLOOR:
        reasons.append(f"Cauchy-Schwarz gap {outcome.gap_min!r} below {GAP_FLOOR}")
    return reasons


def failures(task: Task, outcome: Outcome) -> list:
    if task.closed_form:
        return closed_form_failures(outcome)
    return verify_failures(outcome.exit_code, outcome.output)


# -- workloads ---------------------------------------------------------------


def _verify_random(condexp, seed, points, blocks, real=False):
    flags = ("--random", "--real") if real else ("--random",)
    return Task(
        "random_real" if real else "random",
        seed,
        ("verify", *flags, "--seed", str(seed), "--points", str(points), "--blocks", str(blocks)),
        lambda: condexp.random_instance(seed, points, blocks, not real),
    )


def _verify_proportional(condexp, seed, points, blocks):
    return Task(
        "proportional",
        seed,
        ("verify", "--proportional", "--seed", str(seed), "--points", str(points), "--blocks", str(blocks)),
        lambda: condexp.proportional_instance(seed, points, blocks),
    )


def _verify_symmetric(condexp, seed, n):
    return Task(
        "symmetric",
        seed,
        ("verify", "--example", "symmetric", "--n", str(n)),
        lambda: condexp.symmetric_interval_example(n),
    )


def _verify_product(condexp, seed, nx, ny):
    return Task(
        "product",
        seed,
        ("verify", "--example", "product", "--nx", str(nx), "--ny", str(ny)),
        lambda: condexp.product_space_example(nx, ny),
    )


def _closed_form(condexp, seed, points, blocks):
    return Task(
        "closed_form",
        seed,
        ("inspect", "--random", "--seed", str(seed), "--points", str(points), "--blocks", str(blocks)),
        lambda: condexp.random_instance(seed, points, blocks),
        closed_form=True,
    )


#: workload -> (cycle of task builders, cycles in the fixed traced list);
#: a run repeats whole cycles so every run has the same mix of kinds
WORKLOADS = {
    "sweep_small": (
        (
            lambda c, s: _verify_random(c, s, 64, 8),
            lambda c, s: _verify_random(c, s, 64, 8, real=True),
            lambda c, s: _verify_proportional(c, s, 64, 8),
        ),
        10,
    ),
    "many_atoms": (
        (
            lambda c, s: _verify_symmetric(c, s, 64),
            lambda c, s: _verify_random(c, s, 192, 48),
            lambda c, s: _verify_proportional(c, s, 192, 48),
        ),
        1,
    ),
    "few_large_atoms": (
        (
            lambda c, s: _verify_product(c, s, 4, 80),
            lambda c, s: _verify_random(c, s, 320, 4),
        ),
        2,
    ),
    "closed_form_scale": (
        (lambda c, s: _closed_form(c, s, 40_000, 400),),
        3,
    ),
}


class TaskStream:
    """Endless cycle of a workload's tasks with seeds drawn from the
    workload seed; the same workload seed gives the same tasks."""

    def __init__(self, condexp, workload: str, seed: int, stream: str):
        self._condexp = condexp
        self.cycle, self.traced_cycles = WORKLOADS[workload]
        self._rng = random.Random(f"{workload}/{seed}/{stream}")

    def next_cycle(self) -> list:
        return [build(self._condexp, self._rng.randrange(2**31)) for build in self.cycle]
