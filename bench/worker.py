"""One fresh workload process, started by ``run.py``.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace]

It imports condexp from ``src/`` of the checkout, makes one warm-up oracle
call and prints a JSON line ``{"ready": <CLOCK_MONOTONIC seconds>}``; the
parent subtracts its spawn time to get the set-up time. Unless
``--setup-only``, it then warms up with one instance of the workload and either
runs the timed closed loop for ``--seconds`` (untraced), or runs the fixed
traced list once untraced and twice traced. Its last stdout line is a JSON
result.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402

import condexp  # noqa: E402
import condexp.cli  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import TaskStream, failures, run_task  # noqa: E402

OUT = HERE / "out"


def warm_up_oracle():
    W = condexp.as_wce(condexp.random_instance(0, 64, 8))
    condexp.operator_norm(condexp.to_matrix(W))


def peak_rss_mb():
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc/self/status")


class Ledger:
    """Gate results and fingerprints of every instance run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.fingerprints = []
        self.gate_s = 0.0

    def gate(self, task, outcome=None, error=None):
        t0 = time.perf_counter()
        self.attempted += 1
        reasons = [f"raised {error!r}"] if error is not None else failures(task, outcome)
        if reasons:
            self.failed += 1
            self.failures.append({"kind": task.kind, "seed": task.seed, "reasons": reasons})
        instance = outcome.instance if outcome is not None and outcome.instance is not None else task.make()
        self.fingerprints.append(
            {"kind": task.kind, "seed": task.seed, "fingerprint": condexp.fingerprint(instance)}
        )
        self.gate_s += time.perf_counter() - t0


def run_one(task, ledger, tracer=None, instance_id=None):
    """Run one instance; return its wall seconds, timed around the program
    calls only (the gate runs after)."""
    outcome = error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = run_task(condexp, task)
        else:
            with tracer.instance(instance_id):
                outcome = run_task(condexp, task)
    except Exception as exc:  # a raising instance is a failed instance
        error = exc
    seconds = time.perf_counter() - t0
    ledger.gate(task, outcome, error)
    return seconds


def calibrate():
    """Seconds for a fixed kernel (dense SVDs and a Python loop) that no
    condexp change can affect: a record of how fast the machine ran."""
    a = np.random.default_rng(0).standard_normal((96, 96))
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.svd(a)
    sum(i * i for i in range(100_000))
    return time.perf_counter() - t0


def timed_loop(stream, seconds, ledger):
    """Whole cycles until ``seconds`` have passed, with the calibration
    kernel about once a second between cycles; returns the per-instance
    times, the loop's wall time less the gate's and calibration's, and the
    calibration times."""
    times, calibration = [], []
    start = time.perf_counter()
    last_calibration = start - 1.0
    overhead = -ledger.gate_s
    while time.perf_counter() - start < seconds:
        if time.perf_counter() - last_calibration >= 1.0:
            last_calibration = time.perf_counter()
            calibration.append(calibrate())
            overhead += time.perf_counter() - last_calibration
        for task in stream.next_cycle():
            times.append(run_one(task, ledger))
    wall = time.perf_counter() - start
    overhead += ledger.gate_s
    return times, wall - overhead, calibration


def traced_passes(stream, ledger, spans_path):
    """The fixed traced list run untraced, then twice traced; per-layer
    metrics and the spans written out come from the first traced pass, and
    the exact counts of the two traced passes are compared."""
    tasks = [t for _ in range(stream.traced_cycles) for t in stream.next_cycle()]
    tracer = tracing.Tracer()
    untraced, first_times = [], []
    # each instance runs untraced, then traced, so drift during the run
    # does not bias the overhead ratio
    for i, task in enumerate(tasks):
        untraced.append(run_one(task, ledger))
        with tracer.installed(condexp):
            first_times.append(run_one(task, ledger, tracer, i))
    first = tracing.aggregate(tracer)
    first_spans = tracer.spans
    tracer.reset()
    with tracer.installed(condexp):
        for i, task in enumerate(tasks):
            run_one(task, ledger, tracer, i)
    second = tracing.aggregate(tracer)
    tracing.write_jsonl(first_spans, spans_path)
    mismatched = [
        {"metric": k, "first": first[k], "second": second[k]}
        for k in tracing.exact_count_keys(first)
        if first[k] != second[k]
    ]
    first["trace.overhead_ratio"] = statistics.median(first_times) / statistics.median(untraced)
    first["trace.counts_repeat"] = 0 if mismatched else 1
    return first, mismatched, len(tasks)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    warm_up_oracle()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    ledger = Ledger()
    run_one(TaskStream(condexp, args.workload, args.seed, "warm-up").next_cycle()[0], ledger)
    stream = TaskStream(condexp, args.workload, args.seed, "measure")
    result = {"ready": ready}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}_seed{args.seed}.spans.jsonl"
        layers, mismatched, traced = traced_passes(stream, ledger, spans_path)
        result.update(
            layers=layers,
            counts_mismatched=mismatched,
            traced_instances=traced,
            spans=str(spans_path.relative_to(ROOT)),
        )
    else:
        times, busy, calibration = timed_loop(stream, args.seconds, ledger)
        result.update(times=times, busy_s=busy, calibration_s=calibration)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update(
        versions={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration"),
        },
        peak_rss_mb=peak_rss_mb(),
        gate_s=ledger.gate_s,
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=ledger.failures,
        fingerprints=ledger.fingerprints,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
