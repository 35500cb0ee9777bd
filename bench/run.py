"""The condexp benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all --seconds S       # every workload, both modes

Run from the root of a checkout. Each run starts fresh worker processes
(``worker.py``) with the BLAS pinned to one thread. With ``--trace 0`` it
measures the end-to-end metrics: set-up time (median over several fresh
processes), per-instance latency, throughput and peak memory of the
workload process. With ``--trace 1`` it reports the per-layer split from the
traced run. It prints every metric by name and unit, writes the result with
its manifest to ``bench/out/``, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 when it ran (``correct`` says whether every output passed the
gate), 1 when a worker did not finish, 2 when condexp's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "condexp"
OUT = HERE / "out"

#: BLAS threads every worker is pinned to (at most nproc)
BLAS_THREADS = 1
#: fresh processes timed for set-up, besides the workload process itself
SETUP_PROBES = 6
#: a worker that takes longer than this is killed
WORKER_TIMEOUT_S = 170.0

#: (name, unit) of the end-to-end metrics in the final JSON line
END_TO_END = (
    ("setup_s", "s"),
    ("instance_s.p50", "s"),
    ("instances_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: (name, unit) of the per-layer metrics in the final JSON line
PER_LAYER = tuple(
    (f"{layer}.{stat}", unit)
    for layer in LAYERS
    for stat, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("linalg.svd.calls", "count"),
    ("linalg.svd.s", "s"),
    ("linalg.eigvals.calls", "count"),
    ("linalg.eigvals.s", "s"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.s", "s"),
    ("linalg.n3_sum", "n3"),
    ("linalg.max_n", "n"),
    ("spectral_analysis.joint_point_spectrum.s", "s"),
    ("spectral_analysis.joint_point_spectrum.clusters", "count"),
    ("spectral_analysis.joint_point_spectrum.kept_ratio", "ratio"),
    ("operator_algebra.dense_operators", "count"),
    ("operator_algebra.dense_bytes", "B"),
    ("operator_classes.definitional.s", "s"),
    ("operator_classes.pointwise.s", "s"),
    ("measure_space.conditional_expectation.calls", "count"),
    ("measure_space.cluster_values.s", "s"),
    ("verification.checks", "count"),
    ("verification.min_headroom_log10", "log10"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.remainder_ratio", "ratio"),
    ("trace.counts_repeat", "flag"),
)
#: labels for metrics computed from shapes or sizes rather than measured
COMPUTED = {
    "linalg.n3_sum": "computed: sum of m*n*min(m, n) over factorizations",
    "operator_algebra.dense_bytes": "computed: 16*n^2 per dense operator",
}


class WorkerFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("CONDEXP_LOG", None)
    return env


def start_worker(args, timeout):
    """Run worker.py to completion; return (spawn time, its JSON result)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=False,
    )
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def end_to_end(args, deadline):
    setup = []
    for _ in range(SETUP_PROBES):
        spawned, probe = start_worker(["--setup-only"], deadline - time.monotonic())
        setup.append(probe["ready"] - spawned)
    spawned, result = start_worker(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
        deadline - time.monotonic(),
    )
    setup.append(result["ready"] - spawned)
    times = result["times"]
    metrics = {
        "setup_s": statistics.median(setup),
        "instance_s.p50": statistics.median(times),
        "instances_per_s": len(times) / result["busy_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = {
        "instance_s.samples": len(times),
        "instance_s.all": times,
        "setup_s.all": setup,
        "calibration_s.p50": statistics.median(result["calibration_s"]),
        "calibration_s.all": result["calibration_s"],
    }
    # a p90 needs ten samples beyond it
    if len(times) >= 100:
        extra["instance_s.p90"] = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return metrics, extra, result


def traced(args, deadline):
    _, result = start_worker(
        ["--workload", args.workload, "--seed", str(args.seed), "--trace"],
        deadline - time.monotonic(),
    )
    extra = {
        "traced_instances": result["traced_instances"],
        "counts_mismatched": result["counts_mismatched"],
        "spans": result["spans"],
    }
    for item in result["counts_mismatched"]:
        print(f"count did not repeat: {item}", file=sys.stderr)
    return result["layers"], extra, result


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args, result, metrics):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **result["versions"],
        "blas_threads_pinned": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "trace.overhead_ratio": metrics.get("trace.overhead_ratio"),
        "gate_s": result["gate_s"],
        "failures": result["failures"],
        "fingerprints": result["fingerprints"],
    }


#: (name, unit) of figures printed after the metrics when a run has them;
#: not in the final line (ops_failed_ratio is 0 at a healthy commit, and
#: only sweep_small has the samples for a p90)
PRINTED_EXTRA = (
    ("instance_s.p90", "s"),
    ("ops_failed_ratio", "ratio"),
    ("calibration_s.p50", "s"),
)


def print_table(workload, metrics, units, extra):
    print(f"# {workload}")
    for name, unit in units:
        note = COMPUTED.get(name, "")
        if name == "instance_s.p50":
            note = f"(n={extra['instance_s.samples']})"
        print(f"{name:<52} {metrics[name]:>16.6g} {unit:<6} {note}")
    for name, unit in PRINTED_EXTRA:
        if name in extra:
            print(f"{name:<52} {extra[name]:>16.6g} {unit}")


def run_workload(args):
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    if args.trace:
        metrics, extra, result = traced(args, deadline)
        units = PER_LAYER
    else:
        metrics, extra, result = end_to_end(args, deadline)
        units = END_TO_END
    extra["ops_failed_ratio"] = result["failed"] / result["attempted"]
    print_table(args.workload, metrics, units, extra)
    OUT.mkdir(exist_ok=True)
    record = {
        "manifest": manifest(args, result, metrics),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        "extra": extra,
    }
    out_path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path.relative_to(ROOT)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: condexp sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    try:
        for workload, trace in runs:
            line = run_workload(argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace}))
            print(json.dumps(line))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
