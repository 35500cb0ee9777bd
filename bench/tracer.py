"""Timing spans around the public functions of every condexp module.

The tracer lives in the benchmark, not in the library: it replaces
each public module-level function of the ``condexp`` modules, in every
namespace that holds it (``from .x import y`` binds the same function under
several modules), plus the ``numpy.linalg`` routines the oracle calls, with a
wrapper that records a span, for the duration of ``Tracer.installed``.

A span is ``(name, start, end, parent, instance, self_s, info)``: ``parent``
is the index of the enclosing span (``-1`` for none), ``instance`` the id of
the benchmark instance it ran under, ``self_s`` its duration minus the time
its child spans cover, and ``info`` a size the aggregation needs (the matrix
order for linalg spans, a result length for a few library functions). Spans
are recorded only inside ``Tracer.instance``; they stay in memory until the
run writes them out with ``write_jsonl``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from contextlib import contextmanager

import numpy as np

#: the layers, one per condexp module, in report order; ``linalg`` is the
#: numpy.linalg calls made by any of them
MODULE_LAYERS = (
    "cli",
    "verification",
    "spectral_analysis",
    "operator_classes",
    "wce_operator",
    "operator_algebra",
    "measure_space",
    "instance_factory",
)
LAYERS = MODULE_LAYERS + ("linalg",)

#: numpy.linalg routine -> the factorization group it is reported under
LINALG_GROUPS = {
    "svd": "svd",
    "eigvals": "eigvals",
    "eigh": "eigh",
    "eigvalsh": "eigh",
    "norm": "svd",  # the matrix 2-norm is an SVD; other norms are not factorizations
}
FACTORIZING_NORM_ORDS = (2, -2, "nuc")

ROOT = "bench.instance"
DEFINITIONAL = (
    "operator_classes.is_a_class_definitional",
    "operator_classes.is_star_a_definitional",
    "operator_classes.is_quasi_star_a_definitional",
)


def _len_info(args, kwargs, result):
    return len(result)


def _verify_info(args, kwargs, checks):
    """(check count, tightest log10(tolerance / margin)) of a verify_instance
    result; checks with a zero margin have unbounded headroom and are skipped."""
    headrooms = [
        math.log10(c.tolerance / c.margin)
        for c in checks
        if c.margin > 0 and c.tolerance > 0 and math.isfinite(c.margin)
    ]
    return (len(checks), min(headrooms) if headrooms else None)


#: span name -> function of the wrapped call's (args, kwargs, result) stored
#: as the span's info
RESULT_INFO = {
    "measure_space.cluster_values": _len_info,
    "spectral_analysis.joint_point_spectrum": _len_info,
    "verification.verify_instance": _verify_info,
}


def _linalg_info(routine, args, kwargs, result):
    """Matrix order of a factorization and its computed cost m*n*min(m, n)
    (n^3 for a square matrix); (0, 0) for a call that factorizes nothing."""
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 2:
        return 0, 0
    if routine == "norm":
        ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
        if ord_ not in FACTORIZING_NORM_ORDS:
            return 0, 0
    m, n = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    return max(m, n), batch * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.dense_operators = 0
        self.dense_bytes = 0
        self._stack: list = []  # [span index, child seconds]
        self._instance = None
        self._patches: list = []  # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        self.spans.append([name, time.perf_counter(), 0.0, self._parent(), self._instance, 0.0, None])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self, info=None):
        end = time.perf_counter()
        index, child_s = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        span[5] = duration - child_s
        span[6] = info
        if self._stack:
            self._stack[-1][1] += duration

    def _parent(self):
        return self._stack[-1][0] if self._stack else -1

    @contextmanager
    def instance(self, instance_id):
        """Root span of one benchmark instance; only calls made inside it are
        recorded."""
        self._instance = instance_id
        self._enter(ROOT)
        try:
            yield
        finally:
            self._exit()
            self._instance = None

    def reset(self):
        self.spans = []
        self.dense_operators = 0
        self.dense_bytes = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._instance is None:
                return fn(*args, **kwargs)
            self._enter(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                self._exit(extra)

        return traced

    def _count_dense(self, post_init):
        @functools.wraps(post_init)
        def counted(op):
            post_init(op)
            if self._instance is not None:
                n = op.space.point_count
                self.dense_operators += 1
                self.dense_bytes += 16 * n * n

        return counted

    def _patch(self, namespace, attribute, replacement):
        self._patches.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, replacement)

    @contextmanager
    def installed(self, package):
        """Wrap every public function of ``package``'s layer modules and the
        numpy.linalg routines, and count WeightedOperator constructions; put
        the originals back on exit."""
        try:
            self._install(package)
            yield
        finally:
            self._uninstall()

    def _install(self, package):
        modules = [getattr(package, layer) for layer in MODULE_LAYERS]
        wrappers = {}
        for layer, module in zip(MODULE_LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, RESULT_INFO.get(name))
        for namespace in modules + [package]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])
        for routine in LINALG_GROUPS:
            info = functools.partial(_linalg_info, routine)
            self._patch(np.linalg, routine, self._wrap(f"linalg.{routine}", getattr(np.linalg, routine), info))
        op_class = package.operator_algebra.WeightedOperator
        self._patch(op_class, "__post_init__", self._count_dense(op_class.__post_init__))

    def _uninstall(self):
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)


def write_jsonl(spans, path):
    """Write spans as JSON lines, one object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, instance, self_s, info in spans:
            record = {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "instance": instance,
                "self_s": self_s,
            }
            if info is not None:
                record["info"] = info
            fh.write(json.dumps(record) + "\n")


def aggregate(tracer):
    """Per-layer metrics of the recorded spans (totals over every instance)."""
    spans = tracer.spans
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for group in ("svd", "eigvals", "eigh"):
        m[f"linalg.{group}.calls"] = 0
        m[f"linalg.{group}.s"] = 0.0
    m["linalg.n3_sum"] = 0
    m["linalg.max_n"] = 0
    jps_s = 0.0
    clusters = 0
    kept = 0
    definitional_s = 0.0
    pointwise_s = 0.0
    cluster_values_s = 0.0
    cond_exp_calls = 0
    checks = 0
    headroom = None
    root_s = 0.0
    root_self_s = 0.0
    for name, start, end, parent, _, self_s, info in spans:
        duration = end - start
        if name == ROOT:
            root_s += duration
            root_self_s += self_s
            continue
        layer = name.split(".", 1)[0]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += self_s
        if layer == "linalg":
            routine = name.split(".", 1)[1]
            order, cost = info
            if cost == 0 and routine == "norm":
                continue
            group = LINALG_GROUPS[routine]
            m[f"linalg.{group}.calls"] += 1
            m[f"linalg.{group}.s"] += duration
            m["linalg.n3_sum"] += cost
            m["linalg.max_n"] = max(m["linalg.max_n"], order)
        elif name == "spectral_analysis.joint_point_spectrum":
            jps_s += duration
            kept += info
        elif name == "measure_space.cluster_values":
            cluster_values_s += duration
            if parent >= 0 and spans[parent][0] == "spectral_analysis.joint_point_spectrum":
                clusters += info
        elif name == "measure_space.conditional_expectation":
            cond_exp_calls += 1
        elif name == "verification.verify_instance":
            checks += info[0]
            if info[1] is not None:
                headroom = info[1] if headroom is None else min(headroom, info[1])
        if name in DEFINITIONAL:
            definitional_s += duration
        elif layer == "operator_classes":
            pointwise_s += self_s
    m["spectral_analysis.joint_point_spectrum.s"] = jps_s
    m["spectral_analysis.joint_point_spectrum.clusters"] = clusters
    m["spectral_analysis.joint_point_spectrum.kept_ratio"] = kept / clusters if clusters else 0.0
    m["operator_algebra.dense_operators"] = tracer.dense_operators
    m["operator_algebra.dense_bytes"] = tracer.dense_bytes
    m["operator_classes.definitional.s"] = definitional_s
    m["operator_classes.pointwise.s"] = pointwise_s
    m["measure_space.conditional_expectation.calls"] = cond_exp_calls
    m["measure_space.cluster_values.s"] = cluster_values_s
    m["verification.checks"] = checks
    m["verification.min_headroom_log10"] = headroom if headroom is not None else 0.0
    m["trace.remainder_ratio"] = root_self_s / root_s if root_s else 0.0
    return m


def exact_count_keys(metrics):
    """The metrics that are exact counts and must repeat between two traced
    passes over the same instances."""
    return [
        k
        for k in metrics
        if k.endswith(".calls")
        or k
        in (
            "linalg.n3_sum",
            "linalg.max_n",
            "spectral_analysis.joint_point_spectrum.clusters",
            "operator_algebra.dense_operators",
            "operator_algebra.dense_bytes",
            "verification.checks",
        )
    ]
