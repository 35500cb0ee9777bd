"""Command-line interface.

Subcommands: inspect | classify | spectrum | verify | gen. Instances are
read from a JSON file or produced by the built-in generators. Reports are
JSON on stdout (``--pretty`` renders tables instead); diagnostics go to
stderr. Exit codes: 0 success, 1 verification failures, 2 invalid input,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from typing import Iterator

import numpy as np

from . import operator_classes as oc
from . import spectral_analysis as sa
from . import wce_operator as wce
from .instance_factory import (
    Instance,
    as_wce,
    product_space_example,
    proportional_instance,
    random_instance,
    symmetric_interval_example,
)
from .measure_space import FiniteMeasureSpace, MeasurableFunction, SubSigmaAlgebra
from .operator_algebra import SolverError, operator_norm
from .verification import Tolerances, summarize, verify_instance

log = logging.getLogger("condexp")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER = 3


def _complex_out(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _real_in(value) -> float:
    # bool is an int subclass; a JSON true is not a number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _index_in(value):
    # numpy reads [0, true] as the integers [0, 1]
    if isinstance(value, bool):
        raise ValueError(f"expected a block index, got {value!r}")
    return value


def _complex_in(value) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real_in(value[0]), _real_in(value[1]))
    return complex(_real_in(value))


def _function_out(f: MeasurableFunction) -> list:
    return [_complex_out(v) for v in f.values]


def instance_to_json(instance: Instance) -> dict:
    return {
        "weights": [float(x) for x in instance.space.weights],
        "blocks": [[int(i) for i in b] for b in instance.algebra.blocks],
        "u": _function_out(instance.u),
        "w": _function_out(instance.w),
    }


def instance_from_json(data: dict) -> Instance:
    try:
        weights = [_real_in(x) for x in data["weights"]]
        blocks = [[_index_in(i) for i in b] for b in data["blocks"]]
        u = [_complex_in(v) for v in data["u"]]
        w = [_complex_in(v) for v in data["w"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file: {exc}") from exc
    space = FiniteMeasureSpace(weights)
    algebra = SubSigmaAlgebra(tuple(blocks), space.point_count)
    return Instance(
        space,
        algebra,
        MeasurableFunction(u, space),
        MeasurableFunction(w, space),
    )


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", help="instance JSON file (or use a generator)")
    parser.add_argument(
        "--example", choices=["product", "symmetric"], help="built-in analytic example"
    )
    parser.add_argument("--nx", type=int, default=8, help="product example: x grid size")
    parser.add_argument("--ny", type=int, default=200, help="product example: y grid size")
    parser.add_argument("--n", type=int, default=100, help="symmetric example: pair count")
    parser.add_argument("--random", action="store_true", help="seeded random instance")
    parser.add_argument(
        "--proportional",
        action="store_true",
        help="Cauchy-Schwarz equality-case instance (quasi-*-A)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=16)
    parser.add_argument("--blocks", type=int, default=4)
    parser.add_argument(
        "--real", action="store_true", help="real-valued u, w for --random"
    )


def _add_tol_args(parser: argparse.ArgumentParser) -> None:
    defaults = Tolerances()
    for flag, default, help_text in (
        ("--tol-psd", defaults.psd, "Loewner-order tolerance"),
        ("--tol-spec", defaults.spectrum, "spectrum set tolerance"),
        ("--tol-support", defaults.support, "support tolerance"),
    ):
        parser.add_argument(flag, type=float, default=default, help=help_text)


def _load_instance(args) -> Instance:
    if args.path is not None:
        with open(args.path, "r", encoding="utf-8") as fh:
            return instance_from_json(json.load(fh))
    if args.example == "product":
        return product_space_example(args.nx, args.ny)
    if args.example == "symmetric":
        return symmetric_interval_example(args.n)
    if args.proportional:
        return proportional_instance(args.seed, args.points, args.blocks)
    if args.random:
        return random_instance(args.seed, args.points, args.blocks, not args.real)
    raise ValueError("no instance source: give a file path or a generator flag")


def _tolerances(args) -> Tolerances:
    """The tolerance flags, validated (finite and >= 0) by ``Tolerances``."""
    return Tolerances(psd=args.tol_psd, spectrum=args.tol_spec, support=args.tol_support)


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        _print_table(report)
    else:  # one write: json.dump writes each of its many pieces
        sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")


def _print_table(report: dict, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                cells = "  ".join(f"{k}={v}" for k, v in item.items())
                print(f"{indent}  {cells}")
        else:
            print(f"{indent}{key:<32} {value}")


def _verdict_dict(v: oc.ClassVerdict) -> dict:
    out = {
        "class": v.class_name,
        "definitional": v.definitional,
        "sufficient_criterion": v.sufficient_criterion,
        "necessary_criterion": v.necessary_criterion,
    }
    if v.witness:
        out["witness"] = v.witness
    if v.supports_equal is not None:
        out["supports_equal"] = v.supports_equal
    if v.interpretation:
        out["interpretation"] = v.interpretation
    return out


def _instance_summary(instance: Instance) -> dict:
    return {
        "points": instance.space.point_count,
        "blocks": instance.algebra.block_count,
        "total_mass": instance.space.total_mass,
    }


def cmd_inspect(args) -> int:
    tols = _tolerances(args)
    instance = _load_instance(args)
    W = as_wce(instance, support_tol=tols.support)
    report = {
        "instance": _instance_summary(instance),
        "moments": {
            "E_u": _function_out(W.e_u),
            "E_w": _function_out(W.e_w),
            "E_uw": _function_out(W.e_uw),
            "E_abs_u2": [float(x) for x in W.e_abs_u2.values.real],
            "E_abs_w2": [float(x) for x in W.e_abs_w2.values.real],
        },
        "supports": {
            "S": np.flatnonzero(W.support_u2).tolist(),
            "G": np.flatnonzero(W.support_w2).tolist(),
            "S_prime": np.flatnonzero(W.support_eu).tolist(),
        },
        "norm_closed_form": wce.norm_closed_form(W),
    }
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_classify(args) -> int:
    tols = _tolerances(args)
    instance = _load_instance(args)
    W = as_wce(instance, support_tol=tols.support)
    gap = oc.cauchy_schwarz_gap(W).values.real
    report = {
        "instance": _instance_summary(instance),
        "verdicts": [
            _verdict_dict(oc.a_class_criterion(W, tols.psd)),
            _verdict_dict(oc.star_a_criteria(W, tols.psd)),
            _verdict_dict(oc.quasi_star_a_criteria(W, tols.psd)),
        ],
        "cauchy_schwarz_gap": {"min": float(gap.min()), "max": float(gap.max())},
    }
    if W.w_is_one(tols.psd):
        normality = oc.normality_equivalence(W, tols.psd)
        report["normality_equivalence"] = {
            "is_normal": normality.is_normal,
            "is_quasi_star_a": normality.is_quasi_star_a,
            "u_is_algebra_measurable": normality.u_is_algebra_measurable,
            "consistent": normality.consistent,
        }
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    tols = _tolerances(args)
    instance = _load_instance(args)
    W = as_wce(instance, support_tol=tols.support)
    spec = sa.spectrum_report(W, tols.spectrum)
    T = wce.to_matrix(W)
    report = {
        "instance": _instance_summary(instance),
        "spectrum": {
            "closed_form_nonzero": [_complex_out(z) for z in spec.closed_form_nonzero],
            "zero_in_spectrum": spec.zero_in_spectrum,
            "zero_reason": spec.zero_reason,
            "numeric_eigenvalues": [_complex_out(z) for z in spec.numeric_eigenvalues],
            "match": spec.match,
            "max_set_distance": spec.max_set_distance,
            "supports_cover_all": spec.supports_cover_all,
        },
        "joint_point_spectrum": [_complex_out(z) for z in sa.joint_point_spectrum(T)],
        "spectral_radius_closed_form": sa.spectral_radius_closed_form(W),
        "operator_norm": operator_norm(T),
    }
    _emit(report, args.pretty)
    return EXIT_OK


def _verify_instances(args) -> Iterator:
    """(label, instance) pairs: ``--count`` consecutive seeds of ``--random``
    or ``--proportional``, or the one instance any other source names. The
    flags are checked at the call; each seed's instance is built only when
    the iteration reaches it, so one is held at a time, not all of them."""
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if args.count == 1:
        return iter([("instance", _load_instance(args))])
    if args.path is not None or args.example or not (args.random or args.proportional):
        raise ValueError("--count above 1 needs --random or --proportional")
    kind = "proportional" if args.proportional else "random"
    seeds = range(args.seed, args.seed + args.count)
    return (
        (f"{kind} seed={s}", _load_instance(argparse.Namespace(**{**vars(args), "seed": s})))
        for s in seeds
    )


def cmd_verify(args) -> int:
    tols = _tolerances(args)
    all_checks = []
    results = []
    for label, instance in _verify_instances(args):
        log.info("verifying %s", label)
        checks = verify_instance(instance, tols)
        all_checks.extend(checks)
        results.append({"instance": label, **summarize(checks)})
    overall = summarize(all_checks)
    report = {"results": results, "summary": overall}
    _emit(report, args.pretty)
    return EXIT_OK if overall["all_passed"] else EXIT_CHECK_FAILED


def cmd_gen(args) -> int:
    instance = _load_instance(args)
    data = instance_to_json(instance)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="condexp",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("inspect", cmd_inspect, "show cached conditional moments and supports"),
        ("classify", cmd_classify, "operator-class verdicts (definitional vs criteria)"),
        ("spectrum", cmd_spectrum, "spectrum, point spectra and spectral radius"),
        ("verify", cmd_verify, "run the closed-form vs oracle verification suite"),
        ("gen", cmd_gen, "write an instance file for a generator"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        _add_source_args(p)
        _add_tol_args(p)
        p.add_argument("--pretty", action="store_true", help="human-readable tables")
        if name == "verify":
            p.add_argument(
                "--count", type=int, default=1,
                help="consecutive seeds to verify from --seed (--random, --proportional)",
            )
        if name == "gen":
            p.add_argument("-o", "--output", help="write to a file instead of stdout")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("CONDEXP_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
