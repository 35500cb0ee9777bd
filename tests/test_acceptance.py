"""End-to-end acceptance suite.

Each test covers one headline guarantee of the library, runs it over a large
seeded instance population at pinned tolerances, and prints a single
machine-greppable PASS/FAIL line (run with ``pytest -s`` to see them all).
The Cauchy-Schwarz floor (criterion 9) is asserted over every instance
touched by the other suites, so the tests in this file share a module-level
gap accumulator and must run in file order (pytest's default).
"""

import time

import numpy as np

from condexp import (
    FiniteMeasureSpace,
    as_wce,
    build_wce,
    cauchy_schwarz_gap,
    product_space_example,
    proportional_instance,
    random_instance,
    symmetric_interval_example,
)
from condexp import operator_algebra as oa
from condexp import operator_classes as oc
from condexp import spectral_analysis as sa
from condexp import wce_operator as wce
from condexp.measure_space import MeasurableFunction, SubSigmaAlgebra
from condexp.operator_algebra import WeightedOperator

import dense_reference as dense

GAP_FLOOR = -1e-9
_gap_minima = []


def _track(W):
    """Record the Cauchy-Schwarz gap minimum of every instance the suite
    touches (criterion 9 asserts over the collection)."""
    _gap_minima.append(float(cauchy_schwarz_gap(W).values.real.min()))
    return W


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def _sized_random(seed, max_points, max_blocks, proportional=False):
    """Seeded instance with seed-dependent size."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_points + 1))
    blocks = int(rng.integers(1, min(n, max_blocks) + 1))
    if proportional:
        return proportional_instance(seed, n, blocks)
    return random_instance(seed, n, blocks)


def _standard(W, x) -> np.ndarray:
    """The dense reference's standard-coordinate matrix of x, an operator
    or the pair (a, b) of M_a E M_b."""
    if not isinstance(x, WeightedOperator):
        x = oa.expectation_operator(W.space, W.algebra, *x)
    return dense.standard(x.entries, W.space.weights)


def _distance(W, first, second) -> float:
    """||first - second|| on L2(mu) by the dense reference, each side an
    operator, the pair (a, b) of M_a E M_b or a standard-coordinate
    matrix."""
    a, b = (x if isinstance(x, np.ndarray) else _standard(W, x) for x in (first, second))
    return dense.norm(a - b)


def test_criterion_1_norm_formula():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        W = _track(as_wce(_sized_random(seed, 32, 8)))
        norm_numeric = oa.operator_norm(wce.to_matrix(W))
        err = abs(wce.norm_closed_form(W) - norm_numeric) / (1.0 + norm_numeric)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "norm formula",
        worst <= 1e-8 and elapsed < 30.0,
        f"1000 instances, max relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_power_formulas():
    worst = 0.0
    for seed in range(200):
        W = _track(as_wce(_sized_random(seed, 16, 5)))
        m = _standard(W, wce.to_matrix(W))
        V = wce.adjoint_wce(W)  # (TT*)^p is the T*T power of the adjoint
        for p in (0.5, 1.0, 2.0, 3.5):
            worst = max(
                worst,
                _distance(W, wce.tstar_t_power(W, p), dense.gram_power(m, p)),
                _distance(W, wce.tstar_t_power(V, p), dense.gram_power(m.conj().T, p)),
            )
    _report(
        2,
        "fractional powers of T*T and TT*",
        worst <= 1e-8,
        f"200 instances x 4 powers, max operator-norm error {worst:.2e}",
    )


def _zero_on_block(instance, which):
    """Zero u (or w) on the first block so the corresponding conditional
    moment vanishes there."""
    f = getattr(instance, which)
    values = f.values.copy()
    values[list(instance.algebra.blocks[0])] = 0.0
    return instance._replace(**{which: MeasurableFunction(values, instance.space)})


def test_criterion_3_polar_decomposition():
    instances = [_sized_random(seed, 14, 4) for seed in range(150)]
    instances += [_zero_on_block(_sized_random(s, 12, 3), "u") for s in range(150, 175)]
    instances += [_zero_on_block(_sized_random(s, 12, 3), "w") for s in range(175, 200)]
    worst_recon = worst_iso = worst_kernel = 0.0
    for instance in instances:
        W = _track(as_wce(instance))
        t = _standard(W, wce.to_matrix(W))
        U, M = (
            _standard(W, pair)
            for pair in (wce.polar_isometry_closed_form(W), wce.tstar_t_power(W, 0.5))
        )
        worst_recon = max(worst_recon, dense.norm(U @ M - t))
        worst_iso = max(worst_iso, dense.norm(U @ U.conj().T @ U - U))
        kernel_gap = dense.norm(dense.kernel_projection(U) - dense.kernel_projection(M))
        worst_kernel = max(worst_kernel, kernel_gap)
    _report(
        3,
        "polar decomposition",
        max(worst_recon, worst_iso, worst_kernel) <= 1e-8,
        f"200 instances (50 with a vanishing moment block), "
        f"reconstruction {worst_recon:.2e}, isometry {worst_iso:.2e}, "
        f"kernel {worst_kernel:.2e}",
    )


def test_criterion_4_aluthge_transform():
    worst_match = worst_fixed = 0.0
    for seed in range(200):
        W = _track(as_wce(_sized_random(seed, 14, 4)))
        T = wce.to_matrix(W)
        delta1 = oa.aluthge_numeric(T)
        worst_match = max(worst_match, _distance(W, wce.aluthge_closed_form(W), delta1))
        worst_fixed = max(worst_fixed, _distance(W, oa.aluthge_numeric(delta1), delta1))
    _report(
        4,
        "Aluthge transform",
        max(worst_match, worst_fixed) <= 1e-8,
        f"200 instances, closed-form match {worst_match:.2e}, "
        f"second iterate drift {worst_fixed:.2e}",
    )


def test_criterion_5_spectrum_and_radius():
    worst_set = worst_radius = 0.0
    for seed in range(500):
        W = _track(as_wce(_sized_random(seed, 12, 4)))
        T = wce.to_matrix(W)
        scale = 1.0 + oa.operator_norm(T)
        report = sa.spectrum_report(W)
        worst_set = max(worst_set, report.max_set_distance / scale)
        radius_numeric = float(np.abs(report.numeric_eigenvalues).max())
        worst_radius = max(
            worst_radius,
            abs(sa.spectral_radius_closed_form(W) - radius_numeric) / scale,
        )
    _report(
        5,
        "spectrum and spectral radius",
        max(worst_set, worst_radius) <= 1e-7,
        f"500 instances, set distance {worst_set:.2e}, radius error {worst_radius:.2e}",
    )


def test_criterion_6_class_theorem_consistency():
    violations = []
    population = [("random", _sized_random(s, 10, 3)) for s in range(500)]
    population += [
        ("proportional", _sized_random(s, 10, 3, proportional=True)) for s in range(100)
    ]
    for kind, instance in population:
        W = _track(as_wce(instance))
        a = oc.a_class_criterion(W)
        if a.sufficient_criterion and not a.definitional:
            violations.append(f"{kind}: A sufficient without definitional")
        if a.definitional and not a.necessary_criterion:
            violations.append(f"{kind}: A definitional without necessary")
        q = oc.quasi_star_a_criteria(W)
        if q.sufficient_criterion and not q.definitional:
            violations.append(f"{kind}: quasi-*-A sufficient without definitional")
    # w identically 1: normality, quasi-*-A membership and algebra
    # measurability of u must agree
    for seed in range(100):
        inst = _sized_random(seed, 10, 3)
        one = MeasurableFunction.constant(inst.space, 1.0)
        W = _track(build_wce(inst.space, inst.algebra, inst.u, one))
        if not oc.normality_equivalence(W).consistent:
            violations.append(f"normality equivalence broken at seed {seed}")
    _report(
        6,
        "operator-class theorem consistency",
        not violations,
        f"600 class instances + 100 normality instances, "
        f"{len(violations)} violations" + (f": {violations[:3]}" if violations else ""),
    )


def test_criterion_7_point_vs_joint_point_spectrum():
    failures = []
    for seed in range(100):
        W = _track(as_wce(_sized_random(seed, 10, 3, proportional=True)))
        report = sa.sigma_p_equals_sigma_jp_check(W)
        if not (report.quasi_star_a and report.equal):
            failures.append(seed)
    W = _track(as_wce(symmetric_interval_example(100)))
    sym_report = sa.sigma_p_equals_sigma_jp_check(W)
    sym_ok = sym_report.quasi_star_a and sym_report.equal

    # a nilpotent operator is not quasi-*-A and separates the two spectra:
    # f -> (f_1, 0), M_a E M_b with a = (2, 0) and b = (0, 1) on one atom
    space = FiniteMeasureSpace(np.ones(2))
    one_atom = SubSigmaAlgebra(([0, 1],), 2)
    nilpotent = oa.expectation_operator(space, one_atom, np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    assert np.array_equal(nilpotent.entries, [[0.0, 1.0], [0.0, 0.0]])
    counter_ok = (
        not oc.is_quasi_star_a_definitional(nilpotent)
        and sa.joint_point_spectrum(nilpotent) == []
        and np.abs(oa.eigenvalues(nilpotent)).max() <= 1e-12
    )
    _report(
        7,
        "point spectrum equals joint point spectrum under quasi-*-A",
        not failures and sym_ok and counter_ok,
        f"100 equality-case instances + symmetric n=100 "
        f"({len(failures)} failures), nilpotent counterexample "
        f"{'separates' if counter_ok else 'does not separate'} the spectra",
    )


def test_criterion_8_product_example_truthful_report():
    n_x, n_y = 8, 200
    instance = product_space_example(n_x, n_y)
    W = _track(as_wce(instance))
    xs = (np.arange(n_x) + 0.5) / n_x
    err_u2 = err_w2 = err_uw2 = 0.0
    min_gap_per_column = np.inf
    gap = cauchy_schwarz_gap(W).values.real
    for b, block in enumerate(W.algebra.blocks):
        i = block[0]
        x = xs[b]
        err_u2 = max(err_u2, abs(W.e_abs_u2.values[i].real - 4.0 / (4.0 + x)))
        err_w2 = max(err_w2, abs(W.e_abs_w2.values[i].real - (4.0 + x) / 2.0))
        err_uw2 = max(
            err_uw2,
            abs(abs(W.e_uw.values[i]) ** 2 - 64.0 * (4.0 + x) / (x + 12.0) ** 2),
        )
        min_gap_per_column = min(min_gap_per_column, gap[list(block)].min())
    moments_ok = err_u2 <= 0.01 and err_w2 <= 0.01 and err_uw2 <= 0.02
    # the sufficient membership inequality |E(uw)|^2 >= E(|u|^2) E(|w|^2)
    # genuinely fails on every column of this instance; the library must
    # say so rather than echo any expected conclusion
    sufficient, _, witness = oc.a_class_pointwise(W)
    truthful = (not sufficient) and witness is not None and min_gap_per_column > 0.1
    _report(
        8,
        "product-space example moments and truthful class report",
        moments_ok and truthful,
        f"moment errors {err_u2:.4f}/{err_w2:.1e}/{err_uw2:.4f}, "
        f"sufficient criterion reported {'FAILED' if not sufficient else 'passed'}, "
        f"min column gap {min_gap_per_column:.3f}",
    )


def test_criterion_9_cauchy_schwarz_floor():
    count = len(_gap_minima)
    overall_min = min(_gap_minima) if _gap_minima else np.inf
    _report(
        9,
        "Cauchy-Schwarz gap floor",
        count >= 2000 and overall_min >= GAP_FLOOR,
        f"{count} instances across all suites, minimum gap {overall_min:.2e}",
    )
