"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or on failure);
numeric tolerances and time budgets are pinned here, not tuned elsewhere.
"""

import itertools
import math
import time

from homcount import asymptotics, correspondence, counting, enumeration, kernel, series
from homcount.combinatorics import binomial, stirling2
from homcount.model import (
    FiniteColoredOrdering,
    validate_colored_description,
    validate_description,
)

I_TERMS = [
    3, 12, 71, 558, 5487, 64734, 891039, 14016774, 248057927, 4877703126,
    105504350679, 2489510252238, 63638447941551,
]  # k = 1..13
L_TERMS = [
    1, 3, 14, 95, 858, 9687, 131244, 2074515, 37475342, 761600375,
    17197534296, 427167206259, 11574924994554,
]  # k = 0..12
A_TERMS = [1.37496, 3.10493, 14.0224, 94.9907, 857.986]  # k = 0..4


def report(n, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {text}")
    assert ok


def test_criterion_1_i_sequence_regression():
    start = time.perf_counter()
    values = [counting.count_I(k) for k in range(1, 14)]
    elapsed = time.perf_counter() - start
    report(1, values == I_TERMS and elapsed < 1.0,
           f"I(1..13) exact match in {elapsed:.3f}s (< 1 s)")


def test_criterion_2_l_sequence_regression():
    start = time.perf_counter()
    values = [counting.count_L(k) for k in range(13)]
    elapsed = time.perf_counter() - start
    report(2, values == L_TERMS and elapsed < 1.0,
           f"L(0..12) exact match in {elapsed:.3f}s (< 1 s)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    ok = all(
        enumeration.count_by_enumeration(k, True) == counting.count_I(k)
        for k in range(1, 8)
    ) and all(
        enumeration.count_by_enumeration(k, False) == counting.count_L(k)
        for k in range(8)
    )
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 60.0,
           f"brute force = count_I (k=1..7) and count_L (k=0..7) in {elapsed:.3f}s (< 60 s)")


def test_criterion_4_closed_form_reconciliation():
    offset_ok = all(counting.closed_form_I(k) + 1 == counting.count_I(k) for k in range(1, 14))
    brute_ok = all(
        counting.closed_form_I(k) == enumeration.count_by_enumeration(k, True) - 1
        for k in range(1, 8)
    )
    report(4, offset_ok and brute_ok,
           "closed_form_I + 1 = count_I (k=1..13); closed form = nonempty brute count (k=1..7)")


def test_criterion_5_egf_equivalence():
    start = time.perf_counter()
    H, f, h = series.egf_H(25), series.egf_f(25), series.egf_fubini(25)
    ok = all(
        series.egf_counts(H, k) == counting.count_L(k)
        and series.egf_counts(f, k) == counting.j_surjective(k)
        and series.egf_counts(h, k) == counting.fubini(k)
        for k in range(26)
    )
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 5.0,
           f"k!*[x^k] of H, f, 1/(2-e^x) match counts for k<=25 in {elapsed:.3f}s (< 5 s)")


def test_criterion_6_surjective_splits():
    ok = all(
        kernel.count_surjective(k, True) == counting.k1(k) + counting.k2(k)
        and kernel.count_surjective(k, False) == counting.j_surjective(k)
        for k in range(7)
    )
    report(6, ok, "surjective counts = K1+K2 (constrained) and J (unconstrained) for k<=6")


def test_criterion_7_asymptotic_constants():
    asymptotics.constants()  # warm anything lazy before timing
    start = time.perf_counter()
    c = asymptotics.constants()
    elapsed = time.perf_counter() - start
    ok = (
        abs(c.Z - 0.442854) < 1e-5
        and abs(c.R - (-0.6089389)) < 1e-6
        and abs(c.limit_ratio - 0.6422007) < 1e-6
        and abs(c.M - 2.12243) < 1e-4
        and elapsed < 1e-3
    )
    report(7, ok,
           f"Z/R/ratio/M within reference digits, computed in {elapsed * 1e6:.0f}us (< 1 ms)")


def test_criterion_8_a_regression():
    ok = all(
        abs(asymptotics.approx_A(k) - A_TERMS[k]) < 1e-3 * A_TERMS[k] for k in range(5)
    )
    report(8, ok, "A(0..4) within 1e-3 relative of reference terms")


def test_criterion_9_convergence_claims():
    la = counting.count_L(12) / asymptotics.approx_A(12)
    jl = counting.j_surjective(12) / counting.count_L(12)
    ok = abs(la - 1) < 1e-8 and abs(jl - 0.6422007) < 1e-3
    report(9, ok,
           f"|L(12)/A(12)-1| = {abs(la - 1):.2e} < 1e-8; "
           f"|J(12)/L(12)-0.6422007| = {abs(jl - 0.6422007):.2e} < 1e-3")


def test_criterion_10_round_trip_bijection():
    start = time.perf_counter()
    ok = True
    for k in range(6):
        for m in enumeration.enumerate_models(k, True):
            d = correspondence.expand_model(m)
            ok = ok and validate_description(d).ok
            ok = ok and correspondence.contract_description(d, k) == m
        for m in enumeration.enumerate_models(k, False):
            d = correspondence.expand_colored(m)
            ok = ok and validate_colored_description(d).ok
            ok = ok and correspondence.contract_colored(d, k) == m
    elapsed = time.perf_counter() - start
    report(10, ok and elapsed < 10.0,
           f"contract(expand) = id on all models k<=5, both theories, in {elapsed:.3f}s (< 10 s)")


def test_criterion_11_property_suites():
    pascal = all(
        binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)
        for n in range(1, 31)
        for r in range(1, n + 1)
    )
    stirling = all(
        stirling2(n, m) == m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)
        for n in range(1, 31)
        for m in range(1, n + 1)
    )
    s = series.egf_f(12)
    one = series.ps_constant(1, 12)
    ring = (
        series.ps_mul(s, series.ps_reciprocal(s)) == one
        and series.ps_add(s, series.ps_constant(0, 12)) == s
        and series.ps_mul(s, one) == s
    )
    lambert = all(
        abs((w := asymptotics.lambert_w0(t)) * math.exp(w) - t) <= 1e-12 * max(1.0, t)
        for t in (10 ** (-6 + 12 * i / 49) for i in range(50))
    )
    homogeneity = all(
        correspondence.is_finite_homogeneous(FiniteColoredOrdering(colors))
        == (len(set(colors)) == len(colors))
        for length in range(7)
        for colors in itertools.product([1, 2, 3], repeat=length)
    )
    report(11, pascal and stirling and ring and lambert and homogeneity,
           "Pascal, Stirling, series ring, Lambert grid, homogeneity reduction all hold")
