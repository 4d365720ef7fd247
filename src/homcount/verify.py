"""The cross-check battery behind `homcount verify`.

Every automatic consistency check the package makes between its independent
computation routes lives here: reference term lists, brute force vs
recurrences, generating-function counts, asymptotic constants, round trips,
and the small algebraic property suites. Each check reports a stable name, a
pass flag, and a one-line detail with the values and tolerance involved.

Functions under test are looked up through their modules at call time, so a
deliberately corrupted function (in tests) is caught by the right check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from homcount import asymptotics, combinatorics, correspondence, counting, enumeration, kernel, series
from homcount.model import FiniteColoredOrdering

I_REFERENCE = [
    3, 12, 71, 558, 5487, 64734, 891039, 14016774, 248057927, 4877703126,
    105504350679, 2489510252238, 63638447941551,
]  # k = 1..13
L_REFERENCE = [
    1, 3, 14, 95, 858, 9687, 131244, 2074515, 37475342, 761600375,
    17197534296, 427167206259, 11574924994554,
]  # k = 0..12
A_REFERENCE = [1.37496, 3.10493, 14.0224, 94.9907, 857.986]  # k = 0..4


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _sequence_check(name, indices, compute, expect, describe) -> CheckResult:
    for k in indices:
        got, want = compute(k), expect(k)
        if got != want:
            return CheckResult(name, False, f"k={k}: got {got}, expected {want}")
    return CheckResult(name, True, describe)


def _round_trips(expand, contract, m, k: int) -> bool:
    """Whether contract(expand(m), k) gives m back; contract validates the
    description, and an invalid one is a broken round trip."""
    try:
        return contract(expand(m), k) == m
    except correspondence.InvalidStructureError:
        return False


def run_checks(k_max: int = 25, series_order: int = 25, cap: int | None = None) -> list[CheckResult]:
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    # every walk below stays at k <= brute_limit, so it calls the kernel without a cap check
    brute_limit = min(k_max, enumeration.brute_force_cap(cap))
    results: list[CheckResult] = []
    add = results.append

    # reference term lists (exact)
    top_i = min(13, k_max)
    add(
        _sequence_check(
            "I-sequence reference terms",
            range(1, top_i + 1),
            counting.count_I,
            lambda k: I_REFERENCE[k - 1],
            f"k=1..{top_i} exact",
        )
    )
    top_l = min(12, k_max)
    add(
        _sequence_check(
            "L-sequence reference terms",
            range(top_l + 1),
            counting.count_L,
            lambda k: L_REFERENCE[k],
            f"k=0..{top_l} exact",
        )
    )

    # brute force vs formulas (exact)
    add(
        _sequence_check(
            "I brute-force equivalence",
            range(1, min(7, brute_limit) + 1),
            lambda k: kernel.count_models(k, True),
            counting.count_I,
            f"k=1..{min(7, brute_limit)} exact",
        )
    )
    add(
        _sequence_check(
            "L brute-force equivalence",
            range(min(7, brute_limit) + 1),
            lambda k: kernel.count_models(k, False),
            counting.count_L,
            f"k=0..{min(7, brute_limit)} exact",
        )
    )

    # the documented closed-form offset (exact)
    add(
        _sequence_check(
            "closed-form offset",
            range(1, top_i + 1),
            lambda k: counting.closed_form_I(k) + 1,
            counting.count_I,
            f"closed_form_I(k)+1 = count_I(k), k=1..{top_i} exact",
        )
    )
    add(
        _sequence_check(
            "closed-form nonempty brute force",
            range(1, min(7, brute_limit) + 1),
            counting.closed_form_I,
            lambda k: kernel.count_models(k, True) - 1,
            f"k=1..{min(7, brute_limit)} exact",
        )
    )

    # generating-function coefficient counts (exact rationals)
    egf_top = min(series_order, k_max)
    for label, build, reference in (
        ("H", series.egf_H, counting.count_L),
        ("f", series.egf_f, counting.j_surjective),
        ("fubini", series.egf_fubini, counting.fubini),
    ):
        s = build(egf_top)
        add(
            _sequence_check(
                f"EGF {label} coefficient counts",
                range(egf_top + 1),
                lambda k, s=s: series.egf_counts(s, k),
                reference,
                f"k=0..{egf_top} exact",
            )
        )
    add(
        CheckResult(
            "EGF product identity",
            series.egf_H(egf_top) == series.ps_mul(series.ps_exp(egf_top), series.egf_f(egf_top)),
            f"H = exp * f to order {egf_top}, exact",
        )
    )

    # surjective splits (exact)
    split_top = min(6, brute_limit)
    add(
        _sequence_check(
            "surjective split (constrained)",
            range(split_top + 1),
            lambda k: kernel.root_split(k, True, True),
            lambda k: (counting.k1(k), counting.k2(k)),
            f"k=0..{split_top} exact",
        )
    )
    add(
        _sequence_check(
            "surjective split (unconstrained)",
            range(split_top + 1),
            lambda k: kernel.count_surjective(k, False),
            counting.j_surjective,
            f"k=0..{split_top} exact",
        )
    )
    add(
        _sequence_check(
            "ordered set partition counts",
            range(min(7, brute_limit) + 1),
            kernel.count_ordered_set_partitions,
            counting.fubini,
            f"k=0..{min(7, brute_limit)} exact",
        )
    )

    # asymptotic constants (float tolerances at reference precision)
    c = asymptotics.constants()
    constant_rows = [
        ("Z", c.Z, 0.442854, 1e-5),
        ("R", c.R, -0.6089389, 1e-6),
        ("limit ratio", c.limit_ratio, 0.6422007, 1e-6),
        ("M", c.M, 2.12243, 1e-4),
    ]
    bad = [
        f"{label}: got {got:.8f}, expected {want} +- {tol}"
        for label, got, want, tol in constant_rows
        if abs(got - want) > tol
    ]
    add(
        CheckResult(
            "asymptotic constants",
            not bad,
            "; ".join(bad) if bad else "Z, R, S/R, M match reference digits",
        )
    )

    top_a = min(4, k_max)
    bad = [
        f"k={k}: got {asymptotics.approx_A(k):.5f}, expected {A_REFERENCE[k]} rel 1e-3"
        for k in range(top_a + 1)
        if abs(asymptotics.approx_A(k) - A_REFERENCE[k]) > 1e-3 * A_REFERENCE[k]
    ]
    add(
        CheckResult(
            "A(k) reference terms",
            not bad,
            "; ".join(bad) if bad else f"k=0..{top_a} within 1e-3 relative",
        )
    )

    if k_max >= 12:
        la = counting.count_L(12) / asymptotics.approx_A(12)
        add(
            CheckResult(
                "L/A convergence",
                abs(la - 1) < 1e-8,
                f"|L(12)/A(12) - 1| = {abs(la - 1):.3e} < 1e-8",
            )
        )
        jl = counting.j_surjective(12) / counting.count_L(12)
        add(
            CheckResult(
                "J/L limit proportion",
                abs(jl - 0.6422007) < 1e-3,
                f"|J(12)/L(12) - 0.6422007| = {abs(jl - 0.6422007):.3e} < 1e-3",
            )
        )

    # round trips (exact)
    rt_top = min(5, brute_limit)
    ok, detail = True, f"k=0..{rt_top}, both theories, exact"
    for k in range(rt_top + 1):
        for m in enumeration.enumerate_models(k, True):
            if not _round_trips(correspondence.expand_model, correspondence.contract_description, m, k):
                ok, detail = False, f"constrained round trip broke at k={k}: {m}"
                break
        for m in enumeration.enumerate_models(k, False):
            if not _round_trips(correspondence.expand_colored, correspondence.contract_colored, m, k):
                ok, detail = False, f"unconstrained round trip broke at k={k}: {m}"
                break
        if not ok:
            break
    add(CheckResult("round-trip bijection", ok, detail))

    # algebraic property suites
    ok = all(
        combinatorics.binomial(n, r)
        == combinatorics.binomial(n - 1, r - 1) + combinatorics.binomial(n - 1, r)
        for n in range(1, 31)
        for r in range(1, n + 1)
    )
    add(CheckResult("Pascal identity", ok, "1 <= r <= n <= 30 exact"))
    ok = all(
        combinatorics.stirling2(n, m)
        == m * combinatorics.stirling2(n - 1, m) + combinatorics.stirling2(n - 1, m - 1)
        for n in range(1, 31)
        for m in range(1, n + 1)
    )
    add(CheckResult("Stirling recurrence", ok, "1 <= m <= n <= 30 exact"))

    worst = 0.0
    for i in range(50):
        t = 10 ** (-6 + 12 * i / 49)
        w = asymptotics.lambert_w0(t)
        worst = max(worst, abs(w * math.exp(w) - t) / max(1.0, t))
    add(
        CheckResult(
            "Lambert W identity",
            worst <= 1e-12,
            f"max |w*e^w - t|/max(1,t) = {worst:.2e} <= 1e-12 on 50-point grid",
        )
    )

    s = series.egf_f(10)
    one = series.ps_constant(1, 10)
    ok = (
        series.ps_mul(s, series.ps_reciprocal(s)) == one
        and series.ps_add(s, series.ps_constant(0, 10)) == s
        and series.ps_mul(s, one) == s
    )
    add(CheckResult("series ring identities", ok, "reciprocal and unit laws at order 10, exact"))

    ok = True
    for length in range(7):
        for colors in itertools.product([1, 2, 3], repeat=length):
            o = FiniteColoredOrdering(colors)
            if correspondence.is_finite_homogeneous(o) != (len(set(colors)) == len(colors)):
                ok = False
    add(
        CheckResult(
            "finite homogeneity reduction",
            ok,
            "orderings of length <= 6 over 3 colors match the distinct-colors rule",
        )
    )

    return results
