"""The cross-check battery behind `homcount verify`.

Every automatic consistency check the package makes between its independent
computation routes lives here: reference term lists, brute force vs
recurrences, generating-function counts, asymptotic constants, round trips,
and the small algebraic property suites. Each check reports a stable name, a
pass flag, and a one-line detail with the values and tolerance involved.

run_checks builds the battery as one table of (name, check) entries, where
check() returns (ok, detail), and runs it in one loop that makes every
CheckResult. A check over an index range writes its detail from that range
(`_span`). A check that raises is a failed check whose detail names the
exception; the loop goes on to the next one.

Each route-agreement check compares the term lists of two routes of
routes.ROUTES (`_agree`, `_route`), the table that `count` and `export` print
from, so a broken route fails a check here. The battery is built on each call
and reads ROUTES, and every other function under test through its module,
when it runs, so a deliberately corrupted function or route (in tests) is
caught by the right check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from homcount import asymptotics, combinatorics, correspondence, counting, enumeration, kernel, routes, series

I_REFERENCE = [
    3, 12, 71, 558, 5487, 64734, 891039, 14016774, 248057927, 4877703126,
    105504350679, 2489510252238, 63638447941551,
]  # k = 1..13
L_REFERENCE = [
    1, 3, 14, 95, 858, 9687, 131244, 2074515, 37475342, 761600375,
    17197534296, 427167206259, 11574924994554,
]  # k = 0..12
A_REFERENCE = [1.37496, 3.10493, 14.0224, 94.9907, 857.986]  # k = 0..4


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _span(indices: range) -> str:
    return f"k={indices.start}..{indices.stop - 1}"


def _agree(indices: range, compute, expect, prefix: str = ""):
    """A check that the term lists compute(indices) and expect(indices) agree; it reports the first mismatch.
    An empty range asks for no terms, since a route refuses an empty request below its first index."""

    def check():
        if indices:
            for k, got, want in zip(indices, compute(indices), expect(indices), strict=True):
                if got != want:
                    return False, f"k={k}: got {got}, expected {want}"
        return True, f"{prefix}{_span(indices)} exact"

    return check


def _route(seq: str, method: str, cap: int | None):
    """The term lists of routes.ROUTES' `method` route for sequence `seq`, read from the table when called."""
    return lambda r: routes.ROUTES[seq][1][method](r.start, r.stop - 1, cap)


def _versus(indices: range, seq: str, method: str, cap: int | None, against: str = "recurrence"):
    """A check that routes `method` and `against` of sequence `seq` agree over `indices`."""
    return _agree(indices, _route(seq, method, cap), _route(seq, against, cap))


def _pairs(first, second):
    """The term lists of two routes, zipped into (first, second) pairs."""
    return lambda r: list(zip(first(r), second(r), strict=True))


def _bijection(indices: range):
    """contract(expand(m), k) == m for every model of both theories; contract validates
    the description, and an invalid one is a broken round trip. Each stream it drains
    holds as many models as the recurrence counts (count_I or count_L)."""
    theories = (
        ("constrained", True, counting.count_I, correspondence.expand_model, correspondence.contract_description),
        ("unconstrained", False, counting.count_L, correspondence.expand_colored, correspondence.contract_colored),
    )
    for k in indices:
        for theory, constrained, recurrence, expand, contract in theories:
            streamed = 0
            for streamed, m in enumerate(enumeration.enumerate_models(k, constrained), 1):
                try:
                    back = contract(expand(m), k)
                except correspondence.InvalidStructureError:
                    back = None
                if back != m:
                    return False, f"{theory} round trip broke at k={k}: {m}"
            if streamed != recurrence(k):
                return False, f"{theory} stream at k={k} has {streamed} models, the recurrence counts {recurrence(k)}"
    return True, f"{_span(indices)}, both theories, exact"


def _egf_product(order: int):
    ok = series.egf_H(order) == series.ps_mul(series.ps_exp(order), series.egf_f(order))
    return ok, f"H = exp * f to order {order}, exact"


def _asymptotic_constants():
    c = asymptotics.constants()
    rows = [
        ("Z", c.Z, 0.442854, 1e-5),
        ("R", c.R, -0.6089389, 1e-6),
        ("limit ratio", c.limit_ratio, 0.6422007, 1e-6),
        ("M", c.M, 2.12243, 1e-4),
    ]
    bad = [
        f"{label}: got {got:.8f}, expected {want} +- {tol}"
        for label, got, want, tol in rows
        if abs(got - want) > tol
    ]
    return not bad, "; ".join(bad) or "Z, R, S/R, M match reference digits"


def _a_terms(indices: range):
    bad = [
        f"k={k}: got {asymptotics.approx_A(k):.5f}, expected {A_REFERENCE[k]} rel 1e-3"
        for k in indices
        if abs(asymptotics.approx_A(k) - A_REFERENCE[k]) > 1e-3 * A_REFERENCE[k]
    ]
    return not bad, "; ".join(bad) or f"{_span(indices)} within 1e-3 relative"


def _l_over_a():
    err = abs(counting.count_L(12) / asymptotics.approx_A(12) - 1)
    return err < 1e-8, f"|L(12)/A(12) - 1| = {err:.3e} < 1e-8"


def _j_over_l():
    err = abs(counting.j_surjective(12) / counting.count_L(12) - 0.6422007)
    return err < 1e-3, f"|J(12)/L(12) - 0.6422007| = {err:.3e} < 1e-3"


def _pascal():
    binomial = combinatorics.binomial
    ok = all(
        binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)
        for n in range(1, 31)
        for r in range(1, n + 1)
    )
    return ok, "1 <= r <= n <= 30 exact"


def _stirling():
    stirling2 = combinatorics.stirling2
    ok = all(
        stirling2(n, m) == m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)
        for n in range(1, 31)
        for m in range(1, n + 1)
    )
    return ok, "1 <= m <= n <= 30 exact"


def _lambert_w():
    worst = 0.0
    for i in range(50):
        t = 10 ** (-6 + 12 * i / 49)
        w = asymptotics.lambert_w0(t)
        worst = max(worst, abs(w * math.exp(w) - t) / max(1.0, t))
    return worst <= 1e-12, f"max |w*e^w - t|/max(1,t) = {worst:.2e} <= 1e-12 on 50-point grid"


def _series_ring():
    s = series.egf_f(10)
    one = series.ps_constant(1, 10)
    # every counting EGF has constant term 1; s shifted by -8/3 has -5/3, so a reciprocal that mishandles the sign
    # or the size of the constant term fails here
    shifted = series.ps_add(series.ps_constant(Fraction(-8, 3), 10), s)
    ok = (
        all(series.ps_mul(t, series.ps_reciprocal(t)) == one for t in (s, shifted))
        and series.ps_add(s, series.ps_constant(0, 10)) == s
        and series.ps_mul(s, one) == s
    )
    return ok, "reciprocal and unit laws at order 10, exact"


def _finite_homogeneity():
    ok = all(
        correspondence.is_finite_homogeneous(colors) == (len(set(colors)) == length)
        for length in range(7)
        for colors in itertools.product([1, 2, 3], repeat=length)
    )
    return ok, "orderings of length <= 6 over 3 colors match the distinct-colors rule"


def run_checks(k_max: int = 25, series_order: int = 25, cap: int | None = None) -> list[CheckResult]:
    combinatorics.nonnegative(k_max, "k_max")
    series.check_order(series_order)
    # every walk below stays at k <= brute_limit, so the brute-force routes' cap check passes
    brute_limit = min(k_max, kernel.brute_force_cap(cap))
    i_terms, l_terms = range(1, min(13, k_max) + 1), range(min(12, k_max) + 1)
    walks, splits = range(min(7, brute_limit) + 1), range(min(6, brute_limit) + 1)
    egf_top = min(series_order, k_max)

    checks = [
        ("I-sequence reference terms",
         _agree(i_terms, lambda r: list(map(counting.count_I, r)), lambda r: I_REFERENCE[r.start - 1:r.stop - 1])),
        ("L-sequence reference terms",
         _agree(l_terms, lambda r: list(map(counting.count_L, r)), lambda r: L_REFERENCE[r.start:r.stop])),
        ("I brute-force equivalence", _versus(walks[1:], "I", "brute-force", cap)),
        ("L brute-force equivalence", _versus(walks, "L", "brute-force", cap)),
        ("closed-form offset",
         _agree(i_terms, lambda r: [term + 1 for term in _route("I", "closed-form", cap)(r)],
                _route("I", "recurrence", cap), prefix="closed_form_I(k)+1 = count_I(k), ")),
        ("closed-form nonempty brute force",
         _versus(walks[1:], "I_closed_nonempty", "closed-form", cap, against="brute-force")),
        ("EGF H coefficient counts", _versus(range(egf_top + 1), "L", "egf", cap)),
        ("EGF f coefficient counts", _versus(range(egf_top + 1), "J_surjective", "egf", cap)),
        ("EGF fubini coefficient counts", _versus(range(egf_top + 1), "Fubini", "egf", cap)),
        ("EGF product identity", lambda: _egf_product(egf_top)),
        ("surjective split (constrained)",
         _agree(splits, _pairs(_route("K1", "brute-force", cap), _route("K2", "brute-force", cap)),
                _pairs(_route("K1", "recurrence", cap), _route("K2", "recurrence", cap)))),
        ("surjective split (unconstrained)", _versus(splits, "J_surjective", "brute-force", cap)),
        ("ordered set partition counts", _versus(walks, "Fubini", "brute-force", cap)),
        ("asymptotic constants", _asymptotic_constants),
        ("A(k) reference terms", lambda: _a_terms(range(min(4, k_max) + 1))),
    ]
    if k_max >= 12:
        checks += [("L/A convergence", _l_over_a), ("J/L limit proportion", _j_over_l)]
    checks += [
        ("round-trip bijection", lambda: _bijection(range(min(5, brute_limit) + 1))),
        ("Pascal identity", _pascal),
        ("Stirling recurrence", _stirling),
        ("Lambert W identity", _lambert_w),
        ("series ring identities", _series_ring),
        ("finite homogeneity reduction", _finite_homogeneity),
    ]

    results = []
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a check that raises is a failed check, not the end of the battery
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail))
    return results
