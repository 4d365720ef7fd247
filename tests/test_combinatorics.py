"""Oracle and property tests for the combinatorial primitives."""

import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from homcount import asymptotics, correspondence, counting, enumeration, kernel, series, verify
from homcount.combinatorics import GrowingTable, binomial, factorial, integer, nonnegative, stirling2
from homcount.model import MulticoloredModel, RPoint, model_from_dict, model_to_dict, validate_model
from homcount.routes import ROUTES


def product_oracle(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def pascal_oracle(n, r):
    # independent triangle, no shared code with the module tables
    row = [1]
    for _ in range(n):
        row = [1] + [row[j - 1] + row[j] for j in range(1, len(row))] + [1]
    return row[r] if r < len(row) else 0


def set_partitions(elements):
    """Every partition of `elements` into nonempty blocks, by brute force."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


def bell_triangle(n):
    """Bell numbers B(0..n) via the Bell triangle (sums of the Aitken array)."""
    bells = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        bells.append(nxt[0])
        row = nxt
    return bells


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(13) == 6227020800
    for n in range(30):
        assert factorial(n) == product_oracle(n)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(10, 5) == 252


def test_binomial_against_pascal_oracle():
    for n in range(20):
        for r in range(n + 2):
            assert binomial(n, r) == pascal_oracle(n, r)


def test_pascal_identity():
    for n in range(1, 31):
        for r in range(1, n + 1):
            assert binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)


def test_stirling2_examples():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7


def test_stirling2_conventions():
    assert stirling2(5, 0) == 0
    assert stirling2(3, 4) == 0
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        stirling2(-1, 0)


def test_stirling2_against_partition_enumeration():
    for n in range(8):
        counts = {}
        for part in set_partitions(list(range(n))):
            counts[len(part)] = counts.get(len(part), 0) + 1
        for m in range(n + 1):
            assert stirling2(n, m) == counts.get(m, 0), (n, m)


def test_stirling2_recurrence():
    for n in range(1, 31):
        for m in range(1, n + 1):
            assert stirling2(n, m) == m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


def test_stirling2_row_sums_are_bell_numbers():
    bells = bell_triangle(15)
    for n in range(16):
        assert sum(stirling2(n, m) for m in range(n + 1)) == bells[n]


def test_concurrent_table_growth_observes_correct_values():
    # hammer cells beyond anything grown so far, from several threads at once
    rng = random.Random(7)
    cells = [(rng.randint(100, 140), rng.randint(0, 100)) for _ in range(200)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        binom_results = list(pool.map(lambda nm: binomial(*nm), cells))
        stirling_results = list(pool.map(lambda nm: stirling2(*nm), cells))
    for (n, m), got in zip(cells, binom_results):
        assert got == pascal_oracle(n, m)
    for (n, m), got in zip(cells, stirling_results):
        # sequential recomputation must agree with what the threads saw
        assert got == stirling2(n, m)


def test_racing_readers_compute_each_entry_once():
    computed = []

    def next_value(n, previous):
        computed.append(n)
        return previous + (n,)

    table = GrowingTable((0,), next_value)
    start = threading.Barrier(8, timeout=60)

    def read(_):
        start.wait()
        return table[300]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave growers
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert computed == list(range(1, 301))
    assert results == [tuple(range(301))] * 8
    assert [table[n] for n in (0, 150, 300)] == [(0,), tuple(range(151)), tuple(range(301))]


def test_rational_arithmetic_is_exact():
    rng = random.Random(20240817)
    for _ in range(500):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert (a + b) - b == a
        assert b == 0 or (a / b) * b == a


def test_integer_and_nonnegative():
    assert integer(-3, "x") == -3
    assert nonnegative(0, "x") == 0
    assert nonnegative(10**30, "x") == 10**30
    for value in (True, False, 2.0, "3", None):
        for rule in (integer, nonnegative):
            with pytest.raises(ValueError, match=f"^the noun must be an integer, got {re.escape(repr(value))}$"):
                rule(value, "the noun")
    with pytest.raises(ValueError, match="^the noun must be nonnegative, got -1$"):
        nonnegative(-1, "the noun")


# every library entry point that takes a k, an order, an index or a cap: (call, the noun its refusals name, and its
# refusal of -1 where that is not "<noun> must be nonnegative, got -1")
_INDEX_ENTRY_POINTS = {
    "k1": (counting.k1, "sequence index", None),
    "k2": (counting.k2, "sequence index", None),
    "count_I": (counting.count_I, "sequence index", None),
    "count_L": (counting.count_L, "sequence index", None),
    "j_surjective": (counting.j_surjective, "sequence index", None),
    "fubini": (counting.fubini, "sequence index", None),
    "closed_form_I": (counting.closed_form_I, "sequence index", None),
    "closed_form_I_terms-lo": (lambda v: counting.closed_form_I_terms(v, 0), "sequence index", None),
    "closed_form_I_terms-hi": (lambda v: counting.closed_form_I_terms(0, v), "sequence index", None),
    "route-L-recurrence": (lambda v: ROUTES["L"][1]["recurrence"](v, v, None), "sequence index",
                           "sequence L starts at k=0"),
    "route-L-brute-force": (lambda v: ROUTES["L"][1]["brute-force"](v, v, None), "sequence index",
                            "sequence L starts at k=0"),
    "check_k": (kernel.check_k, "color count", None),
    "root_split": (lambda v: kernel.root_split(v, True, False), "color count", None),
    "count_models": (lambda v: kernel.count_models(v, True), "color count", None),
    "count_surjective": (lambda v: kernel.count_surjective(v, True), "color count", None),
    "count_ordered_set_partitions": (kernel.count_ordered_set_partitions, "color count", None),
    "brute_force_cap": (kernel.brute_force_cap, "cap", None),
    "check_cap-cap": (lambda v: kernel.check_cap(0, v), "cap", None),
    "check_cap-k": (lambda v: kernel.check_cap(v, None), "color count", None),
    "enumerate_models": (lambda v: next(enumeration.enumerate_models(v)), "color count", None),
    "enumerate_surjective": (lambda v: next(enumeration.enumerate_surjective(v, False)), "color count", None),
    "enumerate_ordered_set_partitions": (lambda v: next(enumeration.enumerate_ordered_set_partitions(v)),
                                         "color count", None),
    "surjective_first_point_split": (enumeration.surjective_first_point_split, "color count", None),
    "ps_constant": (lambda v: series.ps_constant(1, v), "series order", None),
    "ps_exp": (series.ps_exp, "series order", None),
    "ps_geometric": (series.ps_geometric, "series order", None),
    "egf_f": (series.egf_f, "series order", None),
    "egf_H": (series.egf_H, "series order", None),
    "egf_fubini": (series.egf_fubini, "series order", None),
    "egf_counts": (lambda v: series.egf_counts(series.egf_H(3), v), "coefficient index", None),
    "stirling2-n": (lambda v: stirling2(v, 0), "n", None),
    "stirling2-m": (lambda v: stirling2(3, v), "m", None),
    "approx_A": (asymptotics.approx_A, "k", None),
    "ratio_report": (asymptotics.ratio_report, "k_max", None),
    "bound_ratio_I": (asymptotics.bound_ratio_I, "sequence index", None),
    "run_checks-k_max": (lambda v: verify.run_checks(k_max=v, series_order=0), "k_max", None),
    "run_checks-series_order": (lambda v: verify.run_checks(k_max=0, series_order=v), "series order", None),
    "contract_description": (lambda v: correspondence.contract_description((), v), "k", None),
    "contract_colored": (lambda v: correspondence.contract_colored((), v), "k", None),
    "model_from_dict": (lambda v: model_from_dict({"k": v, "adjacency_constrained": True, "points": []}), "k", None),
    "model_to_dict": (lambda v: model_to_dict(MulticoloredModel(v)), "k", None),
    "validate_model": (lambda v: validate_model(MulticoloredModel(v)), "k", None),
    "expand_model": (lambda v: correspondence.expand_model(MulticoloredModel(v)), "k", None),
    "expand_colored": (lambda v: correspondence.expand_colored(MulticoloredModel(v, (), False)), "k", None),
}


@pytest.mark.parametrize("name", sorted(_INDEX_ENTRY_POINTS))
def test_every_index_is_an_int_at_least_zero(name):
    call, noun, negative = _INDEX_ENTRY_POINTS[name]
    for value in (True, False, 2.0, 0.0, "3"):  # refused by name, never coerced or left to a TypeError
        with pytest.raises(ValueError, match=f"^{noun} must be an integer, got {re.escape(repr(value))}$"):
            call(value)
    with pytest.raises(ValueError, match=f"^{re.escape(negative or f'{noun} must be nonnegative, got -1')}$"):
        call(-1)
    call(0)


# every entry point that takes a theory flag reads it as a bool, never for its truth value: (call, the noun its
# refusals name)
_FLAG_ENTRY_POINTS = {
    "enumerate_models": (lambda v: next(enumeration.enumerate_models(2, v)), "constrained"),
    "enumerate_surjective": (lambda v: next(enumeration.enumerate_surjective(2, v)), "constrained"),
    "root_split": (lambda v: kernel.root_split(2, v, False), "constrained"),
    # constrained, so that an `and` after the theory flag would skip the r_points check
    "root_split-surjective": (lambda v: kernel.root_split(2, True, v), "surjective"),
    "root_split-r_points": (lambda v: kernel.root_split(2, True, False, v), "r_points"),
    "count_models": (lambda v: kernel.count_models(2, v), "constrained"),
    "count_surjective": (lambda v: kernel.count_surjective(2, v), "constrained"),
    "surjective_first_point_split": (lambda v: enumeration.surjective_first_point_split(2, v), "constrained"),
    # two adjacent R-points: a flag read for its truth value would be judged constrained (Tprime.3b) or not
    "validate_model": (lambda v: validate_model(MulticoloredModel(2, (RPoint(1), RPoint(2)), v)),
                       "adjacency_constrained"),
}


@pytest.mark.parametrize("name", sorted(_FLAG_ENTRY_POINTS))
def test_every_theory_flag_is_a_bool(name):
    call, noun = _FLAG_ENTRY_POINTS[name]
    for value in (0, 1, None, "false"):  # refused by name, never read for its truth value
        with pytest.raises(ValueError, match=f"^{noun} must be true or false, got {re.escape(repr(value))}$"):
            call(value)
    call(True)
    call(False)
