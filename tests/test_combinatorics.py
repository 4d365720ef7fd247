"""Oracle and property tests for the combinatorial primitives."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from homcount.combinatorics import GrowingTable, binomial, factorial, stirling2


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
    with pytest.raises(ValueError, match=r"^stirling2 arguments must be nonnegative, got \(-1, 0\)$"):
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
