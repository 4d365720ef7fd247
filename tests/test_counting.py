"""Recurrences and closed forms against the reference term lists and the stream oracle."""

import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from math import comb

import pytest

from homcount import counting, kernel
from homcount.combinatorics import binomial
from homcount.counting import (
    closed_form_I,
    closed_form_I_terms,
    count_I,
    count_L,
    fubini,
    j_surjective,
    k1,
    k2,
)
from homcount.enumeration import enumerate_models, surjective_first_point_split

I_TERMS = [
    3, 12, 71, 558, 5487, 64734, 891039, 14016774, 248057927, 4877703126,
    105504350679, 2489510252238, 63638447941551,
]  # k = 1..13
L_TERMS = [
    1, 3, 14, 95, 858, 9687, 131244, 2074515, 37475342, 761600375,
    17197534296, 427167206259, 11574924994554,
]  # k = 0..12


def test_k1_k2_base_and_unrolled_values():
    assert (k1(0), k2(0)) == (1, 0)
    assert (k1(2), k2(2)) == (5, 2)
    assert (k1(3), k2(3)) == (28, 15)


def test_count_I_reference_terms():
    assert [count_I(k) for k in range(1, 14)] == I_TERMS


def test_count_L_reference_terms():
    assert [count_L(k) for k in range(13)] == L_TERMS


def test_closed_form_examples():
    assert closed_form_I(1) == 2
    assert closed_form_I(2) == 11
    assert closed_form_I(3) == 70


def test_closed_form_is_count_I_minus_one():
    for k in range(1, 14):
        assert closed_form_I(k) + 1 == count_I(k)


def test_closed_form_terms_is_closed_form_per_k():
    for lo, hi in ((0, 0), (0, 6), (9, 9), (1, 60)):
        assert closed_form_I_terms(lo, hi) == [closed_form_I(k) for k in range(lo, hi + 1)]
    assert closed_form_I_terms(1, 60) == [count_I(k) - 1 for k in range(1, 61)]
    with pytest.raises(ValueError, match="^sequence index must be nonnegative, got -1$"):
        closed_form_I_terms(-1, 3)


def test_closed_form_counts_nonempty_models():
    for k in range(1, 6):
        nonempty = sum(1 for m in enumerate_models(k, True) if m.points)
        assert closed_form_I(k) == nonempty


def test_j_surjective_values():
    assert j_surjective(0) == 1
    assert j_surjective(2) == 9
    assert j_surjective(3) == 61


def test_fubini_values():
    assert fubini(0) == 1
    assert fubini(3) == 13
    assert fubini(4) == 75


def test_count_I_equals_brute_force():
    for k in range(1, 7):
        assert count_I(k) == kernel.count_models(k, True)


def test_count_L_equals_brute_force():
    for k in range(7):
        assert count_L(k) == kernel.count_models(k, False)


def test_j_surjective_equals_brute_force():
    for k in range(7):
        assert j_surjective(k) == kernel.count_surjective(k, False)


def test_k_split_equals_brute_force():
    for k in range(7):
        assert k1(k) + k2(k) == kernel.count_surjective(k, True)
    for k in range(9):
        s_first, r_first = surjective_first_point_split(k, True, cap=8)
        assert (s_first, r_first) == (k1(k), k2(k))


def test_fubini_equals_brute_force():
    for k in range(8):
        assert fubini(k) == kernel.count_ordered_set_partitions(k)


def test_binomial_transform_of_k():
    for k in range(21):
        assert count_I(k) == sum(binomial(k, i) * (k1(i) + k2(i)) for i in range(k + 1))


def test_binomial_transform_of_j():
    for k in range(21):
        assert count_L(k) == sum(binomial(k, i) * j_surjective(i) for i in range(k + 1))


def naive_tables(n_max):
    """The recurrences as plain binomial sums, sharing nothing with counting."""
    k1_, k2_, j_, f_ = [1], [0], [1], [1]
    for n in range(1, n_max + 1):
        k1_.append(sum(comb(n, i) * (k1_[i] + k2_[i]) for i in range(n)))
        k2_.append(n * k1_[n - 1])
        j_.append(2 * n * j_[n - 1] + sum(comb(n, i) * j_[n - i] for i in range(2, n + 1)))
        f_.append(sum(comb(n, i) * f_[n - i] for i in range(1, n + 1)))
    return {
        "k1": k1_,
        "k2": k2_,
        "j_surjective": j_,
        "fubini": f_,
        "count_I": [sum(comb(n, i) * (k1_[i] + k2_[i]) for i in range(n + 1)) for n in range(n_max + 1)],
        "count_L": [sum(comb(n, i) * j_[i] for i in range(n + 1)) for n in range(n_max + 1)],
    }


@pytest.fixture(scope="module")
def naive():
    return naive_tables(250)


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty recurrence tables, built as the module builds its own, for one test;
    the shared ones come back afterwards."""
    for name, entry in [("_k1_values", counting._k_entry), ("_j_values", counting._j_entry),
                        ("_fubini_values", counting._fubini_entry)]:
        monkeypatch.setattr(counting, name, counting._euler_seidel(entry))


def test_resumed_growth_matches_naive_sums(fresh_tables, naive):
    for fn, k in [(k1, 50), (j_surjective, 30), (k1, 120), (fubini, 200), (count_L, 90), (count_I, 250),
                  (j_surjective, 250), (fubini, 250)]:
        assert fn(k) == naive[fn.__name__][k]
    for name in naive:
        fn = getattr(counting, name)
        assert [fn(k) for k in range(251)] == naive[name], name


def test_concurrent_growth_observes_correct_values(fresh_tables, naive):
    rng = random.Random(11)
    names = sorted(naive)
    cells = [(rng.choice(names), rng.randint(0, 250)) for _ in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often enough to interleave growers
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda cell: getattr(counting, cell[0])(cell[1]), cells, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (name, k), got in zip(cells, results):
        assert got == naive[name][k], (name, k)


def test_table_growth_memory_stays_linear(fresh_env):
    # O(k) ints of extra state per table: about 1.1 MB, where summing over a
    # memoized Pascal triangle peaked at about 14 MB
    code = (
        "import tracemalloc\n"
        "from homcount.counting import count_I, count_L, fubini\n"
        "tracemalloc.start()\n"
        "count_I(600); count_L(300); fubini(300)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, check=True)
    assert int(out.stdout) < 4_000_000


def test_negative_index_rejected():
    for fn in (count_I, count_L, j_surjective, k1, k2, fubini, closed_form_I):
        with pytest.raises(ValueError, match="^sequence index must be nonnegative, got -1$"):
            fn(-1)
