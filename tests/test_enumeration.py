"""Stream correctness: completeness, canonical order, determinism, kernel parity, bounds."""

import functools
import hashlib
import itertools
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from homcount import enumeration, kernel
from homcount.combinatorics import binomial
from homcount.enumeration import (
    enumerate_models,
    enumerate_ordered_set_partitions,
    enumerate_surjective,
    surjective_first_point_split,
)
from homcount.kernel import BruteForceCapError
from homcount.model import MulticoloredModel, RPoint, SPoint, canonical_key, model_to_dict, validate_model


def naive_models(k, constrained):
    """Independent generator: every point sequence of length <= k, filtered."""
    choices = [RPoint(c) for c in range(1, k + 1)]
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(1, k + 1), size):
            choices.append(SPoint(combo))
    found = set()
    for n in range(k + 1):
        for points in itertools.product(choices, repeat=n):
            m = MulticoloredModel(k, points, constrained)
            if validate_model(m).ok:
                found.add(m)
    return found


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stream_completeness_against_naive_filter(k, constrained):
    streamed = list(enumerate_models(k, constrained))
    assert len(streamed) == len(set(streamed)), "stream repeated a model"
    assert set(streamed) == naive_models(k, constrained)


def test_stream_is_canonically_sorted():
    for k in range(5):
        for constrained in (True, False):
            keys = [canonical_key(m) for m in enumerate_models(k, constrained)]
            assert keys == sorted(keys)


def test_every_streamed_model_validates():
    for m in enumerate_models(4, True):
        assert validate_model(m).ok
    for m in enumerate_models(4, False):
        assert validate_model(m).ok


def test_k1_examples():
    assert list(enumerate_models(0, True)) == [MulticoloredModel(0, [], True)]
    models = list(enumerate_models(1, True))
    assert models == [
        MulticoloredModel(1, [], True),
        MulticoloredModel(1, [RPoint(1)], True),
        MulticoloredModel(1, [SPoint({1})], True),
    ]
    assert len(list(enumerate_models(1, False))) == 3


def test_determinism_across_threads():
    reference = list(enumerate_models(4, True))
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda _: list(enumerate_models(4, True)), range(2)))
    assert runs[0] == reference and runs[1] == reference


def test_counts_match_reference_values():
    assert kernel.count_models(2, True) == 12
    assert kernel.count_models(2, False) == 14
    assert kernel.count_models(3, True) == 71


def test_count_matches_stream_length():
    for k in range(5):
        for constrained in (True, False):
            assert kernel.count_models(k, constrained) == sum(
                1 for _ in enumerate_models(k, constrained)
            )


def test_cap_refusal_names_the_cap():
    with pytest.raises(BruteForceCapError, match="cap of 7"):
        surjective_first_point_split(8, True)
    # the stream refuses at the call too, not at its first next
    with pytest.raises(BruteForceCapError, match="cap of 7"):
        enumerate_ordered_set_partitions(8)
    # explicit override opens the door: K1(8) and K2(8)
    assert surjective_first_point_split(8, True, cap=8) == (5587635, 2841504)
    # a negative cap is refused by name, not as a cap that every k exceeds
    with pytest.raises(ValueError, match="^cap must be nonnegative, got -1$") as exc:
        surjective_first_point_split(0, cap=-1)
    assert not isinstance(exc.value, BruteForceCapError)


def test_surjective_examples():
    surj1 = list(enumerate_surjective(1, True))
    assert surj1 == [
        MulticoloredModel(1, [RPoint(1)], True),
        MulticoloredModel(1, [SPoint({1})], True),
    ]
    assert list(enumerate_surjective(0, True)) == [MulticoloredModel(0, [], True)]
    assert sum(1 for _ in enumerate_surjective(2, False)) == 9


def test_surjective_stream_matches_kernel_count():
    for k in range(5):
        for constrained in (True, False):
            assert kernel.count_surjective(k, constrained) == sum(
                1 for _ in enumerate_surjective(k, constrained)
            )


def test_partition_by_used_color_set():
    # models partition by which colors they use; each class is a surjective count
    for k in range(6):
        for constrained in (True, False):
            total = kernel.count_models(k, constrained)
            assert total == sum(
                binomial(k, i) * kernel.count_surjective(i, constrained)
                for i in range(k + 1)
            )


@pytest.mark.parametrize("constrained", [True, False])
def test_surjective_streams_are_the_filtered_model_stream(constrained):
    # the surjective streams emit their last point directly; the full stream filtered is the reference
    for k in range(6):
        full = frozenset(range(1, k + 1))
        surjective = [m for m in enumerate_models(k, constrained) if m.used_colors() == full]
        assert list(enumerate_surjective(k, constrained)) == surjective
        if not constrained:
            all_s = [m for m in surjective if all(type(p) is SPoint for p in m.points)]
            assert list(enumerate_ordered_set_partitions(k)) == all_s


def test_first_point_split():
    assert surjective_first_point_split(0, True) == (1, 0)
    assert surjective_first_point_split(2, True) == (5, 2)
    # reference: classify the materialised surjective stream by its first point
    for k in range(6):
        for constrained in (True, False):
            split = [0, 0]
            for m in enumerate_surjective(k, constrained):
                r_first = bool(m.points) and isinstance(m.points[0], RPoint)
                split[r_first] += 1
            assert kernel.root_split(k, constrained, True) == tuple(split)
            assert surjective_first_point_split(k, constrained) == tuple(split)


def test_ordered_set_partition_examples():
    assert list(enumerate_ordered_set_partitions(0)) == [MulticoloredModel(0, [], False)]
    two = [
        tuple(tuple(sorted(p.colors)) for p in m.points)
        for m in enumerate_ordered_set_partitions(2)
    ]
    assert two == [((1, 2),), ((1,), (2,)), ((2,), (1,))]
    assert sum(1 for _ in enumerate_ordered_set_partitions(3)) == 13


def test_ordered_set_partitions_are_all_s_and_surjective():
    for m in enumerate_ordered_set_partitions(4):
        assert all(isinstance(p, SPoint) for p in m.points)
        assert m.used_colors() == frozenset(range(1, 5))
        assert validate_model(m).ok


def test_ordered_set_partition_count_matches_stream():
    for k in range(6):
        assert kernel.count_ordered_set_partitions(k) == sum(
            1 for _ in enumerate_ordered_set_partitions(k)
        )


def test_kernel_guard():
    assert kernel.MAX_K == 12
    with pytest.raises(ValueError, match="beyond k=12"):
        kernel.count_models(13, True)
    with pytest.raises(ValueError):
        kernel.count_models(-1, True)


def test_streams_refuse_k_beyond_the_bound_on_first_next():
    for stream in (
        enumerate_models(13),
        enumerate_models(13, False),
        enumerate_surjective(13),
        enumerate_surjective(13, False),
        enumerate_ordered_set_partitions(13, cap=40),
    ):
        with pytest.raises(ValueError, match="beyond k=12"):
            next(stream)


def test_table_memory_stays_small(run_python):
    # the move tables are all the walk and the stream keep between calls;
    # each point is built once per color or color mask and shared
    code = (
        "import tracemalloc\n"
        "from homcount.enumeration import enumerate_models\n"
        "from homcount.kernel import count_models\n"
        "tracemalloc.start()\n"
        "count_models(8, True)\n"
        "len(list(enumerate_models(6, True)))\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    assert int(run_python(code)) < 2_000_000


def reference_stream(k, constrained):
    """The move rule walked plainly, as (model, uses every color) pairs: each
    free color as an R-point, then each nonempty set of free colors as an
    S-point, in canonical point order. The walk meets models in lexicographic
    order, and a stable sort by length makes that the canonical order."""
    found = []

    @functools.cache
    def moves(free):
        """(point, colors left, is an R-point) for each point over `free`, in canonical point order."""
        r_moves = [(RPoint(c), free - {c}, True) for c in sorted(free)]
        sets = sorted(s for n in range(1, len(free) + 1) for s in itertools.combinations(sorted(free), n))
        return r_moves + [(SPoint(s), free - set(s), False) for s in sets]

    def walk(points, free, last_r):
        found.append((MulticoloredModel(k, points, constrained), not free))
        for point, rest, is_r in moves(free):
            if not (is_r and constrained and last_r):
                walk(points + (point,), rest, is_r)

    walk((), frozenset(range(1, k + 1)), False)
    return sorted(found, key=lambda pair: len(pair[0].points))


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("k", range(7))
def test_streams_equal_the_reference_walk(k, constrained):
    reference = reference_stream(k, constrained)
    assert list(enumerate_models(k, constrained)) == [m for m, _ in reference]
    surjective = [m for m, uses_all in reference if uses_all]
    assert list(enumerate_surjective(k, constrained)) == surjective
    if not constrained:
        all_s = [m for m in surjective if all(type(p) is SPoint for p in m.points)]
        assert list(enumerate_ordered_set_partitions(k)) == all_s


def test_suffix_tables_hold_shared_points_in_canonical_order():
    # the completions of a prefix with free colors {1, 2} by two points, in the unconstrained theory
    r1, r2, s1, s2 = RPoint(1), RPoint(2), SPoint({1}), SPoint({2})
    table = enumeration._suffixes(0b11, 2, True, True, True, False)
    assert table == ((r1, r2), (r1, s2), (r2, r1), (r2, s1), (s1, r2), (s1, s2), (s2, r1), (s2, s1))
    assert table[0][0] is enumeration._r_point(1) and table[4][0] is enumeration._s_point(1)
    # no R-point after an R-point when constrained, and a surjective table only completes with every color
    assert enumeration._suffixes(0b11, 2, True, False, True, False) == ((r1, s2), (r2, s1), (s1, r2), (s1, s2),
                                                                        (s2, r1), (s2, s1))
    assert enumeration._suffixes(0b111, 1, True, False, True, True) == ((SPoint({1, 2, 3}),),)
    # length 0 is the empty model: there unless surjective with colors free, and always at mask 0 (k = 0)
    assert enumeration._suffixes(0b11, 0, True, True, True, False) == ((),)
    assert enumeration._suffixes(0b11, 0, True, True, True, True) == ()
    assert enumeration._suffixes(0, 0, True, True, True, True) == ((),)


def test_suffix_tables_stay_small_at_the_bound(run_python):
    # every table that a stream at k <= MAX_K can read, for all five streams: about 101k suffixes in 8.5 MB
    code = (
        "import tracemalloc\n"
        "from homcount import enumeration, kernel\n"
        "tracemalloc.start()\n"
        "suffixes = 0\n"
        "for after_r, r_points, surjective in [(False, True, False), (True, True, False), (False, True, True),\n"
        "                                      (True, True, True), (False, False, True)]:\n"
        "    for avail in range(1, 1 << kernel.MAX_K):\n"
        "        if avail.bit_count() <= enumeration.BULK_COLORS:\n"
        "            for remaining in range(1, avail.bit_count() + 1):\n"
        "                for r_ok in {False, r_points}:\n"
        "                    table = enumeration._suffixes(avail, remaining, r_ok, after_r, r_points, surjective)\n"
        "                    suffixes += len(table)\n"
        "print(suffixes, tracemalloc.get_traced_memory()[0])\n"
    )
    suffixes, size = map(int, run_python(code).split())
    assert suffixes == 101598 and size < 10_000_000


# sha256 of the model_to_dict JSON lines of each stream over k = 0..5,
# recorded from the tuple-based generators that the move tables replaced
GOLDEN_STREAMS = {
    ("models", True): (6132, "c38df2d6a61f29534435a183fb75ffe6a718a2598af51b2b559adb0022ed89d9"),
    ("models", False): (10658, "aef504d14dc120f6d8b3bfe0f348235f02cf44e25c5443b3e38169b87ad16c7c"),
    ("surjective", True): (3689, "b125064aed126fbf65e4b76b62dcf6c34015561c12b33f0cf54fafe3667d200f"),
    ("surjective", False): (6845, "78a05e0706ecc4b1ced9cd6d7aaa0a66ba130dbd49c3b8ece0ffba5c924d94cc"),
    ("ordered_set_partitions", False): (634, "154fcda0e8667a2ce7a5a17973296cf40cb30344b2e61c3cab26ad8478dcf97e"),
}


@pytest.mark.parametrize("stream,constrained", sorted(GOLDEN_STREAMS))
def test_stream_bytes_match_golden(stream, constrained):
    make = {
        "models": lambda k: enumerate_models(k, constrained),
        "surjective": lambda k: enumerate_surjective(k, constrained),
        "ordered_set_partitions": enumerate_ordered_set_partitions,
    }[stream]
    digest, count = hashlib.sha256(), 0
    for k in range(6):
        for m in make(k):
            digest.update((json.dumps(model_to_dict(m)) + "\n").encode())
            count += 1
    assert (count, digest.hexdigest()) == GOLDEN_STREAMS[stream, constrained]


def test_streams_share_points():
    models = list(enumerate_models(3, False))
    s12 = [p for m in models for p in m.points if p == SPoint({1, 2})]
    r3 = [p for m in models for p in m.points if p == RPoint(3)]
    assert len(s12) > 1 and len(r3) > 1
    assert all(p is s12[0] for p in s12) and all(p is r3[0] for p in r3)
    assert enumeration._point_moves(0b101)[1] == (
        (SPoint({1}), 0b100, 1),
        (SPoint({1, 3}), 0, 2),
        (SPoint({3}), 0b001, 1),
    )


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        list(enumerate_models(-1, True))
    with pytest.raises(ValueError):
        list(enumerate_ordered_set_partitions(-1))
