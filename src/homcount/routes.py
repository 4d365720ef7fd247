"""The route table: every way the package computes a counted sequence.

ROUTES maps each sequence to the first index of its term list and its
methods, default method first. A method is a batch function
terms(lo, hi, cap) -> [term lo, ..., term hi]:

* a recurrence or the closed form calls its counting function once per k;
* an EGF route builds one series to order hi and reads every term from it;
* a brute-force route applies the cap to hi (kernel.check_cap), then runs one
  kernel.root_split walk per k.

Every route refuses an index below its sequence's first index and a negative
cap. A recurrence refuses hi above BOUNDS["recurrence"] and the closed form hi
above BOUNDS["closed-form"], before any table grows; the counting functions
themselves stay unbounded. The EGF builders and the walk carry their own
bounds (series.MAX_ORDER, kernel.MAX_K). Each route looks its function up on
its module when it runs, so a function patched there is the one it calls.

`count` prints terms(k, k, cap), `export` lists the default route from the
first index, and verify's route-agreement checks compare two routes' term
lists. This module loads counting and kernel only; an EGF route imports
series when it runs.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from operator import itemgetter

from homcount import counting, kernel
from homcount.counting import SequenceId

# The largest k of each exact method. `count` in a fresh process, Python 3.11, 2-core VM:
# I(1500) 1.5 s, I(2000) 3.1 s and 30 MB peak by recurrence; closed_form_I for
# k = 1..60 0.5 s and for k = 1..100 3.2 s, as an export to 60 or 100 computes it.
BOUNDS = {"recurrence": 2000, "closed-form": 100}

Terms = Callable[[int, int, int | None], list[int]]  # terms(lo, hi, cap)


def _exact(name: str, method: str = "recurrence") -> Terms:
    """counting.<name>(k) for each k, refusing hi above BOUNDS[method]."""

    def terms(lo: int, hi: int, cap: int | None) -> list[int]:
        if hi > BOUNDS[method]:
            raise ValueError(f"{method} not supported beyond k={BOUNDS[method]}, got {hi}")
        return [getattr(counting, name)(k) for k in range(lo, hi + 1)]

    return terms


def _egf(builder: str) -> Terms:
    """k! times coefficient k of the series `series.<builder>`, built once to order hi."""

    def terms(lo: int, hi: int, cap: int | None) -> list[int]:
        from homcount import series

        s = getattr(series, builder)(hi)
        return [series.egf_counts(s, k) for k in range(lo, hi + 1)]

    return terms


def _walk(pick: Callable, constrained: bool, surjective: bool, r_points: bool = True) -> Terms:
    """The cap check for hi, then one walk per k; `pick` reduces its (S-first, R-first) split."""

    def terms(lo: int, hi: int, cap: int | None) -> list[int]:
        kernel.check_cap(hi, cap)
        return [pick(kernel.root_split(k, constrained, surjective, r_points)) for k in range(lo, hi + 1)]

    return terms


def _checked(seq: SequenceId, start: int, terms: Terms, lo: int, hi: int, cap: int | None) -> list[int]:
    """terms(lo, hi, cap), refusing an index below `start` and a negative cap first."""
    if min(lo, hi) < start:
        raise ValueError(f"sequence {seq.value} starts at k={start}")
    if cap is not None:
        kernel.brute_force_cap(cap)  # refuses a negative cap, whatever the method
    return terms(lo, hi, cap)


# sequence -> (first index of its term list, {method: terms}), default method first
ROUTES: dict[SequenceId, tuple[int, dict[str, Terms]]] = {
    seq: (start, {method: partial(_checked, seq, start, terms) for method, terms in methods.items()})
    for seq, start, methods in [
        (SequenceId.I, 1, {"recurrence": _exact("count_I"), "closed-form": _exact("closed_form_I", "closed-form"),
                           "brute-force": _walk(sum, True, False)}),
        (SequenceId.L, 0, {"recurrence": _exact("count_L"), "egf": _egf("egf_H"),
                           "brute-force": _walk(sum, False, False)}),
        (SequenceId.J_SURJECTIVE, 0, {"recurrence": _exact("j_surjective"), "egf": _egf("egf_f"),
                                      "brute-force": _walk(sum, False, True)}),
        (SequenceId.K1, 0, {"recurrence": _exact("k1"), "brute-force": _walk(itemgetter(0), True, True)}),
        (SequenceId.K2, 0, {"recurrence": _exact("k2"), "brute-force": _walk(itemgetter(1), True, True)}),
        (SequenceId.FUBINI, 0, {"recurrence": _exact("fubini"), "egf": _egf("egf_fubini"),
                                "brute-force": _walk(sum, False, True, r_points=False)}),
        (SequenceId.I_CLOSED_NONEMPTY, 1, {"closed-form": _exact("closed_form_I", "closed-form"),
                                           "brute-force": _walk(lambda split: sum(split) - 1, True, False)}),
    ]
}
