"""The route table: every way the package computes a counted sequence.

ROUTES maps each sequence name, as the CLI accepts and prints it, to the
first index of its term list and its methods, default method first; its keys
are the package's one list of counted sequences. A method is a batch function
terms(lo, hi, cap) -> [term lo, ..., term hi]:

* a recurrence calls its counting function once per k, and the closed form
  calls counting.closed_form_I_terms once for the whole range;
* an EGF route builds one series to order hi and reads every term from it;
* a brute-force route applies the cap to hi (kernel.check_cap), then runs one
  kernel.root_split walk per k.

Every route refuses an index that is no int (combinatorics.integer) or is
below its sequence's first index, and a negative cap, and a method with an
entry in BOUNDS refuses hi above it (a recurrence above BOUNDS["recurrence"],
the closed form above BOUNDS["closed-form"]), all before any table grows; the
counting functions themselves stay unbounded. The EGF builders and the walk
carry their own bounds (series.MAX_ORDER, kernel.MAX_K). Each route looks its
function up on its module when it runs, so a function patched there is the
one it calls.

`count` prints terms(k, k, cap), `export` lists the default route from the
first index, and verify's route-agreement checks compare two routes' term
lists. This module loads counting and kernel only (and combinatorics, which
both load); an EGF route imports series when it runs.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from operator import itemgetter

from homcount import counting, kernel
from homcount.combinatorics import integer

# The largest k of each exact method. Python 3.11, 2-core VM: `count` in a fresh process takes
# I(1500) 1.5 s, I(2000) 3.1 s and 30 MB peak by recurrence. The closed form's inner sums grow about
# as k^5: closed_form_I_terms(1, k) takes 0.13 s to k = 100, 0.9 s to 150 and 3.5 s to 200 in
# process, and an export to 100 takes 0.3 s in a fresh process.
BOUNDS = {"recurrence": 2000, "closed-form": 100}

Terms = Callable[[int, int, int | None], list[int]]  # terms(lo, hi, cap)


def _exact(name: str) -> Terms:
    """counting.<name>(k) for each k."""
    return lambda lo, hi, cap: [getattr(counting, name)(k) for k in range(lo, hi + 1)]


def _closed_form(lo: int, hi: int, cap: int | None) -> list[int]:
    """counting.closed_form_I_terms(lo, hi): one set of inner sums for the whole range."""
    return counting.closed_form_I_terms(lo, hi)


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


def _checked(seq: str, start: int, method: str, terms: Terms, lo: int, hi: int, cap: int | None) -> list[int]:
    """terms(lo, hi, cap), refusing an index that is no int or is below `start`, a negative cap and hi above
    BOUNDS[method] first."""
    if min(integer(lo, "sequence index"), integer(hi, "sequence index")) < start:
        raise ValueError(f"sequence {seq} starts at k={start}")
    if cap is not None:
        kernel.brute_force_cap(cap)  # refuses a negative cap, whatever the method
    if method in BOUNDS and hi > BOUNDS[method]:
        raise ValueError(f"{method} not supported beyond k={BOUNDS[method]}, got {hi}")
    return terms(lo, hi, cap)


# sequence name -> (first index of its term list, {method: terms}), default method first
ROUTES: dict[str, tuple[int, dict[str, Terms]]] = {
    seq: (start, {method: partial(_checked, seq, start, method, terms) for method, terms in methods.items()})
    for seq, start, methods in [
        ("I", 1, {"recurrence": _exact("count_I"), "closed-form": _closed_form,
                  "brute-force": _walk(sum, True, False)}),
        ("L", 0, {"recurrence": _exact("count_L"), "egf": _egf("egf_H"), "brute-force": _walk(sum, False, False)}),
        ("J_surjective", 0, {"recurrence": _exact("j_surjective"), "egf": _egf("egf_f"),
                             "brute-force": _walk(sum, False, True)}),
        ("K1", 0, {"recurrence": _exact("k1"), "brute-force": _walk(itemgetter(0), True, True)}),
        ("K2", 0, {"recurrence": _exact("k2"), "brute-force": _walk(itemgetter(1), True, True)}),
        ("Fubini", 0, {"recurrence": _exact("fubini"), "egf": _egf("egf_fubini"),
                       "brute-force": _walk(sum, False, True, r_points=False)}),
        ("I_closed_nonempty", 1, {"closed-form": _closed_form,
                                  "brute-force": _walk(lambda split: sum(split) - 1, True, False)}),
    ]
}
