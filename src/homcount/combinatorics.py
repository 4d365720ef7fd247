"""Arbitrary-precision combinatorial primitives shared by every counting path.

Counts are plain Python ints, which are arbitrary precision; rational series
coefficients are ``fractions.Fraction`` values, always stored in lowest terms
with a positive denominator. Nothing here ever rounds.

factorial and binomial are the standard library's math.factorial and math.comb
themselves (both refuse a negative argument with a ValueError), so verify's
Pascal identity check tests an implementation that was not built from that
identity. The stdlib has no Stirling numbers: stirling2 reads its rows from a
GrowingTable, because counting.closed_form_I and verify's Stirling property
suite re-query small cells heavily. GrowingTable is also the type of
counting's recurrence tables, but the class keeps no state: every instance
owns its list, its lock and the function that computes its next entry, so the
recurrences and the closed form that checks them share no entry.

Two rules for integer inputs live here, because every layer loads this module:
integer(value, noun) accepts only an int (a bool, a float or a string is
refused, never coerced), and nonnegative(value, noun) also refuses a value
below 0. Every k, series order, cap and JSON integer of the package goes
through one of them, and each refusal is a ValueError that names the input by
its noun.
"""

from __future__ import annotations

import math
import threading

factorial = math.factorial  # n! for n >= 0
binomial = math.comb  # C(n, r) for n, r >= 0; zero when r > n


def integer(value, noun: str) -> int:
    """`value` if it is an int. A bool (JSON's true loads as one), a float and
    a string are refused with a ValueError naming `noun`, not coerced."""
    if type(value) is int:
        return value
    raise ValueError(f"{noun} must be an integer, got {value!r}")


def nonnegative(value, noun: str) -> int:
    """`value` if it is an int >= 0, so a bound can be checked on the result; a
    value that is no int is refused by integer(), a negative one here."""
    if type(value) is int and value >= 0:  # the valid case in one test: counting's lookups run this
        return value
    integer(value, noun)
    raise ValueError(f"{noun} must be nonnegative, got {value}")


class GrowingTable:
    """Entries 0, 1, 2, ... of a sequence, computed on first read and kept.

    Entry 0 is `first`; entry n > 0 is next_value(n, entry n-1). Reading a
    missing entry n computes every missing entry through n under the table's
    lock, since next_value may keep state of its own and two growers racing
    would duplicate entries. An entry is published only when it is complete,
    so a read of an existing entry takes no lock: it is one list index, tried
    first because stirling2 reads thousands of cells per
    counting.closed_form_I call.
    """

    def __init__(self, first, next_value):
        self._values = [first]
        self._lock = threading.Lock()
        self._next_value = next_value

    def __getitem__(self, n: int):
        try:
            return self._values[n]
        except IndexError:
            with self._lock:
                while len(self._values) <= n:
                    self._values.append(self._next_value(len(self._values), self._values[-1]))
            return self._values[n]


def _stirling_row(n: int, prev: list[int]) -> list[int]:
    """Row n >= 1 from row n-1: S(n, 0) = 0, S(n, j) = j S(n-1, j) + S(n-1, j-1)
    for 0 < j < n, and S(n, n) = 1."""
    return [0] + [j * prev[j] + prev[j - 1] for j in range(1, n)] + [1]


_stirling_triangle = GrowingTable([1], _stirling_row)


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind S(n, m).

    Partitions of an n-set into m nonempty blocks. S(0, 0) = 1 (the closed-form
    sums evaluate the (0, 0) cell when a model has no shuffle points, and every
    hand-checked term requires the empty-partition convention); S(n, 0) = 0 for
    n > 0 and S(n, m) = 0 for m > n.
    """
    if n < 0 or m < 0:
        raise ValueError(f"stirling2 arguments must be nonnegative, got ({n}, {m})")
    if m > n:
        return 0
    return _stirling_triangle[n][m]
