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
below 0. Every k, series order, coefficient index, cap and JSON integer of the
package goes through one of them, stirling2's n and m and asymptotics' k
included, and each refusal is a ValueError that names the input by its noun.
The theory flag has the same kind of rule: boolean(value, noun) accepts only a
bool, so 0, 1, None or "false" is refused, never read for its truth value. The
model reader, writer and validator, the two expansions, the walk
(kernel.root_split) and the model streams check the flag with it.
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


def boolean(value, noun: str) -> bool:
    """`value` if it is a bool. An int, None and a string such as "false" are
    refused with a ValueError naming `noun`, not read for their truth value."""
    if type(value) is bool:
        return value
    raise ValueError(f"{noun} must be true or false, got {value!r}")


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
    n > 0 and S(n, m) = 0 for m > n. Both arguments are ints >= 0, named n and m
    in a refusal.
    """
    if type(n) is int and type(m) is int and 0 <= m <= n:  # one test: closed_form_I reads a cell per term
        return _stirling_triangle[n][m]
    nonnegative(n, "n")
    nonnegative(m, "m")
    return 0
