"""Arbitrary-precision combinatorial primitives shared by every counting path.

Counts are plain Python ints (``BigCount``), which are arbitrary precision;
rational series coefficients use ``fractions.Fraction`` (``ExactRational``),
which is always stored in lowest terms with a positive denominator. Nothing
here ever rounds.

binomial and stirling2 are memoized in triangular tables grown on demand:
counting.closed_form_I and verify's Pascal and Stirling property suites
re-query small cells heavily (the recurrence tables in counting use none of
them, so they stay independent of the closed form that checks them). Rows are
built completely before being published, so concurrent readers always observe
correct values.
"""

from __future__ import annotations

import threading
from fractions import Fraction

BigCount = int
ExactRational = Fraction

_factorials: list[int] = [1]
_binomial_rows: list[list[int]] = [[1]]
_stirling_rows: list[list[int]] = [[1]]
# one lock per table: growth appends a row derived from the previous one, so
# two growers racing would duplicate rows and corrupt every later cell
_locks = {"factorial": threading.Lock(), "binomial": threading.Lock(), "stirling": threading.Lock()}


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    if len(_factorials) <= n:
        with _locks["factorial"]:
            while len(_factorials) <= n:
                _factorials.append(_factorials[-1] * len(_factorials))
    return _factorials[n]


def binomial(n: int, r: int) -> int:
    """C(n, r); zero when r > n."""
    if n < 0 or r < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got ({n}, {r})")
    if r > n:
        return 0
    if len(_binomial_rows) <= n:
        with _locks["binomial"]:
            while len(_binomial_rows) <= n:
                prev = _binomial_rows[-1]
                row = [1] + [prev[j - 1] + prev[j] for j in range(1, len(prev))] + [1]
                _binomial_rows.append(row)
    return _binomial_rows[n][r]


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
    if len(_stirling_rows) <= n:
        with _locks["stirling"]:
            while len(_stirling_rows) <= n:
                prev = _stirling_rows[-1]
                i = len(_stirling_rows)
                row = [0] * (i + 1)
                for j in range(1, i + 1):
                    row[j] = j * (prev[j] if j < len(prev) else 0) + prev[j - 1]
                _stirling_rows.append(row)
    return _stirling_rows[n][m]
