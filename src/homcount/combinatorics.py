"""Arbitrary-precision combinatorial primitives shared by every counting path.

Counts are plain Python ints (``BigCount``), which are arbitrary precision;
rational series coefficients use ``fractions.Fraction`` (``ExactRational``),
which is always stored in lowest terms with a positive denominator. Nothing
here ever rounds.

factorial and binomial are the standard library's math.factorial and math.comb
behind a nonnegativity check, so verify's Pascal identity check tests an
implementation that was not built from that identity. The stdlib has no
Stirling numbers: stirling2 is memoized in a triangular table grown on demand,
because counting.closed_form_I and verify's Stirling property suite re-query
small cells heavily (the recurrence tables in counting use none of these
primitives, so they stay independent of the closed form that checks them). Rows
are built completely before being published, so concurrent readers always
observe correct values.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

BigCount = int
ExactRational = Fraction

_stirling_rows: list[list[int]] = [[1]]
# growth appends a row derived from the previous one, so two growers racing
# would duplicate rows and corrupt every later cell
_stirling_lock = threading.Lock()


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def binomial(n: int, r: int) -> int:
    """C(n, r); zero when r > n."""
    if n < 0 or r < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got ({n}, {r})")
    return math.comb(n, r)


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
        with _stirling_lock:
            while len(_stirling_rows) <= n:
                prev = _stirling_rows[-1]
                i = len(_stirling_rows)
                row = [0] * (i + 1)
                for j in range(1, i + 1):
                    row[j] = j * (prev[j] if j < len(prev) else 0) + prev[j - 1]
                _stirling_rows.append(row)
    return _stirling_rows[n][m]
