"""Closed-form and recursive counting formulas, exact over Python ints.

Two model families are counted, plus their surjective (all colors used)
refinements:

* count_I(k): adjacency-constrained models over colors 1..k, split into K1/K2
  by the tag of the first point (K1 counts S-first models and the empty model,
  K2 counts R-first models).
* count_L(k): unconstrained models, with j_surjective(k) counting those that
  use every color; fubini(k) counts the all-S-point surjective models, which
  are exactly the ordered set partitions of a k-set.

closed_form_I evaluates the direct summation formula verbatim. Its outer sum
starts at one point, so it counts only the NONEMPTY constrained models:
closed_form_I(k) + 1 == count_I(k). Both values are exposed on purpose; the
recurrence value is the one matching the reference term lists.

The reference term list of I starts at k=1, every other list at k=0; the CLI's
route table (cli.ROUTES) records each sequence's first index beside its methods.

All recurrences are memoized in tables grown on demand. Each recurrence is a
binomial convolution s(n) = sum_{i<n} C(n, i) t(i) of an earlier term sequence
t, and the tables obtain it by the Euler-Seidel scheme (D. Dumont, "Matrices
d'Euler-Seidel", Sem. Lothar. Combin. B05c, 1981): beside each table lives the
newest anti-diagonal of the transform triangle of t, O(n) ints, and one row
costs 2n additions and no binomial coefficient. With T = K1 + K2:

    K1(n) = s_T(n)    K2(n) = n K1(n-1)    J(n) = n J(n-1) + s_J(n)    F(n) = s_F(n)

K2 is derived on read. K1's sum counts exactly the constrained models on a
proper subset of the colors, and J's sum the unconstrained ones, so for k >= 1

    count_I(k) = s_T(k) + T(k) = 2 K1(k) + K2(k)
    count_L(k) = s_J(k) + J(k) = 2 J(k) - k J(k-1)

are O(1) reads (both are 1 at k = 0). closed_form_I alone uses the primitives
of combinatorics (the stdlib factorial and binomial, the memoized Stirling
table), so the recurrences and the formula that checks them share no table.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Callable
from itertools import accumulate
from math import ceil

from homcount.combinatorics import binomial, factorial, stirling2


class SequenceId(str, enum.Enum):
    I = "I"
    L = "L"
    J_SURJECTIVE = "J_surjective"
    K1 = "K1"
    K2 = "K2"
    FUBINI = "Fubini"
    I_CLOSED_NONEMPTY = "I_closed_nonempty"


_k1_table: list[int] = [1]
_j_table: list[int] = [1]
_fubini_table: list[int] = [1]
# newest anti-diagonal of each table's transform triangle (see _grow); the K
# one belongs to T = K1 + K2, the others to the table's own sequence
_k_diagonal: list[int] = [1]
_j_diagonal: list[int] = [1]
_fubini_diagonal: list[int] = [1]
# growth derives each entry from earlier ones; racing growers would duplicate rows
_k_lock = threading.Lock()
_j_lock = threading.Lock()
_fubini_lock = threading.Lock()


def _require_nonnegative(k: int) -> None:
    if k < 0:
        raise ValueError(f"sequence index must be nonnegative, got {k}")


def _grow(
    table: list[int],
    diagonal: list[int],
    lock: threading.Lock,
    k: int,
    entry: Callable[[int, int], tuple[int, int]],
) -> None:
    """Extend table through index k, 2n additions for entry n.

    Before entry n, diagonal[j] = sum_i C(j, i) t(n-1-i) for j < n, so its sum
    is s(n) = sum_{i<n} C(n, i) t(i). entry(n, s(n)) returns the table entry
    and t(n); by Pascal's rule the running sums of [t(n), *diagonal] are then
    the diagonal for entry n + 1.
    """
    if len(table) > k:
        return
    with lock:
        while len(table) <= k:
            n = len(table)
            value, t = entry(n, sum(diagonal))
            diagonal[:] = list(accumulate(diagonal, initial=t))
            table.append(value)


def _k_entry(n: int, s: int) -> tuple[int, int]:
    # K1(n) = s_T(n), and T(n) = K1(n) + K2(n) with K2(n) = n K1(n-1)
    return s, s + n * _k1_table[n - 1]


def _j_entry(n: int, s: int) -> tuple[int, int]:
    # J(n) = 2n J(n-1) + sum_{i>=2} C(n, i) J(n-i) = n J(n-1) + s_J(n)
    value = n * _j_table[n - 1] + s
    return value, value


def _fubini_entry(n: int, s: int) -> tuple[int, int]:
    # F(n) = sum_{i>=1} C(n, i) F(n-i) = s_F(n)
    return s, s


def k1(k: int) -> int:
    """Surjective constrained models whose first point is an S-point (1 at k=0)."""
    _require_nonnegative(k)
    _grow(_k1_table, _k_diagonal, _k_lock, k, _k_entry)
    return _k1_table[k]


def k2(k: int) -> int:
    """Surjective constrained models whose first point is an R-point."""
    _require_nonnegative(k)
    return k * k1(k - 1) if k else 0


def count_I(k: int) -> int:
    """Constrained models over colors 1..k, empty model included.

    The reference term list for this sequence starts at k=1.
    """
    _require_nonnegative(k)
    return 2 * k1(k) + k2(k) if k else 1


def closed_form_I(k: int) -> int:
    """Direct summation for the nonempty constrained models: count_I(k) - 1.

    m runs over the colors actually used, n over the number of points, r over
    the number of R-points (never two in a row, so at most ceil(n/2)); the
    inner product picks the R positions, their colors and order, the order of
    the S color sets, and the partition of the remaining colors into them.
    """
    _require_nonnegative(k)
    total = 0
    for m in range(1, k + 1):
        inner = 0
        for n in range(1, m + 1):
            for r in range(ceil(n / 2) + 1):
                inner += (
                    binomial(n - r + 1, r)
                    * binomial(m, r)
                    * factorial(r)
                    * factorial(n - r)
                    * stirling2(m - r, n - r)
                )
        total += binomial(k, m) * inner
    return total


def j_surjective(k: int) -> int:
    """Unconstrained models using all k colors."""
    _require_nonnegative(k)
    _grow(_j_table, _j_diagonal, _j_lock, k, _j_entry)
    return _j_table[k]


def count_L(k: int) -> int:
    """Unconstrained models over colors 1..k: the homogeneous k-colored orderings.

    The sum over i <= k of C(k, i) J(i) includes the i=0 term (the empty
    ordering); starting it at i=1 would contradict every reference term from
    L(1) on.
    """
    _require_nonnegative(k)
    return 2 * j_surjective(k) - k * j_surjective(k - 1) if k else 1


def fubini(k: int) -> int:
    """Ordered set partitions of a k-set."""
    _require_nonnegative(k)
    _grow(_fubini_table, _fubini_diagonal, _fubini_lock, k, _fubini_entry)
    return _fubini_table[k]
