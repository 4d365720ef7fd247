"""Closed-form and recursive counting formulas, exact over Python ints.

Two model families are counted, plus their surjective (all colors used)
refinements:

* count_I(k): adjacency-constrained models over colors 1..k, split into K1/K2
  by the tag of the first point (K1 counts S-first models and the empty model,
  K2 counts R-first models).
* count_L(k): unconstrained models, with j_surjective(k) counting those that
  use every color; fubini(k) counts the all-S-point surjective models, which
  are exactly the ordered set partitions of a k-set.

closed_form_I evaluates the direct summation formula verbatim, and
closed_form_I_terms evaluates it for a range of k, building the k-free inner
sums once. Its sum starts at one point, so it counts only the NONEMPTY
constrained models: closed_form_I(k) + 1 == count_I(k). Both values are
exposed on purpose; the recurrence value is the one matching the reference
term lists.

The reference term list of I starts at k=1, every other list at k=0. The
route table (routes.ROUTES) names the sequences, as the CLI prints them, and
records each one's first index beside its methods; it also bounds the index
its recurrence and closed-form routes accept. These functions themselves take
any nonnegative k.

The recurrences K1, J and Fubini are three combinatorics.GrowingTable
instances, each with its own list and lock. Each recurrence is a binomial
convolution s(n) = sum_{i<n} C(n, i) t(i) of an earlier term sequence t, and
the tables obtain it by the Euler-Seidel scheme (D. Dumont, "Matrices
d'Euler-Seidel", Sem. Lothar. Combin. B05c, 1981): each table's next-value
function owns the newest anti-diagonal of the transform triangle of t, O(n)
ints that change only under that table's lock, and one row costs 2n additions
and no binomial coefficient. With T = K1 + K2:

    K1(n) = s_T(n)    K2(n) = n K1(n-1)    J(n) = n J(n-1) + s_J(n)    F(n) = s_F(n)

K2 is derived on read. K1's sum counts exactly the constrained models on a
proper subset of the colors, and J's sum the unconstrained ones, so for k >= 1

    count_I(k) = s_T(k) + T(k) = 2 K1(k) + K2(k)
    count_L(k) = s_J(k) + J(k) = 2 J(k) - k J(k-1)

are O(1) reads (both are 1 at k = 0). closed_form_I alone uses the primitives
of combinatorics (the stdlib factorial and binomial, the Stirling table), so
the recurrences and the formula that checks them share no table.
"""

from __future__ import annotations

from itertools import accumulate
from math import ceil

from homcount.combinatorics import GrowingTable, binomial, factorial, stirling2


def _require_nonnegative(k: int) -> None:
    if k < 0:
        raise ValueError(f"sequence index must be nonnegative, got {k}")


def _euler_seidel(entry) -> GrowingTable:
    """The table whose entry n is the first item of entry(n, entry n-1, s(n)).

    entry returns that table entry and t(n); a row costs 2n additions. The
    next-value function owns the newest anti-diagonal of t's transform
    triangle, which changes only under the table's lock: before entry n,
    diagonal[j] = sum_i C(j, i) t(n-1-i) for j < n, so its sum is
    s(n) = sum_{i<n} C(n, i) t(i), and by Pascal's rule the running sums of
    [t(n), *diagonal] are the diagonal for entry n + 1. Every table here has
    t(0) = 1.
    """
    diagonal = [1]

    def next_value(n: int, previous: int) -> int:
        value, t = entry(n, previous, sum(diagonal))
        diagonal[:] = list(accumulate(diagonal, initial=t))
        return value

    return GrowingTable(1, next_value)


def _k_entry(n: int, previous: int, s: int) -> tuple[int, int]:
    # K1(n) = s_T(n), and T(n) = K1(n) + K2(n) with K2(n) = n K1(n-1)
    return s, s + n * previous


def _j_entry(n: int, previous: int, s: int) -> tuple[int, int]:
    # J(n) = 2n J(n-1) + sum_{i>=2} C(n, i) J(n-i) = n J(n-1) + s_J(n)
    value = n * previous + s
    return value, value


def _fubini_entry(n: int, previous: int, s: int) -> tuple[int, int]:
    # F(n) = sum_{i>=1} C(n, i) F(n-i) = s_F(n)
    return s, s


_k1_values = _euler_seidel(_k_entry)
_j_values = _euler_seidel(_j_entry)
_fubini_values = _euler_seidel(_fubini_entry)


def k1(k: int) -> int:
    """Surjective constrained models whose first point is an S-point (1 at k=0)."""
    _require_nonnegative(k)
    return _k1_values[k]


def k2(k: int) -> int:
    """Surjective constrained models whose first point is an R-point."""
    _require_nonnegative(k)
    return k * k1(k - 1) if k else 0


def count_I(k: int) -> int:
    """Constrained models over colors 1..k, empty model included.

    The reference term list for this sequence starts at k=1. A negative k is
    refused by k1, which the sum reads first.
    """
    return 2 * k1(k) + k2(k) if k else 1


def closed_form_I(k: int) -> int:
    """Direct summation for the nonempty constrained models: count_I(k) - 1."""
    return closed_form_I_terms(k, k)[0]


def closed_form_I_terms(lo: int, hi: int) -> list[int]:
    """[closed_form_I(lo), ..., closed_form_I(hi)]: sum over m of C(k, m) inner(m).

    inner(m) counts the nonempty models that use all of m given colors, so it
    does not depend on k and is computed once per call for every m <= hi. In
    it n runs over the number of points and r over the number of R-points
    (never two in a row, so at most ceil(n/2)); the product picks the R
    positions, their colors and order, the order of the S color sets, and the
    partition of the remaining colors into them.
    """
    _require_nonnegative(lo)
    inner = [0]  # no nonempty model uses no color
    for m in range(1, hi + 1):
        inner.append(sum(
            binomial(n - r + 1, r) * binomial(m, r) * factorial(r) * factorial(n - r) * stirling2(m - r, n - r)
            for n in range(1, m + 1)
            for r in range(ceil(n / 2) + 1)
        ))
    return [sum(binomial(k, m) * inner[m] for m in range(k + 1)) for k in range(lo, hi + 1)]


def j_surjective(k: int) -> int:
    """Unconstrained models using all k colors."""
    _require_nonnegative(k)
    return _j_values[k]


def count_L(k: int) -> int:
    """Unconstrained models over colors 1..k: the homogeneous k-colored orderings.

    The sum over i <= k of C(k, i) J(i) includes the i=0 term (the empty
    ordering); starting it at i=1 would contradict every reference term from
    L(1) on. A negative k is refused by j_surjective, which the sum reads first.
    """
    return 2 * j_surjective(k) - k * j_surjective(k - 1) if k else 1


def fubini(k: int) -> int:
    """Ordered set partitions of a k-set."""
    _require_nonnegative(k)
    return _fubini_values[k]
