"""Exact truncated power series over rationals, and the counting generating functions.

A TruncatedSeries holds coefficients 0..order as Fractions; index j is the
coefficient of x^j. Arithmetic between series of different orders truncates to
the smaller order. Everything is exact: a non-integer where an integer count
is expected is reported as an error, never rounded.

The three counting series:

* egf_f: 1/(2 - x - e^x) = 1/(1 - g) with g = e^x + x - 1, built by Horner's
  rule r <- 1 + g*r on integer EGF numerators; its coefficient counts (k! times
  coefficient k) are j_surjective.
* egf_H: e^x / (2 - x - e^x), built as e^x times the reciprocal of the
  denominator; its counts are count_L.
* egf_fubini: 1/(2 - e^x); its counts are the ordered set partition numbers.

The two denominators that are inverted, 2 - x - e^x and 2 - e^x, are each
2 + c1*x - e^x and come from one function, _exp_line.

egf_f deliberately does not call ps_reciprocal: as long as it reaches f by its
own Horner loop, the identity H = exp * f (verify's "EGF product identity")
cross-checks ps_reciprocal and ps_mul against that loop. Built as a reciprocal,
f would make the identity check ps_reciprocal against itself.

ps_mul, ps_reciprocal and egf_f share one internal form: coefficients 0..n as
integer EGF numerators x[j] = c_j*j!*d over one denominator d, the lcm of the
denominators of c_j*j!, which is 1 for every counting EGF. On that form a
product is the binomial convolution z_m = sum_i C(m, i)*x_i*y_(m-i), the
reciprocal an integer recurrence and egf_f's loop one such convolution per
step, and each output coefficient is one Fraction, reduced once. A Fraction
product and sum per term would pay a gcd per term. Binomial rows, factorials
and powers are built inside each call; nothing is cached between calls.

The three builders, the two primitives that take an order (ps_constant and
ps_exp) and verify.run_checks refuse an order that is no int in
0..MAX_ORDER before building anything, through check_order. egf_counts takes
its coefficient index under the same rule (combinatorics.nonnegative), and
refuses one above the series' order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, islice
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Union

from homcount.combinatorics import factorial, nonnegative

Coefficient = Union[Fraction, int]

# egf_f, the slowest builder, takes about 0.07 s at order 120 (Python 3.11, 2-core VM)
# and grows about as order^3 past that
MAX_ORDER = 120


class TruncatedSeries(NamedTuple("TruncatedSeries", [("coeffs", tuple[Fraction, ...])])):
    """coeffs[j] is the coefficient of x^j; len(coeffs) = order + 1."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Coefficient]):
        values = tuple(Fraction(c) for c in coeffs)
        if not values:
            raise ValueError("a truncated series has at least its constant term")
        return tuple.__new__(cls, (values,))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def ps_constant(value: Coefficient, order: int) -> TruncatedSeries:
    check_order(order)
    return TruncatedSeries([Fraction(value)] + [Fraction(0)] * order)


def ps_exp(order: int) -> TruncatedSeries:
    """Taylor series of e^x: coefficient j is 1/j!."""
    check_order(order)
    return TruncatedSeries(Fraction(1, factorial(j)) for j in range(order + 1))


def ps_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(a.coeffs[j] + b.coeffs[j] for j in range(n + 1))


def _factorials(n: int) -> list[int]:
    """0!, 1!, ..., n!, built in the call."""
    return list(accumulate(range(1, n + 1), mul, initial=1))


def _pascal(n: int) -> Iterator[list[int]]:
    """Rows 0..n of Pascal's triangle, row m being [C(m, 0), ..., C(m, m)], each built
    from the one before and dropped after use."""
    row = [1]
    for _ in range(n):
        yield row
        row = [1, *map(add, row, row[1:]), 1]
    yield row


def _numerators(s: TruncatedSeries, n: int) -> tuple[list[int], int]:
    """Coefficients 0..n of s as integer EGF numerators x[j] = c_j*j!*d over d, the lcm
    of the denominators of c_j*j! (1 for a counting EGF)."""
    scaled = [c * f for c, f in zip(s.coeffs[: n + 1], _factorials(n))]
    d = math.lcm(*(c.denominator for c in scaled))
    return [c.numerator * (d // c.denominator) for c in scaled], d


def _from_numerators(x: list[int], d: int) -> TruncatedSeries:
    """The series whose coefficient j is x[j] / (j!*d), one reduced Fraction each."""
    return TruncatedSeries(Fraction(v, f * d) for v, f in zip(x, _factorials(len(x) - 1)))


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The product as a binomial convolution of EGF numerators:
    z_m = sum_i C(m, i)*x_i*y_(m-i) over da*db."""
    n = min(a.order, b.order)
    (x, da), (y, db) = _numerators(a, n), _numerators(b, n)
    z = [sum(map(mul, row, map(mul, x, y[m::-1]))) for m, row in enumerate(_pascal(n))]
    return _from_numerators(z, da * db)


def ps_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """b with a*b = 1 up to the truncation order, from the integer recurrence
    v_m = -sum_(i>=1) C(m, i)*x_i*x_0^(i-1)*v_(m-i), v_0 = 1, on a's numerators x over d;
    then b_m = d*v_m / (x_0^(m+1)*m!), so b's numerators over x_0^(order+1) are
    d*v_m*x_0^(order-m)."""
    if a.coeffs[0] == 0:
        raise ValueError("series not invertible: zero constant term")
    x, d = _numerators(a, a.order)
    powers = list(accumulate([x[0]] * a.order, mul, initial=1))  # x_0^0 .. x_0^order
    w = list(map(mul, x[1:], powers))  # w_i = x_i*x_0^(i-1) from i = 1
    v = [1]
    for row in islice(_pascal(a.order), 1, None):
        v.append(-sum(map(mul, row[1:], map(mul, w, v[::-1]))))
    return _from_numerators([d * vm * p for vm, p in zip(v, reversed(powers))], powers[-1] * x[0])


def _exp_line(c1: int, order: int) -> TruncatedSeries:
    """2 + c1*x - e^x to the given order: coefficient j is -1/j!, plus 2 at
    j = 0 and c1 at j = 1."""
    coeffs = [Fraction(-1, factorial(j)) for j in range(order + 1)]
    for j, c in zip(range(order + 1), (2, c1)):
        coeffs[j] += c
    return TruncatedSeries(coeffs)


def check_order(order: int) -> None:
    """Refuse an order that is no int in 0..MAX_ORDER with a ValueError; the
    builders, the primitives and verify.run_checks call it before building anything."""
    if nonnegative(order, "series order") > MAX_ORDER:
        raise ValueError(f"series not supported beyond order {MAX_ORDER}, got {order}")


def egf_f(order: int) -> TruncatedSeries:
    """1/(2 - x - e^x): coefficient counts are the surjective model numbers.

    Horner's rule for 1/(1 - g) = 1 + g*(1 + g*(...)), g = e^x + x - 1, run on
    EGF numerators over 1: g's are 0, 2, 1, 1, ..., and step m sets
    r_j = [j = 0] + sum_(i>=1) C(j, i)*g_i*r_(j-i) for j <= m. Each step left
    after step m multiplies r by g, which has no constant term, so r is kept to
    order m there."""
    check_order(order)
    g = [2] + [1] * order  # numerators of g from j = 1
    r = [1]
    for _ in range(order):
        r = [1] + [sum(map(mul, row[1:], map(mul, g, r[j - 1::-1])))
                   for j, row in enumerate(islice(_pascal(len(r)), 1, None), 1)]
    return _from_numerators(r, 1)


def egf_H(order: int) -> TruncatedSeries:
    """e^x / (2 - x - e^x): coefficient counts are the k-colored ordering numbers."""
    check_order(order)
    return ps_mul(ps_exp(order), ps_reciprocal(_exp_line(-1, order)))


def egf_fubini(order: int) -> TruncatedSeries:
    """1/(2 - e^x): coefficient counts are the ordered set partition numbers."""
    check_order(order)
    return ps_reciprocal(_exp_line(0, order))


def egf_counts(s: TruncatedSeries, k: int) -> int:
    """k! times coefficient k, which must come out a nonnegative integer; k is an
    int in 0..s.order."""
    if nonnegative(k, "coefficient index") > s.order:
        raise ValueError(f"coefficient {k} outside series order {s.order}")
    value = s.coeffs[k] * factorial(k)
    if value.denominator != 1 or value < 0:
        raise ValueError(
            f"k!*[x^{k}] = {value} is not a nonnegative integer; series was built wrong"
        )
    return int(value)
