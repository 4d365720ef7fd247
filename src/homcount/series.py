"""Exact truncated power series over rationals, and the counting generating functions.

A TruncatedSeries holds coefficients 0..order as Fractions; index j is the
coefficient of x^j. Arithmetic between series of different orders truncates to
the smaller order. Everything is exact: a non-integer where an integer count
is expected is reported as an error, never rounded.

The three counting series:

* egf_f: 1/(2 - x - e^x), built as geometric composed with e^x + x - 1; its
  coefficient counts (k! times coefficient k) are j_surjective.
* egf_H: e^x / (2 - x - e^x), built as e^x times the reciprocal of the
  denominator; its counts are count_L.
* egf_fubini: 1/(2 - e^x); its counts are the ordered set partition numbers.

The three series e^x + x - 1, 2 - x - e^x and 2 - e^x are each of the form
+-e^x + c0 + c1*x and come from one function, _exp_line.

egf_H and egf_f deliberately take different construction routes (reciprocal
vs composition), so the identity H = exp * f cross-checks both primitives.

ps_mul, the product under both routes and the step of ps_compose's Horner
loop, multiplies over integers: each operand's coefficients become integer
numerators over that operand's lcm of denominators, the Cauchy product runs on
those ints, and each output coefficient is one Fraction(num, da*db), reduced
once. A Fraction product and sum per term would pay a gcd per term, and the
O(n^3) Horner composition in egf_f made that the cost of the whole route.

The three builders, the three primitives that take an order (ps_constant,
ps_exp, ps_geometric) and verify.run_checks refuse an order that is no int in
0..MAX_ORDER before building anything, through check_order. egf_counts takes
its coefficient index under the same rule (combinatorics.nonnegative), and
refuses one above the series' order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from homcount.combinatorics import factorial, nonnegative

Coefficient = Union[Fraction, int]

# egf_f, the slowest builder, takes about 1 s at order 120 (Python 3.11, 2-core VM)
# and grows about as order^4 past that
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


def ps_geometric(order: int) -> TruncatedSeries:
    """1/(1-x): all coefficients 1."""
    check_order(order)
    return TruncatedSeries([Fraction(1)] * (order + 1))


def ps_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return TruncatedSeries(a.coeffs[j] + b.coeffs[j] for j in range(n + 1))


def _over_lcm(s: TruncatedSeries, n: int) -> tuple[list[int], int]:
    """Coefficients 0..n of s as integer numerators over d, the lcm of their denominators."""
    d = math.lcm(*(c.denominator for c in s.coeffs[: n + 1]))
    return [c.numerator * (d // c.denominator) for c in s.coeffs[: n + 1]], d


def ps_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The Cauchy product over a common denominator per operand: the integer
    convolution of the numerators, then one reduced Fraction(num, da*db) per
    coefficient."""
    n = min(a.order, b.order)
    (x, da), (y, db) = _over_lcm(a, n), _over_lcm(b, n)
    return TruncatedSeries(Fraction(sum(x[i] * y[j - i] for i in range(j + 1)), da * db) for j in range(n + 1))


def ps_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """b with a*b = 1 up to the truncation order."""
    if a.coeffs[0] == 0:
        raise ValueError("series not invertible: zero constant term")
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for j in range(1, a.order + 1):
        out.append(-inv0 * sum(a.coeffs[i] * out[j - i] for i in range(1, j + 1)))
    return TruncatedSeries(out)


def ps_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(x)) by Horner evaluation; inner must vanish at 0."""
    if inner.coeffs[0] != 0:
        raise ValueError("composition requires an inner series with zero constant term")
    n = min(outer.order, inner.order)
    result = ps_constant(outer.coeffs[n], n)
    for j in range(n - 1, -1, -1):
        result = ps_add(ps_mul(result, inner), ps_constant(outer.coeffs[j], n))
    return result


def _exp_line(sign: int, c0: int, c1: int, order: int) -> TruncatedSeries:
    """sign*e^x + c0 + c1*x to the given order: coefficient j is sign/j!, plus
    c0 at j = 0 and c1 at j = 1."""
    coeffs = [Fraction(sign, factorial(j)) for j in range(order + 1)]
    for j, c in zip(range(order + 1), (c0, c1)):
        coeffs[j] += c
    return TruncatedSeries(coeffs)


def check_order(order: int) -> None:
    """Refuse an order that is no int in 0..MAX_ORDER with a ValueError; the
    builders, the primitives and verify.run_checks call it before building anything."""
    if nonnegative(order, "series order") > MAX_ORDER:
        raise ValueError(f"series not supported beyond order {MAX_ORDER}, got {order}")


def egf_f(order: int) -> TruncatedSeries:
    """1/(2 - x - e^x): coefficient counts are the surjective model numbers."""
    check_order(order)
    return ps_compose(ps_geometric(order), _exp_line(1, -1, 1, order))  # 1/(1 - (e^x + x - 1))


def egf_H(order: int) -> TruncatedSeries:
    """e^x / (2 - x - e^x): coefficient counts are the k-colored ordering numbers."""
    check_order(order)
    return ps_mul(ps_exp(order), ps_reciprocal(_exp_line(-1, 2, -1, order)))


def egf_fubini(order: int) -> TruncatedSeries:
    """1/(2 - e^x): coefficient counts are the ordered set partition numbers."""
    check_order(order)
    return ps_reciprocal(_exp_line(-1, 2, 0, order))


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
