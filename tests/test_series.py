"""Series ring identities and generating-function counts against the recurrences."""

import math
import random
from fractions import Fraction

import pytest

from homcount import series
from homcount.counting import count_L, fubini, j_surjective
from homcount.series import (
    MAX_ORDER,
    TruncatedSeries,
    egf_counts,
    egf_f,
    egf_fubini,
    egf_H,
    ps_add,
    ps_constant,
    ps_exp,
    ps_mul,
    ps_reciprocal,
)

N = 25  # verification order


def frac(a, b=1):
    return Fraction(a, b)


def cauchy_product_oracle(a, b, order):
    """The ordinary Cauchy product sum_i a_i*b_(j-i) of the coefficients themselves, by a plain double loop over
    Fractions: independent of ps_mul, which convolves integer EGF numerators binomially and forms no lcm of the
    coefficients' denominators."""
    return [
        sum(a[i] * b[j - i] for i in range(j + 1) if i < len(a) and j - i < len(b))
        for j in range(order + 1)
    ]


def test_exp_prefixes():
    assert ps_exp(2).coeffs == (frac(1), frac(1), frac(1, 2))
    assert ps_exp(0).coeffs == (frac(1),)


def test_mul_matches_convolution_oracle():
    a, b = ps_exp(3), ps_exp(3)
    expected = cauchy_product_oracle(list(a.coeffs), list(b.coeffs), 3)
    got = ps_mul(a, b)
    assert list(got.coeffs) == expected
    # e^x * e^x = e^{2x}: coefficient j is 2^j / j!
    assert got.coeffs == (frac(1), frac(2), frac(2), frac(4, 3))


def test_mul_is_exact_on_unrelated_denominators():
    # ps_mul convolves integer EGF numerators over one denominator per operand; the oracle multiplies Fractions
    # term by term
    rng = random.Random(2024)
    denominators = [1, 2, 7, 11, 12, 13, 5040]
    for _ in range(200):
        a, b = (
            [Fraction(rng.randint(-30, 30) * rng.randint(0, 1), rng.choice(denominators))
             for _ in range(rng.randint(1, 14))]
            for _ in range(2)
        )
        order = min(len(a), len(b)) - 1
        got = ps_mul(TruncatedSeries(a), TruncatedSeries(b))
        assert got.order == order
        assert list(got.coeffs) == cauchy_product_oracle(a, b, order)


def test_mul_edge_cases():
    a = [frac(1, 7), frac(-3, 11), frac(0), frac(5, 12)]
    b = [frac(-2, 11), frac(1, 12), frac(7, 13)]
    assert ps_mul(TruncatedSeries(a), TruncatedSeries(b)).coeffs == tuple(cauchy_product_oracle(a, b, 2))
    assert ps_mul(TruncatedSeries([frac(-2, 7)]), TruncatedSeries(b)).coeffs == (frac(4, 77),)
    assert ps_mul(ps_constant(0, 3), TruncatedSeries(a)) == ps_constant(0, 3)
    with pytest.raises(ValueError, match="^a truncated series has at least its constant term$"):
        TruncatedSeries([])


def test_mul_at_order_60_where_the_lcm_is_60_factorial():
    # the lcm of the coefficients' denominators is 60!, which ps_mul no longer forms: it scales coefficient j by
    # j!, and as EGF numerators both operands are integers over 1
    e, f = ps_exp(60), egf_f(60)
    assert list(ps_mul(e, f).coeffs) == cauchy_product_oracle(list(e.coeffs), list(f.coeffs), 60)


def test_truncated_series_is_an_immutable_value_tuple():
    s = TruncatedSeries([1, frac(1, 2)])
    assert repr(s) == "TruncatedSeries(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
    assert all(type(c) is Fraction for c in s.coeffs) and s.order == 1
    same = TruncatedSeries(coeffs=(frac(1), 0.5))
    assert same == s and hash(same) == hash(s) and s == ((frac(1), frac(1, 2)),)
    with pytest.raises(AttributeError):
        s.coeffs = ()
    with pytest.raises(ValueError, match="^a truncated series has at least its constant term$"):
        TruncatedSeries(coeffs=[])


def test_add_and_mul_identities():
    s = egf_f(6)
    zero = ps_constant(0, 6)
    one = ps_constant(1, 6)
    assert ps_add(s, zero) == s
    assert ps_mul(s, one) == s


def test_truncation_to_smaller_order():
    assert ps_add(ps_exp(5), ps_exp(2)).order == 2
    assert ps_mul(ps_exp(5), ps_exp(2)).order == 2


def test_reciprocal_examples():
    alt = ps_reciprocal(TruncatedSeries([1, 1, 0, 0, 0]))
    assert alt.coeffs == (frac(1), frac(-1), frac(1), frac(-1), frac(1))
    halves = ps_reciprocal(TruncatedSeries([2, 0, 0]))
    assert halves.coeffs == (frac(1, 2), frac(0), frac(0))
    with pytest.raises(ValueError, match="not invertible"):
        ps_reciprocal(TruncatedSeries([0, 1]))


def reciprocal_oracle(a):
    """Fraction recurrence b_j = -(a_1*b_(j-1) + ... + a_j*b_0) / a_0, independent of ps_reciprocal."""
    b = [1 / a[0]]
    for j in range(1, len(a)):
        b.append(-sum(a[i] * b[j - i] for i in range(1, j + 1)) / a[0])
    return b


def compose_oracle(outer, inner):
    """outer(inner(x)) by a Fraction Horner loop over cauchy_product_oracle, independent of egf_f's division
    on integer EGF numerators."""
    order = min(len(outer), len(inner)) - 1
    result = [outer[order]] + [Fraction(0)] * order
    for j in range(order - 1, -1, -1):
        result = cauchy_product_oracle(result, inner, order)
        result[0] += outer[j]
    return result


def random_series(rng, constant, length):
    denominators = [1, 2, 7, 11, 5040]
    return [constant] + [Fraction(rng.randint(-30, 30), rng.choice(denominators)) for _ in range(length - 1)]


def test_reciprocal_matches_its_fraction_oracle():
    # constant terms that are not 1, negative or not integers: a scaling error that ps_mul and ps_reciprocal
    # share cancels in a * (1/a) == 1, but shows here
    rng = random.Random(4242)
    for constant in (frac(1), frac(-1), frac(3, 7), frac(-5, 3), frac(2), frac(-11, 5040)):
        for length in (1, 2, 5, 13):
            a = random_series(rng, constant, length)
            assert list(ps_reciprocal(TruncatedSeries(a)).coeffs) == reciprocal_oracle(a)


def test_quotient_matches_its_fraction_oracle():
    # no public caller divides a numerator other than 1 by a constant term other than 1, so the x_0^m that scales
    # n_m is reached only here
    rng = random.Random(3401)
    for x0 in (1, -1, 3, -5, 2):
        for d in (1, 3, 7):
            for length in (1, 2, 5, 13):
                n = [rng.randint(-30, 30) for _ in range(length)]
                x = [x0 * d] + [rng.randint(-30, 30) for _ in range(length - 1)]
                numerator = [frac(v, math.factorial(j)) for j, v in enumerate(n)]
                denominator = [frac(v, math.factorial(j) * d) for j, v in enumerate(x)]
                expected = cauchy_product_oracle(numerator, reciprocal_oracle(denominator), length - 1)
                assert list(series._quotient(n, x, d).coeffs) == expected


def test_compose_matches_its_fraction_oracle():
    # egf_f is 1/(1 - x) composed with g = e^x + x - 1; every order, since the division's length is the order
    for n in range(31):
        g = [frac(0), frac(2)] + [frac(1, math.factorial(j)) for j in range(2, n + 1)]
        assert list(egf_f(n).coeffs) == compose_oracle([frac(1)] * (n + 1), g)


def test_reciprocal_property_randomized():
    rng = random.Random(1105)
    one = ps_constant(1, 8)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(8)
        ]
        a = TruncatedSeries(coeffs)
        assert ps_mul(a, ps_reciprocal(a)) == one


def test_compose_geometric_with_exp_plus_x_minus_one():
    # prefix of 1/(2-x-e^x); counts 1, 2, 9, 61 are the surjective numbers
    g1 = [frac(0), frac(2), frac(1, 2), frac(1, 6)]
    expected = [frac(1), frac(2), frac(9, 2), frac(61, 6)]
    assert compose_oracle([frac(1)] * 4, g1) == expected
    assert list(egf_f(3).coeffs) == expected


def test_egf_prefix_values():
    assert egf_H(2).coeffs == (frac(1), frac(3), frac(7))
    assert egf_f(0).coeffs == (frac(1),)
    assert egf_fubini(3).coeffs == (frac(1), frac(1), frac(3, 2), frac(13, 6))


def test_egf_counts_examples():
    assert egf_counts(egf_H(5), 3) == 95
    assert egf_counts(egf_f(5), 3) == 61
    assert egf_counts(egf_fubini(5), 4) == 75


def test_egf_counts_errors():
    with pytest.raises(ValueError, match="outside"):
        egf_counts(egf_H(3), 4)
    with pytest.raises(ValueError, match="not a nonnegative integer"):
        egf_counts(TruncatedSeries([frac(1, 3)]), 0)


def test_H_counts_match_recurrence():
    H = egf_H(MAX_ORDER)
    for k in range(MAX_ORDER + 1):
        assert egf_counts(H, k) == count_L(k)


def test_f_counts_match_recurrence():
    f = egf_f(MAX_ORDER)  # the largest order the CLI accepts, as for H and Fubini
    for k in range(MAX_ORDER + 1):
        assert egf_counts(f, k) == j_surjective(k)


def test_fubini_counts_match_recurrence():
    h = egf_fubini(MAX_ORDER)
    for k in range(MAX_ORDER + 1):
        assert egf_counts(h, k) == fubini(k)


def test_H_is_exp_times_f():
    # ps_mul and ps_exp against the division both builders run
    for order in (0, 1, 5, 12, N, 40, MAX_ORDER):
        assert egf_H(order) == ps_mul(ps_exp(order), egf_f(order))


def test_builders_divide_without_the_primitives(monkeypatch):
    # H = exp * f checks ps_mul and ps_exp, and the ring identities check ps_reciprocal, only while no builder
    # runs them
    def refuse(*args):
        raise AssertionError("a series primitive was called")

    for name in ("ps_mul", "ps_exp", "ps_reciprocal"):
        monkeypatch.setattr(series, name, refuse)
    H, f, h = egf_H(30), egf_f(30), egf_fubini(30)
    for k in range(31):
        assert (egf_counts(H, k), egf_counts(f, k), egf_counts(h, k)) == (count_L(k), j_surjective(k), fubini(k))


def test_builders_refuse_orders_above_the_bound():
    assert egf_fubini(MAX_ORDER).order == MAX_ORDER
    for build in (egf_f, egf_H, egf_fubini):
        # 10**9 would exhaust memory if anything were built before the check
        for order in (MAX_ORDER + 1, 10**9):
            with pytest.raises(ValueError, match=f"beyond order {MAX_ORDER}, got {order}"):
                build(order)


def test_builders_refuse_a_negative_order():
    for builder in (egf_H, egf_f, egf_fubini):
        with pytest.raises(ValueError, match="^series order must be nonnegative, got -1$"):
            builder(-1)


def test_coefficients_are_nonnegative():
    for s in (egf_H(N), egf_f(N), egf_fubini(N)):
        assert all(c >= 0 for c in s.coeffs)
