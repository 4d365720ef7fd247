"""Float-domain checks: Lambert identity, pole/residue identities, reference digits."""

import math
import re
import sys

import pytest

from homcount.asymptotics import (
    approx_A,
    bound_ratio_I,
    constants,
    growth_bound_grid_check,
    lambert_w0,
    ratio_report,
)

A_TERMS = [1.37496, 3.10493, 14.0224, 94.9907, 857.986]  # k = 0..4


def test_lambert_examples():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)
    assert lambert_w0(math.exp(2)) == pytest.approx(1.557145599, abs=1e-8)


def test_lambert_rejects_negative():
    # each refused by name: never answered with a nan, read as 0 or 1, or left to a TypeError
    for t in (-0.5, -1, float("inf"), float("-inf"), float("nan"), True, False, "3", None, 10**400):
        with pytest.raises(ValueError, match=rf"^lambert_w0 requires a finite t >= 0, got t = {re.escape(repr(t))}$"):
            lambert_w0(t)


def test_lambert_defining_identity_on_grid():
    # 50 log-spaced points across [1e-6, 1e6]
    for i in range(50):
        t = 10 ** (-6 + 12 * i / 49)
        w = lambert_w0(t)
        assert abs(w * math.exp(w) - t) <= 1e-12 * max(1.0, t)


def test_lambert_near_the_top_of_the_double_range():
    # w*e^w overflows here, so the identity is checked in logs: w + ln w = ln t
    for t in (1e303, 1e306, sys.float_info.max, 10**308):
        w = lambert_w0(t)
        assert abs(w + math.log(w) - math.log(t)) < 1e-12, t


def test_constants_reference_digits():
    c = constants()
    assert c.Z == pytest.approx(0.442854, abs=1e-5)
    assert c.R == pytest.approx(-0.6089389, abs=1e-6)
    assert c.limit_ratio == pytest.approx(0.6422007, abs=1e-6)
    assert c.M == pytest.approx(2.12243, abs=1e-4)


def test_constants_invariant_ranges():
    c = constants()
    assert 0 < c.Z < 1
    assert c.R < 0 and c.S < 0
    assert 0 < c.limit_ratio < 1
    assert 0 < c.p_star < 0.5
    assert c.M > 2


def test_constants_and_rows_are_immutable_value_tuples():
    c = constants()
    assert repr(c) == (
        f"AsymptoticConstants(Z={c.Z!r}, R={c.R!r}, S={c.S!r}, limit_ratio={c.limit_ratio!r}, "
        f"p_star={c.p_star!r}, M={c.M!r})"
    )
    assert list(c._asdict()) == ["Z", "R", "S", "limit_ratio", "p_star", "M"]  # the CLI prints this order
    assert c == constants() and hash(c) == hash(constants()) and c == tuple(c._asdict().values())
    row = ratio_report(0)[0]
    assert repr(row) == f"RatioRow(k=0, l_over_a={row.l_over_a!r}, j_over_l=1.0)"
    for value, name in [(c, "Z"), (row, "k")]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


def test_pole_identity():
    c = constants()
    assert abs(2 - c.Z - math.exp(c.Z)) <= 1e-12


def test_residues_match_numerical_limit():
    # R = lim (x-Z) e^x/(2-x-e^x), S likewise for 1/(2-x-e^x)
    c = constants()
    for eps in (1e-6, 1e-7):
        x = c.Z + eps
        h = math.exp(x) / (2 - x - math.exp(x))
        f = 1 / (2 - x - math.exp(x))
        assert abs(eps * h - c.R) <= 1e-5
        assert abs(eps * f - c.S) <= 1e-5
    # Richardson-style tighter check: residue from symmetric difference
    eps = 1e-4
    hp = (c.Z + eps - c.Z) * math.exp(c.Z + eps) / (2 - (c.Z + eps) - math.exp(c.Z + eps))
    hm = (c.Z - eps - c.Z) * math.exp(c.Z - eps) / (2 - (c.Z - eps) - math.exp(c.Z - eps))
    assert abs((hp + hm) / 2 - c.R) <= 1e-8


def test_limit_ratio_algebraic_identity():
    c = constants()
    w = lambert_w0(math.exp(2))
    assert abs(c.S / c.R - 1 / w) <= 1e-12
    assert abs(c.S / c.R - math.exp(w) / math.exp(2)) <= 1e-12


def test_p_star_is_a_maximum():
    c = constants()

    def expression(p):
        q = p / (1 - p)
        entropy = -(q * math.log2(q) + (1 - q) * math.log2(1 - q))
        return (1 / math.log(2)) ** (1 - p) * 2 ** ((1 - p) * entropy)

    at_star = expression(c.p_star)
    assert at_star > expression(c.p_star - 1e-3)
    assert at_star > expression(c.p_star + 1e-3)
    assert at_star == pytest.approx(c.M, rel=1e-12)


def test_growth_bound_against_grid_search():
    assert constants().M >= growth_bound_grid_check() - 1e-9
    assert constants().M == pytest.approx(growth_bound_grid_check(), abs=1e-4)


def test_approx_A_reference_terms():
    for k, expected in enumerate(A_TERMS):
        assert approx_A(k) == pytest.approx(expected, rel=1e-3)


def test_approx_A_is_the_log_form_until_it_saturates():
    # the double product and the log form that ratio_report reads stay on one increasing curve
    import homcount.asymptotics as asym

    for k in range(147):
        assert approx_A(k) == pytest.approx(math.exp(asym._log_approx_A(k)), rel=1e-12), k
    finite = [approx_A(k) for k in range(147)]
    assert all(a < b for a, b in zip(finite, finite[1:]))
    for k in range(147, 171):
        assert approx_A(k) == math.inf, k


def test_approx_A_range_errors():
    with pytest.raises(ValueError):
        approx_A(-1)
    with pytest.raises(ValueError):
        approx_A(171)
    assert approx_A(170) == math.inf  # beyond double range, documented saturation


def test_bound_ratio_examples():
    assert bound_ratio_I(1) == pytest.approx(3 / 2.123, rel=1e-9)
    assert bound_ratio_I(13) < bound_ratio_I(6)
    with pytest.raises(ValueError, match="^sequence index must be nonnegative, got -1$"):
        bound_ratio_I(-1)


def test_bound_ratio_monotone_on_reference_range():
    ratios = [bound_ratio_I(k) for k in range(1, 14)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_ratio_report_values():
    rows = ratio_report(12)
    assert rows[2].l_over_a == pytest.approx(14 / 14.0224, abs=1e-4)
    assert abs(rows[12].l_over_a - 1) < 1e-8
    assert abs(rows[12].j_over_l - 0.6422007) < 1e-3
    assert [r.k for r in rows] == list(range(13))


def test_ratio_report_range_check():
    with pytest.raises(ValueError):
        ratio_report(171)
