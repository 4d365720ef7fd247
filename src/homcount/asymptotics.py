"""Double-precision singularity analysis for the counting generating functions.

The dominant pole of e^x/(2-x-e^x) sits where 2 - x - e^x = 0, at
Z = 2 - W(e^2) with W the principal Lambert branch. The residues there give
the first-order coefficient approximation A(k) and the limiting fraction of
surjective models 1/W(e^2). This module is the only inexact one in the
package: everything is IEEE double, and tolerances are pinned by the tests.

Every index here is an int >= 0 under combinatorics.nonnegative's rule: approx_A
names it k and ratio_report k_max, each then bounded by 170 (the log-factorial
range), and bound_ratio_I leaves the check to count_I ("sequence index"). A
bool or a float is refused, never read as a number.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from homcount.combinatorics import factorial, nonnegative
from homcount.counting import count_I, count_L, j_surjective

_GROWTH_BASE = 2.123  # base of the proven I(k) growth bound
_MAX_RATIO_K = 170  # log-factorial range used by the ratio table
_GRID_SAMPLES = 2000  # growth_bound_grid_check's grid steps over (0, 1/2)


def lambert_w0(t: float) -> float:
    """Principal Lambert W on t >= 0: the w with w*e^w = t.

    Halley iteration from w = log(1+t); converges to machine precision in a
    handful of steps anywhere on the nonnegative axis. t is an int or a float;
    a bool, any other type, an infinity, a nan and a negative t are refused
    with a ValueError, never answered with nan.
    """
    if type(t) not in (int, float) or not math.isfinite(t) or t < 0:
        raise ValueError(f"lambert_w0 requires a finite t >= 0, got t = {t!r}")
    if t == 0:
        return 0.0
    w = math.log1p(t)
    for _ in range(50):
        e = math.exp(w)
        f = w * e - t
        step = f / (e * (w + 1) - (w + 2) * f / (2 * (w + 1)))
        w -= step
        if abs(step) < 1e-15:
            break
    return w


class AsymptoticConstants(NamedTuple):
    Z: float  # dominant pole of e^x/(2-x-e^x)
    R: float  # residue of e^x/(2-x-e^x) at Z
    S: float  # residue of 1/(2-x-e^x) at Z
    limit_ratio: float  # S/R = 1/W(e^2): limiting surjective proportion
    p_star: float  # maximizer of the growth-bound expression
    M: float  # its maximum, the growth-bound base ~2.12243


def constants() -> AsymptoticConstants:
    w = lambert_w0(math.exp(2))
    e2 = math.exp(2)
    ew = math.exp(w)
    z = 2 - w
    r = -e2 / (ew + e2)
    s = -ew / (ew + e2)
    root = math.sqrt(1 + 4 * math.log(2))
    p = (-1 + root) / (2 * root)
    return AsymptoticConstants(Z=z, R=r, S=s, limit_ratio=s / r, p_star=p, M=_growth_bound(p))


def _growth_bound(p: float) -> float:
    """The growth-bound expression at 0 < p < 1/2, where q = p/(1-p) lies in (0, 1)."""
    q = p / (1 - p)
    entropy = -(q * math.log2(q) + (1 - q) * math.log2(1 - q))
    return (1 / math.log(2)) ** (1 - p) * 2 ** ((1 - p) * entropy)


def _log_approx_A(k: int) -> float:
    c = constants()
    return math.log(-c.R) + math.lgamma(k + 1) + (k + 1) * math.log(1 / c.Z)


def approx_A(k: int) -> float:
    """First-order approximation -k! * R * (1/Z)^(k+1) of the k-color count.

    One double product for every supported k (170! still fits in a double).
    From k = 147 the true value exceeds the double range and the result
    saturates to inf.
    """
    if nonnegative(k, "k") > _MAX_RATIO_K:
        raise ValueError(f"approx_A supports 0 <= k <= {_MAX_RATIO_K}, got {k}")
    c = constants()
    return -factorial(k) * c.R * (1 / c.Z) ** (k + 1)


def growth_bound_grid_check() -> float:
    """Grid maximum of the bound expression over (0, 1/2); cross-check for p_star and M."""
    return max(_growth_bound(0.5 * i / _GRID_SAMPLES) for i in range(1, _GRID_SAMPLES))


def bound_ratio_I(k: int) -> float:
    """count_I(k) / (k! * 2.123^k), the diagnostic for the growth bound; count_I
    checks k."""
    log_ratio = (
        math.log(count_I(k)) - math.lgamma(k + 1) - k * math.log(_GROWTH_BASE)
    )
    return math.exp(log_ratio)


class RatioRow(NamedTuple):
    k: int
    l_over_a: float  # exact count / first-order approximation
    j_over_l: float  # surjective fraction, tending to 1/W(e^2)


def ratio_report(k_max: int) -> list[RatioRow]:
    """Convergence table for the approximation and the surjective proportion."""
    if nonnegative(k_max, "k_max") > _MAX_RATIO_K:
        raise ValueError(f"ratio_report supports 0 <= k_max <= {_MAX_RATIO_K}, got {k_max}")
    rows = []
    for k in range(k_max + 1):
        l_count = count_L(k)
        # math.log takes arbitrary ints, so this never overflows
        l_over_a = math.exp(math.log(l_count) - _log_approx_A(k))
        j_over_l = math.exp(math.log(j_surjective(k)) - math.log(l_count))
        rows.append(RatioRow(k=k, l_over_a=l_over_a, j_over_l=j_over_l))
    return rows
