"""Arithmetic, logarithmic, and power-logarithmic means of positive reals,
and bounds on the gap |A^s - L_s^s| between the s-th power of the
arithmetic mean and the s-th power mean of order s.

That gap is exactly the deviation of f(t) = t^s at the midpoint of [a, b]
from its average, so every midpoint bound specializes to a mean inequality
by substituting |f'(t)| = s t^(s-1) at the required points. The three
variants are exposed through :func:`means_gap_bound`, which checks every
exponent given, whether its variant reads it or not, as evaluate does.
The gap is formed without cancellation to a relative error below 2^-47
(see _mean_powers); :func:`means_gap` cross-checks it only when asked.

The underlying midpoint bounds assume s-convexity of the slope magnitude
(or a power of it); the gap statements inherit that hypothesis without
restating it, and this module does not re-verify it per call. The
resulting inequalities themselves are checked numerically in the test
suite over the documented parameter grid.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .bounds import _MIDPOINT, THEOREMS, _variant
from .core import (
    BoundResult,
    ConvergenceError,
    DomainError,
    EndpointData,
    Interval,
    _require_positive,
    _require_s,
)
from .toolkit import make_breckner, oracle_integral

__all__ = [
    "arithmetic_mean",
    "logarithmic_mean",
    "p_logarithmic_mean",
    "means_gap",
    "means_gap_bound",
    "slope_endpoint_data",
    "GAP_VARIANTS",
]


def arithmetic_mean(a: float, b: float) -> float:
    """(a + b)/2 for positive a, b."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    return (a + b) / 2.0


def _log_ratio(a: float, b: float) -> float:
    """ln(b/a) for 0 < a < b; log1p keeps its digits when b is close to a."""
    # where b/a overflows, ln b - ln a > 709 has no cancellation to lose
    return math.log1p((b - a) / a) if b / a < math.inf else math.log(b) - math.log(a)


def logarithmic_mean(a: float, b: float) -> float:
    """(b - a)/ln(b/a), with the a == b case returning a."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    if a == b:
        return a
    a, b = min(a, b), max(a, b)
    return (b - a) / _log_ratio(a, b)


def p_logarithmic_mean(a: float, b: float, r: float) -> float:
    """X^(1/r) with X = (b^(r+1) - a^(r+1)) / ((r+1)(b - a)), a when a == b.

    The orders r = -1 and r = 0 are conventionally the logarithmic and
    identric means; they are not evaluated through this formula and are
    rejected here (the identric mean is out of scope entirely).

    With a < b and h = ln(b/a), X is formed without cancellation or a power
    that overflows before X does: b^r (1 + q)/(1 + r), q = -a expm1(-rh)/(b - a),
    for |r| < 1/2, else c^(r+1) m/(b - a) with m = -expm1(-|r+1| h)/|r+1| and
    c = b for r > -1, c = a for r < -1.
    """
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    r = float(r)
    if r == -1.0 or r == 0.0:
        raise DomainError(
            f"order r={r:g} is not defined by the power formula; "
            "use logarithmic_mean for r=-1"
        )
    if a == b:
        return a
    a, b = min(a, b), max(a, b)
    h = _log_ratio(a, b)
    if abs(r) < 0.5:
        # the cap only acts where |q| < e^-700 anyway
        q = -a * math.expm1(min(-r * h, 700.0)) / (b - a)
        return b * math.exp((math.log1p(q) - math.log1p(r)) / r)
    m = -math.expm1(-abs(r + 1.0) * h) / abs(r + 1.0)
    if r > -1.0:
        return b * (b * m / (b - a)) ** (1.0 / r)
    return a ** (1.0 + 1.0 / r) * (b - a) ** (-1.0 / r) * m ** (1.0 / r)


def _gap_args(a: float, b: float, s: float) -> Tuple[float, float, float]:
    """The gap statements' (a, b, s), checked: 0 < a < b and s in (0, 1)."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    if not a < b:
        raise DomainError("gap requires 0 < a < b")
    s = _require_s(s)
    # the gap statements hold on the open range; at s = 1 the gap is
    # identically zero and the formulas below lose meaning (a^(s-1) etc.)
    if s == 1.0:
        raise DomainError("gap bounds are stated for s in (0, 1) strictly")
    return a, b, s


#: Below this u = (b-a)/(b+a) the gap is summed from its series, in <= 24 terms.
_SERIES_BELOW = 0.5


def _scale_exponent(b: float) -> int:
    """The k with 2^-k b in [1, 2) where b is outside (2^-500, 2^500), so
    that a power of b or of the midpoint could leave the normal range; 0
    inside, where nothing is scaled."""
    return 0 if 2.0**-500 < b < 2.0**500 else math.frexp(b)[1] - 1  # bounds folded when compiled


def _excess(z: float) -> float:
    """e^z - 1 - z to a few ulps: its series on (-1, 2), else two terms."""
    if not -1.0 < z < 2.0:
        return math.expm1(z) - z if z > 0.0 else math.exp(z) + (-1.0 - z)
    term, total, k = z * z / 2.0, 0.0, 2.0
    while abs(term) > 1e-17 * total:
        total += term
        k += 1.0
        term *= z / k
    return total


def _weighted_psi(c: float, s: float) -> float:
    """e^c psi(c), psi(c) = e^(sc) - 1 - s expm1(c) = E(sc) - s E(c) = e^c (E(-tc) - t E(-c))
    for E = _excess and t = 1 - s: the first cancels at most (1+s)/(1-s) fold, the second
    (1+t)/(1-t), so the one taken, for s <= 1/2 or above, at most 3 fold."""
    r, z, weight = (s, c, math.exp(c)) if s <= 0.5 else (1.0 - s, -c, math.exp(2.0 * c))
    return weight * (_excess(r * z) - r * _excess(z))


def _mean_powers(a: float, b: float, s: float) -> Tuple[float, float, float]:
    """(A^s, L_s^s, |A^s - L_s^s|) for 0 < a < b and s in (0, 1).

    With m = (a+b)/2 and u = (b-a)/(b+a), the gap is m^s N/(2u(s+1)) with
    N = 2u(s+1) - (1+u)^(s+1) + (1-u)^(s+1) > 0, and L_s^s = m^s - gap. For
    u < 1/2, N/(2u(s+1)) = sum_{k>=1} -C(s+1, 2k+1)/(s+1) u^(2k) is summed
    from terms of one sign; else N = e^B psi(B) - e^A psi(A) with
    A = ln(1+u), B = ln(1-u) (see _weighted_psi). The gap's relative error
    is below 2^-47 (64 units of 2^-53), plus 2^-1072 absolute where it
    underflows: each psi loses at most 3 fold to cancellation, N's difference
    at most 3/((1+s)u) <= 6 fold more (5.3 at u = 1/2), the series a few ulp.

    The terms are homogeneous of degree s in (a, b). Where b is outside
    (2^-500, 2^500), a and b are scaled by the power of two 2^-k that brings
    b into [1, 2), exactly unless a underflows, and the results by (2^k)^s.
    """
    k = _scale_exponent(b)
    a_k, b_k = math.ldexp(a, -k), math.ldexp(b, -k)
    mean_power = ((a_k + b_k) / 2.0) ** s
    u = (b_k - a_k) / (b_k + a_k)
    if u < _SERIES_BELOW:
        u2 = u * u
        term, total, p, q = s * (1.0 - s) / 6.0 * u2, 0.0, 2.0 - s, 4.0  # k = 1, p = 2k - s, q = 2k + 2
        while term > 1e-17 * total:
            total += term
            term *= p * (p + 1.0) / (q * (q + 1.0)) * u2
            p, q = p + 2.0, q + 2.0
    else:
        # B from the unscaled ln(b/a) keeps what 1 - u and a_k lose; capped where e^B is nil
        alpha = math.log1p(u)
        beta = max(alpha - _log_ratio(a, b), -700.0)
        total = (_weighted_psi(beta, s) - _weighted_psi(alpha, s)) / (2.0 * u * (s + 1.0))
    gap = mean_power * total
    scale = math.ldexp(1.0, k) ** s
    return mean_power * scale, (mean_power - gap) * scale, gap * scale


def means_gap(a: float, b: float, s: float, oracle_tol: Optional[float] = None) -> float:
    """|A(a,b)^s - (b^(s+1) - a^(s+1)) / ((s+1)(b-a))| for 0 < a < b.

    The second term is the s-th power of the s-logarithmic mean, i.e. the
    average of t^s over [a, b], so the gap equals the midpoint deviation of
    t^s. It is formed to a relative error below 2^-47 (2^-1072 absolute
    where it underflows) for every s in (0, 1) and any ends. Only when
    oracle_tol is given, finite and positive, is it cross-checked against
    the midpoint deviation from oracle_integral, to ten times the oracle's
    accuracy; a disagreement raises ConvergenceError.
    """
    a, b, s_val = _gap_args(a, b, s)
    gap = _mean_powers(a, b, s_val)[2]
    if oracle_tol is not None:
        oracle_tol = _require_positive("oracle_tol", oracle_tol)
        # the integral of t^s can overflow where its average does not: far
        # from 1, integrate on [a, b] scaled as _mean_powers scales it, with
        # the tolerance scaled alike, and scale the deviation back
        k = _scale_exponent(b)
        a_k, b_k, scale = math.ldexp(a, -k), math.ldexp(b, -k), math.ldexp(1.0, k) ** s_val
        fn, iv, tol = make_breckner(0.0, 1.0, 0.0, s_val), Interval(a_k, b_k), oracle_tol / scale
        integral, excess = oracle_integral(fn, iv, tol * iv.width)
        oracle = scale * abs(fn(iv.midpoint) - integral / iv.width)
        # the average is accurate to tol plus the excess over the width
        allowance = 10.0 * scale * (tol + excess / iv.width)
        if abs(gap - oracle) > allowance:
            raise ConvergenceError(
                f"closed-form gap {gap!r} disagrees with oracle {oracle!r} beyond "
                f"{allowance:g}, ten times the oracle's accuracy"
            )
    return gap


#: gap variant -> (the midpoint bound it evaluates, the inputs it fixes: none,
#: as each is fed x = (a+b)/2 and the slopes of t^s as its |f'| values)
_GAP_BOUNDS = {"p1": (THEOREMS["t20-mid"], {}), "p2": (THEOREMS["t21"], {}),
               "p3": (THEOREMS["t22-mid"], {})}
GAP_VARIANTS = tuple(_GAP_BOUNDS)


def means_gap_bound(
    a: float,
    b: float,
    s: float,
    variant: str,
    p: Optional[float] = None,
    q: Optional[float] = None,
) -> BoundResult:
    """Bound |A^s - L_s^s| by a midpoint bound fed the slopes |f'| = s t^(s-1)
    of f(t) = t^s at a, (a+b)/2 and b.

    p1: t20-mid (|f'| s-convex)
    p2: t21 at the midpoint (|f'|^q s-convex); needs p > 1, q its conjugate
    p3: t22-mid (|f'|^q s-convex); needs q >= 1
    """
    a, b, s_val = _gap_args(a, b, s)
    theorem, exponents = _variant(_GAP_BOUNDS, variant, "gap bound variant", p, q)
    da, dx, db = _slopes(a, b, s_val)
    values = {"width": b - a, **_MIDPOINT, "s": s_val, **exponents, "da": da, "dx": dx, "db": db}
    return BoundResult(theorem.bound(values), variant, {"a": a, "b": b, "s": s_val, **exponents})


def slope_endpoint_data(a: float, b: float, s: float) -> EndpointData:
    """Exact |d/dt t^s| = s t^(s-1) at the endpoints, as EndpointData, for 0 < a < b.

    Convenience for cross-checking the gap bounds against the general
    midpoint bounds; the midpoint sample s A^(s-1) goes in dx.
    """
    a, b, s_val = _gap_args(a, b, s)
    da, dx, db = _slopes(a, b, s_val)
    return EndpointData(da=da, db=db, dx=dx)


def _slopes(a: float, b: float, s: float) -> Tuple[float, float, float]:
    """s t^(s-1) at t = a, (a+b)/2, b."""
    return s * a ** (s - 1.0), s * ((a + b) / 2.0) ** (s - 1.0), s * b ** (s - 1.0)
