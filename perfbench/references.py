"""Correctness references computed apart from the library.

Every input the benchmark hands to ``ostrowski`` is a binary float, and
every float converts to ``Decimal`` exactly, so the references below start
from the exact inputs:

- polynomial values and integrals are exact rationals (``Fraction``);
- power integrals, power values, mean gaps and the s-convexity inequality
  use their closed forms in 50-digit ``decimal`` arithmetic.

Function specs follow the library's registry syntax (``poly:c0,c1,...``,
``breckner:u,v,w,s``, ``powabs:k``) but are parsed here independently.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import List, Tuple

#: Working precision of every decimal reference, in significant digits.
DIGITS = 50

_CTX = Context(prec=DIGITS)


def dec(x: float) -> Decimal:
    """The exact decimal value of a binary float."""
    return Decimal(float(x))


def _pow(x: Decimal, y: Decimal) -> Decimal:
    """x**y for x >= 0 and y > 0, with 0**y = 0."""
    if x == 0:
        return Decimal(0)
    return x**y


def parse_spec(spec: str) -> Tuple[str, List[float]]:
    """Split ``kind:p1,p2,...`` into its kind and float parameters."""
    kind, _, rest = "".join(spec.split()).partition(":")
    return kind, [float(tok) for tok in rest.split(",") if tok]


def poly_value(coeffs: List[float], x: float) -> Fraction:
    """Exact value of sum c_k x^k."""
    xf = Fraction(x)
    return sum((Fraction(c) * xf**k for k, c in enumerate(coeffs)), Fraction(0))


def poly_integral(coeffs: List[float], a: float, b: float) -> Fraction:
    """Exact integral of sum c_k t^k over [a, b]."""
    af, bf = Fraction(a), Fraction(b)
    return sum(
        (Fraction(c) * (bf ** (k + 1) - af ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)),
        Fraction(0),
    )


def _to_dec(q: Fraction) -> Decimal:
    with localcontext(_CTX):
        return Decimal(q.numerator) / Decimal(q.denominator)


def abs_power_integral(k: float, a: float, b: float) -> Decimal:
    """Integral of |t|^k over [a, b] for k > 0: (|b|^(k+1) -+ |a|^(k+1))/(k+1)."""
    with localcontext(_CTX):
        e = dec(k) + 1
        da, db = dec(a), dec(b)
        if da >= 0:
            total = _pow(db, e) - _pow(da, e)
        elif db <= 0:
            total = _pow(-da, e) - _pow(-db, e)
        else:
            total = _pow(-da, e) + _pow(db, e)
        return total / e


def spec_value(spec: str, t: float) -> Decimal:
    """f(t) for a registry spec, to 50 digits (exactly for polynomials)."""
    kind, ps = parse_spec(spec)
    if kind == "poly":
        return _to_dec(poly_value(ps, t))
    with localcontext(_CTX):
        dt = dec(t)
        if kind == "powabs":
            return _pow(abs(dt), dec(ps[0]))
        if kind == "breckner":
            u, v, w, s = (dec(p) for p in ps)
            if dt < 0:
                raise ValueError(f"{spec} is defined on [0, inf), got t={t!r}")
            return u if dt == 0 else v * _pow(dt, s) + w
    raise ValueError(f"unknown spec kind in {spec!r}")


def spec_integral(spec: str, a: float, b: float) -> Decimal:
    """Integral of a registry spec over [a, b], to 50 digits."""
    kind, ps = parse_spec(spec)
    if kind == "poly":
        return _to_dec(poly_integral(ps, a, b))
    if kind == "powabs":
        return abs_power_integral(ps[0], a, b)
    if kind == "breckner":
        if a < 0:
            raise ValueError(f"{spec} is defined on [0, inf), got a={a!r}")
        _, v, w, s = ps
        with localcontext(_CTX):
            return dec(v) * abs_power_integral(s, a, b) + dec(w) * (dec(b) - dec(a))
    raise ValueError(f"unknown spec kind in {spec!r}")


def deviation(spec: str, a: float, b: float, x: float) -> Decimal:
    """|f(x) - average of f over [a, b]|, the left side of every bound."""
    with localcontext(_CTX):
        avg = spec_integral(spec, a, b) / (dec(b) - dec(a))
        return abs(spec_value(spec, x) - avg)


def mean_powers(a: float, b: float, s: float) -> Tuple[Decimal, Decimal]:
    """(A(a,b)^s, L_s(a,b)^s): the s-th power of the arithmetic mean and the
    average of t^s over [a, b]."""
    with localcontext(_CTX):
        da, db, ds = dec(a), dec(b), dec(s)
        arith = _pow((da + db) / 2, ds)
        avg = abs_power_integral(s, a, b) / (db - da)
        return arith, avg


def means_gap(a: float, b: float, s: float) -> Decimal:
    """|A(a,b)^s - L_s(a,b)^s| for 0 < a < b."""
    arith, avg = mean_powers(a, b, s)
    with localcontext(_CTX):
        return abs(arith - avg)


def sconvex_excess(spec: str, s: float, x: float, y: float, alpha: float) -> Decimal:
    """f(alpha x + (1-alpha) y) - alpha^s f(x) - (1-alpha)^s f(y).

    Positive exactly when (x, y, alpha) witnesses a violation of
    s-convexity in the second sense. The combination point is formed in
    decimal, not rounded to a float first.
    """
    with localcontext(_CTX):
        dal, ds = dec(alpha), dec(s)
        z = dal * dec(x) + (1 - dal) * dec(y)
        kind, ps = parse_spec(spec)
        if kind != "breckner":
            raise ValueError("sconvex_excess supports breckner specs only")
        u, v, w, sf = (dec(p) for p in ps)
        fz = u if z == 0 else v * _pow(z, sf) + w
        return fz - _pow(dal, ds) * spec_value(spec, x) - _pow(1 - dal, ds) * spec_value(spec, y)
