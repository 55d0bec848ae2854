"""Montgomery kernel machinery and the classical baseline inequalities.

The kernel p(t) is the piecewise-linear weight (t below the breakpoint,
t - 1 above it) whose integral against f'(ta + (1-t)b) reproduces the
deviation f(x) - average(f). On top of it sit the classical position-
dependent bound for bounded derivatives, the Hermite-Hadamard bracket for
s-convex functions, and the midpoint baselines that the sharper bounds in
:mod:`ostrowski.bounds` reduce to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    BoundResult,
    ConjugatePair,
    DomainError,
    Function1D,
    Interval,
    VerificationRecord,
    _require_positive,
    _require_s,
    validate_eval_point,
)
from .bounds import THEOREMS, _choice, _offsets, evaluate
from .toolkit import _spec_number, oracle_integral

__all__ = [
    "montgomery_kernel",
    "verify_montgomery_identity",
    "classic_ostrowski_bound",
    "HadamardBounds",
    "hadamard_sconvex_bounds",
    "alomari_bound",
    "baseline_midpoint_bound",
]

def montgomery_kernel(t: float, iv: Interval, x: float) -> float:
    """Piecewise kernel: t on [0, lambda], t - 1 on (lambda, 1], where
    lambda = (b - x)/(b - a) is the breakpoint."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"kernel argument t must lie in [0, 1], got {t!r}")
    lam = _offsets(iv, validate_eval_point(iv, x))[0]
    return t if t <= lam else t - 1.0


def verify_montgomery_identity(
    fn: Function1D,
    iv: Interval,
    x: float,
    tol: float = 1e-9,
) -> VerificationRecord:
    """Check f(x) - average(f) == (a-b) * integral of p(t) f'(ta + (1-t)b).

    Both sides are computed with oracle_integral, the right side split at
    the kernel breakpoint so each piece is smooth. The record's lhs is
    |LHS - RHS| compared against 0 with slack tol, finite and positive,
    plus the excess of each integral, scaled to its side; the raw side
    values are kept in the context string.
    """
    return _montgomery_records(fn, iv, (x,), tol)[0]


def _montgomery_records(fn: Function1D, iv: Interval, xs, tol: float) -> list:
    """verify_montgomery_identity at each x in xs, in turn, with the integral
    of f over iv taken once, at the first x, and reused: the same call each
    time, so the same bits, and the same exception at the same point."""
    a, b = iv.a, iv.b
    tol = _require_positive("tol", tol)
    piece_tol = tol / (10.0 * iv.width)

    def dline(t):
        return fn.deriv(t * a + (1.0 - t) * b)

    low = Function1D(lambda t: t * dline(t), label="kernel-low")
    high = Function1D(lambda t: (t - 1.0) * dline(t), label="kernel-high")
    whole = None
    records = []
    for x in xs:
        x = validate_eval_point(iv, x)
        lam = _offsets(iv, x)[0]
        # the f' side goes first, so a missing derivative raises at its first panel
        rhs_val = excess = 0.0
        for piece, lo, hi in ((low, 0.0, lam), (high, lam, 1.0)):
            if lo < hi:
                value, piece_excess = oracle_integral(piece, Interval(lo, hi), piece_tol)
                rhs_val += value
                excess += piece_excess
        rhs_val *= a - b

        if whole is None:
            whole, whole_excess = oracle_integral(fn, iv, tol * iv.width / 10.0)
        lhs_val = fn(x) - whole / iv.width
        records.append(VerificationRecord.check(
            lhs=abs(lhs_val - rhs_val),
            rhs=0.0,
            tol=tol + excess * iv.width + whole_excess / iv.width,
            context=(
                f"montgomery identity fn={fn.name} "
                f"iv=[{_spec_number(a)},{_spec_number(b)}] x={x:.17g} "
                f"lhs={lhs_val:.17g} rhs={rhs_val:.17g}"
            ),
        ))
    return records


def classic_ostrowski_bound(iv: Interval, x: float, m: float) -> BoundResult:
    """M(b-a) [1/4 + (x - midpoint)^2 / (b-a)^2] for sup|f'| <= M.

    Valid on any real interval; no nonnegativity restriction applies.
    Formed as M(b-a)(lam^2 + mu^2)/2, equal since lam + mu = 1, because on a
    narrow interval the rounded midpoint lacks the digits x - midpoint needs.
    """
    return evaluate("eq11", iv, x=x, M=m)


@dataclass(frozen=True)
class HadamardBounds:
    """The two-sided average bracket for an s-convex function.

    lower = 2^(s-1) f(midpoint), upper = (f(a) + f(b))/(s+1), and mean is
    the oracle value of the average. Each side carries its own record.
    """

    lower: float
    mean: float
    upper: float
    lower_record: VerificationRecord
    upper_record: VerificationRecord

    @property
    def holds(self) -> bool:
        return self.lower_record.holds and self.upper_record.holds


def hadamard_sconvex_bounds(
    fn: Function1D,
    iv: Interval,
    s: float,
    tol: float = 1e-9,
) -> HadamardBounds:
    """Check 2^(s-1) f(mid) <= average(f) <= (f(a) + f(b))/(s+1).

    Each record's slack is tol, finite and positive, plus the excess
    oracle_integral adds to the accuracy of the average.
    """
    iv.require_nonnegative()
    s_val = _require_s(s)
    tol = _require_positive("tol", tol)
    integral, excess = oracle_integral(fn, iv, tol * iv.width / 10.0)
    mean = integral / iv.width
    slack = tol + excess / iv.width
    lower = 2.0 ** (s_val - 1.0) * fn(iv.midpoint)
    upper = (fn(iv.a) + fn(iv.b)) / (s_val + 1.0)
    base = f"fn={fn.name} iv=[{_spec_number(iv.a)},{_spec_number(iv.b)}] s={_spec_number(s_val)}"
    return HadamardBounds(
        lower=lower,
        mean=mean,
        upper=upper,
        lower_record=VerificationRecord.check(
            lower, mean, slack, context=f"hadamard lower {base}"
        ),
        upper_record=VerificationRecord.check(
            mean, upper, slack, context=f"hadamard upper {base}"
        ),
    )


def alomari_bound(
    iv: Interval,
    x: float,
    s: float,
    cp: ConjugatePair,
    m: float,
) -> BoundResult:
    """M/(1+p)^(1/p) * (2/(s+1))^(1/q) * ((x-a)^2 + (b-x)^2)/(b-a).

    Uniform-derivative bound for |f'|^q s-convex with |f'| <= M; the
    position factor depends only on (x-a)^2 + (b-x)^2, hence is symmetric
    about the midpoint.
    """
    return evaluate("ee", iv, x=x, s=s, p=cp, M=m)


_BASELINES = {tag: THEOREMS[tag] for tag in ("eq14", "eq15", "eq16")}


def baseline_midpoint_bound(
    variant: str,
    iv: Interval,
    cp: Optional[ConjugatePair],
    da: float,
    db: float,
) -> BoundResult:
    """The three classical midpoint-deviation baselines.

    eq14: (b-a)/4 * (da + db)/2                       (|f'| convex)
    eq15: (b-a)/16 * (4/(p+1))^(1/p)
          * [(da^q + 3 db^q)^(1/q) + (3 da^q + db^q)^(1/q)]
    eq16: (b-a)/4 * (4/(p+1))^(1/p) * (da + db)

    eq14 ignores cp; eq15/eq16 require it. The q exponent always comes from
    the stored conjugate pair, never recomputed from p.
    """
    return evaluate(_choice(_BASELINES, variant, "midpoint baseline").tag, iv, p=cp, da=da, db=db)
