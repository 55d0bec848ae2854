"""Position-dependent deviation bounds for functions whose derivative
magnitude (or a power of it) is s-convex.

Five families, each bounding |f(x) - average of f over [a, b]| from
derivative data alone:

  bound_sconvex_abs      |f'| s-convex; kernel moments integrated exactly
  bound_holder_split     |f'|^q s-convex; Hoelder applied per kernel branch
  bound_holder_hadamard  |f'|^q s-convex; average bracket applied on [x,b], [a,x]
  bound_holder_global    |f'|^q s-convex; Hoelder applied to the whole kernel
  bound_power_mean       |f'|^q s-convex; power-mean refinement, finite q >= 1

plus their midpoint specializations. Position enters through the
normalized offsets lam = (b-x)/(b-a) and mu = (x-a)/(b-a); every bound is
invariant under the reflection x -> a+b-x combined with swapping the
endpoint derivative values.

Powers of the offsets at 0 are exact: 0.0**e == 0.0 for e > 0 in IEEE
arithmetic, so no special-casing is needed (s > 0 keeps exponents positive).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .core import (
    BoundResult,
    ConjugatePair,
    EndpointData,
    Interval,
    _require_exponent,
    _require_s,
    validate_eval_point,
)

__all__ = [
    "kernel_moment_bracket",
    "bound_sconvex_abs",
    "midpoint_sconvex_abs",
    "bound_holder_split",
    "bound_holder_hadamard",
    "midpoint_e5",
    "bound_holder_global",
    "bound_power_mean",
    "midpoint_power_mean",
]


def _offsets(iv: Interval, x):
    """Normalized distances (lam, mu) = ((b-x)/(b-a), (x-a)/(b-a)).

    lam is the kernel breakpoint. This is its one expression, shared by the
    bounds, the sweep and the kernel; x may be a numpy array.
    """
    width = iv.b - iv.a
    return (iv.b - x) / width, (x - iv.a) / width


def _prep(iv: Interval, x: float) -> Tuple[float, float]:
    iv.require_nonnegative()
    x = validate_eval_point(iv, x)
    return _offsets(iv, x)


# The arithmetic of the public bounds below, one formula per family,
# without validation. Every argument may be a numpy array, so the sweep,
# the special means and the composite quadrature bounds evaluate these
# same formulas, elementwise and broadcast.

def _sconvex_abs(width, lam, mu, s, da, db):
    return (
        width
        / ((s + 1.0) * (s + 2.0))
        * (kernel_moment_bracket(lam, s) * da + kernel_moment_bracket(mu, s) * db)
    )


def _sconvex_abs_mid(width, s, da, db):
    return width / ((s + 1.0) * (s + 2.0)) * (1.0 - 2.0 ** -(s + 1.0)) * (da + db)


_TINY = float(np.finfo(float).tiny)  # the smallest normal double, a Python float


def _scaled_powers(u, v, q):
    """(c, (u/c)^q, (v/c)^q), c = max(u, v) elementwise and at least _TINY: a bracket
    (alpha u^q + beta v^q)^(1/q) = c (alpha U + beta V)^(1/q) then over- or underflows only
    with its value. Floats skip numpy and builtin max, either dearer than the two powers."""
    if isinstance(u, float) and isinstance(v, float):
        c = u if u >= v and u >= _TINY else v if v >= _TINY else _TINY
    else:
        c = np.maximum(u, v)
        np.maximum(c, _TINY, out=c)
    return c, (u / c) ** q, (v / c) ** q


def _holder_split(width, lam, mu, s, p, q, da, db):
    c, daq, dbq = _scaled_powers(da, db, q)
    term_low = lam ** (1.0 + 1.0 / p) * (
        lam ** (s + 1.0) * daq + (1.0 - mu ** (s + 1.0)) * dbq
    ) ** (1.0 / q)
    term_high = mu ** (1.0 + 1.0 / p) * (
        (1.0 - lam ** (s + 1.0)) * daq + mu ** (s + 1.0) * dbq
    ) ** (1.0 / q)
    return width * c / (p + 1.0) ** (1.0 / p) / (s + 1.0) ** (1.0 / q) * (term_low + term_high)


def _holder_hadamard(a, b, x, s, p, q, da, dx, db):
    c_high, dxq, dbq = _scaled_powers(dx, db, q)
    c_low, daq, dxq_low = _scaled_powers(da, dx, q)
    return (
        1.0
        / ((b - a) * (p + 1.0) ** (1.0 / p))
        * (
            (b - x) ** 2 * c_high * ((dxq + dbq) / (s + 1.0)) ** (1.0 / q)
            + (x - a) ** 2 * c_low * ((daq + dxq_low) / (s + 1.0)) ** (1.0 / q)
        )
    )


def _e5(width, p, da, db):
    # scaled before the sum, so |f'| near the top of the range stays finite
    return width / (p + 1.0) ** (1.0 / p) * (0.25 * db + 0.25 * da)


def _holder_global(width, lam, mu, s, p, q, da, db):
    c, daq, dbq = _scaled_powers(da, db, q)
    return (
        width
        / (p + 1.0) ** (1.0 / p)
        * (lam ** (p + 1.0) + mu ** (p + 1.0)) ** (1.0 / p)
        * c * ((daq + dbq) / (s + 1.0)) ** (1.0 / q)
    )


def _power_mean(width, lam, mu, s, q, da, db):
    # C1(r) = r^(s+2)/(s+2) and C2(r) = C1(r) - r^(s+1)/(s+1) + 1/((s+1)(s+2))
    # are the moments of t t^s and t (1-t)^s over one kernel branch. C2 is
    # nonnegative but vanishes at r = 1, where rounding can leave a tiny
    # negative residue that the fractional power must not see.
    c1_lam, c1_mu = lam ** (s + 2.0) / (s + 2.0), mu ** (s + 2.0) / (s + 2.0)
    tail = 1.0 / ((s + 1.0) * (s + 2.0))
    c2_lam = np.maximum(0.0, c1_lam - lam ** (s + 1.0) / (s + 1.0) + tail)
    c2_mu = np.maximum(0.0, c1_mu - mu ** (s + 1.0) / (s + 1.0) + tail)
    c, daq, dbq = _scaled_powers(da, db, q)
    exp_out = 2.0 * (1.0 - 1.0 / q)
    term_low = lam**exp_out * (c1_lam * daq + c2_mu * dbq) ** (1.0 / q)
    term_high = mu**exp_out * (c1_mu * dbq + c2_lam * daq) ** (1.0 / q)
    return width * c * 0.5 ** (1.0 - 1.0 / q) * (term_low + term_high)


def _power_mean_mid(width, q, da, db):
    c, daq, dbq = _scaled_powers(da, db, q)
    return (
        width
        / 8.0
        * (1.0 / 3.0) ** (1.0 / q) * c
        * ((daq + 3.0 * dbq) ** (1.0 / q) + (3.0 * daq + dbq) ** (1.0 / q))
    )


def kernel_moment_bracket(r: float, s: float) -> float:
    """2(s+1) r^(s+2) - (s+2) r^(s+1) + 1 for r in [0, 1].

    This is (s+1)(s+2) times the integral of |kernel| against the s-convex
    weight on one branch; it is the symmetric form used in the bound
    statement (an equivalent asymmetric form appears only as a test oracle).
    """
    return 2.0 * (s + 1.0) * r ** (s + 2.0) - (s + 2.0) * r ** (s + 1.0) + 1.0


def bound_sconvex_abs(iv: Interval, x: float, s: float, ep: EndpointData) -> BoundResult:
    """(b-a)/((s+1)(s+2)) * [B(lam) |f'(a)| + B(mu) |f'(b)|].

    B is :func:`kernel_moment_bracket`. Requires |f'| itself s-convex.
    """
    lam, mu = _prep(iv, x)
    s_val = _require_s(s)
    return BoundResult(
        value=_sconvex_abs(iv.width, lam, mu, s_val, ep.da, ep.db),
        theorem_id="t20",
        inputs={"a": iv.a, "b": iv.b, "x": x, "s": s_val, "da": ep.da, "db": ep.db},
    )


def midpoint_sconvex_abs(iv: Interval, s: float, ep: EndpointData) -> BoundResult:
    """(b-a)/((s+1)(s+2)) * (1 - 2^-(s+1)) * (|f'(a)| + |f'(b)|).

    Midpoint specialization of :func:`bound_sconvex_abs`, implemented from
    its own closed form.
    """
    iv.require_nonnegative()
    s_val = _require_s(s)
    return BoundResult(
        value=_sconvex_abs_mid(iv.width, s_val, ep.da, ep.db),
        theorem_id="t20-mid",
        inputs={"a": iv.a, "b": iv.b, "s": s_val, "da": ep.da, "db": ep.db},
    )


def bound_holder_split(
    iv: Interval,
    x: float,
    s: float,
    cp: ConjugatePair,
    ep: EndpointData,
) -> BoundResult:
    """Two-term bound from Hoelder's inequality on each kernel branch.

    (b-a) (p+1)^(-1/p) (s+1)^(-1/q) *
      { lam^(1+1/p) (lam^(s+1) da^q + [1 - mu^(s+1)] db^q)^(1/q)
      + mu^(1+1/p) ([1 - lam^(s+1)] da^q + mu^(s+1) db^q)^(1/q) }
    """
    lam, mu = _prep(iv, x)
    s_val = _require_s(s)
    p, q = cp.p, cp.q
    return BoundResult(
        value=_holder_split(iv.width, lam, mu, s_val, p, q, ep.da, ep.db),
        theorem_id="teo1",
        inputs={
            "a": iv.a, "b": iv.b, "x": x, "s": s_val,
            "p": p, "q": q, "da": ep.da, "db": ep.db,
        },
    )


def bound_holder_hadamard(
    iv: Interval,
    x: float,
    s: float,
    cp: ConjugatePair,
    ep: EndpointData,
) -> BoundResult:
    """Hoelder bound with the average bracket applied on [x, b] and [a, x].

    1/((b-a)(p+1)^(1/p)) * { (b-x)^2 ((dx^q + db^q)/(s+1))^(1/q)
                           + (x-a)^2 ((da^q + dx^q)/(s+1))^(1/q) }

    Needs |f'(x)| in addition to the endpoint values; the bound is not
    obviously monotone in dx, so no default is substituted.
    """
    iv.require_nonnegative()
    x = validate_eval_point(iv, x)
    s_val = _require_s(s)
    dx = ep.require_dx()
    p, q = cp.p, cp.q
    return BoundResult(
        value=_holder_hadamard(iv.a, iv.b, x, s_val, p, q, ep.da, dx, ep.db),
        theorem_id="t21",
        inputs={
            "a": iv.a, "b": iv.b, "x": x, "s": s_val,
            "p": p, "q": q, "da": ep.da, "dx": dx, "db": ep.db,
        },
    )


def midpoint_e5(iv: Interval, cp: ConjugatePair, ep: EndpointData) -> BoundResult:
    """(b-a)/(p+1)^(1/p) * (|f'(a)| + |f'(b)|)/4.

    Midpoint form under equal derivative samples; sharper than the eq16
    baseline by exactly the factor 4^(-1/p).
    """
    iv.require_nonnegative()
    return BoundResult(
        value=_e5(iv.width, cp.p, ep.da, ep.db),
        theorem_id="e5",
        inputs={"a": iv.a, "b": iv.b, "p": cp.p, "q": cp.q, "da": ep.da, "db": ep.db},
    )


def bound_holder_global(
    iv: Interval,
    x: float,
    s: float,
    cp: ConjugatePair,
    ep: EndpointData,
) -> BoundResult:
    """Hoelder applied to the kernel as a whole.

    (b-a)/(p+1)^(1/p) * [lam^(p+1) + mu^(p+1)]^(1/p)
                      * ((da^q + db^q)/(s+1))^(1/q)
    """
    lam, mu = _prep(iv, x)
    s_val = _require_s(s)
    p, q = cp.p, cp.q
    return BoundResult(
        value=_holder_global(iv.width, lam, mu, s_val, p, q, ep.da, ep.db),
        theorem_id="z",
        inputs={
            "a": iv.a, "b": iv.b, "x": x, "s": s_val,
            "p": p, "q": q, "da": ep.da, "db": ep.db,
        },
    )


def bound_power_mean(
    iv: Interval,
    x: float,
    s: float,
    q: float,
    ep: EndpointData,
) -> BoundResult:
    """Power-mean refinement; accepts any finite q >= 1 (no conjugate needed).

    (b-a) (1/2)^(1-1/q) * { lam^(2(1-1/q)) [C1(lam) da^q + C2(mu) db^q]^(1/q)
                          + mu^(2(1-1/q)) [C1(mu) db^q + C2(lam) da^q]^(1/q) }

    At q = 1 the power-mean step degenerates to the identity and the value
    coincides with :func:`bound_sconvex_abs`.
    """
    lam, mu = _prep(iv, x)
    s_val = _require_s(s)
    q = _require_exponent(q, "the power-mean bound")
    return BoundResult(
        value=_power_mean(iv.width, lam, mu, s_val, q, ep.da, ep.db),
        theorem_id="t22",
        inputs={
            "a": iv.a, "b": iv.b, "x": x, "s": s_val,
            "q": q, "da": ep.da, "db": ep.db,
        },
    )


def midpoint_power_mean(iv: Interval, q: float, ep: EndpointData) -> BoundResult:
    """(b-a)/8 * (1/3)^(1/q) * [(da^q + 3 db^q)^(1/q) + (3 da^q + db^q)^(1/q)].

    Stated midpoint companion of :func:`bound_power_mean` at s = 1,
    implemented literally as displayed. Note: the general bound specialized
    to the midpoint carries inner weights (1, 2), not the (1, 3) written
    here, so the two do not coincide; this form is the weaker of the two.
    """
    iv.require_nonnegative()
    q = _require_exponent(q, "the power-mean bound")
    return BoundResult(
        value=_power_mean_mid(iv.width, q, ep.da, ep.db),
        theorem_id="t22-mid",
        inputs={"a": iv.a, "b": iv.b, "q": q, "da": ep.da, "db": ep.db},
    )
