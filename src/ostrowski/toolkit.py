"""Test-function factory, s-convexity falsification, and the reference
integrator used as the brute-force oracle by the verification routines.

The integrator is a globally adaptive scheme with a fixed high-order rule
per panel (15-point Kronrod extension of 7-point Gauss) and the nested-rule
difference as the per-panel error estimate. Refinement always bisects the
worst panel at its exact midpoint, so results are deterministic for fixed
inputs and reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import (
    ConvergenceError,
    DomainError,
    Function1D,
    Interval,
    _require_s,
    validate_eval_point,
)

__all__ = [
    "BrecknerFunction",
    "SConvexityReport",
    "make_breckner",
    "check_sconvex",
    "reference_integrate",
    "true_deviation",
    "parse_function_spec",
]


# ----------------------------------------------------------------------
# Canonical s-convex test family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BrecknerFunction:
    """Piecewise power function: f(0) = u, f(t) = v*t^s + w for t > 0.

    When v >= 0 and 0 <= w <= u the function is s-convex in the second
    sense; that sufficient condition is exposed as ``is_known_member``.
    Membership outside that parameter region is neither claimed nor denied
    (use check_sconvex to falsify).
    """

    u: float
    v: float
    w: float
    s: float

    def __post_init__(self) -> None:
        _require_s(self.s)

    @property
    def is_known_member(self) -> bool:
        return self.v >= 0.0 and 0.0 <= self.w <= self.u

    def value(self, t):
        at_zero = _nonnegative_min(t) == 0.0
        out = self.v * t**self.s + self.w
        return np.where(t == 0.0, self.u, out)[()] if at_zero else out

    def slope(self, t):
        # v*s*t^(s-1) diverges at 0 for s < 1; at s = 1, t^0 = 1 extends it
        if _nonnegative_min(t) == 0.0 and self.s != 1.0:
            raise DomainError("Breckner derivative undefined at t=0 for s < 1")
        return self.v * self.s * t ** (self.s - 1.0)

    @property
    def label(self) -> str:
        return f"breckner:{self.u:g},{self.v:g},{self.w:g},{self.s:g}"


def _nonnegative_min(t) -> float:
    lo = np.fmin.reduce(t, axis=None)  # fmin skips NaN, so a NaN cannot hide a bad point
    if lo < 0.0:
        raise DomainError(f"Breckner function is defined on [0, inf), got t={float(lo)!r}")
    return lo


def make_breckner(u: float, v: float, w: float, s: float) -> Function1D:
    """Build a Function1D for the piecewise power family above."""
    fn = BrecknerFunction(float(u), float(v), float(w), float(s))
    return Function1D(f=fn.value, df=fn.slope, label=fn.label)


# ----------------------------------------------------------------------
# s-convexity grid falsification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SConvexityReport:
    """Outcome of a grid search for violations of the s-convexity inequality.

    A grid check can only falsify a universally quantified statement, never
    certify it; ``context`` says so explicitly. ``worst_violation`` is the
    largest observed value of f(a*x + (1-a)*y) - a^s f(x) - (1-a)^s f(y);
    the report is consistent iff that maximum is <= 0.
    """

    is_consistent: bool
    worst_violation: float
    witness: Tuple[float, float, float]  # (x, y, alpha)
    context: str


def check_sconvex(
    fn: Function1D,
    s: float,
    domain: Interval,
    grid_n: int = 21,
) -> SConvexityReport:
    """Evaluate the defining s-convexity inequality on a grid.

    All (x, y, alpha) triples from a grid_n-point grid over
    domain x domain x [0, 1] are tested; the alpha grid contains 0 and 1
    exactly so the boundary equalities are exercised. Points where the
    inequality is an exact equality round each side independently, so a
    positive difference within a few ulps of the operand scale is treated
    as equality, not as a violation.
    """
    s_val = _require_s(s)
    if grid_n < 2:
        raise DomainError(f"grid_n must be >= 2, got {grid_n!r}")
    pts = np.linspace(domain.a, domain.b, grid_n)
    alphas = np.linspace(0.0, 1.0, grid_n)
    wx = alphas**s_val
    wy = (1.0 - alphas) ** s_val
    eps = np.finfo(float).eps
    try:
        fvals = fn(pts)
    except Exception as exc:
        raise DomainError(f"evaluator failed on the domain grid: {exc}") from exc

    # one x at a time, broadcast over rows y and columns alpha: the
    # temporaries stay grid_n^2 in size instead of grid_n^3
    zy, wfy = (1.0 - alphas) * pts[:, None], wy * fvals[:, None]
    worst = -math.inf
    witness = (float(pts[0]), float(pts[0]), 0.0)
    for x, fx in zip(pts, fvals):
        try:
            fz = fn(alphas * x + zy)
        except Exception as exc:
            raise DomainError(f"evaluator failed at a combination point: {exc}") from exc
        wfx = wx * fx
        raw = fz - (wfx + wfy)
        noise = 8.0 * eps * np.maximum(1.0, np.maximum(np.abs(fz), np.abs(wfx) + np.abs(wfy)))
        # sub-rounding positives are equalities; a NaN point is skipped, as the
        # scalar `>` below skips it, so argmax cannot return it and hide the plane
        viol = np.where((raw > 0.0) & (raw <= noise), 0.0, np.where(np.isnan(raw), -math.inf, raw))
        j, k = np.unravel_index(np.argmax(viol), viol.shape)
        if viol[j, k] > worst:
            worst = float(viol[j, k])
            witness = (float(x), float(pts[j]), float(alphas[k]))

    return SConvexityReport(
        is_consistent=worst <= 0.0,
        worst_violation=worst,
        witness=witness,
        context=(
            f"grid falsifier (not a certifier): {grid_n} points per axis on "
            f"[{domain.a:g}, {domain.b:g}]^2 x [0,1], s={s_val:g}; "
            "sub-rounding positives count as equality"
        ),
    )


# ----------------------------------------------------------------------
# Reference integrator (the oracle)
# ----------------------------------------------------------------------

# 15-point Kronrod rule with embedded 7-point Gauss on [-1, 1] (QUADPACK's
# QK15; Piessens et al., 1983), typed to 15 digits. The rule is symmetric,
# so each table holds one half, from the outermost node in to the centre,
# and is mirrored below. The Gauss nodes are every other Kronrod node,
# starting at the second; |K15 - G7| serves as the panel error estimate.
# Full-precision digits alone would make that difference exactly 0 for a
# constant, so they have to come with a roundoff floor on the estimate.
_HALF_NODES = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_HALF_W_KRONROD = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_HALF_W_GAUSS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

_NODES = np.concatenate((-_HALF_NODES[:-1], _HALF_NODES[::-1]))  # +0.0 at the centre
_W_KRONROD = np.concatenate((_HALF_W_KRONROD, _HALF_W_KRONROD[-2::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[1::2] = np.concatenate((_HALF_W_GAUSS, _HALF_W_GAUSS[-2::-1]))


def _panel(fn: Function1D, lo: float, hi: float) -> Tuple[float, float]:
    """One Kronrod/Gauss evaluation on [lo, hi]: (integral, error estimate)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid + half * _NODES
    fs = fn(xs)
    top = float(np.abs(fs).max())
    if not math.isfinite(top):
        raise ConvergenceError(
            f"integrand {fn.label or '<anonymous>'} returned a non-finite value "
            f"on [{lo:g}, {hi:g}]"
        )
    scale = 1.0
    if top >= 2.0**1023:
        # each weight sum is below 2, so a weighted sum of fs could pass the
        # largest double: sum a quarter of fs instead, exactly, and scale back
        scale = 4.0
        fs = fs / scale
    k15 = half * float(_W_KRONROD @ fs) * scale
    g7 = half * float(_W_GAUSS @ fs) * scale
    return k15, abs(k15 - g7)


#: Default panel budget for the reference integrator.
DEFAULT_ORACLE_PANELS = 10_000


def reference_integrate(fn: Function1D, iv: Interval, tol: float) -> float:
    """Integrate fn over iv to absolute accuracy tol.

    Globally adaptive: the panel with the largest error estimate is bisected
    at its exact midpoint until the summed estimates drop below tol. Raises
    ConvergenceError once DEFAULT_ORACLE_PANELS panels exist without
    convergence, which signals a pathological integrand rather than a
    tolerance slightly out of reach.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    value, err = _panel(fn, iv.a, iv.b)
    # heap orders by largest estimate; ties fall back to the left endpoint
    heap = [(-err, iv.a, iv.b, value)]
    total_err = err
    min_width = (iv.b - iv.a) * 1e-15

    while total_err > tol:
        if len(heap) >= DEFAULT_ORACLE_PANELS:
            raise ConvergenceError(
                f"integral of {fn.label or '<anonymous>'} did not reach "
                f"tol={tol:g} within {DEFAULT_ORACLE_PANELS} panels (estimate {total_err:g})"
            )
        neg_err, lo, hi, _ = heappop(heap)
        if hi - lo < min_width:
            raise ConvergenceError(
                f"panel [{lo!r}, {hi!r}] cannot be subdivided further; "
                f"integrand is too irregular for tol={tol:g}"
            )
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(fn, lo, mid)
        v2, e2 = _panel(fn, mid, hi)
        total_err += e1 + e2 - (-neg_err)
        heappush(heap, (-e1, lo, mid, v1))
        heappush(heap, (-e2, mid, hi, v2))

    # deterministic compensated total: panels summed in left-to-right order
    panels = sorted((lo, v) for _, lo, _, v in heap)
    return math.fsum(v for _, v in panels)


def true_deviation(
    fn: Function1D, iv: Interval, x: float, tol: float = 1e-10
) -> float:
    """|f(x) - average of f over [a, b]|, the left-hand side of every bound.

    The average is computed by the reference integrator with the integral
    tolerance scaled by the width so the returned deviation is accurate to
    roughly tol.
    """
    x = validate_eval_point(iv, x)
    integral = reference_integrate(fn, iv, tol * iv.width)
    return abs(float(fn(x)) - integral / iv.width)


# ----------------------------------------------------------------------
# Function registry for the CLI
# ----------------------------------------------------------------------

def _parse_floats(text: str, spec: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise DomainError(f"could not parse numbers in function spec {spec!r}") from exc


def _make_poly(coeffs: list[float]) -> Function1D:
    cs = np.asarray(coeffs, dtype=float)
    ds = npoly.polyder(cs)
    return Function1D(f=lambda t: npoly.polyval(t, cs), df=lambda t: npoly.polyval(t, ds),
                      label="poly:" + ",".join(f"{c:g}" for c in coeffs))


def _make_powabs(k: float) -> Function1D:
    if not k > 0.0:
        raise DomainError(f"powabs exponent must be positive, got {k!r}")

    def df(t):
        # for k > 1 the formula gives the derivative 0 at t = 0 as well
        if k <= 1.0 and np.fmin.reduce(abs(t), axis=None) == 0.0:
            raise DomainError(f"|t|^{k:g} has no derivative at t=0")
        return k * abs(t) ** (k - 1.0) * np.sign(t)

    return Function1D(f=lambda t: abs(t) ** k, df=df, label=f"powabs:{k:g}")


def parse_function_spec(spec: str) -> Function1D:
    """Parse a registry string into a Function1D.

    Supported forms (whitespace is ignored):
      breckner:u,v,w,s   piecewise power family above
      poly:c0,c1,...     polynomial c0 + c1*t + c2*t^2 + ...
      powabs:k           f(t) = |t|^k
    """
    text = "".join(str(spec).split())
    kind, sep, rest = text.partition(":")
    kind = kind.lower()
    if not sep:
        raise DomainError(f"function spec {spec!r} is missing ':' (kind:params)")
    if kind == "breckner":
        vals = _parse_floats(rest, spec)
        if len(vals) != 4:
            raise DomainError(f"breckner spec needs u,v,w,s; got {spec!r}")
        return make_breckner(*vals)
    if kind == "poly":
        vals = _parse_floats(rest, spec)
        if not vals:
            raise DomainError(f"poly spec needs at least one coefficient: {spec!r}")
        return _make_poly(vals)
    if kind == "powabs":
        vals = _parse_floats(rest, spec)
        if len(vals) != 1:
            raise DomainError(f"powabs spec needs exactly one exponent: {spec!r}")
        return _make_powabs(vals[0])
    raise DomainError(
        f"unknown function kind {kind!r}; expected breckner, poly, or powabs"
    )
