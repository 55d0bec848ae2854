"""Test-function factory, s-convexity falsification, and the reference
integrator used as the brute-force oracle by the verification routines.

The integrator is a globally adaptive scheme with a fixed high-order rule
per panel (QUADPACK's 15-point Kronrod extension of 7-point Gauss, to full
double precision) and the nested-rule difference as the per-panel error
estimate, floored at the rounding the panel's K15 sum can carry. It meets
max(tol, epsrel·Σ|panel integrals|), and when that target is below the
roundoff floor bisection cannot lower, it says so at once instead of
spending its panel budget. Refinement always bisects the worst panel at its
exact midpoint, so results are deterministic for fixed inputs and
reproducible across runs. One rule function, ``_rule``, serves the first
panel and both halves of every bisection, with one body for every panel:
one evaluator call on a flat array of all their nodes, one reduction for
their max|f|, and for a split one product for all their K15 and G7 sums.
Per split, the cost is Python and numpy call overhead, not arithmetic, so
two halves at once cost little more than one. Each panel keeps the bits,
and a failing one the exception, of evaluating it alone.

Most oracle calls, such as the identity check's, end at their first panel:
a first panel that meets the tolerance is the result, with no heap. The
Breckner evaluator skips the add of w = 0 where that is an exact identity.

The library's checks reach the oracle through oracle_integral alone, which
returns with each integral the excess its relative tolerance adds to tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappush, heapreplace
from operator import itemgetter
from typing import Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import (
    ConvergenceError,
    DomainError,
    Function1D,
    Interval,
    _overflow_raises,
    _require_finite,
    _require_positive,
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
        for name in ("u", "v", "w"):
            _require_finite(f"breckner {name}", getattr(self, name))
        _require_s(self.s)

    @property
    def is_known_member(self) -> bool:
        return self.v >= 0.0 and 0.0 <= self.w <= self.u

    def value(self, t):
        ts = np.asarray(t)  # a float too: numpy's power gives it the array path's bits
        at_zero = _nonnegative_min(t) == 0.0
        out = self.v * ts**self.s
        # x + w, w = +-0.0, is x unless x = -0.0 and w = +0.0; v > 0 keeps v * t^s, t > 0, from -0.0
        if not (self.w == 0.0 and self.v > 0.0):
            out = out + self.w
        if at_zero:
            out = np.where(ts == 0.0, self.u, out)[()]
        return float(out) if type(t) is float else out

    def slope(self, t):
        ts = np.asarray(t)
        # v*s*t^(s-1) diverges at 0 for s < 1; at s = 1, t^0 = 1 extends it
        if _nonnegative_min(t) == 0.0 and self.s != 1.0:
            raise DomainError("Breckner derivative undefined at t=0 for s < 1")
        out = self.v * self.s * ts ** (self.s - 1.0)
        return float(out) if type(t) is float else out

    @property
    def label(self) -> str:
        return "breckner:" + ",".join(map(_spec_number, (self.u, self.v, self.w, self.s)))


def _nonnegative_min(t) -> float:
    # fmin skips NaN, so a NaN cannot hide a bad point; a float is its own minimum
    lo = t if type(t) is float else np.fmin.reduce(t, axis=None)
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
    as equality, not as a violation. That allowance is relative to the
    operands alone, with no absolute floor: it scales with f, so a small
    function is falsified as readily as a large one; an infinite difference
    is never such an equality.

    f must be finite at the grid points, whose values weight every
    combination: a DomainError names the function otherwise. An overflow in
    an evaluator or in the arithmetic raises OverflowError.
    """
    s_val = _require_s(s)
    if grid_n < 2:
        raise DomainError(f"grid_n must be >= 2, got {grid_n!r}")
    pts = np.linspace(domain.a, domain.b, grid_n)
    alphas = np.linspace(0.0, 1.0, grid_n)
    wx = alphas**s_val
    wy = (1.0 - alphas) ** s_val
    eps = np.finfo(float).eps
    with _overflow_raises():
        fvals = _sconvex_values(fn, pts, "on the domain grid")
        if not np.all(np.isfinite(fvals)):  # 0 * inf would make a weighted value NaN
            t = float(pts[np.argmin(np.isfinite(fvals))])
            raise DomainError(f"function {fn.name} is not finite at the grid point t={t!r}")

        # one x at a time, broadcast over rows y and columns alpha: the
        # temporaries stay grid_n^2 in size instead of grid_n^3
        zy, wfy = (1.0 - alphas) * pts[:, None], wy * fvals[:, None]
        worst = -math.inf
        witness = (float(pts[0]), float(pts[0]), 0.0)
        for x, fx in zip(pts, fvals):
            fz = _sconvex_values(fn, alphas * x + zy, "at a combination point")
            wfx = wx * fx
            raw = fz - (wfx + wfy)
            noise = 8.0 * eps * np.maximum(np.abs(fz), np.abs(wfx) + np.abs(wfy))
            # finite sub-rounding positives are equalities; a NaN point is skipped, as
            # the scalar `>` below skips it, so argmax cannot return it and hide the plane
            tie = (raw > 0.0) & (raw <= noise) & (raw < math.inf)
            viol = np.where(tie, 0.0, np.where(np.isnan(raw), -math.inf, raw))
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
            f"[{_spec_number(domain.a)}, {_spec_number(domain.b)}]^2 x [0,1], "
            f"s={_spec_number(s_val)}; "
            "sub-rounding positives count as equality"
        ),
    )


def _sconvex_values(fn: Function1D, t, where: str):
    """fn(t); an evaluator's failure other than an overflow is a DomainError."""
    try:
        return fn(t)
    except OverflowError:
        raise
    except Exception as exc:
        raise DomainError(f"evaluator failed {where}: {exc}") from exc


# ----------------------------------------------------------------------
# Reference integrator (the oracle)
# ----------------------------------------------------------------------

# 15-point Kronrod rule with embedded 7-point Gauss on [-1, 1] (QUADPACK's
# QK15; Piessens et al., 1983). Each value is the double nearest QUADPACK's
# 33-digit one. Those digits solve the rule's equations, worked in 60 digits,
# to within 3e-27: the Gauss nodes are roots of P_7, G7 is exact through
# degree 13 and K15 through degree 22. The rule is symmetric, so each table
# holds one half, from the outermost node in to the centre, and is mirrored
# below. The Gauss nodes are every other Kronrod node, starting at the
# second. |K15 - G7| estimates a panel's error; with full digits it is
# exactly 0 on a constant, so the estimate has a roundoff floor as well
# (_PANEL_FLOOR).
_HALF_NODES = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
    0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0,
])
_HALF_W_KRONROD = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782,
])
_HALF_W_GAUSS = np.array([
    0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694,
])

_NODES = np.concatenate((-_HALF_NODES[:-1], _HALF_NODES[::-1]))  # +0.0 at the centre
_W_KRONROD = np.concatenate((_HALF_W_KRONROD, _HALF_W_KRONROD[-2::-1]))
_W_GAUSS = np.zeros(15)
_W_GAUSS[1::2] = np.concatenate((_HALF_W_GAUSS, _HALF_W_GAUSS[-2::-1]))


_W = np.column_stack((_W_KRONROD, _W_GAUSS))  # (15, 2): one product gives K15 and G7
_HUGE = 2.0**1023  # each weight sum is below 2, so |f| below this keeps both sums finite
_ROW_STARTS = np.array([0, 15])  # where each panel starts in the flat values


#: C·u, the roundoff floor's factor: C = 8 and u = 2**-53 (see reference_integrate)
_ROUNDOFF = 2.0**-50
#: a panel's floor C·u·R, R = 2·half·max|f|, is half·(max|f|·_PANEL_FLOOR)
_PANEL_FLOOR = 2.0 * _ROUNDOFF
#: the relative tolerance the library's own oracle calls give: twice C·u, so
#: the floor of a one-signed integrand is at most half of it
ORACLE_EPSREL = 2.0 * _ROUNDOFF


def _rule(fn: Function1D, edges) -> list:
    """K15 and G7 on the adjacent panels between consecutive edges, from one
    evaluator call: a list of (integral, error estimate) per panel, left to
    right. edges holds two or three values: a lone panel or the two halves
    of a split. The estimate is |K15 - G7|, floored at C·u·2·half·max|f| (see
    reference_integrate).

    Each panel is exactly what it would be alone: its nodes are formed from
    its own Python-float mid and half, its K15 and G7 sums are the dot
    products of its 15 values with the weights, and its max|f| is exact in
    any order. A split whose max|f| add up below 2**1023 takes one
    (2, 15) @ (15, 2) product, which gives each row those bits. A lone panel
    takes the dot products themselves, because numpy sends a one-row product
    through a matrix-vector kernel that sums in another order, and so does
    each half of any other split. A failure names the leftmost panel that
    fails, as evaluating the panels in turn would.
    """
    halves, nodes = [], []
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        halves.append(half)
        nodes.append(0.5 * (lo + hi) + half * _NODES)
    k = len(halves)
    fs = fn(nodes[0] if k == 1 else np.concatenate(nodes))  # flat: evaluators may assume 1-D
    rows = fs.reshape(k, 15)
    tops = np.maximum.reduceat(abs(fs), _ROW_STARTS[:k]).tolist()  # each max|f|, exact in any order
    # no product where a NaN or a top >= 2**1023 would spoil it; finite tops that
    # only add up to 2**1023 miss it too, and their dot products give the same bits
    sums = rows.dot(_W).tolist() if k > 1 and sum(tops) < _HUGE else None
    out = []
    for j, half in enumerate(halves):
        top, scale = tops[j], 1.0
        if sums:
            kd, gd = sums[j]
        else:
            row = rows[j]
            if not top < _HUGE:  # NaN too
                if not top < math.inf:
                    raise ConvergenceError(f"integrand {fn.name} returned a "
                                           f"non-finite value on [{edges[j]:g}, {edges[j + 1]:g}]")
                # sum a quarter, exactly, and scale back; only this panel, as
                # quartering a subnormal neighbour would round it
                row, scale = row / 4.0, 4.0
            kd, gd = float(_W_KRONROD.dot(row)), float(_W_GAUSS.dot(row))
        k15 = half * kd * scale
        g7 = half * gd * scale
        err = abs(k15 - g7)
        floor = half * (top * _PANEL_FLOOR)
        if not floor <= err < math.inf:  # at its floor, or not finite
            if err < floor:
                err = floor
            if not err < math.inf:  # an overflowed k15 or g7 leaves err inf or nan
                raise OverflowError(f"the panel sums of {fn.name} on "
                                    f"[{edges[j]:g}, {edges[j + 1]:g}] overflowed double precision")
        out.append((k15, err))
    return out


_LEFT_THEN_VALUE = itemgetter(1, 3)  # a heap entry is (-estimate, lo, hi, value)

#: Default panel budget for the reference integrator.
DEFAULT_ORACLE_PANELS = 10_000


def _panel_sum(heap) -> float:
    """math.fsum of the panels' values. fsum rounds their exact sum once, so
    the heap's order gives the bits that left to right would, unless a
    partial sum overflows, which depends on the order. Then they are summed
    again left to right, as the panels lie, so an overflow is raised only
    where that order raises it too."""
    try:
        return math.fsum([entry[3] for entry in heap])
    except OverflowError:
        return math.fsum([entry[3] for entry in sorted(heap, key=_LEFT_THEN_VALUE)])


def _scaled_mass(heap) -> float:
    """C·u·Σ|value| over the panels: scaled, so that it stays finite where
    the values add up past the double range."""
    return sum(_ROUNDOFF * abs(entry[3]) for entry in heap)


class _Integral(float):
    """A float from reference_integrate that also carries ``met``, the
    tolerance it met: max(tol, epsrel·Σ|panel integrals|)."""

    __slots__ = ("met",)


def _integral(value: float, met: float) -> _Integral:
    out = _Integral(value)
    out.met = met
    return out


def reference_integrate(fn: Function1D, iv: Interval, tol: float, *,
                        epsrel: float = 0.0) -> float:
    """Integrate fn over iv to within max(tol, epsrel·Σ|panel integrals|).

    Globally adaptive: the panel with the largest error estimate is bisected
    at its exact midpoint until the summed estimates meet that target, as
    in QUADPACK's QAG with key 1: the 15-point rule, and no epsilon-algorithm
    extrapolation, which QAGS adds. tol and epsrel must be >= 0, one of
    them positive. Σ|panel integrals| is at least |integral|; where f
    changes sign it is about ∫|f|, which the roundoff floor below scales
    with, so that a relative tolerance of twice C·u, ORACLE_EPSREL, stays
    within reach of any integrand. It is summed in scaled terms, so that it
    stays finite, and taken again at each check below and, where epsrel is
    positive, before returning. The result is a float that also carries
    ``met``, the target it met, from which oracle_integral takes its excess.

    Each panel's estimate is max(|K15 - G7|, C·u·R), with u = 2**-53 and
    R = 2·half·max|f| over its nodes. R is at least the panel's resabs,
    half·Σ w_K·|f|, because the Kronrod weights sum to 2. The floor stands
    for the rounding of the K15 sum, which |K15 - G7| cannot see where the
    two rules agree, as on a constant. That sum is rounded in the stored
    weights (together at most 0.35u·R), in the 15 products, in the 14
    additions and in the final product with half. numpy's dot leaves the
    order of the additions to the BLAS; in any order their first-order
    worst case is γ15-like, about 16u·R, and that case needs every rounding
    at its maximum in one direction. A compensated (Dot2) sum would leave
    only the weights', about u·resabs, and make C = 2-4 provable, but it
    costs more than the panel itself. Measured instead, against the exact
    rule in rational arithmetic on the same values, the computed K15 of
    random panels (constants, cubics, degree-13 polynomials) was off by at
    most 4.7u·R over 60,000 of them, where C = 4 missed 6, and by 3.6u·R
    over the 3,000 seeded ones that tests/test_toolkit.py checks against
    the floor. C = 8 covers that with a margin, keeps C·u a power of two,
    so that the floor is one exact scaling of half·max|f|, and leaves the
    constant 1000 on [0, 1] its 1e-12 (floor 8.9e-13).

    Bisection cannot take the floors below C·u·∫|f|. The panels' Σ|value|,
    less the summed estimates, estimates ∫|f| from below, so once the target
    is below C·u times it, ConvergenceError is raised at once and names that
    floor, as QUADPACK's ier = 2 reports roundoff. That is checked at the
    first panel, then at 64 and 4096 panels, from the same scaled Σ|value|
    as the relative target, so that panels near the top of the double range
    give a finite floor. Otherwise it is raised once DEFAULT_ORACLE_PANELS
    panels exist without convergence, which signals a pathological
    integrand rather than a tolerance slightly out of reach, or when the
    worst panel is narrower than 1e-15 of the interval.
    OverflowError is raised when a panel's sum or error estimate is beyond
    double precision, or when the panels' sum overflows in their left to
    right order (see _panel_sum).
    """
    if not (tol > 0.0 and epsrel >= 0.0) and not (tol == 0.0 and epsrel > 0.0):
        raise DomainError(f"tolerance must be positive, got tol={tol!r}, epsrel={epsrel!r}")
    ((value, err),) = _rule(fn, (iv.a, iv.b))
    if not (err > tol and err > epsrel * abs(value)):
        # the first panel converged: math.fsum([value]), which is value + 0.0
        return _integral(value + 0.0, max(tol, epsrel * abs(value)))
    # heap orders by largest estimate; ties fall back to the left endpoint
    heap = [(-err, iv.a, iv.b, value)]
    total_err = err
    target = tol  # max(tol, epsrel·Σ|value|), taken again at each check and at the end
    relative = epsrel / _ROUNDOFF  # epsrel·Σ|value| is relative·_scaled_mass(heap)
    budget = DEFAULT_ORACLE_PANELS
    check = 1  # the panel count at the next roundoff and budget check: 1, 64, 4096, budget
    min_width = (iv.b - iv.a) * 1e-15

    while True:
        while total_err > target:
            if len(heap) >= check:
                scaled = _scaled_mass(heap)
                target = max(tol, relative * scaled)
                floor = scaled - _ROUNDOFF * total_err
                if floor > target:
                    raise ConvergenceError(
                        f"integral of {fn.name} did not reach "
                        f"tol={target:g}: it is below the roundoff floor {floor:g} of the "
                        f"panel sums (estimate {total_err:g})"
                    )
                if len(heap) >= budget:
                    raise ConvergenceError(
                        f"integral of {fn.name} did not reach "
                        f"tol={target:g} within {budget} panels (estimate {total_err:g})"
                    )
                check = min(64 * check, budget)
                continue
            neg_err, lo, hi, _ = heap[0]
            if hi - lo < min_width:
                raise ConvergenceError(
                    f"panel [{lo!r}, {hi!r}] cannot be subdivided further; "
                    f"integrand is too irregular for tol={target:g}"
                )
            mid = 0.5 * (lo + hi)
            (v1, e1), (v2, e2) = _rule(fn, (lo, mid, hi))
            total_err += e1 + e2 - (-neg_err)
            # the worst panel gives its place to its left half: one sift, not a pop
            # and a push; the heap holds the same entries, so later pops are the same
            heapreplace(heap, (-e1, lo, mid, v1))
            heappush(heap, (-e2, mid, hi, v2))
        if epsrel:
            target = max(tol, relative * _scaled_mass(heap))
        if not total_err > target:
            return _integral(_panel_sum(heap), target)


def oracle_integral(fn: Function1D, iv: Interval, tol: float) -> Tuple[float, float]:
    """(integral, excess): the integral of fn over iv from the reference
    integrator with epsrel=ORACLE_EPSREL, and what that relative tolerance
    adds to its accuracy. The integral is within
    max(tol, ORACLE_EPSREL·Σ|panel integrals|), which is tol + excess, so a
    check whose slack was sized for tol adds the excess; for a mean, the
    excess divided by the width. It is 0.0 wherever tol is the larger.
    """
    integral = reference_integrate(fn, iv, tol, epsrel=ORACLE_EPSREL)
    return integral, integral.met - tol


def true_deviation(
    fn: Function1D, iv: Interval, x: float, tol: float = 1e-10
) -> float:
    """|f(x) - average of f over [a, b]|, the left-hand side of every bound.

    The average comes from oracle_integral with the tolerance scaled by the
    width, so a tol below the rounding of the average still converges. The
    returned deviation is accurate to roughly tol plus the excess divided by
    the width. tol must be finite and positive.
    """
    x = validate_eval_point(iv, x)
    tol = _require_positive("tol", tol)
    integral, _ = oracle_integral(fn, iv, tol * iv.width)
    return abs(float(fn(x)) - integral / iv.width)


# ----------------------------------------------------------------------
# Function registry for the CLI
# ----------------------------------------------------------------------

def _parse_floats(text: str, spec: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise DomainError(f"could not parse numbers in function spec {spec!r}") from exc


def _spec_number(v: float) -> str:
    """v as a label writes it: its shortest repr without a trailing .0, so
    that the label parses back to the same function."""
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") else text


def _make_poly(*coeffs: float) -> Function1D:
    # an inf coefficient (say 1.8e308 read as inf) would make numpy's
    # derivative and Horner steps multiply it by 0 and warn on stderr
    for c in coeffs:
        if not math.isfinite(c):
            raise DomainError(f"poly coefficients must be finite, got {c!r}")
    cs = np.asarray(coeffs, dtype=float)
    with _overflow_raises():
        ds = npoly.polyder(cs)
    return Function1D(f=lambda t: npoly.polyval(t, cs), df=lambda t: npoly.polyval(t, ds),
                      label="poly:" + ",".join(map(_spec_number, coeffs)))


def _make_powabs(k: float) -> Function1D:
    _require_finite("powabs exponent", k)
    if not k > 0.0:
        raise DomainError(f"powabs exponent must be positive, got {k!r}")

    def df(t):
        # for k > 1 the formula gives the derivative 0 at t = 0 as well
        if k <= 1.0 and np.fmin.reduce(abs(t), axis=None) == 0.0:
            raise DomainError(f"|t|^{_spec_number(k)} has no derivative at t=0")
        return k * abs(t) ** (k - 1.0) * np.sign(t)

    return Function1D(f=lambda t: abs(t) ** k, df=df, label=f"powabs:{_spec_number(k)}")


#: kind -> (builder, its parameter count or 0 for one or more, what a bad
#: count's message says the kind needs)
_SPEC_FAMILIES = {
    "breckner": (make_breckner, 4, "u,v,w,s; got "),
    "poly": (_make_poly, 0, "at least one coefficient: "),
    "powabs": (_make_powabs, 1, "exactly one exponent: "),
}


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
    if kind not in _SPEC_FAMILIES:
        *head, last = _SPEC_FAMILIES
        raise DomainError(
            f"unknown function kind {kind!r}; expected {', '.join(head)}, or {last}"
        )
    build, count, needs = _SPEC_FAMILIES[kind]
    vals = _parse_floats(rest, spec)
    if len(vals) != count if count else not vals:
        raise DomainError(f"{kind} spec needs {needs}{spec!r}")
    return build(*vals)
