"""The theorem registry: every bound of |f(x) - average of f over [a, b]|
from derivative data, each stated once as a :class:`Theorem` record.

A record holds a theorem's tag, the inputs it takes beyond [a, b] in the
order its result echoes them, whether it needs a >= 0, and its array
formula. :func:`evaluate` checks each given input by its kind, calls the
formula and echoes the inputs in a :class:`BoundResult`. The gap and the
quadrature variants name their theorems in tables read by :func:`_variant`,
with evaluate's own name and exponent checks. The CLI and the domination
sweep take their formulas from :data:`THEOREMS` too.

  t20      |f'| s-convex; kernel moments integrated exactly
  t20-mid  its midpoint form
  teo1     |f'|^q s-convex; Hoelder applied per kernel branch
  t21      |f'|^q s-convex; average bracket applied on [x, b], [a, x]
  e5       midpoint Hoelder form under equal derivative samples
  z        |f'|^q s-convex; Hoelder applied to the whole kernel
  t22      |f'|^q s-convex; power-mean refinement, finite q >= 1
  t22-mid  its stated midpoint companion at s = 1
  eq11     sup|f'| <= M; the classical Ostrowski bound
  ee       |f'|^q s-convex and |f'| <= M; uniform-derivative bound
  eq14-16  the classical midpoint baselines

The public ``bound_*`` and ``midpoint_*`` functions here, and the classical
ones in :mod:`ostrowski.kernel`, are thin calls into :func:`evaluate`.
Position enters through the normalized offsets lam = (b-x)/(b-a) and
mu = (x-a)/(b-a); every bound is invariant under the reflection
x -> a+b-x combined with swapping the endpoint derivative values.

Powers of the offsets at 0 are exact: 0.0**e == 0.0 for e > 0 in IEEE
arithmetic, so no special-casing is needed (s > 0 keeps exponents positive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import itemgetter
from typing import Callable, Mapping, Optional, Tuple, Union

import numpy as np

from .core import (
    BoundResult,
    ConjugatePair,
    DomainError,
    EndpointData,
    Interval,
    _require_exponent,
    _require_magnitude,
    _require_s,
    make_conjugate,
    validate_eval_point,
)

__all__ = [
    "Theorem",
    "THEOREMS",
    "evaluate",
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


# The formulas, without validation. A formula names what it reads by its
# parameters: width = b - a, the offsets lam and mu of x, s, p, q, da, db,
# dx and M. Every argument may be a numpy array, so the sweep, the
# special means and the composite quadrature bounds evaluate these same
# formulas, elementwise and broadcast.

def _sconvex_abs(width, lam, mu, s, da, db):
    # a quarter of each |f'| before the sum, as the brackets reach s + 1 <= 2:
    # the sum is then finite wherever the bound is, and in the normal range
    # the power-of-two scaling leaves every bit as it was
    return (
        width
        / ((s + 1.0) * (s + 2.0))
        * (kernel_moment_bracket(lam, s) * (0.25 * da) + kernel_moment_bracket(mu, s) * (0.25 * db))
        * 4.0
    )


def _sconvex_abs_mid(width, s, da, db):
    return width / ((s + 1.0) * (s + 2.0)) * (1.0 - 2.0 ** -(s + 1.0)) * (0.5 * da + 0.5 * db) * 2.0


_LEAST = 2.0**-1074  # the least positive double


def _max_power(u, v, q):
    """(max(u, v), r^q), r = min(u, v) / max(u, v, 2**-1074) elementwise: one power
    scales a bracket (alpha u^q + beta v^q)^(1/q) to max(u, v) (alpha U + beta V)^(1/q),
    which over- or underflows only with its value. Of U = (u/c)^q and V = (v/c)^q,
    c = max(u, v), one is (c/c)^q = 1.0 exactly and the other is r^q, so one power
    gives both; a row of two zeros has the factor 0, whatever U and V are.

    u and v are finite and >= 0, as every caller checks, and an array holds no
    -0.0 (the quadrature panels take np.abs); two float zeros give the factor the
    sign that u^q and v^q gave the bracket, -0.0 only for two -0.0 at q = 1."""
    if isinstance(u, float) and isinstance(v, float):
        hi, lo = (u, v) if u >= v else (v, u)
        if hi > 0.0:
            return hi, (lo / hi) ** q
        return ((u + v) ** q) ** (1.0 / q), 0.0
    hi = np.maximum(u, v)
    r = np.minimum(u, v)
    r /= np.maximum(hi, _LEAST)
    return hi, r**q


def _scaled_powers(u, v, q):
    """(c, U, V) with c (alpha U + beta V)^(1/q) the bracket of an asymmetric
    weight pair: _max_power's factor, and its ratios 1.0 and r^q in the order
    of u and v. As there, u and v are finite and >= 0 and an array holds no
    -0.0. A comparison u >= v that is no array (floats, mpmath) picks plainly."""
    c, rq = _max_power(u, v, q)
    first = u >= v
    if isinstance(first, np.ndarray):
        return c, np.where(first, 1.0, rq), np.where(first, rq, 1.0)
    return (c, 1.0, rq) if first else (c, rq, 1.0)


def _holder_split(width, lam, mu, s, p, q, da, db):
    c, daq, dbq = _scaled_powers(da, db, q)
    term_low = lam ** (1.0 + 1.0 / p) * (
        lam ** (s + 1.0) * daq + (1.0 - mu ** (s + 1.0)) * dbq
    ) ** (1.0 / q)
    term_high = mu ** (1.0 + 1.0 / p) * (
        (1.0 - lam ** (s + 1.0)) * daq + mu ** (s + 1.0) * dbq
    ) ** (1.0 / q)
    return width * c / (p + 1.0) ** (1.0 / p) / (s + 1.0) ** (1.0 / q) * (term_low + term_high)


def _holder_hadamard(width, lam, mu, s, p, q, da, dx, db):
    # each branch is (b-a) lam^2 c B / (p+1)^(1/p), formed as
    # (lam c) (lam (b-a) B / (p+1)^(1/p)): with one offset on each scale, no
    # product leaves the range of its term, even where the scale c of a
    # bracket B is subnormal or the two scales lie far apart
    c_high, rq_high = _max_power(dx, db, q)
    c_low, rq_low = _max_power(da, dx, q)
    kp = (p + 1.0) ** (1.0 / p)
    high = lam * width * (((1.0 + rq_high) / (s + 1.0)) ** (1.0 / q) / kp)
    low = mu * width * (((1.0 + rq_low) / (s + 1.0)) ** (1.0 / q) / kp)
    return lam * c_high * high + mu * c_low * low


def _e5(width, p, da, db):
    # scaled before the sum, so |f'| near the top of the range stays finite
    return width / (p + 1.0) ** (1.0 / p) * (0.25 * db + 0.25 * da)


def _holder_global(width, lam, mu, s, p, q, da, db):
    c, rq = _max_power(da, db, q)
    return (
        width
        / (p + 1.0) ** (1.0 / p)
        * (lam ** (p + 1.0) + mu ** (p + 1.0)) ** (1.0 / p)
        * c * ((1.0 + rq) / (s + 1.0)) ** (1.0 / q)
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
    c, rq = _max_power(da, db, q)
    return (
        width
        / 8.0
        * (1.0 / 3.0) ** (1.0 / q) * c
        * ((1.0 + 3.0 * rq) ** (1.0 / q) + (3.0 + rq) ** (1.0 / q))
    )


def _classic(width, lam, mu, M):
    # the width is quartered, not M: M (b-a) never forms, and a subnormal M
    # keeps its bits (Theorem.bound scales a subnormal width up first); as
    # lam^2 + mu^2 >= 1/2, every product is finite wherever the bound is
    return M * (0.25 * width) * (lam**2 + mu**2) * 2.0


def _alomari(width, lam, mu, s, p, q, M):
    # ordered as _classic, with the constant (2/(s+1))^(1/q)/(1+p)^(1/p) in
    # (1/2, 2) applied last: no product leaves [bound/8, bound], so a
    # subnormal M keeps its bits too
    constant = (2.0 / (s + 1.0)) ** (1.0 / q) / (1.0 + p) ** (1.0 / p)
    return M * (0.25 * width) * (lam**2 + mu**2) * (4.0 * constant)


def _eq14(width, da, db):
    return width / 4.0 * (0.5 * da + 0.5 * db)  # scaled before the sum, as in _sconvex_abs


def _eq15(width, p, q, da, db):
    c, rq = _max_power(da, db, q)
    inner = (1.0 + 3.0 * rq) ** (1.0 / q) + (3.0 + rq) ** (1.0 / q)
    return width / 16.0 * (4.0 / (p + 1.0)) ** (1.0 / p) * c * inner


def _eq16(width, p, da, db):
    # (b-a)/4 (4/(p+1))^(1/p) (da + db), scaled before the sum, as in _sconvex_abs
    return width / 2.0 * (4.0 / (p + 1.0)) ** (1.0 / p) * (0.5 * da + 0.5 * db)


def kernel_moment_bracket(r: float, s: float) -> float:
    """2(s+1) r^(s+2) - (s+2) r^(s+1) + 1 for r in [0, 1].

    This is (s+1)(s+2) times the integral of |kernel| against the s-convex
    weight on one branch; it is the symmetric form used in the bound
    statement (an equivalent asymmetric form appears only as a test oracle).
    """
    return 2.0 * (s + 1.0) * r ** (s + 2.0) - (s + 2.0) * r ** (s + 1.0) + 1.0


_MAGNITUDES = ("da", "db", "dx", "M")
_NARROW, _SCALE = 2.0**-960, 2.0**512


def _least(v):
    """v, or the least element of the array v, by one reduction."""
    return np.minimum.reduce(v, axis=None) if isinstance(v, np.ndarray) else v


def _up(small):
    """2**512 where small holds, else 1.0; elementwise for an array."""
    return np.where(small, _SCALE, 1.0) if isinstance(small, np.ndarray) else _SCALE if small else 1.0


@dataclass(frozen=True)
class Theorem:
    """One bound: its tag, the inputs it takes beyond [a, b] in the order
    its result echoes them, whether it needs a >= 0, and its array formula.

    ``reads`` is the formula's parameter names, the width first.
    ``required`` is what a caller must give: the inputs, less q where p is
    one of them, since p comes as a ConjugatePair that brings its own q.
    """

    tag: str
    inputs: Tuple[str, ...]
    nonnegative: bool
    formula: Callable
    reads: Tuple[str, ...] = field(init=False, repr=False)
    required: Tuple[str, ...] = field(init=False, repr=False)
    _args: Callable = field(init=False, repr=False, compare=False)
    _mags: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        code = self.formula.__code__
        reads = code.co_varnames[: code.co_argcount]
        object.__setattr__(self, "reads", reads)
        object.__setattr__(self, "required", tuple(
            name for name in self.inputs if not (name == "q" and "p" in self.inputs)))
        # every formula reads at least two values, so this returns a tuple
        object.__setattr__(self, "_args", itemgetter(*reads))
        object.__setattr__(self, "_mags", tuple(i for i, r in enumerate(reads) if r in _MAGNITUDES))

    def bound(self, values: Mapping):
        """The formula at the named values it reads; arrays broadcast.

        Every formula is b - a times a factor free of it. A width below 2**-960
        is scaled up by 2**512, so that its products with the constants and the
        offsets keep their bits, and the bound back down with one rounding at
        most; such a bound is below 2**-960 * 2**1024 times a constant under 8,
        so no product of the scaled formula leaves the range. Every formula is
        also homogeneous of degree 1 in the magnitudes it reads, taken together,
        and they are scaled up alike where the largest is below 2**-960: a
        subnormal |f'| would otherwise lose its bits to the constants before the
        width brings the bound back into the normal range. Both act row by row,
        on copies, and each is divided back out alone: 2**1024 never forms. A
        factor is built only when some row needs it, so a block whose first
        magnitude holds a zero, but no small maximum, pays for no copies.
        """
        args = self._args(values)
        width, first = args[0], args[self._mags[0]]
        if type(width) is float and type(first) is float:  # plain comparisons, no reductions
            if not (width < _NARROW or first < _NARROW):
                return self.formula(*args)
        elif not (_least(width) < _NARROW or _least(first) < _NARROW):
            return self.formula(*args)
        # a factor only where some row needs it: an unscaled row's bits are the same either way
        args, factors = list(args), []
        for scaled, small in (((0,), width < _NARROW),
                              (self._mags, reduce(np.maximum, [args[i] for i in self._mags]) < _NARROW)):
            if small.any() if isinstance(small, np.ndarray) else small:
                up = _up(small)
                factors.append(up)
                for i in scaled:
                    args[i] = args[i] * up
        value = self.formula(*args)
        for up in factors:
            value = value / up
        return value


# tag, inputs in echo order, whether a >= 0 is needed, formula
THEOREMS = {t.tag: t for t in (
    Theorem("t20", ("x", "s", "da", "db"), True, _sconvex_abs),
    Theorem("t20-mid", ("s", "da", "db"), True, _sconvex_abs_mid),
    Theorem("teo1", ("x", "s", "p", "q", "da", "db"), True, _holder_split),
    Theorem("t21", ("x", "s", "p", "q", "da", "dx", "db"), True, _holder_hadamard),
    Theorem("e5", ("p", "q", "da", "db"), True, _e5),
    Theorem("z", ("x", "s", "p", "q", "da", "db"), True, _holder_global),
    Theorem("t22", ("x", "s", "q", "da", "db"), True, _power_mean),
    Theorem("t22-mid", ("q", "da", "db"), True, _power_mean_mid),
    Theorem("eq11", ("x", "M"), False, _classic),
    Theorem("ee", ("x", "s", "p", "q", "M"), True, _alomari),
    Theorem("eq14", ("da", "db"), False, _eq14),
    Theorem("eq15", ("da", "db", "p", "q"), False, _eq15),
    Theorem("eq16", ("da", "db", "p", "q"), False, _eq16),
)}


def _choice(table: Mapping, name: str, what: str):
    """table[name]; an unknown tag or variant raises DomainError listing the names."""
    if name not in table:
        raise DomainError(f"unknown {what} {name!r}; expected one of {tuple(table)}")
    return table[name]


def _exponents(theorem: Theorem, name: str, p, q) -> dict:
    """The exponents theorem takes, from p and q, each one given checked
    whether theorem takes it or not: p a ConjugatePair or a float made one, q
    a finite exponent >= 1 (name says whose). With p, the pair's own q."""
    if p is not None and not isinstance(p, ConjugatePair):
        p = make_conjugate(p)
    if q is not None:
        q = _require_exponent(q, name)
    if p is not None and "p" in theorem.inputs:
        return {"p": p.p, "q": p.q}
    return {"q": q} if q is not None and "q" in theorem.inputs else {}


def evaluate(
    tag: str,
    iv: Interval,
    *,
    x: Optional[float] = None,
    s: Optional[float] = None,
    p: Union[ConjugatePair, float, None] = None,
    q: Optional[float] = None,
    da: Optional[float] = None,
    db: Optional[float] = None,
    dx: Optional[float] = None,
    M: Optional[float] = None,
) -> BoundResult:
    """The bound THEOREMS[tag] on iv, its inputs echoed after a and b.

    Every given input is checked by its kind, whether the theorem reads it
    or not: x must lie in [a, b], s in (0, 1], the exponents as
    :func:`_exponents` states, and da, db, dx and M finite magnitudes >= 0.
    An unknown tag or a missing input the theorem needs raises DomainError
    naming it; a bound beyond double precision raises OverflowError.
    """
    theorem = _choice(THEOREMS, tag, "theorem tag")
    if theorem.nonnegative:
        iv.require_nonnegative()
    values = {"width": iv.width}
    if x is not None:
        values["x"] = x = validate_eval_point(iv, x)
        values["lam"], values["mu"] = _offsets(iv, x)
    if s is not None:
        values["s"] = _require_s(s)
    values.update(_exponents(theorem, tag, p, q))
    for key, value in zip(_MAGNITUDES, (da, db, dx, M)):
        if value is not None:
            values[key] = _require_magnitude(key, value)
    for key in theorem.required:
        if key not in values:
            raise DomainError(f"{tag} requires the input {key!r}")
    inputs = {"a": iv.a, "b": iv.b}
    for key in theorem.inputs:
        inputs[key] = values[key]
    return BoundResult(value=theorem.bound(values), theorem_id=tag, inputs=inputs)


_MIDPOINT = {"lam": 0.5, "mu": 0.5}  # the offsets of x = (a+b)/2


def _missing(theorem: Theorem, fixed: Mapping, p, q) -> Optional[str]:
    """The exponent, p or q, theorem needs that neither fixed nor the caller gives, or None."""
    if p is None and "p" in theorem.required and "p" not in fixed:
        return "p"
    if q is None and "q" in theorem.required and "q" not in fixed:
        return "q"
    return None


def _variant(table: Mapping, name: str, what: str, p, q) -> Tuple[Theorem, dict]:
    """(theorem, values) of a variant in table, which maps each to (Theorem,
    fixed inputs): the fixed inputs over the exponents given, checked as
    _exponents checks them. An unknown name or a missing exponent raises."""
    theorem, fixed = _choice(table, name, what)
    if key := _missing(theorem, fixed, p, q):
        raise DomainError(f"variant {name} requires the exponent {key}")
    return theorem, {**_exponents(theorem, f"variant {name}", p, q), **fixed}


def bound_sconvex_abs(iv: Interval, x: float, s: float, ep: EndpointData) -> BoundResult:
    """(b-a)/((s+1)(s+2)) * [B(lam) |f'(a)| + B(mu) |f'(b)|].

    B is :func:`kernel_moment_bracket`. Requires |f'| itself s-convex.
    """
    return evaluate("t20", iv, x=x, s=s, da=ep.da, db=ep.db)


def midpoint_sconvex_abs(iv: Interval, s: float, ep: EndpointData) -> BoundResult:
    """(b-a)/((s+1)(s+2)) * (1 - 2^-(s+1)) * (|f'(a)| + |f'(b)|).

    Midpoint specialization of :func:`bound_sconvex_abs`, implemented from
    its own closed form.
    """
    return evaluate("t20-mid", iv, s=s, da=ep.da, db=ep.db)


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
    return evaluate("teo1", iv, x=x, s=s, p=cp, da=ep.da, db=ep.db)


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
    return evaluate("t21", iv, x=x, s=s, p=cp, da=ep.da, dx=ep.dx, db=ep.db)


def midpoint_e5(iv: Interval, cp: ConjugatePair, ep: EndpointData) -> BoundResult:
    """(b-a)/(p+1)^(1/p) * (|f'(a)| + |f'(b)|)/4.

    Midpoint form under equal derivative samples; sharper than the eq16
    baseline by exactly the factor 4^(-1/p).
    """
    return evaluate("e5", iv, p=cp, da=ep.da, db=ep.db)


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
    return evaluate("z", iv, x=x, s=s, p=cp, da=ep.da, db=ep.db)


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
    return evaluate("t22", iv, x=x, s=s, q=q, da=ep.da, db=ep.db)


def midpoint_power_mean(iv: Interval, q: float, ep: EndpointData) -> BoundResult:
    """(b-a)/8 * (1/3)^(1/q) * [(da^q + 3 db^q)^(1/q) + (3 da^q + db^q)^(1/q)].

    Stated midpoint companion of :func:`bound_power_mean` at s = 1,
    implemented literally as displayed. Note: the general bound specialized
    to the midpoint carries inner weights (1, 2), not the (1, 3) written
    here, so the two do not coincide; this form is the weaker of the two.
    """
    return evaluate("t22-mid", iv, q=q, da=ep.da, db=ep.db)
