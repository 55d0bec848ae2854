"""Shared value types and validation for the bound library.

Everything in this module is an immutable value type: intervals, conjugate
exponent pairs, endpoint derivative data, function handles, and the
result/record containers returned by every other module. Construction
validates; a successfully built object is safe to share between threads.

Each kind of scalar hypothesis has one checker here, which every module
calls: _require_s for the order s in (0, 1] of s-convexity,
_require_magnitude for a derivative magnitude |f'(.)| or a sup bound M,
finite and >= 0, and _require_positive for a tolerance or an argument of a
mean, finite and > 0.

All arithmetic is double precision. Inequality checks performed elsewhere
compare with a small absolute slack (default 1e-12) because the underlying
inequalities are exact in real arithmetic but evaluated in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "Interval",
    "ConjugatePair",
    "EndpointData",
    "Function1D",
    "BoundResult",
    "VerificationRecord",
    "make_conjugate",
    "validate_eval_point",
    "DEFAULT_TOL",
]

#: Default absolute slack for floating-point inequality verification.
DEFAULT_TOL = 1e-12


class DomainError(ValueError):
    """An argument falls outside an operation's domain."""


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget before reaching its target."""


def _raise_overflow(kind: str, flag: int) -> None:
    raise OverflowError("a value overflowed double precision")


def _overflow_raises() -> np.errstate:
    """A context in which a numpy overflow raises OverflowError instead of
    printing a RuntimeWarning; the other floating-point errors keep their
    handling. Entered around an evaluator call, never per element."""
    return np.errstate(over="call", call=_raise_overflow)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b strictly and a finite width b - a.

    Degenerate intervals (a == b) are rejected; every bound divides by the
    width. Operations that need the s-convex domain a >= 0 call
    :meth:`require_nonnegative`.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _require_finite("a", self.a))
        object.__setattr__(self, "b", _require_finite("b", self.b))
        if not self.a < self.b:
            raise DomainError("interval requires a < b")
        if not math.isfinite(self.b - self.a):  # every bound multiplies by the width
            raise DomainError(f"interval width b - a must be finite, got {self.b - self.a!r}")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b

    def require_nonnegative(self) -> None:
        """Reject intervals extending below zero (s-convexity context)."""
        if self.a < 0.0:
            raise DomainError(
                f"operation requires an interval in [0, inf), got a={self.a!r}"
            )


@dataclass(frozen=True)
class ConjugatePair:
    """Conjugate exponents p, q > 1 with 1/p + 1/q = 1."""

    p: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _require_finite("p", self.p))
        object.__setattr__(self, "q", _require_finite("q", self.q))
        if self.p <= 1.0 or self.q <= 1.0:
            raise DomainError("conjugate exponents require p > 1 and q > 1")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
            raise DomainError(
                f"exponents are not conjugate: 1/{self.p} + 1/{self.q} != 1"
            )


def make_conjugate(p: float) -> ConjugatePair:
    """Build the conjugate pair (p, p/(p-1)) from a single exponent p > 1."""
    p = _require_finite("p", p)
    if p <= 1.0:
        raise DomainError(f"conjugate exponent requires p > 1, got {p!r}")
    return ConjugatePair(p, p / (p - 1.0))


def _require_exponent(q: float, what: str) -> float:
    """An exponent q given to a named bound, checked finite and >= 1; what names the bound."""
    q = float(q)
    if not (math.isfinite(q) and q >= 1.0):
        raise DomainError(f"{what} requires a finite q >= 1, got {q!r}")
    return q


def _require_s(s: float) -> float:
    """The order s of s-convexity, checked in (0, 1]; s = 1 is ordinary convexity."""
    s = _require_finite("s", s)
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    return s


def _require_magnitude(name: str, value: float) -> float:
    """A derivative magnitude, say |f'(a)| or a sup bound M, checked finite and >= 0."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be a finite magnitude >= 0, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    """A tolerance or an argument of a mean, checked finite and > 0."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive real, got {value!r}")
    return value


@dataclass(frozen=True)
class EndpointData:
    """Derivative magnitudes |f'(a)|, |f'(b)| and optionally |f'(x)|.

    Bounds consume derivative magnitudes as data rather than a function so
    sweep harnesses can inject exact values.
    """

    da: float
    db: float
    dx: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "da", _require_magnitude("da", self.da))
        object.__setattr__(self, "db", _require_magnitude("db", self.db))
        if self.dx is not None:
            object.__setattr__(self, "dx", _require_magnitude("dx", self.dx))


@dataclass(frozen=True)
class Function1D:
    """A real function with an optional exact first-derivative evaluator.

    ``f`` and ``df`` map a float or a float ndarray of any shape to values
    of that shape, pointwise. Callers use ``fn(t)`` and ``fn.deriv(t)``, not
    ``f`` or ``df``: they also broadcast a constant to the shape of t.
    """

    f: Callable
    df: Optional[Callable] = None
    label: str = ""

    def __call__(self, t):
        return _shaped(self.f(t), t)

    def deriv(self, t):
        if self.df is None:
            raise DomainError(
                f"function {self.label or '<anonymous>'} has no derivative evaluator"
            )
        return _shaped(self.df(t), t)


def _shaped(value, t):
    """value, broadcast to the shape of t when an evaluator returned a constant."""
    shape = getattr(t, "shape", ())
    return value if getattr(value, "shape", ()) == shape else np.full(shape, value, dtype=float)


@dataclass(frozen=True)
class BoundResult:
    """Computed right-hand side of one bound, with the inputs echoed back.

    ``theorem_id`` is the stable tag used by the CLI and reports (e.g. "t20",
    "teo1", "e5"). Values are always finite and nonnegative: a value that is
    not finite raises OverflowError, a negative one DomainError.
    """

    value: float
    theorem_id: str
    inputs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.value) is float and 0.0 <= self.value < math.inf:
            return  # the common case: nothing to convert or reject
        object.__setattr__(self, "value", float(self.value))
        # every input of a bound is checked finite: only an overflow makes it inf or nan
        if not math.isfinite(self.value):
            raise OverflowError(f"bound {self.theorem_id} overflowed double precision")
        if self.value < 0.0:
            raise DomainError(
                f"bound {self.theorem_id} produced invalid value {self.value!r}"
            )


@dataclass(frozen=True)
class VerificationRecord:
    """One checked inequality: holds iff lhs <= rhs + tol.

    The slack used for the comparison is recorded in ``context`` so a record
    is self-describing. ``margin`` is rhs - lhs; a negative margin beyond the
    slack means the inequality failed.
    """

    lhs: float
    rhs: float
    holds: bool
    margin: float
    context: str

    @classmethod
    def check(
        cls, lhs: float, rhs: float, tol: float = DEFAULT_TOL, context: str = ""
    ) -> "VerificationRecord":
        lhs = float(lhs)
        rhs = float(rhs)
        return cls(
            lhs=lhs,
            rhs=rhs,
            holds=bool(lhs <= rhs + tol),
            margin=rhs - lhs,
            context=f"{context} [tol={tol:g}]",
        )


def validate_eval_point(iv: Interval, x: float) -> float:
    """Check a <= x <= b (endpoints allowed) and return x."""
    x = _require_finite("x", x)
    if not iv.contains(x):
        raise DomainError(
            f"evaluation point x={x!r} outside interval [{iv.a!r}, {iv.b!r}]"
        )
    return x
