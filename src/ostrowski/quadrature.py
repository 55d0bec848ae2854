"""Composite midpoint rule with certified error bounds.

The rule T(f, d) sums panel-width times the midpoint value over a
partition d. Its error against the true integral is bounded per panel from
the endpoint derivative magnitudes alone: panel i contributes its width
times a midpoint deviation bound on that panel, in one of three variants:

  p4: e5, p > 1
  p5: z at the midpoint with s = 1 and p = q = 2
  p6: t22-mid, q >= 1

certified_integrate doubles a uniform partition until the selected bound
meets the target, so the schedule is deterministic; adaptive splitting is
deliberately out of scope. Derivative values at nodes always come from the
exact derivative evaluator, never from differencing.

Both the panel bounds and the midpoint terms are summed by _fsum: repeated
error-free halvings of the array (TwoSum, as in Ogita, Rump and Oishi,
SIAM J. Sci. Comput. 26:1955, 2005) and one math.fsum over what is left.
The result is math.fsum's to the bit, correctly rounded, at numpy speed
and without a Python list the length of the partition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import _e5, _holder_global, _power_mean_mid
from .core import (
    ConvergenceError,
    DomainError,
    Function1D,
    Interval,
    _require_exponent,
    make_conjugate,
)
from .toolkit import reference_integrate

__all__ = [
    "Partition",
    "QuadReport",
    "composite_midpoint",
    "midpoint_error_bound",
    "certified_integrate",
    "ERROR_BOUND_VARIANTS",
]

ERROR_BOUND_VARIANTS = ("p4", "p5", "p6")

#: Default cap on uniform panels for certified integration.
DEFAULT_PANEL_BUDGET = 2**20


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing nodes x_0 < x_1 < ... < x_n, n >= 1, held as a
    read-only float ndarray copy; equality is identity."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise DomainError("a partition needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise DomainError("partition nodes must be finite")
        if np.any(nodes[1:] <= nodes[:-1]):
            raise DomainError("partition nodes must be strictly increasing")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, iv: Interval, n: int) -> "Partition":
        if n < 1:
            raise DomainError(f"panel count must be >= 1, got {n!r}")
        return cls(np.linspace(iv.a, iv.b, n + 1))

    @property
    def n_panels(self) -> int:
        return len(self.nodes) - 1

    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])


@dataclass(frozen=True)
class QuadReport:
    """Certified midpoint-rule result.

    ``true_error`` is filled only in verification mode, where the reference
    integrator supplies the actual error; ``certified_ok`` then states
    whether |true_error| <= error_bound + 1e-9.
    """

    approx: float
    error_bound: float
    variant: str
    panels: int
    true_error: Optional[float] = None

    @property
    def certified_ok(self) -> Optional[bool]:
        if self.true_error is None:
            return None
        return abs(self.true_error) <= self.error_bound + 1e-9


#: Arrays this short go straight to math.fsum, and _fsum stops halving here.
_FSUM_DIRECT = 256


def _fsum(x: np.ndarray) -> float:
    """math.fsum(x) for a 1-D float64 array, without a Python float per value.

    Each level adds the front half of the array to the back half with
    Knuth's TwoSum, which also yields each sum's rounding error exactly, so
    the halved array plus the errors holds the same exact total. The errors
    of one pass are halved again in the next, until they are all zero or
    short. Panel sums need two passes; data spread over hundreds of binades
    needs more, since each pass only shrinks the largest error by about
    n * 2**-53. The leftovers go through one math.fsum, which rounds their
    exact total, the exact total of x, as math.fsum(x) does.

    Where some partial sum might overflow (n * max|x| >= 2**1023) or x holds
    inf or nan, x goes to math.fsum whole, so the result or exception is
    exactly math.fsum's.
    """
    n = x.size
    if n <= _FSUM_DIRECT or not max(-float(x.min()), float(x.max())) < 2.0**1023 / n:
        return math.fsum(x.tolist())
    terms = []
    y = x.copy()  # halved in place; each pass writes its errors over its front
    s_bufs = (np.empty(n // 2), np.empty(n // 4))
    z_buf = np.empty(n // 2)
    while y.any():
        if y.size <= _FSUM_DIRECT:
            terms.extend(y.tolist())
            break
        rest, done, level = y, 0, 0
        while rest.size > _FSUM_DIRECT:
            if rest.size % 2:
                terms.append(float(rest[-1]))
                rest = rest[:-1]
            h = rest.size // 2
            u, v = rest[:h], rest[h:]
            s = np.add(u, v, out=s_bufs[level % 2][:h])
            z = np.subtract(s, u, out=z_buf[:h])
            np.subtract(v, z, out=v)
            np.subtract(s, z, out=z)
            np.subtract(u, z, out=z)
            np.add(z, v, out=y[done : done + h])  # (u - (s - z)) + (v - z)
            rest, done, level = s, done + h, level + 1
        terms.extend(rest.tolist())
        y = y[:done]
    return math.fsum(terms)


def composite_midpoint(fn: Function1D, d: Partition) -> float:
    """sum of f(panel midpoint) * panel width, rounded once as math.fsum
    rounds it. A term or a sum beyond double precision raises OverflowError."""
    terms = fn(d.midpoints())
    with np.errstate(over="ignore"):  # checked just below
        terms = terms * d.widths()  # not in place: fn may return an array it keeps
    if not -np.inf < terms.min() <= terms.max() < np.inf:  # NaN fails too; no bool array
        raise OverflowError("a composite midpoint term is not finite")
    return _fsum(terms)


def midpoint_error_bound(
    d: Partition,
    dvals: Sequence[float],
    variant: str,
    p: Optional[float] = None,
    q: Optional[float] = None,
) -> float:
    """Error bound for the composite midpoint rule from node |f'| values.

    ``dvals`` holds |f'| at every partition node, in node order; each panel
    term uses only its own two endpoints. A panel bound beyond double
    precision makes the result inf or nan, with no numpy warning; finite
    panel bounds whose sum overflows raise OverflowError, as math.fsum does.
    """
    if variant not in ERROR_BOUND_VARIANTS:
        raise DomainError(
            f"unknown error-bound variant {variant!r}; "
            f"expected one of {ERROR_BOUND_VARIANTS}"
        )
    dv = np.asarray(dvals, dtype=float)
    if dv.shape != (len(d.nodes),):
        raise DomainError(
            f"need one |f'| value per node: got {dv.shape[0] if dv.ndim == 1 else dv.shape} "
            f"values for {len(d.nodes)} nodes"
        )
    if np.any(dv < 0.0) or not np.all(np.isfinite(dv)):
        raise DomainError("derivative magnitudes must be finite and nonnegative")

    w = d.widths()
    lo, hi = dv[:-1], dv[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan reaches the result
        if variant == "p4":
            if p is None:
                raise DomainError("variant p4 requires the exponent p")
            per_panel = _e5(w, make_conjugate(p).p, lo, hi)
        elif variant == "p5":
            per_panel = _holder_global(w, 0.5, 0.5, 1.0, 2.0, 2.0, lo, hi)
        else:  # p6
            if q is None:
                raise DomainError("variant p6 requires the exponent q")
            per_panel = _power_mean_mid(w, _require_exponent(q, "variant p6"), lo, hi)
        per_panel *= w  # in place: one panel-sized array fewer at the peak
    del w  # and the widths go before _fsum allocates its buffers
    return _fsum(per_panel)


def certified_integrate(
    fn: Function1D,
    iv: Interval,
    target: float,
    variant: str,
    p: Optional[float] = None,
    q: Optional[float] = None,
    *,
    verify: bool = False,
) -> QuadReport:
    """Refine a uniform partition until the selected bound meets target.

    Starts at one panel and doubles. The bound decays like 1/n, so a very
    small target is expensive; exhausting DEFAULT_PANEL_BUDGET raises
    ConvergenceError rather than silently truncating. A bound that is not
    finite counts as unmet, since finer panels may bring it into range; if
    it is still not finite when the budget runs out, OverflowError is
    raised instead. With verify=True the reference integrator fills in the
    actual error; a certificate violation is reported as a warning, not an
    exception, so it can be logged and examined.
    """
    if not target > 0.0:
        raise DomainError(f"target must be positive, got {target!r}")

    n = 1
    while True:
        d = Partition.uniform(iv, n)
        bound = midpoint_error_bound(d, np.abs(fn.deriv(d.nodes)), variant, p=p, q=q)
        if bound <= target:
            break
        if 2 * n > DEFAULT_PANEL_BUDGET:
            if not math.isfinite(bound):
                raise OverflowError(f"the midpoint error bound is still {bound} at n={n} panels")
            raise ConvergenceError(
                f"certified bound still {bound:g} > target {target:g} at "
                f"n={n} panels (budget {DEFAULT_PANEL_BUDGET})"
            )
        n *= 2

    approx = composite_midpoint(fn, d)
    true_error = None
    if verify:
        true_error = reference_integrate(fn, iv, 1e-12 * iv.width) - approx
    report = QuadReport(
        approx=approx,
        error_bound=bound,
        variant=variant,
        panels=n,
        true_error=true_error,
    )
    if report.certified_ok is False:
        warnings.warn(
            f"certificate violated: |true error| {abs(true_error):g} > "
            f"bound {bound:g} for {fn.label or '<anonymous>'} ({variant})",
            RuntimeWarning,
            stacklevel=2,
        )
    return report
