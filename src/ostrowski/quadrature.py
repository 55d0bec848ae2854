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


def composite_midpoint(fn: Function1D, d: Partition) -> float:
    """sum of f(panel midpoint) * panel width, compensated summation."""
    return math.fsum((fn(d.midpoints()) * d.widths()).tolist())


def midpoint_error_bound(
    d: Partition,
    dvals: Sequence[float],
    variant: str,
    p: Optional[float] = None,
    q: Optional[float] = None,
) -> float:
    """Error bound for the composite midpoint rule from node |f'| values.

    ``dvals`` holds |f'| at every partition node, in node order; each panel
    term uses only its own two endpoints.
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
    return math.fsum(per_panel.tolist())


def certified_integrate(
    fn: Function1D,
    iv: Interval,
    target: float,
    variant: str,
    p: Optional[float] = None,
    q: Optional[float] = None,
    max_panels: Optional[int] = None,
    verify: bool = False,
) -> QuadReport:
    """Refine a uniform partition until the selected bound meets target.

    Starts at one panel and doubles. The bound decays like 1/n, so a very
    small target is expensive; exhausting max_panels raises
    ConvergenceError rather than silently truncating. With verify=True the
    reference integrator fills in the actual error; a certificate violation
    is reported as a warning, not an exception, so it can be logged and
    examined.
    """
    if not target > 0.0:
        raise DomainError(f"target must be positive, got {target!r}")
    if max_panels is None:
        max_panels = DEFAULT_PANEL_BUDGET

    n = 1
    while True:
        d = Partition.uniform(iv, n)
        bound = midpoint_error_bound(d, np.abs(fn.deriv(d.nodes)), variant, p=p, q=q)
        if bound <= target:
            break
        if 2 * n > max_panels:
            raise ConvergenceError(
                f"certified bound still {bound:g} > target {target:g} at "
                f"n={n} panels (budget {max_panels})"
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
