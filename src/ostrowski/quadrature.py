"""Composite midpoint rule with certified error bounds.

The rule T(f, d) sums panel-width times the midpoint value over a
partition d. Its error against the true integral is bounded per panel from
the endpoint derivative magnitudes alone: panel i contributes its width
times a midpoint deviation bound on that panel, in one of three variants;
as for every named bound, each exponent given is checked, read or not,
once per call and before any |f'| is evaluated:

  p4: e5, p > 1
  p5: z at the midpoint with s = 1 and p = q = 2
  p6: t22-mid, q >= 1

certified_integrate doubles a uniform partition until the selected bound
meets the target, so the schedule is deterministic; adaptive splitting is
deliberately out of scope. Derivative values at nodes always come from the
exact derivative evaluator, never from differencing. A numpy overflow in an
evaluator raises OverflowError; a NaN it returns is a DomainError.

Both the panel bounds and the midpoint terms are summed by _fsum: error-free
extraction over blocks of the array (ExtractVector in Rump, Ogita and Oishi,
"Accurate floating-point summation part I: faithful rounding", SIAM J. Sci.
Comput. 31:189, 2008), each step summed exactly by numpy. The sum stops at
the first step that decides its rounding, as the algorithms of that paper
and its part II (31:1269) do: the first step splits every block by one
constant sigma, from the largest magnitude of the array, and also sums
each block's remainders, each at most 2**-53 sigma, in numpy. Those sums
are the only inexact ones, off by at most E = sum over blocks of
2 k**2 2**-106 sigma in all (Higham's gamma_{k-1}, k the block size); E is
formed from the integer sum of the 2 k**2 by one ldexp, so it does not
underflow, and taken one double up. If math.fsum rounds the totals and
remainder sums less E, and plus E, to the same double, the exact sum,
which lies between the two, rounds to it as well: rounding is monotone.
Otherwise each block is split again until its remainder is zero, and one
math.fsum over the step totals rounds the exact total. Either way the
result is math.fsum's to the bit, correctly rounded, at numpy speed, with
one block-sized buffer and without a Python list the length of the
partition; the proof is in _fsum's docstring.

certified_integrate fills each level's panel terms as midpoint_error_bound
does, one block of _BLOCK panels at a time, and evaluates |f'| at a block's
nodes only when it reaches the block. It keeps numpy's running sum r of the
k terms read so far and runs _fsum only where r cannot decide the level.
The terms are nonnegative, so any summation order of k of them has a
rounding error of at most gamma_{k-1} S_k, S_k their exact sum and
gamma_k = ku/(1 - ku), u = 2**-53 (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sec. 4.2); overflow aside, every partial sum
rounds as in that bound, the subnormal range included. A level is rejected
at the first block where r is finite, below 2**1023, and above
t (1 + (2k + 4)u) computed in floating point, with t the larger of target
and the smallest normal double. Then

  r > fl(t (1 + (2k + 4)u)) >= t (1 + (2k + 4)u)(1 - u)
    >= t (1 + 2u) / (1 - (k - 1)u) = t (1 + 2u)(1 + gamma_{k-1}),

the last inequality holding for k <= 2**52; and t (1 + 2u) is at least the
double after target, for a normal target and for a subnormal one, whose
successor is at most the smallest normal. So S_k >= r / (1 + gamma_{k-1})
exceeds the double after target, the unread terms are nonnegative or not
finite, and the sum _fsum would return for the whole level is above target
or not finite: the level would have been rejected all the same. A level no
prefix proves is read whole and goes to _fsum as before; so does the one at
the panel budget, which is read without a target. That takes in the
returned level and any whose rough sum is inf, nan or at least 2**1023,
where the exact sum may overflow and must raise. So the reported bits are
those of calling midpoint_error_bound at every level, and so are the
evaluations and the exceptions of every block that is read. A rejected
level's unread blocks are neither evaluated nor checked: a NaN |f'| there,
or an exact sum that would overflow only past the proving prefix, raises
nothing.

The per-panel terms are filled in blocks of _BLOCK panels, from a stream of
each block's nodes (with |f'| at them, for the bound). Whole-partition
temporaries, four to eight per doubling level, would each be fresh memory
that page-faults on first touch; a block's temporaries are small enough for
the allocator to recycle while they are still in cache. composite_midpoint
and midpoint_error_bound cut their blocks from a Partition's nodes.
certified_integrate builds no Partition: each block of a level's nodes is
formed when it is read, with np.linspace's arithmetic, so the nodes are
Partition.uniform's to the bit, and formed again for the returned level's
midpoint sum. Before any |f'| of a level is evaluated, its nodes are proved
finite and strictly increasing from (a, b, n) alone, which holds wherever a
panel spans more than 8 ulps of max(|a|, |b|); where that proof does not
apply, one pass forms and checks the nodes block by block, without keeping
them, and raises as Partition.uniform would. Every term is elementwise, and
so is every evaluator, so the terms, their sums and every
certified_integrate result are the same bits as in one pass over a
Partition.uniform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .bounds import _MIDPOINT, THEOREMS, Theorem, _variant
from .core import (
    ConvergenceError,
    DomainError,
    Function1D,
    Interval,
    _overflow_raises,
    _require_positive,
)
from .toolkit import oracle_integral

__all__ = [
    "Partition",
    "QuadReport",
    "composite_midpoint",
    "midpoint_error_bound",
    "certified_integrate",
    "ERROR_BOUND_VARIANTS",
]

#: variant -> (the midpoint bound each panel evaluates, the inputs the variant
#: fixes); each panel gives its width and its endpoint |f'| values as da and db
_PANEL_BOUNDS = {
    "p4": (THEOREMS["e5"], {}),
    "p5": (THEOREMS["z"], {**_MIDPOINT, "s": 1.0, "p": 2.0, "q": 2.0}),
    "p6": (THEOREMS["t22-mid"], {}),
}
ERROR_BOUND_VARIANTS = tuple(_PANEL_BOUNDS)

#: Default cap on uniform panels for certified integration.
DEFAULT_PANEL_BUDGET = 2**20


def _frozen_nodes(nodes: np.ndarray) -> np.ndarray:
    """nodes, checked to be valid partition nodes and made read-only."""
    if nodes.ndim != 1 or len(nodes) < 2:
        raise DomainError("a partition needs at least two nodes")
    _check_nodes(_slices(nodes))
    nodes.flags.writeable = False
    return nodes


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing nodes x_0 < x_1 < ... < x_n, n >= 1, held as a
    read-only float ndarray copy; equality is identity."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _frozen_nodes(np.array(self.nodes, dtype=float)))

    @classmethod
    def uniform(cls, iv: Interval, n: int) -> "Partition":
        if n < 1:
            raise DomainError(f"panel count must be >= 1, got {n!r}")
        # linspace's array is referenced nowhere else, so it is frozen in
        # place rather than copied by __post_init__
        d = object.__new__(cls)
        object.__setattr__(d, "nodes", _frozen_nodes(np.linspace(iv.a, iv.b, n + 1)))
        return d

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

    ``true_error`` is filled only in verification mode, where oracle_integral
    supplies the actual error; ``certified_ok`` then states whether
    |true_error| <= error_bound + slack. ``slack`` is 1e-9, plus the excess
    oracle_integral returned with the reference true_error is taken from.
    """

    approx: float
    error_bound: float
    variant: str
    panels: int
    true_error: Optional[float] = None
    slack: float = 1e-9

    @property
    def certified_ok(self) -> Optional[bool]:
        if self.true_error is None:
            return None
        return abs(self.true_error) <= self.error_bound + self.slack


#: The unit roundoff of double precision, and the smallest normal double.
_U, _TINY = 2.0**-53, float(np.finfo(float).tiny)

#: Arrays this short go straight to math.fsum, which is the faster of the
#: two up to about 800 values: an extraction costs a few dozen numpy calls.
_FSUM_DIRECT = 512

#: Values per block in _fsum: a block and its buffer stay in cache through
#: the passes of every extraction step. _FSUM_M is the smallest M with
#: 2**M >= _FSUM_BLOCK + 2.
_FSUM_BLOCK = 2**15
_FSUM_M = (_FSUM_BLOCK + 1).bit_length()

#: Panels per block in composite_midpoint and midpoint_error_bound: a block's
#: float arrays take 64 KiB each, so the allocator hands the same cache-warm
#: memory back block after block instead of fresh pages at every level.
_BLOCK = 8192


def _slices(x: np.ndarray) -> Iterator[np.ndarray]:
    """x cut into the nodes of each block of _BLOCK panels in turn: views of
    _BLOCK + 1 values or fewer, each starting at the last of the one before."""
    return (x[i : i + _BLOCK + 1] for i in range(0, x.size - 1, _BLOCK))


def _uniform_blocks(iv: Interval, n: int) -> Iterator[np.ndarray]:
    """The blocks _slices cuts from np.linspace(iv.a, iv.b, n + 1), each
    formed when it is asked for, with linspace's own arithmetic, so bit for
    bit: node k is k * step + a with step = (b - a) / n, or k / n * (b - a) + a
    where step underflows to 0, and the last node is b."""
    a, b = iv.a, iv.b
    delta = b - a
    step = delta / n
    for i in range(0, n, _BLOCK):
        x = np.arange(i, min(i + _BLOCK, n) + 1, dtype=float)
        if step:
            x *= step
        else:
            x /= n
            x *= delta
        x += a
        if i + _BLOCK >= n:
            x[-1] = b
        yield x


def _check_nodes(blocks: Iterable[np.ndarray]) -> None:
    """Raise DomainError unless the nodes of all blocks are finite and, then,
    strictly increasing; each block starts at the last node of the one before."""
    increasing = True
    for x in blocks:
        if not -np.inf < x.min() <= x.max() < np.inf:  # NaN fails too; no bool array
            raise DomainError("partition nodes must be finite")
        increasing = increasing and not np.any(x[1:] <= x[:-1])
    if not increasing:
        raise DomainError("partition nodes must be strictly increasing")


def _check_uniform(iv: Interval, n: int) -> None:
    """Raise as Partition.uniform(iv, n) would, without storing its nodes.

    With M = max(|a|, |b|) in (2**-960, 2**1020) and G = 4 ulp(M), every
    value _uniform_blocks forms is below 4M in magnitude, where doubles are
    at most G apart, so its two roundings leave node k within G of
    k * step + a. step is (b - a) / n rounded twice in the normal range, so
    n * step <= b - a + G. Where step > 2G, node k + 1 < n then exceeds
    node k by at least step - 2G > 0, and node n - 1 is at most
    b + 2G - step < b: the nodes lie in [a, b] and increase strictly, as the
    pass over them would find. Otherwise that pass runs: the nodes are
    formed block by block and checked, unstored.
    """
    m = max(abs(iv.a), abs(iv.b))
    if not (2.0**-960 < m < 2.0**1020 and (iv.b - iv.a) / n > 8.0 * math.ulp(m)):
        _check_nodes(_uniform_blocks(iv, n))


def _fsum(x: np.ndarray) -> float:
    """math.fsum(x) for a writable 1-D float64 array, without a Python float
    per value. x is consumed: each block of it is overwritten in place.

    Each block of _FSUM_BLOCK values is split, exactly, into a part whose
    sum numpy computes exactly and a remainder that takes the block's place.
    With m >= max|block|, m < 2**e and sigma = 2**(e + M), M = _FSUM_M:

    - fl(sigma + x) lies in [sigma - 2**e, sigma + 2**e], within a factor
      of 2 of sigma, so q = fl(fl(sigma + x) - sigma) is exact (Sterbenz),
      and so is x - q, the rounding error of sigma + x, at most 2**-53 sigma;
    - every q is a multiple of 2**-53 sigma, the spacing of the doubles in
      [sigma/2, sigma), and |q| <= 2**e, so every partial sum of the q, in
      any order, is a multiple of 2**-53 sigma of magnitude at most
      block size * 2**e <= sigma: a double. q.sum() is exact;
    - each step takes about 53 - M bits off the block's largest value.
      Once sigma is at most 2**-1022, the doubles below 2 sigma are
      2**-1074 apart, as every x is, so sigma + x is exact, the remainder
      is 0, and the loop ends there without a special case.

    The first step takes sigma from the largest magnitude of the whole
    array, and each block adds numpy's sum of its k remainders. Those sums
    are the only inexact ones: each remainder is at most 2**-53 sigma, so a
    block's is off by at most gamma_{k-1} k 2**-53 sigma <= 2 k**2 2**-106
    sigma in any order of addition (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 4.2; gamma_k = ku/(1 - ku) <= 2ku for
    ku <= 1/2, u = 2**-53; an addition whose result is subnormal is exact,
    so underflow adds no error). E, their total over the blocks, is
    formed from the integer sum of the 2 k**2 by one ldexp, so it is exact
    in the normal range, and taken one double up, so it does not fall
    below the bound where it rounds or underflows. The exact sum S then
    lies in [T - E, T + E], T the step totals plus the remainder sums, and
    math.fsum rounds exactly once: if the rounded T - E and the rounded
    T + E are the same double, monotone rounding makes it the rounding of
    S, math.fsum(x). That double is never 0: with E >= 2**-1074, T - E and
    T + E cannot both round to 0, so an exact sum of 0, whose sign only
    math.fsum's own rule gives, is always left to the extraction. Otherwise the
    extraction goes on, block by block, until every remainder is zero, and
    one math.fsum over the step totals, which hold the exact total of x,
    rounds it as math.fsum(x) does (Rump, Ogita and Oishi stop at the step
    that decides the rounding in the same way).

    Two escapes send x whole to math.fsum, so the result or the exception
    is exactly math.fsum's: x holds inf or nan, or n * max|x| >= 2**1023,
    where some partial sum of math.fsum might overflow and must raise; and
    2**M * max|x| >= 2**1023, where sigma or sigma + x would not be finite.
    """
    n = x.size
    limit = 2.0**1023 / max(n, 2**_FSUM_M)
    if n <= _FSUM_DIRECT or not (m := max(-float(x.min()), float(x.max()))) < limit:
        return math.fsum(x.tolist())
    e = math.frexp(m)[1] + _FSUM_M
    buf = np.empty(min(n, _FSUM_BLOCK))
    blocks = [x[i : i + _FSUM_BLOCK] for i in range(0, n, _FSUM_BLOCK)]
    totals, rests = [], []
    for block in blocks:  # each block summed while it is in cache
        totals.append(_split(block, e, buf))
        rests.append(float(block.sum()))
    full, last = divmod(n, _FSUM_BLOCK)
    error = math.nextafter(math.ldexp(2 * (full * _FSUM_BLOCK**2 + last**2), e - 106), math.inf)
    if (low := math.fsum(totals + rests + [-error])) == math.fsum(totals + rests + [error]):
        return low
    for block in blocks:
        while m := max(-float(block.min()), float(block.max())):
            totals.append(_split(block, math.frexp(m)[1] + _FSUM_M, buf))
    return math.fsum(totals)


def _split(block: np.ndarray, e: int, buf: np.ndarray) -> float:
    """One extraction step of _fsum with sigma = 2**e: block keeps its
    remainder, and the exact sum of the part taken from it is returned."""
    sigma = math.ldexp(1.0, e)
    q = buf[: block.size]
    np.add(block, sigma, out=q)
    np.subtract(q, sigma, out=q)
    np.subtract(block, q, out=block)
    return float(q.sum())


def composite_midpoint(fn: Function1D, d: Partition) -> float:
    """sum of f(panel midpoint) * panel width, rounded once as math.fsum
    rounds it. A term or a sum beyond double precision raises OverflowError."""
    return _midpoint_sum(fn, d.n_panels, _slices(d.nodes))


def _midpoint_sum(fn: Function1D, n: int, blocks: Iterable[np.ndarray]) -> float:
    """composite_midpoint of the n panels whose nodes blocks yields, _BLOCK
    panels at a time, as _slices cuts them."""
    terms = np.empty(n)
    with _overflow_raises():  # in the evaluator or in a term
        for i, x in zip(range(0, n, _BLOCK), blocks):
            values = fn(0.5 * (x[1:] + x[:-1]))
            np.multiply(values, np.diff(x), out=terms[i : i + _BLOCK])
    del values  # the last block's values go before _fsum allocates its buffer
    # an inf or NaN the evaluator returned itself; NaN fails too; no bool array
    if not -np.inf < terms.min() <= terms.max() < np.inf:
        raise OverflowError("a composite midpoint term is not finite")
    return _fsum(terms)


def _level_bound(
    n: int,
    blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
    theorem: Theorem,
    values: dict,
    target: Optional[float] = None,
) -> Optional[float]:
    """The error bound of n panels, as midpoint_error_bound states it, for a
    variant that _variant resolved into theorem and values. Each block of
    _BLOCK panels writes its width, da and db into values.

    blocks yields the nodes of each block in turn, as _slices cuts them, with
    |f'| at those nodes. With a target, the fill stops at the first block
    where the rough sum of the terms so far proves the exact sum of all of
    them rounds above target, and None is returned; blocks is not asked for
    the blocks after it. Otherwise the exact sum is returned: nonnegative,
    inf or nan.
    """
    terms = np.empty(n)
    rough = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan reaches the result
        for i, (x, v) in zip(range(0, n, _BLOCK), blocks):
            if not 0.0 <= v.min() <= v.max() < np.inf:  # NaN fails too; no bool array
                raise DomainError("derivative magnitudes must be finite and nonnegative")
            values["width"] = w = np.diff(x)
            values["da"], values["db"] = v[:-1], v[1:]
            block = terms[i : i + _BLOCK]
            np.multiply(theorem.bound(values), w, out=block)
            if target is not None:
                rough += float(block.sum())
                if _exceeds(rough, i + block.size, target):
                    return None
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
    theorem, values = _variant(_PANEL_BOUNDS, variant, "error-bound variant", p, q)
    dv = np.asarray(dvals, dtype=float)
    if dv.shape != (len(d.nodes),):
        raise DomainError(
            f"need one |f'| value per node: got {dv.shape[0] if dv.ndim == 1 else dv.shape} "
            f"values for {len(d.nodes)} nodes"
        )
    return _level_bound(d.n_panels, zip(_slices(d.nodes), _slices(dv)), theorem, values)


def _node_slopes(
    fn: Function1D, blocks: Iterable[np.ndarray]
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Each block of nodes in turn, with |f'| at its nodes, each node
    evaluated once: a block's last value is carried over as the next
    block's first. Every block's values are yielded in the same buffer."""
    buf = None
    for x in blocks:
        if buf is None:  # the first block, the longest
            buf, j = np.empty(x.size), 0
        else:  # its first node ends the block before, so its value is carried
            buf[0], j = buf[-1], 1
        v = buf[: x.size]
        with _overflow_raises():
            np.abs(fn.deriv(x[j:]), out=v[j:])
        yield x, v


def _exceeds(rough: float, n: int, target: float) -> bool:
    """True only if n nonnegative terms whose floating-point sum, in any
    order, is rough have an exact sum that rounds above target; False where
    rough cannot tell."""
    # the margin (1 + (2n+4)u) covers gamma_{n-1}, the step to the next
    # double after target, and the rounding of the product; see the module
    # docstring
    return max(target, _TINY) * (1.0 + (2 * n + 4) * _U) < rough < 2.0**1023


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
    """Refine a uniform partition until the selected bound meets target,
    which must be finite and positive.

    Starts at one panel and doubles. The bound decays like 1/n, so a very
    small target is expensive; exhausting DEFAULT_PANEL_BUDGET raises
    ConvergenceError rather than silently truncating. A bound that is not
    finite counts as unmet, since finer panels may bring it into range; if
    it is still not finite when the budget runs out, OverflowError is
    raised instead. With verify=True oracle_integral fills in the actual
    error; a certificate violation is reported as a warning, not an
    exception, so it can be logged and examined.
    """
    target = _require_positive("target", target)
    theorem, values = _variant(_PANEL_BOUNDS, variant, "error-bound variant", p, q)

    n = 1
    while True:
        _check_uniform(iv, n)
        last = 2 * n > DEFAULT_PANEL_BUDGET
        slopes = _node_slopes(fn, _uniform_blocks(iv, n))
        bound = _level_bound(n, slopes, theorem, values, None if last else target)
        if bound is not None and bound <= target:
            break
        if last:
            if not math.isfinite(bound):
                raise OverflowError(f"the midpoint error bound is still {bound} at n={n} panels")
            raise ConvergenceError(
                f"certified bound still {bound:g} > target {target:g} at "
                f"n={n} panels (budget {DEFAULT_PANEL_BUDGET})"
            )
        n *= 2

    approx = _midpoint_sum(fn, n, _uniform_blocks(iv, n))
    true_error = None
    slack = 1e-9
    if verify:
        reference, excess = oracle_integral(fn, iv, 1e-12 * iv.width)
        true_error = reference - approx
        slack += excess
    report = QuadReport(
        approx=approx,
        error_bound=bound,
        variant=variant,
        panels=n,
        true_error=true_error,
        slack=slack,
    )
    if report.certified_ok is False:
        warnings.warn(
            f"certificate violated: |true error| {abs(true_error):g} > "
            f"bound {bound:g} for {fn.label or '<anonymous>'} ({variant})",
            RuntimeWarning,
            stacklevel=2,
        )
    return report
