"""The four workloads: inputs from a seed, operations, and output checks.

A workload is a *round*: a list of operations that cycles through the
workload's operation classes in round-robin order. The runner repeats whole
rounds, so every run attempts the same mix. Each operation calls the
library through module attributes (``quadrature.certified_integrate``,
``toolkit.parse_function_spec``, ...) at call time, so the probes in
``probes.py`` see it. Each check returns ``None`` when the output is right
and a one-line reason otherwise; references come from ``references.py``,
never from stored program output.

Seeds vary the inputs but not the work: certify targets are placed between
the bounds at n and n/2 panels, oracle integrands are rescaled together with
their tolerance (the adaptive rule makes the same decisions on a rescaled
problem), and everything else has a fixed size. So costs and evaluation
counts do not depend on the seed.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ostrowski import cli, kernel, means, quadrature, toolkit
from ostrowski.core import Interval

import references as ref

EPS = float(np.finfo(float).eps)

Check = Callable[[Any], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` does the work the timer sees, ``check`` judges
    its output. ``known_fault`` marks the one operation per workload that
    fails every time because of a program fault; it is counted in ``failed``
    without making the run incorrect. For ``cli`` ops, ``inprocess`` runs the
    same command through ``cli.main`` in this process and returns
    ``(exit code, stdout)``."""

    cls: str
    run: Callable[[], Any]
    check: Check
    known_fault: bool = False
    inprocess: Optional[Callable[[], Tuple[int, str]]] = None


def round_robin(classes: Sequence[List[Op]]) -> List[Op]:
    """Interleave operation classes: one of each in turn until all are used."""
    out: List[Op] = []
    for i in range(max(len(c) for c in classes)):
        out.extend(c[i] for c in classes if i < len(c))
    return out


def _once(fn: Callable[[], Any]) -> Callable[[], Any]:
    """fn() computed at its first call and kept. References are computed
    when an output is first checked, so they are not part of set-up."""
    return functools.lru_cache(maxsize=None)(fn)


def _close(got: float, want, allow: float, what: str) -> Optional[str]:
    err = abs(float(got) - float(want))
    if not err <= allow:
        return f"{what}: got {got!r}, reference {float(want)!r}, |error| {err:.3g} > {allow:.3g}"
    return None


# ----------------------------------------------------------------------
# certify: certified_integrate at 2^15 .. 2^19 panels
# ----------------------------------------------------------------------

def _node_slopes(spec: str, nodes: np.ndarray) -> np.ndarray:
    """|f'| at the nodes, computed with numpy from the spec's parameters."""
    kind, ps = ref.parse_spec(spec)
    if kind == "poly":
        ds = np.polynomial.polynomial.polyder(np.array(ps))
        return np.abs(np.polynomial.polynomial.polyval(nodes, ds))
    if kind == "breckner":
        _, v, _, s = ps
        return np.abs(v * s * nodes ** (s - 1.0))
    (k,) = ps
    return k * np.abs(nodes) ** (k - 1.0)


def _panel_bound(spec: str, a: float, b: float, n: int, variant: str, p, q) -> float:
    """The selected composite-midpoint error bound at n uniform panels.

    Only used to place the target; the program's own bound is what the
    check compares against the target.
    """
    nodes = np.linspace(a, b, n + 1)
    dv = _node_slopes(spec, nodes)
    w2 = np.diff(nodes) ** 2
    lo, hi = dv[:-1], dv[1:]
    if variant == "p4":
        return float(np.sum(w2 * (lo + hi)) / (4.0 * (p + 1.0) ** (1.0 / p)))
    if variant == "p5":
        return float(np.sum(w2 * np.sqrt(lo**2 + hi**2)) / (2.0 * math.sqrt(6.0)))
    terms = (lo**q + 3.0 * hi**q) ** (1.0 / q) + (3.0 * lo**q + hi**q) ** (1.0 / q)
    return float(np.sum(w2 * terms) * (1.0 / 3.0) ** (1.0 / q) / 8.0)


def _target_for(spec, a, b, n, variant, p, q) -> float:
    """A target the doubling schedule first meets at exactly n panels:
    sqrt(2) times the bound at n, which is about half the bound at n/2."""
    target = math.sqrt(2.0) * _panel_bound(spec, a, b, n, variant, p, q)
    if not _panel_bound(spec, a, b, n // 2, variant, p, q) > 1.2 * target:
        raise RuntimeError(f"{spec}: bound at n/2 too close to the target")
    return target


def certify_op(cls: str, spec: str, a: float, b: float, target: float,
               variant: str, p=None, q=None) -> Op:
    exact = _once(lambda: float(ref.spec_integral(spec, a, b)))

    def run():
        fn = toolkit.parse_function_spec(spec)
        return quadrature.certified_integrate(fn, Interval(a, b), target, variant, p=p, q=q)

    def check(rep) -> Optional[str]:
        if not rep.error_bound <= target:
            return f"{cls}: error_bound {rep.error_bound!r} > target {target!r}"
        # fsum leaves only the rounding of each panel term and of the nodes;
        # 1e-12 relative is far above that and far below any target used here
        allow = 1e-12 * max(1.0, abs(exact()))
        return _close(rep.approx, exact(), rep.error_bound + allow, f"{cls} {spec} on [{a!r}, {b!r}]")

    return Op(cls, run, check)


def certify_round(seed: int) -> List[Op]:
    rng = random.Random(seed)
    u = rng.uniform
    ops = []
    for cls, variant, n in (("poly-p4", "p4", 2**15), ("poly-p5", "p5", 2**15)):
        coeffs = [u(-2.0, 2.0) for _ in range(3)] + [u(0.5, 2.0) * rng.choice((-1, 1))]
        spec = "poly:" + ",".join(repr(c) for c in coeffs)
        a = u(-1.0, 0.0)
        b = a + u(1.0, 2.0)
        p = u(1.5, 4.0) if variant == "p4" else None
        ops.append(certify_op(cls, spec, a, b, _target_for(spec, a, b, n, variant, p, None),
                              variant, p=p))
    for cls, variant in (("breckner-p5", "p5"), ("breckner-p6", "p6")):
        w = u(0.0, 1.0)
        spec = f"breckner:{w + u(0.0, 1.0)!r},{u(0.5, 2.0)!r},{w!r},{u(0.3, 0.9)!r}"
        a, b = u(0.25, 0.5), u(1.5, 2.5)
        q = u(1.0, 3.0) if variant == "p6" else None
        ops.append(certify_op(cls, spec, a, b, _target_for(spec, a, b, 2**17, variant, None, q),
                              variant, q=q))
    for cls, variant in (("powabs-p4", "p4"), ("powabs-p6", "p6")):
        spec = f"powabs:{u(1.5, 3.0)!r}"
        a, b = -u(0.5, 1.5), u(0.5, 1.5)
        p = u(1.5, 4.0) if variant == "p4" else None
        q = u(1.0, 3.0) if variant == "p6" else None
        ops.append(certify_op(cls, spec, a, b, _target_for(spec, a, b, 2**17, variant, p, q),
                              variant, p=p, q=q))
    # the cheap integrand that needs 2^19 panels; fixed, it sets peak memory
    ops.append(certify_op("breckner-2^19", "breckner:0,1,0,0.5", 0.5, 2.0, 1e-6, "p4", p=2.0))
    return round_robin([[op] for op in ops])


# ----------------------------------------------------------------------
# oracle: reference_integrate and true_deviation on singular integrands
# ----------------------------------------------------------------------

ORACLE_PER_CLASS = 250


def integrate_op(cls: str, spec: str, a: float, b: float, tol: float,
                 known_fault: bool = False) -> Op:
    exact = _once(lambda: float(ref.spec_integral(spec, a, b)))

    def run():
        return toolkit.reference_integrate(toolkit.parse_function_spec(spec), Interval(a, b), tol)

    def check(value) -> Optional[str]:
        return _close(value, exact(), tol, f"{cls} {spec} on [{a!r}, {b!r}] tol={tol:g}")

    return Op(cls, run, check, known_fault)


def deviation_op(cls: str, spec: str, a: float, b: float, x: float, tol: float) -> Op:
    exact = _once(lambda: float(ref.deviation(spec, a, b, x)))
    # tol is the documented accuracy; add the rounding of f(x) and of |.|
    allow = _once(lambda: tol + 8.0 * EPS * max(1.0, float(abs(ref.spec_value(spec, x)))))

    def run():
        return toolkit.true_deviation(toolkit.parse_function_spec(spec), Interval(a, b), x, tol)

    def check(value) -> Optional[str]:
        return _close(value, exact(), allow(), f"{cls} {spec} at x={x!r} tol={tol:g}")

    return Op(cls, run, check)


def oracle_round(seed: int) -> List[Op]:
    rng = random.Random(seed)
    u = rng.uniform
    classes: List[List[Op]] = [[] for _ in range(8)]
    for _ in range(ORACLE_PER_CLASS):
        # c scales the interval and v the integrand; each tolerance scales
        # like the integral it applies to, so the panel tree is the same
        c, v = u(0.5, 2.0), u(0.5, 2.0)
        one_of_each = [
            integrate_op("breckner-0.5", f"breckner:0,{v!r},0,0.5", 0.0, c, 1e-11 * v * c**1.5),
            integrate_op("breckner-0.25", f"breckner:0,{v!r},0,0.25", 0.0, c, 1e-10 * v * c**1.25),
            deviation_op("dev-breckner-0.75", f"breckner:0,{v!r},0,0.75", 0.0, c,
                         u(0.0, c), 1e-12 * v * c**0.75),
            deviation_op("dev-breckner-0.5", f"breckner:0,{v!r},0,0.5", 0.0, c,
                         u(0.0, c), 1e-11 * v * c**0.5),
            integrate_op("powabs-0.5", "powabs:0.5", -c, c, 1e-12 * c**1.5),
            integrate_op("powabs-0.25", "powabs:0.25", -c, c, 1e-10 * c**1.25),
            deviation_op("dev-powabs-1", "powabs:1", -0.6 * c, 1.4 * c,
                         u(-0.6 * c, 1.4 * c), 1e-11 * c),
            integrate_op("powabs-1.5", "powabs:1.5", -0.6 * c, 1.4 * c, 1e-12 * c**2.5),
        ]
        for cls_ops, op in zip(classes, one_of_each):
            cls_ops.append(op)
    ops = round_robin(classes)
    # known fault: the 15-digit K15/G7 constants and the absolute-only
    # tolerance leave an error-estimate floor near 3e-15*|f|, so the
    # constant 1000 exhausts 10,000 panels. Fixed input, once per round.
    ops.insert(len(ops) // 2,
               integrate_op("poly-1000", "poly:1000", 0.0, 1.0, 1e-12, known_fault=True))
    return ops


# ----------------------------------------------------------------------
# sweep: the harnesses
# ----------------------------------------------------------------------

SWEEP_RECORDS = 1540
IDENTITY_X_POINTS = 9
SCONVEX_GRID = 51
MEANS_ROWS = 500
#: the oracle tolerance run_sweep uses for each mean, as an absolute error
#: on the average; the lhs check allows ten times it
SWEEP_LHS_ALLOW = 1e-11


def _sweep_interval(spec: str) -> Tuple[float, float]:
    # the documented default intervals of the domination sweep
    return (0.5, 2.0) if spec.startswith(("breckner", "powabs")) else (0.0, 1.0)


@functools.lru_cache(maxsize=None)
def sweep_expected_lhs() -> List[float]:
    """The multiset of lhs values of the default sweep, sorted: one
    |f(x) - mean| per (function, x), once for each theorem and s."""
    cfg = cli.SweepConfig()
    repeats = SWEEP_RECORDS // (len(cfg.function_specs) * cfg.x_grid_points)
    lhs = []
    for spec in cfg.function_specs:
        a, b = _sweep_interval(spec)
        for x in np.linspace(a, b, cfg.x_grid_points):
            lhs.extend([float(ref.deviation(spec, a, b, float(x)))] * repeats)
    return sorted(lhs)


def check_records(records, count: int, what: str,
                  expected_lhs: Optional[List[float]] = None) -> Optional[str]:
    """Count, every record holds, and optionally the sorted lhs values."""
    if len(records) != count:
        return f"{what}: {len(records)} records, expected {count}"
    bad = [r for r in records if not r["holds"]]
    if bad:
        return f"{what}: {len(bad)} records fail, first: {bad[0]['context']}"
    if expected_lhs is not None:
        for got, want in zip(sorted(r["lhs"] for r in records), expected_lhs):
            problem = _close(got, want, SWEEP_LHS_ALLOW, f"{what} lhs")
            if problem:
                return problem
    return None


def _as_dicts(records) -> List[dict]:
    return [{"lhs": r.lhs, "holds": r.holds, "context": r.context} for r in records]


def run_sweep_op() -> Op:
    def run():
        return cli.run_sweep(cli.SweepConfig())

    def check(records) -> Optional[str]:
        return check_records(_as_dicts(records), SWEEP_RECORDS, "run_sweep",
                             sweep_expected_lhs())

    return Op("run_sweep", run, check)


def identity_op(intervals: List[Tuple[float, float]]) -> Op:
    count = len(cli.DEFAULT_IDENTITY_POLYS) * len(intervals) * IDENTITY_X_POINTS

    def run():
        records = []
        for spec in cli.DEFAULT_IDENTITY_POLYS:
            fn = toolkit.parse_function_spec(spec)
            for a, b in intervals:
                iv = Interval(a, b)
                for x in np.linspace(a, b, IDENTITY_X_POINTS):
                    records.append(kernel.verify_montgomery_identity(fn, iv, float(x), tol=1e-9))
        return records

    def check(records) -> Optional[str]:
        return check_records(_as_dicts(records), count, "identity")

    return Op("identity", run, check)


def sconvex_op(cls: str, spec: str, s: float, c: float, member: bool) -> Op:
    def run():
        return toolkit.check_sconvex(toolkit.parse_function_spec(spec), s, Interval(0.0, c),
                                     SCONVEX_GRID)

    def check(report) -> Optional[str]:
        if member:
            return None if report.is_consistent else (
                f"{cls}: {spec} reported inconsistent at {report.witness}")
        if report.is_consistent:
            return f"{cls}: violation of {spec} not found"
        excess = ref.sconvex_excess(spec, s, *report.witness)
        return None if excess > 0 else (
            f"{cls}: witness {report.witness} does not violate the inequality ({excess:.3e})")

    return Op(cls, run, check)


def means_table_op(cls: str, rows: List[Tuple[float, float, float, float, float]],
                   known_fault: bool = False) -> Op:
    # each gap with the rounding allowance for the two O(b^s) terms it is
    # the difference of
    refs = _once(lambda: [(float(ref.means_gap(a, b, s)), 64.0 * EPS * max(1.0, b**s))
                          for a, b, s, _, _ in rows])

    def run():
        return [
            (means.means_gap(a, b, s),
             means.means_gap_bound(a, b, s, "p1").value,
             means.means_gap_bound(a, b, s, "p2", p=p).value,
             means.means_gap_bound(a, b, s, "p3", q=q).value)
            for a, b, s, p, q in rows
        ]

    def check(out) -> Optional[str]:
        for (a, b, s, _, _), (gap, *bounds), (want, allow) in zip(rows, out, refs()):
            problem = _close(gap, want, allow, f"{cls} means_gap({a!r}, {b!r}, {s!r})")
            if problem:
                return problem
            for name, value in zip(("p1", "p2", "p3"), bounds):
                if not value >= want:
                    return f"{cls} {name}({a!r}, {b!r}, {s!r}) = {value!r} < gap {want!r}"
        return None

    return Op(cls, run, check, known_fault)


def means_rows(rng: random.Random, n: int) -> List[Tuple[float, float, float, float, float]]:
    u = rng.uniform
    rows = []
    for _ in range(n):
        # b/a in [1.5, 2.5]: the gap's cross-check takes one oracle panel
        a = u(0.5, 3.0)
        rows.append((a, a * u(1.5, 2.5), u(0.1, 0.9), u(1.5, 4.0), u(1.0, 3.0)))
    return rows


def near_equal_rows(n: int) -> List[Tuple[float, float, float, float, float]]:
    """Fixed rows with b - a <= 1e-6 a, starting with (1, 1 + 1e-6, 0.5)."""
    rows = []
    for i in range(n):
        a = 1.0 + 0.01 * i
        rows.append((a, a * (1.0 + (1e-6, 3e-7, 1e-7)[i % 3]), (0.5, 0.25, 0.75)[i % 3], 2.0, 2.0))
    return rows


def sweep_round(seed: int) -> List[Op]:
    rng = random.Random(seed)
    u = rng.uniform
    intervals = []
    for _ in range(3):
        a = u(-1.0, 1.0)
        intervals.append((a, a + u(1.0, 2.5)))
    # Breckner's member condition v >= 0, 0 <= w <= u, checked at its own s
    w, s = u(0.0, 1.0), u(0.2, 0.9)
    member = f"breckner:{w + u(0.0, 1.0)!r},{u(0.5, 2.0)!r},{w!r},{s!r}"
    sconvex = [sconvex_op("sconvex-member", member, s, u(1.0, 3.0), member=True)]
    # negative somewhere on [0, c] (|v| c^s >= 0.5 > w), so not s-convex for s < 1
    w, s = u(0.0, 0.5), u(0.2, 0.9)
    nonmember = f"breckner:{w!r},{-u(0.5, 2.0)!r},{w!r},{s!r}"
    sconvex.append(sconvex_op("sconvex-nonmember", nonmember, s, u(1.0, 3.0), member=False))
    ops = [run_sweep_op(), identity_op(intervals), *sconvex]
    ops += [means_table_op(f"means-{i}", means_rows(rng, MEANS_ROWS)) for i in range(4)]
    # known fault: means_gap cancels catastrophically when b - a << a
    ops.append(means_table_op("means-near-equal", near_equal_rows(MEANS_ROWS), known_fault=True))
    return ops


# ----------------------------------------------------------------------
# cli: one `python -m ostrowski.cli` process per operation
# ----------------------------------------------------------------------

def cli_op(cls: str, argv: List[str], check_payload: Callable[[dict], Optional[str]],
           root: str) -> Op:
    """A command run as a subprocess; every run of it, in a subprocess or
    in process, must print the same bytes."""
    cmd = [sys.executable, "-m", "ostrowski.cli", *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    first: List[str] = []

    def run() -> Tuple[int, str]:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout.decode("utf-8")

    def inprocess() -> Tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def check(out: Tuple[int, str]) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"{cls}: exit code {code}"
        if not first:
            first.append(text)
        elif text != first[0]:
            return f"{cls}: output differs from the first run of the same command"
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return f"{cls}: output is not JSON ({exc})"
        return check_payload(payload)

    return Op(cls, run, check, inprocess=inprocess)


def cli_bound_op(rng: random.Random, root: str) -> Op:
    """bound t20 on the data of f(t) = t^s0, whose |f'| is convex and so
    s-convex for every s: the bound must dominate the true deviation."""
    u = rng.uniform
    a = u(0.5, 1.0)
    b = a + u(0.5, 2.0)
    x, s, s0 = u(a, b), u(0.3, 1.0), u(0.2, 0.8)
    args = {"a": a, "b": b, "x": x, "s": s, "da": s0 * a ** (s0 - 1.0), "db": s0 * b ** (s0 - 1.0)}
    dev = _once(lambda: float(ref.deviation(f"breckner:0,1,0,{s0!r}", a, b, x)))

    def check(pl: dict) -> Optional[str]:
        if any(pl.get(k) != v for k, v in args.items()):
            return "bound: inputs not echoed back"
        if not (math.isfinite(pl["value"]) and pl["value"] >= dev()):
            return f"bound: t20 = {pl['value']!r} below the true deviation {dev()!r}"
        return None

    argv = ["bound", "--theorem", "t20"]
    for k, v in args.items():
        argv += [f"--{k}", repr(v)]
    return cli_op("bound", argv, check, root)


def cli_means_op(rng: random.Random, root: str) -> Op:
    (a, b, s, p, q), = means_rows(rng, 1)
    allow = 64.0 * EPS * max(1.0, b**s)
    refs = _once(lambda: (*(float(v) for v in ref.mean_powers(a, b, s)),
                          float(ref.means_gap(a, b, s))))

    def check(pl: dict) -> Optional[str]:
        for key, want in zip(("A^s", "L_s^s", "gap"), refs()):
            problem = _close(pl[key], want, allow, f"means {key}")
            if problem:
                return problem
        gap = refs()[2]
        low = [k for k in ("p1", "p2", "p3") if not pl[k] >= gap]
        return f"means: {low} below the gap {gap!r}" if low else None

    return cli_op("means", ["means", "--a", repr(a), "--b", repr(b), "--s", repr(s),
                            "--p", repr(p), "--q", repr(q)], check, root)


def cli_quad_op(rng: random.Random, root: str) -> Op:
    """A few panels: the small end of certified quadrature."""
    u = rng.uniform
    spec = f"poly:{u(-1.0, 1.0)!r},{u(0.5, 2.0)!r},{u(0.0, 1.0)!r}"
    target = _target_for(spec, 0.0, 1.0, 8, "p5", None, None)
    exact = _once(lambda: float(ref.spec_integral(spec, 0.0, 1.0)))

    def check(pl: dict) -> Optional[str]:
        if not pl["error_bound"] <= target:
            return f"quad: error_bound {pl['error_bound']!r} > target {target!r}"
        return _close(pl["approx"], exact(), pl["error_bound"] + 1e-12, f"quad {spec}")

    return cli_op("quad", ["quad", "--fn", spec, "--a", "0", "--b", "1",
                           "--target", repr(target), "--variant", "p5"], check, root)


def cli_round(seed: int, root: str) -> List[Op]:
    rng = random.Random(seed)
    identity_count = len(cli.DEFAULT_IDENTITY_POLYS) * 3 * IDENTITY_X_POINTS
    return [
        cli_bound_op(rng, root),
        cli_means_op(rng, root),
        cli_quad_op(rng, root),
        cli_op("verify", ["verify"], lambda pl: check_records(
            pl["records"], SWEEP_RECORDS, "verify", sweep_expected_lhs()), root),
        cli_op("identity", ["identity"], lambda pl: check_records(
            pl["records"], identity_count, "identity"), root),
    ]


def build(name: str, seed: int, root: str) -> List[Op]:
    """One round of the named workload, from the seed."""
    if name == "cli":
        return cli_round(seed, root)
    return {"certify": certify_round, "oracle": oracle_round, "sweep": sweep_round}[name](seed)
