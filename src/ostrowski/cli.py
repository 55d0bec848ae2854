"""Command-line surface: bound evaluation, verification sweeps, special
means, certified quadrature, and the kernel identity check.

Exit codes: 0 success, 1 at least one inequality failed, 2 usage, domain
error, overflow, exhausted memory or a --config/--out file error, 3 oracle
non-convergence.
Each command builds one payload per report, and _write writes it in one of
three views: JSON is the payload itself, byte-identical across runs with
identical flags (fixed field order, shortest round-trip float printing);
CSV is its records under their field names, or else the payload as one
row; human is the lines the command passes, or else one key = value line
per field, rounded to 6 significant digits, and never feeds back into
computation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import THEOREMS, _missing, _offsets, evaluate
from .core import (
    ConvergenceError,
    DomainError,
    EndpointData,
    Interval,
    VerificationRecord,
    _overflow_raises,
    _require_positive,
    _require_s,
    make_conjugate,
)
from .kernel import _montgomery_records
from .means import GAP_VARIANTS, _mean_powers, means_gap, means_gap_bound
from .quadrature import _PANEL_BOUNDS, ERROR_BOUND_VARIANTS, certified_integrate
from .toolkit import _spec_number, oracle_integral, parse_function_spec

__all__ = ["main", "entrypoint", "SweepConfig", "run_sweep", "DEFAULT_IDENTITY_POLYS"]

FORMATS = ("json", "csv", "human")


# identity sweep suite: polynomials of degree <= 4, mixed signs included
DEFAULT_IDENTITY_POLYS = (
    "poly:1",
    "poly:0,1",
    "poly:0,0,1",
    "poly:0,0,0,1",
    "poly:0,0,0,0,1",
    "poly:2,-1",
    "poly:1,-2,0.5,2,-0.25",
)
DEFAULT_IDENTITY_INTERVALS = ((0.0, 1.0), (1.0, 3.0), (0.5, 2.5))

DEFAULT_SWEEP_FUNCTIONS = (
    "breckner:0,1,0,0.25",
    "breckner:0,1,0,0.5",
    "breckner:0,1,0,0.75",
    "breckner:0,1,0,1",
    "poly:0,1",
    "poly:0,0,1",
    "poly:0,1,1",
)

SWEEP_THEOREMS = ("t20", "teo1", "t21", "z", "t22")
BOUND_THEOREMS = SWEEP_THEOREMS + ("eq11", "ee", "eq14", "eq15", "eq16")


# ----------------------------------------------------------------------
# sweep harness
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Grids and options for the domination sweep.

    Construction checks every s (in (0, 1]), every p (> 1), tol (finite
    and > 0) and x_grid_points (at least 2, and few enough for numpy to
    index their float64 array), so bad options are rejected before any
    oracle work.
    """

    s_grid: tuple = (0.25, 0.5, 0.75, 1.0)
    x_grid_points: int = 11
    p_grid: tuple = (2.0,)
    function_specs: tuple = DEFAULT_SWEEP_FUNCTIONS
    tol: float = 1e-9
    interval_override: Optional[tuple] = None

    def __post_init__(self) -> None:
        if not self.s_grid or not self.p_grid:
            raise DomainError("sweep grids must be non-empty")
        if not self.function_specs:
            raise DomainError("sweep needs at least one function spec")
        object.__setattr__(self, "tol", _require_positive("tol", self.tol))
        if self.x_grid_points < 2:
            raise DomainError("sweep needs at least two x grid points")
        most = np.iinfo(np.intp).max // 8  # an array's size in bytes is an intp
        if self.x_grid_points > most:
            raise DomainError(
                f"sweep x grid of {self.x_grid_points} points is beyond the "
                f"{most} float64 values numpy can index"
            )
        object.__setattr__(self, "s_grid", tuple(_require_s(s) for s in self.s_grid))
        object.__setattr__(self, "p_grid", tuple(make_conjugate(p).p for p in self.p_grid))


def _sweep_interval(spec: str, cfg: SweepConfig) -> Interval:
    if cfg.interval_override is not None:
        return Interval(*cfg.interval_override)
    # power-family functions have singular derivatives at 0, so their
    # default sweep interval stays away from it
    if spec.startswith(("breckner", "powabs")):
        return Interval(0.5, 2.0)
    return Interval(0.0, 1.0)


def run_sweep(cfg: SweepConfig) -> list:
    """One VerificationRecord per (theorem, function, s, x, p) tuple, in
    that order.

    Per function, the oracle average is computed once, the deviation and
    |f'| once over the whole x grid, and each theorem's bound with one
    broadcast call of its formula over the whole (s, x, p) grid; each
    deviation is checked against every bound, with slack cfg.tol plus the
    excess oracle_integral adds to the accuracy of the average.
    """
    s = np.array(cfg.s_grid)[:, None, None]
    p = np.array(cfg.p_grid)
    # t22 takes the conjugate of each grid p as its q
    q = np.array([make_conjugate(v).q for v in cfg.p_grid])
    shape = (len(cfg.s_grid), cfg.x_grid_points, len(cfg.p_grid))
    prepared = []
    for spec in cfg.function_specs:
        fn = parse_function_spec(spec)
        iv = _sweep_interval(fn.label, cfg)
        iv.require_nonnegative()
        xs = np.linspace(iv.a, iv.b, cfg.x_grid_points)
        with _overflow_raises():  # in f', in f or in the oracle
            ep = EndpointData(da=abs(fn.deriv(iv.a)), db=abs(fn.deriv(iv.b)))
            dx = np.abs(fn.deriv(xs))[:, None]
            if not np.all(np.isfinite(dx)):
                raise DomainError(f"dx must be finite on the sweep grid of {fn.label}")
            lam, mu = _offsets(iv, xs[:, None])
            values = {"width": iv.width, "lam": lam, "mu": mu, "s": s, "p": p, "q": q,
                      "da": ep.da, "db": ep.db, "dx": dx}
            with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
                bounds = {tag: THEOREMS[tag].bound(values) for tag in SWEEP_THEOREMS}
            for theorem, value in bounds.items():
                # finite inputs give inf, NaN or a negative value only by overflowing
                if not np.all(value < np.inf):  # NaN fails too
                    raise OverflowError(f"bound {theorem} overflowed for {fn.label}")
            # after the bound checks, so that a bound that overflows is reported
            # even where the oracle cannot reach its tolerance
            integral, excess = oracle_integral(fn, iv, 1e-12 * iv.width)
            grid = list(zip(xs.tolist(), np.abs(fn(xs) - integral / iv.width).tolist()))
        prepared.append((fn.label, grid, bounds, cfg.tol + excess / iv.width))
    records = []
    for theorem in SWEEP_THEOREMS:
        for label, grid, bounds, slack in prepared:
            rhs = np.broadcast_to(bounds[theorem], shape).ravel().tolist()
            cells = product(map(_spec_number, cfg.s_grid), grid, map(_spec_number, cfg.p_grid))
            for (s_text, (x_val, dev), p_text), bound in zip(cells, rhs):
                context = f"domination {theorem} fn={label} s={s_text} x={x_val:.17g} p={p_text}"
                records.append(VerificationRecord.check(dev, bound, slack, context=context))
    return records


def _identity_records(tol: float) -> list:
    records = []
    for spec in DEFAULT_IDENTITY_POLYS:
        fn = parse_function_spec(spec)
        for a, b in DEFAULT_IDENTITY_INTERVALS:
            # f is integrated over iv once, for all 9 points
            records += _montgomery_records(fn, Interval(a, b), np.linspace(a, b, 9).tolist(), tol)
    return records


# ----------------------------------------------------------------------
# output formatting
# ----------------------------------------------------------------------

def _human_float(v: float) -> str:
    return f"{v:.6g}"


def _write(payload: dict, args: argparse.Namespace, human: Optional[Iterable[str]] = None) -> None:
    """Write one report to --out, or else to stdout, in --format: JSON is the
    payload itself; CSV is its records under their field names, or else the
    payload as one row; human is the lines given, or else one key = value
    line per field."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        rows = payload.get("records", [payload])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows(row.values() for row in rows)
        text = buf.getvalue()
    else:
        if human is None:
            human = (f"{k} = {_human_float(v) if isinstance(v, float) else v}"
                     for k, v in payload.items())
        text = "\n".join(human) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_checks(records: list, args: argparse.Namespace, title: str) -> int:
    """Write a report of checks; the exit code is 1 if any check fails."""
    rows = [
        {
            "lhs": r.lhs,
            "rhs": r.rhs,
            "holds": r.holds,
            "margin": r.margin,
            "context": r.context,
        }
        for r in records
    ]
    failed = [row for row in rows if not row["holds"]]
    payload = {
        "report": title,
        "total": len(rows),
        "failures": len(failed),
        "records": rows,
    }
    _write(payload, args, chain(
        [f"{title}: {len(rows)} checks, {len(failed)} failures"],
        (f"{'ok  ' if row['holds'] else 'FAIL'} lhs={_human_float(row['lhs'])} "
         f"rhs={_human_float(row['rhs'])} margin={_human_float(row['margin'])} {row['context']}"
         for row in rows),
        [f"first failure: {row['context']}" for row in failed[:1]],
    ))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def cmd_bound(args: argparse.Namespace) -> int:
    for name in ("a", "b") + THEOREMS[args.theorem].required:
        if getattr(args, name.lower()) is None:
            raise DomainError(f"--theorem {args.theorem} requires --{name.lower()}")
    result = evaluate(
        args.theorem, Interval(args.a, args.b), x=args.x, s=args.s,
        p=args.p, q=args.q,
        da=args.da, db=args.db, dx=args.dx, M=args.m,
    )
    payload = {"theorem": result.theorem_id, "value": result.value}
    payload.update(result.inputs)
    _write(payload, args, (
        f"{result.theorem_id} bound = {_human_float(result.value)}",
        "inputs: " + " ".join(f"{k}={_human_float(v)}" for k, v in result.inputs.items()),
    ))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    override = None
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise DomainError("interval override needs both --a and --b")
        override = (args.a, args.b)
    cfg = SweepConfig(
        s_grid=_parse_grid(args.s_grid, "s-grid"),
        x_grid_points=args.x_points,
        p_grid=_parse_grid(args.p_grid, "p-grid"),
        function_specs=_parse_functions(args.functions),
        tol=args.tol,
        interval_override=override,
    )
    return _report_checks(run_sweep(cfg), args, "domination sweep")


def cmd_means(args: argparse.Namespace) -> int:
    a, b, s = args.a, args.b, args.s
    # the bounds first: they check p and q before the gap's oracle runs
    bounds = {v: means_gap_bound(a, b, s, v, p=args.p, q=args.q).value for v in GAP_VARIANTS}
    gap = means_gap(a, b, s, oracle_tol=args.tol)
    mean_pow, avg_pow, _ = _mean_powers(a, b, s)
    payload = {
        "a": a,
        "b": b,
        "s": s,
        "p": args.p,
        "q": args.q,
        "A^s": mean_pow,
        "L_s^s": avg_pow,
        "gap": gap,
        **bounds,
    }
    _write(payload, args)
    return 0


def cmd_quad(args: argparse.Namespace) -> int:
    if missing := _missing(*_PANEL_BOUNDS[args.variant], args.p, args.q):
        raise DomainError(f"variant {args.variant} requires --{missing}")
    fn = parse_function_spec(args.fn)
    report = certified_integrate(
        fn,
        Interval(args.a, args.b),
        target=args.target,
        variant=args.variant,
        p=args.p,
        q=args.q,
    )
    payload = {
        "approx": report.approx,
        "error_bound": report.error_bound,
        "variant": report.variant,
        "panels": report.panels,
    }
    _write(payload, args)
    return 0


def cmd_identity(args: argparse.Namespace) -> int:
    return _report_checks(_identity_records(args.tol), args, "montgomery identity sweep")


# ----------------------------------------------------------------------
# parsing plumbing
# ----------------------------------------------------------------------

def _parse_grid(text: str, name: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise DomainError(f"could not parse --{name} {text!r}") from exc
    if not values:
        raise DomainError(f"--{name} must list at least one value")
    return values


def _parse_functions(text: str) -> tuple:
    specs = tuple(tok.strip() for tok in str(text).split(";") if tok.strip())
    if not specs:
        raise DomainError("function list is empty")
    return specs


class _Parser(argparse.ArgumentParser):
    """argparse, reading a token as a value where float() reads each of its
    comma-separated items: --a -inf and --s-grid -0.5,1 mean --a=-inf and
    --s-grid=-0.5,1. Python 3.11's argparse reads a token that starts with '-'
    as a value only if it is -digits or -digits.digits."""

    def _parse_optional(self, arg_string):
        try:
            [float(item) for item in arg_string.split(",")]
        except ValueError:
            return super()._parse_optional(arg_string)
        return None  # a value, not an option


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json",
                        help="output format (default json)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--config", default=None, metavar="FILE",
                        help="key=value defaults file; flags override it")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(  # subparsers take its class
        prog="ostrowski",
        description=(
            "Position-dependent error bounds for function averages under "
            "s-convexity, with certified midpoint quadrature"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # one parent instance per subcommand; argparse parents share action
    # objects, so a single shared instance would let one subcommand's
    # defaults leak into the others
    p_bound = sub.add_parser("bound", parents=[_common_parser()],
                             help="evaluate one bound and echo its inputs")
    p_bound.add_argument("--theorem", choices=BOUND_THEOREMS, required=True)
    for flag in ("a", "b", "x", "s", "p", "q", "da", "db", "dx", "m"):
        p_bound.add_argument(f"--{flag}", type=float, default=None)
    p_bound.set_defaults(handler=cmd_bound)

    p_verify = sub.add_parser("verify", parents=[_common_parser()],
                              help="run the domination sweep")
    sweep = SweepConfig()  # verify's defaults are the sweep's
    p_verify.add_argument("--s-grid", default=",".join(map(repr, sweep.s_grid)), dest="s_grid")
    p_verify.add_argument("--x-points", type=int, default=sweep.x_grid_points, dest="x_points")
    p_verify.add_argument("--p-grid", default=",".join(map(repr, sweep.p_grid)), dest="p_grid")
    p_verify.add_argument("--functions", default=";".join(sweep.function_specs),
                          help="semicolon-separated function specs")
    p_verify.add_argument("--a", type=float, default=None)
    p_verify.add_argument("--b", type=float, default=None)
    p_verify.add_argument("--tol", type=float, default=sweep.tol,
                          help="absolute slack of each domination check (default %(default)s)")
    p_verify.set_defaults(handler=cmd_verify)

    p_means = sub.add_parser("means", parents=[_common_parser()],
                             help="gap between mean powers and its bounds")
    p_means.add_argument("--a", type=float, required=True)
    p_means.add_argument("--b", type=float, required=True)
    p_means.add_argument("--s", type=float, required=True)
    p_means.add_argument("--p", type=float, default=2.0)
    p_means.add_argument("--q", type=float, default=2.0)
    p_means.add_argument("--tol", type=float, default=1e-9,
                         help="oracle tolerance of the gap (default 1e-9)")
    p_means.set_defaults(handler=cmd_means)

    p_quad = sub.add_parser("quad", parents=[_common_parser()],
                            help="certified composite-midpoint integration")
    p_quad.add_argument("--fn", required=True, help="function spec (see README)")
    p_quad.add_argument("--a", type=float, required=True)
    p_quad.add_argument("--b", type=float, required=True)
    p_quad.add_argument("--target", type=float, required=True)
    p_quad.add_argument("--variant", choices=ERROR_BOUND_VARIANTS, required=True)
    p_quad.add_argument("--p", type=float, default=None)
    p_quad.add_argument("--q", type=float, default=None)
    p_quad.set_defaults(handler=cmd_quad)

    p_ident = sub.add_parser("identity", parents=[_common_parser()],
                             help="check the kernel identity on polynomials")
    p_ident.add_argument("--tol", type=float, default=1e-9,
                         help="tolerance of each identity check (default 1e-9)")
    p_ident.set_defaults(handler=cmd_identity)

    return parser


def _load_config_tokens(argv: list) -> list:
    """Expand a --config file into flag tokens placed after the subcommand."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv

    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"config line is not key=value: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            tokens.extend([f"--{key.replace('_', '-')}", value])

    # insert right after the subcommand so explicit flags (later) override
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            return argv[: i + 1] + tokens + argv[i + 1 :]
    return argv + tokens


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_load_config_tokens(argv))
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, OSError) as exc:  # OSError: --config or --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("error: a value overflowed double precision", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
