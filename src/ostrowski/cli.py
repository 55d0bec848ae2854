"""Command-line surface: bound evaluation, verification sweeps, special
means, certified quadrature, and the kernel identity check.

Exit codes: 0 success, 1 at least one inequality failed, 2 usage, domain
error, overflow or a --config/--out file error, 3 oracle non-convergence.
JSON is the canonical machine format and is byte-identical across runs with
identical flags (fixed field order, shortest round-trip float printing);
CSV is a flat projection; the human format rounds to 6 significant digits
and never feeds back into computation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    _holder_global,
    _holder_hadamard,
    _holder_split,
    _offsets,
    _power_mean,
    _sconvex_abs,
    bound_holder_global,
    bound_holder_hadamard,
    bound_holder_split,
    bound_power_mean,
    bound_sconvex_abs,
)
from .core import (
    ConvergenceError,
    DomainError,
    EndpointData,
    Interval,
    VerificationRecord,
    _require_s,
    make_conjugate,
)
from .kernel import (
    alomari_bound,
    baseline_midpoint_bound,
    classic_ostrowski_bound,
    verify_montgomery_identity,
)
from .means import GAP_VARIANTS, _mean_powers, means_gap, means_gap_bound
from .quadrature import certified_integrate
from .toolkit import parse_function_spec, reference_integrate

__all__ = ["main", "entrypoint", "SweepConfig", "run_sweep", "DEFAULT_IDENTITY_POLYS"]

FORMATS = ("json", "csv", "human")


def _baseline(tag: str):
    """Evaluator for a midpoint baseline; a given p is checked even for
    eq14, which does not use it."""
    return lambda iv, x, s, p, q, ep, m: baseline_midpoint_bound(
        tag, iv, None if p is None else make_conjugate(p), ep.da, ep.db
    )


# tag -> (numeric flags `bound` requires, evaluator over
# (iv, x, s, p, q, ep, m)); `bound` dispatches through it, and a missing
# flag is a usage error that names the parameter. Evaluators look each
# bound up by module-global name when called, so a wrapper installed on
# that name sees every call.
_THEOREMS = {
    "t20": (("a", "b", "x", "s", "da", "db"),
            lambda iv, x, s, p, q, ep, m: bound_sconvex_abs(iv, x, s, ep)),
    "teo1": (("a", "b", "x", "s", "p", "da", "db"),
             lambda iv, x, s, p, q, ep, m: bound_holder_split(
                 iv, x, s, make_conjugate(p), ep)),
    "t21": (("a", "b", "x", "s", "p", "da", "db", "dx"),
            lambda iv, x, s, p, q, ep, m: bound_holder_hadamard(
                iv, x, s, make_conjugate(p), ep)),
    "z": (("a", "b", "x", "s", "p", "da", "db"),
          lambda iv, x, s, p, q, ep, m: bound_holder_global(
              iv, x, s, make_conjugate(p), ep)),
    "t22": (("a", "b", "x", "s", "q", "da", "db"),
            lambda iv, x, s, p, q, ep, m: bound_power_mean(iv, x, s, q, ep)),
    "eq11": (("a", "b", "x", "m"),
             lambda iv, x, s, p, q, ep, m: classic_ostrowski_bound(iv, x, m)),
    "ee": (("a", "b", "x", "s", "p", "m"),
           lambda iv, x, s, p, q, ep, m: alomari_bound(iv, x, s, make_conjugate(p), m)),
    "eq14": (("a", "b", "da", "db"), _baseline("eq14")),
    "eq15": (("a", "b", "p", "da", "db"), _baseline("eq15")),
    "eq16": (("a", "b", "p", "da", "db"), _baseline("eq16")),
}

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


# ----------------------------------------------------------------------
# sweep harness
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Grids and options for the domination sweep.

    Construction checks every s (in (0, 1]) and every p (> 1), so a bad
    grid is rejected before any oracle work.
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
        if not self.tol > 0.0:
            raise DomainError("sweep tol must be positive")
        if self.x_grid_points < 2:
            raise DomainError("sweep needs at least two x grid points")
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
    deviation is checked against every bound.
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
        ep = EndpointData(da=abs(fn.deriv(iv.a)), db=abs(fn.deriv(iv.b)))
        dx = np.abs(fn.deriv(xs))[:, None]
        if not np.all(np.isfinite(dx)):
            raise DomainError(f"dx must be finite on the sweep grid of {fn.label}")
        x = xs[:, None]
        lam, mu = _offsets(iv, x)
        w, da, db = iv.width, ep.da, ep.db
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            bounds = {
                "t20": _sconvex_abs(w, lam, mu, s, da, db),
                "teo1": _holder_split(w, lam, mu, s, p, q, da, db),
                "t21": _holder_hadamard(iv.a, iv.b, x, s, p, q, da, dx, db),
                "z": _holder_global(w, lam, mu, s, p, q, da, db),
                "t22": _power_mean(w, lam, mu, s, q, da, db),
            }
        for theorem, values in bounds.items():
            if not np.all((values >= 0.0) & (values < np.inf)):
                raise DomainError(f"bound {theorem} produced invalid values for {fn.label}")
        # after the bound checks, so that a bound that overflows is reported
        # even where the oracle cannot reach its tolerance
        mean = reference_integrate(fn, iv, 1e-12 * iv.width) / iv.width
        grid = list(zip(xs.tolist(), np.abs(fn(xs) - mean).tolist()))
        prepared.append((fn.label, grid, bounds))
    records = []
    for theorem in SWEEP_THEOREMS:
        for label, grid, bounds in prepared:
            rhs = np.broadcast_to(bounds[theorem], shape).ravel().tolist()
            cells = product(cfg.s_grid, grid, cfg.p_grid)
            for (s_val, (x_val, dev), p_val), bound in zip(cells, rhs):
                context = f"domination {theorem} fn={label} s={s_val:g} x={x_val:.17g} p={p_val:g}"
                records.append(VerificationRecord.check(dev, bound, cfg.tol, context=context))
    return records


def _identity_records(tol: float) -> list:
    records = []
    for spec in DEFAULT_IDENTITY_POLYS:
        fn = parse_function_spec(spec)
        for a, b in DEFAULT_IDENTITY_INTERVALS:
            iv = Interval(a, b)
            for x in np.linspace(a, b, 9):
                records.append(verify_montgomery_identity(fn, iv, float(x), tol=tol))
    return records


# ----------------------------------------------------------------------
# output formatting
# ----------------------------------------------------------------------

def _record_dict(rec: VerificationRecord) -> dict:
    return {
        "lhs": rec.lhs,
        "rhs": rec.rhs,
        "holds": rec.holds,
        "margin": rec.margin,
        "context": rec.context,
    }


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows: list, header: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _human_float(v: float) -> str:
    return f"{v:.6g}"


def _emit_records(records: list, fmt: str, out: Optional[str], title: str) -> None:
    failures = [r for r in records if not r.holds]
    if fmt == "json":
        payload = {
            "report": title,
            "total": len(records),
            "failures": len(failures),
            "records": [_record_dict(r) for r in records],
        }
        _emit(json.dumps(payload, indent=2) + "\n", out)
    elif fmt == "csv":
        rows = [
            [r.lhs, r.rhs, r.holds, r.margin, r.context] for r in records
        ]
        _emit(_csv_text(rows, ["lhs", "rhs", "holds", "margin", "context"]), out)
    else:
        lines = [f"{title}: {len(records)} checks, {len(failures)} failures"]
        for r in records:
            mark = "ok  " if r.holds else "FAIL"
            lines.append(
                f"{mark} lhs={_human_float(r.lhs)} rhs={_human_float(r.rhs)} "
                f"margin={_human_float(r.margin)} {r.context}"
            )
        if failures:
            lines.append("first failure: " + failures[0].context)
        _emit("\n".join(lines) + "\n", out)


def _emit_flat(payload: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _emit(json.dumps(payload, indent=2) + "\n", out)
    elif fmt == "csv":
        keys = list(payload.keys())
        _emit(_csv_text([[payload[k] for k in keys]], keys), out)
    else:
        lines = []
        for k, v in payload.items():
            lines.append(f"{k} = {_human_float(v) if isinstance(v, float) else v}")
        _emit("\n".join(lines) + "\n", out)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def cmd_bound(args: argparse.Namespace) -> int:
    flags, evaluate = _THEOREMS[args.theorem]
    for name in flags:
        if getattr(args, name) is None:
            raise DomainError(f"--theorem {args.theorem} requires --{name}")
    iv = Interval(args.a, args.b)
    ep = None
    if "da" in flags:
        ep = EndpointData(da=args.da, db=args.db, dx=args.dx)
    result = evaluate(iv, args.x, args.s, args.p, args.q, ep, args.m)
    payload = {"theorem": result.theorem_id, "value": result.value}
    payload.update(result.inputs)
    if args.format == "human":
        lines = [f"{result.theorem_id} bound = {_human_float(result.value)}"]
        lines.append(
            "inputs: " + " ".join(f"{k}={v:g}" for k, v in result.inputs.items())
        )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_flat(payload, args.format, args.out)
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
    records = run_sweep(cfg)
    _emit_records(records, args.format, args.out, "domination sweep")
    return 0 if all(r.holds for r in records) else 1


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
    _emit_flat(payload, args.format, args.out)
    return 0


def cmd_quad(args: argparse.Namespace) -> int:
    if args.variant == "p4" and args.p is None:
        raise DomainError("variant p4 requires --p")
    if args.variant == "p6" and args.q is None:
        raise DomainError("variant p6 requires --q")
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
    _emit_flat(payload, args.format, args.out)
    return 0


def cmd_identity(args: argparse.Namespace) -> int:
    records = _identity_records(args.tol)
    _emit_records(records, args.format, args.out, "montgomery identity sweep")
    return 0 if all(r.holds for r in records) else 1


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


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9,
                        help="verify slack, identity tolerance, means oracle "
                             "tolerance; bound and quad ignore it")
    common.add_argument("--format", choices=FORMATS, default="json",
                        help="output format (default json)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--config", default=None, metavar="FILE",
                        help="key=value defaults file; flags override it")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_bound.add_argument("--theorem", choices=tuple(_THEOREMS), required=True)
    for flag in ("a", "b", "x", "s", "p", "q", "da", "db", "dx", "m"):
        p_bound.add_argument(f"--{flag}", type=float, default=None)
    p_bound.set_defaults(handler=cmd_bound)

    p_verify = sub.add_parser("verify", parents=[_common_parser()],
                              help="run the domination sweep")
    p_verify.add_argument("--s-grid", default="0.25,0.5,0.75,1", dest="s_grid")
    p_verify.add_argument("--x-points", type=int, default=11, dest="x_points")
    p_verify.add_argument("--p-grid", default="2", dest="p_grid")
    p_verify.add_argument("--functions", default=";".join(DEFAULT_SWEEP_FUNCTIONS),
                          help="semicolon-separated function specs")
    p_verify.add_argument("--a", type=float, default=None)
    p_verify.add_argument("--b", type=float, default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_means = sub.add_parser("means", parents=[_common_parser()],
                             help="gap between mean powers and its bounds")
    p_means.add_argument("--a", type=float, required=True)
    p_means.add_argument("--b", type=float, required=True)
    p_means.add_argument("--s", type=float, required=True)
    p_means.add_argument("--p", type=float, default=2.0)
    p_means.add_argument("--q", type=float, default=2.0)
    p_means.set_defaults(handler=cmd_means)

    p_quad = sub.add_parser("quad", parents=[_common_parser()],
                            help="certified composite-midpoint integration")
    p_quad.add_argument("--fn", required=True, help="function spec (see README)")
    p_quad.add_argument("--a", type=float, required=True)
    p_quad.add_argument("--b", type=float, required=True)
    p_quad.add_argument("--target", type=float, required=True)
    p_quad.add_argument("--variant", choices=("p4", "p5", "p6"), required=True)
    p_quad.add_argument("--p", type=float, default=None)
    p_quad.add_argument("--q", type=float, default=None)
    p_quad.set_defaults(handler=cmd_quad)

    p_ident = sub.add_parser("identity", parents=[_common_parser()],
                             help="check the kernel identity on polynomials")
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
    except ConvergenceError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
