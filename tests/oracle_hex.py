"""A seeded hex dump of the oracle's panel rule and integrals, to show that a
change moves no bit.

Run from the repository root:

    PYTHONPATH=src python tests/oracle_hex.py           # digest and line count
    PYTHONPATH=src python tests/oracle_hex.py --dump    # the lines themselves

Each line is one call and its result as hex, or the exception it raised,
with its message. It covers:
  - toolkit._rule on lone panels and on splits of seeded integrands over
    widths from 1e-12 to 100;
  - toolkit._rule on tables of seeded values: normal, subnormal, mixed,
    near and above 2**1023, constant, and with NaN or inf in either half,
    so that the floor, the quartering and both failures are reached;
  - reference_integrate on the integrands of the benchmark's oracle
    workload at epsrel = 0, on seeded polynomials with and without a sign
    change at epsrel = ORACLE_EPSREL, and on inputs that fail.
Two trees give the same digest exactly when every one of these bits and
messages agrees.
"""

import hashlib
import math
import random
import sys

import numpy as np

from ostrowski import toolkit
from ostrowski.core import ConvergenceError, DomainError, Function1D, Interval

SPECS = ("powabs:0.5", "powabs:1.5", "breckner:1,2,0.5,0.3", "breckner:0,1,0,0.75",
         "poly:1,-2,0.5,3", "poly:1e300,-3e300", "poly:5e307")


def _outcome(call):
    try:
        with np.errstate(all="ignore"):
            got = call()
    except (DomainError, ConvergenceError, OverflowError) as exc:  # part of the behaviour
        return f"{type(exc).__name__}: {exc}"
    if isinstance(got, float):
        return got.hex()
    return " ".join(f"({v.hex()}, {e.hex()})" for v, e in got)


def _table(values):
    # the first len(t) values, so a lone panel reads the left half of a split's table
    return Function1D(f=lambda t: values[: np.size(t)], label="table")


def _draw(rng, kind):
    if kind == "normal":
        return rng.standard_normal(30) * 10.0 ** rng.uniform(-300.0, 300.0)
    if kind == "subnormal":
        return rng.integers(-2**20, 2**20, 30) * 2.0**-1074
    if kind == "huge":  # each value in [2**1022, 1.7e308], some halves past 2**1023
        return rng.choice([-1.0, 1.0], 30) * rng.uniform(2.0**1022, 1.7e308, 30)
    if kind == "constant":
        return np.full(30, rng.choice([5e307, 9e307, 1.7e308, 1.0, 2.0**-1074]))
    vals = np.concatenate((_draw(rng, "huge")[:15], _draw(rng, "subnormal")[:15]))
    return vals if kind == "mixed" else vals[::-1].copy()  # "mixed-reversed"


def _rule_lines(rng):
    for spec in SPECS:
        fn = toolkit.parse_function_spec(spec)
        for _ in range(200):
            lo = float(rng.uniform(0.0, 3.0))
            hi = lo + float(10.0 ** rng.uniform(-12.0, 2.0))
            mid = 0.5 * (lo + hi)
            for edges in ((lo, hi), (lo, mid, hi)):
                yield f"rule {spec} {edges!r} " + _outcome(lambda: toolkit._rule(fn, edges))
    kinds = ("normal", "subnormal", "huge", "constant", "mixed", "mixed-reversed")
    for i in range(1200):
        vals = _draw(rng, kinds[i % len(kinds)])
        if i % 5 == 0:  # a NaN or inf at a random node of either half
            vals[int(rng.integers(30))] = rng.choice([math.nan, math.inf, -math.inf])
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo + float(10.0 ** rng.uniform(-12.0, 2.0))
        fn = _table(vals)
        for edges in ((lo, hi), (lo, 0.5 * (lo + hi), hi)):
            yield f"table {i} {edges!r} " + _outcome(lambda: toolkit._rule(fn, edges))


def _oracle_workload_lines(seed):
    # the integrands, intervals and tolerances of perfbench's oracle round
    rng = random.Random(seed)
    u = rng.uniform
    for _ in range(40):
        c, v = u(0.5, 2.0), u(0.5, 2.0)
        calls = [
            (f"breckner:0,{v!r},0,0.5", 0.0, c, 1e-11 * v * c**1.5),
            (f"breckner:0,{v!r},0,0.25", 0.0, c, 1e-10 * v * c**1.25),
            (f"breckner:0,{v!r},0,0.75", 0.0, c, 1e-12 * v * c**0.75 * c),
            (f"breckner:0,{v!r},0,0.5", 0.0, c, 1e-11 * v * c**0.5 * c),
            ("powabs:0.5", -c, c, 1e-12 * c**1.5),
            ("powabs:0.25", -c, c, 1e-10 * c**1.25),
            ("powabs:1", -0.6 * c, 1.4 * c, 1e-11 * c * 2.0 * c),
            ("powabs:1.5", -0.6 * c, 1.4 * c, 1e-12 * c**2.5),
        ]
        u(0.0, c), u(0.0, c), u(-0.6 * c, 1.4 * c)  # the workload's three x draws
        for spec, a, b, tol in calls:
            fn = toolkit.parse_function_spec(spec)
            yield f"oracle {spec} {a!r} {b!r} {tol!r} " + _outcome(
                lambda: toolkit.reference_integrate(fn, Interval(a, b), tol))
    yield "oracle poly:1000 " + _outcome(lambda: toolkit.reference_integrate(
        toolkit.parse_function_spec("poly:1000"), Interval(0.0, 1.0), 1e-12))


def _relative_lines(rng):
    for i in range(150):
        coeffs = (rng.standard_normal(int(rng.integers(1, 5))) * 10.0 ** rng.uniform(-3.0, 300.0))
        if i % 2:  # one sign on [a, b] with a >= 0
            coeffs = np.abs(coeffs)
        a = float(rng.uniform(-2.0, 2.0)) if i % 2 == 0 else float(rng.uniform(0.0, 2.0))
        b = a + float(10.0 ** rng.uniform(-3.0, 1.0))
        spec = "poly:" + ",".join(map(repr, coeffs.tolist()))
        fn = toolkit.parse_function_spec(spec)
        tol = float(10.0 ** rng.uniform(-14.0, -9.0))
        yield f"relative {spec} {a!r} {b!r} {tol!r} " + _outcome(lambda: toolkit.reference_integrate(
            fn, Interval(a, b), tol, epsrel=toolkit.ORACLE_EPSREL))


def _failure_lines():
    cases = [
        ("poly:1", 0.0, 1.0, 1e-300),
        ("poly:2,-1", 1.0, 3.0, 1e-300),
        ("poly:3.3e307", 0.0, 1.0, 1e-12),
        ("poly:1e308", 0.0, 2.0, 1e-12),
        ("poly:0,1e308", 0.0, 1.0, 1e294),
        ("powabs:0.5", -1.0, 1.0, 1e-18),
    ]
    for spec, a, b, tol in cases:
        fn = toolkit.parse_function_spec(spec)
        yield f"failure {spec} {a!r} {b!r} {tol!r} " + _outcome(
            lambda: toolkit.reference_integrate(fn, Interval(a, b), tol))
    for label, f in (("nan-right", lambda t: np.where(t > 0.5, math.nan, t * t)),
                     ("big-sin", lambda t: 5e307 * np.sin(t))):
        fn = Function1D(f=f, label=label)
        yield f"failure {label} " + _outcome(
            lambda: toolkit.reference_integrate(fn, Interval(0.0, 4.0 * math.pi), 1e-12))


def lines():
    rng = np.random.default_rng(20261022)
    yield from _rule_lines(rng)
    yield from _oracle_workload_lines(1)
    yield from _relative_lines(rng)
    yield from _failure_lines()


if __name__ == "__main__":
    digest, count = hashlib.sha256(), 0
    for line in lines():
        if "--dump" in sys.argv:
            print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()} {count} lines")
