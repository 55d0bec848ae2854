"""A seeded hex dump of every registry bound, to show that a change moves no bit.

Run from the repository root:

    PYTHONPATH=src python tests/bounds_hex.py           # digest and line count
    PYTHONPATH=src python tests/bounds_hex.py --dump    # the lines themselves

Each line is one evaluation and its result as hex, or the exception it
raised. For each of the 13 THEOREMS tags it covers:
  - evaluate() on seeded float inputs, through its checks and OverflowError;
  - Theorem.bound() on seeded arrays of 4,000 rows at six widths down to
    1e-310, with zeros, equal pairs and subnormals among the magnitudes;
  - Theorem.bound() on floats, at every tuple of special magnitudes (each
    sign of zero included), six q and three widths and positions;
  - Theorem.bound() with float magnitudes against an array of q, as the
    sweep calls it.
Two trees give the same digest exactly when every one of these bits agrees.
"""

import hashlib
import itertools
import sys

import numpy as np

from ostrowski.bounds import THEOREMS, evaluate
from ostrowski.core import Interval, make_conjugate

SPECIAL = (0.0, -0.0, 5e-324, 1e-320, 2.0**-1022, 2.0**-961, 2.0**-960, 1e-300,
           1e-154, 0.3, 1.0, 3.0, 1e154, 1e300, 1.7976931348623157e308)
QS = (1.0, 1.0 + 1e-7, 1.5, 2.0, 3.0, 40.0)
PS = (1.0000001, 1.5, 2.0, 3.0, 40.0, 1e6)
WIDTHS = (1e-310, 2.0**-961, 1e-300, 1.0, 2.5, 1e300)
MAGNITUDES = ("da", "db", "dx", "M")


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    return hashlib.sha256(np.ascontiguousarray(value, dtype=float).tobytes()).hexdigest()[:16]


def _outcome(call):
    try:
        with np.errstate(all="ignore"):
            return _hex(call())
    except (ValueError, ArithmeticError) as exc:  # DomainError, OverflowError: part of the behaviour
        return f"{type(exc).__name__}: {exc}"


def _magnitude(rng):
    return float(rng.choice(SPECIAL[2:])) if rng.random() < 0.3 else float(10.0 ** rng.uniform(-323.0, 307.0))


def _evaluate_lines(rng, tag, theorem):
    for i in range(400):
        width = float(rng.choice(WIDTHS)) if i % 2 else float(10.0 ** rng.uniform(-320.0, 300.0))
        a = float(rng.uniform(0.0, 10.0)) if rng.random() < 0.5 and width > 1e-12 else 0.0
        kwargs = {}
        for key in theorem.required:
            if key == "x":
                kwargs["x"] = min(a + float(rng.random()) * width, a + width)
            elif key == "s":
                kwargs["s"] = 1.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 1.0))
            elif key == "p":
                kwargs["p"] = float(rng.choice(PS))
            elif key == "q":
                kwargs["q"] = float(rng.choice(QS))
            else:
                kwargs[key] = _magnitude(rng)
        yield f"{tag} evaluate {a!r} {width!r} {kwargs} " + _outcome(
            lambda: evaluate(tag, Interval(a, a + width), **kwargs).value)


def _values(width, lam, s, q, mags):
    # p is q's conjugate, or 1e300 at q = 1, so that each formula reads a pair
    if isinstance(q, np.ndarray):
        with np.errstate(divide="ignore"):
            p = np.where(q > 1.0, q / (q - 1.0), 1e300)
    else:
        p = q / (q - 1.0) if q > 1.0 else 1e300
    return {"width": width, "lam": lam, "mu": 1.0 - lam, "s": s, "p": p, "q": q, **dict(zip(MAGNITUDES, mags))}


def _array_lines(rng, tag, theorem):
    n = 4000
    for width in WIDTHS:
        lam = np.where(rng.random(n) < 0.1, rng.choice([0.0, 0.5, 1.0], n), rng.random(n))
        s = np.where(rng.random(n) < 0.2, 1.0, rng.uniform(0.01, 1.0, n))
        q = rng.choice(QS, n)
        da = np.where(rng.random(n) < 0.3, rng.choice(SPECIAL[2:], n), 10.0 ** rng.uniform(-323.0, 307.0, n))
        db = np.where(rng.random(n) < 0.3, rng.choice(SPECIAL[2:], n), da * rng.uniform(0.0, 1.0, n))
        swap = rng.random(n) < 0.5
        da[swap], db[swap] = db[swap], da[swap].copy()
        db[::5] = da[::5]  # equal pairs
        da[1::7] = db[1::7] = 0.0  # rows of two zeros
        dx = np.where(rng.random(n) < 0.5, da, rng.permutation(db))
        values = _values(width, lam, s, q, (da, db, dx, np.maximum(da, db)))
        yield f"{tag} arrays {width!r} " + _outcome(lambda: theorem.bound(values))


def _float_lines(tag, theorem):
    reads = [m for m in MAGNITUDES if m in theorem.reads]
    for mags in itertools.product(SPECIAL, repeat=len(reads)):
        for q, width, lam in itertools.product(QS, (1e-310, 1.0, 1e300), (0.0, 0.3, 1.0)):
            values = {**_values(width, lam, 0.7, q, ()), **dict(zip(reads, mags))}
            yield f"{tag} floats {mags} {q!r} {width!r} {lam!r} " + _outcome(lambda: theorem.bound(values))


def _sweep_lines(tag, theorem):
    # run_sweep broadcasts float magnitudes against an array of q, one per p
    q = np.array([make_conjugate(p).q for p in (1.5, 2.0, 3.0, 40.0)])
    for mags in ((0.0, 0.0), (0.0, 2.0), (1.5, 0.5), (2.0, 2.0), (1e-320, 3e-321), (-0.0, -0.0)):
        values = _values(1.5, np.array([[0.0], [0.3], [1.0]]), np.array([0.25, 1.0])[:, None, None], q,
                         (mags[0], mags[1], mags[0], mags[1]))
        yield f"{tag} sweep {mags} " + _outcome(lambda: theorem.bound(values))


def lines():
    rng = np.random.default_rng(20261020)
    for tag in sorted(THEOREMS):
        theorem = THEOREMS[tag]
        yield from _evaluate_lines(rng, tag, theorem)
        yield from _array_lines(rng, tag, theorem)
        yield from _float_lines(tag, theorem)
        yield from _sweep_lines(tag, theorem)


if __name__ == "__main__":
    digest, count = hashlib.sha256(), 0
    for line in lines():
        if "--dump" in sys.argv:
            print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{digest.hexdigest()} {count} lines")
