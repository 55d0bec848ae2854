"""A seeded contract fuzzer for the CLI, in process.

It draws commands for every bound tag, for means, for quad p4, p5 and p6,
for identity and for verify on one function with 2-point grids, from
extreme floats and plausible ones, each written as its own token, a
negative one often in scientific notation; a function spec's parameters are
drawn from the extremes too, nan and inf included, and verify's poly
coefficients up to 1e308. It asserts the contract the CLI states:

- the exit code is 0, 1, 2 or 3, and no exception leaves main;
- nothing reaches stderr but the CLI's own error line (argparse's usage
  and error lines for a usage error), and no warning is issued;
- stdout is empty on an error, and on success it is strict JSON (no NaN or
  Infinity) in which every number is finite;
- no value is taken for an option: every option drawn has its value.

derandomize=True makes the examples the same on every run that loads the
same modules: Hypothesis also draws the constants it finds in loaded
modules, so the file run alone and the whole suite draw differently. No
health check is suppressed. A longer run for a change that touches these
paths only needs a larger max_examples.
"""

import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski.cli import main

#: the fixed extreme set: zeros, subnormals, the ends of the normal range,
#: the square roots of those ends and the largest double
EXTREMES = (
    0.0, 5e-324, 2.5e-310, 2.0**-1022, 1e-300, 1e-154, 1e-8, 0.5, 1.0, 2.0,
    1e8, 1e154, 1e300, 2.0**1022, 1.7976931348623157e308,
)

#: how a float is written: shortest repr, or with an exponent as a user
#: might type it
SPELLINGS = (repr, "{:.3e}".format, "{:.17E}".format, "{:g}".format)


#: extremes and log-uniform values from subnormal to near the largest double
MAGNITUDES = st.one_of(
    st.sampled_from(EXTREMES),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, 307)),
)
SIGNED = st.builds(lambda v, neg: -v if neg else v, MAGNITUDES, st.booleans())


def token(plausible):
    """A float token: a signed extreme or log-uniform value one time in four,
    else one from the plausible range, written in one of SPELLINGS. With
    every input extreme half the time, nine commands in ten were refused."""
    return st.builds(lambda pick, extreme, plain, spell: spell(extreme if pick == 0 else plain),
                     st.integers(0, 3), SIGNED, plausible, st.sampled_from(SPELLINGS))


#: one token strategy per option, built once: building strategies per draw
#: costs more than running the command
UNIT = token(st.floats(0.0, 1.0))
EXPONENT = token(st.floats(1.0, 40.0))
#: p > 1, whose conjugate q = p/(p-1) takes values from 40/39 up past 40
CONJUGATE = token(st.floats(1.025, 50.0))
#: plausible ends and points lie in [0, 1], [1, 3] and [3, 4], so that they
#: are in order unless an extreme is drawn
LEFT, MIDDLE, RIGHT = token(st.floats(0.0, 1.0)), token(st.floats(1.0, 3.0)), token(st.floats(3.0, 4.0))
SLOPE = token(st.floats(0.0, 10.0))
#: the inputs of each bound tag, as the CLI's table of tags states them
BOUND_INPUTS = {
    "t20": {"x": MIDDLE, "s": UNIT, "da": SLOPE, "db": SLOPE},
    "teo1": {"x": MIDDLE, "s": UNIT, "p": CONJUGATE, "da": SLOPE, "db": SLOPE},
    "t21": {"x": MIDDLE, "s": UNIT, "p": CONJUGATE, "da": SLOPE, "dx": SLOPE, "db": SLOPE},
    "z": {"x": MIDDLE, "s": UNIT, "p": CONJUGATE, "da": SLOPE, "db": SLOPE},
    "t22": {"x": MIDDLE, "s": UNIT, "q": EXPONENT, "da": SLOPE, "db": SLOPE},
    "eq11": {"x": MIDDLE, "m": SLOPE},
    "ee": {"x": MIDDLE, "s": UNIT, "p": CONJUGATE, "m": SLOPE},
    "eq14": {"da": SLOPE, "db": SLOPE},
    "eq15": {"p": CONJUGATE, "da": SLOPE, "db": SLOPE},
    "eq16": {"p": CONJUGATE, "da": SLOPE, "db": SLOPE},
}


def parameter(plausible):
    """A spec parameter: a token(plausible) seven times in eight, else nan or
    a signed inf, which the spec must refuse by the parameter's name."""
    return st.builds(lambda pick, bad, good: bad if pick == 0 else good,
                     st.integers(0, 7), st.sampled_from(("nan", "inf", "-inf")), token(plausible))


COEFFICIENT = parameter(st.floats(-3.0, 3.0))
SPECS = st.one_of(
    st.builds(lambda c: "poly:" + ",".join(c), st.lists(COEFFICIENT, min_size=1, max_size=4)),
    st.builds(lambda k: "powabs:" + k, parameter(st.floats(1.0, 4.0))),
    st.builds(lambda u, v, w, s: f"breckner:{u},{v},{w},{s}", COEFFICIENT, COEFFICIENT, COEFFICIENT,
              parameter(st.floats(0.0, 1.0))),
)
#: a target of 1e-4 or more meets a bound of order one within 2^14 panels,
#: so most commands take a few milliseconds; the extremes still reach the
#: panel budget now and then
TARGET = token(st.sampled_from((1e-1, 1e-2, 1e-3, 1e-4)))


def flags(values):
    return [token for name, value in values.items() for token in (f"--{name}", value)]


def bound_commands():
    return st.one_of(*(
        st.builds(lambda tag, inputs: ["bound", "--theorem", tag] + flags(inputs),
                  st.just(tag), st.fixed_dictionaries({"a": LEFT, "b": RIGHT, **inputs}))
        for tag, inputs in BOUND_INPUTS.items()))


def means_commands():
    return st.builds(lambda inputs: ["means"] + flags(inputs), st.fixed_dictionaries(
        {"a": LEFT, "b": RIGHT, "s": UNIT, "q": EXPONENT}))


def quad_commands():
    common = {"fn": SPECS, "a": LEFT, "b": RIGHT, "target": TARGET}
    return st.one_of(
        st.builds(lambda inputs: ["quad", "--variant", "p4"] + flags(inputs),
                  st.fixed_dictionaries({**common, "p": CONJUGATE})),
        st.builds(lambda inputs: ["quad", "--variant", "p5"] + flags(inputs),
                  st.fixed_dictionaries(common)),
        st.builds(lambda inputs: ["quad", "--variant", "p6"] + flags(inputs),
                  st.fixed_dictionaries({**common, "q": EXPONENT})),
    )


def grid(plausible):
    """A 2-point grid, written as one token: each point a signed extreme or
    log-uniform value one time in eight, else a plausible one, so that a
    grid that starts with '-' is drawn too."""
    point = st.builds(lambda pick, extreme, plain: repr(extreme if pick == 0 else plain),
                      st.integers(0, 7), SIGNED, plausible)
    return st.builds(lambda u, v: f"{u},{v}", point, point)


#: a poly coefficient's magnitude: 1e154 to the largest double, which can
#: overflow f, f' or the oracle's sums on [0, 1] already, or a plausible one
MAGNITUDE = st.one_of(st.sampled_from((1e154, 1e300, 1e308, 1.7976931348623157e308)),
                      st.floats(1e154, 1.7976931348623157e308), st.floats(0.0, 3.0))


def large_poly(mixed):
    """A poly of two or three such coefficients, all of one sign, or each of
    either sign if mixed."""
    coefficient = st.tuples(MAGNITUDE, st.sampled_from((1.0, -1.0)), st.sampled_from(SPELLINGS))
    return st.builds(
        lambda sign, c: "poly:" + ",".join(spell(m * (own if mixed else sign)) for m, own, spell in c),
        st.sampled_from((1.0, -1.0)), st.lists(coefficient, min_size=2, max_size=3))


def verify_commands():
    inputs = {"functions": SPECS, "s-grid": grid(st.floats(0.01, 1.0)), "x-points": st.just("2"),
              "p-grid": grid(st.floats(1.025, 50.0))}
    return st.one_of(
        st.builds(lambda values: ["verify"] + flags(values), st.fixed_dictionaries(inputs)),
        st.builds(lambda values: ["verify"] + flags(values), st.fixed_dictionaries(
            {**inputs, "a": LEFT, "b": RIGHT, "tol": TARGET})),
    )


def large_poly_commands(mixed):
    """verify on a large poly with grids that pass, so that f, f' and the
    oracle run."""
    large = {"functions": large_poly(mixed), "s-grid": st.just("0.5"), "x-points": st.just("2"),
             "p-grid": st.just("2")}
    return st.one_of(
        st.builds(lambda values: ["verify"] + flags(values), st.fixed_dictionaries(large)),
        st.builds(lambda values: ["verify"] + flags(values), st.fixed_dictionaries(
            {**large, "a": LEFT, "b": RIGHT})),
    )


def identity_commands():
    return st.builds(lambda tol: ["identity", "--tol", tol], token(st.floats(1e-12, 1e-3)))


#: the one line the CLI itself writes on an error, and argparse's last line
ERROR_LINE = re.compile(r"(error|oracle error): [^\n]+\n")
USAGE_ERROR = re.compile(r"usage: ostrowski [^\n]+\n(?:[ ]+[^\n]*\n)*ostrowski \w+: error: [^\n]+\n")


def _reject_constant(name):
    raise ValueError(f"printed {name}, which is not strict JSON")


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"printed {text}, which is not finite")
    return value


def check_contract(argv) -> int:
    """Run argv through main in process, assert the contract, and return the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err, (argv, err)
    if code in (0, 1):
        assert err == "", (argv, err)
        json.loads(out, parse_constant=_reject_constant, parse_float=_finite)
    else:
        assert out == "", (argv, out)
        assert ERROR_LINE.fullmatch(err) or USAGE_ERROR.fullmatch(err), (argv, err)
        # every option drawn is followed by its value, a number or a spec
        assert "expected one argument" not in err, (argv, err)
    return code


def fuzz(commands, examples=150) -> set:
    """check_contract on a fixed, seeded run of commands; the exit codes seen."""
    codes = set()

    @settings(max_examples=examples, derandomize=True, deadline=None, suppress_health_check=())
    @given(commands)
    def run(argv):
        codes.add(check_contract(argv))

    run()
    return codes


# each run also asserts what it reaches: a fuzzer whose draws were all
# refused, or all accepted, would check only half of the contract


def test_bound_keeps_the_contract():
    assert fuzz(bound_commands()) == {0, 2}


def test_means_keeps_the_contract():
    assert fuzz(means_commands()) == {0, 2}


def test_quad_keeps_the_contract():
    assert fuzz(quad_commands()) == {0, 2, 3}


def test_verify_keeps_the_contract():
    assert fuzz(verify_commands()) == {0, 2}


def test_large_polys_keep_the_contract():
    # f of one sign: the oracle's roundoff floor is a fraction of the
    # tolerance that run_sweep asks of it
    assert fuzz(large_poly_commands(mixed=False)) == {0, 2}


#: exits 3 where it should exit 0: the mean's tolerance in run_sweep,
#: max(1e-12 * width, ORACLE_EPSREL * |integral of f|), falls below the
#: oracle's roundoff floor, which scales with the integral of |f|, once f
#: changes sign and is large enough (poly:-1e3,1e3,1e3 exits 0)
SIGN_CHANGING = ["verify", "--functions", "poly:-1e4,1e4,1e4", "--s-grid", "0.5",
                 "--p-grid", "2", "--x-points", "2"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="run_sweep asks the oracle for less than its roundoff floor")
def test_sign_changing_large_polys_keep_the_contract():
    # the draws may or may not change sign where it matters, since
    # Hypothesis also draws the constants it finds in loaded modules; the
    # fixed command always does
    codes = fuzz(large_poly_commands(mixed=True)) | {check_contract(SIGN_CHANGING)}
    assert {0, 2} <= codes <= {0, 1, 2}


def test_identity_keeps_the_contract():
    # each command runs the whole identity sweep, about 50 ms
    assert {0, 2} <= fuzz(identity_commands(), examples=30)
