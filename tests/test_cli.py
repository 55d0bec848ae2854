"""CLI contract: subcommands, exit codes, output formats, determinism."""

import csv
import dataclasses
import io
import json
import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import ostrowski.bounds as bounds
import ostrowski.cli as cli
import ostrowski.means as means
import ostrowski.quadrature as quadrature
import ostrowski.toolkit as toolkit
from ostrowski.bounds import (
    bound_holder_global,
    bound_holder_hadamard,
    bound_holder_split,
    bound_power_mean,
    bound_sconvex_abs,
)
from ostrowski.cli import SweepConfig, main, run_sweep
from ostrowski.core import DomainError, EndpointData, Interval, make_conjugate
from ostrowski.kernel import alomari_bound, baseline_midpoint_bound, classic_ostrowski_bound


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"CLI printed {name}, which is not valid JSON")


def strict_json(text):
    """json.loads that fails on the NaN, Infinity and -Infinity json.dumps can print."""
    return json.loads(text, parse_constant=_reject_constant)


# every --theorem tag: exactly its required flags, with values that satisfy
# each hypothesis, and the library call the command must reproduce
V = {"a": 0.5, "b": 2.5, "x": 0.8, "s": 0.37, "p": 3.0, "q": 1.5,
     "da": 0.3, "db": 2.0, "dx": 0.9, "m": 2.5}
IV = Interval(V["a"], V["b"])
EP = EndpointData(V["da"], V["db"])
CP = make_conjugate(V["p"])
BOUND_TAGS = {
    "t20": (("a", "b", "x", "s", "da", "db"),
            lambda: bound_sconvex_abs(IV, V["x"], V["s"], EP)),
    "teo1": (("a", "b", "x", "s", "p", "da", "db"),
             lambda: bound_holder_split(IV, V["x"], V["s"], CP, EP)),
    "t21": (("a", "b", "x", "s", "p", "da", "db", "dx"),
            lambda: bound_holder_hadamard(
                IV, V["x"], V["s"], CP, EndpointData(V["da"], V["db"], V["dx"]))),
    "z": (("a", "b", "x", "s", "p", "da", "db"),
          lambda: bound_holder_global(IV, V["x"], V["s"], CP, EP)),
    "t22": (("a", "b", "x", "s", "q", "da", "db"),
            lambda: bound_power_mean(IV, V["x"], V["s"], V["q"], EP)),
    "eq11": (("a", "b", "x", "m"),
             lambda: classic_ostrowski_bound(IV, V["x"], V["m"])),
    "ee": (("a", "b", "x", "s", "p", "m"),
           lambda: alomari_bound(IV, V["x"], V["s"], CP, V["m"])),
    "eq14": (("a", "b", "da", "db"),
             lambda: baseline_midpoint_bound("eq14", IV, None, V["da"], V["db"])),
    "eq15": (("a", "b", "p", "da", "db"),
             lambda: baseline_midpoint_bound("eq15", IV, CP, V["da"], V["db"])),
    "eq16": (("a", "b", "p", "da", "db"),
             lambda: baseline_midpoint_bound("eq16", IV, CP, V["da"], V["db"])),
}


def bound_argv(tag, flags):
    argv = ["bound", "--theorem", tag]
    for name in flags:
        argv += [f"--{name}", repr(V[name])]
    return argv


class TestBoundCommand:
    @pytest.mark.parametrize("tag", sorted(BOUND_TAGS))
    def test_value_is_the_library_value(self, capsys, tag):
        flags, direct = BOUND_TAGS[tag]
        code, out, _ = run(capsys, *bound_argv(tag, flags))
        assert code == 0
        payload = strict_json(out)
        expected = direct()
        assert payload["theorem"] == expected.theorem_id == tag
        assert payload["value"] == expected.value

    def test_t22_at_large_q(self, capsys):
        # 0.5^2000 underflowed and the value printed was 0.0; 50-digit value
        # 0.1250200904289195770
        code, out, _ = run(
            capsys, "bound", "--theorem", "t22", "--a", "0", "--b", "1", "--x", "0.5",
            "--s", "0.5", "--q", "2000", "--da", "0.5", "--db", "0.5",
        )
        assert code == 0
        assert strict_json(out)["value"] == pytest.approx(0.1250200904289195770, rel=1e-15)

    @pytest.mark.parametrize("tag,exponent", [
        ("t22", ("--q", "2000")),
        ("teo1", ("--p", "1.0000001")),
        ("t21", ("--p", "1.0000001")),
        ("z", ("--p", "1.0000001")),
        ("eq15", ("--p", "1.0000001")),
    ])
    def test_large_q_is_finite(self, capsys, tag, exponent):
        # 2^q overflowed: an OverflowError traceback and exit 1
        code, out, err = run(
            capsys, "bound", "--theorem", tag, "--a", "0", "--b", "1", "--x", "0.5",
            "--s", "0.5", *exponent, "--da", "2", "--db", "2", "--dx", "2",
        )
        assert (code, err) == (0, "")
        value = strict_json(out)["value"]
        assert math.isfinite(value) and value > 0.0

    def test_overflow_elsewhere_exits_2(self, capsys):
        # the uniform-derivative bound itself, about 6.7e599, is beyond double precision
        code, out, err = run(
            capsys, "bound", "--theorem", "ee", "--a", "0", "--b", "1e300", "--x", "0",
            "--s", "0.5", "--p", "2", "--m", "1e300",
        )
        assert code == 2
        assert out == ""
        assert err == "error: a value overflowed double precision\n"

    @pytest.mark.parametrize("tag", sorted(BOUND_TAGS))
    def test_each_missing_flag_named(self, capsys, tag):
        flags, _ = BOUND_TAGS[tag]
        for name in flags:
            code, out, err = run(capsys, *bound_argv(tag, [f for f in flags if f != name]))
            assert code == 2, (tag, name)
            assert out == ""
            assert err.strip().endswith(f"requires --{name}"), (tag, name, err)

    def test_t20_json(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--theorem", "t20", "--a", "0", "--b", "1",
            "--x", "0.5", "--s", "1", "--da", "1", "--db", "1",
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["theorem"] == "t20"
        assert payload["value"] == pytest.approx(0.25, rel=1e-12)
        assert payload["a"] == 0.0 and payload["b"] == 1.0

    def test_z_human(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--theorem", "z", "--a", "0", "--b", "1",
            "--x", "0.5", "--s", "1", "--p", "2", "--da", "1", "--db", "1",
            "--format", "human",
        )
        assert code == 0
        assert "0.288675" in out

    def test_eq11(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--theorem", "eq11", "--a", "0", "--b", "2",
            "--x", "0.5", "--m", "1",
        )
        assert code == 0
        assert strict_json(out)["value"] == pytest.approx(0.625, rel=1e-12)

    def test_reversed_interval_usage_error(self, capsys):
        code, _, err = run(
            capsys, "bound", "--theorem", "t20", "--a", "1", "--b", "0",
            "--x", "0.5", "--s", "1", "--da", "1", "--db", "1",
        )
        assert code == 2
        assert "interval requires a < b" in err

    @pytest.mark.parametrize("argv", [
        ("--theorem", "eq14", "--a=-1e308", "--b", "1e308", "--da", "1", "--db", "1"),
        ("--theorem", "eq11", "--a=-1e308", "--b", "1e308", "--x", "0", "--m", "1"),
    ])
    def test_overflowing_width_named(self, capsys, argv):
        # b - a = 2e308 used to surface as "bound ... produced invalid value inf/nan"
        code, out, err = run(capsys, "bound", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: interval width b - a must be finite, got inf\n"

    @pytest.mark.parametrize("argv", [
        ("bound", "--theorem", "eq14", "--a", "-1e-3", "--b", "1", "--da", "1", "--db", "1"),
        ("bound", "--theorem", "eq14", "--a", "-1e308", "--b", "1e308", "--da", "1", "--db", "1"),
        ("bound", "--theorem", "eq14", "--a", "-.5E+1", "--b", "1", "--da", "1", "--db", "1"),
        ("bound", "--theorem", "eq11", "--a", "-2.5e-1", "--b", "1", "--x", "0", "--m", "1"),
        ("quad", "--fn", "poly:0,0,1", "--a", "-1e0", "--b", "1", "--target", "1e-2",
         "--variant", "p6", "--q", "2"),
        ("quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1", "--target", "-1e-2", "--variant", "p5"),
        ("means", "--a", "1", "--b", "2", "--s", "-5e-1"),
        ("verify", "--functions", "poly:0,1", "--a", "-1e-3", "--b", "1", "--tol", "-1e-9"),
    ])
    def test_negative_number_with_an_exponent_is_a_value(self, capsys, argv):
        # a token like -1e-3 is read as -0.001 is: the same bytes and exit
        # code as the value joined to its option by "="
        joined, i = list(argv), 0
        while i < len(joined) - 1:
            if joined[i].startswith("--") and joined[i + 1].startswith("-"):
                joined[i : i + 2] = [f"{joined[i]}={joined[i + 1]}"]
            i += 1
        assert joined != list(argv)
        got, want = run(capsys, *argv), run(capsys, *joined)
        assert got == want
        assert "expected one argument" not in got[2]

    @pytest.mark.parametrize("token", ["-1e", "-e5", "-1e5x", "-x"])
    def test_other_dash_tokens_still_parse_as_before(self, capsys, token):
        # a token float() does not read is taken for an option, as argparse takes it
        code, out, err = run(capsys, "bound", "--theorem", "eq14", "--a", token,
                             "--b", "1", "--da", "1", "--db", "1")
        assert (code, out) == (2, "")
        assert "argument --a: expected one argument" in err

    def test_grid_starting_with_a_dash_is_a_value(self, capsys):
        # "-0.5,1" is no float, and argparse took it for an option
        got = run(capsys, "verify", "--s-grid", "-0.5,1", "--functions", "poly:0,1")
        assert got == run(capsys, "verify", "--s-grid=-0.5,1", "--functions", "poly:0,1")
        assert got == (2, "", "error: s must lie in (0, 1], got -0.5\n")

    @pytest.mark.parametrize("grid", ["-1e", "-e5", "-1e5x", "-x", "-0.5,x"])
    def test_grid_with_an_item_float_does_not_read_is_an_option(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--s-grid", grid, "--functions", "poly:0,1")
        assert (code, out) == (2, "")
        assert "argument --s-grid: expected one argument" in err

    @pytest.mark.parametrize("token", ["-5.", "-inf", "-nan"])
    def test_dash_tokens_that_float_reads_are_values(self, capsys, token):
        # the same bytes and exit code as the token joined to its option by "="
        argv = ("--b", "1", "--da", "1", "--db", "1")
        got = run(capsys, "bound", "--theorem", "eq14", "--a", token, *argv)
        assert got == run(capsys, "bound", "--theorem", "eq14", f"--a={token}", *argv)
        if math.isfinite(float(token)):
            assert got[0] == 0
        else:
            assert got == (2, "", f"error: a must be finite, got {float(token)!r}\n")

    def test_negative_number_with_an_exponent_in_a_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theorem=eq14\na=-1e-3\nb=1\nda=1\ndb=1\n")
        got = run(capsys, "bound", "--config", str(cfg))
        want = run(capsys, "bound", "--theorem", "eq14", "--a=-1e-3", "--b", "1", "--da", "1", "--db", "1")
        assert got == want and got[0] == 0

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        # the OSError from opening --out used to escape as a traceback, exit 1
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "bound", "--theorem", "eq14", "--a", "0", "--b", "1",
            "--da", "1", "--db", "1", "--out", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1
        assert not path.exists()

    def test_missing_parameter_named(self, capsys):
        code, _, err = run(
            capsys, "bound", "--theorem", "t21", "--a", "0", "--b", "1",
            "--x", "0.5", "--s", "1", "--p", "2", "--da", "1", "--db", "1",
        )
        assert code == 2
        assert "--dx" in err

    def test_p_checked_with_the_other_inputs(self, capsys):
        # --p is checked by evaluate in its turn, after --x: the message names
        # the first bad input in evaluate's order
        code, out, err = run(
            capsys, "bound", "--theorem", "teo1", "--a", "0", "--b", "1",
            "--x", "5", "--s", "0.5", "--p", "0.5", "--da", "1", "--db", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: evaluation point x=5.0 outside interval [0.0, 1.0]\n"

    def test_eq15_missing_p_named(self, capsys):
        code, _, err = run(
            capsys, "bound", "--theorem", "eq15", "--a", "0", "--b", "1",
            "--da", "1", "--db", "1",
        )
        assert code == 2
        assert "--p" in err

    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_t22_non_finite_q_usage_error(self, capsys, q):
        # q = inf used to print "q": Infinity, which is not JSON
        code, out, err = run(
            capsys, "bound", "--theorem", "t22", "--a", "0", "--b", "1", "--x", "0.3",
            "--s", "0.5", "--q", q, "--da", "1", "--db", "2",
        )
        assert code == 2
        assert out == ""
        assert "finite q >= 1" in err

    def test_unknown_theorem(self, capsys):
        code, _, _ = run(capsys, "bound", "--theorem", "nope", "--a", "0", "--b", "1")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--theorem", "eq14", "--a", "0", "--b", "1",
            "--da", "1", "--db", "1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:2] == ["theorem", "value"]
        assert float(rows[1][1]) == 0.25

    def test_json_deterministic(self, capsys):
        argv = (
            "bound", "--theorem", "teo1", "--a", "0", "--b", "1", "--x", "0.3",
            "--s", "0.5", "--p", "3", "--da", "0.7", "--db", "1.9",
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("flag,value,message", [
        ("--x", "1.5", "outside interval"),
        ("--s", "5", "s must lie in (0, 1]"),
        ("--p", "0.5", "requires p > 1"),
        ("--q", "0.5", "finite q >= 1"),
        ("--dx", "-1", "dx must be a finite magnitude"),
        ("--m", "nan", "M must be a finite magnitude"),
    ], ids=["x", "s", "p", "q", "magnitude-dx", "magnitude-m"])
    def test_unread_flag_checked_by_its_kind(self, capsys, flag, value, message):
        # eq14 reads only --da and --db; every other flag given is still checked
        argv = ("bound", "--theorem", "eq14", "--a", "0", "--b", "1", "--da", "1", "--db", "1")
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (2, "")
        assert message in err

    def test_unread_magnitude_checked_by_its_kind(self, capsys):
        code, out, err = run(
            capsys, "bound", "--theorem", "eq11", "--a", "0", "--b", "1", "--x", "0.5",
            "--m", "1", "--da", "inf",
        )
        assert (code, out) == (2, "")
        assert "da must be a finite magnitude" in err

    @pytest.mark.parametrize("tag,extra,exact", [
        ("eq14", (), 1.7e308 / 4),
        ("eq16", ("--p", "3"), 1.7e308 / 2),
        ("t20", ("--x", "0.5", "--s", "1"), 1.7e308 / 4),
    ])
    def test_large_derivatives_finite(self, capsys, tag, extra, exact):
        # the sum da + db overflowed: "produced invalid value inf", exit 2
        code, out, err = run(
            capsys, "bound", "--theorem", tag, "--a", "0", "--b", "1", *extra,
            "--da", "1.7e308", "--db", "1.7e308",
        )
        assert (code, err) == (0, "")
        assert strict_json(out)["value"] == pytest.approx(exact, rel=4e-16)


    @pytest.mark.parametrize("argv,exact", [
        (("eq11", "--a", "0", "--b", "2", "--x", "1", "--m", "1.7e308"), 8.5e307),
        (("t21", "--a", "0", "--b", "1.5e154", "--x", "0", "--s", "1", "--p", "2",
          "--da", "1", "--db", "1", "--dx", "1"), 1.5e154 / math.sqrt(3.0)),
        (("ee", "--a", "0", "--b", "1.5e154", "--x", "0", "--s", "1", "--p", "2", "--m", "1"),
         1.5e154 / math.sqrt(3.0)),
    ])
    def test_overflowing_intermediates_finite(self, capsys, argv, exact):
        # M (b-a), or the square of b - x, overflowed though the bound does
        # not, and the command exited 2
        code, out, err = run(capsys, "bound", "--theorem", *argv)
        assert (code, err) == (0, "")
        assert strict_json(out)["value"] == pytest.approx(exact, rel=4e-16)
        if argv[0] == "eq11":
            assert '"value": 8.5e+307,' in out

    @pytest.mark.parametrize("argv,value", [
        # (x - a)^2 underflowed to 0, and the bound printed as 0.0
        (("ee", "--a", "0", "--b", "1e-200", "--x", "0", "--s", "1", "--p", "2", "--m", "1"),
         "5.773502691896258e-201"),
        # (b - x)^2 |f'(x)| overflowed, and the command exited 2
        (("t21", "--a", "0", "--b", "1e100", "--x", "0", "--s", "1", "--p", "2",
          "--da", "1e200", "--db", "1e200", "--dx", "1e200"), "5.773502691896258e+299"),
        # the width is quartered, not M: a quartered 5e-324 is 0
        (("eq11", "--a", "0", "--b", "1e300", "--x", "0", "--m", "5e-324"),
         "2.470328229206233e-24"),
        # nor a subnormal width before it is scaled up: a quartered 5e-324 width is 0
        (("eq11", "--a", "0", "--b", "5e-324", "--x", "0", "--m", "1e300"),
         "2.470328229206233e-24"),
        # and a quartered width of 7 subnormal units rounds to 2, 14% high
        (("eq11", "--a", "0", "--b", "3.5e-323", "--x", "0", "--m", "1e300"),
         "1.7292297604443628e-23"),
        # M / 3^(1/2) rounded to 5e-324 again, and the bound printed as 4.94e-24
        (("ee", "--a", "0", "--b", "1e300", "--x", "0", "--s", "1", "--p", "2", "--m", "5e-324"),
         "2.8524893362379006e-24"),
    ])
    def test_position_through_offsets(self, capsys, argv, value):
        code, out, err = run(capsys, "bound", "--theorem", *argv)
        assert (code, err) == (0, "")
        assert f'"value": {value},' in out

    @pytest.mark.parametrize("tag,argv", [
        (tag, ("--x", "5e299", "--s", "1", "--da", "5e-324", "--db", "5e-324")) for tag in ("t20", "eq14")
    ] + [
        (tag, ("--x", "0", "--s", "1", "--p", "1.001", "--da", "1e-310", "--db", "1e-310"))
        for tag in ("z", "teo1")
    ])
    def test_subnormal_derivatives_on_a_wide_interval(self, capsys, tag, argv):
        # quartered or raised to the q-th power, a subnormal |f'| rounded to
        # 0 before the width 1e300 applied, and each bound printed as 0.0
        mp = pytest.importorskip("mpmath").mp
        code, out, err = run(capsys, "bound", "--theorem", tag, "--a", "0", "--b", "1e300", *argv)
        assert (code, err) == (0, "")
        got = strict_json(out)["value"]
        flags = dict(zip(argv[::2], argv[1::2]))
        with mp.workprec(200):
            w, x = mp.mpf(1e300), mp.mpf(float(flags["--x"]))
            lam, mu = (w - x) / w, x / w
            da = mp.mpf(float(flags["--da"]))  # da = db
            if tag in ("z", "teo1"):
                # at x = a both reduce to (b - a) (p + 1)^(-1/p) da
                p = mp.mpf(1.001)
                want = w * (p + 1) ** (-1 / p) * da
            elif tag == "t20":
                bracket = sum(4 * r**3 - 3 * r**2 + 1 for r in (lam, mu))  # at s = 1
                want = w / 6 * bracket * da
            else:
                want = w / 4 * da
            assert 0.0 < got and abs(mp.mpf(got) - want) <= 4 * math.ulp(float(want)), (got, want)


# the key order of every payload: the echo of each bound, then means and quad
BOUND_ECHO = {
    "t20": "x s da db",
    "teo1": "x s p q da db",
    "t21": "x s p q da dx db",
    "z": "x s p q da db",
    "t22": "x s q da db",
    "eq11": "x M",
    "ee": "x s p q M",
    "eq14": "da db",
    "eq15": "da db p q",
    "eq16": "da db p q",
}


class TestOutputShape:
    def test_theorem_choices(self, capsys):
        code, out, _ = run(capsys, "bound", "--help")
        assert code == 0
        assert re.search(r"--theorem \{([^}]*)\}", out).group(1).split(",") == list(BOUND_ECHO)

    @pytest.mark.parametrize("tag", list(BOUND_ECHO))
    def test_bound_key_order(self, capsys, tag):
        argv = ["bound", "--theorem", tag, "--a", "0", "--b", "1", "--x", "0.5", "--s", "1",
                "--p", "2", "--q", "2", "--da", "1", "--db", "2", "--dx", "1.5", "--m", "3"]
        keys = ["theorem", "value", "a", "b", *BOUND_ECHO[tag].split()]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert list(strict_json(out)) == keys
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert next(csv.reader(io.StringIO(out))) == keys
        code, out, _ = run(capsys, *argv, "--format", "human")
        assert [kv.split("=")[0] for kv in out.splitlines()[1].split()[1:]] == keys[2:]

    def test_means_key_order(self, capsys):
        code, out, _ = run(capsys, "means", "--a", "1", "--b", "2", "--s", "0.5")
        assert code == 0
        assert list(strict_json(out)) == [
            "a", "b", "s", "p", "q", "A^s", "L_s^s", "gap", "p1", "p2", "p3",
        ]

    def test_quad_key_order(self, capsys):
        code, out, _ = run(
            capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1",
            "--target", "1e-2", "--variant", "p5",
        )
        assert code == 0
        assert list(strict_json(out)) == ["approx", "error_bound", "variant", "panels"]


class TestVerifyCommand:
    def test_default_config_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        payload = strict_json(out)
        assert payload["failures"] == 0
        assert payload["total"] == len(payload["records"]) > 0

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run(capsys, "verify")
        _, out2, _ = run(capsys, "verify")
        assert out1 == out2

    def test_subnormal_slope_on_a_wide_interval(self, capsys):
        # |f'| = 5e-324 on [0, 1e300]: t20 came out as 0.0 and its records
        # held only through the 1e-9 slack
        code, out, err = run(
            capsys, "verify", "--functions", "poly:0,5e-324", "--a", "0", "--b", "1e300",
            "--s-grid", "1", "--x-points", "3", "--p-grid", "2",
        )
        assert (code, err) == (0, "")
        records = strict_json(out)["records"]
        assert len(records) == 15
        assert all(record["rhs"] > 0.0 for record in records), records

    def test_counterexample_fails_with_witness(self, capsys):
        # |f'| of |t|^1.5 is concave, so the s=1 hypotheses fail and the
        # bounds genuinely break at some grid points
        code, out, _ = run(
            capsys, "verify", "--functions", "powabs:1.5", "--s-grid", "1",
        )
        assert code == 1
        payload = strict_json(out)
        assert payload["failures"] > 0
        failing = [r for r in payload["records"] if not r["holds"]]
        assert all("powabs:1.5" in r["context"] for r in failing)
        assert all("x=" in r["context"] for r in failing)

    def test_empty_function_list(self, capsys):
        code, _, err = run(capsys, "verify", "--functions", " ; ")
        assert code == 2
        assert "empty" in err

    def test_interval_override_needs_both_flags(self, capsys):
        code, _, err = run(capsys, "verify", "--a", "0.5")
        assert code == 2
        assert "--a" in err and "--b" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--out", str(path))
        assert code == 0
        assert out == ""
        assert strict_json(path.read_text())["failures"] == 0

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--functions", "poly:0,1", "--s-grid", "1",
            "--x-points", "3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lhs", "rhs", "holds", "margin", "context"]
        assert len(rows) == 1 + 5 * 3  # five theorems, three x points

    def test_oracle_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(toolkit, "DEFAULT_ORACLE_PANELS", 1)
        code, _, err = run(capsys, "verify", "--functions", "breckner:0,1,0,0.25")
        assert code == 3
        assert "oracle" in err

    def test_integral_beyond_double_precision_exits_2(self, capsys):
        # the oracle returned inf here, and verify printed records with
        # "lhs": Infinity and exited 1
        code, out, err = run(capsys, "verify", "--functions", "poly:1e308", "--a", "0", "--b", "2")
        assert code == 2
        assert out == ""
        assert err == "error: a value overflowed double precision\n"


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SweepConfig(s_grid=())
        with pytest.raises(DomainError):
            SweepConfig(function_specs=())
        with pytest.raises(DomainError):
            SweepConfig(tol=0.0)
        with pytest.raises(DomainError):
            SweepConfig(x_grid_points=1)

    def test_grid_numpy_cannot_index_is_refused_when_built(self):
        # building the config allocates nothing, at the largest count too
        most = np.iinfo(np.intp).max // 8
        assert SweepConfig(x_grid_points=most).x_grid_points == most
        with pytest.raises(DomainError, match=f"^sweep x grid of {most + 1} points is beyond"):
            SweepConfig(x_grid_points=most + 1)

    def test_grid_numpy_cannot_index_exits_2_before_any_work(self, capsys, monkeypatch):
        # np.linspace in run_sweep raised "Maximum allowed size exceeded": a
        # traceback and exit 1, the code of a failed inequality
        def no_sweep(cfg):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        got = run(capsys, "verify", "--x-points", "100000000000000000000", "--functions", "poly:0,1")
        assert got == (2, "", f"error: sweep x grid of {10**20} points is beyond the "
                              f"{np.iinfo(np.intp).max // 8} float64 values numpy can index\n")

    @pytest.mark.parametrize("exc,line", [
        (MemoryError("Unable to allocate 22.4 GiB for an array with shape (3000000000,) and data type float64"),
         "error: Unable to allocate 22.4 GiB for an array with shape (3000000000,) and data type float64\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_exhausted_memory_exits_2(self, capsys, monkeypatch, exc, line):
        # a grid numpy can index but this host cannot hold, as --x-points
        # 3000000000, ended in a MemoryError traceback and exit 1
        def exhausted(cfg):
            raise exc

        monkeypatch.setattr(cli, "run_sweep", exhausted)
        assert run(capsys, "verify", "--x-points", "3000000000", "--functions", "poly:0,1") == (2, "", line)

    def test_run_sweep_record_count(self):
        cfg = SweepConfig(
            s_grid=(0.5,), x_grid_points=3, p_grid=(2.0,),
            function_specs=("poly:0,0,1",),
        )
        records = run_sweep(cfg)
        assert len(records) == 5 * 3
        assert all(r.holds for r in records)

    def test_run_sweep_evaluates_derivative_once_per_point(self, monkeypatch):
        # |f'| at the endpoints and at each grid point is shared by every
        # theorem, s and p rather than evaluated again for each of them
        points = []

        def counting_spec(spec):
            fn = toolkit.parse_function_spec(spec)

            def df(t):
                points.append(np.size(t))
                return fn.df(t)

            return dataclasses.replace(fn, df=df)

        monkeypatch.setattr(cli, "parse_function_spec", counting_spec)
        cfg = SweepConfig(
            s_grid=(0.5, 1.0), x_grid_points=4, p_grid=(2.0, 3.0),
            function_specs=("poly:0,0,1", "poly:0,1,1"),
        )
        assert len(run_sweep(cfg)) == 5 * 2 * 2 * 4 * 2
        assert sum(points) == 2 * (2 + 4)

    def test_run_sweep_calls_each_formula_once_per_function(self, monkeypatch):
        # one broadcast call per theorem and function, not one per record
        calls = []
        bound = bounds.Theorem.bound

        def counted(theorem, values):
            calls.append(theorem.tag)
            return bound(theorem, values)

        monkeypatch.setattr(bounds.Theorem, "bound", counted)
        cfg = SweepConfig()
        assert len(run_sweep(cfg)) == 1540
        assert sorted(calls) == sorted(cli.SWEEP_THEOREMS * len(cfg.function_specs))

    @pytest.mark.parametrize("p_grid", [(2.0,), (1.5, 3.0)])
    def test_run_sweep_matches_scalar_bounds(self, p_grid):
        # the broadcast grid against the registry's scalar path, one call per
        # record; each theorem takes the inputs it reads, t22 its q
        cfg = SweepConfig(p_grid=p_grid)
        records = run_sweep(cfg)
        want, contexts = [], []
        for theorem in cli.SWEEP_THEOREMS:
            for spec in cfg.function_specs:
                fn = toolkit.parse_function_spec(spec)
                iv = cli._sweep_interval(fn.label, cfg)
                da, db = abs(fn.deriv(iv.a)), abs(fn.deriv(iv.b))
                for s in cfg.s_grid:
                    for x in np.linspace(iv.a, iv.b, cfg.x_grid_points).tolist():
                        for p in p_grid:
                            cp = make_conjugate(p)
                            want.append(bounds.evaluate(
                                theorem, iv, x=x, s=s, p=cp, q=cp.q,
                                da=da, db=db, dx=abs(fn.deriv(x)),
                            ).value)
                            contexts.append(
                                f"domination {theorem} fn={fn.label} "
                                f"s={s:g} x={x:.17g} p={p:g} [tol=1e-09]"
                            )
        assert [r.context for r in records] == contexts
        got = np.array([r.rhs for r in records])
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.array(want)))

    @pytest.mark.parametrize(
        "grids",
        [
            {"s_grid": (0.5, 1.5)},
            {"s_grid": (0.0,)},
            {"s_grid": (math.nan,)},
            {"p_grid": (2.0, 1.0)},
            {"p_grid": (math.inf,)},
        ],
    )
    def test_bad_grid_rejected_when_built(self, grids):
        with pytest.raises(DomainError):
            SweepConfig(**grids)

    @pytest.mark.parametrize("flag,grid", [("--s-grid", "0.5,nan"), ("--p-grid", "2,inf")])
    def test_bad_grid_exits_before_oracle(self, capsys, monkeypatch, flag, grid):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(cli, "oracle_integral", no_oracle)
        code, out, err = run(capsys, "verify", flag, grid)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flag,grid,message", [
        ("--s-grid", "0.5,half", "error: could not parse --s-grid '0.5,half'\n"),
        ("--p-grid", " , ", "error: --p-grid must list at least one value\n"),
    ])
    def test_unparsable_or_empty_grid_named(self, capsys, flag, grid, message):
        assert run(capsys, "verify", flag, grid) == (2, "", message)

    def test_overflowing_derivative_coefficient_exits_2(self, capsys):
        # f' = 2e308 t: polyder and polyval each printed a RuntimeWarning, then
        # "da must be a finite magnitude >= 0, got nan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(capsys, "verify", "--functions", "poly:0,0,1e308")
        assert result == (2, "", "error: a value overflowed double precision\n")

    @pytest.mark.parametrize("argv", [
        # f'(1e308) = 2e154 * 1e308 overflowed in polyval: a RuntimeWarning,
        # then "db must be a finite magnitude >= 0, got inf"
        ("--functions", "poly:0,0,1e154", "--a", "0.1", "--b", "1e308"),
        # f = 1e308 + 1e308 t overflowed in the oracle: a RuntimeWarning, then
        # exit 3 as a non-finite integrand
        ("--functions", "poly:1e308,1e308"),
    ], ids=["derivative", "oracle"])
    def test_evaluator_overflow_is_an_overflow(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(capsys, "verify", *argv, "--s-grid", "0.5", "--p-grid", "2", "--x-points", "2")
        assert result == (2, "", "error: a value overflowed double precision\n")

    def test_overflowing_bound_exits_2(self, capsys):
        # |f'| = 1e300 is finite, but the t20 bound over [0, 1e10] is not; it
        # is reported as every other command reports an overflow
        code, out, err = run(
            capsys, "verify", "--functions", "poly:0,1e300", "--a", "0", "--b", "1e10"
        )
        assert code == 2
        assert out == ""
        assert err == "error: a value overflowed double precision\n"

    @pytest.mark.parametrize("spec,b", [("powabs:3", "1e103"), ("poly:0,0,0,1e300", "1e3")])
    def test_overflowing_bound_names_no_invalid_value(self, capsys, spec, b):
        # these read "bound t20 produced invalid values for ..."
        code, out, err = run(capsys, "verify", "--functions", spec, "--a", "0", "--b", b)
        assert (code, out) == (2, "")
        assert err == "error: a value overflowed double precision\n"

    def test_bound_attained_near_the_top_of_the_range_holds(self, capsys):
        # f = 1e308 t attains t20 at s = 1, x = 1, where the deviation comes
        # out 1 ulp above the bound 5e307. The mean is met to ORACLE_EPSREL
        # relative, 8.9e292, and the slack takes that on: a fixed 1e-9
        # reported a violation (exit 1), and before the relative tolerance
        # the oracle could not reach 1e-12 here (exit 3)
        code, out, err = run(capsys, "verify", "--functions", "poly:0,1e308")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["failures"] == 0
        (rec,) = [r for r in payload["records"]
                  if r["context"].startswith("domination t20 fn=poly:0,1e+308 s=1 x=1 ")]
        assert (rec["lhs"], rec["rhs"], rec["holds"]) == (5.000000000000001e307, 5e307, True)
        assert rec["context"].endswith("[tol=8.88178e+292]")

    def test_large_offset_meets_the_relative_tolerance(self, capsys):
        # the mean's 1e-12 is below the roundoff floor of an integral of 1e6
        code, out, err = run(capsys, "verify", "--functions", "poly:1e6,1", "--a", "0", "--b", "1")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert (payload["total"], payload["failures"]) == (220, 0)

    @pytest.mark.parametrize("spec,p_grid", [
        ("poly:0,0,1", "1.0000001"),  # |f'(b)|^q = 2^1e7 overflowed
        ("breckner:0,1,0,0.5", "1.0005"),  # |f'|^q underflowed: 12 false failures
    ])
    def test_p_near_one_holds(self, capsys, spec, p_grid):
        code, out, _ = run(capsys, "verify", "--functions", spec, "--p-grid", p_grid)
        assert code == 0
        payload = strict_json(out)
        assert (payload["total"], payload["failures"]) == (220, 0)

    def test_non_finite_grid_derivative_exits_2(self, capsys, monkeypatch):
        def nan_inside(spec):
            fn = toolkit.parse_function_spec(spec)
            return dataclasses.replace(
                fn, df=lambda t: np.where(np.equal(t, 0.5), np.nan, fn.df(t))
            )

        monkeypatch.setattr(cli, "parse_function_spec", nan_inside)
        code, out, err = run(
            capsys, "verify", "--functions", "poly:0,0,1", "--x-points", "3"
        )
        assert code == 2
        assert out == ""
        assert "dx" in err and "finite" in err


class TestMeansCommand:
    def test_row_values(self, capsys):
        code, out, _ = run(
            capsys, "means", "--a", "1", "--b", "2", "--s", "0.5",
            "--p", "2", "--q", "2",
        )
        assert code == 0
        row = strict_json(out)
        assert row["A^s"] == pytest.approx(1.224744871391589, rel=1e-12)
        assert row["L_s^s"] == pytest.approx(1.21895141649746, rel=1e-12)
        assert row["gap"] == pytest.approx(0.005793454894128984, abs=1e-9)
        assert row["p1"] == pytest.approx(0.14714045207910317, rel=1e-9)
        assert row["p2"] == pytest.approx(0.13971946208343752, rel=1e-9)
        assert row["p3"] == pytest.approx(0.12456214868187001, rel=1e-9)

    @pytest.mark.parametrize("flag,value,variant,exact", [
        ("--q", "2000", "p3", None),
        ("--p", "1.0001", "p2", 0.1135286262490472),
    ])
    def test_large_q_bounds_the_gap(self, capsys, flag, value, variant, exact):
        # raw q-th powers of the slopes underflowed, and the bound read 0.0
        code, out, _ = run(capsys, "means", "--a", "1", "--b", "2", "--s", "0.5", flag, value)
        assert code == 0
        row = strict_json(out)
        assert row[variant] >= row["gap"]
        if exact is not None:
            assert row[variant] == pytest.approx(exact, rel=1e-15)

    def test_overflow_exits_2(self, capsys):
        # the gap is 2.4e28, but each bound multiplies the width 1e300 by the
        # slope 0.1 a^-0.9 = 1e269
        code, out, err = run(capsys, "means", "--a", "1e-300", "--b", "1e300", "--s", "0.1")
        assert code == 2
        assert out == ""
        assert err == "error: a value overflowed double precision\n"

    @pytest.mark.parametrize("a,b,s", [("1e300", "1e308", "0.5"), ("1", "1e300", "0.9")])
    def test_large_endpoints_give_the_50_digit_gap(self, capsys, a, b, s):
        # the oracle's integral of t^s, 6.7e461 and 5.3e569, overflowed (exit
        # 2); it is now taken on [a, b] scaled into range
        code, out, err = run(capsys, "means", "--a", a, "--b", b, "--s", s)
        assert (code, err) == (0, "")
        payload = strict_json(out)
        with localcontext() as ctx:
            ctx.prec = 50
            a, b, s = Decimal(float(a)), Decimal(float(b)), Decimal(s)
            gap = ((a + b) / 2) ** s - (b ** (s + 1) - a ** (s + 1)) / ((s + 1) * (b - a))
        assert abs(Decimal(payload["gap"]) - gap) <= Decimal(1e-12) * gap

    def test_subnormal_endpoints_give_the_50_digit_gap(self, capsys):
        # 1e-9 * (b - a) underflowed to 0 and the oracle refused it (exit 2);
        # with a relative tolerance it ran, and the gap read A^s = 3.1e-162,
        # as b^1.5 underflowed to 0. In 50 digits it is 1.2877e-164, below
        # each of the three bounds
        code, out, err = run(capsys, "means", "--a", "5e-324", "--b", "1e-323", "--s", "0.5")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        with localcontext() as ctx:
            ctx.prec = 50
            a, b, s = Decimal(5e-324), Decimal(1e-323), Decimal("0.5")
            mean_power = ((a + b) / 2) ** s
            avg = (b ** (s + 1) - a ** (s + 1)) / ((s + 1) * (b - a))
        for key, want in (("A^s", mean_power), ("L_s^s", avg), ("gap", mean_power - avg)):
            assert abs(Decimal(payload[key]) - want) <= Decimal(1e-12) * want, key
        assert all(payload["gap"] < payload[v] for v in ("p1", "p2", "p3"))

    def test_invalid_inputs(self, capsys):
        code, _, err = run(capsys, "means", "--a", "2", "--b", "1", "--s", "0.5")
        assert code == 2
        code, _, err = run(capsys, "means", "--a", "1", "--b", "2", "--s", "1")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--q", "nan"), ("--q", "inf"), ("--p", "nan")])
    def test_non_finite_exponent_exits_before_oracle(self, capsys, monkeypatch, flag, value):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(means, "oracle_integral", no_oracle)
        code, out, err = run(capsys, "means", "--a", "1", "--b", "2", "--s", "0.5", flag, value)
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestQuadCommand:
    @pytest.mark.parametrize("argv,value", [
        (("quad", "--variant", "p5", "--fn", "poly:1.798e+308", "--a", "0", "--b", "1", "--target", "1"), "inf"),
        (("quad", "--variant", "p5", "--fn", "poly:0,0,-inf", "--a", "0", "--b", "1", "--target", "1"), "-inf"),
        (("quad", "--variant", "p6", "--q", "2", "--fn", "poly:1,nan", "--a", "0", "--b", "1",
          "--target", "1"), "nan"),
        (("verify", "--functions", "poly:inf,1"), "inf"),
    ])
    def test_non_finite_poly_coefficient_is_refused_at_the_spec(self, capsys, argv, value):
        # numpy's derivative and Horner steps multiplied the inf by 0 and printed
        # "invalid value encountered in multiply" before the CLI's own line;
        # verify took the inf integrand for an oracle failure and exited 3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: poly coefficients must be finite, got {value}\n")
        assert not caught

    @pytest.mark.parametrize("argv,message", [
        (("quad", "--fn", "breckner:0,1,nan,0.5", "--a", "0.5", "--b", "1", "--target", "1", "--variant", "p5"),
         "breckner w must be finite, got nan"),
        (("verify", "--functions", "breckner:0,1,nan,0.5"), "breckner w must be finite, got nan"),
        (("verify", "--functions", "breckner:inf,1,0,0.5"), "breckner u must be finite, got inf"),
        (("verify", "--functions", "breckner:0,-inf,0,0.5"), "breckner v must be finite, got -inf"),
    ])
    def test_non_finite_breckner_parameter_is_refused_at_the_spec(self, capsys, argv, message):
        # quad reported "a value overflowed double precision", verify an oracle
        # failure (exit 3) for the nan, and verify ran u = inf to exit 0
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("k", ["inf", "nan"])
    def test_non_finite_powabs_exponent_is_refused_at_the_spec(self, capsys, k):
        # k = inf was reported as non-finite "derivative magnitudes"
        argv = ("quad", "--fn", f"powabs:{k}", "--a", "0.5", "--b", "1", "--target", "1", "--variant", "p5")
        assert run(capsys, *argv) == (2, "", f"error: powabs exponent must be finite, got {k}\n")

    def test_overflow_exits_2(self, capsys):
        # f(m) * w = 2e308 at one panel printed "approx": Infinity and exited 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "quad", "--fn", "poly:1e308", "--a", "0", "--b", "2",
                "--target", "1e-6", "--variant", "p5",
            )
        assert code == 2
        assert out == ""
        assert err == "error: a value overflowed double precision\n"

    @pytest.mark.parametrize("argv", [
        # powabs's derivative overflows in its power at the nodes
        ("powabs:3.0", "--a", "0.5", "--b", "1.7976931348623157e+308",
         "--target", "1e-4", "--variant", "p6", "--q", "2"),
        # the spec's derivative coefficient 2 * 1.8e308 overflows in polyder
        ("poly:0,0,1.7976931348623157e+308", "--a", "-1", "--b", "1e154",
         "--target", "1e-4", "--variant", "p5"),
        # poly's derivative overflows in polyval at the nodes
        ("poly:0,0,1.2279659373876204e+239", "--a", "0", "--b", "1.6145022289079834e+232",
         "--target", "0.01", "--variant", "p4", "--p", "2"),
    ], ids=["powabs-power", "poly-polyder", "poly-polyval"])
    def test_evaluator_overflow_is_an_overflow(self, capsys, argv):
        # each printed a numpy RuntimeWarning, then called the overflow a bad
        # derivative magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(capsys, "quad", "--fn", *argv)
        assert result == (2, "", "error: a value overflowed double precision\n")

    @pytest.mark.parametrize("variant", [("p4", "--p", "2"), ("p5",), ("p6", "--q", "2")])
    def test_overflowing_bound_exits_2(self, capsys, variant):
        # inf at one panel; at two the finite panel bounds overflow in their
        # sum. pyproject turns a leaked numpy warning into an error
        code, out, err = run(
            capsys, "quad", "--fn", "poly:0,1e308", "--a=-2", "--b", "2",
            "--target", "1e300", "--variant", *variant,
        )
        assert code == 2
        assert out == ""
        assert err == "error: a value overflowed double precision\n"

    @pytest.mark.parametrize("a,b,target,variant,panels", [
        ("-1.5", "1.5", 1e303, ("p5",), 2**18),  # inf at one panel, finite from two
        ("-1.5", "1.5", 1e303, ("p6", "--q", "2"), 2**18),
        ("0", "1e-3", 1e300, ("p4", "--p", "2"), 32),  # f'(a) + f'(b) alone overflows
    ])
    def test_bound_beyond_double_range_refines(self, capsys, a, b, target, variant, panels):
        code, out, err = run(
            capsys, "quad", "--fn", "poly:0,1e308", f"--a={a}", "--b", b,
            "--target", repr(target), "--variant", *variant,
        )
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert payload["error_bound"] <= target
        assert payload["panels"] == panels

    def test_subnormal_derivative_bound_is_not_zero(self, capsys):
        # the one-panel bound rounded to 0.0 and was certified against any target
        argv = ("quad", "--fn", "breckner:0,1e-323,0,0.5", "--a", "1", "--b", "1e300",
                "--variant", "p4", "--p", "2")
        code, out, err = run(capsys, *argv, "--target", "1e300")
        assert (code, err) == (0, "")
        assert strict_json(out)["error_bound"] == pytest.approx(
            1e300 * (1e300 * 2.0**-1074) / 4.0 / math.sqrt(3.0), rel=1e-14)
        code, out, err = run(capsys, *argv, "--target", "1")
        assert (code, out) == (3, "")
        assert "budget" in err

    def test_quadratic_report(self, capsys):
        code, out, _ = run(
            capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1",
            "--target", "1e-3", "--variant", "p4", "--p", "2",
        )
        assert code == 0
        payload = strict_json(out)
        assert list(payload.keys()) == ["approx", "error_bound", "variant", "panels"]
        assert payload["approx"] == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert payload["error_bound"] <= 1e-3
        assert payload["variant"] == "p4"
        assert payload["panels"] == 512

    @pytest.mark.parametrize("spec,target", [
        ("poly:0,0,0.3", 1e-6),  # certified 0.0 at one panel, off by 0.025
        ("poly:0,0,3", 1e-3),  # doubled to 2^20 panels and exited 3
    ])
    def test_p6_at_large_q_certifies(self, capsys, spec, target):
        code, out, _ = run(
            capsys, "quad", "--fn", spec, "--a", "0", "--b", "1",
            "--target", repr(target), "--variant", "p6", "--q", "2000",
        )
        assert code == 0
        payload = strict_json(out)
        assert 0.0 < payload["error_bound"] <= target
        assert payload["panels"] < quadrature.DEFAULT_PANEL_BUDGET
        report = quadrature.certified_integrate(
            toolkit.parse_function_spec(spec), Interval(0.0, 1.0), target, "p6", q=2000.0,
            verify=True,
        )
        assert report.certified_ok
        assert (report.approx, report.panels) == (payload["approx"], payload["panels"])

    def test_p4_requires_p(self, capsys):
        code, _, err = run(
            capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1",
            "--target", "1e-3", "--variant", "p4",
        )
        assert code == 2
        assert "--p" in err

    def test_p6_requires_q(self, capsys):
        code, _, err = run(
            capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1",
            "--target", "1e-3", "--variant", "p6",
        )
        assert code == 2
        assert "--q" in err

    @pytest.mark.parametrize("variant,flag,value", [
        ("p6", "--q", "nan"), ("p6", "--q", "inf"), ("p4", "--p", "nan"), ("p4", "--p", "inf"),
    ])
    def test_non_finite_exponent_exits_before_doubling(
        self, capsys, monkeypatch, variant, flag, value
    ):
        # NaN used to double up to 2^20 panels and exit 3
        points = []

        def counting_spec(spec):
            fn = toolkit.parse_function_spec(spec)

            def df(t):
                points.append(np.size(t))
                return fn.df(t)

            return dataclasses.replace(fn, df=df)

        monkeypatch.setattr(cli, "parse_function_spec", counting_spec)
        code, out, err = run(
            capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1",
            "--target", "1e-3", "--variant", variant, flag, value,
        )
        assert code == 2
        assert out == ""
        assert "finite" in err
        assert points == []

    @pytest.mark.parametrize("variant", [
        ("p5", "--p", "nan"), ("p5", "--q", "0.5"), ("p4", "--p", "2", "--q", "0.5"),
        ("p6", "--q", "2", "--p", "inf"),
    ])
    def test_unread_exponent_exits_2(self, capsys, variant):
        # each exited 0 before, the exponent given unread
        code, out, err = run(
            capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1",
            "--target", "1e-3", "--variant", *variant,
        )
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_variant_choices_are_the_library_variants(self, capsys):
        code, out, err = run(
            capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1",
            "--target", "1e-3", "--variant", "p7",
        )
        assert (code, out) == (2, "")
        assert all(repr(v) in err for v in quadrature.ERROR_BOUND_VARIANTS)

    def test_bad_function_spec(self, capsys):
        code, _, err = run(
            capsys, "quad", "--fn", "mystery:1", "--a", "0", "--b", "1",
            "--target", "1e-3", "--variant", "p5",
        )
        assert code == 2
        assert "mystery" in err

    def test_infinite_target_exits_2(self, capsys):
        # it exited 0 with a one-panel "certificate"
        got = run(capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1", "--target", "inf",
                  "--variant", "p5")
        assert got == (2, "", "error: target must be a positive real, got inf\n")

    def test_budget_exhaustion_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 16)
        code, _, err = run(
            capsys, "quad", "--fn", "poly:0,0,1", "--a", "0", "--b", "1",
            "--target", "1e-9", "--variant", "p4", "--p", "2",
        )
        assert code == 3
        assert "budget" in err

    def test_deterministic(self, capsys):
        argv = (
            "quad", "--fn", "breckner:0,1,0,0.5", "--a", "0.5", "--b", "2",
            "--target", "1e-2", "--variant", "p5",
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestIdentityCommand:
    def test_default_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "identity")
        assert code == 0
        payload = strict_json(out)
        assert payload["failures"] == 0
        # 7 polynomials x 3 intervals x 9 evaluation points
        assert payload["total"] == 7 * 3 * 9

    def test_tolerance_below_the_roundoff_floor_exits_0_on_the_relative_target(self, capsys, monkeypatch):
        # without a floor it bisected poly:1 to 10,000 panels, and with one the
        # integral of 2 - t over [1, 3], which is 0, exited 3 at its first check
        # past one panel. Measured against the panels' Σ|value|, ORACLE_EPSREL is
        # above every floor: that integral ends at the same check, at 64 panels
        rule, calls = toolkit._rule, []
        monkeypatch.setattr(toolkit, "_rule",
                            lambda fn, edges: calls.append((fn.label, edges)) or rule(fn, edges))
        code, out, err = run(capsys, "identity", "--tol", "1e-300")
        assert (code, err) == (0, "")
        payload = strict_json(out)
        assert (payload["total"], payload["failures"]) == (7 * 3 * 9, 0)
        first = calls.index(("poly:2,-1", (1.0, 3.0)))
        splits = [edges for label, edges in calls[first + 1:first + 65] if label == "poly:2,-1"]
        assert len(splits) == 63 and all(len(edges) == 3 for edges in splits)  # the splits to 64 panels
        assert calls[first + 64][0] != "poly:2,-1"


class TestConfigFile:
    def test_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=2\ns=0.5\n# comment\np=3\n")
        code, out, _ = run(capsys, "means", "--config", str(cfg))
        assert code == 0
        row = strict_json(out)
        assert (row["a"], row["b"], row["s"], row["p"]) == (1.0, 2.0, 0.5, 3.0)

        code, out, _ = run(capsys, "means", "--config", str(cfg), "--s", "0.25")
        assert code == 0
        assert strict_json(out)["s"] == 0.25  # explicit flag wins

    def test_equals_spelling(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=1\nb=2\ns=0.5\n")
        assert run(capsys, "means", f"--config={cfg}") == run(capsys, "means", "--config", str(cfg))
        code, out, _ = run(capsys, "means", f"--config={cfg}", "--s", "0.25")
        assert code == 0
        assert strict_json(out)["s"] == 0.25

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "means", "--config", "/definitely/not/here",
                           "--a", "1", "--b", "2", "--s", "0.5")
        assert code == 2

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tol\n")
        code, _, err = run(capsys, "identity", "--config", str(cfg))
        assert code == 2
        assert "key=value" in err


class TestTolFlag:
    """--tol is defined only on the subcommands whose handlers read it."""

    @pytest.mark.parametrize("argv", [
        ("bound", "--theorem", "eq14", "--a", "0", "--b", "1", "--da", "1", "--db", "1"),
        ("quad", "--fn", "poly:0,1", "--a", "0", "--b", "1", "--target", "1", "--variant", "p5"),
    ], ids=["bound", "quad"])
    def test_rejected_where_unread(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--tol", "1e-6")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol 1e-6" in err
        # a --config key the subcommand does not define is a usage error too
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol=1e-6\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol 1e-6" in err

    @pytest.mark.parametrize("argv", [("verify", "--functions", "poly:0,1"), ("identity",)])
    def test_slack_read_by_the_sweeps(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--tol", "1e-8")
        assert (code, err) == (0, "")
        contexts = [r["context"] for r in strict_json(out)["records"]]
        assert contexts and all(c.endswith(" [tol=1e-08]") for c in contexts)

    def test_oracle_tolerance_read_by_means(self, capsys, monkeypatch):
        seen = []

        def gap(a, b, s, oracle_tol):
            seen.append(oracle_tol)
            return 0.0

        monkeypatch.setattr(cli, "means_gap", gap)
        code, _, err = run(capsys, "means", "--a", "1", "--b", "2", "--s", "0.5", "--tol", "1e-8")
        assert (code, err, seen) == (0, "", [1e-8])

    # an infinite slack passed every record, and 0 or a negative tolerance
    # reached the oracle: each is refused by value, before any oracle work
    BAD_TOLS = [("0", 0.0), ("inf", math.inf), ("-1", -1.0), ("nan", math.nan)]

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(toolkit, "reference_integrate", refuse)

    @pytest.mark.parametrize("token,value", BAD_TOLS)
    def test_verify_refuses_a_tolerance_not_finite_and_positive(self, capsys, no_oracle, token, value):
        got = run(capsys, "verify", "--functions", "poly:0,1", "--tol", token)
        assert got == (2, "", f"error: tol must be a positive real, got {value!r}\n")

    @pytest.mark.parametrize("token,value", BAD_TOLS)
    def test_identity_refuses_a_tolerance_not_finite_and_positive(self, capsys, no_oracle, token, value):
        # --tol -1 named the per-piece tolerance -0.1 the kernel derived from
        # it, and --tol 0 exited 3 with a roundoff-floor error
        got = run(capsys, "identity", "--tol", token)
        assert got == (2, "", f"error: tol must be a positive real, got {value!r}\n")

    @pytest.mark.parametrize("token,value", BAD_TOLS)
    def test_means_refuses_a_tolerance_not_finite_and_positive(self, capsys, no_oracle, token, value):
        got = run(capsys, "means", "--a", "1", "--b", "2", "--s", "0.5", "--tol", token)
        assert got == (2, "", f"error: oracle_tol must be a positive real, got {value!r}\n")


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0
