"""CLI contract: subcommands, exit codes, output formats, determinism."""

import csv
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

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
        # (b - x)^2 = 1e600 in the uniform-derivative bound
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
        forms = ("_sconvex_abs", "_holder_split", "_holder_hadamard", "_holder_global",
                 "_power_mean")
        calls = []
        for name in forms:
            form = getattr(cli, name)

            def counted(*args, _form=form, _name=name):
                calls.append(_name)
                return _form(*args)

            monkeypatch.setattr(cli, name, counted)
        cfg = SweepConfig()
        assert len(run_sweep(cfg)) == 1540
        assert sorted(calls) == sorted(forms * len(cfg.function_specs))

    @pytest.mark.parametrize("p_grid", [(2.0,), (1.5, 3.0)])
    def test_run_sweep_matches_scalar_bounds(self, p_grid):
        # the broadcast grid against the public wrappers, one call per record
        cfg = SweepConfig(p_grid=p_grid)
        records = run_sweep(cfg)
        want, contexts = [], []
        for theorem in cli.SWEEP_THEOREMS:
            evaluate = cli._THEOREMS[theorem][1]
            for spec in cfg.function_specs:
                fn = toolkit.parse_function_spec(spec)
                iv = cli._sweep_interval(fn.label, cfg)
                da, db = abs(fn.deriv(iv.a)), abs(fn.deriv(iv.b))
                for s in cfg.s_grid:
                    for x in np.linspace(iv.a, iv.b, cfg.x_grid_points).tolist():
                        ep = EndpointData(da, db, abs(fn.deriv(x)))
                        for p in p_grid:
                            q = make_conjugate(p).q
                            want.append(evaluate(iv, x, s, p, q, ep, None).value)
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

        monkeypatch.setattr(cli, "reference_integrate", no_oracle)
        code, out, err = run(capsys, "verify", flag, grid)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_overflowing_bound_exits_2(self, capsys):
        # |f'| = 1e308 is finite, but the t20 bound over [0, 1] is not
        code, out, err = run(capsys, "verify", "--functions", "poly:0,1e308")
        assert code == 2
        assert out == ""
        assert err.endswith("error: bound t20 produced invalid values for poly:0,1e+308\n")

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
        # b^(s+1) overflows in L_s^s
        code, out, err = run(capsys, "means", "--a", "1", "--b", "1e300", "--s", "0.9")
        assert code == 2
        assert out == ""
        assert err == "error: a value overflowed double precision\n"

    def test_invalid_inputs(self, capsys):
        code, _, err = run(capsys, "means", "--a", "2", "--b", "1", "--s", "0.5")
        assert code == 2
        code, _, err = run(capsys, "means", "--a", "1", "--b", "2", "--s", "1")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--q", "nan"), ("--q", "inf"), ("--p", "nan")])
    def test_non_finite_exponent_exits_before_oracle(self, capsys, monkeypatch, flag, value):
        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle ran")

        monkeypatch.setattr(means, "true_deviation", no_oracle)
        code, out, err = run(capsys, "means", "--a", "1", "--b", "2", "--s", "0.5", flag, value)
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestQuadCommand:
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
        assert points == [2]

    def test_bad_function_spec(self, capsys):
        code, _, err = run(
            capsys, "quad", "--fn", "mystery:1", "--a", "0", "--b", "1",
            "--target", "1e-3", "--variant", "p5",
        )
        assert code == 2
        assert "mystery" in err

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


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0
