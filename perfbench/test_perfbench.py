"""Tests of the benchmark's own references, probes and runner."""

import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import run as bench

if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))

import calibration  # noqa: E402
import probes  # noqa: E402
import references as ref  # noqa: E402
import workloads  # noqa: E402
from ostrowski import quadrature, toolkit  # noqa: E402
from ostrowski.core import Interval  # noqa: E402


def close50(got: Decimal, want: Decimal, digits: int = 45) -> bool:
    return abs(got - want) <= abs(want) * Decimal(10) ** -digits


def ratio(num, den) -> Decimal:
    """num/den to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(num) / Decimal(den)


class TestPolynomials:
    def test_monomial_integrals_are_exact(self):
        for k in range(8):
            assert ref.poly_integral([0.0] * k + [1.0], 0.0, 1.0) == Fraction(1, k + 1)

    def test_integral_over_signed_interval(self):
        # int_{-1}^{2} 1 + 2t dt = 3 + (4 - 1)
        assert ref.poly_integral([1.0, 2.0], -1.0, 2.0) == 6

    def test_binary_inputs_are_taken_exactly(self):
        # 0.1 is not 1/10 in binary; the reference integrates the float given
        assert ref.poly_integral([0.1], 0.0, 1.0) == Fraction(0.1)
        assert ref.poly_value([0.0, 0.0, 1.0], 0.1) == Fraction(0.1) ** 2

    def test_spec_integral_of_poly_matches_rational(self):
        got = ref.spec_integral("poly:1,-2,0.5,2,-0.25", 1.0, 3.0)
        want = ref.poly_integral([1, -2, 0.5, 2, -0.25], 1.0, 3.0)
        assert close50(got, ratio(want.numerator, want.denominator))


class TestClosedForms:
    def test_power_integrals(self):
        assert close50(ref.abs_power_integral(0.5, 0.0, 1.0), ratio(2, 3))
        assert close50(ref.abs_power_integral(0.25, -1.0, 1.0), Decimal("1.6"))
        # |t|^k on [-2, -1] equals t^k on [1, 2]
        assert close50(ref.abs_power_integral(1.5, -2.0, -1.0), ref.abs_power_integral(1.5, 1.0, 2.0))

    def test_power_integrals_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for k, a, b in ((0.5, 0.0, 1.0), (0.3, 0.25, 2.5), (2.7, -1.5, 0.75), (0.25, -1.0, 1.0)):
            want = mpmath.quad(lambda t: abs(t) ** mpmath.mpf(k), [a, 0, b] if a < 0 < b else [a, b])
            assert close50(ref.abs_power_integral(k, a, b), Decimal(mpmath.nstr(want, 50)), 40)

    def test_breckner_integral_and_value(self):
        got = ref.spec_integral("breckner:5,2,0.5,0.5", 0.0, 1.0)  # 2 * 2/3 + 0.5
        assert close50(got, ratio(11, 6))
        assert ref.spec_value("breckner:5,2,0.5,0.5", 0.0) == 5
        assert close50(ref.spec_value("breckner:5,2,0.5,0.5", 4.0), Decimal("4.5"))

    def test_means_gap_near_equal_endpoints(self):
        # second-order term s(1-s)/24 h^2 A^(s-2) of the gap at a=1, h=1e-6
        gap = float(ref.means_gap(1.0, 1.0 + 1e-6, 0.5))
        assert gap == pytest.approx(0.25 / 24 * 1e-12, rel=1e-5)

    def test_sconvex_excess_signs(self):
        member = "breckner:1,1,0.5,0.5"
        for x, y, al in ((0.0, 2.0, 0.3), (1.0, 1.0, 0.5), (0.5, 1.5, 0.9)):
            assert ref.sconvex_excess(member, 0.5, x, y, al) <= 0
        # f(1) = -1 < 0 makes x = y = 1 a witness for any alpha in (0, 1)
        assert ref.sconvex_excess("breckner:0,-1,0,0.5", 0.5, 1.0, 1.0, 0.5) > 0


class TestProbes:
    def test_counter_counts_scalar_and_array_points(self):
        counter = probes.EvalCounter()
        f = probes.probe_evaluator(np.sin, "f", counter)
        f(0.5)
        f(3)
        f(np.zeros(7))
        f(np.zeros((2, 3)))
        assert counter.points == 1 + 1 + 7 + 6

    def test_instrument_counts_certified_integrate_and_restores(self):
        original = toolkit.parse_function_spec
        counter = probes.EvalCounter()
        with probes.instrument(counter):
            fn = toolkit.parse_function_spec("poly:0,1")
            # |f'| = 1: the p5 bound is 1/(2 sqrt 3 n); 0.1 first holds at n = 4
            rep = quadrature.certified_integrate(fn, Interval(0.0, 1.0), 0.1, "p5")
        assert rep.panels == 4
        assert counter.points == (2 + 3 + 5) + 4  # f' at nodes of n = 1, 2, 4; f at 4 midpoints
        assert toolkit.parse_function_spec is original

    def test_breckner_through_parse_is_counted_once(self):
        counter = probes.EvalCounter()
        with probes.instrument(counter):
            toolkit.parse_function_spec("breckner:0,1,0,0.5").f(2.0)
        assert counter.points == 1

    def test_tracer_self_time_and_attribution(self):
        tracer = probes.Tracer()
        f = probes.probe_evaluator(lambda t: t, "df", tracer)
        inner = tracer.wrap("inner", lambda: [f(1.0) for _ in range(5)])
        outer = tracer.wrap("outer", lambda: (inner(), f(np.ones(3))))
        root = tracer.wrap("root", outer)
        root()
        spans = tracer.summary()
        assert spans["inner"]["df_points"] == 5 and spans["outer"]["df_points"] == 3
        assert spans["root"]["calls"] == 1
        arr = tracer.arrays()
        assert list(arr["parent"]) == [-1, 0, 1]
        for s in spans.values():
            assert 0 <= s["self_ns"] <= s["total_ns"]
        total = spans["root"]["total_ns"]
        parts = sum(s["self_ns"] + s["eval_ns"] for s in spans.values())
        assert parts == pytest.approx(total)


def test_calibration_scales_by_the_nearest_loop_timings():
    cal = calibration.Calibrator()
    assert 0 < cal.seconds[0] < 1
    cal.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    cal.seconds = [1e-3] * 4 + [3e-3] * 5  # the host slows down at t = 4
    ref = calibration.REFERENCE_S
    assert cal.scale(0.5) == pytest.approx(ref / 1e-3)
    assert cal.scale(7.5) == pytest.approx(ref / 3e-3)


def test_round_robin_interleaves_classes():
    a, b = [object(), object()], [object()]
    assert workloads.round_robin([a, b]) == [a[0], b[0], a[1]]


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_smoke_run(name, monkeypatch, tmp_path, capsys):
    """One round of each workload through the real runner."""
    monkeypatch.setattr(bench, "min_ok", lambda name: 1)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    assert bench.main(["--workload", name, "--seed", "3", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # at most the one known-fault operation per round fails
    assert result["failed"] <= 1 and result["attempted"] >= 5
    assert set(result["metrics"]) == {
        "ops_per_s", "op_p50_ms", "op_tail_ms", "evals_per_op", "peak_rss_mb", "setup_s"}
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "min_ok", lambda name: 1)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    assert bench.main(["--workload", "sweep", "--seed", "3", "--seconds", "0.01", "--trace", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert metrics["toolkit.sconvex_points"]["value"] > 0
    assert metrics["bounds.calls"]["value"] > 0
    assert (tmp_path / "trace-sweep-seed3.npz").is_file()
