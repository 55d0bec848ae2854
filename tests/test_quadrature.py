"""Composite midpoint rule, its certified error bounds, and the refinement
loop."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ostrowski import quadrature

from ostrowski.core import (
    ConvergenceError,
    DomainError,
    Function1D,
    Interval,
    make_conjugate,
)
from ostrowski.bounds import bound_holder_global, midpoint_e5, midpoint_power_mean
from ostrowski.core import EndpointData
from ostrowski.quadrature import (
    Partition,
    QuadReport,
    _fsum,
    certified_integrate,
    composite_midpoint,
    midpoint_error_bound,
)
from ostrowski.toolkit import (
    make_breckner,
    parse_function_spec,
    reference_integrate,
)

UNIT = Interval(0.0, 1.0)
TSQ = parse_function_spec("poly:0,0,1")


def tsq_dvals(d: Partition) -> list:
    return [abs(TSQ.deriv(t)) for t in d.nodes]


class TestPartition:
    def test_uniform(self):
        d = Partition.uniform(UNIT, 4)
        assert d.n_panels == 4
        assert tuple(d.nodes) == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert np.allclose(d.widths(), 0.25)
        assert np.allclose(d.midpoints(), [0.125, 0.375, 0.625, 0.875])

    def test_validation(self):
        with pytest.raises(DomainError):
            Partition((0.0,))
        with pytest.raises(DomainError):
            Partition((0.0, 0.0))
        with pytest.raises(DomainError):
            Partition((0.0, 0.5, 0.4))
        with pytest.raises(DomainError):
            Partition((0.0, math.inf))
        with pytest.raises(DomainError):
            Partition.uniform(UNIT, 0)


class TestCompositeMidpoint:
    def test_linear_exact(self):
        fn = parse_function_spec("poly:0,1")
        assert composite_midpoint(fn, Partition.uniform(UNIT, 4)) == 0.5
        assert composite_midpoint(fn, Partition((0.0, 0.25, 1.0))) == 0.5

    def test_quadratic_two_panels(self):
        assert composite_midpoint(TSQ, Partition.uniform(UNIT, 2)) == pytest.approx(
            0.3125, rel=1e-15
        )

    def test_quadratic_single_panel(self):
        assert composite_midpoint(TSQ, Partition.uniform(UNIT, 1)) == 0.25


def exact_sum(values) -> Fraction:
    """The exact sum: every double is an integer multiple of 2**-1074."""
    scaled = 0
    for v in values:
        num, den = v.as_integer_ratio()
        scaled += num * (2**1074 // den)
    return Fraction(scaled, 2**1074)


def fsum_outcome(x: np.ndarray):
    """(result, None) or (None, exception type), for _fsum and math.fsum."""
    outcomes = []
    for fn in (_fsum, lambda a: math.fsum(a.tolist())):
        try:
            outcomes.append((fn(x).hex(), None))
        except (OverflowError, ValueError) as exc:
            outcomes.append((None, type(exc)))
    return outcomes


FSUM_SIZES = (0, 1, 2, 3, 255, 256, 257, 511, 513, 1023, 1025, 4095, 4097, 2**17)


def fsum_data(kind: str, n: int, rng) -> np.ndarray:
    if kind == "positive":
        return 10.0 ** rng.uniform(-300.0, 300.0, n)
    if kind == "signed":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    # ill-conditioned: pairs that cancel to 1e-12 relative, one sign each,
    # so that sum|x| / |sum x| is about 1e12
    half = np.abs(rng.standard_normal(n // 2)) * 10.0 ** rng.uniform(-3.0, 3.0, n // 2)
    pairs = -half * (1.0 + 1e-12 * rng.uniform(0.5, 1.5, n // 2))
    x = np.concatenate([half, pairs, 1e-12 * rng.uniform(-1.0, 1.0, n % 2)])
    rng.shuffle(x)
    return x


class TestFsum:
    @pytest.mark.parametrize("kind", ["positive", "signed", "ill-conditioned"])
    def test_rounds_the_exact_sum_as_fsum_does(self, kind):
        rng = np.random.default_rng(8)
        for n in FSUM_SIZES:
            x = fsum_data(kind, n, rng)
            got = _fsum(x)
            assert got.hex() == math.fsum(x.tolist()).hex(), (kind, n)
            assert got == float(exact_sum(x.tolist())), (kind, n)

    def test_condition_number_reached(self):
        rng = np.random.default_rng(8)
        for n in (257, 4096, 2**17):
            x = fsum_data("ill-conditioned", n, rng)
            kappa = np.sum(np.abs(x)) / abs(float(exact_sum(x.tolist())))
            assert 5e11 < kappa < 5e12

    def test_near_tie_needs_every_error_exactly(self):
        # the exact sum is 3 + 2**-52 + 2**-200, just above the midpoint of
        # 3 and its successor: losing 2**-200 from one level's rounding
        # errors would round to 3 instead
        x = np.zeros(1024)
        x[:3] = 1.0
        x[512:515] = (2.0**-53, 2.0**-200, 2.0**-53)
        assert _fsum(x) == math.fsum(x.tolist()) == 3.0 + 2.0**-51

    def test_rounding_errors_that_are_not_all_zero_after_one_pass(self):
        # errors of errors survive the second pass for data this wide
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.choice([1.0, -1.0], 4097) * 2.0 ** rng.integers(-1000, 1000, 4097)
            assert _fsum(x) == math.fsum(x.tolist()) == float(exact_sum(x.tolist()))

    def test_signed_zeros(self):
        for n in (1000, 1001):
            for x in (np.full(n, -0.0), np.zeros(n)):
                assert _fsum(x).hex() == math.fsum(x.tolist()).hex()

    @pytest.mark.parametrize("case", [
        "inf", "-inf", "nan", "inf-inf", "overflow", "cancelling-overflow", "top-double",
    ])
    @pytest.mark.parametrize("n", [3, 1000, 1001])
    def test_failures_match_fsum(self, case, n):
        x = np.linspace(1.0, 2.0, n)
        if case == "inf":
            x[n // 2] = math.inf
        elif case == "-inf":
            x[-1] = -math.inf
        elif case == "nan":
            x[1] = math.nan
        elif case == "inf-inf":
            x[0], x[-1] = math.inf, -math.inf
        elif case == "overflow":
            x[:] = 1e308
        elif case == "cancelling-overflow":
            # fsum's running sum overflows even though the halvings, which
            # pair each 1e308 with a -1e308, would not
            x[: (n + 1) // 2], x[(n + 1) // 2 :] = 1e308, -1e308
        else:
            x[0] = np.finfo(float).max
        (got, got_exc), (want, want_exc) = fsum_outcome(x)
        assert (got, got_exc) == (want, want_exc)
        if case in ("overflow", "cancelling-overflow"):
            assert want_exc is OverflowError

    def test_composite_midpoint_overflow_still_raises(self):
        fn = parse_function_spec("poly:1e308")
        for n in (1, 4, 1024):  # at one panel f(m) * w itself overflowed, and the sum was inf
            with pytest.raises(OverflowError):
                composite_midpoint(fn, Partition.uniform(Interval(0.0, 2.0), n))

    @pytest.mark.parametrize("spec,iv,target,variant,kw", [
        ("poly:0,0,1", UNIT, 1e-4, "p4", {"p": 2.5}),
        ("breckner:0.5,1,0.25,0.5", Interval(0.5, 2.0), 1e-5, "p5", {}),
        ("powabs:2.5", Interval(-1.0, 1.5), 1e-4, "p6", {"q": 1.5}),
    ])
    def test_certified_integrate_matches_fsum_recomputation(
        self, monkeypatch, spec, iv, target, variant, kw
    ):
        fn = parse_function_spec(spec)
        report = certified_integrate(fn, iv, target, variant, **kw)
        assert report.panels >= 1024
        monkeypatch.setattr(quadrature, "_fsum", lambda x: math.fsum(x.tolist()))
        d = Partition.uniform(iv, report.panels)
        assert report.approx == composite_midpoint(fn, d)
        assert report.error_bound == midpoint_error_bound(
            d, np.abs(fn.deriv(d.nodes)), variant, **kw
        )


class TestMidpointErrorBound:
    def test_frozen_p4(self):
        d = Partition.uniform(UNIT, 2)
        assert midpoint_error_bound(d, tsq_dvals(d), "p4", p=2.0) == pytest.approx(
            0.14433756729740644, rel=1e-12
        )

    def test_frozen_p5(self):
        d = Partition.uniform(UNIT, 2)
        assert midpoint_error_bound(d, tsq_dvals(d), "p5") == pytest.approx(
            0.16513990245489248, rel=1e-12
        )

    def test_frozen_p6(self):
        d = Partition.uniform(UNIT, 2)
        assert midpoint_error_bound(d, tsq_dvals(d), "p6", q=2.0) == pytest.approx(
            0.16207942188461579, rel=1e-12
        )

    def test_all_dominate_true_error(self):
        d = Partition.uniform(UNIT, 2)
        true_error = abs(1.0 / 3.0 - composite_midpoint(TSQ, d))
        assert true_error == pytest.approx(0.0208333333333333, abs=1e-12)
        for variant, kw in (("p4", {"p": 2.0}), ("p5", {}), ("p6", {"q": 2.0})):
            assert true_error <= midpoint_error_bound(d, tsq_dvals(d), variant, **kw)

    def test_length_mismatch(self):
        d = Partition.uniform(UNIT, 2)
        with pytest.raises(DomainError, match="per node"):
            midpoint_error_bound(d, [0.0, 1.0], "p4", p=2.0)

    def test_parameter_requirements(self):
        d = Partition.uniform(UNIT, 2)
        with pytest.raises(DomainError, match="p4 requires"):
            midpoint_error_bound(d, tsq_dvals(d), "p4")
        with pytest.raises(DomainError, match="p6 requires"):
            midpoint_error_bound(d, tsq_dvals(d), "p6")
        with pytest.raises(DomainError):
            midpoint_error_bound(d, tsq_dvals(d), "p4", p=1.0)
        with pytest.raises(DomainError):
            midpoint_error_bound(d, tsq_dvals(d), "p6", q=0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                midpoint_error_bound(d, tsq_dvals(d), "p4", p=bad)
            with pytest.raises(DomainError, match="finite"):
                midpoint_error_bound(d, tsq_dvals(d), "p6", q=bad)
        with pytest.raises(DomainError):
            midpoint_error_bound(d, tsq_dvals(d), "p7")

    def test_negative_dvals(self):
        d = Partition.uniform(UNIT, 2)
        with pytest.raises(DomainError):
            midpoint_error_bound(d, [0.0, -1.0, 2.0], "p5")

    def test_scaling_law(self):
        # the uniform bound for t^2 is exactly 1/(2 sqrt 3 n): doubling n
        # halves it, comfortably under the 0.75 contraction requirement
        for n in (2, 4, 8, 16):
            d_n = Partition.uniform(UNIT, n)
            d_2n = Partition.uniform(UNIT, 2 * n)
            b_n = midpoint_error_bound(d_n, tsq_dvals(d_n), "p4", p=2.0)
            b_2n = midpoint_error_bound(d_2n, tsq_dvals(d_2n), "p4", p=2.0)
            assert b_2n <= 0.75 * b_n
            assert b_2n / b_n == pytest.approx(0.5, rel=1e-6)
            assert b_n == pytest.approx(1.0 / (2.0 * math.sqrt(3.0) * n), rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
    def test_single_panel_matches_scaled_midpoint_bound(self, p):
        # each panel [x_i, x_i+1] contributes its width times the midpoint
        # bound on that panel with its own endpoint data: e5 for p4, z at
        # the midpoint with s = 1 and p = 2 for p5, t22-mid for p6
        cases = (
            ((0.0, 1.0), (1.0, 1.0)),
            ((0.5, 2.5), (0.3, 2.0)),
            ((0.0, 0.1, 0.35, 0.4, 1.2, 3.0), (2.0, 0.0, 0.7, 1.3, 0.05, 4.5)),
        )
        for nodes, dvals in cases:
            d = Partition(nodes)
            panels = [
                (Interval(lo, hi), EndpointData(dlo, dhi))
                for lo, hi, dlo, dhi in zip(nodes, nodes[1:], dvals, dvals[1:])
            ]
            e5 = math.fsum(
                iv.width * midpoint_e5(iv, make_conjugate(p), ep).value
                for iv, ep in panels
            )
            z = math.fsum(
                iv.width
                * bound_holder_global(iv, iv.midpoint, 1.0, make_conjugate(2.0), ep).value
                for iv, ep in panels
            )
            t22 = math.fsum(
                iv.width * midpoint_power_mean(iv, p, ep).value for iv, ep in panels
            )
            assert midpoint_error_bound(d, dvals, "p4", p=p) == pytest.approx(e5, rel=1e-12)
            assert midpoint_error_bound(d, dvals, "p5") == pytest.approx(z, rel=1e-12)
            assert midpoint_error_bound(d, dvals, "p6", q=p) == pytest.approx(
                t22, rel=1e-12
            )

    def test_node_insertion_decreases_p4_for_monotone_slope(self):
        # splitting any panel of a t^2 grid lowers the bound; recorded as a
        # sanity property of the refinement loop (not implied for arbitrary
        # derivative profiles)
        for n in (1, 2, 4, 8):
            d = Partition.uniform(UNIT, n)
            base = midpoint_error_bound(d, tsq_dvals(d), "p4", p=2.0)
            for k in range(n):
                mid = 0.5 * (d.nodes[k] + d.nodes[k + 1])
                refined = Partition(np.insert(d.nodes, k + 1, mid))
                assert midpoint_error_bound(
                    refined, tsq_dvals(refined), "p4", p=2.0
                ) <= base + 1e-15


class TestCertification:
    @pytest.mark.parametrize(
        "fn,iv",
        [
            (TSQ, Interval(0.5, 2.0)),
            (parse_function_spec("poly:0,1,1"), Interval(0.5, 2.0)),
            (make_breckner(0.0, 1.0, 0.0, 0.5), Interval(0.5, 2.0)),
            (make_breckner(0.0, 2.0, 0.5, 0.25), Interval(0.5, 2.0)),
        ],
    )
    def test_bounds_certify_true_error(self, fn, iv):
        exact = reference_integrate(fn, iv, 1e-12 * iv.width)
        for n in (1, 2, 4, 8, 16, 32):
            d = Partition.uniform(iv, n)
            dvals = [abs(fn.deriv(t)) for t in d.nodes]
            err = abs(exact - composite_midpoint(fn, d))
            for variant, kw in (("p4", {"p": 2.0}), ("p5", {}), ("p6", {"q": 2.0})):
                bound = midpoint_error_bound(d, dvals, variant, **kw)
                assert err <= bound + 1e-9, (fn.label, n, variant)


class TestCertifiedIntegrate:
    def test_quadratic_to_millibound(self):
        report = certified_integrate(TSQ, UNIT, 1e-3, "p4", p=2.0, verify=True)
        assert report.panels == 512
        assert report.error_bound == pytest.approx(
            1.0 / (2.0 * math.sqrt(3.0) * 512), rel=1e-9
        )
        assert report.error_bound <= 1e-3
        assert abs(1.0 / 3.0 - report.approx) <= report.error_bound
        assert report.certified_ok

    def test_constant_is_exact_at_one_panel(self):
        fn = parse_function_spec("poly:2.5")
        report = certified_integrate(fn, Interval(0.0, 2.0), 1e-9, "p5")
        assert report.panels == 1
        assert report.error_bound == 0.0
        assert report.approx == 5.0
        assert report.true_error is None
        assert report.certified_ok is None

    def test_linear_p5_doubling_schedule(self):
        # per-n bound is sqrt(2)/(2 sqrt(6) n); first doubling value under
        # 1e-6 is n = 2^19
        fn = parse_function_spec("poly:0,1")
        report = certified_integrate(fn, UNIT, 1e-6, "p5")
        assert report.panels == 2**19
        assert report.error_bound == pytest.approx(
            math.sqrt(2.0) / (2.0 * math.sqrt(6.0) * 2**19), rel=1e-6
        )
        assert report.error_bound <= 1e-6
        assert report.approx == pytest.approx(0.5, rel=1e-12)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 64)
        with pytest.raises(ConvergenceError, match=r"budget 64\)"):
            certified_integrate(TSQ, UNIT, 1e-9, "p4", p=2.0)

    def test_bound_still_infinite_at_budget_overflows(self, monkeypatch):
        # every panel bound is inf up to 4 panels; a finer partition would
        # be finite, so the doubling goes on and only the budget stops it
        monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 4)
        fn = parse_function_spec("poly:0,1e308")
        with pytest.raises(OverflowError, match="still inf at n=4"):
            certified_integrate(fn, Interval(-1e3, 1e3), 1.0, "p5")

    def test_verify_is_keyword_only(self):
        # a budget passed where max_panels used to be must not switch verify on
        with pytest.raises(TypeError):
            certified_integrate(TSQ, UNIT, 1e-3, "p5", None, None, 64)

    def test_requires_derivative(self):
        fn = Function1D(f=lambda t: t)
        with pytest.raises(DomainError, match="derivative"):
            certified_integrate(fn, UNIT, 1e-3, "p5")

    def test_bad_target(self):
        with pytest.raises(DomainError):
            certified_integrate(TSQ, UNIT, 0.0, "p5")

    @pytest.mark.parametrize("variant,kw", [
        ("p4", {"p": math.nan}),
        ("p4", {"p": math.inf}),
        ("p6", {"q": math.nan}),
        ("p6", {"q": math.inf}),
    ])
    def test_non_finite_exponent_rejected_at_first_level(self, variant, kw):
        # NaN used to double the partition up to the panel budget, and q = inf
        # certified 0.0625 for an error of 0.521
        levels = []
        fn = parse_function_spec("poly:0,0,100")
        counted = Function1D(f=fn.f, df=lambda t: levels.append(np.size(t)) or fn.df(t))
        with pytest.raises(DomainError, match="finite"):
            certified_integrate(counted, UNIT, 0.1, variant, **kw)
        assert levels == [2]

    def test_lying_derivative_triggers_warning(self):
        # a derivative evaluator that claims f' == 0 produces a zero bound;
        # verification mode must flag the broken certificate
        liar = Function1D(f=lambda t: t * t, df=lambda t: 0.0, label="liar")
        with pytest.warns(RuntimeWarning, match="certificate violated"):
            report = certified_integrate(liar, UNIT, 1e-6, "p4", p=2.0, verify=True)
        assert report.certified_ok is False


class TestQuadReport:
    def test_certified_ok_logic(self):
        assert QuadReport(1.0, 0.5, "p5", 2, true_error=0.4).certified_ok
        assert not QuadReport(1.0, 0.5, "p5", 2, true_error=0.6).certified_ok
        assert QuadReport(1.0, 0.5, "p5", 2).certified_ok is None
