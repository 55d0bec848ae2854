"""Means of positive reals and the bounds on |A^s - L_s^s|."""

import dataclasses
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ostrowski.bounds import (
    bound_holder_hadamard,
    midpoint_power_mean,
    midpoint_sconvex_abs,
)
from ostrowski.core import ConvergenceError, DomainError, EndpointData, Interval, make_conjugate
from ostrowski.means import (
    _mean_powers,
    arithmetic_mean,
    logarithmic_mean,
    means_gap,
    means_gap_bound,
    p_logarithmic_mean,
    slope_endpoint_data,
)
from ostrowski.toolkit import make_breckner, true_deviation

S3_GRID = [
    (a, a * ratio, s)
    for a in (0.5, 1.0, 2.0)
    for ratio in (1.5, 2.0, 4.0)
    for s in np.arange(0.1, 0.91, 0.1)
]


def _exact_means(a, b, s, digits=50):
    """(A^s, L_s^s, A^s - L_s^s) for the floats a < b and s, in decimal at digits.

    Unary + rounds each input to digits as well, a change far below what a
    test resolves; the exponent s keeps its 750 digits at 1e-300 otherwise."""
    with localcontext() as ctx:
        ctx.prec = digits
        da, db, ds = +Decimal(a), +Decimal(b), +Decimal(s)
        mean_power = ((da + db) / 2) ** ds
        avg = (db ** (ds + 1) - da ** (ds + 1)) / ((ds + 1) * (db - da))
        return mean_power, avg, mean_power - avg


class TestElementaryMeans:
    def test_arithmetic(self):
        assert arithmetic_mean(1.0, 2.0) == 1.5
        assert arithmetic_mean(3.7, 3.7) == 3.7
        assert arithmetic_mean(0.1, 10.0) == pytest.approx(5.05)

    def test_arithmetic_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            arithmetic_mean(0.0, 1.0)
        with pytest.raises(DomainError):
            arithmetic_mean(1.0, -2.0)

    def test_logarithmic(self):
        assert logarithmic_mean(2.5, 2.5) == 2.5
        assert logarithmic_mean(1.0, 2.0) == pytest.approx(
            1.4426950408889634, rel=1e-14
        )

    def test_logarithmic_below_arithmetic(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.uniform(0.01, 10.0)
            b = a + rng.uniform(1e-6, 10.0)
            assert logarithmic_mean(a, b) <= arithmetic_mean(a, b)

    @pytest.mark.parametrize("a, b", [
        (7.3, 7.3 * (1.0 + 1e-12)),  # ln b - ln a lost all but 5 digits here
        (7.3, 7.3 * (1.0 + 1e-6)),
        (1e-5, 3e-5),
        (0.3, 1e4),
        (1e-300, 1e300),  # b/a overflows: a bare log1p would give 0
    ])
    def test_logarithmic_against_50_digits(self, a, b):
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(b) - Decimal(a)) / (Decimal(b).ln() - Decimal(a).ln())
        for x, y in ((a, b), (b, a)):
            got = logarithmic_mean(x, y)
            assert abs(Decimal(got) - exact) <= Decimal(1e-15) * exact, (x, y)

    def test_power_logarithmic(self):
        assert p_logarithmic_mean(4.0, 4.0, 0.5) == 4.0
        assert p_logarithmic_mean(1.0, 2.0, 0.5) == pytest.approx(
            1.4858425557811644, rel=1e-12
        )

    @staticmethod
    def _p_logarithmic_50_digits(a: float, b: float, r: float) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = 50
            da, db, dr = Decimal(a), Decimal(b), Decimal(r)
            x = (db ** (dr + 1) - da ** (dr + 1)) / ((dr + 1) * (db - da))
            return (x.ln() / dr).exp()

    @pytest.mark.parametrize("r", [1e-4, -1e-4, 1e-6, -1e-6, 1e-8, -1e-8])
    def test_power_logarithmic_small_order_against_50_digits(self, r):
        # the closed form cancels in b^(r+1) - a^(r+1) and then raises to
        # 1/r: at r = 1e-8 it was off by 1.2e-8 relative
        exact = self._p_logarithmic_50_digits(1.0, 2.0, r)
        got = p_logarithmic_mean(1.0, 2.0, r)
        assert abs(Decimal(got) - exact) <= Decimal(1e-14) * exact

    def test_power_logarithmic_against_50_digits(self):
        # the grid has orders on both sides of |r| = 1/2, near -1 and near 0,
        # where the closed form lost up to 6e-12 relative
        rng = np.random.default_rng(11)
        rows = [
            (a, a * ratio, r)
            for a in (1.01, 7.3, 50.0)
            for ratio in (1.01, 2.0, 50.0)
            for r in (-5.0, -1.001, -0.999, -0.5, -0.49, -1e-3, 1e-3, 0.49, 0.5, 5.0)
        ]
        for _ in range(300):
            r = rng.uniform(-5.0, 5.0)
            if abs(r + 1.0) >= 1e-3:
                a = rng.uniform(1.01, 50.0)
                rows.append((a, a * rng.uniform(1.01, 50.0), r))
        for a, b, r in rows:
            exact = self._p_logarithmic_50_digits(a, b, r)
            got = p_logarithmic_mean(a, b, r)
            assert abs(Decimal(got) - exact) <= Decimal(1e-13) * exact, (a, b, r)
            assert p_logarithmic_mean(b, a, r) == pytest.approx(got, rel=1e-13)

    @pytest.mark.parametrize("a, b, r", [
        (1e-200, 1e-100, 1.0),  # a^2 underflows to 0
        (1e-160, 1e-150, 1.0),  # a^2 is subnormal
        (1e-4, 1e4, 50.0),  # expm1((r+1) ln(b/a)) overflows, b^51 does not
        (1e-300, 1e300, -0.3),  # b/a overflows
        (1e-10, 1e300, -5.0),  # b/a overflows, r < -1
    ])
    def test_power_logarithmic_far_apart_endpoints_against_50_digits(self, a, b, r):
        exact = self._p_logarithmic_50_digits(a, b, r)
        for x, y in ((a, b), (b, a)):
            got = p_logarithmic_mean(x, y, r)
            assert abs(Decimal(got) - exact) <= Decimal(1e-13) * exact, (x, y, r)

    def test_order_one_collapses_to_arithmetic(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0.01, 10.0)
            b = a + rng.uniform(1e-6, 10.0)
            assert p_logarithmic_mean(a, b, 1.0) == pytest.approx(
                arithmetic_mean(a, b), rel=1e-12
            )

    @pytest.mark.parametrize("r", [-1.0, 0.0])
    def test_excluded_orders(self, r):
        with pytest.raises(DomainError):
            p_logarithmic_mean(1.0, 2.0, r)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            logarithmic_mean(-1.0, 2.0)
        with pytest.raises(DomainError):
            p_logarithmic_mean(1.0, 0.0, 0.5)


class TestMeansGap:
    def test_frozen_example(self):
        assert means_gap(1.0, 2.0, 0.5) == pytest.approx(
            0.005793454894128984, abs=1e-12
        )

    def test_continuity_toward_s_one(self):
        # A^1 equals the order-1 mean exactly, so the gap vanishes as s -> 1
        assert means_gap(1.0, 2.0, 0.999) == pytest.approx(0.0, abs=1e-4)

    def test_matches_midpoint_deviation_of_power_function(self):
        tol = 1e-11
        for a, b, s in ((1.0, 2.0, 0.5), (0.5, 2.0, 0.3), (2.0, 8.0, 0.7)):
            gap = means_gap(a, b, s, oracle_tol=None)
            oracle = true_deviation(
                make_breckner(0.0, 1.0, 0.0, s), Interval(a, b), (a + b) / 2, tol
            )
            assert abs(gap - oracle) <= 10 * tol

    @pytest.mark.parametrize("rel_width", [1e-3, 1e-6, 3e-7, 1e-7])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_near_equal_endpoints_against_50_digits(self, rel_width, s):
        # the gap is about (b-a)^2/a^2 relative to A^s here, so subtracting
        # the two powers in double precision loses that many digits
        for a in (0.5, 1.0, 3.0):
            b = a * (1.0 + rel_width)
            exact = _exact_means(a, b, s)[2]
            got = means_gap(a, b, s)
            assert abs(Decimal(got) - exact) <= Decimal(1e-12) * exact, (a, b, s)

    @pytest.mark.parametrize("a,b", [
        (5e-324, 1e-323),  # b^(s+1) underflowed to 0 and the gap read A^s, 3.1e-162
        (1e-320, 3e-310),
        (1e-200, 1e-160),
        (1e300, 1e308),  # b^(s+1) overflowed
    ])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    def test_endpoints_far_from_1_against_50_digits(self, a, b, s):
        want = _exact_means(a, b, s)
        got = _mean_powers(a, b, s)
        for g, w in zip(got, want):
            assert abs(Decimal(g) - w) <= Decimal(1e-12) * w, (a, b, s)

    @pytest.mark.parametrize("k", [-1070, -600, -499, 499, 600, 1000])
    def test_gap_is_homogeneous_across_the_scaling(self, k):
        # scaled or not, the gap of (2^k a, 2^k b) is (2^k)^s times that of (a, b)
        for a, b, s in ((1.0, 2.0, 0.5), (1.0, 1.05, 0.3), (0.75, 1.5, 0.8)):
            want = math.ldexp(1.0, k) ** s * means_gap(a, b, s, oracle_tol=None)
            got = means_gap(math.ldexp(a, k), math.ldexp(b, k), s, oracle_tol=None)
            assert got == pytest.approx(want, rel=1e-12), (k, a, b, s)

    def test_subnormal_endpoints_pass_the_oracle_cross_check(self):
        # 1e-9 * (b - a) underflows to 0: the relative tolerance lets the
        # oracle run, and the gap is the 50-digit one
        got = means_gap(5e-324, 1e-323, 0.5, oracle_tol=1e-10)
        want = _exact_means(5e-324, 1e-323, 0.5)[2]
        assert abs(Decimal(got) - want) <= Decimal(1e-12) * want

    @pytest.mark.parametrize("a,b,s", [(1e14, 3e14, 0.9), (1e20, 3e20, 0.75), (1e200, 3e200, 0.5),
                                       (1e300, 1e308, 0.5), (1.0, 1e300, 0.9)])
    def test_large_endpoints_pass_the_cross_check_at_the_oracles_accuracy(self, a, b, s):
        # the average of t^s is met to ORACLE_EPSREL relative, far above the
        # gap's 1e-10: the oracle and the closed form differ by 0.028 at
        # (1e14, 3e14, 0.9), which the cross-check must allow. The closed form
        # cancels there too, A^s being 450 times the gap: 1e-11 relative.
        # The integral of t^s over the last two, 6.7e461 and 5.3e569, is
        # taken on [a, b] scaled into range; unscaled, it overflowed
        got = means_gap(a, b, s, oracle_tol=1e-10)
        want = _exact_means(a, b, s)[2]
        assert abs(Decimal(got) - want) <= Decimal(1e-11) * want

    def test_oracle_evaluates_through_make_breckner(self, monkeypatch):
        # the cross-check evaluates t^s built by make_breckner, where callers
        # that count evaluations see it: 15 panel nodes and the midpoint
        from ostrowski import means

        points = []

        def counting_breckner(*args):
            fn = make_breckner(*args)
            return dataclasses.replace(fn, f=lambda t: points.append(np.size(t)) or fn.f(t))

        monkeypatch.setattr(means, "make_breckner", counting_breckner)
        got = means_gap(1.0, 2.0, 0.5, oracle_tol=1e-10)
        assert points == [15, 1]
        assert got == means_gap(1.0, 2.0, 0.5, oracle_tol=None)

    def test_default_evaluates_no_point(self, monkeypatch):
        # the stated error bound replaces the cross-check: by default the
        # oracle builds and evaluates nothing
        from ostrowski import means

        def no_breckner(*args):
            raise AssertionError("the default gap reached the oracle")

        monkeypatch.setattr(means, "make_breckner", no_breckner)
        assert means_gap(1.0, 2.0, 0.5) == means_gap(1.0, 2.0, 0.5, oracle_tol=None)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
    def test_oracle_tolerance_not_finite_and_positive_is_refused(self, monkeypatch, tol):
        # an infinite one passed any gap, and 0 reached the oracle
        from ostrowski import toolkit

        monkeypatch.setattr(toolkit, "reference_integrate", None)  # the oracle must not run
        with pytest.raises(DomainError, match=re.escape(f"oracle_tol must be a positive real, got {tol!r}")):
            means_gap(1.0, 2.0, 0.5, oracle_tol=tol)

    def test_closed_form_disagreeing_with_the_oracle_raises(self, monkeypatch):
        from ostrowski import means

        monkeypatch.setattr(means, "_mean_powers", lambda a, b, s: (1.0, 1.0, 0.5))
        with pytest.raises(ConvergenceError, match="disagrees with oracle"):
            means_gap(1.0, 2.0, 0.5, oracle_tol=1e-10)

    def test_s_one_rejected(self):
        with pytest.raises(DomainError):
            means_gap(1.0, 2.0, 1.0)

    def test_unordered_rejected(self):
        with pytest.raises(DomainError):
            means_gap(2.0, 1.0, 0.5)


class TestGapErrorBound:
    """The gap against exact decimal references, within the bound
    _mean_powers states: 2^-47 relative, plus 2^-1072 absolute where the
    gap underflows."""

    @staticmethod
    def _check(a, b, s):
        # A^s and L_s^s agree to about s(1-s)u^2/6 relative: 40 digits more
        u = (b - a) / (b + a)
        lost = -(math.log10(s) + math.log10(1.0 - s) + 2.0 * math.log10(u) - math.log10(6.0))
        exact = _exact_means(a, b, s, 40 + math.ceil(lost))[2]
        got = _mean_powers(a, b, s)[2]
        assert abs(Decimal(got) - exact) <= Decimal(2.0**-47) * exact + Decimal(2.0**-1072), (a, b, s)

    @pytest.mark.parametrize("a,b,s", [
        (1.0, 2.0, 0.9999999999),  # 2.9e-5 relative when A^s - L_s^s was subtracted
        (1.0, 2.0, 1e-10),  # 8.5e-5
        (1.0, 2.0, 1.0 - 1e-6),  # 5.5e-9
        (1.0, 1.3, 1.0 - 1e-8),  # 4.0e-6
        (1.0, 2.0, 0.5),  # 4.1e-14, about 185 ulp
        # the worst of 240,000 draws near u = 1/2 and s = 1/2: 43 units of 2^-53
        (1.1331400095105078, 3.4727615567115233, 0.5004002680612442),
        # 77 units where psi is expm1(sc) - s expm1(c), whose two terms cancel
        # up to 8/|c| fold at s = 1/2; 13 units as a difference of excesses
        (1.9577260105170735, 6.052533888095599, 0.504222482084092),
    ])
    def test_cancellation_reproducers(self, a, b, s):
        self._check(a, b, s)

    def test_seeded_draws(self):
        # s from 1e-300 to 1 - 2^-53, log-uniform near either end; b/a from
        # 1 + 2e-8 (u = 1e-8) to 2^1000, across the series threshold; ends
        # from 2^-1070 up, about half of them on the scaled path
        rng = np.random.default_rng(28)
        drawn = 0
        while drawn < 1000:
            s = float(rng.choice([10.0 ** rng.uniform(-300.0, math.log10(0.5)),
                                  1.0 - 10.0 ** rng.uniform(math.log10(2.0**-53), math.log10(0.5)),
                                  rng.uniform(2.0**-53, 1.0 - 2.0**-53)]))
            log_ratio = 10.0 ** rng.uniform(math.log10(2e-8), math.log10(1000.0 * math.log(2.0)))
            a = 2.0 ** rng.uniform(-1070.0, 1020.0 - log_ratio / math.log(2.0))
            b = a * math.exp(log_ratio)
            if a < b:
                self._check(a, b, s)
                drawn += 1


class TestMeansGapBound:
    def test_frozen_p1(self):
        res = means_gap_bound(1.0, 2.0, 0.5, "p1")
        assert res.value == pytest.approx(0.14714045207910317, rel=1e-12)
        assert res.theorem_id == "p1"

    def test_frozen_p2(self):
        res = means_gap_bound(1.0, 2.0, 0.5, "p2", p=2.0)
        assert res.value == pytest.approx(0.13971946208343752, rel=1e-12)

    def test_frozen_p3(self):
        res = means_gap_bound(1.0, 2.0, 0.5, "p3", q=2.0)
        assert res.value == pytest.approx(0.12456214868187001, rel=1e-12)

    def test_missing_variant_parameter(self):
        with pytest.raises(DomainError, match="p2 requires"):
            means_gap_bound(1.0, 2.0, 0.5, "p2")
        with pytest.raises(DomainError, match="p3 requires"):
            means_gap_bound(1.0, 2.0, 0.5, "p3")

    @pytest.mark.parametrize("q", [math.nan, math.inf, 0.5])
    def test_p3_exponent_must_be_finite_and_at_least_one(self, q):
        with pytest.raises(DomainError, match="p3 requires a finite q >= 1"):
            means_gap_bound(1.0, 2.0, 0.5, "p3", q=q)

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            means_gap_bound(1.0, 2.0, 0.5, "p9")

    def test_domination_grid(self):
        for a, b, s in S3_GRID:
            s = float(s)
            gap = means_gap(a, b, s, oracle_tol=None)
            for res in (
                means_gap_bound(a, b, s, "p1"),
                means_gap_bound(a, b, s, "p2", p=2.0),
                means_gap_bound(a, b, s, "p3", q=2.0),
            ):
                assert gap <= res.value + 1e-9, (a, b, s, res.theorem_id)

    @pytest.mark.parametrize("lam", [2.0**200, 2.0**-200], ids=["2^200", "2^-200"])
    def test_p2_p3_homogeneous_in_the_endpoints(self, lam):
        # the slopes scale by lam^(s-1) and the width by lam, so the bound
        # scales by lam^s; raw q-th powers of the slopes over- or underflowed
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = rng.uniform(0.1, 10.0)
            b = a * rng.uniform(1.01, 100.0)
            s = rng.uniform(0.05, 0.95)
            q = float(10.0 ** rng.uniform(0.0, math.log10(5000.0)))
            p = q / (q - 1.0)
            for variant in ("p2", "p3"):
                want = lam**s * means_gap_bound(a, b, s, variant, p=p, q=q).value
                got = means_gap_bound(lam * a, lam * b, s, variant, p=p, q=q).value
                assert got == pytest.approx(want, rel=1e-13), (variant, a, b, s, q)

    @pytest.mark.parametrize("variant,kw", [("p1", {}), ("p2", {"p": 2.0}), ("p3", {"q": 2.0})])
    def test_subnormal_endpoints(self, variant, kw):
        # the width 5e-324 lost its bits to the formula's constants before the
        # slopes, about 2e161, applied, and each bound came out as 0.0; the
        # bound scales by lam^s as the endpoints scale by lam
        got = means_gap_bound(5e-324, 1e-323, 0.5, variant, **kw).value
        wide = means_gap_bound(math.ldexp(5e-324, 600), math.ldexp(1e-323, 600), 0.5, variant, **kw).value
        assert got > 0.0
        assert got == pytest.approx(math.ldexp(wide, -300), rel=1e-13)

    @staticmethod
    def _p2_p3_50_digits(a, b, s, p, q):
        """p2 and p3 from their displayed forms at 50 digits, with the
        slopes s t^(s-1) taken at a, (a+b)/2 and b."""
        with localcontext() as ctx:
            ctx.prec = 50
            a, b, s, p, q = (Decimal(v) for v in (a, b, s, p, q))
            m = (a + b) / 2
            da, dx, db = (s * t ** (s - 1) for t in (a, m, b))
            p2 = ((b - m) ** 2 * ((dx**q + db**q) / (s + 1)) ** (1 / q)
                  + (m - a) ** 2 * ((da**q + dx**q) / (s + 1)) ** (1 / q)) / (
                      (b - a) * (p + 1) ** (1 / p))
            mid = (da**q + 3 * db**q) ** (1 / q) + (3 * da**q + db**q) ** (1 / q)
            p3 = (b - a) / 8 * (Decimal(1) / 3) ** (1 / q) * mid
            return p2, p3

    @pytest.mark.parametrize("variant, p, q", [("p2", 1.0001, 2.0), ("p3", 2.0, 2000.0)])
    def test_large_q_against_50_digits(self, variant, p, q):
        # raw q-th powers underflowed, and both bounds came out as 0.0,
        # below the gap they bound
        cp = make_conjugate(p)
        p2, p3 = self._p2_p3_50_digits(1.0, 2.0, 0.5, cp.p, cp.q if variant == "p2" else q)
        exact = p2 if variant == "p2" else p3
        got = means_gap_bound(1.0, 2.0, 0.5, variant, p=p, q=q).value
        assert abs(Decimal(got) - exact) <= 4 * Decimal(math.ulp(got))
        assert got >= means_gap(1.0, 2.0, 0.5, oracle_tol=None)


class TestConsistencyWithGeneralBounds:
    def test_p1_equals_midpoint_sconvex_abs(self):
        # the first gap bound is exactly the midpoint bound fed with the
        # exact slope magnitudes of t^s
        for a, b, s in S3_GRID:
            s = float(s)
            ep = slope_endpoint_data(a, b, s)
            direct = means_gap_bound(a, b, s, "p1").value
            general = midpoint_sconvex_abs(Interval(a, b), s, ep).value
            assert direct == pytest.approx(general, rel=1e-12)

    def test_p2_equals_holder_hadamard_at_midpoint(self):
        for a, b, s in S3_GRID:
            s = float(s)
            ep = slope_endpoint_data(a, b, s)
            direct = means_gap_bound(a, b, s, "p2", p=2.0).value
            general = bound_holder_hadamard(
                Interval(a, b), (a + b) / 2.0, s, make_conjugate(2.0), ep
            ).value
            assert direct == pytest.approx(general, rel=1e-12)

    def test_p3_equals_midpoint_power_mean(self):
        for a, b, s in S3_GRID:
            s = float(s)
            ep = slope_endpoint_data(a, b, s)
            direct = means_gap_bound(a, b, s, "p3", q=2.0).value
            general = midpoint_power_mean(Interval(a, b), 2.0, ep).value
            assert direct == pytest.approx(general, rel=1e-12)


class TestSlopeEndpointData:
    def test_values(self):
        ep = slope_endpoint_data(1.0, 4.0, 0.5)
        assert ep.da == pytest.approx(0.5)
        assert ep.db == pytest.approx(0.25)
        assert ep.dx == pytest.approx(0.5 * 2.5 ** (-0.5))

    def test_matches_exact_derivative(self):
        fn = make_breckner(0.0, 1.0, 0.0, 0.5)
        ep = slope_endpoint_data(1.0, 2.0, 0.5)
        assert ep.da == pytest.approx(abs(fn.deriv(1.0)), rel=1e-15)
        assert ep.db == pytest.approx(abs(fn.deriv(2.0)), rel=1e-15)

    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, 1.0)])
    def test_requires_a_below_b(self, a, b):
        # as means_gap and means_gap_bound do
        with pytest.raises(DomainError, match="0 < a < b"):
            slope_endpoint_data(a, b, 0.5)
