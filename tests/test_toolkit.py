"""Breckner family, s-convexity falsification, and the reference integrator."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrowski import toolkit
from ostrowski.core import ConvergenceError, DomainError, Function1D, Interval
from ostrowski.toolkit import (
    BrecknerFunction,
    check_sconvex,
    make_breckner,
    parse_function_spec,
    reference_integrate,
    true_deviation,
)


def _hex_list(values):
    return [float(v).hex() for v in values]


class TestBrecknerFunction:
    def test_evaluation(self):
        fn = make_breckner(0.0, 1.0, 0.0, 0.5)  # t^0.5
        assert fn(0.0) == 0.0
        assert fn(0.25) == 0.5
        assert fn.deriv(0.25) == pytest.approx(0.5 * 0.25 ** (-0.5))

    def test_piecewise_jump(self):
        fn = make_breckner(2.0, 1.0, 1.0, 0.5)
        assert fn(0.0) == 2.0  # jump value at the origin
        assert fn(1.0) == 2.0  # v + w

    def test_constant_member(self):
        fn = make_breckner(1.0, 0.0, 1.0, 0.5)
        assert fn(0.0) == fn(0.7) == 1.0

    def test_linear_case(self):
        fn = make_breckner(0.0, 2.0, 0.0, 1.0)
        assert fn(3.0) == 6.0
        assert fn.deriv(0.0) == 2.0  # linear extends to the origin

    def test_derivative_undefined_at_zero_for_fractional_s(self):
        fn = make_breckner(0.0, 1.0, 0.0, 0.5)
        with pytest.raises(DomainError, match="undefined at t=0"):
            fn.deriv(0.0)

    def test_negative_argument_rejected(self):
        fn = make_breckner(0.0, 1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            fn(-0.1)
        with pytest.raises(DomainError):
            fn.deriv(-0.1)

    def test_negative_float_message(self):
        fn = make_breckner(0.0, 1.0, 0.0, 0.5)
        for t in (-0.1, -5e-324):
            with pytest.raises(DomainError, match=rf"^Breckner function is defined on \[0, inf\), got t={t!r}$"):
                fn(t)
        with pytest.raises(DomainError, match=r"got t=-0\.1$"):
            fn(np.array([1.0, -0.1]))

    def test_origin_takes_u(self):
        fn = BrecknerFunction(3.0, 2.0, 0.5, 0.5)
        assert fn.value(0.0) == fn.value(-0.0) == 3.0
        assert fn.value(np.array([0.0, -0.0, 1.0])).tolist() == [3.0, 3.0, 2.5]
        assert math.isnan(fn.value(math.nan))

    @pytest.mark.parametrize("v", [1.0, 2.0, 0.0, -0.0])
    @pytest.mark.parametrize("w", [0.0, -0.0, 0.5])
    def test_array_path_is_the_formula_bit_for_bit(self, v, w):
        # the multiply by v = 1 and the add of w = 0 are skipped only where
        # they are identities: at v = -0.0 and w = +0.0, v t^s + w is +0.0
        rng = np.random.default_rng(23)
        t = np.concatenate((10.0 ** rng.uniform(-320.0, 300.0, 200), rng.uniform(0.0, 4.0, 200),
                            [5e-324, 1.0, 8e307]))
        for s in (0.3, 0.5, 1.0):
            fn = BrecknerFunction(7.0, v, w, s)
            want = v * t**s + w
            assert _hex_list(fn.value(t)) == _hex_list(want), (v, w, s)
            with_zero = np.concatenate(([0.0, -0.0], t))
            assert _hex_list(fn.value(with_zero)) == ["0x1.c000000000000p+2"] * 2 + _hex_list(want)

    @pytest.mark.parametrize("v", [1.0, 2.0, 0.0, -0.0])
    @pytest.mark.parametrize("w", [0.0, -0.0, 0.5])
    def test_float_path_is_the_array_path_elementwise(self, v, w):
        # where numpy's power and the C pow agree: s = 1, and s = 1/2 at squares
        # (elsewhere the two may round a power differently by an ulp)
        for s, t in ((1.0, [3e-310, 0.1, 0.7, 2.5, 1e300]), (0.5, [2.0**-1074, 0.0625, 0.25, 1.0, 4.0, 2.25])):
            fn = BrecknerFunction(7.0, v, w, s)
            t = [0.0, -0.0] + t
            floats = [fn.value(x) for x in t]
            assert all(type(y) is float for y in floats)
            assert _hex_list(floats) == _hex_list(fn.value(np.array(t))), (v, w, s)
            assert _hex_list(floats[2:]) == _hex_list([v * x**s + w for x in t[2:]])

    def test_membership_predicate(self):
        assert BrecknerFunction(1.0, 2.0, 0.5, 0.5).is_known_member
        assert not BrecknerFunction(1.0, -0.1, 0.5, 0.5).is_known_member  # v < 0
        assert not BrecknerFunction(0.5, 1.0, 1.0, 0.5).is_known_member  # w > u

    def test_invalid_s(self):
        with pytest.raises(DomainError):
            make_breckner(0.0, 1.0, 0.0, 1.5)


class TestCheckSconvex:
    def test_sqrt_consistent(self):
        report = check_sconvex(
            make_breckner(0.0, 1.0, 0.0, 0.5), 0.5, Interval(0.0, 1.0), 21
        )
        assert report.is_consistent
        assert report.worst_violation <= 0.0

    def test_linear_equality_everywhere(self):
        report = check_sconvex(
            parse_function_spec("poly:0,1"), 1.0, Interval(0.0, 4.0), 21
        )
        assert report.is_consistent
        assert report.worst_violation == 0.0

    def test_concave_counterexample(self):
        report = check_sconvex(
            parse_function_spec("poly:0,0,-1"), 1.0, Interval(0.0, 1.0), 21
        )
        assert not report.is_consistent
        assert report.worst_violation == pytest.approx(0.25)
        assert report.witness == (0.0, 1.0, 0.5)

    def test_context_explains_falsifier_role(self):
        report = check_sconvex(
            parse_function_spec("poly:0,1"), 1.0, Interval(0.0, 1.0), 5
        )
        assert "falsifier" in report.context
        assert "certifier" in report.context

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            check_sconvex(parse_function_spec("poly:0,1"), 1.0, Interval(0.0, 1.0), 1)

    def test_evaluator_failure_reported(self):
        def bad(t: float) -> float:
            raise RuntimeError("boom")

        with pytest.raises(DomainError, match="evaluator failed"):
            check_sconvex(Function1D(f=bad), 0.5, Interval(0.0, 1.0), 5)

    def test_combination_point_failure_reported(self):
        # the grid's 1-D values evaluate; the 2-D combination points do not
        def flat_only(t):
            if np.ndim(t) > 1:
                raise ValueError("flat arrays only")
            return np.asarray(t, dtype=float)

        with pytest.raises(DomainError, match="at a combination point: flat arrays only"):
            check_sconvex(Function1D(f=flat_only), 0.5, Interval(0.0, 1.0), 5)

    @pytest.mark.parametrize("c", [1.0, 1e-10, 1e-14, 1e-200, 1e200])
    def test_scaled_concave_function_falsified_at_every_scale(self, c):
        # 1.5 c sqrt(t) is concave, so not convex; an absolute floor of 1 in
        # the noise allowance reported it consistent for c <= 1e-14
        fn = Function1D(f=lambda t: 1.5 * c * np.sqrt(t))
        report = check_sconvex(fn, 1.0, Interval(0.5, 2.0))
        assert not report.is_consistent
        assert report.worst_violation == pytest.approx(0.0882890317634775 * c, rel=1e-13)
        assert report.witness == (2.0, 0.5, 0.4)

    def test_breckner_membership_sweep(self):
        # members of the sufficient-condition region stay consistent
        rng = np.random.default_rng(42)
        s_values = (0.25, 0.5, 0.75, 1.0)
        for k in range(50):
            u = rng.uniform(0.0, 2.0)
            w = rng.uniform(0.0, u)
            v = rng.uniform(0.0, 3.0)
            s = s_values[k % 4]
            report = check_sconvex(
                make_breckner(u, v, w, s), s, Interval(0.0, 2.0), 21
            )
            assert report.is_consistent, (u, v, w, s, report.witness)

    @given(
        u=st.floats(min_value=0.0, max_value=2.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
        v=st.floats(min_value=0.0, max_value=3.0),
        s=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    )
    def test_membership_property(self, u, frac, v, s):
        report = check_sconvex(
            make_breckner(u, v, frac * u, s), s, Interval(0.0, 2.0), 9
        )
        assert report.is_consistent

    @staticmethod
    def _brute_force(fn, s, a, b, n):
        """The defining inequality at every (x, y, alpha), one point at a time."""
        eps = np.finfo(float).eps
        pts = [float(t) for t in np.linspace(a, b, n)]
        alphas = [float(t) for t in np.linspace(0.0, 1.0, n)]
        worst, witness = -math.inf, (pts[0], pts[0], 0.0)
        for x in pts:
            for y in pts:
                for al in alphas:
                    fz, fx, fy = fn(al * x + (1.0 - al) * y), fn(x), fn(y)
                    wfx, wfy = al**s * fx, (1.0 - al) ** s * fy
                    raw = fz - (wfx + wfy)
                    noise = 8.0 * eps * max(1.0, abs(fz), abs(wfx) + abs(wfy))
                    viol = 0.0 if 0.0 < raw <= noise else raw
                    if viol > worst:
                        worst, witness = viol, (x, y, al)
        return worst, witness

    @pytest.mark.parametrize("spec, s, b", [
        ("breckner:2,1,1,0.5", 0.5, 2.0),  # member, jump at 0
        ("poly:0,0,-1", 0.5, 1.0),  # non-member
        ("poly:1,2", 1.0, 3.0),  # linear: equality, so every triple ties
    ])
    def test_matches_brute_force_triple_loop(self, spec, s, b):
        fn = parse_function_spec(spec)
        report = check_sconvex(fn, s, Interval(0.0, b), 7)
        worst, witness = self._brute_force(fn, s, 0.0, b, 7)
        # the scalar and array powers may round apart by an ulp
        assert report.worst_violation == pytest.approx(worst, abs=1e-15)
        assert report.witness == witness
        assert report.is_consistent == (worst <= 0.0)

    def test_nan_point_hides_no_violation_in_its_plane(self):
        # f is NaN at t = 5/36 only, a combination point in the x = 0 plane
        # ahead of that plane's largest violation
        base = parse_function_spec("poly:0,0,-1")
        fn = Function1D(f=lambda t: np.where(np.abs(t - 5.0 / 36.0) < 1e-12, np.nan, base(t)))
        report = check_sconvex(fn, 0.5, Interval(0.0, 1.0), 7)
        worst, witness = self._brute_force(fn, 0.5, 0.0, 1.0, 7)
        assert worst > 0.0
        assert report.worst_violation == pytest.approx(worst, abs=1e-15)
        assert report.witness == witness
        assert not report.is_consistent

    def test_evaluates_grid_and_every_combination_point(self):
        fn = make_breckner(1.0, 1.0, 0.5, 0.5)
        points = []
        counting = Function1D(f=lambda t: points.append(np.size(t)) or fn(t))
        check_sconvex(counting, 0.5, Interval(0.0, 1.0), 7)
        assert sum(points) == 7 + 7**3


# The rule's constants are typed to 15 digits, so each is off by up to half
# a unit in the 15th digit. Full-precision constants, which ROADMAP.md's
# oracle item asks for, tighten both bounds to a few ulps.
RULE_DIGITS = 1e-15  # a node or weight against its full-precision value
RULE_EXACTNESS = 1e-14  # a monomial's rule sum against its exact integral


def test_kronrod_gauss_rule_table():
    nodes, w_kronrod, w_gauss = toolkit._NODES, toolkit._W_KRONROD, toolkit._W_GAUSS
    assert np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(w_kronrod, w_kronrod[::-1])
    assert np.array_equal(w_gauss, w_gauss[::-1])
    assert np.all(w_gauss[0::2] == 0.0)
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
    assert np.abs(nodes[1::2] - gauss_nodes).max() <= RULE_DIGITS
    assert np.abs(w_gauss[1::2] - gauss_weights).max() <= RULE_DIGITS

    # in exact rational arithmetic on the stored doubles: K15 is exact up to
    # degree 22, G7 up to degree 13
    xs = [Fraction(v) for v in nodes]
    for weights, degree in ((w_kronrod, 22), (w_gauss, 13)):
        ws = [Fraction(v) for v in weights]
        for k in range(degree + 1):
            rule = sum(w * x**k for w, x in zip(ws, xs))
            exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
            assert abs(float(rule - exact)) <= RULE_EXACTNESS, (degree, k)


class TestReferenceIntegrate:
    def test_polynomials_against_antiderivative(self):
        # degree <= 6, coefficients in {-2..2}
        rng = np.random.default_rng(42)
        iv = Interval(0.0, 1.0)
        for _ in range(40):
            deg = int(rng.integers(0, 7))
            coeffs = rng.integers(-2, 3, size=deg + 1).astype(float)
            fn = parse_function_spec("poly:" + ",".join(f"{c:g}" for c in coeffs))
            exact = sum(c / (k + 1.0) for k, c in enumerate(coeffs))
            assert reference_integrate(fn, iv, 1e-12) == pytest.approx(
                exact, abs=1e-12
            )

    def test_quadratic(self):
        fn = parse_function_spec("poly:0,0,1")
        assert reference_integrate(fn, Interval(0.0, 1.0), 1e-10) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_sqrt_with_singular_derivative(self):
        fn = parse_function_spec("powabs:0.5")
        assert reference_integrate(fn, Interval(0.0, 1.0), 1e-10) == pytest.approx(
            2.0 / 3.0, abs=1e-10
        )

    def test_constant(self):
        fn = parse_function_spec("poly:3.5")
        assert reference_integrate(fn, Interval(-1.0, 3.0), 1e-12) == pytest.approx(
            14.0, rel=1e-14
        )

    def test_scaling(self):
        tol = 1e-11
        iv = Interval(0.0, 2.0)
        base = parse_function_spec("poly:1,0,1")
        scaled = parse_function_spec("poly:5,0,5")
        lhs = reference_integrate(scaled, iv, tol)
        rhs = 5.0 * reference_integrate(base, iv, tol)
        assert abs(lhs - rhs) <= 2 * tol * 5.0

    def test_additivity(self):
        tol = 1e-11
        fn = parse_function_spec("powabs:0.5")
        whole = reference_integrate(fn, Interval(0.0, 2.0), tol)
        parts = reference_integrate(fn, Interval(0.0, 0.7), tol) + reference_integrate(
            fn, Interval(0.7, 2.0), tol
        )
        assert abs(whole - parts) <= 2 * tol

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            reference_integrate(parse_function_spec("poly:1"), Interval(0, 1), 0.0)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(toolkit, "DEFAULT_ORACLE_PANELS", 8)
        fn = parse_function_spec("powabs:0.1")
        with pytest.raises(ConvergenceError, match="within 8 panels"):
            reference_integrate(fn, Interval(0.0, 1.0), 1e-13)

    def test_jump_below_the_smallest_panel_raises(self):
        # a unit jump at an irrational point keeps the estimate of the panel
        # holding it near that panel's width, which stops at 1e-15 of the
        # interval's
        jump = math.sqrt(2.0) - 1.0
        fn = Function1D(f=lambda t: np.where(t < jump, 0.0, 1.0), label="step")
        with pytest.raises(ConvergenceError, match="cannot be subdivided further"):
            reference_integrate(fn, Interval(0.0, 1.0), 1e-15)

    def test_non_finite_integrand(self):
        fn = Function1D(f=lambda t: math.nan, label="nan")
        with pytest.raises(ConvergenceError, match="non-finite"):
            reference_integrate(fn, Interval(0.0, 1.0), 1e-9)

    def test_integrand_near_the_top_of_the_double_range(self, monkeypatch):
        # the K15/G7 weighted sums of f used to overflow to inf before the
        # half-width scaling, for integrals as small as 5e307
        unit = Interval(0.0, 1.0)
        monkeypatch.setattr(toolkit, "DEFAULT_ORACLE_PANELS", 16)  # 1e294 needs one panel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec, exact in (("poly:0,1e308", 5e307), ("poly:1e308", 1e308)):
                fn = parse_function_spec(spec)
                assert reference_integrate(fn, unit, 1e294) == pytest.approx(exact, rel=1e-14)
                # 1e-12 is far below the rounding of a 5e307 sum: it must
                # fail, not return inf
                with pytest.raises(ConvergenceError, match="did not reach"):
                    reference_integrate(fn, unit, 1e-12)

    def test_quarter_scaling_keeps_finite_panel_sums_bit_identical(self):
        # max|f| = 1.1e308 >= 2**1023, yet the unscaled sums do not overflow
        fn = parse_function_spec("poly:1e307,1e308")
        fs = fn(toolkit._NODES)
        assert np.abs(fs).max() >= 2.0**1023
        with np.errstate(over="raise"):
            k15 = float(toolkit._W_KRONROD @ fs)
            g7 = float(toolkit._W_GAUSS @ fs)
        assert toolkit._rule(fn, (-1.0, 1.0))[0] == (k15, abs(k15 - g7))

    def test_overflowing_panel_sum_raises_instead_of_returning_inf(self):
        # the integral 2e308 is beyond double precision: the panel used to
        # return (inf, nan), and the nan estimate passed as converged
        fn = parse_function_spec("poly:1e308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflowed"):
                reference_integrate(fn, Interval(0.0, 2.0), 1e-12)
            # K15 = 1.2e308 and G7 = -1e308 are finite, their difference is not
            gauss = toolkit._NODES[toolkit._W_GAUSS != 0.0]
            spread = Function1D(f=lambda t: np.where(np.isin(t, gauss), -0.5e308, 1.7e308),
                                label="spread")
            with pytest.raises(OverflowError, match="spread"):
                toolkit._rule(spread, (-1.0, 1.0))

    def test_converged_first_panel_makes_one_evaluator_call(self):
        fn = make_breckner(0.0, 1.0, 0.0, 0.5)
        points = []
        counting = Function1D(f=lambda t: points.append(np.size(t)) or fn(t), label=fn.label)
        got = reference_integrate(counting, Interval(1.0, 2.0), 1e-9)
        assert points == [15]
        assert got.hex() == _lone_panel(fn, 1.0, 2.0)[0].hex()

    def test_converged_first_panel_keeps_the_sign_of_fsum(self):
        # half times a tiny negative sum underflows to -0.0; the result is
        # math.fsum of the panels, as for a refined integral, so +0.0
        fn = Function1D(f=lambda t: -1e-300 + 0.0 * t, label="tiny")
        assert toolkit._rule(fn, (0.0, 2e-100))[0][0].hex() == "-0x0.0p+0"
        assert reference_integrate(fn, Interval(0.0, 2e-100), 1e-9).hex() == "0x0.0p+0"

    def test_deterministic(self):
        fn = parse_function_spec("powabs:0.5")
        a = reference_integrate(fn, Interval(0.0, 1.0), 1e-11)
        b = reference_integrate(fn, Interval(0.0, 1.0), 1e-11)
        assert a == b


def _lone_panel(fn, lo, hi):
    """One panel of the rule, written out with a dot product per weight table."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fs = fn(mid + half * toolkit._NODES)
    k15 = half * float(toolkit._W_KRONROD @ fs)
    return k15, abs(k15 - half * float(toolkit._W_GAUSS @ fs))


def _hex(pairs):
    return [(v.hex(), e.hex()) for v, e in pairs]


class TestRule:
    """The panels of one _rule call share an evaluator call and a product,
    and each comes out as it would alone."""

    @pytest.mark.parametrize("fn", [
        parse_function_spec("powabs:0.5"),
        parse_function_spec("breckner:1,2,0.5,0.3"),
        parse_function_spec("poly:1,-2,0.5,3"),
        Function1D(f=lambda t: np.sin(50.0 * t) * np.exp(t), label="wave"),
    ], ids=lambda fn: fn.label)
    def test_split_is_two_lone_panels_bit_for_bit(self, fn):
        rng = np.random.default_rng(31)
        for _ in range(300):
            lo = float(rng.uniform(0.0, 3.0))
            hi = lo + float(10.0 ** rng.uniform(-12.0, 2.0))
            mid = 0.5 * (lo + hi)
            split = toolkit._rule(fn, (lo, mid, hi))
            alone = toolkit._rule(fn, (lo, mid)) + toolkit._rule(fn, (mid, hi))
            assert _hex(split) == _hex(alone), (lo, hi)
            assert _hex(split) == _hex([_lone_panel(fn, lo, mid), _lone_panel(fn, mid, hi)])

    def test_lone_panel_is_its_dot_products_bit_for_bit(self):
        # random values, a fifth of them subnormal, on random panels: the lone
        # panel's (integral, estimate) is the two dot products, worked apart
        rng = np.random.default_rng(37)
        for _ in range(500):
            vals = rng.standard_normal(15) * 10.0 ** rng.uniform(-300.0, 300.0)
            tiny = rng.random(15) < 0.2
            vals[tiny] = rng.integers(-2**20, 2**20, int(tiny.sum())) * 2.0**-1074
            lo = float(rng.uniform(-3.0, 3.0))
            hi = lo + float(10.0 ** rng.uniform(-12.0, 2.0))
            fn = Function1D(f=lambda t, vals=vals: vals, label="table")
            half = 0.5 * (hi - lo)
            k15 = half * float(np.dot(toolkit._W_KRONROD, vals))
            g7 = half * float(np.dot(toolkit._W_GAUSS, vals))
            assert _hex(toolkit._rule(fn, (lo, hi))) == _hex([(k15, abs(k15 - g7))]), (lo, hi)

    def test_huge_half_leaves_a_subnormal_neighbour_unrounded(self):
        # |f| >= 2**1023 on the left half: only that panel is summed a
        # quarter at a time; a quartered subnormal right half would round
        unit = math.ldexp(1.0, -1074)
        fn = Function1D(f=lambda t: np.where(t < 0.0, 1.1e308 + 1e307 * t,
                                             unit * np.floor(1000.0 * t + 3.0)), label="mixed")
        split = toolkit._rule(fn, (-1.0, 0.0, 1.0))
        assert _hex(split) == _hex(toolkit._rule(fn, (-1.0, 0.0)) + toolkit._rule(fn, (0.0, 1.0)))
        assert _hex(split[1:]) == _hex([_lone_panel(fn, 0.0, 1.0)])
        fs = fn(0.5 + 0.5 * toolkit._NODES)
        quartered = 0.5 * float(toolkit._W_KRONROD @ (fs / 4.0)) * 4.0
        assert 0.0 < split[1][0] != quartered

    def test_non_finite_right_half_names_that_panel(self):
        fn = Function1D(f=lambda t: np.where(t > 0.5, math.nan, t * t), label="half-nan")
        with pytest.raises(ConvergenceError, match=r"on \[0\.5, 1\]$"):
            toolkit._rule(fn, (0.0, 0.5, 1.0))

    def test_leftmost_failing_panel_raises(self):
        # the left sums overflow and the right half is NaN: the left panel,
        # evaluated first on its own, raised first
        fn = Function1D(f=lambda t: np.where(t < 0.0, 1.7e308, math.nan), label="both")
        with pytest.raises(OverflowError, match=r"on \[-4, 0\] overflowed"):
            toolkit._rule(fn, (-4.0, 0.0, 4.0))

    def test_overflowing_right_half_names_that_panel(self):
        fn = Function1D(f=lambda t: np.where(t < 0.0, t, 1.7e308), label="right-huge")
        with pytest.raises(OverflowError, match=r"on \[0, 4\] overflowed"):
            toolkit._rule(fn, (-4.0, 0.0, 4.0))

    def test_one_evaluator_call_per_split(self):
        fn = parse_function_spec("powabs:0.5")
        shapes = []
        counting = Function1D(f=lambda t: shapes.append(t.shape) or fn(t))
        reference_integrate(counting, Interval(-1.0, 1.0), 1e-12)
        # 41 splits: 1 + 41 calls on flat arrays, 15 points for each of 83 panels
        assert shapes == [(15,)] + [(30,)] * 41

    def test_one_dimensional_evaluator(self):
        def tent(t):
            if np.ndim(t) != 1:
                raise TypeError("tent takes 1-D arrays only")
            return np.interp(t, [0.0, 0.3, 1.0], [0.0, 1.0, 0.0])

        got = reference_integrate(Function1D(f=tent, label="tent"), Interval(0.0, 1.0), 1e-12)
        assert got == pytest.approx(0.5, abs=1e-12)


class TestTrueDeviation:
    def test_quadratic_midpoint(self):
        fn = parse_function_spec("poly:0,0,1")
        assert true_deviation(fn, Interval(0.0, 1.0), 0.5) == pytest.approx(
            1.0 / 12.0, abs=1e-9
        )

    def test_linear_midpoint_vanishes(self):
        fn = parse_function_spec("poly:0,1")
        assert true_deviation(fn, Interval(0.0, 1.0), 0.5) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_sqrt_at_right_endpoint(self):
        fn = parse_function_spec("powabs:0.5")
        assert true_deviation(fn, Interval(0.0, 1.0), 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-9
        )

    def test_outside_point_rejected(self):
        with pytest.raises(DomainError):
            true_deviation(parse_function_spec("poly:0,1"), Interval(0, 1), 2.0)


class TestFunctionRegistry:
    def test_breckner_spec(self):
        fn = parse_function_spec("breckner:0,1,0,0.5")
        assert fn(0.25) == 0.5
        assert fn.label == "breckner:0,1,0,0.5"

    def test_poly_spec(self):
        fn = parse_function_spec("poly:1,2,3")
        assert fn(2.0) == 1 + 4 + 12
        assert fn.deriv(2.0) == 2 + 12

    def test_powabs_spec(self):
        fn = parse_function_spec("powabs:2")
        assert fn(-3.0) == 9.0
        assert fn.deriv(-3.0) == -6.0
        assert fn.deriv(0.0) == 0.0

    def test_overflowing_derivative_coefficient_raises_overflow_error(self):
        # polyder's 2 * 1.8e308 printed a numpy warning and left inf in f'
        with pytest.raises(OverflowError, match="overflowed double precision"):
            parse_function_spec("poly:0,0,1.7976931348623157e308")

    def test_powabs_kink(self):
        fn = parse_function_spec("powabs:1")
        with pytest.raises(DomainError):
            fn.deriv(0.0)

    def test_whitespace_ignored(self):
        fn = parse_function_spec("  poly : 0 , 1  ")
        assert fn(3.0) == 3.0
        assert fn.label == "poly:0,1"

    @pytest.mark.parametrize("spec", [
        "unknown:1",
        "poly",
        "poly:",
        "breckner:1,2",
        "powabs:0",
        "powabs:1,2",
        "poly:a,b",
    ])
    def test_bad_specs(self, spec):
        with pytest.raises(DomainError):
            parse_function_spec(spec)


def _horner(cs, t):
    total = 0.0
    for c in reversed(cs):
        total = total * t + c
    return total


def _scalar_reference(spec):
    """(f, f') of a registry spec, written out for one Python float."""
    kind, _, rest = spec.partition(":")
    ps = [float(p) for p in rest.split(",")]
    if kind == "breckner":
        u, v, w, s = ps
        return (lambda t: u if t == 0.0 else v * t**s + w,
                lambda t: v if t == 0.0 else v * s * t ** (s - 1.0))
    if kind == "poly":
        ds = [k * c for k, c in enumerate(ps)][1:]
        return lambda t: _horner(ps, t), lambda t: _horner(ds, t)
    (k,) = ps
    return (lambda t: abs(t) ** k,
            lambda t: 0.0 if t == 0.0 else k * abs(t) ** (k - 1.0) * math.copysign(1.0, t))


NONNEGATIVE = np.array([[0.0, 0.25, 1.0, 2.0], [0.5, 0.0, 3.7, 1e-3], [10.0, 0.1, 0.0, 7.0]])
POSITIVE = NONNEGATIVE + 0.5
REAL = np.array([[-2.0, -0.3, 0.0], [0.7, -1e-3, 5.5]])


class TestArrayContract:
    """Builders evaluate a whole array at once, pointwise."""

    @pytest.mark.parametrize("spec, f_points, df_points", [
        ("breckner:2,1,1,0.5", NONNEGATIVE, POSITIVE),  # u != w at t = 0
        ("breckner:0,2,0,1", NONNEGATIVE, NONNEGATIVE),  # linear slope extends to 0
        ("breckner:0.5,3,0.25,0.3", POSITIVE, POSITIVE),
        ("poly:1,-2,0.5,3", REAL, REAL),
        ("poly:4", REAL, REAL),
        ("powabs:2.5", REAL, REAL),
        ("powabs:0.5", REAL, REAL[REAL != 0.0]),
    ])
    def test_matches_scalar_formula_within_two_ulp(self, spec, f_points, df_points):
        fn = parse_function_spec(spec)
        for evaluate, reference, t in zip((fn, fn.deriv), _scalar_reference(spec),
                                          (f_points, df_points)):
            got = evaluate(t)
            want = np.array([reference(float(x)) for x in t.flat]).reshape(t.shape)
            assert got.shape == t.shape
            assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want))), (spec, got, want)

    @pytest.mark.parametrize("spec, deriv, bad, match", [
        ("breckner:0,1,0,0.5", False, -0.5, "defined on"),
        ("breckner:0,1,0,1", True, -0.5, "defined on"),
        ("breckner:0,1,0,0.5", True, 0.0, "undefined at t=0"),
        ("powabs:1", True, 0.0, "no derivative"),
        ("powabs:0.5", True, 0.0, "no derivative"),
    ])
    def test_one_bad_point_anywhere_raises(self, spec, deriv, bad, match):
        fn = parse_function_spec(spec)
        evaluate = fn.deriv if deriv else fn
        for index in np.ndindex(2, 3):
            t = np.full((2, 3), 1.5)
            t[index] = bad
            with pytest.raises(DomainError, match=match):
                evaluate(t)
            # a NaN elsewhere in the array must not mask the bad point
            t[(index[0] + 1) % 2, index[1]] = math.nan
            with pytest.raises(DomainError, match=match):
                evaluate(t)
