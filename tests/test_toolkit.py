"""Breckner family, s-convexity falsification, and the reference integrator."""

import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrowski import toolkit
from ostrowski.cli import DEFAULT_IDENTITY_POLYS, DEFAULT_SWEEP_FUNCTIONS
from ostrowski.core import ConvergenceError, DomainError, Function1D, Interval
from ostrowski.toolkit import (
    BrecknerFunction,
    check_sconvex,
    make_breckner,
    parse_function_spec,
    reference_integrate,
    true_deviation,
)


UNIT = Interval(0.0, 1.0)


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
        # a float takes numpy's power as a 0-d array: at s = 0.3 and 0.75 the C
        # pow rounded 470 of 10,000 such points an ulp away from numpy's
        rng = np.random.default_rng(29)
        cases = [(1.0, [3e-310, 0.1, 0.7, 2.5, 1e300]), (0.5, [2.0**-1074, 0.0625, 0.25, 1.0, 4.0, 2.25])]
        cases += [(s, rng.uniform(0.0, 3.0, 400).tolist() + [0.8093601412916109]) for s in (0.3, 0.75)]
        for s, t in cases:
            fn = BrecknerFunction(7.0, v, w, s)
            t = [0.0, -0.0] + t
            floats = [fn.value(x) for x in t]
            assert all(type(y) is float for y in floats)
            assert _hex_list(floats) == _hex_list(fn.value(np.array(t))), (v, w, s)
            slopes = [fn.slope(x) for x in t[2:]]
            assert all(type(y) is float for y in slopes)
            assert _hex_list(slopes) == _hex_list(fn.slope(np.array(t[2:]))), (v, w, s)
            if s in (1.0, 0.5):  # where numpy's power and the C pow agree: s = 1, and s = 1/2 at squares
                assert _hex_list(floats[2:]) == _hex_list([v * x**s + w for x in t[2:]])

    def test_membership_predicate(self):
        assert BrecknerFunction(1.0, 2.0, 0.5, 0.5).is_known_member
        assert not BrecknerFunction(1.0, -0.1, 0.5, 0.5).is_known_member  # v < 0
        assert not BrecknerFunction(0.5, 1.0, 1.0, 0.5).is_known_member  # w > u

    def test_invalid_s(self):
        with pytest.raises(DomainError):
            make_breckner(0.0, 1.0, 0.0, 1.5)

    @pytest.mark.parametrize("name", ["u", "v", "w"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_refused_by_name(self, name, bad):
        # the record itself checks, so make_breckner and a direct build alike
        params = {"u": 0.0, "v": 1.0, "w": 0.0, "s": 0.5, name: bad}
        message = re.escape(f"breckner {name} must be finite, got {bad!r}")
        with pytest.raises(DomainError, match=message):
            BrecknerFunction(**params)
        with pytest.raises(DomainError, match=message):
            make_breckner(**params)


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

    def test_context_carries_every_digit_of_the_interval_and_s(self):
        # :g printed [0.1234567, 2.00000001] and s=1/3 as [0.123457, 2] and s=0.333333
        report = check_sconvex(parse_function_spec("poly:0,1"), 1 / 3,
                               Interval(0.1234567, 2.00000001), 3)
        assert "on [0.1234567, 2.00000001]^2 x [0,1], s=0.3333333333333333; " in report.context

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

    def test_infinite_difference_is_a_violation(self):
        # f(0.25) = +inf misses f(0)/2 + f(0.5)/2 by +inf; the rounding allowance,
        # 8 eps |f(0.25)|, was inf as well and counted it an equality
        fn = Function1D(f=lambda t: np.where(t == 0.25, np.inf, t))
        report = check_sconvex(fn, 1.0, Interval(0.0, 1.0), 3)
        assert not report.is_consistent
        assert report.worst_violation == math.inf
        assert report.witness == (0.0, 0.5, 0.5)

    @pytest.mark.parametrize("f", [
        lambda t: np.exp(700.0 + 20.0 * np.sin(9.0 * t)),  # overflows in the evaluator
        # -1.7e308 at the grid points, 1.7e308 between: the difference overflows
        lambda t: np.where(np.isin(t, (0.0, 0.5, 1.0)), -1.7e308, 1.7e308),
    ], ids=["evaluator", "difference"])
    def test_overflow_raises_overflow_error(self, f):
        # the evaluator printed 13 RuntimeWarnings and the report a finite
        # violation built from overflowed values
        with pytest.raises(OverflowError, match="overflowed double precision"):
            check_sconvex(Function1D(f=f), 1.0, Interval(0.0, 1.0), 5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_grid_value_is_refused(self, value):
        # a grid value weights every combination, and 0 * inf is NaN
        fn = Function1D(f=lambda t: np.where(t == 0.5, value, t), label="spiked")
        with pytest.raises(DomainError, match=r"^function spiked is not finite at the grid point t=0\.5$"):
            check_sconvex(fn, 1.0, Interval(0.0, 1.0), 5)

    def test_evaluates_grid_and_every_combination_point(self):
        fn = make_breckner(1.0, 1.0, 0.5, 0.5)
        points = []
        counting = Function1D(f=lambda t: points.append(np.size(t)) or fn(t))
        check_sconvex(counting, 0.5, Interval(0.0, 1.0), 7)
        assert sum(points) == 7 + 7**3


# QUADPACK's QK15 values to 33 digits (Piessens et al., 1983), outermost first:
# nodes, Kronrod weights, Gauss weights
QK15_NODES = (
    "0.991455371120812639206854697526329", "0.949107912342758524526189684047851",
    "0.864864423359769072789712788640926", "0.741531185599394439863864773280788",
    "0.586087235467691130294144845693013", "0.405845151377397166906606412076961",
    "0.207784955007898467600689403773245", "0",
)
QK15_W_KRONROD = (
    "0.022935322010529224963732008058970", "0.063092092629978553290700663189204",
    "0.104790010322250183839876322541518", "0.140653259715525918745189590510238",
    "0.169004726639267902826583426598550", "0.190350578064785409913256402421014",
    "0.204432940075298892414161999234649", "0.209482141084727828012999174891714",
)
QK15_W_GAUSS = (
    "0.129484966168869693270611432679082", "0.279705391489276667901467771423780",
    "0.381830050505118944950369775488975", "0.417959183673469387755102040816327",
)

# each stored constant is the double nearest its full-precision value, so
# within half an ulp: leggauss(7), itself rounded, differs by at most 2 ulps
# of 1/8, and a monomial's rule sum misses its exact integral by at most u/2
RULE_DIGITS = 2.5e-16  # a Gauss node or weight against numpy's leggauss(7)
RULE_EXACTNESS = 6e-17  # a monomial's rule sum against its exact integral


def test_rule_table_is_quadpacks_to_the_last_bit():
    # float() of a decimal string is correctly rounded
    for table, digits in ((toolkit._HALF_NODES, QK15_NODES),
                          (toolkit._HALF_W_KRONROD, QK15_W_KRONROD),
                          (toolkit._HALF_W_GAUSS, QK15_W_GAUSS)):
        assert _hex_list(table) == _hex_list(float(v) for v in digits)


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
        # interval's. The floors of the panels on either side add up to
        # C·u·(2 - sqrt 2) = 5.2e-16 whatever their number, so a tolerance
        # just above that is met only once the jump's panel is below 1e-16
        jump = math.sqrt(2.0) - 1.0
        fn = Function1D(f=lambda t: np.where(t < jump, 0.0, 1.0), label="step")
        with pytest.raises(ConvergenceError, match="cannot be subdivided further"):
            reference_integrate(fn, Interval(0.0, 1.0), 5.5e-16)

    def test_jump_converges_above_its_floor(self):
        # with the full digits the constant panels carry no spurious error,
        # so 1e-15 is met, and met in fact
        jump = math.sqrt(2.0) - 1.0
        fn = Function1D(f=lambda t: np.where(t < jump, 0.0, 1.0), label="step")
        got = reference_integrate(fn, Interval(0.0, 1.0), 1e-15)
        assert abs(Fraction(got) - (2 - Fraction(math.sqrt(2.0)))) <= 1e-15

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
        # a linear f: both rules are exact, so the estimate is the floor
        floor = float(np.abs(fs).max()) * toolkit._PANEL_FLOOR
        assert abs(k15 - g7) < floor
        assert toolkit._rule(fn, (-1.0, 1.0))[0] == (k15, floor)
        assert toolkit._rule(fn, (-1.0, 0.0, 1.0)) == [_lone_panel(fn, -1.0, 0.0),
                                                        _lone_panel(fn, 0.0, 1.0)]

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


def _counting(fn):
    points = []
    return Function1D(f=lambda t: points.append(np.size(t)) or fn(t), label=fn.label), points


def _exact_poly(coeffs, a, b):
    """The integral of the polynomial with these double coefficients over
    [a, b], exactly."""
    a, b = Fraction(a), Fraction(b)
    return sum(Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))


class TestRoundoffFloor:
    """Each panel's estimate is at least C·u·2·half·max|f|, and a target below
    what the floors can reach fails at once, naming the floor."""

    def test_floor_factor(self):
        # C = 8, u = 2**-53; a panel's floor is half·(max|f|·2·C·u)
        assert toolkit._PANEL_FLOOR == 2 * 8 * 2.0**-53
        assert toolkit.ORACLE_EPSREL == 2 * 8 * 2.0**-53

    def test_constant_meets_1e_12_on_its_first_panel(self):
        # the 15-digit weights summed to 2 - 3.4e-15, and the constant 1000
        # bisected to the panel budget with its estimate stuck at 3.4e-12
        counting, points = _counting(parse_function_spec("poly:1000"))
        got = reference_integrate(counting, Interval(0.0, 1.0), 1e-12)
        assert points == [15]
        assert abs(got - 1000.0) <= 1e-12

    @pytest.mark.parametrize("spec,floor", [
        ("poly:1", "8.88178e-16"), ("poly:1000", "8.88178e-13"), ("poly:3.3e+307", "2.93099e+292"),
    ])
    def test_tolerance_below_the_floor_raises_at_once(self, spec, floor):
        counting, points = _counting(parse_function_spec(spec))
        with pytest.raises(ConvergenceError, match="^" + re.escape(
            f"integral of {spec} did not reach tol=1e-300: it is below the "
            f"roundoff floor {floor} of the panel sums"
        )):
            reference_integrate(counting, Interval(0.0, 1.0), 1e-300)
        assert points == [15]

    def test_huge_constant_claims_no_more_than_its_sums_carry(self):
        # with full digits alone |K15 - G7| is 0 here, and the oracle returned
        # 3.2999999999999994e+307 "to 1e-12", 5e291 from the integral
        fn = parse_function_spec("poly:3.3e307")
        with pytest.raises(ConvergenceError, match="did not reach tol=1e-12"):
            reference_integrate(fn, Interval(0.0, 1.0), 1e-12)
        got = reference_integrate(fn, Interval(0.0, 1.0), 1e293)
        assert abs(Fraction(got) - Fraction(3.3e307)) <= 1e293

    def test_cancelling_integrand_raises_at_the_first_check_after_the_first_panel(self):
        # the first panel's K15 of sin over [0, 2 pi] is near 0; the values of
        # the smaller panels show the floor C·u·4
        counting, points = _counting(Function1D(f=np.sin, label="sin"))
        with pytest.raises(ConvergenceError, match="roundoff floor 3.55271e-15"):
            reference_integrate(counting, Interval(0.0, 2.0 * math.pi), 1e-20)
        assert points == [15] + [30] * 63  # 64 panels

    def test_relative_tolerance_reaches_what_the_absolute_cannot(self):
        # poly:1e6,1 at 1e-12: the floor is 8.9e-10; relative to the integral
        # 1e6 + 0.5 the target is 1.8e-9, met on the first panel
        fn = parse_function_spec("poly:1e6,1")
        with pytest.raises(ConvergenceError, match="roundoff floor 8.88179e-10"):
            reference_integrate(fn, Interval(0.0, 1.0), 1e-12)
        counting, points = _counting(fn)
        got = reference_integrate(counting, Interval(0.0, 1.0), 1e-12, epsrel=toolkit.ORACLE_EPSREL)
        assert points == [15]
        exact = _exact_poly([1e6, 1.0], 0.0, 1.0)
        assert abs(Fraction(got) - exact) <= toolkit.ORACLE_EPSREL * exact

    @pytest.mark.parametrize("epsrel", [1e-3, 1e-6])
    def test_relative_tolerance_is_met_on_the_final_integral(self, epsrel):
        # the first panel puts a narrow peak's integral at 0.105, six times
        # its value: epsrel alone must end where the absolute tolerance
        # epsrel·|integral| ends, not where the first panel's would
        exact = 0.01 * math.sqrt(math.pi) * math.erf(50.0)
        peak = Function1D(f=lambda t: np.exp(-((t - 0.5) / 0.01) ** 2), label="peak")
        by_epsrel, points = _counting(peak)
        got = reference_integrate(by_epsrel, Interval(0.0, 1.0), 0.0, epsrel=epsrel)
        by_tol, points_tol = _counting(peak)
        reference_integrate(by_tol, Interval(0.0, 1.0), epsrel * exact)
        assert points == points_tol
        assert abs(got - exact) <= epsrel * exact

    def test_floor_covers_the_rounding_of_the_k15_sum(self):
        # the K15 sum as computed, against the same rule on the same values
        # in rational arithmetic, with QUADPACK's 33-digit weights and the
        # exact half-width: the miss stays within the floor C·u·2·half·max|f|
        # (at most 3.6u·2·half·max|f| on these panels, against C = 8)
        half_w = [Fraction(Decimal(v)) for v in QK15_W_KRONROD]
        weights = half_w[:-1] + half_w[::-1]
        rng = np.random.default_rng(31)
        for i in range(3000):
            degree = (0, 3, 13)[i % 3]  # constants, cubics, degree-13 polynomials
            coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
            lo = float(rng.uniform(-3.0, 3.0))
            hi = lo + float(10.0 ** rng.uniform(-3.0, 1.0))
            fn = Function1D(f=lambda t, c=coeffs: np.polynomial.polynomial.polyval(t, c))
            k15, _ = _lone_panel(fn, lo, hi)
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            fs = fn(mid + half * toolkit._NODES)
            exact = (Fraction(hi) - Fraction(lo)) / 2 * sum(
                w * Fraction(v) for w, v in zip(weights, fs.tolist()))
            floor = half * (float(np.abs(fs).max()) * toolkit._PANEL_FLOOR)
            assert abs(Fraction(k15) - exact) <= floor, (degree, lo, hi)

    def test_floor_of_panels_near_the_top_of_the_range_is_finite(self):
        # each hump of 5e307 sin holds 1e308; their |values| add up past the
        # double range, and the floor read inf
        fn = Function1D(f=lambda t: 5e307 * np.sin(t), label="big-sin")
        with pytest.raises(ConvergenceError, match=re.escape("roundoff floor 3.55271e+293 ")):
            reference_integrate(fn, Interval(0.0, 4.0 * math.pi), 1e-12)

    def test_panel_sum_order_only_matters_for_an_overflow(self):
        # heap entries are (-estimate, lo, hi, value); this heap lists the two
        # panels of 1e308 first, and fsum overflows in that order
        heap = [(-3.0, 0.0, 1.0, 1e308), (-2.0, 2.0, 3.0, 1e308), (-1.0, 1.0, 2.0, -1e308)]
        with pytest.raises(OverflowError):
            math.fsum([entry[3] for entry in heap])
        assert toolkit._panel_sum(heap) == 1e308  # left to right: 1e308, -1e308, 1e308
        # where left to right overflows as well, the overflow is raised
        heap = [(-3.0, 0.0, 1.0, 1e308), (-2.0, 1.0, 2.0, 1e308), (-1.0, 2.0, 3.0, -1e308)]
        with pytest.raises(OverflowError):
            toolkit._panel_sum(heap)
        # otherwise the heap's order is summed, to the same bits
        rng = np.random.default_rng(37)
        values = (rng.standard_normal(200) * 10.0 ** rng.uniform(-8.0, 8.0, 200)).tolist()
        heap = [(-float(i % 7), float(i), float(i + 1), v) for i, v in enumerate(values)]
        rng.shuffle(heap)
        assert toolkit._panel_sum(heap).hex() == math.fsum(values).hex()

    @pytest.mark.parametrize("tol,epsrel", [(0.0, 0.0), (-1e-9, 1e-3), (1e-9, -1e-3),
                                            (math.nan, 1e-3), (1e-9, math.nan)])
    def test_bad_tolerances(self, tol, epsrel):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            reference_integrate(parse_function_spec("poly:1"), Interval(0, 1), tol, epsrel=epsrel)

    def test_one_signed_polynomials_meet_the_relative_tolerance_exactly(self):
        # nonnegative coefficients on [a, b] with a >= 0: |f| = f, so the
        # floors sum to C·u·|integral|, half of ORACLE_EPSREL's target; the
        # result is within that target of the exact integral
        rng = np.random.default_rng(23)
        for _ in range(200):
            coeffs = (np.abs(rng.standard_normal(int(rng.integers(1, 8))))
                      * 10.0 ** rng.uniform(-3.0, 3.0)).tolist()
            a = float(rng.uniform(0.0, 2.0))
            b = a + float(10.0 ** rng.uniform(-3.0, 1.0))
            fn = parse_function_spec("poly:" + ",".join(map(repr, coeffs)))
            got = reference_integrate(fn, Interval(a, b), 0.0, epsrel=toolkit.ORACLE_EPSREL)
            exact = _exact_poly(coeffs, a, b)
            assert abs(Fraction(got) - exact) <= toolkit.ORACLE_EPSREL * exact, (coeffs, a, b)


class TestAgainstExactIntegrals:
    def test_polynomials_against_exact_fractions(self):
        # mixed signs, degree <= 8, on intervals in [-1, 1], so |f| <= 18 and
        # the roundoff floor is below 4e-14: within tol of the exact integral
        # of the double coefficients
        rng = np.random.default_rng(29)
        for _ in range(100):
            coeffs = rng.uniform(-2.0, 2.0, int(rng.integers(1, 10))).tolist()
            a = float(rng.uniform(-1.0, 0.9))
            b = float(rng.uniform(a + 0.01, 1.0))
            fn = parse_function_spec("poly:" + ",".join(map(repr, coeffs)))
            got = reference_integrate(fn, Interval(a, b), 1e-12)
            assert abs(Fraction(got) - _exact_poly(coeffs, a, b)) <= 1e-12, (coeffs, a, b)

    @pytest.mark.parametrize("spec,a,b,tol", [
        ("breckner:0,1,0,0.5", 0.0, 1.7, 1e-12),
        ("breckner:2,1.3,0.25,0.25", 0.0, 0.9, 1e-12),
        ("breckner:1,0.7,0.5,0.75", 0.5, 3.0, 1e-13),
        ("powabs:0.5", -1.3, 1.1, 1e-12),
        ("powabs:0.25", -0.4, 2.0, 1e-11),
        ("powabs:1.5", -0.6, 1.4, 1e-13),
        ("powabs:3", -2.0, 0.5, 1e-13),
    ])
    def test_power_families_against_50_digit_mpmath(self, spec, a, b, tol):
        mp = pytest.importorskip("mpmath").mp
        kind, params = spec.split(":")
        vals = [mp.mpf(v) for v in params.split(",")]
        with mp.workdps(50):
            if kind == "breckner":  # f(0) = u is one point: v t^s + w everywhere else
                _, v, w, s = vals
                exact = mp.quad(lambda t: v * t**s + w, [a, b])
            else:  # |t|^k, split at its kink
                exact = mp.quad(lambda t: abs(t) ** vals[0], [a, 0, b] if a < 0 < b else [a, b])
            got = reference_integrate(parse_function_spec(spec), Interval(a, b), tol)
            assert abs(mp.mpf(got) - exact) <= tol


def _lone_panel(fn, lo, hi):
    """One panel of the rule, written out with a dot product per weight table
    and the estimate's floor C·u·2·half·max|f|."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fs = fn(mid + half * toolkit._NODES)
    k15 = half * float(toolkit._W_KRONROD @ fs)
    floor = half * (float(np.abs(fs).max()) * toolkit._PANEL_FLOOR)
    return k15, max(abs(k15 - half * float(toolkit._W_GAUSS @ fs)), floor)


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
            if rng.random() < 0.2:  # a constant: the floor is the estimate
                vals[:] = vals[0]
            fn = Function1D(f=lambda t, vals=vals: vals, label="table")
            half = 0.5 * (hi - lo)
            k15 = half * float(np.dot(toolkit._W_KRONROD, vals))
            g7 = half * float(np.dot(toolkit._W_GAUSS, vals))
            floor = half * (float(np.abs(vals).max()) * toolkit._PANEL_FLOOR)
            want = (k15, max(abs(k15 - g7), floor))
            assert _hex(toolkit._rule(fn, (lo, hi))) == _hex([want]), (lo, hi)

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
        # the quartered panel's floor is taken from its own values, unscaled
        top = float(np.abs(fn(-0.5 + 0.5 * toolkit._NODES)).max())
        assert split[0][1] >= 0.5 * (top * toolkit._PANEL_FLOOR) > 0.0

    @pytest.mark.parametrize("fn", [
        parse_function_spec("poly:5e307"),
        parse_function_spec("poly:5e307,1e306"),
        Function1D(f=lambda t: 5e307 * (1.0 + 0.5 * np.sin(7.0 * t)), label="huge-wave"),
    ], ids=lambda fn: fn.label)
    def test_halves_whose_tops_add_up_past_2_1023_are_two_lone_panels(self, fn):
        # each half's max|f| is below 2**1023 and their sum is not: the split
        # takes each panel's dot products instead of the one product
        for lo, hi in ((-1.0, 1.0), (0.0, 1.0), (0.25, 3.0), (-3e-9, 5e-9)):
            mid = 0.5 * (lo + hi)
            tops = [float(np.abs(fn(m + h * toolkit._NODES)).max())
                    for m, h in ((0.5 * (lo + mid), 0.5 * (mid - lo)), (0.5 * (mid + hi), 0.5 * (hi - mid)))]
            assert max(tops) < 2.0**1023 <= sum(tops)
            split = toolkit._rule(fn, (lo, mid, hi))
            assert _hex(split) == _hex(toolkit._rule(fn, (lo, mid)) + toolkit._rule(fn, (mid, hi)))
            assert _hex(split) == _hex([_lone_panel(fn, lo, mid), _lone_panel(fn, mid, hi)])

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


class TestOracleIntegral:
    """oracle_integral is the one way the library's checks reach the oracle."""

    @pytest.mark.parametrize("spec,a,b,tol", [
        ("poly:0,0,1", 0.0, 1.0, 1e-12), ("breckner:0,1,0,0.5", 0.5, 2.0, 1.5e-12),
        ("powabs:0.5", 0.0, 1.0, 1e-10), ("poly:0,0,5e5", 0.0, 1.0, 1e-12),
    ])
    def test_integral_has_the_bits_of_the_relative_oracle(self, spec, a, b, tol):
        fn, iv = parse_function_spec(spec), Interval(a, b)
        integral, _ = toolkit.oracle_integral(fn, iv, tol)
        assert integral.hex() == reference_integrate(fn, iv, tol, epsrel=toolkit.ORACLE_EPSREL).hex()

    def test_excess_is_zero_at_the_default_sweep_scale(self):
        from ostrowski.cli import DEFAULT_SWEEP_FUNCTIONS, SweepConfig, _sweep_interval

        for spec in DEFAULT_SWEEP_FUNCTIONS:
            iv = _sweep_interval(spec, SweepConfig())
            assert toolkit.oracle_integral(parse_function_spec(spec), iv, 1e-12 * iv.width)[1] == 0.0, spec

    def test_excess_is_what_the_relative_tolerance_adds(self):
        # the integral of 5e5 t^2 over [0, 1] is met to ORACLE_EPSREL·5e5/3,
        # about 3e-10, far above the tol 1e-12
        integral, excess = toolkit.oracle_integral(parse_function_spec("poly:0,0,5e5"), UNIT, 1e-12)
        assert integral == pytest.approx(5e5 / 3, rel=1e-15)
        assert excess == toolkit.ORACLE_EPSREL * abs(integral) - 1e-12
        assert excess > 2.9e-10

    @pytest.mark.parametrize("check", ["run_sweep", "identity", "hadamard", "certified", "means_gap",
                                       "true_deviation"])
    def test_every_check_reaches_the_oracle_with_its_relative_tolerance(self, monkeypatch, check):
        from ostrowski.cli import SweepConfig, run_sweep
        from ostrowski.kernel import hadamard_sconvex_bounds, verify_montgomery_identity
        from ostrowski.means import means_gap
        from ostrowski.quadrature import certified_integrate

        integrate, seen = toolkit.reference_integrate, []

        def recorder(fn, iv, tol, *, epsrel=0.0):
            seen.append(epsrel)
            return integrate(fn, iv, tol, epsrel=epsrel)

        monkeypatch.setattr(toolkit, "reference_integrate", recorder)
        fn = parse_function_spec("poly:0,0,1")
        calls = {
            "run_sweep": lambda: run_sweep(SweepConfig(s_grid=(0.5,), x_grid_points=2, p_grid=(2.0,),
                                                       function_specs=("poly:0,0,1",))),
            "identity": lambda: verify_montgomery_identity(fn, UNIT, 0.3),
            "hadamard": lambda: hadamard_sconvex_bounds(fn, UNIT, 1.0),
            "certified": lambda: certified_integrate(fn, UNIT, 1e-2, "p5", verify=True),
            "means_gap": lambda: means_gap(1.0, 2.0, 0.5, oracle_tol=1e-10),
            "true_deviation": lambda: true_deviation(fn, UNIT, 0.5),
        }
        calls[check]()
        assert seen and seen == [toolkit.ORACLE_EPSREL] * len(seen)


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

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
    def test_tolerance_not_finite_and_positive_is_refused(self, monkeypatch, tol):
        monkeypatch.setattr(toolkit, "reference_integrate", None)  # the oracle must not run
        with pytest.raises(DomainError, match=re.escape(f"tol must be a positive real, got {tol!r}")):
            true_deviation(parse_function_spec("poly:0,1"), UNIT, 0.5, tol=tol)


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

    @pytest.mark.parametrize("k", ["inf", "-inf", "nan"])
    def test_non_finite_powabs_exponent_is_refused(self, k):
        with pytest.raises(DomainError, match=f"powabs exponent must be finite, got {k}"):
            parse_function_spec(f"powabs:{k}")

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

    @pytest.mark.parametrize("spec,message", [
        ("unknown:1", "unknown function kind 'unknown'; expected breckner, poly, or powabs"),
        ("poly", "function spec 'poly' is missing ':' (kind:params)"),
        ("poly:", "poly spec needs at least one coefficient: 'poly:'"),
        ("breckner:1,2", "breckner spec needs u,v,w,s; got 'breckner:1,2'"),
        ("powabs:0", "powabs exponent must be positive, got 0.0"),
        ("powabs:1,2", "powabs spec needs exactly one exponent: 'powabs:1,2'"),
        ("poly:a,b", "could not parse numbers in function spec 'poly:a,b'"),
        ("breckner:1,2,3", "breckner spec needs u,v,w,s; got 'breckner:1,2,3'"),
        ("FOO:1", "unknown function kind 'foo'; expected breckner, poly, or powabs"),
    ])
    def test_bad_specs(self, spec, message):
        with pytest.raises(DomainError) as info:
            parse_function_spec(spec)
        assert str(info.value) == message


#: parameters a label must carry to the last digit: a signed zero, powers
#: of ten, 1/3, and the rounded -2/3 of ROADMAP item 15's quartic
_LABEL_NUMBERS = (-0.0, 1e16, 1e-5, 1 / 3, -0.6666666666666666)


def _label_specs(per_family=8):
    """Seeded specs of each family, half their parameters from _LABEL_NUMBERS
    and half with 16 or 17 significant digits, each written by repr."""
    rng = np.random.default_rng(31)

    def number():
        if rng.random() < 0.5:
            return _LABEL_NUMBERS[rng.integers(len(_LABEL_NUMBERS))]
        return float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9))

    specs = ["poly:0,0,0.5,-0.6666666666666666,0.25"]
    for _ in range(per_family):
        specs.append("poly:" + ",".join(repr(number()) for _ in range(rng.integers(1, 6))))
        specs.append(f"powabs:{abs(number()) or 0.5!r}")
        s = (1 / 3, 1e-5, 1.0, float(rng.uniform(1e-3, 1.0)))[rng.integers(4)]
        specs.append("breckner:" + ",".join(repr(v) for v in (number(), number(), number(), s)))
    return specs


class TestLabels:
    @pytest.mark.parametrize("spec", _label_specs())
    def test_label_parses_back_to_the_same_function(self, spec):
        fn = parse_function_spec(spec)
        again = parse_function_spec(fn.label)
        assert again.label == fn.label
        ts = np.random.default_rng(7).uniform(1e-3, 1.0, 64)
        assert _hex_list(again(ts)) == _hex_list(fn(ts))
        assert _hex_list(again.deriv(ts)) == _hex_list(fn.deriv(ts))

    def test_a_label_keeps_every_digit(self):
        spec = "poly:0,0,0.5,-0.6666666666666666,0.25"
        assert parse_function_spec(spec).label == spec
        assert parse_function_spec("poly:-0.0,1e16,1e-5").label == "poly:-0,1e+16,1e-05"
        assert parse_function_spec(f"breckner:{1 / 3!r},1,0,1").label == \
            "breckner:0.3333333333333333,1,0,1"

    def test_default_labels_are_their_specs(self):
        for spec in DEFAULT_SWEEP_FUNCTIONS + DEFAULT_IDENTITY_POLYS:
            assert parse_function_spec(spec).label == spec

    def test_powabs_kink_message_names_the_exponent_in_full(self):
        with pytest.raises(DomainError, match=re.escape("|t|^0.3333333333333333 has no derivative")):
            parse_function_spec(f"powabs:{1 / 3!r}").deriv(0.0)


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
