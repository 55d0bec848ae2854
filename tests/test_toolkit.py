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
        assert toolkit._panel(fn, -1.0, 1.0) == (k15, abs(k15 - g7))

    def test_deterministic(self):
        fn = parse_function_spec("powabs:0.5")
        a = reference_integrate(fn, Interval(0.0, 1.0), 1e-11)
        b = reference_integrate(fn, Interval(0.0, 1.0), 1e-11)
        assert a == b


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
