"""Montgomery kernel, the reproduction identity, and the baseline bounds."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrowski import toolkit
from ostrowski.bounds import _offsets
from ostrowski.core import DomainError, Interval, make_conjugate
from ostrowski.kernel import (
    alomari_bound,
    baseline_midpoint_bound,
    classic_ostrowski_bound,
    hadamard_sconvex_bounds,
    montgomery_kernel,
    verify_montgomery_identity,
)
from ostrowski.toolkit import (
    ORACLE_EPSREL,
    make_breckner,
    parse_function_spec,
    reference_integrate,
)

UNIT = Interval(0.0, 1.0)


class TestMontgomeryKernel:
    def test_first_branch(self):
        assert montgomery_kernel(0.5, UNIT, 0.3) == 0.5  # breakpoint 0.7

    def test_second_branch(self):
        assert montgomery_kernel(0.9, UNIT, 0.3) == pytest.approx(-0.1)

    def test_zero(self):
        assert montgomery_kernel(0.0, Interval(-2.0, 5.0), 1.0) == 0.0

    def test_t_out_of_range(self):
        with pytest.raises(DomainError):
            montgomery_kernel(1.5, UNIT, 0.3)

    def test_x_out_of_interval(self):
        with pytest.raises(DomainError, match="outside"):
            montgomery_kernel(0.5, UNIT, 1.5)

    @given(
        frac_x=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sign_structure(self, frac_x, t):
        # nonnegative up to the breakpoint, nonpositive beyond it
        iv = Interval(-1.0, 3.0)
        x = iv.a + frac_x * iv.width
        lam = _offsets(iv, x)[0]
        value = montgomery_kernel(t, iv, x)
        if t <= lam:
            assert value >= 0.0
            assert value == t
        else:
            assert value <= 0.0
            assert value == t - 1.0


class TestMontgomeryIdentity:
    def test_quadratic(self):
        # f(t)=t^2 on [0,1] at x=1/2: both sides equal -1/12
        fn = parse_function_spec("poly:0,0,1")
        rec = verify_montgomery_identity(fn, UNIT, 0.5, tol=1e-9)
        assert rec.holds
        assert rec.lhs <= 1e-9  # |LHS - RHS|
        mean = reference_integrate(fn, UNIT, 1e-12)
        assert fn(0.5) - mean == pytest.approx(-1.0 / 12.0, abs=1e-10)

    def test_constant(self):
        rec = verify_montgomery_identity(parse_function_spec("poly:4"), UNIT, 0.7)
        assert rec.holds
        assert rec.lhs <= 1e-12

    def test_linear(self):
        fn = parse_function_spec("poly:0,1")
        rec = verify_montgomery_identity(fn, UNIT, 0.25, tol=1e-9)
        assert rec.holds
        mean = reference_integrate(fn, UNIT, 1e-12)
        assert fn(0.25) - mean == pytest.approx(-0.25, abs=1e-12)

    def test_missing_derivative(self):
        from ostrowski.core import Function1D

        with pytest.raises(DomainError, match="derivative"):
            verify_montgomery_identity(Function1D(f=lambda t: t), UNIT, 0.5)

    def test_missing_derivative_raises_before_integrating_f(self):
        from ostrowski.core import Function1D

        points = []
        fn = Function1D(f=lambda t: points.append(np.size(t)) or t, label="plain")
        with pytest.raises(DomainError, match="derivative"):
            verify_montgomery_identity(fn, UNIT, 0.5)
        assert points == []

    def test_boundary_x_single_branch(self):
        # x = a makes the breakpoint 1; only the first branch integral exists
        fn = parse_function_spec("poly:0,0,1")
        assert verify_montgomery_identity(fn, UNIT, 0.0).holds
        assert verify_montgomery_identity(fn, UNIT, 1.0).holds

    def test_polynomial_grid(self):
        # cubic sweep across intervals and evaluation points
        fn = parse_function_spec("poly:1,-2,0.5,2")
        for a, b in ((0.0, 1.0), (1.0, 3.0)):
            iv = Interval(a, b)
            for x in np.linspace(a, b, 9):
                assert verify_montgomery_identity(fn, iv, float(x), tol=1e-9).holds


    def test_several_points_integrate_f_once(self):
        # the records of one call over several x are those of one call per x,
        # and f itself is integrated once, not once per x
        from ostrowski.core import Function1D
        from ostrowski.kernel import _montgomery_records

        poly = parse_function_spec("poly:1,-2,0.5,2")
        points = []
        fn = Function1D(f=lambda t: points.append(np.size(t)) or poly(t), df=poly.df, label=poly.label)
        iv = Interval(1.0, 3.0)
        xs = np.linspace(1.0, 3.0, 9).tolist()
        records = _montgomery_records(fn, iv, xs, 1e-9)
        assert points == [15] + [1] * 9
        assert records == [verify_montgomery_identity(poly, iv, x, tol=1e-9) for x in xs]

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tolerance_not_finite_and_positive_is_refused(self, monkeypatch, tol):
        # -1 was reported as the per-piece -0.1, and 0 reached the oracle
        monkeypatch.setattr(toolkit, "reference_integrate", None)  # the oracle must not run
        with pytest.raises(DomainError, match=re.escape(f"tol must be a positive real, got {tol!r}")):
            verify_montgomery_identity(parse_function_spec("poly:2,-1"), UNIT, 0.5, tol=tol)

    def test_slack_takes_the_pieces_relative_accuracy(self):
        # f = 2e5 (t - 1/2): at x = a the one piece is the integral of 2e5 t
        # over [0, 1], 1e5, met to ORACLE_EPSREL * 1e5 = 1.8e-10 rather than
        # the piece tolerance 1e-10; the record's slack grows by the
        # difference. At x = 0.3 neither piece reaches that size.
        fn = parse_function_spec("poly:-1e5,2e5")
        edge = verify_montgomery_identity(fn, UNIT, 0.0, tol=1e-9)
        assert edge.holds
        assert edge.context.endswith(f"[tol={1e-9 + max(0.0, ORACLE_EPSREL * 1e5 - 1e-10):g}]")
        assert edge.context.endswith("[tol=1.07764e-09]")
        inner = verify_montgomery_identity(fn, UNIT, 0.3, tol=1e-9)
        assert inner.holds and inner.context.endswith("[tol=1e-09]")

    def test_slack_takes_the_integral_of_fs_relative_accuracy(self):
        # f = 5e5 t^2: the integral of f over [0, 1], 1.7e5, cannot meet
        # tol / 10 = 1e-10 under its roundoff floor 1.5e-10, and raised. It is
        # met to ORACLE_EPSREL, and the slack grows by what that adds to the
        # average, as it does by the low piece's excess (the integral of
        # 1e6 t (1 - t) over [0, 0.7]); the high piece is too small to add any
        rec = verify_montgomery_identity(parse_function_spec("poly:0,0,5e5"), UNIT, 0.3, tol=1e-9)
        assert rec.holds
        low, whole = 1e6 * (0.7**2 / 2 - 0.7**3 / 3), 5e5 / 3
        slack = 1e-9 + max(0.0, ORACLE_EPSREL * low - 1e-10) + max(0.0, ORACLE_EPSREL * whole - 1e-10)
        assert rec.context.endswith(f"[tol={slack:g}]")
        assert rec.context.endswith("[tol=1.32817e-09]")

class TestClassicOstrowski:
    def test_midpoint(self):
        assert classic_ostrowski_bound(UNIT, 0.5, 1.0).value == 0.25

    def test_endpoint(self):
        assert classic_ostrowski_bound(UNIT, 1.0, 2.0).value == pytest.approx(1.0)

    def test_wider_interval(self):
        assert classic_ostrowski_bound(Interval(0.0, 2.0), 0.5, 1.0).value == (
            pytest.approx(0.625)
        )

    def test_negative_m(self):
        with pytest.raises(DomainError):
            classic_ostrowski_bound(UNIT, 0.5, -1.0)

    def test_negative_interval_allowed(self):
        # the classical bound has no nonnegativity restriction
        assert classic_ostrowski_bound(Interval(-1.0, 1.0), 0.0, 1.0).value == 0.5

    def test_narrow_intervals_within_8_ulp_of_exact(self):
        # x - midpoint cancels on a narrow interval away from 0, of either sign
        rng = np.random.default_rng(11)
        cases = [(1000.0, 1000.000001, 1000.0000001, 1.0)]
        for _ in range(2000):
            a = rng.uniform(-1e3, 1e3)
            b = a + 10.0 ** rng.uniform(-9.0, -3.0)
            x = min(a + rng.uniform() * (b - a), b)
            cases.append((a, b, x, 10.0 ** rng.uniform(-3.0, 3.0)))
        for a, b, x, m in cases:
            got = classic_ostrowski_bound(Interval(a, b), x, m).value
            fa, fb, fx = Fraction(a), Fraction(b), Fraction(x)
            w = fb - fa
            exact = Fraction(m) * w * (Fraction(1, 4) + ((fx - (fa + fb) / 2) / w) ** 2)
            assert abs(Fraction(got) - exact) <= 8 * Fraction(math.ulp(float(exact))), (a, b, x, m)

    def test_dominates_true_deviation(self):
        for spec in ("poly:0,1", "poly:0,0,1", "poly:0,1,1"):
            fn = parse_function_spec(spec)
            mean = reference_integrate(fn, UNIT, 1e-12)
            grid = np.linspace(0.0, 1.0, 21)
            m = max(abs(fn.deriv(float(t))) for t in grid)
            for x in grid:
                deviation = abs(fn(float(x)) - mean)
                bound = classic_ostrowski_bound(UNIT, float(x), m).value
                assert deviation <= bound + 1e-9, (spec, x)


class TestHadamardBounds:
    def test_linear_equality(self):
        res = hadamard_sconvex_bounds(parse_function_spec("poly:0,1"), UNIT, 1.0)
        assert res.lower == pytest.approx(0.5, abs=1e-12)
        assert res.mean == pytest.approx(0.5, abs=1e-10)
        assert res.upper == pytest.approx(0.5, abs=1e-12)
        assert res.holds

    def test_sqrt_right_side_equality(self):
        res = hadamard_sconvex_bounds(make_breckner(0, 1, 0, 0.5), UNIT, 0.5)
        assert res.lower == pytest.approx(0.5, abs=1e-12)
        assert res.mean == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert res.upper == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.holds

    def test_quadratic(self):
        res = hadamard_sconvex_bounds(parse_function_spec("poly:0,0,1"), UNIT, 1.0)
        assert (res.lower, res.upper) == (pytest.approx(0.25), pytest.approx(0.5))
        assert res.mean == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert res.holds

    def test_slack_takes_the_averages_relative_accuracy(self):
        # the average of 5e5 t^2 over [0, 1] cannot meet tol / 10 = 1e-10
        # under its roundoff floor 1.5e-10, and raised; it is met to
        # ORACLE_EPSREL, and both records' slack grows by the excess
        res = hadamard_sconvex_bounds(parse_function_spec("poly:0,0,5e5"), UNIT, 1.0)
        assert res.holds and res.mean == pytest.approx(5e5 / 3, rel=1e-15)
        slack = f"[tol={1e-9 + max(0.0, ORACLE_EPSREL * (5e5 / 3) - 1e-10):g}]"
        assert slack == "[tol=1.19606e-09]"
        assert res.lower_record.context.endswith(slack) and res.upper_record.context.endswith(slack)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.inf, math.nan])
    def test_tolerance_not_finite_and_positive_is_refused(self, monkeypatch, tol):
        monkeypatch.setattr(toolkit, "reference_integrate", None)  # the oracle must not run
        with pytest.raises(DomainError, match=re.escape(f"tol must be a positive real, got {tol!r}")):
            hadamard_sconvex_bounds(parse_function_spec("poly:0,0,1"), UNIT, 1.0, tol=tol)

    def test_negative_interval_rejected(self):
        with pytest.raises(DomainError):
            hadamard_sconvex_bounds(
                parse_function_spec("poly:0,0,1"), Interval(-1.0, 1.0), 1.0
            )

    def test_breckner_family_bracket(self):
        # members of the sufficient-condition region across the s range
        rng = np.random.default_rng(7)
        for s in np.arange(0.1, 1.01, 0.1):
            u = rng.uniform(0.0, 2.0)
            w = rng.uniform(0.0, u)
            v = rng.uniform(0.0, 3.0)
            fn = make_breckner(u, v, w, float(s))
            res = hadamard_sconvex_bounds(fn, Interval(0.0, 2.0), float(s))
            assert res.holds, (u, v, w, s)


class TestAlomariBound:
    def test_midpoint(self):
        cp = make_conjugate(2.0)
        assert alomari_bound(UNIT, 0.5, 1.0, cp, 1.0).value == pytest.approx(
            0.2886751345948129, rel=1e-12
        )

    def test_left_endpoint(self):
        cp = make_conjugate(2.0)
        assert alomari_bound(UNIT, 0.0, 1.0, cp, 1.0).value == pytest.approx(
            0.5773502691896258, rel=1e-12
        )

    def test_zero_m(self):
        assert alomari_bound(UNIT, 0.3, 0.5, make_conjugate(3.0), 0.0).value == 0.0

    @given(
        frac=st.floats(min_value=0.0, max_value=1.0),
        s=st.floats(min_value=0.01, max_value=1.0),
        p=st.floats(min_value=1.1, max_value=10.0),
        m=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_reflection_symmetry(self, frac, s, p, m):
        iv = Interval(0.0, 2.0)
        x = iv.a + frac * iv.width
        x_ref = iv.a + (1.0 - frac) * iv.width
        cp = make_conjugate(p)
        lhs = alomari_bound(iv, x, s, cp, m).value
        rhs = alomari_bound(iv, x_ref, s, cp, m).value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)


class TestBaselineMidpointBound:
    def test_eq14(self):
        res = baseline_midpoint_bound("eq14", UNIT, None, 1.0, 1.0)
        assert res.value == 0.25
        assert res.theorem_id == "eq14"

    def test_eq15(self):
        res = baseline_midpoint_bound("eq15", UNIT, make_conjugate(2.0), 1.0, 1.0)
        assert res.value == pytest.approx(0.2886751345948129, rel=1e-12)

    def test_eq16(self):
        res = baseline_midpoint_bound("eq16", UNIT, make_conjugate(2.0), 1.0, 1.0)
        assert res.value == pytest.approx(0.5773502691896258, rel=1e-12)

    def test_eq14_ignores_cp(self):
        with_cp = baseline_midpoint_bound("eq14", UNIT, make_conjugate(5.0), 1.0, 2.0)
        without = baseline_midpoint_bound("eq14", UNIT, None, 1.0, 2.0)
        assert with_cp.value == without.value

    def test_missing_cp(self):
        with pytest.raises(DomainError, match="eq15"):
            baseline_midpoint_bound("eq15", UNIT, None, 1.0, 1.0)
        with pytest.raises(DomainError, match="eq16"):
            baseline_midpoint_bound("eq16", UNIT, None, 1.0, 1.0)

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            baseline_midpoint_bound("eq99", UNIT, None, 1.0, 1.0)

    def test_negative_derivative_magnitude(self):
        with pytest.raises(DomainError):
            baseline_midpoint_bound("eq14", UNIT, None, -1.0, 1.0)
