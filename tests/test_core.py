"""Value types: construction invariants, validation, conjugate exponents."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrowski.core import (
    BoundResult,
    ConjugatePair,
    DomainError,
    EndpointData,
    Function1D,
    Interval,
    VerificationRecord,
    _require_s,
    make_conjugate,
    validate_eval_point,
)
from ostrowski.kernel import alomari_bound, baseline_midpoint_bound, classic_ostrowski_bound


class TestInterval:
    def test_basic(self):
        iv = Interval(0.0, 1.0)
        assert iv.width == 1.0
        assert iv.midpoint == 0.5
        assert iv.contains(0.0) and iv.contains(1.0) and iv.contains(0.3)
        assert not iv.contains(1.5)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError, match="a < b"):
            Interval(1.0, 1.0)

    def test_reversed_rejected(self):
        with pytest.raises(DomainError, match="interval requires a < b"):
            Interval(1.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)
        with pytest.raises(DomainError):
            Interval(math.nan, 1.0)

    @pytest.mark.parametrize("a,b", [(-1e308, 1e308), (-1e308, 8e307)])
    def test_infinite_width_rejected(self, a, b):
        with pytest.raises(DomainError, match="width b - a must be finite"):
            Interval(a, b)

    def test_width_near_the_top_of_the_double_range(self):
        assert Interval(-8e307, 8e307).width == 1.6e308

    def test_require_nonnegative(self):
        # negative intervals are fine to build (classical bounds allow them);
        # s-convex operations reject them
        Interval(0.0, 1.0).require_nonnegative()
        with pytest.raises(DomainError):
            Interval(-0.5, 1.0).require_nonnegative()


class TestSParam:
    @pytest.mark.parametrize("s", [1e-9, 0.25, 0.5, 1.0])
    def test_valid(self, s):
        assert _require_s(s) == s

    @pytest.mark.parametrize("s", [0.0, -0.5, 1.0000001, math.nan])
    def test_invalid(self, s):
        with pytest.raises(DomainError):
            _require_s(s)


class TestConjugatePair:
    def test_self_conjugate_point(self):
        cp = make_conjugate(2.0)
        assert cp.p == 2.0 and cp.q == 2.0

    def test_p3(self):
        cp = make_conjugate(3.0)
        assert cp.q == pytest.approx(1.5, rel=1e-15)

    def test_near_one(self):
        # q = p/(p-1) evaluated in extended precision is exactly 101
        cp = make_conjugate(1.01)
        assert cp.q == pytest.approx(101.0, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
    def test_rejects_p_at_most_one(self, p):
        with pytest.raises(DomainError):
            make_conjugate(p)

    def test_rejects_non_conjugate(self):
        with pytest.raises(DomainError, match="not conjugate"):
            ConjugatePair(2.0, 3.0)

    @given(st.floats(min_value=1.000001, max_value=1000.0))
    def test_involution(self, p):
        # recomputing p from the stored q returns the original exponent
        cp = make_conjugate(p)
        assert abs(1.0 / cp.p + 1.0 / cp.q - 1.0) <= 1e-12
        p_back = cp.q / (cp.q - 1.0)
        assert p_back == pytest.approx(p, rel=1e-12)


class TestEndpointData:
    def test_optional_dx(self):
        ep = EndpointData(1.0, 2.0)
        assert ep.dx is None
        with pytest.raises(DomainError, match="dx"):
            ep.require_dx()
        assert EndpointData(1.0, 2.0, dx=3.0).require_dx() == 3.0

    @pytest.mark.parametrize("kwargs", [
        {"da": -1.0, "db": 0.0},
        {"da": 0.0, "db": -1.0},
        {"da": 0.0, "db": 0.0, "dx": -0.1},
    ])
    def test_negative_rejected(self, kwargs):
        with pytest.raises(DomainError):
            EndpointData(**kwargs)


UNIT = Interval(0.0, 1.0)
CP2 = make_conjugate(2.0)
# every entry point that takes a derivative magnitude: (parameter name, call)
MAGNITUDE_ENTRY_POINTS = {
    "EndpointData-da": ("da", lambda v: EndpointData(v, 1.0)),
    "EndpointData-db": ("db", lambda v: EndpointData(1.0, v)),
    "EndpointData-dx": ("dx", lambda v: EndpointData(1.0, 1.0, dx=v)),
    "eq11-M": ("M", lambda v: classic_ostrowski_bound(UNIT, 0.5, v)),
    "ee-M": ("M", lambda v: alomari_bound(UNIT, 0.5, 0.5, CP2, v)),
    "eq14-da": ("da", lambda v: baseline_midpoint_bound("eq14", UNIT, CP2, v, 1.0)),
    "eq14-db": ("db", lambda v: baseline_midpoint_bound("eq14", UNIT, CP2, 1.0, v)),
    "eq15-da": ("da", lambda v: baseline_midpoint_bound("eq15", UNIT, CP2, v, 1.0)),
    "eq15-db": ("db", lambda v: baseline_midpoint_bound("eq15", UNIT, CP2, 1.0, v)),
    "eq16-da": ("da", lambda v: baseline_midpoint_bound("eq16", UNIT, CP2, v, 1.0)),
    "eq16-db": ("db", lambda v: baseline_midpoint_bound("eq16", UNIT, CP2, 1.0, v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(MAGNITUDE_ENTRY_POINTS))
def test_magnitude_rejected_naming_its_parameter(entry, value):
    name, call = MAGNITUDE_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=rf"^{name} must be a finite magnitude >= 0, got"):
        call(value)


class TestFunction1D:
    def test_call_and_deriv(self):
        fn = Function1D(f=lambda t: t * t, df=lambda t: 2 * t, label="sq")
        assert fn(3.0) == 9.0
        assert fn.deriv(3.0) == 6.0

    def test_arrays_keep_their_shape_and_constants_broadcast(self):
        fn = Function1D(f=lambda t: t * t, df=lambda t: 0.0)
        t = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(fn(t), t * t)
        assert np.array_equal(fn.deriv(t), np.zeros((2, 3)))
        assert fn.deriv(3.0) == 0.0

    def test_missing_derivative(self):
        fn = Function1D(f=lambda t: t, label="plain")
        with pytest.raises(DomainError, match="derivative"):
            fn.deriv(0.0)


class TestBoundResult:
    def test_valid(self):
        r = BoundResult(0.25, "t20", {"a": 0.0})
        assert r.value == 0.25
        assert r.inputs == {"a": 0.0}

    @pytest.mark.parametrize("value", [-1e-300, math.nan, math.inf])
    def test_invalid_value(self, value):
        with pytest.raises(DomainError):
            BoundResult(value, "t20")


class TestVerificationRecord:
    def test_holds_semantics(self):
        tol = 1e-12
        exact = VerificationRecord.check(1.0, 1.0, tol, "eq")
        assert exact.holds and exact.margin == 0.0
        at_slack = VerificationRecord.check(1.0 + tol, 1.0, tol, "slack")
        assert at_slack.holds
        beyond = VerificationRecord.check(1.0 + 2 * tol, 1.0, tol, "fail")
        assert not beyond.holds
        assert beyond.margin == pytest.approx(-2 * tol)

    def test_tol_recorded_in_context(self):
        rec = VerificationRecord.check(0.0, 1.0, 1e-9, "ctx")
        assert "tol=1e-09" in rec.context and rec.context.startswith("ctx")


class TestValidateEvalPoint:
    def test_inside_and_boundary(self):
        iv = Interval(0.0, 1.0)
        assert validate_eval_point(iv, 0.5) == 0.5
        assert validate_eval_point(iv, 0.0) == 0.0
        assert validate_eval_point(iv, 1.0) == 1.0

    def test_outside(self):
        with pytest.raises(DomainError, match="outside"):
            validate_eval_point(Interval(0.0, 1.0), 1.5)
