"""The five bound families: frozen values, reduction identities, symmetry,
and oracle domination on the built-in function set.

Expected numbers were recomputed in 50-digit arithmetic before being frozen
here; equality checks between algebraically identical forms run at relative
1e-12.
"""

import dataclasses
import itertools
import math
import zlib
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ostrowski.bounds import (
    THEOREMS,
    Theorem,
    bound_holder_global,
    bound_holder_hadamard,
    bound_holder_split,
    bound_power_mean,
    bound_sconvex_abs,
    evaluate,
    kernel_moment_bracket,
    midpoint_e5,
    midpoint_power_mean,
    midpoint_sconvex_abs,
)
from ostrowski.core import (
    ConjugatePair,
    DomainError,
    EndpointData,
    Function1D,
    Interval,
    make_conjugate,
)
from ostrowski.kernel import alomari_bound, baseline_midpoint_bound, classic_ostrowski_bound
from ostrowski.means import means_gap_bound
from ostrowski.quadrature import Partition, certified_integrate, midpoint_error_bound
from ostrowski.toolkit import (
    check_sconvex,
    make_breckner,
    parse_function_spec,
    reference_integrate,
)

UNIT = Interval(0.0, 1.0)
ONES = EndpointData(1.0, 1.0)
ONES_DX = EndpointData(1.0, 1.0, dx=1.0)


def proof_form_bracket(r: float, s: float) -> float:
    """Asymmetric bracket from the derivation: s r^(s+2) - (s+2)(1-r) r^(s+1) + 1.

    Test oracle only; algebraically identical to kernel_moment_bracket.
    """
    return s * r ** (s + 2.0) - (s + 2.0) * (1.0 - r) * r ** (s + 1.0) + 1.0


class TestSconvexAbs:
    def test_midpoint_s1_matches_eq14(self):
        res = bound_sconvex_abs(UNIT, 0.5, 1.0, ONES)
        assert res.value == pytest.approx(0.25, rel=1e-12)
        eq14 = baseline_midpoint_bound("eq14", UNIT, None, 1.0, 1.0)
        assert res.value == pytest.approx(eq14.value, rel=1e-12)

    def test_off_center(self):
        res = bound_sconvex_abs(UNIT, 0.3, 1.0, EndpointData(0.0, 2.0))
        assert res.value == pytest.approx(0.2793333333333333, rel=1e-12)
        # dominates the oracle deviation of t^2 at the same point
        fn = parse_function_spec("poly:0,0,1")
        deviation = abs(fn(0.3) - reference_integrate(fn, UNIT, 1e-12))
        assert deviation == pytest.approx(0.2433333333333333, abs=1e-10)
        assert deviation <= res.value

    def test_fractional_s(self):
        res = bound_sconvex_abs(UNIT, 0.5, 0.5, ONES)
        assert res.value == pytest.approx(0.34477152501692066, rel=1e-12)

    def test_negative_interval_rejected(self):
        with pytest.raises(DomainError):
            bound_sconvex_abs(Interval(-1.0, 1.0), 0.0, 1.0, ONES)

    def test_x_outside(self):
        with pytest.raises(DomainError):
            bound_sconvex_abs(UNIT, 2.0, 1.0, ONES)


class TestMidpointSconvexAbs:
    def test_s1(self):
        assert midpoint_sconvex_abs(UNIT, 1.0, ONES).value == pytest.approx(
            0.25, rel=1e-12
        )

    def test_fractional_s_matches_general_form(self):
        res = midpoint_sconvex_abs(UNIT, 0.5, ONES)
        assert res.value == pytest.approx(0.34477152501692066, rel=1e-12)
        general = bound_sconvex_abs(UNIT, 0.5, 0.5, ONES)
        assert res.value == pytest.approx(general.value, rel=1e-12)

    def test_zero_derivatives(self):
        assert midpoint_sconvex_abs(UNIT, 0.5, EndpointData(0.0, 0.0)).value == 0.0


class TestBracketForms:
    def test_statement_equals_proof_form(self):
        rs = np.linspace(0.0, 1.0, 1001)
        for s in np.arange(0.1, 1.01, 0.1):
            s = float(s)
            for r in rs:
                r = float(r)
                assert abs(
                    kernel_moment_bracket(r, s) - proof_form_bracket(r, s)
                ) <= 1e-12

    def test_bracket_positive(self):
        # minimum over [0,1] is 1 - 2^-(s+1) > 0, attained at r = 1/2
        for s in (0.25, 0.5, 1.0):
            rs = np.linspace(0.0, 1.0, 201)
            vals = [kernel_moment_bracket(float(r), s) for r in rs]
            assert min(vals) >= 1.0 - 2.0 ** -(s + 1.0) - 1e-12


class TestHolderSplit:
    def test_midpoint_matches_eq15(self):
        cp = make_conjugate(2.0)
        res = bound_holder_split(UNIT, 0.5, 1.0, cp, ONES)
        assert res.value == pytest.approx(0.2886751345948129, rel=1e-12)
        eq15 = baseline_midpoint_bound("eq15", UNIT, cp, 1.0, 1.0)
        assert res.value == pytest.approx(eq15.value, rel=1e-12)

    def test_right_endpoint(self):
        res = bound_holder_split(UNIT, 1.0, 1.0, make_conjugate(2.0), ONES)
        assert res.value == pytest.approx(0.5773502691896258, rel=1e-12)

    def test_endpoint_symmetry(self):
        cp = make_conjugate(2.0)
        left = bound_holder_split(UNIT, 0.0, 1.0, cp, ONES)
        right = bound_holder_split(UNIT, 1.0, 1.0, cp, ONES)
        assert left.value == pytest.approx(right.value, rel=1e-12)


class TestHolderHadamard:
    def test_midpoint(self):
        res = bound_holder_hadamard(UNIT, 0.5, 1.0, make_conjugate(2.0), ONES_DX)
        assert res.value == pytest.approx(0.2886751345948129, rel=1e-12)

    def test_uniform_magnitudes_collapse_to_alomari(self):
        # da = dx = db = M recovers the uniform-derivative bound exactly
        for m in (0.5, 1.0, 3.0):
            for x in (0.0, 0.25, 0.5, 0.9):
                for s in (0.25, 1.0):
                    cp = make_conjugate(2.0)
                    ep = EndpointData(m, m, dx=m)
                    lhs = bound_holder_hadamard(UNIT, x, s, cp, ep).value
                    rhs = alomari_bound(UNIT, x, s, cp, m).value
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_right_endpoint_mixed(self):
        res = bound_holder_hadamard(
            UNIT, 1.0, 1.0, make_conjugate(2.0), EndpointData(1.0, 2.0, dx=2.0)
        )
        assert res.value == pytest.approx(0.9128709291752769, rel=1e-12)

    def test_missing_dx(self):
        with pytest.raises(DomainError, match="dx"):
            bound_holder_hadamard(UNIT, 0.5, 1.0, make_conjugate(2.0), ONES)


class TestMidpointE5:
    def test_p2(self):
        res = midpoint_e5(UNIT, make_conjugate(2.0), ONES)
        assert res.value == pytest.approx(0.2886751345948129, rel=1e-12)

    def test_p3(self):
        res = midpoint_e5(UNIT, make_conjugate(3.0), ONES)
        assert res.value == pytest.approx(0.3149802624737183, rel=1e-12)

    def test_zero(self):
        assert midpoint_e5(UNIT, make_conjugate(2.0), EndpointData(0, 0)).value == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 10.0])
    def test_sharper_than_eq16_by_exact_factor(self, p):
        cp = make_conjugate(p)
        for da, db in ((1.0, 1.0), (0.3, 2.5), (0.0, 1.0)):
            e5 = midpoint_e5(UNIT, cp, EndpointData(da, db)).value
            eq16 = baseline_midpoint_bound("eq16", UNIT, cp, da, db).value
            assert e5 == pytest.approx(4.0 ** (-1.0 / p) * eq16, rel=1e-12)


class TestHolderGlobal:
    def test_midpoint_closed_form(self):
        res = bound_holder_global(UNIT, 0.5, 1.0, make_conjugate(2.0), ONES)
        assert res.value == pytest.approx(0.2886751345948129, rel=1e-12)
        # at the midpoint with p=q=2 the closed form (b-a)/2 sqrt((da^2+db^2)/6)
        for da, db in ((1.0, 1.0), (0.5, 2.0)):
            got = bound_holder_global(
                UNIT, 0.5, 1.0, make_conjugate(2.0), EndpointData(da, db)
            ).value
            closed = 0.5 * ((da**2 + db**2) / 6.0) ** 0.5
            assert got == pytest.approx(closed, rel=1e-12)

    def test_left_endpoint(self):
        res = bound_holder_global(UNIT, 0.0, 1.0, make_conjugate(2.0), ONES)
        assert res.value == pytest.approx(0.5773502691896258, rel=1e-12)

    def test_off_center_value(self):
        # frozen from 50-digit evaluation of the stated formula
        res = bound_holder_global(UNIT, 0.25, 1.0, make_conjugate(2.0), ONES)
        assert res.value == pytest.approx(0.3818813079129867, rel=1e-12)

    def test_position_form_matches_only_at_midpoint(self):
        # the p=q=2 "quarter plus offset" form uses (lam^2+mu^2)/2 where the
        # stated bound has lam^3+mu^3; the two differ by (1-2*lam)^2/2, so
        # they agree exactly at the midpoint and the stated bound is the
        # larger one everywhere else
        def position_form(iv, x, s, da, db):
            width = iv.width
            bracket = 0.25 + ((x - iv.midpoint) / width) ** 2
            return (
                width / 3.0**0.5 * bracket**0.5 * ((da**2 + db**2) / (s + 1.0)) ** 0.5
            )

        cp = make_conjugate(2.0)
        mid_stated = bound_holder_global(UNIT, 0.5, 1.0, cp, ONES).value
        assert mid_stated == pytest.approx(position_form(UNIT, 0.5, 1.0, 1, 1), rel=1e-12)
        for x in (0.1, 0.25, 0.75, 0.99):
            stated = bound_holder_global(UNIT, x, 1.0, cp, ONES).value
            assert stated > position_form(UNIT, x, 1.0, 1, 1) + 1e-6


class TestPowerMean:
    def test_midpoint_q2(self):
        # the general bound at the midpoint: inner weights are (1, 2)
        res = bound_power_mean(UNIT, 0.5, 1.0, 2.0, ONES)
        assert res.value == pytest.approx(0.25, rel=1e-12)

    def test_q1_degenerates_to_sconvex_abs(self):
        for x in (0.0, 0.3, 0.5, 1.0):
            for s in (0.25, 0.5, 1.0):
                for ep in (ONES, EndpointData(0.5, 2.0)):
                    pm = bound_power_mean(UNIT, x, s, 1.0, ep).value
                    direct = bound_sconvex_abs(UNIT, x, s, ep).value
                    assert pm == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_zero_derivatives(self):
        assert bound_power_mean(UNIT, 0.3, 0.5, 2.0, EndpointData(0, 0)).value == 0.0

    def test_q_below_one_rejected(self):
        with pytest.raises(DomainError):
            bound_power_mean(UNIT, 0.5, 1.0, 0.9, ONES)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_non_finite_q_rejected(self, q):
        # at q = inf the formula gave 0.29 at x = 0.3, against 0.579 at q = 300
        ep = EndpointData(1.0, 2.0)
        with pytest.raises(DomainError, match="finite q"):
            bound_power_mean(UNIT, 0.3, 0.5, q, ep)
        with pytest.raises(DomainError, match="finite q"):
            midpoint_power_mean(UNIT, q, ep)

    def test_midpoint_weaker_companion_dominates(self):
        # the separately stated midpoint form carries weights (1, 3) and is
        # therefore an upper bound for the general bound at the midpoint,
        # with equality only when both derivative values vanish
        for q in (1.0, 2.0, 4.0):
            for ep in (ONES, EndpointData(0.5, 2.0), EndpointData(0.0, 1.0)):
                general = bound_power_mean(UNIT, 0.5, 1.0, q, ep).value
                stated = midpoint_power_mean(UNIT, q, ep).value
                assert general <= stated + 1e-15


class TestMidpointPowerMean:
    def test_q2(self):
        res = midpoint_power_mean(UNIT, 2.0, ONES)
        assert res.value == pytest.approx(0.2886751345948129, rel=1e-12)

    def test_q1_literal(self):
        res = midpoint_power_mean(UNIT, 1.0, ONES)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero(self):
        assert midpoint_power_mean(UNIT, 2.0, EndpointData(0, 0)).value == 0.0


ALL_BOUNDS = ("t20", "teo1", "t21", "z", "t22")


def evaluate_bound(tag, iv, x, s, p, ep):
    if tag == "t20":
        return bound_sconvex_abs(iv, x, s, ep).value
    if tag == "teo1":
        return bound_holder_split(iv, x, s, make_conjugate(p), ep).value
    if tag == "t21":
        return bound_holder_hadamard(iv, x, s, make_conjugate(p), ep).value
    if tag == "z":
        return bound_holder_global(iv, x, s, make_conjugate(p), ep).value
    if tag == "t22":
        return bound_power_mean(iv, x, s, make_conjugate(p).q, ep).value
    raise AssertionError(tag)


class TestDomination:
    """Oracle deviation never exceeds any applicable bound."""

    @pytest.mark.parametrize("family_s", [0.25, 0.5, 0.75, 1.0])
    def test_breckner_sweep(self, family_s):
        from ostrowski.core import Function1D

        fn = make_breckner(0.0, 1.0, 0.0, family_s)
        iv = Interval(0.5, 2.0)
        mean = reference_integrate(fn, iv, 1e-12 * iv.width) / iv.width

        def scaled(t, e=family_s):
            return e * t ** (e - 1.0)  # |f'| on an interval away from 0

        for s in (0.25, 0.5, 0.75, 1.0):
            # the bounds assume |f'| (and |f'|^q) s-convex; verify by grid
            # falsification before asserting domination
            gate = check_sconvex(Function1D(f=scaled), s, iv, 11)
            assert gate.is_consistent, (family_s, s, gate.witness)
            for p in (1.5, 2.0, 4.0):
                q = make_conjugate(p).q
                gate_q = check_sconvex(Function1D(f=lambda t: scaled(t) ** q), s, iv, 11)
                assert gate_q.is_consistent, (family_s, s, q)
                for x in np.linspace(iv.a, iv.b, 11):
                    x = float(x)
                    deviation = abs(fn(x) - mean)
                    ep = EndpointData(
                        da=abs(fn.deriv(iv.a)),
                        db=abs(fn.deriv(iv.b)),
                        dx=abs(fn.deriv(x)),
                    )
                    for tag in ALL_BOUNDS:
                        bound = evaluate_bound(tag, iv, x, s, p, ep)
                        assert deviation <= bound + 1e-9, (tag, family_s, s, p, x)

    @pytest.mark.parametrize("spec", ["poly:0,1", "poly:0,0,1", "poly:0,1,1"])
    def test_polynomial_sweep(self, spec):
        fn = parse_function_spec(spec)
        mean = reference_integrate(fn, UNIT, 1e-12)
        for s in (0.25, 0.5, 0.75, 1.0):
            for p in (1.5, 2.0, 4.0):
                for x in np.linspace(0.0, 1.0, 11):
                    x = float(x)
                    deviation = abs(fn(x) - mean)
                    ep = EndpointData(
                        da=abs(fn.deriv(0.0)),
                        db=abs(fn.deriv(1.0)),
                        dx=abs(fn.deriv(x)),
                    )
                    for tag in ALL_BOUNDS:
                        bound = evaluate_bound(tag, UNIT, x, s, p, ep)
                        assert deviation <= bound + 1e-9, (tag, spec, s, p, x)


class TestReflectionSymmetry:
    @given(
        a=st.floats(min_value=0.0, max_value=5.0),
        width=st.floats(min_value=0.1, max_value=10.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
        s=st.floats(min_value=0.05, max_value=1.0),
        p=st.floats(min_value=1.1, max_value=8.0),
        da=st.floats(min_value=0.0, max_value=4.0),
        db=st.floats(min_value=0.0, max_value=4.0),
        dx=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_all_bounds(self, a, width, frac, s, p, da, db, dx):
        iv = Interval(a, a + width)
        x = iv.a + frac * iv.width
        x_ref = iv.a + (1.0 - frac) * iv.width
        ep = EndpointData(da, db, dx=dx)
        ep_ref = EndpointData(db, da, dx=dx)
        for tag in ALL_BOUNDS:
            v = evaluate_bound(tag, iv, x, s, p, ep)
            v_ref = evaluate_bound(tag, iv, x_ref, s, p, ep_ref)
            assert v == pytest.approx(v_ref, rel=1e-10, abs=1e-13), tag


class TestContinuityInX:
    def test_no_jumps(self):
        # adjacent differences stay within a Lipschitz budget and shrink
        # roughly linearly with the grid spacing, which rules out any
        # fixed-size discontinuity
        ep = EndpointData(0.7, 1.3, dx=0.9)
        s, p = 0.5, 2.0
        for tag in ALL_BOUNDS:
            diffs = {}
            for h in (1e-3, 1e-4):
                xs = np.arange(0.0, 1.0 + h / 2, h)
                vals = np.array(
                    [evaluate_bound(tag, UNIT, float(x), s, p, ep) for x in xs]
                )
                assert np.all(np.isfinite(vals))
                diffs[h] = float(np.max(np.abs(np.diff(vals))))
                assert diffs[h] <= 100.0 * h, tag
            # a genuine jump would keep the max difference constant
            assert diffs[1e-4] <= 0.2 * diffs[1e-3] + 1e-15, tag


class TestValidation:
    def test_all_require_nonnegative_interval(self):
        neg = Interval(-1.0, 1.0)
        cp = make_conjugate(2.0)
        with pytest.raises(DomainError):
            bound_sconvex_abs(neg, 0.0, 1.0, ONES)
        with pytest.raises(DomainError):
            bound_holder_split(neg, 0.0, 1.0, cp, ONES)
        with pytest.raises(DomainError):
            bound_holder_hadamard(neg, 0.0, 1.0, cp, ONES_DX)
        with pytest.raises(DomainError):
            bound_holder_global(neg, 0.0, 1.0, cp, ONES)
        with pytest.raises(DomainError):
            bound_power_mean(neg, 0.0, 1.0, 2.0, ONES)
        with pytest.raises(DomainError):
            midpoint_sconvex_abs(neg, 1.0, ONES)
        with pytest.raises(DomainError):
            midpoint_e5(neg, cp, ONES)
        with pytest.raises(DomainError):
            midpoint_power_mean(neg, 2.0, ONES)

    @given(
        frac=st.floats(min_value=0.0, max_value=1.0),
        s=st.floats(min_value=0.01, max_value=1.0),
        p=st.floats(min_value=1.01, max_value=20.0),
        da=st.floats(min_value=0.0, max_value=10.0),
        db=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_values_finite_nonnegative(self, frac, s, p, da, db):
        # BoundResult construction enforces this; the property is that
        # construction never fails for valid inputs, endpoints included
        iv = Interval(0.0, 3.0)
        x = iv.a + frac * iv.width
        ep = EndpointData(da, db, dx=0.5 * (da + db))
        for tag in ALL_BOUNDS:
            value = evaluate_bound(tag, iv, x, s, p, ep)
            assert np.isfinite(value) and value >= 0.0


# ----------------------------------------------------------------------
# scaled brackets: (alpha u^q + beta v^q)^(1/q) at extreme magnitudes and q
# ----------------------------------------------------------------------

def _bracket_bounds(iv, x, s, cp, da, dx, db):
    """Every bound with a Hoelder or power-mean bracket, by tag; t22 and
    t22-mid take the conjugate q of cp as their exponent."""
    ep, ep_dx = EndpointData(da, db), EndpointData(da, db, dx)
    return {
        "teo1": bound_holder_split(iv, x, s, cp, ep).value,
        "t21": bound_holder_hadamard(iv, x, s, cp, ep_dx).value,
        "z": bound_holder_global(iv, x, s, cp, ep).value,
        "t22": bound_power_mean(iv, x, s, cp.q, ep).value,
        "t22-mid": midpoint_power_mean(iv, cp.q, ep).value,
        "eq15": baseline_midpoint_bound("eq15", iv, cp, da, db).value,
    }


def _magnitudes(rng, n, lo, hi):
    """n magnitudes log-uniform in [lo, hi], about one in ten of them 0."""
    mags = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)
    mags[rng.random(n) < 0.1] = 0.0
    return mags.tolist()


def _bracket_mp(mp, weights, mags, q):
    """(sum_i w_i m_i^q)^(1/q) in mpmath, from the double inputs."""
    total = sum(mp.mpf(w) * mp.mpf(m) ** q for w, m in zip(weights, mags))
    return total ** (1 / q) if total else mp.mpf(0)


def _bracket_bounds_mp(mp, iv, x, s, cp, da, dx, db):
    """The displayed formulas of :func:`_bracket_bounds`, in mpmath from the
    same double inputs and the same double offsets."""
    a, b, w = mp.mpf(iv.a), mp.mpf(iv.b), mp.mpf(iv.width)
    lam, mu = (mp.mpf(r) for r in ((iv.b - x) / iv.width, (x - iv.a) / iv.width))
    s, p, q = mp.mpf(s), mp.mpf(cp.p), mp.mpf(cp.q)
    holder = (p + 1) ** (-1 / p)
    c1 = {r: r ** (s + 2) / (s + 2) for r in (lam, mu)}
    c2 = {r: c1[r] - r ** (s + 1) / (s + 1) + 1 / ((s + 1) * (s + 2)) for r in (lam, mu)}
    mid = _bracket_mp(mp, (1, 3), (da, db), q) + _bracket_mp(mp, (3, 1), (da, db), q)
    return {
        "teo1": w * holder * (s + 1) ** (-1 / q) * (
            lam ** (1 + 1 / p) * _bracket_mp(mp, (lam ** (s + 1), 1 - mu ** (s + 1)), (da, db), q)
            + mu ** (1 + 1 / p) * _bracket_mp(mp, (1 - lam ** (s + 1), mu ** (s + 1)), (da, db), q)
        ),
        "t21": holder / w * (s + 1) ** (-1 / q) * (
            (b - mp.mpf(x)) ** 2 * _bracket_mp(mp, (1, 1), (dx, db), q)
            + (mp.mpf(x) - a) ** 2 * _bracket_mp(mp, (1, 1), (da, dx), q)
        ),
        "z": w * holder * (lam ** (p + 1) + mu ** (p + 1)) ** (1 / p)
        * (s + 1) ** (-1 / q) * _bracket_mp(mp, (1, 1), (da, db), q),
        "t22": w * mp.mpf(0.5) ** (1 - 1 / q) * (
            lam ** (2 * (1 - 1 / q)) * _bracket_mp(mp, (c1[lam], c2[mu]), (da, db), q)
            + mu ** (2 * (1 - 1 / q)) * _bracket_mp(mp, (c2[lam], c1[mu]), (da, db), q)
        ),
        "t22-mid": w / 8 * mp.mpf(3) ** (-1 / q) * mid,
        "eq15": w / 16 * (4 / (p + 1)) ** (1 / p) * mid,
    }


class TestScaledBrackets:
    """Each bracket is scaled by its own largest magnitude before the q-th
    powers are taken; raw powers over- or underflowed for q in the
    thousands (p near 1)."""

    @pytest.mark.parametrize("k", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    def test_homogeneous_in_the_magnitudes(self, k):
        # scaling by a power of two is exact, and so is every step after it
        rng = np.random.default_rng(17)
        for _ in range(250):
            iv = Interval(0.0, rng.uniform(0.5, 4.0))
            x = rng.uniform(iv.a, iv.b) if rng.random() < 0.8 else rng.choice((iv.a, iv.b))
            s = rng.uniform(0.05, 1.0)
            cp = make_conjugate(1.0 + 10.0 ** rng.uniform(math.log10(1.0 / 4999.0), 1.5))
            mags = _magnitudes(rng, 3, 1e-3, 1e3)
            scaled = [k * m for m in mags]
            want = _bracket_bounds(iv, float(x), s, cp, *mags)
            got = _bracket_bounds(iv, float(x), s, cp, *scaled)
            for tag, value in want.items():
                assert got[tag] == k * value, (tag, iv, x, s, cp, mags)

    @pytest.mark.parametrize("k", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    @pytest.mark.parametrize("variant", ["p5", "p6"])
    def test_composite_error_bound_homogeneous(self, k, variant):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = Partition(np.sort(rng.uniform(0.0, 2.0, 17)))
            dvals = np.array(_magnitudes(rng, 17, 1e-3, 1e3))
            q = float(10.0 ** rng.uniform(0.0, math.log10(5000.0)))
            want = midpoint_error_bound(d, dvals, variant, q=q)
            assert midpoint_error_bound(d, k * dvals, variant, q=q) == k * want

    def test_power_mean_at_large_q_against_50_digits(self):
        # the raw powers 0.5^2000 underflowed, and the bound came out as 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            # x at the midpoint of [0, 1], s = 1/2, q = 2000, da = db = 1/2:
            # lam = mu = 1/2 and the two terms of the bound are equal
            s, q, r = Decimal("0.5"), Decimal(2000), Decimal("0.5")
            c1 = r ** (s + 2) / (s + 2)
            c2 = c1 - r ** (s + 1) / (s + 1) + 1 / ((s + 1) * (s + 2))
            term = r ** (2 * (1 - 1 / q)) * ((c1 + c2) * r**q) ** (1 / q)
            exact = r ** (1 - 1 / q) * 2 * term
        got = bound_power_mean(UNIT, 0.5, 0.5, 2000.0, EndpointData(0.5, 0.5)).value
        assert abs(Decimal(got) - exact) <= 4 * Decimal(math.ulp(got))

    def test_extreme_inputs_against_mpmath(self):
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(5)
        with mp.workprec(140):  # about 40 digits
            for _ in range(500):
                a = rng.uniform(0.0, 2.0)
                iv = Interval(a, a + rng.uniform(0.5, 2.0))
                x = float(rng.uniform(iv.a, iv.b))
                s = rng.uniform(0.05, 1.0)
                cp = make_conjugate(1.0 + 10.0 ** rng.uniform(-7.0, math.log10(49.0)))
                mags = _magnitudes(rng, 3, 1e-300, 1e300)
                got = _bracket_bounds(iv, x, s, cp, *mags)
                want = _bracket_bounds_mp(mp, iv, x, s, cp, *mags)
                for tag, value in got.items():
                    if want[tag] == 0:
                        assert value == 0.0, (tag, iv, x, s, cp, mags)
                        continue
                    err = float(abs(mp.mpf(value) - want[tag]) / want[tag])
                    assert err <= 4e-15, (tag, err, iv, x, s, cp, mags)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_records(self):
        assert tuple(THEOREMS) == (
            "t20", "t20-mid", "teo1", "t21", "e5", "z", "t22", "t22-mid",
            "eq11", "ee", "eq14", "eq15", "eq16",
        )
        kinds = {"x", "s", "p", "q", "da", "db", "dx", "M"}
        derived = {"width", "lam", "mu"}
        for tag, theorem in THEOREMS.items():
            assert theorem.tag == tag
            assert set(theorem.inputs) <= kinds, tag
            assert set(theorem.reads) <= kinds | derived, tag
            # position enters only through the width and the offsets of x
            assert not set(theorem.reads) & {"a", "b", "x"}, tag
            # and a formula reads nothing it is not given
            given = set(theorem.inputs) | {"width"}
            if "x" in given:
                given |= {"lam", "mu"}
            assert set(theorem.reads) <= given, tag
            # Theorem.bound finds the width it scales in the first place
            assert theorem.reads[0] == "width", tag

    def test_unread_input_is_checked_by_its_kind(self):
        assert evaluate("eq14", UNIT, da=1.0, db=1.0, s=1.0, x=0.5).value == 0.25
        for bad in ({"s": 5.0}, {"x": 2.0}, {"q": 0.5}, {"dx": -1.0}, {"M": math.nan}):
            with pytest.raises(DomainError):
                evaluate("eq14", UNIT, da=1.0, db=1.0, **bad)

    def test_the_pairs_own_q_is_used(self):
        # 1/3 + 1/1.5000000000001 is 1 within the pair's 1e-12 tolerance
        cp = ConjugatePair(3.0, 1.5000000000001)
        got = evaluate("teo1", UNIT, x=0.3, s=0.5, p=cp, q=2.0, da=1.0, db=2.0)
        assert got.inputs["q"] == cp.q
        assert got.value == bound_holder_split(UNIT, 0.3, 0.5, cp, EndpointData(1.0, 2.0)).value
        # t22 takes no p, so the q given is the one it reads
        got = evaluate("t22", UNIT, x=0.3, s=0.5, p=cp, q=2.0, da=1.0, db=2.0)
        assert got.inputs["q"] == 2.0

    @pytest.mark.parametrize("tag", list(THEOREMS))
    def test_subnormal_width_keeps_its_bits(self, tag):
        # every formula is b - a times a factor free of it, so on a width of
        # 7 subnormal units the bound is the one on that interval scaled up
        # by 2**600, scaled back exactly: quartering or offsetting the
        # subnormal width rounded off its low bits
        unit = math.ldexp(1.0, -1074)
        for x in (0.0, 3.0, 7.0):
            got, wide = (
                evaluate(tag, Interval(0.0, 7.0 * u), x=x * u, s=0.5, p=make_conjugate(3.0),
                         q=2.0, da=1e300, db=3e299, dx=7e299, M=1e300).value
                for u in (unit, math.ldexp(unit, 600)))
            assert got > 2.0**-1020, (tag, x)
            assert got.hex() == math.ldexp(wide, -600).hex(), (tag, x)

    @pytest.mark.parametrize("tag", list(THEOREMS))
    def test_homogeneous_in_the_magnitudes(self, tag):
        # every formula is degree 1 in da, db, dx and M together, so scaling
        # them all by a power of two in the normal range scales the bound by
        # exactly that power; at 2**-1000 evaluate scales them up first
        rng = np.random.default_rng(29)
        for _ in range(40):
            iv = Interval(0.0, float(rng.uniform(0.5, 4.0)))
            x = float(rng.choice([iv.a, iv.b, rng.uniform(iv.a, iv.b)]))
            given = dict(x=x, s=float(rng.uniform(0.05, 1.0)), p=make_conjugate(float(rng.uniform(1.1, 5.0))),
                         q=float(rng.uniform(1.0, 4.0)))
            mags = dict(zip(("da", "db", "dx", "M"), rng.uniform(0.1, 10.0, 4).tolist()))
            want = evaluate(tag, iv, **given, **mags).value
            for k in (600, -600, -1000):
                scaled = {key: math.ldexp(m, k) for key, m in mags.items()}
                got = evaluate(tag, iv, **given, **scaled)
                assert got.value.hex() == math.ldexp(want, k).hex(), (tag, k, iv, given, mags)
                # the inputs are echoed as given
                assert {key: got.inputs[key] for key in scaled if key in got.inputs} == {
                    key: scaled[key] for key in THEOREMS[tag].inputs if key in scaled}

    @pytest.mark.parametrize("tag", list(THEOREMS))
    def test_bound_scales_row_by_row(self, tag):
        # one array call mixes normal rows with rows of a width below 2**-960,
        # rows of magnitudes below 2**-960, rows of both, and rows where only
        # da is tiny (the first magnitude of every theorem that reads it); each
        # scaled row is the bound at its inputs times 2**600, scaled back, each
        # other row the bare formula's
        theorem = THEOREMS[tag]
        rng = np.random.default_rng(16)
        n = 50
        kind = np.arange(n) % 5
        narrow, tiny = np.isin(kind, (1, 3)), np.isin(kind, (2, 3))
        lam = rng.uniform(0.0, 1.0, n)
        lam[:10] = np.repeat([0.0, 1.0], 5)
        p = rng.uniform(1.1, 5.0, n)
        values = {
            "width": np.where(narrow, 10.0 ** rng.uniform(-323.0, -290.0, n), 10.0 ** rng.uniform(0.0, 300.0, n)),
            "lam": lam, "mu": 1.0 - lam, "s": rng.uniform(0.05, 1.0, n), "p": p, "q": p / (p - 1.0),
        }
        for key in ("da", "db", "dx", "M"):
            values[key] = np.where(tiny | ((kind == 4) & (key == "da")),
                                   10.0 ** rng.uniform(-323.5, -290.0, n),
                                   10.0 ** np.where(narrow, rng.uniform(200.0, 300.0, n), rng.uniform(-3.0, 3.0, n)))
        given = {key: value.copy() for key, value in values.items()}
        got = theorem.bound(values)
        for key, value in given.items():
            assert np.array_equal(values[key], value), (tag, key)
        bare = theorem.formula(**{key: values[key] for key in theorem.reads})
        for i in range(n):
            row = {key: value[i : i + 1] for key, value in values.items()}
            if narrow[i]:
                row["width"] = np.ldexp(row["width"], 600)
            if tiny[i]:
                row.update({key: np.ldexp(row[key], 600) for key in ("da", "db", "dx", "M")})
            want = math.ldexp(float(theorem.bound(row)[0]), -600 * int(narrow[i] + tiny[i]))
            if not narrow[i] | tiny[i]:
                assert want == bare[i], (tag, i)
            assert float(got[i]).hex() == want.hex(), (tag, i, kind[i])
        # the scaled rows are not all 0
        assert got[kind == 2].min() > 0.0 and got[kind == 1].min() > 0.0, tag

    def test_zero_magnitude_without_a_small_row_leaves_the_block_unscaled(self):
        # a zero |f'| at the first node sends the block past the fast gate, but
        # no row's largest magnitude is small: the block is the bare formula
        rng = np.random.default_rng(17)
        da, db = rng.uniform(0.5, 2.0, 8192), rng.uniform(0.5, 2.0, 8192)
        da[0] = 0.0
        values = {"width": 1.0 / 8192, "p": 2.0, "q": 2.0, "da": da, "db": db}
        got = THEOREMS["e5"].bound(values)
        want = THEOREMS["e5"].formula(1.0 / 8192, 2.0, da, db)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
        # and the formula is handed the caller's arrays, not scaled copies
        seen = []

        def e5(width, p, da, db):
            seen.append((width, da, db))
            return THEOREMS["e5"].formula(width, p, da, db)

        Theorem("probe", ("p", "q", "da", "db"), True, e5).bound(values)
        assert seen[0][0] == 1.0 / 8192 and seen[0][1] is da and seen[0][2] is db

    def test_t21_bracket_of_two_subnormal_magnitudes(self):
        # |f'(b)| = 1 keeps the magnitudes unscaled, and the bracket of the two
        # subnormal ones was clamped at the smallest normal double: (u/c)^1001
        # underflowed and the bound printed 0.0
        mp = pytest.importorskip("mpmath").mp
        cp = make_conjugate(1.001)
        got = bound_holder_hadamard(Interval(0.0, 1e300), 1e300, 1.0, cp,
                                    EndpointData(da=1e-310, dx=1e-310, db=1.0)).value
        with mp.workprec(200):
            # at x = b only the branch over [a, x] remains: (b-a) ((da^q + dx^q)/2)^(1/q) / (p+1)^(1/p)
            P, Q, D = mp.mpf(cp.p), mp.mpf(cp.q), mp.mpf(1e-310)
            want = mp.mpf(1e300) * ((2 * D**Q) / 2) ** (1 / Q) / (P + 1) ** (1 / P)
            assert 0.0 < got and abs(mp.mpf(got) - want) <= 4 * math.ulp(float(want)), (got, want)

    def test_missing_input_named(self):
        with pytest.raises(DomainError, match="t20 requires the input 'x'"):
            evaluate("t20", UNIT, s=1.0, da=1.0, db=1.0)
        with pytest.raises(DomainError, match="eq11 requires the input 'M'"):
            evaluate("eq11", UNIT, x=0.5)


class TestNamedBounds:
    """Theorem tags and the gap, panel and baseline variants share one name
    lookup and one exponent policy: every exponent given is checked by its
    kind, whether the bound reads it or not."""

    def test_unknown_tag_lists_the_tags(self):
        # a bare KeyError before
        with pytest.raises(DomainError, match="unknown theorem tag 'nope'; expected one of") as err:
            evaluate("nope", UNIT, da=1.0, db=1.0)
        assert all(repr(tag) in str(err.value) for tag in THEOREMS)

    @pytest.mark.parametrize("call,message", [
        (lambda: means_gap_bound(1.0, 2.0, 0.5, "p9"),
         "unknown gap bound variant 'p9'; expected one of ('p1', 'p2', 'p3')"),
        (lambda: midpoint_error_bound(Partition.uniform(UNIT, 2), [1.0] * 3, "p9"),
         "unknown error-bound variant 'p9'; expected one of ('p4', 'p5', 'p6')"),
        (lambda: baseline_midpoint_bound("eq99", UNIT, None, 1.0, 1.0),
         "unknown midpoint baseline 'eq99'; expected one of ('eq14', 'eq15', 'eq16')"),
    ], ids=["gap", "panel", "baseline"])
    def test_unknown_variant_named(self, call, message):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message

    def test_float_p_is_made_a_conjugate_pair(self):
        # an AttributeError before
        kw = {"x": 0.3, "s": 0.5, "da": 1.0, "db": 2.0}
        got = evaluate("z", UNIT, p=2.0, **kw)
        want = evaluate("z", UNIT, p=make_conjugate(2.0), **kw)
        assert got.value.hex() == want.value.hex()
        assert got.inputs == want.inputs
        with pytest.raises(DomainError, match="p must be finite"):
            evaluate("eq14", UNIT, p=math.nan, da=1.0, db=1.0)

    @pytest.mark.parametrize("call", [
        lambda: midpoint_error_bound(Partition.uniform(UNIT, 2), [1.0] * 3, "p4", p=2.0, q=math.inf),
        lambda: means_gap_bound(1.0, 2.0, 0.5, "p1", q=math.nan),
        lambda: means_gap_bound(1.0, 2.0, 0.5, "p3", p=math.inf, q=2.0),
    ], ids=["p4-q", "p1-q", "p3-p"])
    def test_unread_exponent_checked(self, capsys, call):
        # each returned a bound before
        with pytest.raises(DomainError, match="finite"):
            call()
        assert capsys.readouterr().out == ""

    def test_fixed_exponent_given_is_checked_after_the_first_block(self, capsys):
        # p5 fixes p = q = 2; a NaN p given doubled to the panel budget before
        points = []
        fn = parse_function_spec("poly:0,0,1")
        counted = Function1D(f=fn.f, df=lambda t: points.append(np.size(t)) or fn.df(t))
        with pytest.raises(DomainError, match="finite"):
            certified_integrate(counted, UNIT, 1e-3, "p5", p=math.nan)
        assert points == []
        assert capsys.readouterr().out == ""

    def test_exponent_checked_before_the_first_block_magnitudes(self):
        d = Partition.uniform(UNIT, 2)
        with pytest.raises(DomainError, match="p must be finite"):
            midpoint_error_bound(d, [math.nan, 1.0, 1.0], "p4", p=math.nan)
        with pytest.raises(DomainError, match="derivative magnitudes"):
            midpoint_error_bound(d, [math.nan, 1.0, 1.0], "p4", p=2.0)

    def test_missing_exponent_named(self):
        with pytest.raises(DomainError, match="variant p4 requires the exponent p"):
            midpoint_error_bound(Partition.uniform(UNIT, 2), [1.0] * 3, "p4", q=2.0)
        with pytest.raises(DomainError, match="variant p3 requires the exponent q"):
            means_gap_bound(1.0, 2.0, 0.5, "p3", p=2.0)


# ----------------------------------------------------------------------
# |f'| near the largest double: the bound is finite, and so is its value
# ----------------------------------------------------------------------

BIG = 1.7e308


def kernel_moment_bracket_s1(r: Fraction) -> Fraction:
    return 4 * r**3 - 3 * r**2 + 1


def assert_near(got: float, exact: Fraction, ulps: int = 4) -> None:
    assert math.isfinite(got)
    assert abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(float(exact))), (got, exact)


class TestNearTheTopOfTheRange:
    @pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_t20(self, x):
        got = bound_sconvex_abs(UNIT, x, 1.0, EndpointData(BIG, BIG / 2)).value
        lam, mu = 1 - Fraction(x), Fraction(x)
        exact = (kernel_moment_bracket_s1(lam) * Fraction(BIG)
                 + kernel_moment_bracket_s1(mu) * Fraction(BIG / 2)) / 6
        assert_near(got, exact)

    def test_t20_mid(self):
        got = midpoint_sconvex_abs(UNIT, 1.0, EndpointData(BIG, BIG)).value
        assert_near(got, Fraction(1, 6) * Fraction(3, 4) * 2 * Fraction(BIG))

    def test_eq14(self):
        got = baseline_midpoint_bound("eq14", UNIT, None, BIG, BIG).value
        assert_near(got, Fraction(BIG) / 4, ulps=0)

    def test_eq16(self):
        # p = 3 makes (4/(p+1))^(1/p) exactly 1
        got = baseline_midpoint_bound("eq16", UNIT, make_conjugate(3.0), BIG, BIG).value
        assert_near(got, Fraction(BIG) / 2, ulps=0)

    def test_scaling_keeps_the_bits_in_the_normal_range(self):
        # the halved and quartered sums round as the plain sums did
        rng = np.random.default_rng(12)
        for _ in range(200):
            iv = Interval(0.0, float(rng.uniform(0.1, 10.0)))
            x, s = float(rng.uniform(0.0, iv.b)), float(rng.uniform(0.05, 1.0))
            da, db = 10.0 ** rng.uniform(-300.0, 300.0, 2)
            lam, mu = (iv.b - x) / iv.width, x / iv.width
            plain = (iv.width / ((s + 1.0) * (s + 2.0))
                     * (kernel_moment_bracket(lam, s) * da + kernel_moment_bracket(mu, s) * db))
            assert bound_sconvex_abs(iv, x, s, EndpointData(da, db)).value == plain
            mid = iv.width / ((s + 1.0) * (s + 2.0)) * (1.0 - 2.0 ** -(s + 1.0)) * (da + db)
            assert midpoint_sconvex_abs(iv, s, EndpointData(da, db)).value == mid
            assert baseline_midpoint_bound("eq14", iv, None, da, db).value == (
                iv.width / 4.0 * (da + db) / 2.0)
            cp = make_conjugate(float(rng.uniform(1.1, 5.0)))
            assert baseline_midpoint_bound("eq16", iv, cp, da, db).value == (
                iv.width / 4.0 * (4.0 / (cp.p + 1.0)) ** (1.0 / cp.p) * (da + db))

    @pytest.mark.parametrize("x,factor", [(1.0, Fraction(1, 2)), (0.0, 1), (0.5, Fraction(5, 8))])
    def test_eq11(self, x, factor):
        # M (b-a) overflowed before the factor (lam^2 + mu^2)/2 <= 1/2 applied
        got = classic_ostrowski_bound(Interval(0.0, 2.0), x, BIG).value
        assert_near(got, Fraction(BIG) * factor, ulps=1)

    def test_eq11_keeps_the_bits_in_the_normal_range(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            iv = Interval(0.0, float(10.0 ** rng.uniform(-150.0, 150.0)))
            x, m = float(rng.uniform(0.0, iv.b)), float(10.0 ** rng.uniform(-150.0, 150.0))
            lam, mu = (iv.b - x) / iv.width, x / iv.width
            plain = m * iv.width * (lam**2 + mu**2) / 2.0
            assert classic_ostrowski_bound(iv, x, m).value.hex() == plain.hex()


class TestWideIntervals:
    """t21, ee and eq11 read position through the width and the offsets
    lam, mu in [0, 1], never through squared lengths, so scaling the
    interval by a power of two scales the bound by exactly that power, and
    the bound is accurate wherever it and the width are normal doubles."""

    @staticmethod
    def bound(tag, s, p):
        cp = make_conjugate(p)
        if tag == "t21":
            ep = EndpointData(da=0.75, db=1.25, dx=0.5)
            return lambda b, x: bound_holder_hadamard(Interval(0.0, b), x, s, cp, ep).value
        return lambda b, x: alomari_bound(Interval(0.0, b), x, s, cp, 3.0).value

    @pytest.mark.parametrize("tag", ["t21", "ee"])
    @pytest.mark.parametrize("k", [512, 513, 600, 1020])
    def test_scaled_formula_on_wide_intervals(self, tag, k):
        rng = np.random.default_rng(k)
        for _ in range(50):
            b = float(rng.uniform(1.0, 1.99))
            x = float(rng.choice([0.0, b, rng.uniform(0.0, b)]))
            bound = self.bound(tag, float(rng.uniform(0.1, 1.0)), float(rng.uniform(1.1, 5.0)))
            wide = bound(math.ldexp(b, k), math.ldexp(x, k))
            # scaling the interval by 2**513 scales the bound by exactly 2**513
            assert wide.hex() == math.ldexp(bound(math.ldexp(b, k - 513), math.ldexp(x, k - 513)), 513).hex()
            # and the value is the narrow interval's bound, scaled up, to a few ulps
            assert wide == pytest.approx(math.ldexp(bound(b, x), k), rel=8e-16)

    def test_accurate_at_every_width(self):
        # the squared lengths (b-x)^2 underflowed below a width of about
        # 1e-154, and t21 and ee came out 0 or short of bits
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(15)
        widths = [math.ldexp(1.0, 512) * (1.0 - 2.0**-53)] + (
            10.0 ** rng.uniform(-100.0, 100.0, 500)).tolist() + (
            10.0 ** rng.uniform(-300.0, -100.0, 500)).tolist()
        with mp.workprec(200):
            for b in widths:
                iv = Interval(0.0, b)
                x = float(rng.choice([0.0, b, rng.uniform(0.0, b)]))
                s, cp = float(rng.uniform(0.05, 1.0)), make_conjugate(float(rng.uniform(1.1, 5.0)))
                # magnitudes that keep every bound a normal double
                low = 0.0 if b < 1e-100 else -100.0
                da, dx, db, m = (float(v) for v in 10.0 ** rng.uniform(low, 100.0, 4))
                B, X, S, P, Q = (mp.mpf(v) for v in (b, x, s, cp.p, cp.q))
                kp = (P + 1) ** (1 / P)
                want = {
                    "t21": ((B - X) ** 2 * (((dx**Q + db**Q) / (S + 1)) ** (1 / Q))
                            + X**2 * (((da**Q + dx**Q) / (S + 1)) ** (1 / Q))) / (B * kp),
                    "ee": m / kp * (2 / (S + 1)) ** (1 / Q) * (X**2 + (B - X) ** 2) / B,
                    "eq11": m * (X**2 + (B - X) ** 2) / (2 * B),
                }
                got = {
                    "t21": bound_holder_hadamard(iv, x, s, cp, EndpointData(da=da, db=db, dx=dx)).value,
                    "ee": alomari_bound(iv, x, s, cp, m).value,
                    "eq11": classic_ostrowski_bound(iv, x, m).value,
                }
                for tag, value in got.items():
                    ulps = abs(mp.mpf(value) - want[tag]) / math.ulp(float(want[tag]))
                    assert ulps <= 6, (tag, float(ulps), b, x, s, cp, da, dx, db, m)

    @pytest.mark.parametrize("b,x,s,mags", [
        # |f'| near the largest double on a narrow interval: lam^2 c B alone overflows
        (0.5, 0.0, 0.1, (1.7e308, 1.7e308, 1.7e308)),
        # mu = 1e-200 and a bracket scale 1e600 times the other: mu^2 underflows to 0
        (1e100, 1e-100, 1.0, (1e300, 1e-300, 1e-300)),
        # subnormal |f'| on a wide interval: lam^2 times the scale underflows to 0
        (1e300, 5e299, 1.0, (5e-324, 5e-324, 5e-324)),
    ])
    def test_t21_products_stay_in_range(self, b, x, s, mags):
        mp = pytest.importorskip("mpmath").mp
        cp = make_conjugate(2.0)
        da, dx, db = mags
        got = bound_holder_hadamard(Interval(0.0, b), x, s, cp, EndpointData(da=da, db=db, dx=dx)).value
        with mp.workprec(200):
            B, X, S = mp.mpf(b), mp.mpf(x), mp.mpf(s)
            want = ((B - X) ** 2 * mp.sqrt((mp.mpf(dx) ** 2 + mp.mpf(db) ** 2) / (S + 1))
                    + X**2 * mp.sqrt((mp.mpf(da) ** 2 + mp.mpf(dx) ** 2) / (S + 1))) / (B * mp.sqrt(3))
            assert abs(mp.mpf(got) - want) <= 4 * math.ulp(float(want)), (got, want)


# The two-power bracket algorithm, as the registry held it before every
# bracket took _max_power's one power per row, and the six bracket formulas
# on it: the reference the registry must match bit for bit.

_LEAST = 2.0**-1074


def _scaled_powers(u, v, q):
    """(c, (u/c)^q, (v/c)^q), c = max(u, v) elementwise, or 2**-1074 where both are 0."""
    if isinstance(u, float) and isinstance(v, float):
        c = u if u >= v and u >= _LEAST else v if v >= _LEAST else _LEAST
    else:
        c = np.maximum(u, v)
        np.maximum(c, _LEAST, out=c)
    return c, (u / c) ** q, (v / c) ** q


def _holder_split_two_powers(width, lam, mu, s, p, q, da, db):
    c, daq, dbq = _scaled_powers(da, db, q)
    term_low = lam ** (1.0 + 1.0 / p) * (
        lam ** (s + 1.0) * daq + (1.0 - mu ** (s + 1.0)) * dbq
    ) ** (1.0 / q)
    term_high = mu ** (1.0 + 1.0 / p) * (
        (1.0 - lam ** (s + 1.0)) * daq + mu ** (s + 1.0) * dbq
    ) ** (1.0 / q)
    return width * c / (p + 1.0) ** (1.0 / p) / (s + 1.0) ** (1.0 / q) * (term_low + term_high)


def _holder_hadamard_two_powers(width, lam, mu, s, p, q, da, dx, db):
    c_high, dxq, dbq = _scaled_powers(dx, db, q)
    c_low, daq, dxq_low = _scaled_powers(da, dx, q)
    kp = (p + 1.0) ** (1.0 / p)
    high = lam * width * (((dxq + dbq) / (s + 1.0)) ** (1.0 / q) / kp)
    low = mu * width * (((daq + dxq_low) / (s + 1.0)) ** (1.0 / q) / kp)
    return lam * c_high * high + mu * c_low * low


def _holder_global_two_powers(width, lam, mu, s, p, q, da, db):
    c, daq, dbq = _scaled_powers(da, db, q)
    return (
        width
        / (p + 1.0) ** (1.0 / p)
        * (lam ** (p + 1.0) + mu ** (p + 1.0)) ** (1.0 / p)
        * c * ((daq + dbq) / (s + 1.0)) ** (1.0 / q)
    )


def _power_mean_two_powers(width, lam, mu, s, q, da, db):
    c1_lam, c1_mu = lam ** (s + 2.0) / (s + 2.0), mu ** (s + 2.0) / (s + 2.0)
    tail = 1.0 / ((s + 1.0) * (s + 2.0))
    c2_lam = np.maximum(0.0, c1_lam - lam ** (s + 1.0) / (s + 1.0) + tail)
    c2_mu = np.maximum(0.0, c1_mu - mu ** (s + 1.0) / (s + 1.0) + tail)
    c, daq, dbq = _scaled_powers(da, db, q)
    exp_out = 2.0 * (1.0 - 1.0 / q)
    term_low = lam**exp_out * (c1_lam * daq + c2_mu * dbq) ** (1.0 / q)
    term_high = mu**exp_out * (c1_mu * dbq + c2_lam * daq) ** (1.0 / q)
    return width * c * 0.5 ** (1.0 - 1.0 / q) * (term_low + term_high)


def _power_mean_mid_two_powers(width, q, da, db):
    c, daq, dbq = _scaled_powers(da, db, q)
    return (
        width
        / 8.0
        * (1.0 / 3.0) ** (1.0 / q) * c
        * ((daq + 3.0 * dbq) ** (1.0 / q) + (3.0 * daq + dbq) ** (1.0 / q))
    )


def _eq15_two_powers(width, p, q, da, db):
    c, daq, dbq = _scaled_powers(da, db, q)
    inner = (daq + 3.0 * dbq) ** (1.0 / q) + (3.0 * daq + dbq) ** (1.0 / q)
    return width / 16.0 * (4.0 / (p + 1.0)) ** (1.0 / p) * c * inner


#: each bracket theorem and its two-power reference, with the same scaling
#: of narrow widths and small magnitudes by Theorem.bound
TWO_POWERS = {
    tag: (THEOREMS[tag], dataclasses.replace(THEOREMS[tag], formula=formula))
    for tag, formula in (("teo1", _holder_split_two_powers),
                         ("t21", _holder_hadamard_two_powers),
                         ("z", _holder_global_two_powers),
                         ("t22", _power_mean_two_powers),
                         ("t22-mid", _power_mean_mid_two_powers),
                         ("eq15", _eq15_two_powers))
}

#: magnitudes: zeros, subnormals, the scaling threshold 2**-960 of
#: Theorem.bound on either side, ordinary values and the top of the range
SPECIAL_MAGNITUDES = (0.0, 5e-324, 1e-320, 2.0**-1022, 2.0**-961, 2.0**-960, 1e-300,
                      1e-154, 0.3, 1.0, 3.0, 1e154, 1e300, 1.7976931348623157e308)


def _bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


class TestOnePowerBrackets:
    """Every bracket takes one power per row where the two-power form took
    two; every bit, sign of zero included, is the two-power form's."""

    @staticmethod
    def values(width, q, da, db, dx, lam=0.5):
        return {"width": width, "lam": lam, "mu": 1.0 - lam, "s": 0.7, "p": 2.5, "q": q,
                "da": da, "db": db, "dx": dx}

    @pytest.mark.parametrize("tag", TWO_POWERS)
    @pytest.mark.parametrize("q", [1.0, 1.0000001, 1.5, 2.0, 3.0, 40.0])
    @pytest.mark.parametrize("width", [1e-310, 2.0**-961, 1e-300, 1.0, 2.5, 1e300])
    def test_arrays_bit_for_bit(self, tag, q, width):
        rng = np.random.default_rng(zlib.crc32(repr((tag, q, width)).encode()))
        n = 4000
        da = np.where(rng.random(n) < 0.3, rng.choice(SPECIAL_MAGNITUDES, n),
                      10.0 ** rng.uniform(-323.0, 307.0, n))
        db = np.where(rng.random(n) < 0.3, rng.choice(SPECIAL_MAGNITUDES, n), da * rng.uniform(0.0, 1.0, n))
        swap = rng.random(n) < 0.5
        da[swap], db[swap] = db[swap], da[swap].copy()
        db[::5] = da[::5]  # equal pairs
        da[1::7] = db[1::7] = 0.0  # rows of two zeros
        dx = np.where(rng.random(n) < 0.3, da, rng.permutation(db))  # t21's middle magnitude
        lam = np.where(rng.random(n) < 0.2, rng.choice([0.0, 1.0], n), rng.random(n))
        one, two = TWO_POWERS[tag]
        with np.errstate(over="ignore", invalid="ignore"):
            got = one.bound(self.values(width, q, da, db, dx, lam))
            want = two.bound(self.values(width, q, da, db, dx, lam))
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("tag", TWO_POWERS)
    @pytest.mark.parametrize("q", [1.0, 1.0000001, 1.5, 2.0, 3.0, 40.0])
    def test_floats_bit_for_bit(self, tag, q):
        # every pair of special magnitudes, each sign of zero, and seeded
        # pairs: a row of two -0.0 keeps the two-power form's sign of zero;
        # t21's dx runs through the special magnitudes too
        rng = np.random.default_rng(int(q * 10))
        special = SPECIAL_MAGNITUDES + (-0.0,)
        middles = special if tag == "t21" else (1.0,)
        triples = list(itertools.product(special, special, middles))
        triples += [(u, v, 1.0) for u, v in zip(10.0 ** rng.uniform(-323.0, 307.0, 500),
                                                10.0 ** rng.uniform(-323.0, 307.0, 500))]
        one, two = TWO_POWERS[tag]
        for width, lam in ((1e-310, 0.3), (1.0, 0.0), (1.0, 0.3), (1.0, 1.0), (1e300, 0.3)):
            for u, v, w in triples:
                outcome = []
                for theorem in (one, two):
                    try:
                        outcome.append(_bits(theorem.bound(self.values(width, q, float(u), float(v), w, lam))))
                    except OverflowError:
                        outcome.append("overflow")
                assert outcome[0] == outcome[1], (tag, q, width, lam, u, v, w)

    def test_q_grid_of_the_sweep_with_float_magnitudes(self):
        # run_sweep feeds float |f'| values and an array of q, one per p
        p = np.array([1.5, 2.0, 3.0, 40.0])
        q = np.array([make_conjugate(v).q for v in p])
        for da, db in ((0.0, 0.0), (0.0, 2.0), (1.5, 0.5), (2.0, 2.0), (1e-320, 3e-321), (-0.0, -0.0)):
            values = {"width": 1.5, "lam": np.array([[0.0], [0.3], [1.0]]), "mu": np.array([[1.0], [0.7], [0.0]]),
                      "s": np.array([0.25, 1.0])[:, None, None], "p": p, "q": q, "da": da, "db": db, "dx": db}
            for tag, (one, two) in TWO_POWERS.items():
                assert np.array_equal(_bits(one.bound(values)), _bits(two.bound(values))), (tag, da, db)


def exact(tag, values):
    """THEOREMS[tag] at the named values, each read exactly from its double,
    in 200-bit mpmath arithmetic; the registry formula itself runs, so no
    test restates it. Skips the calling test without mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.mp.workprec(200):
        return THEOREMS[tag].bound({key: mpmath.mpf(value) for key, value in values.items()})


class TestExactArithmetic:
    @pytest.mark.parametrize("tag", THEOREMS)
    def test_every_formula_runs_on_mpf_and_agrees_with_its_double(self, tag):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(zlib.crc32(tag.encode()))
        for _ in range(100):
            lam = float(rng.random())
            cp = make_conjugate(float(1.0 + 10.0 ** rng.uniform(-1.0, 1.5)))
            values = {"width": float(10.0 ** rng.uniform(-3.0, 3.0)), "lam": lam, "mu": 1.0 - lam,
                      "s": float(rng.uniform(0.05, 1.0)), "p": cp.p, "q": cp.q,
                      **{key: float(10.0 ** rng.uniform(-3.0, 3.0)) for key in ("da", "db", "dx", "M")}}
            got, want = THEOREMS[tag].bound(values), exact(tag, values)
            assert isinstance(want, mpmath.mpf)
            with mpmath.mp.workprec(200):
                ulps = abs(mpmath.mpf(got) - want) / math.ulp(float(want))
            assert ulps <= 8, (tag, values, got, want)
