"""Composite midpoint rule, its certified error bounds, and the refinement
loop."""

import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostrowski import quadrature

from ostrowski.core import (
    ConvergenceError,
    DomainError,
    Function1D,
    Interval,
    make_conjugate,
)
from ostrowski.bounds import (
    _e5,
    _holder_global,
    _power_mean_mid,
    bound_holder_global,
    midpoint_e5,
    midpoint_power_mean,
)
from ostrowski.core import EndpointData
from ostrowski.quadrature import (
    Partition,
    QuadReport,
    _check_uniform,
    _exceeds,
    _fsum,
    _slices,
    _uniform_blocks,
    certified_integrate,
    composite_midpoint,
    midpoint_error_bound,
)
from ostrowski.toolkit import (
    ORACLE_EPSREL,
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

    def test_evaluator_overflow_raises_overflow_error(self):
        # f(2) overflows inside the evaluator; its numpy warning was the
        # first thing printed
        fn = Function1D(f=lambda t: t * 1e308)
        with pytest.raises(OverflowError, match="overflowed double precision"):
            composite_midpoint(fn, Partition.uniform(Interval(0.0, 4.0), 1))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_from_the_evaluator_raises_overflow_error(self, bad):
        # the evaluator returns inf or NaN itself, so no numpy overflow fires first
        fn = Function1D(f=lambda t: np.where(t < 0.5, bad, t))
        with pytest.raises(OverflowError, match="^a composite midpoint term is not finite$"):
            composite_midpoint(fn, Partition.uniform(UNIT, 4))


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
            outcomes.append((fn(x.copy()).hex(), None))
        except (OverflowError, ValueError) as exc:
            outcomes.append((None, type(exc)))
    return outcomes


FSUM_SIZES = (0, 1, 2, 3, 255, 256, 257, 511, 513, 1023, 1025, 4095, 4097, 2**17)

#: values per extraction block in _fsum
FB = quadrature._FSUM_BLOCK


def fsum_outcome_and_message(fn, x: np.ndarray):
    """(hex result, None) or (exception type, message) of fn(a copy of x),
    fn being _fsum or math.fsum."""
    try:
        return (fn(x.copy() if fn is _fsum else x.tolist()).hex(), None)
    except (OverflowError, ValueError) as exc:
        return (type(exc), str(exc))


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


def near_tie(rng, n: int, top: int, side: float):
    """(x, its exact sum): n values whose exact sum is a rounding midpoint
    plus side * 2**(top - 99) (2**-1074 where that is smaller; top >= -1000,
    so that the doubles around the sum are more than 2**-1074 apart): half
    of them in [2**top, 2**(top + 1)), the rest in [0, 2**(top - 36)) with
    their low bits set: they pass whole into the first step's remainders,
    whose numpy sums then grow with the block and round, by far more than
    the distance to the midpoint."""
    fine = max(top - 86, -1074)
    x = np.concatenate([
        rng.uniform(1.0, 2.0, n // 2) * 2.0**top,
        rng.integers(0, 2**50, n - n // 2 - 2) * 2.0**fine,
        [0.0, 0.0],
    ])
    total = exact_sum(x.tolist())
    below = float(total)
    if below > total:
        below = math.nextafter(below, -math.inf)
    middle = (Fraction(below) + Fraction(math.nextafter(below, math.inf))) / 2
    x[-2] = float(middle - total)
    assert Fraction(x[-2]) == middle - total  # a multiple of 2**fine below 2**(top - 36)
    x[-1] = side * 2.0 ** max(top - 99, -1074)
    rng.shuffle(x)
    return x, middle + Fraction(side * 2.0 ** max(top - 99, -1074))


def fsum_calls(monkeypatch, x: np.ndarray):
    """(_fsum(x), the number of math.fsum calls it made): 2 where the first
    extraction step decides the rounding, 3 where the extraction goes on."""
    calls = []
    monkeypatch.setattr(math, "fsum", lambda v, fsum=math.fsum: calls.append(len(v)) or fsum(v))
    try:
        return _fsum(x), len(calls)
    finally:
        monkeypatch.undo()


class TestFsum:
    @pytest.mark.parametrize("kind", ["positive", "signed", "ill-conditioned"])
    def test_rounds_the_exact_sum_as_fsum_does(self, kind):
        rng = np.random.default_rng(8)
        for n in FSUM_SIZES:
            x = fsum_data(kind, n, rng)
            got = _fsum(x.copy())
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
        assert _fsum(x.copy()) == math.fsum(x.tolist()) == 3.0 + 2.0**-51

    def test_rounding_errors_that_are_not_all_zero_after_one_pass(self):
        # errors of errors survive the second pass for data this wide
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.choice([1.0, -1.0], 4097) * 2.0 ** rng.integers(-1000, 1000, 4097)
            assert _fsum(x.copy()) == math.fsum(x.tolist()) == float(exact_sum(x.tolist()))

    def test_signed_zeros(self):
        for n in (1000, 1001):
            for x in (np.full(n, -0.0), np.zeros(n)):
                assert _fsum(x.copy()).hex() == math.fsum(x.tolist()).hex()

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

    @pytest.mark.parametrize("n", [FB - 1, FB, FB + 1, 2 * FB + 1, 2**19])
    @pytest.mark.parametrize("kind", ["positive", "signed", "ill-conditioned"])
    def test_sizes_around_the_extraction_block(self, kind, n):
        x = fsum_data(kind, n, np.random.default_rng(n))
        assert _fsum(x.copy()).hex() == math.fsum(x.tolist()).hex()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_full_blocks_of_one_sign(self, sign):
        # sigma + x below sigma leaves parts that are multiples of
        # 2**-53 sigma, and a block of them sums to nearly block size * 2**e:
        # numpy adds them exactly only while that stays within sigma (with
        # 2**M four times too small, 5 of the 40 negative arrays go wrong;
        # positive ones land above sigma, on a grid twice as coarse)
        rng = np.random.default_rng(17)
        for _ in range(40):
            x = sign * rng.uniform(0.5, 1.0, 2 * FB + 1)
            assert _fsum(x.copy()).hex() == math.fsum(x.tolist()).hex()

    def test_subnormal_block_beside_a_block_near_1e300(self):
        # the 1e300 block cancels exactly, so the rounded total is the
        # subnormal block's: no extraction step may lose a 2**-1074
        rng = np.random.default_rng(21)
        tiny = rng.integers(-(2**52), 2**52, FB) * 5e-324
        big = rng.uniform(0.5e300, 2e300, FB // 2)
        big = np.concatenate([big, -big])
        rng.shuffle(big)
        for x in (np.concatenate([tiny, big]), np.concatenate([big, tiny])):
            got = _fsum(x.copy())
            assert got.hex() == math.fsum(x.tolist()).hex() == math.fsum(tiny.tolist()).hex()
            assert got == float(exact_sum(x.tolist()))

    @pytest.mark.parametrize("value", [5e-324, -2.5e-310, 1.0, -math.pi, 3.5e300])
    def test_one_value_among_zeros(self, value):
        for where in (0, FB - 1, FB, 2**17 - 1):
            x = np.zeros(2**17)
            x[where] = value
            assert _fsum(x.copy()).hex() == math.fsum(x.tolist()).hex() == value.hex()

    def test_signed_zeros_across_blocks(self):
        n = 2 * FB + 1
        halves = np.where(np.arange(n) < n // 2, 0.0, -0.0)
        alternating = np.where(np.arange(n) % 2, 0.0, -0.0)
        for x in (np.full(n, -0.0), np.zeros(n), halves, alternating, -halves):
            assert _fsum(x.copy()).hex() == math.fsum(x.tolist()).hex()
        # a -0.0 block and blocks that cancel to an exact zero
        x = np.concatenate([np.full(FB, -0.0), np.full(FB, 1.5), np.full(FB, -1.5)])
        assert _fsum(x.copy()).hex() == math.fsum(x.tolist()).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("n", [1000, 4097, FB + 1, 2**17])
    @pytest.mark.parametrize("shape", ["constant", "half-negative", "alternating"])
    def test_just_below_and_at_each_escape(self, monkeypatch, n, shape):
        # the limit is 2**1023 / max(n, 2**M): for n < 2**M the escape keeps
        # sigma finite, for n >= 2**M it keeps math.fsum's partial sums finite
        limit = 2.0**1023 / max(n, 2**quadrature._FSUM_M)
        for top in (math.nextafter(limit, 0.0), limit, 2.0 * limit, np.finfo(float).max):
            x = np.full(n, top)
            if shape == "half-negative":
                x[n // 2 :] = -top
            elif shape == "alternating":
                x[1::2] = -top
            got, want = fsum_outcome_and_message(_fsum, x), fsum_outcome_and_message(math.fsum, x)
            assert got == want, (top, shape)
            lengths = []
            monkeypatch.setattr(math, "fsum", lambda v, fsum=math.fsum: lengths.append(len(v)) or fsum(v))
            fsum_outcome_and_message(_fsum, x)
            monkeypatch.undo()
            # below the limit the whole array is extracted; at it, x goes whole to math.fsum
            assert (lengths[-1] < n) == (top < limit), (top, lengths)
            if n <= 4097 and want[1] is None:
                assert float.fromhex(got[0]) == float(exact_sum(x.tolist()))

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-1e300, max_value=1e300),
                st.floats(min_value=-2.0**-1022, max_value=2.0**-1022),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_tiled_and_shuffled_past_two_blocks(self, values, seed):
        x = np.tile(np.array(values), 2 * FB // len(values) + 1)
        assert x.size > 2 * FB
        np.random.default_rng(seed).shuffle(x)
        assert _fsum(x.copy()).hex() == math.fsum(x.tolist()).hex()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.sampled_from([513, 1000, 4097]),
        st.integers(-1074, 1000),  # the largest exponent: up to near the escape, 2**1023 / 2**16
        st.integers(0, 1100),
        st.sampled_from(["positive", "signed", "cancelling", "tie"]),
        st.integers(0, 2**32 - 1),
    )
    def test_stop_rule_gives_fsum_and_the_exact_sum(self, n, top, spread, kind, seed):
        # the first step's decision, or the extraction after it, against
        # math.fsum and the exact rational sum, at magnitudes across the range
        rng = np.random.default_rng(seed)
        if kind == "tie":
            x, _ = near_tie(rng, n, max(top, -1000), rng.choice([-1.0, 1.0]))
        else:
            x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(max(top - spread, -1074), top + 1, n))
            if kind == "signed":
                x *= rng.choice([-1.0, 1.0], n)
            elif kind == "cancelling":  # pairs that cancel, and one sign for each pair
                x[n // 2 : 2 * (n // 2)] = -x[: n // 2]
                rng.shuffle(x)
        want = math.fsum(x.tolist())
        assert _fsum(x.copy()).hex() == want.hex()
        assert want == float(exact_sum(x.tolist()))

    @pytest.mark.parametrize("top", [-1000, -990, -988, -980, -960, -500, -1, 0, 52, 900, 1000])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_near_ties_are_left_to_the_extraction(self, monkeypatch, top, side):
        # the exact sum lies next to a rounding midpoint, closer than the
        # first step's remainder sums can tell: the stop test does not
        # decide, and the extraction after it rounds to the side the sum is on
        rng = np.random.default_rng(top + 2000)
        for n in (600, 4097) + ((2 * FB + 1,) if top in (-988, 0) else ()):
            x, exact = near_tie(rng, n, top, side)
            got, calls = fsum_calls(monkeypatch, x.copy())
            assert got.hex() == math.fsum(x.tolist()).hex() == float(exact).hex(), (n, top, side)
            assert calls == 3, (n, top, side)

    @pytest.mark.parametrize("seed", range(8))
    def test_near_ties_where_the_remainder_sums_round_in_the_underflow_band(self, monkeypatch, seed):
        # sigma in (2**-1000, 2**-960): 2**-106 sigma underflows to 0, so an
        # error bound formed from it first would be 0, yet the sums of the
        # remainders, below 2**(top - 36) with every low bit, round there;
        # with a zero bound the stop test passes and returns the rounding of
        # the inexact sum, on the wrong side of the midpoint about half the time
        rng = np.random.default_rng(seed)
        top = int(rng.integers(-990, -986))
        sigma = 2.0 ** (top + 1 + quadrature._FSUM_M)
        assert 2.0**-1000 < sigma < 2.0**-960 and math.ldexp(sigma, -106) == 0.0
        for side in (-1.0, 1.0):
            x, exact = near_tie(rng, 4097, top, side)
            got, calls = fsum_calls(monkeypatch, x.copy())
            assert got.hex() == math.fsum(x.tolist()).hex() == float(exact).hex()
            assert calls == 3

    @pytest.mark.parametrize("kind", ["positive", "signed"])
    def test_first_step_decides_ordinary_sums(self, monkeypatch, kind):
        # no second extraction step on the sums a level makes
        rng = np.random.default_rng(4)
        for n in (513, 4097, 2**19):
            x = rng.uniform(0.0, 1.0, n) * (rng.choice([-1.0, 1.0], n) if kind == "signed" else 1.0)
            got, calls = fsum_calls(monkeypatch, x.copy())
            assert (got, calls) == (math.fsum(x.tolist()), 2)

    def test_cancellation_to_zero_and_negative_zero(self, monkeypatch):
        # an exact sum of 0 is never decided by the first step (its bound is
        # at least 2**-1074 on each side): the extraction gives fsum's zero
        rng = np.random.default_rng(6)
        for n in (513, 4097, 2 * FB + 1):
            half = np.ldexp(rng.uniform(0.5, 1.0, n // 2), rng.integers(-1074, 1000, n // 2))
            for x in (np.concatenate([half, -half, np.zeros(n % 2)]),
                      np.concatenate([half, -half, np.full(n % 2, -0.0)]),
                      np.full(n, -0.0)):
                rng.shuffle(x)
                got, calls = fsum_calls(monkeypatch, x.copy())
                assert got.hex() == math.fsum(x.tolist()).hex() == "0x0.0p+0"
                assert calls == 3

    def test_allocates_at_most_one_block_buffer(self):
        x = np.random.default_rng(5).standard_normal(2**17) * 10.0 ** np.arange(-8, 8).repeat(2**13)
        want, got = math.fsum(x.tolist()), []
        assert peak_panel_arrays(lambda: got.append(_fsum(x)), FB) <= 1.05
        assert got == [want]


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


B = quadrature._BLOCK
BLOCK_IV = Interval(0.25, 2.0)
BLOCK_FN = parse_function_spec("breckner:0.3,1.2,0.2,0.6")
BLOCK_VARIANTS = (("p4", {"p": 2.5}), ("p5", {}), ("p6", {"q": 1.0}), ("p6", {"q": 2.3}))


def block_partition(kind: str, n: int) -> Partition:
    if kind == "uniform":
        return Partition.uniform(BLOCK_IV, n)
    rng = np.random.default_rng(n)
    inner = rng.uniform(BLOCK_IV.a, BLOCK_IV.b, n - 1)
    nodes = np.unique(np.concatenate([[BLOCK_IV.a, BLOCK_IV.b], inner]))
    assert len(nodes) == n + 1
    return Partition(nodes)


def whole_array_bound(d: Partition, dv: np.ndarray, variant: str, p=None, q=None) -> float:
    """midpoint_error_bound in one pass over the whole partition."""
    w = np.diff(d.nodes)
    lo, hi = dv[:-1], dv[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "p4":
            per_panel = _e5(w, make_conjugate(p).p, lo, hi)
        elif variant == "p5":
            per_panel = _holder_global(w, 0.5, 0.5, 1.0, 2.0, 2.0, lo, hi)
        else:
            per_panel = _power_mean_mid(w, q, lo, hi)
        return math.fsum((per_panel * w).tolist())


class TestBlocks:
    """Blocked composite_midpoint and midpoint_error_bound against one pass
    over the whole partition: the same bits at and around block boundaries."""

    @pytest.mark.parametrize("kind", ["uniform", "random"])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_same_bits_as_one_pass(self, kind, n):
        d = block_partition(kind, n)
        dv = np.abs(BLOCK_FN.deriv(d.nodes))
        for variant, kw in BLOCK_VARIANTS:
            got = midpoint_error_bound(d, dv, variant, **kw)
            assert got.hex() == whole_array_bound(d, dv, variant, **kw).hex(), (variant, kw)
        mids = 0.5 * (d.nodes[1:] + d.nodes[:-1])
        want = math.fsum((BLOCK_FN(mids) * np.diff(d.nodes)).tolist())
        assert composite_midpoint(BLOCK_FN, d).hex() == want.hex()

    def test_infinite_panel_bound_in_a_later_block(self):
        # the last panel, in the second block, is 1e300 wide: its bound
        # overflows to inf with no numpy warning, as in one pass
        d = Partition(np.append(np.linspace(0.0, 1.0, B + 1), 1e300))
        dv = np.ones(B + 2)
        for variant, kw in BLOCK_VARIANTS:
            got = midpoint_error_bound(d, dv, variant, **kw)
            assert got == whole_array_bound(d, dv, variant, **kw) == math.inf, (variant, kw)


#: negative, far from zero, a subnormal width, and one whose step underflows
#: to 0 from 2,000 panels on, where linspace divides before it multiplies
UNIFORM_IVS = (
    Interval(-3.7, -1.1),
    Interval(1e8, 1e8 + 1.0),
    Interval(-1e300, 1.5e300),
    Interval(-1e-310, 2e-310),
    Interval(0.0, 1000 * 5e-324),
)


def partition_error(call):
    """The message of the DomainError call() raises, or None."""
    try:
        call()
    except DomainError as exc:
        return str(exc)
    return None


class TestUniformBlocks:
    """certified_integrate forms each block of a level's nodes where it reads
    it, and proves or checks the nodes without storing them."""

    @pytest.mark.parametrize("iv", UNIFORM_IVS, ids=lambda iv: f"[{iv.a:g},{iv.b:g}]")
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5, 2**20])
    def test_blocks_are_linspace_bit_for_bit(self, iv, n):
        want = np.linspace(iv.a, iv.b, n + 1)
        got = list(_uniform_blocks(iv, n))
        assert len(got) == len(list(_slices(want)))
        for x, w in zip(got, _slices(want)):
            assert x.tobytes() == w.tobytes()
        # and the nodes are refused, or not, with Partition.uniform's message
        assert partition_error(lambda: _check_uniform(iv, n)) == partition_error(
            lambda: Partition.uniform(iv, n))

    def test_last_interval_takes_the_underflow_branch(self):
        iv = UNIFORM_IVS[-1]
        assert (iv.b - iv.a) / 1999 > 0.0 == (iv.b - iv.a) / 2001

    @given(
        a=st.floats(-1e300, 1e300, allow_subnormal=True),
        steps=st.floats(0.5, 40.0),
        n=st.integers(1, 3000),
    )
    def test_node_proof_never_passes_nodes_the_pass_refuses(self, a, steps, n):
        # steps ulps of |a| per panel: the proof applies above 8 ulps of the
        # larger endpoint, and nodes collide below about 1
        b = a + steps * n * math.ulp(a)
        if not (a < b and math.isfinite(b - a)):
            return
        iv = Interval(a, b)
        assert partition_error(lambda: _check_uniform(iv, n)) == partition_error(
            lambda: Partition.uniform(iv, n))


def peak_panel_arrays(call, n: int) -> float:
    """Peak memory that call() allocates, in units of an n-element float array.
    tracemalloc sees numpy's data buffers as well as Python objects."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / (8 * n)
    finally:
        tracemalloc.stop()


class TestMemory:
    N = 2**16

    @pytest.mark.parametrize("variant,kw", BLOCK_VARIANTS)
    def test_error_bound_peak(self, variant, kw):
        # one per-panel array plus _fsum's buffers (1.25 arrays); one pass
        # took 4 to 8 arrays, depending on the formula
        d = Partition.uniform(BLOCK_IV, self.N)
        dv = np.abs(BLOCK_FN.deriv(d.nodes))
        assert peak_panel_arrays(lambda: midpoint_error_bound(d, dv, variant, **kw), self.N) <= 2.5

    def test_fsum_halves_its_argument_in_place(self):
        # two halving buffers and one error buffer, 1.25 arrays, for terms
        # like a panel sum's; a copy of the argument made it 2.25
        x = np.random.default_rng(5).uniform(0.0, 1.0, self.N)
        want, got = math.fsum(x.tolist()), []
        assert peak_panel_arrays(lambda: got.append(_fsum(x)), self.N) <= 1.5
        assert got == [want]

    def test_uniform_partition_peak_and_nodes(self):
        # linspace's array itself and one boolean check array, no copy
        assert peak_panel_arrays(lambda: Partition.uniform(BLOCK_IV, self.N), self.N) <= 1.5
        nodes = Partition.uniform(BLOCK_IV, 4).nodes
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[1] = 0.5
        # eight panels need nine distinct doubles; [1, 1 + 4e-16] holds three
        with pytest.raises(DomainError, match="strictly increasing"):
            Partition.uniform(Interval(1.0, 1.0 + 4e-16), 8)

    @pytest.mark.parametrize("row,bound", [(6, 1.25), (2, 1.75), (3, 1.75)])
    def test_certify_peak(self, row, bound):
        # the benchmark's 2^19 p4 operation and its 2^17 p5 and p6 ones read
        # 1.13, 1.57 and 1.63 arrays: a level's terms, _fsum's buffers and a
        # block's temporaries. A whole-level node array made them 2.10, 2.50
        # and 2.57
        r = json.loads((Path(__file__).parent / "data" / "certify_hex.json").read_text())[row]
        fn, iv = parse_function_spec(r["spec"]), Interval(r["a"], r["b"])
        n = r["panels"]
        call = lambda: certified_integrate(fn, iv, r["target"], r["variant"], p=r["p"], q=r["q"])
        assert peak_panel_arrays(call, n) <= bound

    def test_constructor_still_copies(self):
        mine = np.array([0.0, 0.5, 1.0])
        d = Partition(mine)
        mine[1] = 0.75
        assert tuple(d.nodes) == (0.0, 0.5, 1.0)
        assert not d.nodes.flags.writeable


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

    def test_infinite_target_is_refused(self):
        # inf passed `not target > 0.0` and certified one panel of t^2 with a bound of 0.41
        with pytest.raises(DomainError, match=r"^target must be a positive real, got inf$"):
            certified_integrate(TSQ, UNIT, math.inf, "p5")

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
        assert levels == []

    def test_variant_resolved_once_per_call(self, monkeypatch):
        # once at entry, not once per doubling level
        calls = []
        resolve = quadrature._variant

        def spy(*args):
            calls.append(args[1])
            return resolve(*args)

        monkeypatch.setattr(quadrature, "_variant", spy)
        assert certified_integrate(TSQ, UNIT, 1e-4, "p4", p=2.0).panels > 1
        assert calls == ["p4"]

    def test_subnormal_derivative_certifies_a_positive_bound(self):
        # |f'| is at most 5e-324 and the one panel 1e300 wide: the quartered
        # |f'| rounded to 0, the bound certified 0.0, and verification warned
        # of a violated certificate, which pyproject makes an error
        fn = parse_function_spec("breckner:0,1e-323,0,0.5")
        report = certified_integrate(fn, Interval(1.0, 1e300), 1e300, "p4", p=2.0, verify=True)
        assert report.panels == 1 and report.certified_ok
        # the panel's width times e5 at |f'(a)| = 2**-1074 and |f'(b)| = 0
        assert report.error_bound == pytest.approx(1e300 * (1e300 * 2.0**-1074) / 4.0 / math.sqrt(3.0), rel=1e-14)

    def test_large_constant_is_judged_at_the_oracles_accuracy(self):
        # the bound of a constant is 0 and the midpoint rule exact; the oracle
        # meets 1e-12 only relatively here, and its reference is off by more
        # than the fixed 1e-9, which warned of a violated certificate
        report = certified_integrate(parse_function_spec("poly:1e7"), UNIT, 1e-3, "p4", p=2.0,
                                     verify=True)
        assert report.error_bound == 0.0 and report.approx == 1e7
        assert 1e-9 < abs(report.true_error) <= report.slack
        assert report.slack == 1e-9 + max(0.0, ORACLE_EPSREL * (report.approx + report.true_error) - 1e-12)
        assert report.certified_ok

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_value_at_the_certified_level_raises_overflow_error(self, bad):
        # |f'| = 1 meets the target at 4 panels, whose midpoints lie below 0.75
        levels = []
        fn = Function1D(f=lambda t: np.where(t < 0.75, bad, t),
                        df=lambda t: levels.append(np.size(t)) or np.ones_like(t))
        with pytest.raises(OverflowError, match="^a composite midpoint term is not finite$"):
            certified_integrate(fn, UNIT, 0.1, "p5")
        assert levels[-1] == 5

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 15: p4-p6 bound each panel from |f'| at its two ends, which "
        "holds only where |f'|^q is convex on the panel; f' is 0 at both ends here"))
    @pytest.mark.parametrize("variant,kw", [("p4", {"p": 2.0}), ("p5", {}), ("p6", {"q": 2.0})])
    def test_bound_covers_the_error_where_f_prime_vanishes_at_both_ends(self, variant, kw):
        # f' = t(1 - t)^2: one panel certifies an error bound of 0.0, and the
        # midpoint rule is off by 0.0072917
        coeffs = (0.0, 0.0, 0.5, -0.6666666666666666, 0.25)
        fn = parse_function_spec("poly:" + ",".join(map(repr, coeffs)))
        report = certified_integrate(fn, UNIT, 1e-12, variant, **kw)
        exact = sum(Fraction(c) / (i + 1) for i, c in enumerate(coeffs))
        assert report.error_bound >= abs(exact - Fraction(report.approx))

    def test_lying_derivative_triggers_warning(self):
        # a derivative evaluator that claims f' == 0 produces a zero bound;
        # verification mode must flag the broken certificate
        liar = Function1D(f=lambda t: t * t, df=lambda t: 0.0, label="liar")
        with pytest.warns(RuntimeWarning, match="certificate violated"):
            report = certified_integrate(liar, UNIT, 1e-6, "p4", p=2.0, verify=True)
        assert report.certified_ok is False


def reference_certify(fn, iv, target, variant, **kw):
    """certified_integrate's doubling loop with the exact bound at every level."""
    n = 1
    while True:
        d = Partition.uniform(iv, n)
        bound = midpoint_error_bound(d, np.abs(fn.deriv(d.nodes)), variant, **kw)
        if bound <= target:
            return composite_midpoint(fn, d), bound, n
        n *= 2


def exceeds_whole(terms: np.ndarray, target: float) -> bool:
    """_exceeds on numpy's sum of all the terms, read as one block."""
    with np.errstate(over="ignore"):  # an inf sum is undecided
        return _exceeds(float(terms.sum()), terms.size, target)


class TestLevelDecision:
    """certified_integrate rejects a level from numpy's sum and a proven
    error bound; the exact sum runs only where that cannot decide."""

    @pytest.mark.parametrize("spec,iv,target,variant,kw", [
        ("poly:0,0,1", UNIT, 3e-5, "p4", {"p": 2.5}),
        ("breckner:0,1,0,0.5", Interval(1e-3, 1.0), 1e-4, "p5", {}),
        ("powabs:2.5", Interval(-1.0, 1.5), 1e-4, "p6", {"q": 1.5}),
        ("poly:0,1", UNIT, 1e-6, "p5", {}),
    ])
    def test_same_bits_as_exact_bound_at_every_level(self, spec, iv, target, variant, kw):
        fn = parse_function_spec(spec)
        report = certified_integrate(fn, iv, target, variant, **kw)
        approx, bound, n = reference_certify(fn, iv, target, variant, **kw)
        assert (report.approx.hex(), report.error_bound.hex(), report.panels) == (
            approx.hex(), bound.hex(), n)

    @pytest.mark.parametrize("variant,kw", [("p4", {"p": 2.0}), ("p5", {}), ("p6", {"q": 3.0})])
    def test_near_tie_target(self, variant, kw):
        # a target of exactly the bound at 256 panels certifies there; the
        # next double below it does not, though numpy's sum may land either side
        fn = parse_function_spec("breckner:0.5,1,0.25,0.5")
        iv = Interval(0.5, 2.0)
        d = Partition.uniform(iv, 256)
        tie = midpoint_error_bound(d, np.abs(fn.deriv(d.nodes)), variant, **kw)
        assert certified_integrate(fn, iv, tie, variant, **kw).panels == 256
        below = certified_integrate(fn, iv, math.nextafter(tie, 0.0), variant, **kw)
        assert below.panels == 512
        assert below.error_bound < tie

    def test_rough_sum_never_claims_a_sum_at_or_below_target(self):
        rng = np.random.default_rng(13)
        tiny = np.finfo(float).tiny
        for n in (1, 2, 3, 100, 4097):
            for scale in (1.0, 1e-300, tiny, 5e-324, 1e300 / n):
                terms = rng.uniform(0.0, 1.0, n) * scale
                exact = exact_sum(terms.tolist())
                total = math.fsum(terms.tolist())
                targets = [total, math.nextafter(total, 0.0), math.nextafter(total, math.inf),
                           total * (1.0 - 1e-9), total * (1.0 - 1e-6), total / 2.0, 5e-324, tiny]
                for target in targets:
                    if target > 0.0 and exceeds_whole(terms, target):
                        assert exact > target and total > target, (n, scale, target)
        # far above a tiny or subnormal target, the rough sum decides
        assert exceeds_whole(np.full(8, 1e-300), 5e-324)
        assert exceeds_whole(np.full(8, 1e-300), 1e-310)

    def test_undecidable_sums_are_left_to_the_exact_sum(self):
        assert not exceeds_whole(np.array([math.inf, 1.0]), 1.0)
        assert not exceeds_whole(np.array([math.nan, 1.0]), 1.0)
        assert not exceeds_whole(np.array([2.0**1023, 1.0]), 1.0)
        assert not exceeds_whole(np.array([1e308, 1e308]), 1.0)  # the rough sum is inf
        assert not exceeds_whole(np.array([1.0]), math.inf)
        # within the margin of gamma_{n-1} above the target
        assert not exceeds_whole(np.full(4, 0.25), math.nextafter(1.0, 0.0))

    def test_exact_sum_past_the_largest_double_still_raises(self):
        # at one panel the bound is inf and the doubling goes on; at two the
        # panel bounds are finite, but their sum is past the largest double
        fn = parse_function_spec("poly:0,1e308")
        with pytest.raises(OverflowError, match="intermediate overflow"):
            certified_integrate(fn, Interval(0.0, 4.07), 1.0, "p4", p=2.0)

    def test_budget_message_carries_the_exact_bound(self, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 64)
        d = Partition.uniform(UNIT, 64)
        exact = midpoint_error_bound(d, tsq_dvals(d), "p4", p=2.0)
        with pytest.raises(ConvergenceError, match=f"still {exact:g} > target"):
            certified_integrate(TSQ, UNIT, 1e-9, "p4", p=2.0)

    def test_subnormal_target(self, monkeypatch):
        fn = parse_function_spec("poly:2.5")  # f' == 0: the bound is 0 at one panel
        assert certified_integrate(fn, UNIT, 5e-324, "p5").panels == 1
        monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 16)
        d = Partition.uniform(UNIT, 16)
        exact = midpoint_error_bound(d, tsq_dvals(d), "p5")
        with pytest.raises(ConvergenceError, match=f"still {exact:g} > target 4.94066e-324"):
            certified_integrate(TSQ, UNIT, 5e-324, "p5")

    def test_exact_sum_runs_at_most_twice(self, monkeypatch):
        calls = []

        def counting(x):
            calls.append(x.size)
            return _fsum(x)

        monkeypatch.setattr(quadrature, "_fsum", counting)
        report = certified_integrate(parse_function_spec("poly:0,1"), UNIT, 1e-6, "p5")
        assert report.panels == 2**19
        # the returned level's bound and composite_midpoint's sum
        assert calls == [2**19, 2**19]


def multi_block_draw(seed: int):
    """An integrand, interval, variant and exponents for one seeded draw, and
    a panel count of 2^14 to 2^17: 2 to 16 blocks at the returned level."""
    rng = random.Random(seed)
    u = rng.uniform
    family = ("poly", "breckner", "powabs")[seed % 3]
    variant = ("p4", "p5", "p6")[seed // 3 % 3]
    if family == "poly":
        coeffs = [u(-2.0, 2.0) for _ in range(3)] + [u(0.5, 2.0) * rng.choice((-1, 1))]
        spec = "poly:" + ",".join(repr(c) for c in coeffs)
        a = u(-1.0, 0.0)
        iv = Interval(a, a + u(1.0, 2.0))
    elif family == "breckner":
        w = u(0.0, 1.0)
        spec = f"breckner:{w + u(0.0, 1.0)!r},{u(0.5, 2.0)!r},{w!r},{u(0.3, 0.9)!r}"
        iv = Interval(u(0.25, 0.5), u(1.5, 2.5))
    else:
        spec = f"powabs:{u(1.5, 3.0)!r}"
        iv = Interval(-u(0.5, 1.5), u(0.5, 1.5))
    kw = {"p4": {"p": u(1.5, 4.0)}, "p5": {}, "p6": {"q": u(1.0, 3.0)}}[variant]
    return parse_function_spec(spec), iv, variant, kw, 2 ** rng.randint(14, 17)


def counting_levels(fn: Function1D, a: float, levels: list) -> Function1D:
    """fn with an f' that appends, per doubling level, the number of nodes it
    evaluates: a level's first call starts at the interval's left end a."""

    def df(t):
        if t[0] == a:
            levels.append(0)
        levels[-1] += t.size
        return fn.df(t)

    return Function1D(f=fn.f, df=df)


def nan_slopes_at_level(n: int, lo: float, hi: float) -> Function1D:
    """|f'| = 1 on [0, 1], except NaN at the nodes in [lo, hi] of the
    n-panel uniform partition, told apart from other levels by its spacing."""

    def df(t):
        at_level = t.size > 1 and t[1] - t[0] == 1.0 / n
        return np.where(at_level & (lo <= t) & (t <= hi), math.nan, 1.0)

    return Function1D(f=lambda t: t, df=df)


#: 2.4 times a block's share of the p5 bound of |f'| = 1 at 2^16 panels on
#: [0, 1]. Every term of a level is the same, so a level of n > B panels is
#: proven after the first k blocks with k B / n * bound(n) above this: one
#: block at 2^14 and 2^15, 3 at 2^16 and 10 of 16 at 2^17. The bound at
#: 2^18 panels, 2/8 of that at 2^16, meets it.
UNIT_SLOPE_TARGET = 2.4 * midpoint_error_bound(
    Partition.uniform(UNIT, 2**16), np.ones(2**16 + 1), "p5") * B / 2**16


#: 2^e and then k copies of three quarters of its ulp: numpy's sum rounds
#: up at each step, so the rough sum overshoots the exact one by about k/4 ulp
UPWARD_ROUNDING = st.builds(
    lambda e, k: [2.0**e] + [0.75 * 2.0 ** (e - 52)] * k, st.integers(-1000, 996), st.integers(1, 39))


class TestBlockedLevels:
    """certified_integrate reads each level one block at a time and stops at
    the first block whose running rough sum proves the level too coarse."""

    def test_benchmark_certify_operations_keep_their_bits(self):
        # the inputs of perfbench's certify rounds at seeds 1 to 5, with the
        # panels and output bits of the whole-level loop that read every block
        rows = json.loads((Path(__file__).parent / "data" / "certify_hex.json").read_text())
        assert len(rows) == 35
        for row in rows:
            fn = parse_function_spec(row["spec"])
            report = certified_integrate(fn, Interval(row["a"], row["b"]), row["target"],
                                         row["variant"], p=row["p"], q=row["q"])
            got = (report.panels, report.approx.hex(), report.error_bound.hex())
            assert got == (row["panels"], row["approx"], row["error_bound"]), row

    @pytest.mark.parametrize("seed", range(30))
    def test_multi_block_levels_keep_the_exact_bits(self, seed):
        fn, iv, variant, kw, n = multi_block_draw(seed)
        d = Partition.uniform(iv, n)
        bound = midpoint_error_bound(d, np.abs(fn.deriv(d.nodes)), variant, **kw)
        # where the benchmark places its targets, and a tie with the bound at n
        for target in (math.sqrt(2.0) * bound, bound):
            report = certified_integrate(fn, iv, target, variant, **kw)
            approx, want, panels = reference_certify(fn, iv, target, variant, **kw)
            assert panels == n
            assert (report.approx.hex(), report.error_bound.hex(), report.panels) == (
                approx.hex(), want.hex(), panels), (seed, target)

    def test_levels_are_evaluated_only_up_to_the_proving_block(self):
        levels = []
        fn = counting_levels(parse_function_spec("poly:0,1"), 0.0, levels)
        report = certified_integrate(fn, UNIT, UNIT_SLOPE_TARGET, "p5")
        assert report.panels == 2**18
        # levels of up to B panels are one block, read whole; the returned
        # level is read whole; the others stop after k blocks, k B + 1 nodes
        whole = [2**k + 1 for k in range(14)]
        assert levels == whole + [B + 1, B + 1, 3 * B + 1, 10 * B + 1, 2**18 + 1]

    def test_nodes_are_checked_before_the_level_is_evaluated(self):
        # the step of 2^20 panels on [1 - 1e-10, 1 + 1e-10], 0.86 ulp of 1,
        # gives equal nodes from block 64 of 128 on; the levels below need
        # the pass too (2^19 panels: 1.7 ulp), and it finds them increasing
        iv = Interval(1.0 - 1e-10, 1.0 + 1e-10)
        nodes = np.linspace(iv.a, iv.b, 2**20 + 1)
        assert np.flatnonzero(nodes[1:] <= nodes[:-1])[0] // B == 64
        levels = []
        fn = counting_levels(parse_function_spec("poly:0,1"), iv.a, levels)
        with pytest.raises(DomainError, match="^partition nodes must be strictly increasing$"):
            certified_integrate(fn, iv, 1e-300, "p5")
        # every level up to 2^19 is proven too coarse by its first block
        assert levels == [2**k + 1 for k in range(14)] + [B + 1] * 6
        assert sum(levels) == 65555

    def test_nan_slope_in_an_unread_block_does_not_raise(self):
        # the 2^15-panel level is proven by its first block, [0, 1/4]
        fn = nan_slopes_at_level(2**15, 0.5, 1.0)
        assert certified_integrate(fn, UNIT, UNIT_SLOPE_TARGET, "p5").panels == 2**18

    def test_derivative_overflow_in_a_read_block_raises_overflow_error(self):
        # |f'| = 3 t^2 overflows in the power at the far node of the one panel
        fn = parse_function_spec("powabs:3")
        with pytest.raises(OverflowError, match="overflowed double precision"):
            certified_integrate(fn, Interval(0.5, 1.7976931348623157e308), 1e-4, "p6", q=2.0)

    def test_nan_slope_in_a_read_block_raises(self):
        fn = nan_slopes_at_level(2**15, 0.0, 0.125)
        with pytest.raises(DomainError, match="^derivative magnitudes must be finite and nonnegative$"):
            certified_integrate(fn, UNIT, UNIT_SLOPE_TARGET, "p5")

    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=40)
        | UPWARD_ROUNDING,
        block=st.integers(1, 8),
        cut=st.integers(1, 40),
        steps=st.integers(-3, 3),
    )
    def test_running_prefix_never_claims_a_sum_at_or_below_target(self, values, block, cut, steps):
        # a target at or beside the correctly rounded sum of some prefix
        target = math.fsum(values[:cut])
        for _ in range(abs(steps)):
            target = math.nextafter(target, math.inf if steps > 0 else 0.0)
        target = max(target, 5e-324)
        x = np.array(values)
        rough = 0.0
        for i in range(0, x.size, block):
            rough += float(x[i : i + block].sum())
            k = min(i + block, x.size)
            if _exceeds(rough, k, target):
                assert exact_sum(values[:k]) > target and math.fsum(values[:k]) > target


class TestQuadReport:
    def test_certified_ok_logic(self):
        assert QuadReport(1.0, 0.5, "p5", 2, true_error=0.4).certified_ok
        assert not QuadReport(1.0, 0.5, "p5", 2, true_error=0.6).certified_ok
        assert QuadReport(1.0, 0.5, "p5", 2).certified_ok is None

    def test_slack_is_added_to_the_bound(self):
        assert QuadReport(1.0, 0.5, "p5", 2, true_error=0.6, slack=0.1).certified_ok
        assert not QuadReport(1.0, 0.5, "p5", 2, true_error=0.6, slack=0.05).certified_ok
        assert QuadReport(1.0, 0.5, "p5", 2).slack == 1e-9
