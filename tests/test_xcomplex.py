import copy
import dataclasses
import math
import pickle
from itertools import accumulate
from operator import mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ratpert import XComplex, mantissa_ulp_gap
from ratpert.xcomplex import (
    _RUN_CHUNK,
    _RUN_MIN,
    _add,
    _affine_raw,
    _affine_run,
    _lane_parts,
    _mul,
    _normalize,
    _parts_lanes,
    _product_run,
    normalize_lanes,
)


def xc(value):
    return XComplex.from_complex(value)


nonzero_complex = st.builds(
    complex,
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
).filter(lambda z: abs(z) > 1e-6)

def _shifted(z: complex, e: int) -> XComplex:
    base = XComplex.from_complex(z)
    return XComplex(base.mantissa, base.exponent + e)


xcomplexes = st.builds(
    _shifted, nonzero_complex, st.integers(min_value=-(10**6), max_value=10**6)
)


class TestNormalization:
    def test_from_complex_modulus_in_base_range(self):
        for value in [1, -4, 3 + 4j, 1e-300, 1e300, 0.7j]:
            x = xc(value)
            assert 1.0 <= abs(x.mantissa) < 2.0

    def test_zero_is_canonical(self):
        x = xc(0)
        assert x.mantissa == 0 and x.exponent == 0 and x.is_zero

    def test_roundtrip(self):
        for value in [1, -4, 3 + 4j, -0.001 + 2j]:
            assert xc(value).to_complex() == pytest.approx(value, rel=0, abs=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            XComplex.from_complex(complex(math.inf, 0))


class TestMul:
    def test_identity(self):
        one = XComplex.one()
        assert one * one == one

    def test_exact_powers_of_base(self):
        p = xc(4) * xc(4)
        assert p.mantissa == 1 and p.exponent == 4

    def test_long_product_closed_form_exponent(self):
        # 10^5 copies of -4: 4**1e5 = 2**(2e5); even count of sign flips
        acc = XComplex.one()
        factor = xc(-4)
        for _ in range(10**5):
            acc = acc * factor
        assert acc.exponent == 2 * 10**5
        assert acc.mantissa == 1.0

    def test_zero_absorbs(self):
        assert (xc(0) * xc(123)).is_zero

    @given(nonzero_complex, nonzero_complex)
    def test_log_magnitude_additive(self, a, b):
        xa, xb = xc(a), xc(b)
        got = (xa * xb).log2_abs()
        assert got == pytest.approx(xa.log2_abs() + xb.log2_abs(), abs=1e-9)

    @given(xcomplexes, xcomplexes, xcomplexes)
    def test_associative_to_a_few_ulp(self, a, b, c):
        # complex multiplication rounds each component, so exact 1-ulp
        # associativity is unattainable; 4 ulp holds with margin
        left = (a * b) * c
        right = a * (b * c)
        assert mantissa_ulp_gap(left, right) <= 4.0
        assert abs(left.exponent - right.exponent) <= 1


class TestAdd:
    def test_additive_identity(self):
        x = xc(3 - 2j)
        assert x + xc(0) == x
        assert xc(0) + x == x

    def test_small_integers(self):
        assert (xc(3) + xc(5)).to_complex() == 8

    def test_swamped_addend_returns_larger_exactly(self):
        one = xc(1)
        tiny = XComplex(1 + 0j, -2000)
        assert one + tiny == one
        assert tiny + one == one

    def test_cancellation_renormalizes(self):
        a = xc(1 + 0j)
        b = XComplex(-(1 + 2**-40) + 0j, 0)
        s = a + b
        assert not s.is_zero
        assert 1.0 <= abs(s.mantissa) < 2.0
        assert s.to_complex() == pytest.approx(-(2.0**-40), rel=1e-12)

    def test_exact_cancellation_gives_zero(self):
        x = xc(5 - 3j)
        assert (x + -x).is_zero

    @given(nonzero_complex, nonzero_complex)
    def test_matches_plain_complex(self, a, b):
        got = xc(a) + xc(b)
        want = a + b
        if want == 0:
            assert got.is_zero or abs(got.to_complex()) < 1e-9
        else:
            assert got.to_complex() == pytest.approx(want, rel=1e-12)


class TestDivision:
    def test_reciprocal(self):
        x = xc(-4)
        assert (x.reciprocal() * x).to_complex() == pytest.approx(1.0)

    def test_reciprocal_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            xc(0).reciprocal()

    @given(nonzero_complex, nonzero_complex)
    def test_div_matches_complex(self, a, b):
        got = (xc(a) / xc(b)).to_complex()
        assert got == pytest.approx(a / b, rel=1e-12)


class TestConversions:
    def test_magnitude_underflow_is_zero(self):
        assert XComplex(1 + 0j, -100000).magnitude() == 0.0

    def test_magnitude_overflow_is_inf(self):
        assert XComplex(1 + 0j, 100000).magnitude() == math.inf

    def test_to_complex_overflow_raises(self):
        with pytest.raises(OverflowError):
            XComplex(1 + 0j, 100000).to_complex()

    def test_log_abs_never_overflows(self):
        assert XComplex(1 + 0j, 10**7).log_abs() == pytest.approx(10**7 * math.log(2))


class TestSlots:
    @pytest.mark.parametrize("value", [xc(0), xc(-4), XComplex(1.5 - 0.25j, -10**6)])
    def test_pickle_and_deepcopy_round_trip(self, value):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and type(copied) is XComplex
            assert (copied.mantissa, copied.exponent) == (value.mantissa, value.exponent)

    def test_slotted_and_frozen(self):
        x = xc(3)
        assert not hasattr(x, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.exponent = 7


# -- runs: the cocycle product and the b recurrence on raw mantissas -------

TINY = 2.0**-950  # a component this far below the modulus is "tiny"


def bits(parts):
    """Parts with their floats in hex, so that -0.0 and 0.0 differ."""
    return [None if p is None else (p[0].real.hex(), p[0].imag.hex(), p[1]) for p in parts]


def product_steps(entry, factors):
    out = []
    for m in factors:
        entry = _mul(entry, m)
        out.append(entry)
    return out


_part = st.floats(-2, 2).filter(lambda x: x == 0.0 or abs(x) > 1e-6)
_nudge = st.integers(-(2**12), 2**12).map(lambda k: k * 2.0**-52)
_plain_parts = st.one_of(
    # generic, |DR| close to 1, and close to 2 (the term grows a place a step)
    st.tuples(_part, _part).filter(lambda p: p != (0.0, 0.0)),
    st.tuples(_nudge.map(lambda x: 1.0 + abs(x)), _nudge),
    st.tuples(_nudge.map(lambda x: 2.0 - 2.0**-50 - abs(x)), _nudge),
)
_tiny_parts = st.tuples(st.floats(1.0, 2.0), st.sampled_from([TINY, -TINY, 3 * TINY, 2.0**-1060]))
_plain_factors = st.builds(lambda p, e: _normalize(p[0], p[1], e), _plain_parts, st.integers(-3, 3))
_tiny_factors = st.builds(lambda p: _normalize(*p, 0), _tiny_parts)
# run lengths: the scalar steps only, one chunk, past one chunk, several
_lengths = st.sampled_from([_RUN_CHUNK + 1, 1100, 200, _RUN_CHUNK, _RUN_MIN, _RUN_MIN - 1, 7, 1])


def affine_steps(term, dz, w):
    out = []
    for a, b in zip(dz, w):
        term = _add(_mul(a, term), b)
        out.append(term)
    return out


def affine_case(term, pattern, n):
    """dz and w parts of n steps of a repeating pattern, and the terms of
    the scalar steps.  Each w is placed at a shift from its step's product,
    so additions land at the drop boundary; "cancel" is w = -DR * b, and
    "partial" leaves about 2**-shift of DR * b."""
    dz, w, terms = [], [], []
    for k in range(n):
        d, kind, shift, u = pattern[k % len(pattern)]
        p = _mul(d, term)
        if kind == "zero-w":
            u = None
        elif kind == "cancel" and p is not None:
            u = (-p[0], p[1])
        elif kind == "partial" and p is not None:
            u = _normalize(-p[0].real * (1 - 2.0**-shift), -p[0].imag * (1 - 2.0**-shift), p[1])
        else:
            u = (u[0], (0 if p is None else p[1]) - shift + u[1])
        dz.append(d)
        w.append(u)
        term = _add(p, u)
        terms.append(term)
    return dz, w, terms


def _affine_steps(dz, w):
    return st.tuples(
        dz,
        st.sampled_from(["shift"] * 6 + ["zero-w", "cancel", "partial"]),
        st.one_of(st.integers(52, 55), st.integers(-55, -52), st.integers(-60, 60), st.just(1000)),
        w,
    )


# plain patterns run raw; mixed ones hold tiny components and zero DRs,
# which send a chunk to the scalar steps
_product_patterns = st.one_of(
    st.lists(_plain_factors, min_size=1, max_size=6),
    st.lists(st.one_of(_plain_factors, _tiny_factors), min_size=1, max_size=6),
)
_affine_patterns = st.one_of(
    st.lists(_affine_steps(_plain_factors, _plain_factors), min_size=1, max_size=6),
    st.lists(
        _affine_steps(st.one_of(_plain_factors, _tiny_factors, st.just(None)), st.one_of(_plain_factors, _tiny_factors)),
        min_size=1,
        max_size=6,
    ),
)
_terms = st.one_of(st.none(), _plain_factors, _tiny_factors)


class TestRuns:
    """_product_run and _affine_run against the _mul and _add steps, bit
    for bit."""

    @given(st.one_of(_plain_factors, _tiny_factors), _product_patterns, _lengths)
    def test_product_run_is_the_mul_loop(self, entry, pattern, n):
        factors = (pattern * n)[:n]
        parts, lanes = _product_run(entry, _parts_lanes(factors))
        want = bits(product_steps(entry, factors))
        assert bits(parts) == want and bits(_lane_parts(*lanes)) == want

    @given(_terms, _affine_patterns, _lengths)
    def test_affine_run_is_the_add_loop(self, term, pattern, n):
        dz, w, terms = affine_case(term, pattern, n)
        assert bits(_affine_run(term, _parts_lanes(dz), _parts_lanes(w))) == bits(terms)

    @pytest.mark.parametrize("growth", [600, 2000])
    def test_growth_past_the_rescale_then_additions(self, growth):
        # the term grows by about a place a step with every w dropped, then
        # each w lands 52 places below the product, then cancels it, or
        # leaves 2**-30 of it and lands 20 places below the next product
        d = _normalize(1.999, 0.001, 0)
        tail = [(d, "shift", 52, d), (d, "cancel", 0, d), (d, "shift", 0, d), (d, "partial", 30, d), (d, "shift", 20, d)]
        pattern = [(d, "shift", 1000, d)] * growth + tail * 40
        dz, w, terms = affine_case(d, pattern, len(pattern))
        assert any(t is None for t in terms) and max(t[1] for t in terms if t) > 600
        assert bits(_affine_run(d, _parts_lanes(dz), _parts_lanes(w))) == bits(terms)

    def test_product_a_place_below_the_frame(self):
        # hypot(d) rounds to 1, but |d| < 1, and hypot(d * d) < 1: the
        # product's exponent is one below the frame, so a w 54 places below
        # the frame is 53 below the product, and is added
        d = complex(float.fromhex("0x1.f5a2dd95948f6p-1"), float.fromhex("0x1.99fa66d135731p-3"))
        assert math.hypot(d.real, d.imag) == 1.0 and math.hypot((d * d).real, (d * d).imag) < 1.0
        n = 2 * _RUN_MIN
        dz, w = [(d, 0)] * n, [(1.9 + 0j, -54)] * n
        got, want = _affine_run((d, 0), _parts_lanes(dz), _parts_lanes(w)), affine_steps((d, 0), dz, w)
        assert want[0] != _mul((d, 0), (d, 0)) and bits(got) == bits(want)

    def test_first_step_of_a_series(self):
        # b[0] = 0 and DR = 0 at the critical point: b[1] = v there
        d = _normalize(1.5, -0.5, 2)
        dz = [None] + [d] * 99
        w = [_normalize(0.25, 1.0, 0)] * 100
        with mock.patch("ratpert.xcomplex._mul", side_effect=_mul) as steps:
            got = _affine_run(None, _parts_lanes(dz), _parts_lanes(w))
        assert steps.call_count == 0 and bits(got) == bits(affine_steps(None, dz, w))

    def test_tiny_components_take_the_scalar_steps(self):
        # a component 2**-1060 of the modulus is subnormal: at the scale of
        # the normalized steps each product rounds it again, on raw mantissas
        # once.  Unguarded, the runs would differ from the steps.
        entry = _normalize(1.0, 2.0**-1060, 0)
        factors = [_normalize(1.9, 0.0, 0)] * 100
        lanes = _parts_lanes(factors)
        want = bits(product_steps(entry, factors))
        raw = np.array(list(accumulate([m for m, _ in factors], mul, initial=entry[0]))[1:])
        unguarded = normalize_lanes(raw.real, raw.imag, np.cumsum(lanes[2]))
        assert bits(_lane_parts(*unguarded)) != want

        w = _parts_lanes([None] * 100)
        ts, es = _affine_raw(entry, lanes, w)
        raw = np.array(ts[1:])
        assert bits(_lane_parts(*normalize_lanes(raw.real, raw.imag, np.array(es[1:])))) != want

        with mock.patch("ratpert.xcomplex._mul", side_effect=_mul) as steps:
            assert bits(_product_run(entry, lanes)[0]) == want
            assert bits(_affine_run(entry, lanes, w)) == want
        assert steps.call_count == 200

    def test_plain_runs_take_no_scalar_step(self):
        entry = _normalize(1.0, 0.5, 0)
        factors = [_normalize(1.9, 0.25, 0)] * 100
        w = [_normalize(1.0, -1.0, 3)] * 100
        with mock.patch("ratpert.xcomplex._mul", side_effect=_mul) as steps:
            _product_run(entry, _parts_lanes(factors))
            _affine_run(entry, _parts_lanes(factors), _parts_lanes(w))
        assert steps.call_count == 0
