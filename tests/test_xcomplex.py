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
    _ZERO,
    _add,
    _affine_raw,
    _affine_run,
    _lane_values,
    _make,
    _mul,
    _normalize,
    _product_run,
    _value_lanes,
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


def bits(values):
    """Values with their floats in hex, so that -0.0 and 0.0 differ."""
    return [(p.mantissa.real.hex(), p.mantissa.imag.hex(), p.exponent) for p in values]


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
    """dz and w values of n steps of a repeating pattern, and the terms of
    the scalar steps.  Each w is placed at a shift from its step's product,
    so additions land at the drop boundary; "cancel" is w = -DR * b, and
    "partial" leaves about 2**-shift of DR * b."""
    dz, w, terms = [], [], []
    for k in range(n):
        d, kind, shift, u = pattern[k % len(pattern)]
        p = _mul(d, term)
        if kind == "zero-w":
            u = _ZERO
        elif kind == "cancel" and p is not _ZERO:
            u = _make(-p.mantissa, p.exponent)
        elif kind == "partial" and p is not _ZERO:
            u = _normalize(-p.mantissa.real * (1 - 2.0**-shift), -p.mantissa.imag * (1 - 2.0**-shift), p.exponent)
        else:
            u = _make(u.mantissa, p.exponent - shift + u.exponent)
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
        _affine_steps(st.one_of(_plain_factors, _tiny_factors, st.just(_ZERO)), st.one_of(_plain_factors, _tiny_factors)),
        min_size=1,
        max_size=6,
    ),
)
_terms = st.one_of(st.just(_ZERO), _plain_factors, _tiny_factors)


class TestRuns:
    """_product_run and _affine_run against the _mul and _add steps, bit
    for bit."""

    @given(st.one_of(_plain_factors, _tiny_factors), _product_patterns, _lengths)
    def test_product_run_is_the_mul_loop(self, entry, pattern, n):
        factors = (pattern * n)[:n]
        values, lanes = _product_run(entry, _value_lanes(factors))
        want = bits(product_steps(entry, factors))
        assert bits(values) == want and bits(_lane_values(*lanes)) == want

    @given(_terms, _affine_patterns, _lengths)
    def test_affine_run_is_the_add_loop(self, term, pattern, n):
        dz, w, terms = affine_case(term, pattern, n)
        assert bits(_affine_run(term, _value_lanes(dz), _value_lanes(w))) == bits(terms)

    @pytest.mark.parametrize("growth", [600, 2000])
    def test_growth_past_the_rescale_then_additions(self, growth):
        # the term grows by about a place a step with every w dropped, then
        # each w lands 52 places below the product, then cancels it, or
        # leaves 2**-30 of it and lands 20 places below the next product
        d = _normalize(1.999, 0.001, 0)
        tail = [(d, "shift", 52, d), (d, "cancel", 0, d), (d, "shift", 0, d), (d, "partial", 30, d), (d, "shift", 20, d)]
        pattern = [(d, "shift", 1000, d)] * growth + tail * 40
        dz, w, terms = affine_case(d, pattern, len(pattern))
        assert any(t is _ZERO for t in terms) and max(t.exponent for t in terms if t is not _ZERO) > 600
        assert bits(_affine_run(d, _value_lanes(dz), _value_lanes(w))) == bits(terms)

    def test_product_a_place_below_the_frame(self):
        # hypot(d) rounds to 1, but |d| < 1, and hypot(d * d) < 1: the
        # product's exponent is one below the frame, so a w 54 places below
        # the frame is 53 below the product, and is added
        d = complex(float.fromhex("0x1.f5a2dd95948f6p-1"), float.fromhex("0x1.99fa66d135731p-3"))
        assert math.hypot(d.real, d.imag) == 1.0 and math.hypot((d * d).real, (d * d).imag) < 1.0
        n = 2 * _RUN_MIN
        dz, w = [_make(d, 0)] * n, [_make(1.9 + 0j, -54)] * n
        got, want = _affine_run(_make(d, 0), _value_lanes(dz), _value_lanes(w)), affine_steps(_make(d, 0), dz, w)
        assert want[0] != _mul(_make(d, 0), _make(d, 0)) and bits(got) == bits(want)

    def test_first_step_of_a_series(self):
        # b[0] = 0 and DR = 0 at the critical point: b[1] = v there
        d = _normalize(1.5, -0.5, 2)
        dz = [_ZERO] + [d] * 99
        w = [_normalize(0.25, 1.0, 0)] * 100
        with mock.patch("ratpert.xcomplex._mul", side_effect=_mul) as steps:
            got = _affine_run(_ZERO, _value_lanes(dz), _value_lanes(w))
        assert steps.call_count == 0 and bits(got) == bits(affine_steps(_ZERO, dz, w))

    def test_tiny_components_take_the_scalar_steps(self):
        # a component 2**-1060 of the modulus is subnormal: at the scale of
        # the normalized steps each product rounds it again, on raw mantissas
        # once.  Unguarded, the runs would differ from the steps.
        entry = _normalize(1.0, 2.0**-1060, 0)
        factors = [_normalize(1.9, 0.0, 0)] * 100
        lanes = _value_lanes(factors)
        want = bits(product_steps(entry, factors))
        raw = np.array(list(accumulate([m.mantissa for m in factors], mul, initial=entry.mantissa))[1:])
        unguarded = normalize_lanes(raw.real, raw.imag, np.cumsum(lanes[2]))
        assert bits(_lane_values(*unguarded)) != want

        w = _value_lanes([_ZERO] * 100)
        ts, es = _affine_raw(entry, lanes, w)
        raw = np.array(ts[1:])
        assert bits(_lane_values(*normalize_lanes(raw.real, raw.imag, np.array(es[1:])))) != want

        with mock.patch("ratpert.xcomplex._mul", side_effect=_mul) as steps:
            assert bits(_product_run(entry, lanes)[0]) == want
            assert bits(_affine_run(entry, lanes, w)) == want
        assert steps.call_count == 200

    def test_plain_runs_take_no_scalar_step(self):
        entry = _normalize(1.0, 0.5, 0)
        factors = [_normalize(1.9, 0.25, 0)] * 100
        w = [_normalize(1.0, -1.0, 3)] * 100
        with mock.patch("ratpert.xcomplex._mul", side_effect=_mul) as steps:
            _product_run(entry, _value_lanes(factors))
            _affine_run(entry, _value_lanes(factors), _value_lanes(w))
        assert steps.call_count == 0


# -- operator pins: the bits of every operator on zeros, cancellations,
# addends at the drop boundary, hypot ties and huge exponents -------------

_TIE = complex(float.fromhex("0x1.f5a2dd95948f6p-1"), float.fromhex("0x1.99fa66d135731p-3"))  # hypot rounds to 1
_BELOW = complex(1 - 2.0**-53, 2.0**-30)  # hypot 1 - 2**-53
_OPERANDS = {
    "zero": XComplex.zero(),
    "zero_e5": XComplex(0j, 5),  # hand-built zeros
    "zero_neg_e-3": XComplex(-0j, -3),
    "a": XComplex.from_complex(3 - 2j),
    "b": XComplex.from_complex(-0.5 + 1e-3j),
    "big": XComplex(1.25 + 0.5j, 2**70),
    "small": XComplex(-1.5 + 0.25j, -(2**70)),
    "tie": XComplex(_TIE, 0),
    "below": XComplex(_BELOW, 0),
    **{f"lo{k}": XComplex(1.75 - 0.25j, -k) for k in (52, 53, 54, 55)},  # addends k places below a
}
_INPUTS = {
    "0j": 0j,
    "-0j": -0j,
    "tie": _TIE,
    "tie*tie": _TIE * _TIE,
    "below": _BELOW,
    "3-2j": 3 - 2j,
    "subnormal": 1e-310 + 0j,
    "huge": 1.7e308 - 1.7e308j,
}
_OPS = {
    "mul": lambda x, y: x * y,
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "div": lambda x, y: x / y,
    "reciprocal": XComplex.reciprocal,
    "magnitude": XComplex.magnitude,
    "to_complex": XComplex.to_complex,
}


def _pinned(op, left, right):
    """The result as hex bits: (re, im, exponent) of an XComplex, (re, im)
    of a complex, the hex of a float, or the name of the exception."""
    try:
        if op == "from_complex":
            r = XComplex.from_complex(_INPUTS[left])
        else:
            r = _OPS[op](*(_OPERANDS[k] for k in (left, right) if k is not None))
    except (ZeroDivisionError, OverflowError) as e:
        return type(e).__name__
    if isinstance(r, XComplex):
        return (r.mantissa.real.hex(), r.mantissa.imag.hex(), r.exponent)
    if isinstance(r, complex):
        return (r.real.hex(), r.imag.hex())
    return r.hex()


_PINS = [
    ('mul', 'zero', 'a', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('mul', 'a', 'zero', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('mul', 'zero_e5', 'a', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('mul', 'a', 'zero_e5', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('mul', 'zero_neg_e-3', 'b', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('mul', 'zero_e5', 'zero_neg_e-3', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('mul', 'zero', 'zero', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('mul', 'a', 'a', ('0x1.4000000000000p-1', '-0x1.8000000000000p+0', 3)),
    ('mul', 'a', 'b', ('-0x1.7f7ced916872bp+0', '0x1.00c49ba5e353fp+0', 0)),
    ('mul', 'b', 'a', ('-0x1.7f7ced916872bp+0', '0x1.00c49ba5e353fp+0', 0)),
    ('mul', 'tie', 'tie', ('0x1.d6f6dee8a894dp+0', '0x1.91adef449ab47p-1', -1)),
    ('mul', 'tie', 'below', ('0x1.f5a2dd93fa94fp+0', '0x1.99fa66f08fa0ep-2', -1)),
    ('mul', 'below', 'below', ('0x1.ffffffffffffep+0', '0x1.fffffffffffffp-29', -1)),
    ('mul', 'big', 'big', ('0x1.5000000000000p+0', '0x1.4000000000000p+0', 2361183241434822606848)),
    ('mul', 'big', 'small', ('-0x1.0000000000000p+0', '-0x1.c000000000000p-3', 1)),
    ('mul', 'small', 'small', ('0x1.1800000000000p+0', '-0x1.8000000000000p-2', -2361183241434822606847)),
    ('mul', 'a', 'big', ('0x1.3000000000000p+0', '-0x1.0000000000000p-2', 1180591620717411303426)),
    ('mul', 'small', 'a', ('-0x1.0000000000000p+0', '0x1.e000000000000p-1', -1180591620717411303422)),
    ('mul', 'a', 'lo52', ('0x1.3000000000000p+0', '-0x1.1000000000000p+0', -50)),
    ('mul', 'a', 'lo53', ('0x1.3000000000000p+0', '-0x1.1000000000000p+0', -51)),
    ('mul', 'a', 'lo54', ('0x1.3000000000000p+0', '-0x1.1000000000000p+0', -52)),
    ('mul', 'a', 'lo55', ('0x1.3000000000000p+0', '-0x1.1000000000000p+0', -53)),
    ('mul', 'lo52', 'a', ('0x1.3000000000000p+0', '-0x1.1000000000000p+0', -50)),
    ('mul', 'lo55', 'a', ('0x1.3000000000000p+0', '-0x1.1000000000000p+0', -53)),
    ('add', 'zero', 'a', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'a', 'zero', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'zero_e5', 'a', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'a', 'zero_e5', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'zero_neg_e-3', 'b', ('-0x1.0000000000000p+0', '0x1.0624dd2f1a9fcp-9', -1)),
    ('add', 'zero_e5', 'zero_neg_e-3', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('add', 'zero', 'zero', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('add', 'a', 'a', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 2)),
    ('add', 'a', 'b', ('0x1.4000000000000p+0', '-0x1.ffbe76c8b4396p-1', 1)),
    ('add', 'b', 'a', ('0x1.4000000000000p+0', '-0x1.ffbe76c8b4396p-1', 1)),
    ('add', 'tie', 'tie', ('0x1.f5a2dd95948f6p-1', '0x1.99fa66d135731p-3', 1)),
    ('add', 'tie', 'below', ('0x1.fad16ecaca47ap+0', '0x1.99fa66f135731p-3', 0)),
    ('add', 'below', 'below', ('0x1.fffffffffffffp+0', '0x1.0000000000000p-29', 0)),
    ('add', 'big', 'big', ('0x1.4000000000000p+0', '0x1.0000000000000p-1', 1180591620717411303425)),
    ('add', 'big', 'small', ('0x1.4000000000000p+0', '0x1.0000000000000p-1', 1180591620717411303424)),
    ('add', 'small', 'small', ('-0x1.8000000000000p+0', '0x1.0000000000000p-2', -1180591620717411303423)),
    ('add', 'a', 'big', ('0x1.4000000000000p+0', '0x1.0000000000000p-1', 1180591620717411303424)),
    ('add', 'small', 'a', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'a', 'lo52', ('0x1.8000000000001p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'a', 'lo53', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'a', 'lo54', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'a', 'lo55', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'lo52', 'a', ('0x1.8000000000001p+0', '-0x1.0000000000000p+0', 1)),
    ('add', 'lo55', 'a', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('sub', 'zero', 'a', ('-0x1.8000000000000p+0', '0x1.0000000000000p+0', 1)),
    ('sub', 'a', 'zero', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('sub', 'zero_e5', 'a', ('-0x1.8000000000000p+0', '0x1.0000000000000p+0', 1)),
    ('sub', 'a', 'zero_e5', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('sub', 'zero_neg_e-3', 'b', ('0x1.0000000000000p+0', '-0x1.0624dd2f1a9fcp-9', -1)),
    ('sub', 'zero_e5', 'zero_neg_e-3', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('sub', 'zero', 'zero', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('sub', 'a', 'a', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('sub', 'a', 'b', ('0x1.c000000000000p-1', '-0x1.0020c49ba5e35p-1', 2)),
    ('sub', 'b', 'a', ('-0x1.c000000000000p-1', '0x1.0020c49ba5e35p-1', 2)),
    ('sub', 'tie', 'tie', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('sub', 'tie', 'below', ('-0x1.4ba44d4d6e120p-3', '0x1.99fa66b135731p+0', -3)),
    ('sub', 'below', 'below', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('sub', 'big', 'big', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('sub', 'big', 'small', ('0x1.4000000000000p+0', '0x1.0000000000000p-1', 1180591620717411303424)),
    ('sub', 'small', 'small', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('sub', 'a', 'big', ('-0x1.4000000000000p+0', '-0x1.0000000000000p-1', 1180591620717411303424)),
    ('sub', 'small', 'a', ('-0x1.8000000000000p+0', '0x1.0000000000000p+0', 1)),
    ('sub', 'a', 'lo52', ('0x1.7ffffffffffffp+0', '-0x1.0000000000000p+0', 1)),
    ('sub', 'a', 'lo53', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('sub', 'a', 'lo54', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('sub', 'a', 'lo55', ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('sub', 'lo52', 'a', ('-0x1.7ffffffffffffp+0', '0x1.0000000000000p+0', 1)),
    ('sub', 'lo55', 'a', ('-0x1.8000000000000p+0', '0x1.0000000000000p+0', 1)),
    ('div', 'zero', 'a', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('div', 'a', 'zero', 'ZeroDivisionError'),
    ('div', 'zero_e5', 'a', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('div', 'a', 'zero_e5', 'ZeroDivisionError'),
    ('div', 'zero_neg_e-3', 'b', ('0x0.0p+0', '0x0.0p+0', 0)),
    ('div', 'zero_e5', 'zero_neg_e-3', 'ZeroDivisionError'),
    ('div', 'zero', 'zero', 'ZeroDivisionError'),
    ('div', 'a', 'a', ('0x1.0000000000000p+0', '0x0.0p+0', 0)),
    ('div', 'a', 'b', ('-0x1.8082ada2881dbp+0', '0x1.fe7642e3b3ae1p-1', 2)),
    ('div', 'b', 'a', ('-0x1.d93edb9bce37dp-1', '-0x1.3a21b6964aac6p-1', -3)),
    ('div', 'tie', 'tie', ('0x1.0000000000000p+0', '0x0.0p+0', 0)),
    ('div', 'tie', 'below', ('0x1.f5a2dd972e89ep-1', '0x1.99fa66b1db455p-3', 0)),
    ('div', 'below', 'below', ('0x1.0000000000000p+0', '0x0.0p+0', 0)),
    ('div', 'big', 'big', ('0x1.0000000000000p+0', '0x0.0p+0', 0)),
    ('div', 'big', 'small', ('-0x1.83759f2298375p+0', '-0x1.d67c8a60dd67cp-1', 2361183241434822606847)),
    ('div', 'small', 'small', ('0x1.ffffffffffffep+0', '0x0.0p+0', -1)),
    ('div', 'a', 'big', ('0x1.8469ee58469efp-1', '-0x1.1a7b9611a7b96p+0', -1180591620717411303423)),
    ('div', 'small', 'a', ('-0x1.89d89d89d89d8p+0', '-0x1.6276276276276p-1', -1180591620717411303426)),
    ('div', 'a', 'lo52', ('0x1.d70a3d70a3d6fp-1', '-0x1.c28f5c28f5c28p-2', 53)),
    ('div', 'a', 'lo53', ('0x1.d70a3d70a3d6fp-1', '-0x1.c28f5c28f5c28p-2', 54)),
    ('div', 'a', 'lo54', ('0x1.d70a3d70a3d6fp-1', '-0x1.c28f5c28f5c28p-2', 55)),
    ('div', 'a', 'lo55', ('0x1.d70a3d70a3d6fp-1', '-0x1.c28f5c28f5c28p-2', 56)),
    ('div', 'lo52', 'a', ('0x1.c4ec4ec4ec4ecp+0', '0x1.b13b13b13b13cp-1', -54)),
    ('div', 'lo55', 'a', ('0x1.c4ec4ec4ec4ecp+0', '0x1.b13b13b13b13cp-1', -57)),
    ('reciprocal', 'zero', None, 'ZeroDivisionError'),
    ('reciprocal', 'zero_e5', None, 'ZeroDivisionError'),
    ('reciprocal', 'zero_neg_e-3', None, 'ZeroDivisionError'),
    ('reciprocal', 'a', None, ('0x1.d89d89d89d89ep-1', '0x1.3b13b13b13b14p-1', -2)),
    ('reciprocal', 'b', None, ('-0x1.ffff79c866299p+0', '-0x1.06249876fd02dp-8', 0)),
    ('reciprocal', 'big', None, ('0x1.611a7b9611a7cp+0', '-0x1.1a7b9611a7b96p-1', -1180591620717411303425)),
    ('reciprocal', 'small', None, ('-0x1.4c1bacf914c1bp+0', '-0x1.bacf914c1bacfp-3', 1180591620717411303423)),
    ('reciprocal', 'tie', None, ('0x1.f5a2dd95948f7p-1', '-0x1.99fa66d135731p-3', 0)),
    ('reciprocal', 'below', None, ('0x1.0000000000001p+0', '-0x1.0000000000002p-30', 0)),
    ('reciprocal', 'lo52', None, ('0x1.1eb851eb851ebp+0', '0x1.47ae147ae147ap-3', 51)),
    ('reciprocal', 'lo53', None, ('0x1.1eb851eb851ebp+0', '0x1.47ae147ae147ap-3', 52)),
    ('reciprocal', 'lo54', None, ('0x1.1eb851eb851ebp+0', '0x1.47ae147ae147ap-3', 53)),
    ('reciprocal', 'lo55', None, ('0x1.1eb851eb851ebp+0', '0x1.47ae147ae147ap-3', 54)),
    ('magnitude', 'zero', None, '0x0.0p+0'),
    ('magnitude', 'zero_e5', None, '0x0.0p+0'),
    ('magnitude', 'zero_neg_e-3', None, '0x0.0p+0'),
    ('magnitude', 'a', None, '0x1.cd82b446159f3p+1'),
    ('magnitude', 'b', None, '0x1.0000218ded0e8p-1'),
    ('magnitude', 'big', None, 'inf'),
    ('magnitude', 'small', None, '0x0.0p+0'),
    ('magnitude', 'tie', None, '0x1.0000000000000p+0'),
    ('magnitude', 'below', None, '0x1.fffffffffffffp-1'),
    ('magnitude', 'lo52', None, '0x1.c48c6001f0ac0p-52'),
    ('magnitude', 'lo53', None, '0x1.c48c6001f0ac0p-53'),
    ('magnitude', 'lo54', None, '0x1.c48c6001f0ac0p-54'),
    ('magnitude', 'lo55', None, '0x1.c48c6001f0ac0p-55'),
    ('to_complex', 'zero', None, ('0x0.0p+0', '0x0.0p+0')),
    ('to_complex', 'zero_e5', None, ('0x0.0p+0', '0x0.0p+0')),
    ('to_complex', 'zero_neg_e-3', None, ('0x0.0p+0', '0x0.0p+0')),
    ('to_complex', 'a', None, ('0x1.8000000000000p+1', '-0x1.0000000000000p+1')),
    ('to_complex', 'b', None, ('-0x1.0000000000000p-1', '0x1.0624dd2f1a9fcp-10')),
    ('to_complex', 'big', None, 'OverflowError'),
    ('to_complex', 'small', None, ('-0x0.0p+0', '0x0.0p+0')),
    ('to_complex', 'tie', None, ('0x1.f5a2dd95948f6p-1', '0x1.99fa66d135731p-3')),
    ('to_complex', 'below', None, ('0x1.fffffffffffffp-1', '0x1.0000000000000p-30')),
    ('to_complex', 'lo52', None, ('0x1.c000000000000p-52', '-0x1.0000000000000p-54')),
    ('to_complex', 'lo53', None, ('0x1.c000000000000p-53', '-0x1.0000000000000p-55')),
    ('to_complex', 'lo54', None, ('0x1.c000000000000p-54', '-0x1.0000000000000p-56')),
    ('to_complex', 'lo55', None, ('0x1.c000000000000p-55', '-0x1.0000000000000p-57')),
    ('from_complex', '0j', None, ('0x0.0p+0', '0x0.0p+0', 0)),
    ('from_complex', '-0j', None, ('0x0.0p+0', '0x0.0p+0', 0)),
    ('from_complex', 'tie', None, ('0x1.f5a2dd95948f6p-1', '0x1.99fa66d135731p-3', 0)),
    ('from_complex', 'tie*tie', None, ('0x1.d6f6dee8a894dp+0', '0x1.91adef449ab47p-1', -1)),
    ('from_complex', 'below', None, ('0x1.fffffffffffffp+0', '0x1.0000000000000p-29', -1)),
    ('from_complex', '3-2j', None, ('0x1.8000000000000p+0', '-0x1.0000000000000p+0', 1)),
    ('from_complex', 'subnormal', None, ('0x1.2688b70e62b00p+0', '0x0.0p+0', -1030)),
    ('from_complex', 'huge', None, ('0x1.e42d130773b76p-1', '-0x1.e42d130773b76p-1', 1024)),
]


@pytest.mark.parametrize("op, left, right, want", _PINS)
def test_operator_bits(op, left, right, want):
    assert _pinned(op, left, right) == want
