import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from ratpert import XComplex, mantissa_ulp_gap


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
