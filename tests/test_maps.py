import math
import random

import pytest
from hypothesis import given, strategies as st

from ratpert import (
    DegenerateMapError,
    MapSpec,
    PoleError,
    Polynomial,
    VectorFieldSpec,
    default_escape_radius,
    eval_map,
    perturbed,
)
from ratpert.maps import eval_map_many


class TestCriticalPoints:
    def test_unicritical(self):
        assert MapSpec.unicritical(2, 1j).critical_points == (0j,)

    def test_cubic_two_critical_points(self):
        # z^3 - 3z, derivative 3z^2 - 3
        m = MapSpec.polynomial(Polynomial((0, -3, 0, 1)))
        pts = m.critical_points
        assert sorted(z.real for z in pts) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_rational_map(self):
        # (z^2 + 1)/z has derivative (z^2 - 1)/z^2, critical points +-1
        m = MapSpec.rational(Polynomial((1, 0, 1)), Polynomial((0, 1)))
        pts = m.critical_points
        assert sorted(z.real for z in pts) == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert max(abs(z.imag) for z in pts) < 1e-12

    def test_higher_degree_unicritical_is_one_point(self):
        m = MapSpec.unicritical(5, 0.3)
        assert m.critical_points == (0j,)


class TestEval:
    def test_critical_value(self):
        value, deriv = eval_map(MapSpec.unicritical(2, -2), 0)
        assert value == -2 and deriv == 0

    def test_chebyshev_fixed_point(self):
        value, deriv = eval_map(MapSpec.unicritical(2, -2), 2)
        assert value == 2 and deriv == 4

    def test_pole_raises(self):
        m = MapSpec.rational(Polynomial((1, 0, 1)), Polynomial((-1, 0, 1)))
        with pytest.raises(PoleError):
            eval_map(m, 1)

    @pytest.mark.parametrize("z", [1e-100, 1e-100j, -3e-90 + 2e-95j])
    def test_underflowing_square_of_the_denominator_is_a_pole(self, z):
        # 1 / z^2: |q| = |z|^2 passes the test relative to the scale |z|^2,
        # but q * q underflows to 0 and the quotient rule would divide by it
        m = MapSpec.rational(Polynomial((1,)), Polynomial((0, 0, 1)))
        with pytest.raises(PoleError):
            eval_map(m, z)
        # the same map away from the underflow keeps its value
        assert eval_map(m, 1e-50) == (1e100, -2e150)

    def test_batched_evaluation_takes_polynomial_maps_only(self):
        m = MapSpec.polynomial(Polynomial((0.5, 1, 2)))
        value, deriv = eval_map_many(m, [1j])
        assert (value[0], deriv[0]) == eval_map(m, 1j)
        with pytest.raises(ValueError, match="polynomial"):
            eval_map_many(MapSpec.rational(Polynomial((0, 0, 1)), Polynomial((1, 1))), [1j])

    def test_derivative_matches_finite_difference(self):
        # central difference at 100 random points keeping away from poles
        m = MapSpec.rational(Polynomial((1, 2, 1, 0.5)), Polynomial((2, 0, 1)))
        rng = random.Random(42)
        h = 1e-6
        checked = 0
        while checked < 100:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            den = m.denominator(z)
            if abs(den) < 0.3:
                continue
            _, deriv = eval_map(m, z)
            fd = (eval_map(m, z + h)[0] - eval_map(m, z - h)[0]) / (2 * h)
            assert abs(deriv - fd) <= 1e-6 * max(1.0, abs(deriv))
            checked += 1


class TestValidation:
    def test_shared_root_rejected(self):
        # numerator z^2+1, denominator 2(z^2+1): shared roots at +-i
        with pytest.raises(DegenerateMapError):
            MapSpec.rational(Polynomial((1, 0, 1)), Polynomial((2, 0, 2)))

    def test_degree_below_two_rejected(self):
        with pytest.raises(DegenerateMapError):
            MapSpec.polynomial(Polynomial((1, 2)))

    def test_constant_denominator_normalized(self):
        m = MapSpec.rational(Polynomial((0, 0, 2)), Polynomial((2,)))
        assert m.is_polynomial
        assert m.numerator.coefficients == (0j, 0j, 1 + 0j)


class TestPerturbed:
    def test_polynomial_shift(self):
        m = MapSpec.unicritical(2, 0)
        shifted = perturbed(m, VectorFieldSpec.constant(1), 0.1)
        assert shifted.numerator.coefficients == (0.1 + 0j, 0j, 1 + 0j)

    def test_lambda_zero_is_same_map(self):
        m = MapSpec.unicritical(2, 0)
        assert perturbed(m, VectorFieldSpec.constant(1), 0) is m

    def test_rational_keeps_denominator(self):
        m = MapSpec.rational(Polynomial((1, 0, 1)), Polynomial((0, 1)))
        out = perturbed(m, VectorFieldSpec.monomial(1), 0.5 + 0j)
        assert out.denominator == m.denominator
        z = 0.7 - 0.2j
        base, _ = eval_map(m, z)
        moved, _ = eval_map(out, z)
        assert moved == pytest.approx(base + 0.5 * z, rel=1e-12)


def _oracle_polynomial(coeffs):
    return Polynomial(tuple(coeffs))


def _oracle_add(p, q):
    a, b = p.coefficients, q.coefficients
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, v in enumerate(b):
        out[k] += v
    return _oracle_polynomial(out)


def _oracle_mul(p, q):
    if p.is_zero or q.is_zero:
        return _oracle_polynomial((0j,))
    a, b = p.coefficients, q.coefficients
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _oracle_polynomial(out)


def _oracle_scale(p, factor):
    return _oracle_polynomial(factor * a for a in p.coefficients)


def oracle_perturbed(map, field, lam):
    """perturbed as the Polynomial algebra built it, every intermediate
    through the public constructors: (P vd + lam vn Q) / (Q vd), with a
    constant vd folded into vn first."""
    if lam == 0:
        return map
    vn, vd = field.numerator, field.denominator
    if vd.is_constant:
        vn = _oracle_scale(vn, 1.0 / vd.coefficients[0])
        num = _oracle_add(map.numerator, _oracle_mul(_oracle_scale(vn, lam), map.denominator))
        return MapSpec(num, map.denominator)
    num = _oracle_add(_oracle_mul(map.numerator, vd), _oracle_scale(_oracle_mul(vn, map.denominator), lam))
    return MapSpec(num, _oracle_mul(map.denominator, vd))


def _outcome(build):
    """('map', hex coefficients, is_polynomial, whether that matches the
    denominator) or ('error', type, message)."""
    try:
        m = build()
    except (ValueError, DegenerateMapError) as err:
        return ("error", type(err), str(err))
    hexes = tuple(tuple((a.real.hex(), a.imag.hex()) for a in p.coefficients)
                  for p in (m.numerator, m.denominator))
    return ("map", hexes, m.is_polynomial, m.is_polynomial == m.denominator.is_constant)


_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
_coefficients = st.builds(complex, _parts, _parts)


def _polynomials(min_degree, max_degree):
    """Coefficient tuples with a nonzero leading coefficient; zeros below it."""
    return st.builds(
        lambda body, lead: Polynomial(tuple(body) + (lead,)),
        st.lists(_coefficients, min_size=min_degree, max_size=max_degree),
        _coefficients.filter(lambda a: a != 0),
    )


_lambdas = st.one_of(
    st.sampled_from([0, 0.0, 0j, 1e300, -1e300j, 0.25, 1 + 1j]),
    st.floats(-10, 10, allow_nan=False),
    st.builds(complex, st.floats(-10, 10), st.floats(-10, 10)),
)


class TestPerturbedParity:
    """perturbed gives the Polynomial-algebra formula bit for bit, and the
    same error where that formula's map is rejected."""

    @given(num=_polynomials(2, 4), den=_polynomials(0, 2), vn=_polynomials(0, 3),
           vd=_polynomials(0, 2), lam=_lambdas)
    def test_matches_the_algebra(self, num, den, vn, vd, lam):
        m = MapSpec(num, den)
        v = VectorFieldSpec(vn, vd)
        assert _outcome(lambda: perturbed(m, v, lam)) == _outcome(lambda: oracle_perturbed(m, v, lam))

    @pytest.mark.parametrize("v,lam", [
        (VectorFieldSpec.monomial(2, 4.0), -0.25),
        (VectorFieldSpec.monomial(2, 1j), 1j),
        (VectorFieldSpec.rational(Polynomial((0, 0, 2)), Polynomial((2,))), -1.0),
        # z^3/z is not in lowest terms, so only the bare constructor builds it
        (VectorFieldSpec(Polynomial((0, 0, 0, 1)), Polynomial((0, 1))), -1.0),
    ])
    def test_cancelled_leading_coefficient(self, v, lam):
        m = MapSpec.unicritical(2, 0.3)
        expected = _outcome(lambda: oracle_perturbed(m, v, lam))
        assert expected[:2] == ("error", DegenerateMapError)
        assert _outcome(lambda: perturbed(m, v, lam)) == expected

    @pytest.mark.parametrize("v", [
        VectorFieldSpec.constant(10.0),
        VectorFieldSpec.monomial(1, 3j),
        # twice (1 + z/2)/(2 + z^2): lam times vn Q's constant term 2 overflows
        VectorFieldSpec.rational(Polynomial((2, 1)), Polynomial((2, 0, 1))),
    ])
    def test_overflowed_coefficient(self, v):
        m = MapSpec.rational(Polynomial((-1, 0, 1)), Polynomial((1, 0, 0.05)))
        expected = _outcome(lambda: oracle_perturbed(m, v, 1e308 + 1e308j))
        assert expected[:2] == ("error", ValueError) and "not finite" in expected[2]
        assert _outcome(lambda: perturbed(m, v, 1e308 + 1e308j)) == expected


class TestFieldValidation:
    @pytest.mark.parametrize(
        "build,part",
        [
            (lambda: VectorFieldSpec.from_coefficients([math.nan, 1]), "numerator"),
            (lambda: VectorFieldSpec.from_coefficients([1, complex(0, math.inf)]), "numerator"),
            (lambda: VectorFieldSpec.constant(-math.inf), "numerator"),
            (lambda: VectorFieldSpec(Polynomial((1, math.nan))), "numerator"),
            (lambda: VectorFieldSpec(Polynomial((1,)), Polynomial((2, math.inf))), "denominator"),
        ],
    )
    def test_non_finite_coefficient_rejected(self, build, part):
        with pytest.raises(ValueError, match=f"VectorFieldSpec {part}:.*not finite"):
            build()

    def test_shared_root_rejected(self):
        # (z + 1/2)/(z + 1/2): R + lam*v would not be in lowest terms, and
        # its degree would read 3 on z^2 - 0.12 + 0.75i
        with pytest.raises(DegenerateMapError, match="share a root"):
            VectorFieldSpec.rational(Polynomial((0.5, 1)), Polynomial((0.5, 1)))
        with pytest.raises(DegenerateMapError, match="share a root"):
            MapSpec.rational(Polynomial((0.5, 1)), Polynomial((0.5, 1)))

    def test_finite_field_accepted(self):
        v = VectorFieldSpec(Polynomial((1, 2j)), Polynomial((3, 1)))
        assert v(0) == pytest.approx(1 / 3)


class TestMapValidation:
    @pytest.mark.parametrize(
        "build,part",
        [
            (lambda: MapSpec.unicritical(2, complex(math.inf, 0)), "numerator"),
            (lambda: MapSpec.unicritical(3, complex(0, math.nan)), "numerator"),
            (lambda: MapSpec(Polynomial((0, 0, 1)), Polynomial((1, math.inf))), "denominator"),
            (lambda: MapSpec.polynomial(Polynomial((1, -math.inf, 1))), "numerator"),
        ],
    )
    def test_non_finite_coefficient_rejected(self, build, part):
        with pytest.raises(ValueError, match=f"MapSpec {part}:.*not finite"):
            build()

    def test_large_finite_coefficients_accepted(self):
        # their sum overflows, but every coefficient is finite
        m = MapSpec.polynomial(Polynomial((1e308, 1e308j, 1e308, 1)))
        assert m.degree == 3


def test_default_escape_radius():
    assert default_escape_radius(2, 0) == 3.0
    assert default_escape_radius(2, -2) == 3.0
    assert default_escape_radius(3, 8) == pytest.approx(1 + 8 ** 0.5)
