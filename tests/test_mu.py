import math
import random

import pytest
from hypothesis import example, given, strategies as st

from ratpert import (
    CriticalRelationError,
    InvalidOrbitError,
    MapSpec,
    NoWitnessError,
    NotSummableError,
    PoleProximityError,
    Polynomial,
    VectorFieldSpec,
    find_witness_field,
    iterate_orbit,
    moment_vector,
    mu_constant_unicritical,
    mu_functional,
)


def brute_force_mu(c, d, v, n_terms):
    """Independent oracle: plain-complex direct summation of the series.

    Iterates z**d + c from the critical point 0 and accumulates
    v(z_k) / (product of derivatives along the critical value's orbit).
    No extended-range arithmetic, no shared code with the implementation.
    """
    z = 0j
    cocycle = 1 + 0j
    total = v(z)  # k = 0 term, cocycle = 1
    for _ in range(n_terms - 1):
        z = z**d + c
        cocycle *= d * z ** (d - 1)
        total += v(z) / cocycle
    return total


class TestChebyshevOracles:
    def test_constant_field_geometric_series(self, chebyshev_orbit):
        # sum 1/cocycle = 1 - sum 4^-k = 1 - 1/3 = 2/3
        result = mu_functional(chebyshev_orbit, VectorFieldSpec.constant(1), tol=1e-12)
        assert result.converged
        assert abs(result.value - 2.0 / 3.0) < 1e-12

    def test_identity_field_geometric_series(self, chebyshev_orbit):
        # 0 + 1/2 - 2/16 - 2/64 - ... = 1/2 - 1/6 = 1/3
        result = mu_functional(chebyshev_orbit, VectorFieldSpec.monomial(1), tol=1e-12)
        assert abs(result.value - 1.0 / 3.0) < 1e-12

    def test_zero_field(self, chebyshev_orbit):
        result = mu_functional(chebyshev_orbit, VectorFieldSpec.constant(0), tol=1e-12)
        assert result.value == 0
        assert result.converged

    def test_partial_sum_increments_are_terms(self, chebyshev_orbit):
        result = mu_functional(chebyshev_orbit, VectorFieldSpec.monomial(2), tol=1e-14)
        for k in range(1, min(10, result.terms_used)):
            increment = result.partial[k] - result.partial[k - 1]
            point = chebyshev_orbit.points[k]
            cocycle = chebyshev_orbit.cocycle[k].to_complex()
            assert increment == pytest.approx(point**2 / cocycle, rel=1e-12)

    def test_tail_bound_honest(self, chebyshev_orbit):
        result = mu_functional(chebyshev_orbit, VectorFieldSpec.constant(1), tol=1e-10)
        exact = 2.0 / 3.0
        assert abs(result.value - exact) <= result.tail_bound


class TestUnicriticalConstant:
    def test_chebyshev_parameter(self):
        result = mu_constant_unicritical(-2, 2, tol=1e-12, n_max=200)
        assert abs(result.value - 2.0 / 3.0) < 1e-12
        assert result.is_nonvanishing()

    def test_misiurewicz_i_against_brute_force(self):
        # orbit of 0 under z^2 + i lands on the repelling 2-cycle
        # {i-1, -i} with multiplier (2i-2)(-2i) = 4+4i, |.| = 4*sqrt(2) > 1,
        # so direct summation of 60 terms has a geometric tail below 1e-20
        oracle = brute_force_mu(1j, 2, lambda z: 1.0, 60)
        result = mu_constant_unicritical(1j, 2, tol=1e-13, n_max=400)
        assert result.converged
        assert abs(result.value - oracle) < 1e-12
        assert abs(result.value) > 0.1  # finite nonzero value

    def test_attracting_parameter_not_summable(self):
        with pytest.raises(NotSummableError):
            mu_constant_unicritical(0.1, 2, tol=1e-12, n_max=400)

    def test_degree_three_against_brute_force(self):
        # z^3 - 3z via the generic functional: critical point 1 maps onto
        # the repelling fixed point -2 with derivative 9
        m = MapSpec.polynomial(Polynomial((0, -3, 0, 1)))
        orbit = iterate_orbit(m, 1.0, 200)
        result = mu_functional(orbit, VectorFieldSpec.constant(1), tol=1e-13)
        # oracle: 1 + sum_{k>=1} 9^-k = 1 + 1/8
        assert abs(result.value - 1.125) < 1e-12


class TestLinearity:
    def test_spot_check(self, chebyshev_orbit):
        m0 = mu_functional(chebyshev_orbit, VectorFieldSpec.constant(1), tol=1e-13).value
        m1 = mu_functional(chebyshev_orbit, VectorFieldSpec.monomial(1), tol=1e-13).value
        combo = mu_functional(
            chebyshev_orbit, VectorFieldSpec.from_coefficients([3, 2]), tol=1e-13
        ).value
        assert abs(combo - (2 * m1 + 3 * m0)) < 1e-12

    def test_random_fields(self, chebyshev_orbit):
        rng = random.Random(11)
        for _ in range(10):
            a = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
            b = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)]
            va, vb = VectorFieldSpec.from_coefficients(a), VectorFieldSpec.from_coefficients(b)
            vsum = VectorFieldSpec.from_coefficients([x + y for x, y in zip(a, b)])
            mu_a = mu_functional(chebyshev_orbit, va, tol=1e-13).value
            mu_b = mu_functional(chebyshev_orbit, vb, tol=1e-13).value
            mu_s = mu_functional(chebyshev_orbit, vsum, tol=1e-13).value
            assert abs(mu_s - (mu_a + mu_b)) <= 1e-10 * max(1.0, abs(mu_s))


class TestMoments:
    def test_chebyshev_first_two(self, chebyshev_orbit):
        m = moment_vector(chebyshev_orbit, 1, tol=1e-13)
        assert abs(m[0] - 2.0 / 3.0) < 1e-12
        assert abs(m[1] - 1.0 / 3.0) < 1e-12

    def test_single_term_truncation(self, chebyshev_orbit):
        # with a one-term budget the functional is just v at the critical point
        for j in range(3):
            result = mu_functional(
                chebyshev_orbit, VectorFieldSpec.monomial(j), tol=1e-12, n_max=1
            )
            assert result.terms_used == 1
            assert result.value == (0j if j >= 1 else 1 + 0j)

    @pytest.mark.parametrize(
        "map, n_terms",
        [
            (MapSpec.unicritical(2, -2), 2000),
            (MapSpec.rational(Polynomial((-2, 0, 1)), Polynomial((1, 0, 0.001))), 4000),
        ],
    )
    def test_single_pass_matches_mu_per_degree(self, map, n_terms):
        orbit = iterate_orbit(map, 0j, n_terms, escape_radius=1e6)
        moments = moment_vector(orbit, 5)
        expected = [
            mu_functional(orbit, VectorFieldSpec.monomial(j)).value for j in range(6)
        ]
        assert [(m.real.hex(), m.imag.hex()) for m in moments] == [
            (m.real.hex(), m.imag.hex()) for m in expected
        ]

    def test_divergent_orbit_rejected(self):
        orbit = iterate_orbit(MapSpec.unicritical(2, 0.1), 0j, 300)
        with pytest.raises(NotSummableError):
            moment_vector(orbit, 2)


@pytest.mark.parametrize("call", [
    lambda orbit: mu_functional(orbit, VectorFieldSpec.constant(1)),
    lambda orbit: moment_vector(orbit, 2),
], ids=["mu_functional", "moment_vector"])
def test_relation_prefix_rejected(call):
    # the prefix record of c = -1 (0, -1, 0) is too short for any window,
    # yet the relation is what both report
    with pytest.raises(CriticalRelationError) as info:
        iterate_orbit(MapSpec.unicritical(2, -1), 0j, 300)
    with pytest.raises(InvalidOrbitError, match="^orbit carries a critical relation$"):
        call(info.value.orbit)


class TestWitness:
    def test_chebyshev_moments_closed_form(self):
        field, value = find_witness_field([2 / 3, 1 / 3])
        assert abs(value - math.sqrt(5) / 3) < 1e-12
        norm = math.sqrt(5) / 3
        assert field.numerator.coefficients == pytest.approx(
            ((2 / 3) / norm, (1 / 3) / norm)
        )

    def test_single_nonzero_moment(self):
        field, value = find_witness_field([1, 0, 0])
        assert value == 1
        assert field.numerator.coefficients == (1 + 0j,)

    def test_all_zero_moments(self):
        with pytest.raises(NoWitnessError):
            find_witness_field([0, 0])

    @pytest.mark.parametrize("big", [1e200, 1e300, -1e250j])
    def test_large_moments_do_not_overflow(self, big):
        field, value = find_witness_field([big, 1])
        assert value == abs(big)
        assert abs(field.numerator.coefficients[0]) == pytest.approx(1.0)

    def test_tiny_moments_do_not_underflow(self):
        # abs(m) ** 2 would flush both squares to zero
        _, value = find_witness_field([3e-170, 4e-170], threshold=1e-300)
        assert value == pytest.approx(5e-170, rel=1e-15)

    @given(st.lists(st.complex_numbers(min_magnitude=1e-100, max_magnitude=1e100,
                                       allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6))
    # here ldexp(b, -54) ** 2 (libm pow) is one ulp off the correctly rounded square
    @example([6001851672851420 + 0j, 1.5000207436664692e16 + 0j])
    def test_scaled_norm_is_the_plain_norm_in_range(self, moments):
        # scaling by a power of two is exact, so where abs(m) * abs(m), the
        # correctly rounded square, neither overflows nor underflows the
        # bits are those of the plain formula
        try:
            _, value = find_witness_field(moments, threshold=0.0)
        except NoWitnessError:
            return
        assert value == math.sqrt(sum(abs(m) * abs(m) for m in moments))

    def test_maximizer_is_attained(self, chebyshev_orbit):
        # mu(witness) computed directly equals the reported norm
        moments = moment_vector(chebyshev_orbit, 3, tol=1e-13)
        field, value = find_witness_field(list(moments))
        direct = mu_functional(chebyshev_orbit, field, tol=1e-13).value
        assert abs(direct - value) < 1e-11


class TestRationalFields:
    def test_pole_on_orbit_rejected(self, chebyshev_orbit):
        # pole at 2, which the orbit hits
        v = VectorFieldSpec.rational(Polynomial((1,)), Polynomial((-2, 1)))
        with pytest.raises(PoleProximityError):
            mu_functional(chebyshev_orbit, v, tol=1e-10)

    def test_distant_pole_accepted(self, chebyshev_orbit):
        # v = 1/(z - 10); oracle by direct summation over the known orbit
        v = VectorFieldSpec.rational(Polynomial((1,)), Polynomial((-10, 1)))
        result = mu_functional(chebyshev_orbit, v, tol=1e-13)
        oracle = 1 / (0 - 10.0)
        cocycle = 1.0
        z = -2.0
        for _ in range(60):
            cocycle *= 2 * z
            oracle += (1 / (z - 10.0)) / cocycle
            z = z * z - 2
        assert abs(result.value - oracle) < 1e-12
