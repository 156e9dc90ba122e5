"""The cocycle, the obstruction sequence b and the mu partial sums against
40-digit mpmath recomputations.

Error budget.  The orbit points are taken as given: each double point is an
exact binary number, and what is checked is (a) that each point is R of the
one before up to the rounding of one map evaluation, and (b) that the
cocycle, b and the mu partial sums are the exact values on those points up
to the rounding of the arithmetic that produces them.  So the chaos of the
orbit does not enter; what does is the conditioning of each sum and
product, step after step.

The bound is a first-order running error analysis (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., sec. 3.3).  ``Tracked`` carries
the exact value of an operation sequence (40 digits, about 1e-40 relative:
exact at this scale) together with a bound on the error of the same
operations done in double precision, u = 2**-53 being the unit roundoff:

- complex product: normwise relative error at most sqrt(5) u (Brent,
  Percival and Zimmermann, Math. Comp. 76, 2007);
- complex sum: one rounding per part, and an XComplex addend more than 53
  binary places below the other is dropped, which costs at most u times
  the larger; so at most u (|a| + |b|);
- complex quotient (CPython's Smith algorithm): at most five roundings on
  each part, each on a term no larger than sqrt(2) |a| / |b|; at most
  8 u |a / b|;
- XComplex normalization and collapse scale by powers of two: exact.

Errors in the operands propagate to first order (|a| e_b + |b| e_a for a
product, and so on), so after k steps the bound is the sum of the local
roundings, each times the conditioning of the rest of the recurrence: the
product of |DR| for b, and nothing for the cocycle's relative error.
Second-order terms are below bound**2 / |value|, many orders under the
bound at these lengths; a factor of 2 on the bound covers them.

alpha on a cycle (``TestAlphaOnCycles``).  The cycle points are again taken
as given.  solve_alpha_on_cycle solves v(p_k) = alpha[k+1] - d_k alpha[k]
(indices mod n, d_k = DR(p_k), rho = d_0 ... d_{n-1}), and the reference is
a 40-digit LU solve of the same n x n system on the same points.  Its
solution is alpha_i = sum_k W(k, i) v(p_k) / (1 - rho), where W(k, i) is the
product of d_j for j from k+1 round to i-1 (fewer than n factors).  So an
error delta_k in equation k moves alpha_i by W(k, i) delta_k / (1 - rho):
the conditioning 1 / |1 - rho|, weighted along the cycle.  Each delta_k is
at most

- the evaluation errors of v(p_k) and of d_k (times |alpha_k|), bounded by
  ``Tracked`` as above;
- the solve's own rounding, as a componentwise backward error gamma times
  |v(p_k)| + |d_k alpha_k| + |alpha_{k+1}|.  One equation costs a product
  and two sums, (sqrt 5 + 2) u; the head alpha_0 takes an n-term sum of
  products of up to n factors (the weights and rho), so the wrap-around
  equation carries up to n times that before refinement, and refinement
  brings the residual down to the level of a backward-stable solve
  (Higham, sec. 12.2) but not below.  gamma = (sqrt 5 + 2) n u.

The bound is SLACK times the sum over k of |W(k, i)| delta_k / |1 - rho|.

Continued cycles (``TestContinuation``).  At each accepted lambda the map
is perturbed(R, v, lambda), its double coefficients taken as given, and the
reference is its 40-digit Newton cycle started from the reference at the
lambda before, so it stays on the branch of the starting cycle.  The base
p is a Newton point of the period solver: its computed f^n(p) - p is at
most NEWTON_TOL max(1, |p|) max(1, |rho|), and the exact value exceeds the
computed one by at most the rounding E of computing it (each map
evaluation's ``Tracked`` bound, carried to the end by the slopes after it,
plus one rounding of the difference).  f^n(p) - p is (rho - 1)(p - p*) to
first order, so e_0 = (NEWTON_TOL max(1, |p|) max(1, |rho|) + E) /
|1 - rho|, and the next point, one evaluation of the map from the last, is
off by at most e_{k+1} = |d_k| e_k plus that evaluation's rounding.  The
bound is SLACK times e_k.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from ratpert import (
    CriticalRelationError,
    MapSpec,
    Polynomial,
    VectorFieldSpec,
    continue_cycle,
    find_cycles,
    iterate_orbit,
    mu_functional,
    obstruction_sequence,
    solve_alpha_on_cycle,
)
from ratpert.cycles import NEWTON_TOL
from ratpert.maps import default_escape_radius, perturbed
from test_census import exact_rational_cycle

DIGITS = 40
U = mpmath.mpf(2) ** -53
SQRT5 = mpmath.sqrt(5)
SLACK = 2  # second-order terms, see the module docstring


class Tracked:
    """An exact value and a first-order bound on the rounding error of the
    double-precision operations that produced it."""

    def __init__(self, value, err=0):
        self.value, self.err = mpmath.mpc(value), mpmath.mpf(err)

    def __add__(self, other):
        value = self.value + other.value
        return Tracked(value, self.err + other.err + U * (abs(self.value) + abs(other.value)))

    def __sub__(self, other):
        return self + Tracked(-other.value, other.err)

    def __mul__(self, other):
        value = self.value * other.value
        err = self.err * abs(other.value) + abs(self.value) * other.err + SQRT5 * U * abs(value)
        return Tracked(value, err)

    def __truediv__(self, other):
        value = self.value / other.value
        b = abs(other.value)
        return Tracked(value, self.err / b + abs(self.value) * other.err / b**2 + 8 * U * abs(value))

    def close_to(self, computed) -> bool:
        return abs(mpmath.mpc(computed) - self.value) <= SLACK * self.err


def _horner(coefficients, z):
    """(p(z), p'(z)) in the order of Polynomial.eval_with_derivative."""
    p, dp = Tracked(coefficients[-1]), Tracked(0)
    for a in reversed(coefficients[:-1]):
        dp = dp * z + p
        p = p * z + Tracked(a)
    return p, dp


def _map(m: MapSpec, z):
    """(R(z), R'(z)) in the order of eval_map."""
    p, dp = _horner(m.numerator.coefficients, z)
    if m.is_polynomial:
        q0 = Tracked(m.denominator.coefficients[0])
        return p / q0, dp / q0
    q, dq = _horner(m.denominator.coefficients, z)
    return p / q, (dp * q - p * dq) / (q * q)


def _exact(x) -> mpmath.mpc:
    """An XComplex as an exact mpmath value."""
    if x.is_zero:
        return mpmath.mpc(0)
    return mpmath.mpc(mpmath.ldexp(x.mantissa.real, x.exponent), mpmath.ldexp(x.mantissa.imag, x.exponent))


def _check_orbit(m: MapSpec, field: VectorFieldSpec, n: int):
    orbit = iterate_orbit(m, m.critical_points[0], n_max=n, escape_radius=1e6)
    n = min(n, orbit.truncated_at + 1)
    with mpmath.workdps(DIGITS):
        _check_series(m, field, orbit, obstruction_sequence(orbit, field, n), n)
    return n


def _check_series(m, field, orbit, series, n):
    points = [Tracked(z) for z in orbit.points]  # exact inputs
    cocycle, b = Tracked(1), Tracked(0)
    assert _exact(orbit.cocycle[0]) == 1 and _exact(series.b[0]) == 0
    for k in range(n):
        value, derivative = _map(m, points[k])
        if k + 1 < len(points):
            # one map evaluation from the point before
            assert value.close_to(orbit.points[k + 1]), k
        assert derivative.close_to(orbit.derivatives[k]), k
        if k:
            cocycle = cocycle * derivative
            assert cocycle.close_to(_exact(orbit.cocycle[k])), k
        # b[k+1] = DR(points[k]) b[k] + v(points[k])
        b = derivative * b + _horner(field.numerator.coefficients, points[k])[0]
        assert b.close_to(_exact(series.b[k + 1])), k


_disk = st.builds(cmath.rect, st.floats(0, 2), st.floats(-math.pi, math.pi))
_coefficient = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)
_fields = st.lists(_coefficient, min_size=1, max_size=3).filter(any)


class TestCocycleAndObstruction:
    # a small c keeps the orbit near the critical point 0, which warns
    @pytest.mark.filterwarnings("ignore::ratpert.orbits.NearCriticalRelationWarning")
    @settings(max_examples=25)
    @given(_disk, _fields)
    def test_quadratic_family(self, c, field):
        try:
            _check_orbit(MapSpec.unicritical(2, c), VectorFieldSpec.from_coefficients(field), 50)
        except CriticalRelationError:
            assume(False)

    @settings(max_examples=10)
    @given(_fields)
    def test_rational_map(self, field):
        # (z^2 - 2) / (1 + 0.001 z^2), a perturbed Chebyshev map: the
        # critical orbit stays near [-2, 2] and |DR| near 4 for all 50 steps
        m = MapSpec.rational(Polynomial((-2, 0, 1)), Polynomial((1, 0, 0.001)))
        assert _check_orbit(m, VectorFieldSpec.from_coefficients(field), 50) == 50


def _mu_partials(c: complex, n_max: int):
    m = MapSpec.unicritical(2, c)
    orbit = iterate_orbit(m, 0j, n_max=n_max, escape_radius=default_escape_radius(2, c))
    result = mu_functional(orbit, VectorFieldSpec.constant(1.0), tol=1e-12)
    with mpmath.workdps(DIGITS):
        total, cocycle = Tracked(0), Tracked(1)
        for k, partial in enumerate(result.partial):
            if k:
                cocycle = cocycle * _map(m, Tracked(orbit.points[k]))[1]
            # term 1 / cocycle[k], from XComplex(1) times the reciprocal
            total = total + Tracked(1) * (Tracked(1) / cocycle)
            assert total.close_to(partial), k
    return result


class TestMuPartialSums:
    def test_chebyshev_closed_form(self):
        # orbit 0, -2, 2, 2, ...: cocycle[k] = -4**k for k >= 1, so the
        # partial sums are 2/3 + 4**-k / 3, exact while 2k bits fit
        result = _mu_partials(-2 + 0j, 200)
        rounding = Fraction(SLACK * len(result.partial), 2**53)
        for k, partial in enumerate(result.partial):
            exact = Fraction(2, 3) + Fraction(1, 3 * 4**k)
            assert partial.imag == 0 and abs(Fraction(partial.real) - exact) <= rounding, k
            if 2 * k + 1 <= 53:  # the numerator (2 * 4**k + 1) / 3 fits a double
                assert partial.real == exact
        assert abs(Fraction(result.value.real) - Fraction(2, 3)) <= Fraction(result.tail_bound) + rounding

    def test_misiurewicz_i(self):
        # orbit 0, i, -1+i, -i, -1+i, ...: exact in doubles, so the sums
        # differ from the exact ones by the rounding of the terms alone
        result = _mu_partials(1j, 200)
        assert result.converged and len(result.partial) > 20


def _check_alpha(m: MapSpec, cycle, field: list) -> None:
    alpha = solve_alpha_on_cycle(m, cycle, VectorFieldSpec.from_coefficients(field)).alpha
    n = cycle.period
    with mpmath.workdps(DIGITS):
        points = [Tracked(z) for z in cycle.points]
        d = [_map(m, z)[1] for z in points]
        v = [_horner(field, z)[0] for z in points]
        system = mpmath.zeros(n, n)
        for k in range(n):
            system[k, (k + 1) % n] += 1
            system[k, k] -= d[k].value
        exact = mpmath.lu_solve(system, mpmath.matrix([x.value for x in v]))
        rho = mpmath.fprod(x.value for x in d)
        gamma = (SQRT5 + 2) * n * U
        delta = [
            v[k].err + d[k].err * abs(exact[k])
            + gamma * (abs(v[k].value) + abs(d[k].value * exact[k]) + abs(exact[(k + 1) % n]))
            for k in range(n)
        ]
        for i in range(n):
            bound = 0
            for k in range(n):
                weight = mpmath.fprod(abs(d[j % n].value) for j in range(k + 1, i + (n if i <= k else 0)))
                bound += weight * delta[k]
            assert abs(mpmath.mpc(alpha[i]) - exact[i]) <= SLACK * bound / abs(1 - rho), (cycle, i)


class TestAlphaOnCycles:
    # three z^2 + c drawn from a fixed seed, and the rational map of the
    # cycle-census benchmark, (z^2 - 1) / (1 + 0.05 z^2)
    @pytest.mark.parametrize(
        "m",
        [MapSpec.unicritical(2, c) for c in (lambda r: [
            complex(r.uniform(-1.5, 0.4), r.uniform(-1, 1)) for _ in range(3)])(random.Random(3))]
        + [MapSpec.rational(Polynomial((-1, 0, 1)), Polynomial((1, 0, 0.05)))],
    )
    def test_census_cycles_against_mp_solve(self, m):
        checked = 0
        for period in range(1, 5):
            for cycle in find_cycles(m, period):
                for field in ([1], [0, 1], [0, 0, 1]):
                    _check_alpha(m, cycle, field)
                    checked += 1
        assert checked >= 3 * 4


def _check_continued(m: MapSpec, field: VectorFieldSpec, cycle, target: complex, steps: int) -> None:
    result = continue_cycle(m, field, cycle, target, steps=steps)
    assert result.stopped_reason == "reached_target" and len(result.cycles) == steps + 1
    n = cycle.period
    with mpmath.workdps(DIGITS):
        start = cycle.base
        for lam, continued in zip(result.lambda_path, result.cycles):
            mapped = perturbed(m, field, lam)
            exact = exact_rational_cycle(mapped, start, n)
            start = exact[0][0]
            rho = math.prod(derivative for _, derivative, _, _ in exact)
            evaluations = [_map(mapped, Tracked(p)) for p in continued.points]
            rounding = 0
            for value, derivative in evaluations:
                rounding = abs(derivative.value) * rounding + value.err
            rounding += U * (abs(evaluations[-1][0].value) + abs(continued.base))
            stop = NEWTON_TOL * max(1, abs(continued.base)) * max(1, abs(rho))
            error = (stop + rounding) / abs(1 - rho)
            for k, (got, (want, _, _, _)) in enumerate(zip(continued.points, exact)):
                assert abs(mpmath.mpc(got) - want) <= SLACK * error, (lam, k)
                value, derivative = evaluations[k]
                error = abs(derivative.value) * error + value.err


class TestContinuation:
    # lambda steps of powers of two: lam + dl is exact, so each cycle was
    # solved at the recorded lambda
    def test_polynomial_cycle(self):
        m = MapSpec.unicritical(2, -0.12 + 0.75j)
        cycle = max(find_cycles(m, 3), key=lambda c: abs(c.multiplier))
        _check_continued(m, VectorFieldSpec.constant(1.0), cycle, 2.0**-7 + 2.0**-8 * 1j, 4)

    def test_rational_census_cycle(self):
        # (z^2 - 1) / (1 + 0.05 z^2), the cycle-census map, and a field of degree 1
        m = MapSpec.rational(Polynomial((-1, 0, 1)), Polynomial((1, 0, 0.05)))
        cycle = find_cycles(m, 3)[0]
        field = VectorFieldSpec.from_coefficients([1.0, 0.25j])
        _check_continued(m, field, cycle, -(2.0**-7) + 2.0**-9 * 1j, 8)
