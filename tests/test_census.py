"""The exact cycle census, against independent oracles.

A degree-d polynomial whose cycles are all non-parabolic has exactly
(1/n) sum_{k|n} mu(n/k) d^k cycles of exact period n (mu the Moebius
function), so find_cycles must return that many.  A rational map of degree
d has d^k + 1 fixed points of R^k on the sphere, so d^k + 1 replaces d^k,
less the cycles through infinity.  Every returned cycle is checked against
a 40-digit mpmath Newton point started from its base.

Error budget of that check, with eps = 2^-52: the Newton point p stops at
|f^n(p) - p| <= 1e-14 |(f^n)'(p)| max(1, |p|), i.e. within about
45 eps max(1, |p|) of the root, below n * 64 eps.  A forward iterate carries
that error times the derivative product along the arc from p, at most S,
the largest product of |f'| over any arc of the cycle.  So each point must
be within 64 n eps S max(1, |z|) of the exact one.  The multiplier is a
product of n slopes d z^(d-1), each off by (d - 1) times its point's
relative error plus one rounding, which gives its budget below.  Over every
case here the largest ratio of error to budget measured 0.09 for the points,
0.001 for the multipliers and 0.14 for the reported residuals.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from ratpert import MapSpec, find_cycles
from ratpert import cycles as cycles_module
from ratpert import polynomial as polynomial_module
from ratpert.cycles import (
    CENSUS_MAX_ROOTS,
    PARABOLIC_TOL,
    _backward_tree,
    check_census_size,
)
from ratpert.maps import eval_map
from ratpert.polynomial import Polynomial

EPS = 2.0**-52
SAFETY = 64


def moebius(m: int) -> int:
    result, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def necklace(n: int, d: int) -> int:
    return sum(moebius(n // k) * d**k for k in range(1, n + 1) if n % k == 0) // n


def exact_cycle(d: int, c: complex, z0: complex, n: int):
    """Points and multiplier of the period-n cycle of z^d + c through the
    root of f^n(z) - z nearest z0, by Newton at 40 digits, rounded to
    doubles at the end (an error of eps, far inside every budget below)."""
    with mpmath.workdps(40):
        c, z = mpmath.mpc(c), mpmath.mpc(z0)
        for _ in range(40):
            w, slope = z, mpmath.mpc(1)
            for _ in range(n):
                power = w ** (d - 1)
                slope *= d * power
                w = power * w + c
            step = (w - z) / (slope - 1)
            z -= step
            if abs(step) <= mpmath.mpf(10) ** -25 * max(1, abs(z)):
                break
        else:
            raise AssertionError(f"40-digit Newton did not settle from {z0}")
        points, multiplier, w = [], mpmath.mpc(1), z
        for _ in range(n):
            points.append(complex(w))
            power = w ** (d - 1)
            multiplier *= d * power
            w = power * w + c
        return points, complex(multiplier)


def check_census(d: int, c: complex, n: int) -> None:
    cycles = find_cycles(MapSpec.unicritical(d, c), n)
    assert len(cycles) == necklace(n, d), f"z^{d}+{c} period {n}"
    for cycle in cycles:
        assert cycle.period == n
        exact, multiplier = exact_cycle(d, c, cycle.base, n)
        # exact period n: no proper divisor q brings the exact point back
        for q in range(1, n):
            if n % q == 0:
                assert abs(exact[q] - exact[0]) > 1e-8 * max(1, abs(exact[0]))
        slopes = [abs(d * w ** (d - 1)) for w in exact]
        spread = 1.0
        for start in range(n):
            product = 1.0
            for k in range(n):
                product *= slopes[(start + k) % n]
                spread = max(spread, product)
        point_budget = SAFETY * n * EPS * spread
        for got, want in zip(cycle.points, exact):
            assert abs(got - want) <= point_budget * max(1.0, abs(got))
        relative = sum((d - 1) * point_budget * max(1.0, abs(z)) / max(abs(z), 1e-300)
                       for z in cycle.points)
        allowed = SAFETY * (relative + n * EPS) * max(1.0, abs(multiplier))
        assert abs(cycle.multiplier - multiplier) <= allowed
        # the reported residual |f^n(p) - p| is taken in doubles at a point p
        # within the budget of the root, so it is rounding: at most the
        # evaluation error of f^n, n roundings carried through S
        scale = max(1.0, max(abs(z) for z in cycle.points))
        assert cycle.residual <= SAFETY * n * EPS * spread * scale
    assert_no_shared_point(cycles)


def assert_no_shared_point(cycles) -> None:
    points = sorted((z for cycle in cycles for z in cycle.points), key=lambda z: z.real)
    for i, z in enumerate(points):
        for w in points[i + 1 :]:
            if w.real - z.real > 1e-9 * max(1.0, abs(z)):
                break
            assert abs(w - z) > 1e-9 * max(1.0, abs(z)), f"two cycles share {z}"


class TestExactCount:
    @pytest.mark.parametrize(
        "d, c, n",
        [(2, -0.5969 - 1.6758j, 8), (2, -0.5969 - 1.6758j, 9),
         (3, 1.2796 + 1.2706j, 5), (2, -0.12 + 0.75j, 10), (2, -2 + 0j, 10)],
    )
    def test_former_shortfalls(self, d, c, n):
        # the seeded Newton search found 29 of 30, 54 of 56, 47 of 48 and 73
        # of 99; a test on polished points merged two cycles of z^2 - 2 whose
        # points come within 4e-8 (98 of 99)
        check_census(d, c, n)

    @pytest.mark.parametrize("d, c", [(2, 0j), (3, 0j), (2, -2 + 0j), (2, 1j)])
    def test_symmetric_seeds_and_critical_trees(self, d, c):
        # z^d: the tree is symmetric under rotation by d-th roots of unity;
        # z^2 - 2: it passes through the critical point 0 (2 <- -2 <- 0, 0)
        for n in range(1, 8):
            check_census(d, c, n)

    def test_seeded_parameters(self):
        rng = random.Random(6006)
        for _ in range(20):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            c = 2.0 * math.sqrt(rng.uniform(0.0, 1.0)) * complex(math.cos(angle), math.sin(angle))
            for n in range(1, 7):
                check_census(2, c, n)

    @pytest.mark.parametrize(
        "coefficients", [(0, -3, 0, 4), (0.1j, 0.5, 0.3, 1), (0.2, 0, -1.5, 0, 1)]
    )
    def test_general_polynomials(self, coefficients):
        # not binomial: each level of the tree is one batch of companion
        # eigenvalues, as for a rational map; 4z^3 - 3z (Chebyshev) also
        # sends its critical points onto the fixed point -1, and at period 7
        # (312 cycles, all on [-1, 1]) the node-by-node tree with a test on
        # polished points gave 310
        m = MapSpec.polynomial(Polynomial(coefficients))
        periods = (1, 2, 3, 4, 7) if coefficients == (0, -3, 0, 4) else (1, 2, 3, 4)
        for n in periods:
            check_rational_census(m, n, necklace(n, m.degree))

    def test_seeds_are_ignored_for_polynomial_maps(self, squaring_map):
        assert find_cycles(squaring_map, 3, seeds=[0j]) == find_cycles(squaring_map, 3)
        assert find_cycles(squaring_map, 3, seeds=[]) == find_cycles(squaring_map, 3)

    def test_blocking_does_not_change_the_census(self, monkeypatch):
        m = MapSpec.unicritical(2, -0.12 + 0.75j)
        full = find_cycles(m, 7)
        monkeypatch.setattr(polynomial_module, "ABERTH_BLOCK", 300)
        assert find_cycles(m, 7) == full


class TestBackwardTree:
    @pytest.mark.parametrize(
        "m",
        [MapSpec.unicritical(2, -0.12 + 0.75j), MapSpec.unicritical(3, 0.4 - 0.2j),
         MapSpec.polynomial(Polynomial((0.1j, 0.5, 0.3, 1)))],
    )
    def test_nodes_map_onto_the_fixed_point(self, m):
        for n in (1, 3):
            tree = _backward_tree(m, n)
            assert tree.shape == (m.degree**n,)
            images = []
            for z in tree:
                w = complex(z)
                for _ in range(n):
                    w = eval_map(m, w)[0]
                images.append(w)
            root = images[0]
            assert abs(eval_map(m, root)[0] - root) < 1e-9
            assert max(abs(w - root) for w in images) < 1e-9
            # the most repelling fixed point
            fixed = np.roots(list(reversed((m.numerator - Polynomial((0, 1))).coefficients)))
            assert abs(eval_map(m, root)[1]) >= max(abs(eval_map(m, f)[1]) for f in fixed) - 1e-9


class TestParabolic:
    """c = 1/4: the fixed point 1/2 is a double root (multiplier 1).
    c = -3/4: the fixed point -1/2 has multiplier -1, so the one 2-cycle of
    z^2 + c has collapsed onto it: a triple root of f^2(z) - z."""

    @pytest.mark.parametrize(
        "c, n, count", [(0.25, 1, 1), (0.25, 2, 1), (-0.75, 1, 2), (-0.75, 2, 0),
                        (0.25, 3, 2), (0.25, 4, 3), (-0.75, 4, 3), (-0.75, 6, 9)],
    )
    def test_bound_and_no_shared_point(self, c, n, count):
        cycles = find_cycles(MapSpec.unicritical(2, c), n)
        assert len(cycles) <= necklace(n, 2)
        assert len(cycles) == count
        assert_no_shared_point(cycles)

    def test_parabolic_fixed_point_reported_once(self):
        (cycle,) = find_cycles(MapSpec.unicritical(2, 0.25), 1)
        assert abs(cycle.base - 0.5) < 1e-6
        assert abs(1.0 - cycle.multiplier) <= PARABOLIC_TOL

    def test_satellite_cluster_dropped(self):
        # period 1 keeps -1/2; period 2 drops the cluster of roots around it
        fixed = find_cycles(MapSpec.unicritical(2, -0.75), 1)
        assert sorted(round(c.base.real, 9) for c in fixed) == [-0.5, 1.5]
        assert find_cycles(MapSpec.unicritical(2, -0.75), 2) == ()


    @pytest.mark.parametrize("p, q", [(1, 3), (2, 5), (1, 6), (3, 7)])
    def test_satellite_bulb_roots(self, p, q):
        # at the root of the p/q bulb the fixed point has multiplier
        # exp(2 pi i p/q) and one q-cycle has collapsed onto it, a cluster of
        # q + 1 roots of f^q(z) - z spread over about eps**(1/(q+1))
        mu = complex(math.cos(2 * math.pi * p / q), math.sin(2 * math.pi * p / q))
        m = MapSpec.unicritical(2, mu / 2 - mu * mu / 4)
        cycles = find_cycles(m, q)
        assert len(cycles) == necklace(q, 2) - 1
        assert_no_shared_point(cycles)
        assert len(find_cycles(m, q + 1)) == necklace(q + 1, 2)


class TestCensusCap:
    def test_cap_boundary(self):
        check_census_size(2, 12)
        check_census_size(3, 7)
        with pytest.raises(ValueError, match="period 13"):
            check_census_size(2, 13)
        with pytest.raises(ValueError, match="period 8"):
            check_census_size(3, 8)
        assert 2**12 == CENSUS_MAX_ROOTS

    @pytest.mark.parametrize("period", [13, 40, 10**12])
    def test_rejected_before_any_work(self, monkeypatch, period):
        def forbidden(*args, **kwargs):
            raise AssertionError("census work started above the cap")

        for name in ("_backward_tree", "_period_roots", "default_cycle_seeds"):
            monkeypatch.setattr(cycles_module, name, forbidden)
        with pytest.raises(ValueError, match=f"period {period}"):
            find_cycles(MapSpec.unicritical(2, -1), period)

    def test_rational_maps_rejected_before_any_work(self, monkeypatch):
        # the census of a rational map needs d**period + 1 roots, and the
        # seeds it was once given do not change that
        def forbidden(*args, **kwargs):
            raise AssertionError("census work started above the cap")

        for name in ("_backward_tree", "_period_roots"):
            monkeypatch.setattr(cycles_module, name, forbidden)
        monkeypatch.setattr(MapSpec, "julia_point", property(forbidden))
        m = MapSpec.rational(Polynomial((0, 0, 1)), Polynomial((0.3, 1)))
        with pytest.raises(ValueError, match="period 13"):
            find_cycles(m, 13, seeds=[0.5 + 0.5j, -0.9 + 0.1j, 1.2 - 0.3j])

    @pytest.mark.parametrize("period", [0, -3])
    def test_period_below_one(self, period):
        for m in (MapSpec.unicritical(2, -1),
                  MapSpec.rational(Polynomial((0, 0, 1)), Polynomial((0.3, 1)))):
            with pytest.raises(ValueError, match="period must be >= 1"):
                find_cycles(m, period)


class TestSeededRationalCensus:
    """The rational census (once the seeded Newton path, whose seeds it now
    ignores), on R(z) = z^2 / (1 + c z^2) = 1 / P(1 / z) with
    P(z) = z^2 + c.  R is conjugate to P by z -> 1/z, so its period-n cycles
    for n >= 2 are the images of those of P (none passes through 0 for the
    c below, which are no centers), with the same multipliers: the 40-digit
    cycles of P are the oracle.  -0.7501 and -0.7499 put the 2-cycle and
    -1.2501 a 4-cycle within 2e-3 of multiplier 1, where Newton stops
    farther from the root than CLAIM_TOL at tol 1e-6."""

    @pytest.mark.parametrize("c", [0.3 + 0.5j, -0.12 + 0.75j, -0.7501, -0.7499, -1.2501])
    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_count_points_and_multipliers(self, c, tol):
        m = MapSpec.rational(Polynomial((0, 0, 1)), Polynomial((1, 0, c)))
        seeds = cycles_module.default_cycle_seeds(m)
        for n in range(2, 5):
            cycles = find_cycles(m, n, seeds, tol=tol)
            assert len(cycles) == necklace(n, 2), f"c = {c}, period {n}"
            assert_no_shared_point(cycles)
            for cycle in cycles:
                assert cycle.period == n
                exact, multiplier = exact_cycle(2, c, 1 / cycle.base, n)
                for got, want in zip(cycle.points, exact):
                    assert abs(got - 1 / want) <= 1e-9 * max(1.0, abs(got))
                assert abs(cycle.multiplier - multiplier) <= 1e-9 * max(1.0, abs(multiplier))
                gate = max(tol, 1e-14 * abs(cycle.multiplier)) * max(1.0, abs(cycle.base))
                assert cycle.residual <= gate
            assert find_cycles(m, n, seeds, tol=tol) == cycles

    def test_fixed_points_include_the_image_of_infinity(self):
        # R(0) = 0 is the image of the superattracting fixed point of P at infinity
        m = MapSpec.rational(Polynomial((0, 0, 1)), Polynomial((1, 0, 0.3 + 0.5j)))
        cycles = find_cycles(m, 1)
        assert len(cycles) == 3
        assert min(abs(cycle.base) for cycle in cycles) < 1e-12


def sphere_count(n: int, d: int, at_infinity: int = 0) -> int:
    """Cycles of exact period n of a rational map of degree d whose finite
    cycles are all simple: R^k has d^k + 1 fixed points on the sphere, less
    at_infinity, the multiplicity of infinity as a fixed point of every R^k
    (0 when infinity is not fixed)."""
    return sum(moebius(n // k) * (d**k + 1 - at_infinity) for k in range(1, n + 1) if n % k == 0) // n


def _mp_poly(poly: Polynomial):
    """The coefficients of poly and of its first two derivatives as mpmath
    values, highest degree first (mpmath.polyval)."""
    out = []
    for _ in range(3):
        out.append([mpmath.mpc(a) for a in reversed(poly.coefficients)])
        poly = poly.derivative()
    return out


def exact_rational_cycle(m: MapSpec, z0: complex, n: int):
    """The period-n cycle of the rational map m through the root of
    R^n(z) - z nearest z0, by Newton at 40 digits: per point the exact
    point, R', |R''| and the absolute error of evaluating R' in doubles by
    Horner and the quotient rule, 4 d eps ((|P'||Q| + |P||Q'|)~ / |Q|^2 +
    2 |R'| |Q|~ / |Q|), with ~ the sums over absolute coefficients."""
    with mpmath.workdps(40):
        num, den = _mp_poly(m.numerator), _mp_poly(m.denominator)
        tilde = [[abs(a) for a in c] for c in num[:2] + den[:2]]

        def terms(w):
            p, dp, d2p = (mpmath.polyval(c, w) for c in num)
            q, dq, d2q = (mpmath.polyval(c, w) for c in den)
            top = dp * q - p * dq
            second = ((d2p * q - p * d2q) * q - 2 * top * dq) / q**3
            pt, dpt, qt, dqt = (mpmath.polyval(c, abs(w)) for c in tilde)
            error = 4 * m.degree * EPS * ((dpt * qt + pt * dqt) / abs(q) ** 2 + 2 * abs(top) * qt / abs(q) ** 3)
            return p / q, top / q**2, abs(second), error

        z = mpmath.mpc(z0)
        for _ in range(40):
            w, slope = z, mpmath.mpc(1)
            for _ in range(n):
                w, derivative, _, _ = terms(w)
                slope *= derivative
            step = (w - z) / (slope - 1)
            z -= step
            if abs(step) <= mpmath.mpf(10) ** -25 * max(1, abs(z)):
                break
        else:
            raise AssertionError(f"40-digit Newton did not settle from {z0}")
        out, w = [], z
        for _ in range(n):
            value, derivative, second, error = terms(w)
            out.append((complex(w), complex(derivative), float(second), float(error)))
            w = value
        return out


def check_rational_census(m: MapSpec, n: int, expected: int) -> None:
    """The count, and every cycle against exact_rational_cycle with the
    budget of check_census, 64 n eps S max(1, |z|) for a point, S the
    largest product of |R'| over an arc, widened by the conditioning of the
    Newton point: its error is the rounding of R^n(z) - z divided by
    |1 - multiplier|, carried to the other points by at most S (a factor
    1 + S / |1 - multiplier|, near 2 unless the cycle is nearly parabolic,
    as the 2-cycle of z^2 / (1 - 0.7501 z^2) is).  Each slope is then off by
    |R''| times its point's budget plus its own rounding, and the
    multiplier by the sum of those, each times the other slopes, plus n
    roundings.  Over the maps of TestRationalCensus the largest ratio of
    error to budget measured 0.08 for the points, 3e-4 for the multipliers
    and 0.08 for the reported residuals."""
    cycles = find_cycles(m, n)
    assert len(cycles) == expected, f"period {n}"
    for cycle in cycles:
        exact = exact_rational_cycle(m, cycle.base, n)
        for q in range(1, n):
            if n % q == 0:
                assert abs(exact[q][0] - exact[0][0]) > 1e-8 * max(1, abs(exact[0][0]))
        slopes = [abs(derivative) for _, derivative, _, _ in exact]
        spread = 1.0
        for start in range(n):
            product = 1.0
            for k in range(n):
                product *= slopes[(start + k) % n]
                spread = max(spread, product)
        rho = math.prod(derivative for _, derivative, _, _ in exact)
        point_budget = SAFETY * n * EPS * spread * (1.0 + spread / abs(1.0 - rho))
        multiplier, allowed = 1 + 0j, 0.0
        for k, (got, (want, derivative, second, error)) in enumerate(zip(cycle.points, exact)):
            assert abs(got - want) <= point_budget * max(1.0, abs(got))
            others = math.prod(slopes[:k] + slopes[k + 1:])
            allowed += (second * point_budget * max(1.0, abs(got)) + error) * others
            multiplier *= derivative
        allowed += n * EPS * abs(multiplier)
        assert abs(cycle.multiplier - multiplier) <= SAFETY * allowed
        scale = max(1.0, max(abs(z) for z in cycle.points))
        assert cycle.residual <= SAFETY * n * EPS * spread * scale
    assert_no_shared_point(cycles)


class TestRationalCensus:
    """The census of rational maps: Aberth sweeps on the fixed-point
    equation of R^n in homogeneous coordinates, in a chart that holds
    infinity.  The seeded Newton search it replaced found 29 of 30 period-8
    cycles on the first three maps, 46 of 48 period-5 cycles on the cubic
    and 27 of 30 period-8 cycles on (z^2 - 1) / (1 + 0.05 z^2)."""

    @pytest.mark.parametrize(
        "numerator, denominator, periods",
        [((-2, 0, 1), (1, 0, 0.001), 8), ((0, 0, 1), (1, 0, -0.7501), 8),
         ((-1 + 0.1j, 0, 1), (1, 0, 0.05), 8), ((-0.5, 0, 0, 1), (1, 0, 0, 0.2), 5),
         ((-1, 0, 1), (1, 0, 0.05), 8)],
    )
    def test_exact_count(self, numerator, denominator, periods):
        # infinity is on no cycle of these maps
        m = MapSpec.rational(Polynomial(numerator), Polynomial(denominator))
        for n in range(1, periods + 1):
            check_rational_census(m, n, sphere_count(n, m.degree))

    @pytest.mark.parametrize(
        "numerator, denominator, periods",
        [((1, 0, 1), (0, 1), 8), ((0.3 + 0.2j, 0.5, 1), (0.5, 1), 8),
         ((-0.4 + 0.1j, 0.2, 0.1j, 1), (0.2, 0.1j, 1), 5)],
    )
    def test_every_fixed_point_at_infinity(self, numerator, denominator, periods):
        # z + k / Q with deg Q = d - 1: P - zQ = k, so every fixed point is
        # at infinity, of multiplier 1 and multiplicity d + 1 for every R^k,
        # and far points where R(z) == z in floating point (|z| ~ 1e4-1e8)
        # are no fixed points; z + 1/z has 0, 1, 2, 3, 6, 9, 18, 30 cycles
        m = MapSpec.rational(Polynomial(numerator), Polynomial(denominator))
        for n in range(1, periods + 1):
            check_rational_census(m, n, sphere_count(n, m.degree, m.degree + 1))

    def test_newton_map(self):
        # Newton's map of z^32 - 1, ((d - 1) z^d + 1) / (d z^(d - 1)): its
        # finite fixed points are the 32 superattracting roots of unity and
        # infinity repels; the census starts at the pole 0
        d = 32
        m = MapSpec.rational(Polynomial((1,) + (0,) * (d - 1) + (d - 1,)),
                             Polynomial((0,) * (d - 1) + (d,)))
        check_rational_census(m, 1, sphere_count(1, d, 1))

    def test_parabolic_fixed_point_at_infinity(self):
        # z^2 / (z + 0.3) = z - 0.3 + O(1/z): infinity is a fixed point of
        # multiplier 1, a double root of the fixed-point equation of every
        # R^k, so period 1 keeps one of the three fixed points (0) and the
        # double root cancels from every count of period n >= 2
        m = MapSpec.rational(Polynomial((0, 0, 1)), Polynomial((0.3, 1)))
        for n in range(1, 9):
            check_rational_census(m, n, sphere_count(n, 2, 2))

    def test_crowded_cycles_are_kept(self):
        # two period-11 cycles pass within 1.7e-7 of each other near -2; a
        # test on polished points merged them (185 of 186)
        m = MapSpec.rational(Polynomial((-2, 0, 1)), Polynomial((1, 0, 0.001)))
        cycles = find_cycles(m, 11)
        assert len(cycles) == sphere_count(11, 2)
        assert_no_shared_point(cycles)

    def test_cap_period(self):
        # 4,097 roots: the largest census of a degree-2 map
        m = MapSpec.rational(Polynomial((-1, 0, 1)), Polynomial((1, 0, 0.05)))
        cycles = find_cycles(m, 12)
        assert len(cycles) == sphere_count(12, 2)
        assert_no_shared_point(cycles)
        for cycle in cycles:
            gate = max(1e-9, 1e-14 * abs(cycle.multiplier))
            assert cycle.residual <= gate * max(1.0, abs(cycle.base))
