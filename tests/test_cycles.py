import cmath
import math
import random

import numpy as np
import pytest

from ratpert import (
    Cycle,
    MapSpec,
    ParabolicCycleError,
    Polynomial,
    VectorFieldSpec,
    cycle_from_point,
    default_cycle_seeds,
    eval_map,
    find_cycles,
    solve_alpha_on_cycle,
)
from ratpert.cycles import _collect_cycles, _within_tolerance

OMEGA = cmath.exp(2j * cmath.pi / 3)


class TestFindCycles:
    def test_squaring_fixed_points(self, squaring_map):
        cycles = find_cycles(squaring_map, 1)
        bases = sorted(c.base.real for c in cycles)
        assert bases == pytest.approx([0.0, 1.0], abs=1e-12)
        mults = sorted(abs(c.multiplier) for c in cycles)
        assert mults == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_squaring_two_cycle(self, squaring_map):
        cycles = find_cycles(squaring_map, 2)
        # only the cube-roots-of-unity cycle; fixed points filtered out
        assert len(cycles) == 1
        cyc = cycles[0]
        assert cyc.multiplier == pytest.approx(4.0, abs=1e-10)
        # both real parts are -1/2 up to rounding: pair on the imaginary part
        got = sorted(((z.real, z.imag) for z in cyc.points), key=lambda t: t[1])
        want = sorted(((z.real, z.imag) for z in (OMEGA, OMEGA**2)), key=lambda t: t[1])
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)

    def test_chebyshev_fixed_points(self, chebyshev_map):
        cycles = find_cycles(chebyshev_map, 1)
        by_base = {round(c.base.real): c for c in cycles}
        assert set(by_base) == {-1, 2}
        assert by_base[2].multiplier == pytest.approx(4.0, abs=1e-10)
        assert by_base[-1].multiplier == pytest.approx(-2.0, abs=1e-10)

    def test_base_point_is_lexicographic_minimum(self, squaring_map):
        cyc = find_cycles(squaring_map, 2)[0]
        keys = [(round(z.real, 8), round(z.imag, 8)) for z in cyc.points]
        assert keys[0] == min(keys)

    def test_period_counts_for_quadratic(self, squaring_map):
        # z^2: period-3 points solve z^8 = z; 6 of them in two 3-cycles
        cycles = find_cycles(squaring_map, 3)
        assert len(cycles) == 2
        for cyc in cycles:
            assert cyc.multiplier == pytest.approx(8.0, abs=1e-9)

    def test_empty_result_not_error(self):
        # z^2 + 10: Julia set far from these seeds; Newton from a few bad
        # seeds either converges elsewhere (minimal period filter drops it)
        # or nowhere
        m = MapSpec.unicritical(2, 10)
        got = find_cycles(m, 2, seeds=[0j, 0.1 + 0.1j])
        assert isinstance(got, tuple)

    def test_deterministic(self, chebyshev_map):
        a = find_cycles(chebyshev_map, 4)
        b = find_cycles(chebyshev_map, 4)
        assert a == b

    def test_residuals_below_tolerance(self, chebyshev_map):
        for period in (1, 2, 3, 4, 5, 6):
            for cyc in find_cycles(chebyshev_map, period):
                assert cyc.residual <= 1e-9 * max(1.0, abs(cyc.base))


@pytest.mark.parametrize("count", [0, -5])
def test_seed_count_below_one_rejected(squaring_map, count):
    with pytest.raises(ValueError, match="count"):
        default_cycle_seeds(squaring_map, count=count)


class TestCycleFromPoint:
    def test_tracks_requested_point(self, squaring_map):
        cyc = cycle_from_point(squaring_map, OMEGA, 2)
        assert abs(cyc.base - OMEGA) < 1e-12

    def test_reduces_to_minimal_period(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0 + 1e-3j, 2)
        assert cyc.period == 1
        assert abs(cyc.base - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "c,z0,period",
        [(-0.12 + 0.75j, 1.2767277683299132 - 0.4828568012787036j, 3),
         (-1.3, -1.2415198487095662, 4)],
    )
    def test_reduced_cycle_is_the_walk_at_its_period(self, c, z0, period):
        # the cycle at the minimal period is the start of the walk at the
        # requested one: bit for bit what a walk of its own period gives
        m = MapSpec.unicritical(2, c)
        cyc = cycle_from_point(m, z0, period)
        assert cyc.period < period
        points, multiplier = [cyc.base], 1 + 0j
        for _ in range(cyc.period):
            value, dw = eval_map(m, points[-1])
            multiplier *= dw
            points.append(value)
        assert cyc == Cycle(tuple(points[:-1]), cyc.period, multiplier, abs(points[-1] - cyc.base))
        assert cyc.residual > 0

    def test_no_cycle_raises(self, squaring_map):
        with pytest.raises(ValueError):
            cycle_from_point(squaring_map, 0.5 + 0.5j, 1, tol=1e-15)

    def test_overflowing_start_raises(self):
        # at 1e200 the multiplier-scaled stop and gate overflow to inf,
        # so an inf residual would pass both
        with pytest.raises(ValueError):
            cycle_from_point(MapSpec.unicritical(2, -1), 1e200, 1)

    def test_walk_to_infinity_raises(self):
        # z^2 / (z + 0.3) fixes infinity, and Newton from 5 walks there
        m = MapSpec.rational(Polynomial((0, 0, 1)), Polynomial((0.3, 1)))
        with pytest.raises(ValueError):
            cycle_from_point(m, 5, 1)

    def test_gate_rejects_an_overflowed_bound(self):
        cycle = Cycle((1e200 + 0j,), 1, complex(math.inf, 0.0), math.inf)
        assert not _within_tolerance(cycle, 1e-9)

    def test_gate_rejects_an_orbit_through_a_pole(self):
        # (z + 0.5) / z^2 sends a point near its pole 0 to about 5e31, and
        # 5e31 back within the residual gate of that point: an image of the
        # superattracting cycle {0, infinity}, not a period-2 cycle
        m = MapSpec.rational(Polynomial((0.5, 1)), Polynomial((0, 0, 1)))
        assert _collect_cycles(m, np.array([1e-16 + 1e-17j]), 2, 1e-9) == ()


class TestSolveAlpha:
    def test_fixed_point_closed_form(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        sol = solve_alpha_on_cycle(squaring_map, cyc, VectorFieldSpec.constant(1))
        assert abs(sol.alpha[0] - (-1.0)) < 1e-14
        assert sol.max_residual < 1e-14

    def test_two_cycle_hand_computation(self, squaring_map):
        cyc = cycle_from_point(squaring_map, OMEGA, 2)
        sol = solve_alpha_on_cycle(squaring_map, cyc, VectorFieldSpec.constant(1))
        expected = (2 * OMEGA**2 + 1) / (-3)
        assert abs(sol.alpha[0] - expected) < 1e-13

    def test_zero_field_zero_alpha(self, squaring_map):
        cyc = cycle_from_point(squaring_map, OMEGA, 2)
        sol = solve_alpha_on_cycle(squaring_map, cyc, VectorFieldSpec.constant(0))
        assert all(a == 0 for a in sol.alpha)

    def test_parabolic_rejected(self):
        # z^2 + 1/4 has the parabolic fixed point 1/2 with multiplier 1
        m = MapSpec.unicritical(2, 0.25)
        cyc = Cycle(points=(0.5 + 0j,), period=1, multiplier=1 + 0j, residual=0.0)
        with pytest.raises(ParabolicCycleError):
            solve_alpha_on_cycle(m, cyc, VectorFieldSpec.constant(1))

    def test_functional_equation_residuals_random_parameters(self):
        # 20 seeded parameters in the disk |c| < 2; every found cycle of
        # period <= 8 solves with residual below 1e-10 * max(1, |alpha|)
        rng = random.Random(2024)
        v = VectorFieldSpec.constant(1)
        checked = 0
        for _ in range(20):
            angle = rng.uniform(0, 2 * math.pi)
            radius = math.sqrt(rng.uniform(0, 1)) * 2
            c = radius * complex(math.cos(angle), math.sin(angle))
            m = MapSpec.unicritical(2, c)
            seeds = default_cycle_seeds(m, count=200)
            for period in range(1, 9):
                for cyc in find_cycles(m, period, seeds):
                    if abs(1 - cyc.multiplier) <= 1e-6:
                        continue
                    sol = solve_alpha_on_cycle(m, cyc, v)
                    bound = 1e-10 * max(1.0, max(abs(a) for a in sol.alpha))
                    assert sol.max_residual < bound
                    checked += 1
        assert checked > 100

    def test_residual_definition(self, chebyshev_map):
        cyc = find_cycles(chebyshev_map, 3)[0]
        v = VectorFieldSpec.from_coefficients([0.5, 1j])
        sol = solve_alpha_on_cycle(chebyshev_map, cyc, v)
        n = cyc.period
        for i in range(n):
            _, dz = eval_map(chebyshev_map, cyc.points[i])
            lhs = complex(v(cyc.points[i]))
            rhs = sol.alpha[(i + 1) % n] - dz * sol.alpha[i]
            assert abs(lhs - rhs) == pytest.approx(sol.residuals[i], abs=1e-15)


def test_classification_labels(squaring_map, chebyshev_map):
    attracting = cycle_from_point(squaring_map, 0j, 1)
    assert attracting.classification == "attracting"
    repelling = cycle_from_point(chebyshev_map, 2.0, 1)
    assert repelling.classification == "repelling"
    assert repelling.is_repelling


def test_multiplier_is_derivative_product(chebyshev_map):
    for period in (2, 3, 4):
        for cyc in find_cycles(chebyshev_map, period):
            product = 1 + 0j
            for p in cyc.points:
                product *= eval_map(chebyshev_map, p)[1]
            assert abs(product - cyc.multiplier) <= 1e-10 * max(
                1.0, abs(cyc.multiplier)
            )
