import cmath

import pytest

from ratpert import (
    InvalidCycleError,
    MapSpec,
    Polynomial,
    VectorFieldSpec,
    continue_cycle,
    cycle_from_point,
    eval_map,
    find_cycles,
    motion_velocity_check,
    perturbed,
    solve_alpha_on_cycle,
)

OMEGA = cmath.exp(2j * cmath.pi / 3)
ONE_FIELD = VectorFieldSpec.constant(1)


def continued_fixed_point(lam):
    """Quadratic-formula oracle: the fixed point of z^2 + lam near 1."""
    return (1 + cmath.sqrt(1 - 4 * lam)) / 2


class TestFixedPointContinuation:
    def test_quadratic_formula_oracle(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        result = continue_cycle(squaring_map, ONE_FIELD, cyc, 0.1, steps=10)
        assert result.stopped_reason == "reached_target"
        assert abs(result.final_cycle.base - continued_fixed_point(0.1)) < 1e-10

    def test_intermediate_points_on_branch(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        result = continue_cycle(squaring_map, ONE_FIELD, cyc, 0.2, steps=8)
        for lam, cycle in zip(result.lambda_path, result.cycles):
            assert abs(cycle.base - continued_fixed_point(lam)) < 1e-9

    def test_target_zero_returns_input(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        result = continue_cycle(squaring_map, ONE_FIELD, cyc, 0)
        assert result.lambda_path == (0j,)
        assert result.cycles[0].base == pytest.approx(cyc.base)
        assert result.velocity_at_zero == 0
        assert result.stopped_reason == "reached_target"

    def test_velocity_at_zero_first_order(self, squaring_map):
        # dp/dlam at 0 is -1; the recorded forward difference is first order
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        result = continue_cycle(squaring_map, ONE_FIELD, cyc, 0.1, steps=20)
        assert abs(result.velocity_at_zero - (-1.0)) < 0.02

    def test_complex_lambda_path(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        target = 0.05 + 0.08j
        result = continue_cycle(squaring_map, ONE_FIELD, cyc, target, steps=12)
        assert result.stopped_reason == "reached_target"
        assert abs(result.final_cycle.base - continued_fixed_point(target)) < 1e-10

    def test_round_trip_returns_to_start(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        out = continue_cycle(squaring_map, ONE_FIELD, cyc, 0.05, steps=8)
        forward_map = perturbed(squaring_map, ONE_FIELD, 0.05)
        back = continue_cycle(
            forward_map, ONE_FIELD, out.final_cycle, -0.05, steps=8
        )
        assert back.stopped_reason == "reached_target"
        assert abs(back.final_cycle.base - cyc.base) < 1e-8

    def test_multiplier_stays_repelling_along_path(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        result = continue_cycle(squaring_map, ONE_FIELD, cyc, 0.2, steps=16)
        assert all(abs(c.multiplier) > 1 for c in result.cycles)

    def test_degenerate_stop_before_parabolic(self, squaring_map):
        # the branch hits multiplier 1 at lam = 1/4; asking for 0.3 must
        # stop with the degeneracy reason, never cross
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        result = continue_cycle(squaring_map, ONE_FIELD, cyc, 0.3, steps=30)
        assert result.stopped_reason == "multiplier_degenerate"
        assert all(abs(c.multiplier) > 1 for c in result.cycles)
        assert max(l.real for l in result.lambda_path) < 0.25

    def test_non_repelling_rejected(self, squaring_map):
        attracting = cycle_from_point(squaring_map, 0j, 1)
        with pytest.raises(InvalidCycleError):
            continue_cycle(squaring_map, ONE_FIELD, attracting, 0.1)


class TestStronglyRepellingCycle:
    def test_period_four_with_large_multiplier_reaches_target(self):
        # |multiplier| ~ 119: |f^4(z) - z| cannot get below 1e-14 |z| in
        # floating point here, so an unscaled Newton stop test failed every
        # corrector step and the path ended in newton_failure
        m = MapSpec.unicritical(2, 0.8157479156123594 - 1.586827544914544j)
        cyc = cycle_from_point(m, -1.2736359013599081 - 1.077017890159988j, 4)
        assert cyc.period == 4 and abs(cyc.multiplier) > 100
        result = continue_cycle(m, ONE_FIELD, cyc, 1e-3, steps=64)
        assert result.stopped_reason == "reached_target"
        assert result.lambda_path[-1] == 1e-3
        assert result.final_cycle.residual <= 1e-12 * max(1.0, abs(result.final_cycle.base))

    @pytest.mark.parametrize("period", [8, 9])
    def test_most_repelling_census_cycles_continue(self, period):
        # |multiplier| up to 7e4: f^n(z) - z cannot get below 1e-12 |z|
        # here, so the continuation needs the census's multiplier-scaled
        # gate to accept the cycles the census returns
        m = MapSpec.unicritical(2, -0.5969 - 1.6758j)
        cycles = sorted(find_cycles(m, period), key=lambda c: abs(c.multiplier))[-5:]
        assert abs(cycles[-1].multiplier) > 1e4
        for cyc in cycles:
            result = continue_cycle(m, ONE_FIELD, cyc, 1e-6, steps=4)
            assert result.stopped_reason == "reached_target"
            assert len(result.lambda_path) == 5
            chk = motion_velocity_check(m, ONE_FIELD, cyc, 1e-6)
            assert chk.discrepancy <= 1e-8 * abs(chk.alpha)


class TestMotionVelocity:
    def test_fixed_point_alpha_equals_derivative(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        chk = motion_velocity_check(squaring_map, ONE_FIELD, cyc, 1e-4)
        assert abs(chk.alpha - (-1.0)) < 1e-14
        assert abs(chk.fd_velocity - (-1.0)) < 1e-6
        assert chk.discrepancy < 1e-6

    def test_two_cycle_matches_hand_alpha(self, squaring_map):
        cyc = cycle_from_point(squaring_map, OMEGA, 2)
        chk = motion_velocity_check(squaring_map, ONE_FIELD, cyc, 1e-4)
        expected = (2 * OMEGA**2 + 1) / (-3)
        assert abs(chk.alpha - expected) < 1e-13
        assert chk.discrepancy < 1e-5

    def test_zero_field_zero_velocity(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        chk = motion_velocity_check(
            squaring_map, VectorFieldSpec.constant(0), cyc, 1e-4
        )
        assert chk.alpha == 0
        assert abs(chk.fd_velocity) < 1e-11
        assert chk.discrepancy < 1e-11

    def test_quadratic_field_on_two_cycle(self, squaring_map):
        # independent check with a non-constant field: central difference
        # against the solved velocity at h = 1e-5
        v = VectorFieldSpec.from_coefficients([0.3, 0, -0.7])
        cyc = cycle_from_point(squaring_map, OMEGA, 2)
        chk = motion_velocity_check(squaring_map, v, cyc, 1e-5)
        assert chk.discrepancy < 1e-7

    def test_bad_h_rejected(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        with pytest.raises(ValueError):
            motion_velocity_check(squaring_map, ONE_FIELD, cyc, 0.0)


class TestRationalMapContinuation:
    def test_rational_map_cycle_moves(self):
        # (z^2+1)/z has no finite fixed points, so use a 2-cycle and
        # verify the continued orbit satisfies the perturbed equation
        m = MapSpec.rational(Polynomial((1, 0, 1)), Polynomial((0, 1)))
        cycles = [
            c
            for c in find_cycles(m, 2)
            if c.is_repelling and abs(1 - c.multiplier) > 1e-6
        ]
        assert cycles, "expected a repelling 2-cycle for (z^2+1)/z"
        cyc = cycles[0]
        sol = solve_alpha_on_cycle(m, cyc, ONE_FIELD)
        assert sol.max_residual < 1e-10 * max(1.0, max(abs(a) for a in sol.alpha))
        result = continue_cycle(m, ONE_FIELD, cyc, 0.01, steps=4)
        assert result.stopped_reason == "reached_target"
        moved = result.final_cycle
        shifted = perturbed(m, ONE_FIELD, 0.01)
        w = moved.base
        for _ in range(moved.period):
            w, _ = eval_map(shifted, w)
        assert abs(w - moved.base) < 1e-9
