import cmath
import hashlib

import pytest

from ratpert import (
    InvalidCycleError,
    MapSpec,
    ParabolicCycleError,
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
from ratpert.cli import parse_map
from ratpert.continuation import DEGENERACY_MARGIN, ContinuationResult
from ratpert.cycles import Cycle, _newton_polish, _within_tolerance
from ratpert.serialize import encode, json_dumps

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

    def test_nearly_parabolic_start_stops_degenerate(self):
        # z^2 + c with the fixed point z0 = (1 + 1e-7)/2 has multiplier
        # 2 z0 = 1 + 1e-7: repelling, but within PARABOLIC_TOL of 1, so the
        # predictor's alpha cannot be solved and no step is taken
        z0 = (1 + 1e-7) / 2
        m = MapSpec.unicritical(2, z0 - z0 * z0)
        cyc = cycle_from_point(m, z0, 1)
        assert 1 < abs(cyc.multiplier) < 1 + 1e-6
        result = continue_cycle(m, ONE_FIELD, cyc, 0.01, steps=4)
        assert result.stopped_reason == "multiplier_degenerate"
        assert result.lambda_path == (0j,)

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


def reference_build_cycle(map, p, period):
    """The cycle through p from a walk of its own, as continue_cycle built
    it after Newton had stopped there."""
    points = [p]
    multiplier = 1 + 0j
    w = p
    for _ in range(period):
        value, dw = eval_map(map, w)
        multiplier *= dw
        w = value
        if len(points) < period:
            points.append(w)
    return Cycle(tuple(points), period, multiplier, abs(w - p))


def reference_continue_cycle(map, v, cycle, lambda_target, steps=16, degeneracy_margin=DEGENERACY_MARGIN, tol=1e-12):
    """continue_cycle as it was while every step built R + lam v twice,
    solved alpha on the first through solve_alpha_on_cycle, and walked f^n
    once more (reference_build_cycle) at the point the corrector stopped at."""
    tol = max(tol, 1e-12)
    base = _newton_polish(map, cycle.base, cycle.period)[0].base
    current = reference_build_cycle(map, base, cycle.period)
    assert _within_tolerance(current, tol)
    lambda_target = complex(lambda_target)
    path, cycles = [0j], [current]
    lam = 0j
    step = lambda_target / steps
    min_step = abs(lambda_target) * 1e-12
    reason = "reached_target"
    while lam != lambda_target:
        remaining = lambda_target - lam
        final_step = abs(step) >= abs(remaining)
        dl = remaining if final_step else step
        try:
            sol = solve_alpha_on_cycle(perturbed(map, v, lam), cycles[-1], v)
        except ParabolicCycleError:
            reason = "multiplier_degenerate"
            break
        predicted = cycles[-1].base + sol.alpha[0] * dl
        next_map = perturbed(map, v, lam + dl)
        corrected = _newton_polish(next_map, predicted, cycles[-1].period)
        accepted = None
        if corrected is not None:
            corrected = corrected[0].base
            jump = abs(corrected - cycles[-1].base)
            allowed = 10.0 * abs(sol.alpha[0] * dl) + 1e-6 * max(1.0, abs(cycles[-1].base))
            if jump <= allowed:
                accepted = reference_build_cycle(next_map, corrected, cycles[-1].period)
                if not _within_tolerance(accepted, tol):
                    accepted = None
        if accepted is None:
            step = step / 2.0
            if abs(step) < min_step:
                reason = "newton_failure"
                break
            continue
        if abs(accepted.multiplier) <= 1.0 + degeneracy_margin:
            reason = "multiplier_degenerate"
            break
        lam = lambda_target if final_step else lam + dl
        path.append(lam)
        cycles.append(accepted)
    velocity = (cycles[1].base - cycles[0].base) / (path[1] - path[0]) if len(cycles) >= 2 else 0j
    return ContinuationResult(tuple(path), tuple(cycles), velocity, reason)


REFERENCE_MAPS = ["unicritical:2,-0.12+0.75i", "unicritical:2,-1.7", "unicritical:3,0.3+0.5i",
                  "rational:0,-3,0,4/1", "rational:-1,0,1/1,0,0.05", "rational:0.1,-1,0.5,1/1,0.2"]
REFERENCE_FIELDS = [ONE_FIELD, VectorFieldSpec.from_coefficients([0.3, 0, -0.7]),
                    VectorFieldSpec.rational(Polynomial((1,)), Polynomial((3, 1)))]
# (lambda target, steps): small targets in many steps, and large one-step
# targets whose corrector fails until the step has been halved
REFERENCE_TARGETS = [(1e-3, 8), (0.05 + 0.02j, 4), (-0.2, 2), (0.5, 1), (3, 1), (2j, 1)]


class TestReferenceLoop:
    """continue_cycle reuses the predictor's map and DR from the step that
    accepted the cycle, and the corrector's walk as the cycle; its results
    are those of the loop that recomputed each, repr for repr."""

    @pytest.mark.parametrize("text", REFERENCE_MAPS)
    def test_corpus_matches_the_reference(self, text):
        m = parse_map(text)
        reasons = set()
        for period in (1, 2, 3):
            for cyc in find_cycles(m, period):
                if not cyc.is_repelling:
                    continue
                for v in REFERENCE_FIELDS:
                    for target, steps in REFERENCE_TARGETS:
                        result = continue_cycle(m, v, cyc, target, steps=steps)
                        assert repr(result) == repr(reference_continue_cycle(m, v, cyc, target, steps))
                        reasons.add(result.stopped_reason)
        assert "reached_target" in reasons

    def test_halving_path(self):
        # a one-step target of 4 is halved twice: 0, 2, 3, 4
        m = parse_map("rational:-1,0,1/1,0,0.05")
        cyc = find_cycles(m, 3)[0]
        result = continue_cycle(m, ONE_FIELD, cyc, 4, steps=1)
        assert result.lambda_path == (0j, 2, 3, 4)
        assert result.stopped_reason == "reached_target"
        assert repr(result) == repr(reference_continue_cycle(m, ONE_FIELD, cyc, 4, steps=1))

    def test_degenerate_stop(self):
        m = parse_map("unicritical:2,-1.7")
        for cyc in find_cycles(m, 2):
            result = continue_cycle(m, ONE_FIELD, cyc, 0.5, steps=1)
            assert result.stopped_reason == "multiplier_degenerate"
            assert repr(result) == repr(reference_continue_cycle(m, ONE_FIELD, cyc, 0.5, steps=1))


def test_rational_field_continuation_keeps_its_bytes():
    # the only pinned path through perturbed's non-constant-vd branch,
    # (vn Q).scale(lambda) and Q vd: v = (1 + z/2)/(2 + z^2), pinned while
    # each step still built R + lambda v through the public constructors
    m = parse_map("rational:-1,0,1/1,0,0.05")
    v = VectorFieldSpec.rational(Polynomial((1, 0.5)), Polynomial((2, 0, 1)))
    result = continue_cycle(m, v, find_cycles(m, 3)[0], 0.0625 + 0.03125j, steps=64)
    assert result.stopped_reason == "reached_target" and len(result.lambda_path) == 65
    assert (hashlib.sha256(json_dumps(encode(result)).encode()).hexdigest()
            == "297c4eaff005a58a2c3e96ee800291e7f2d1b1ce04c21a3f54efdad462541d42")
