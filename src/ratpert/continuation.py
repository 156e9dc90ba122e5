"""Holomorphic continuation of repelling cycles along R + lambda*v.

Predictor-corrector in lambda: the predictor is the exact linearization
velocity from the cycle solve (solve_alpha_on_cycle, on DR from the walk
that accepted the cycle), the corrector is the census's Newton
(_newton_polish) on the periodic-point equation of R + lambda*v, which
maps.perturbed builds, checked, once per attempted step.  Because the
predictor is the same object the continuation is meant to validate, a
finite-difference comparison of the two (motion_velocity_check) is the
module's keystone self-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .cycles import Cycle, _alpha_from_derivatives, _newton_polish, _within_tolerance, solve_alpha_on_cycle
from .errors import InvalidCycleError, ParabolicCycleError
from .fields import VectorFieldSpec
from .maps import MapSpec, perturbed

#: Continuation stops when |multiplier| falls to 1 + this margin: the
#: cycle is about to stop being repelling and the tracked branch degenerates.
DEGENERACY_MARGIN = 1e-3

#: The residual gate of every continued cycle (cycles._within_tolerance).
CONTINUATION_TOL = 1e-12


@dataclass(frozen=True)
class ContinuationResult:
    """Accepted lambda values with the continued cycle at each of them.

    velocity_at_zero is the first-step finite difference of the base point
    (0 when no step was taken); stopped_reason is "reached_target",
    "multiplier_degenerate" or "newton_failure".
    """

    lambda_path: tuple[complex, ...]
    cycles: tuple[Cycle, ...]
    velocity_at_zero: complex
    stopped_reason: str

    @property
    def final_cycle(self) -> Cycle:
        return self.cycles[-1]


def continue_cycle(
    map: MapSpec,
    v: VectorFieldSpec,
    cycle: Cycle,
    lambda_target: complex,
    steps: int = 16,
) -> ContinuationResult:
    """Track the cycle from lambda = 0 to lambda_target.

    At lambda = 0 and after every corrector step the cycle comes from the
    census's period solver (`_newton_polish`, with the tracked point as
    base) and must pass its residual gate,
    `_within_tolerance`, at CONTINUATION_TOL; the gate scales with the
    multiplier.  The step is halved whenever the corrector fails or the base
    point jumps implausibly far; if the step underflows, the path so far is
    returned with stopped_reason "newton_failure".  Crossing down through
    |multiplier| = 1 + DEGENERACY_MARGIN stops with "multiplier_degenerate".
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not cycle.is_repelling:
        raise InvalidCycleError(
            f"cycle multiplier {cycle.multiplier} is not repelling"
        )
    polished = _newton_polish(map, cycle.base, cycle.period)
    if polished is None:
        raise InvalidCycleError("Newton fails on the cycle at lambda = 0")
    current, derivs = polished
    if not _within_tolerance(current, CONTINUATION_TOL):
        raise InvalidCycleError("cycle does not satisfy its equation at lambda = 0")

    lambda_target = complex(lambda_target)
    path: list[complex] = [0j]
    cycles: list[Cycle] = [current]
    if lambda_target == 0:
        return ContinuationResult(tuple(path), tuple(cycles), 0j, "reached_target")

    lam = 0j
    step = lambda_target / steps
    min_step = abs(lambda_target) * 1e-12
    reason = "reached_target"
    alpha = None
    while lam != lambda_target:
        remaining = lambda_target - lam
        final_step = abs(step) >= abs(remaining)
        dl = remaining if final_step else step
        if alpha is None:
            # DR on the last accepted cycle comes from the walk that accepted
            # it, on the map of its lambda; a rejected step keeps its alpha
            try:
                alpha = _alpha_from_derivatives(cycles[-1], derivs, v).alpha[0]
            except ParabolicCycleError:
                reason = "multiplier_degenerate"
                break
        base = cycles[-1].base
        next_map = perturbed(map, v, lam + dl)
        corrected = _newton_polish(next_map, base + alpha * dl, cycles[-1].period)
        accepted = None
        if corrected is not None:
            jump = abs(corrected[0].base - base)
            allowed = 10.0 * abs(alpha * dl) + 1e-6 * max(1.0, abs(base))
            if jump <= allowed and _within_tolerance(corrected[0], CONTINUATION_TOL):
                accepted, next_derivs = corrected
        if accepted is None:
            step = step / 2.0
            if abs(step) < min_step:
                reason = "newton_failure"
                break
            continue
        if abs(accepted.multiplier) <= 1.0 + DEGENERACY_MARGIN:
            reason = "multiplier_degenerate"
            break
        # land exactly on the target; lam + dl can round past it
        lam = lambda_target if final_step else lam + dl
        path.append(lam)
        cycles.append(accepted)
        derivs, alpha = next_derivs, None

    if len(cycles) >= 2:
        velocity = (cycles[1].base - cycles[0].base) / (path[1] - path[0])
    else:
        velocity = 0j
    return ContinuationResult(tuple(path), tuple(cycles), velocity, reason)


class MotionCheck(NamedTuple):
    alpha: complex
    fd_velocity: complex
    discrepancy: float


def motion_velocity_check(
    map: MapSpec,
    v: VectorFieldSpec,
    cycle: Cycle,
    h: float,
) -> MotionCheck:
    """Compare the solved linearization velocity at the cycle's base point
    against a central finite difference of the continued base point.

    The two must agree to O(h^2); a large discrepancy means either the
    cycle solve or the continuation is wrong, which is exactly what makes
    this the keystone cross-check.
    """
    if not (h > 0) or not math.isfinite(h):
        raise ValueError("h must be a positive finite real")
    sol = solve_alpha_on_cycle(map, cycle, v)
    plus = continue_cycle(map, v, cycle, complex(h), steps=1)
    minus = continue_cycle(map, v, cycle, complex(-h), steps=1)
    if plus.stopped_reason != "reached_target" or minus.stopped_reason != "reached_target":
        raise InvalidCycleError(
            f"continuation to +/-{h} did not complete "
            f"({plus.stopped_reason}/{minus.stopped_reason})"
        )
    fd = (plus.final_cycle.base - minus.final_cycle.base) / (2.0 * h)
    return MotionCheck(sol.alpha[0], fd, abs(sol.alpha[0] - fd))
