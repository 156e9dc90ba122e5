"""Periodic orbits: Newton search from many seeds, and the exact solve of
the linearized conjugacy equation v = alpha(R(z)) - DR(z) alpha(z) on a cycle.

On a period-n cycle the functional equation closes up into an n-by-n cyclic
linear system with an explicit solution: propagate forward and divide the
wrap-around by (1 - multiplier).  Multiplier 1 (parabolic) is genuinely
singular and rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParabolicCycleError, PoleError
from .fields import VectorFieldSpec
from .maps import MapSpec, eval_map, eval_map_many
from .orbits import julia_sample

#: |1 - multiplier| at or below this is treated as parabolic.
PARABOLIC_TOL = 1e-6

#: Cycle points are keyed after rounding to this many decimals.
KEY_DECIMALS = 8


@dataclass(frozen=True)
class Cycle:
    """A period-n orbit with its multiplier (product of DR over the cycle).

    residual is |f^n(z) - z| at the point z Newton converged to.  find_cycles
    rotates the cycle to its canonical base afterwards, so z need not be
    `base`, and |f^n(base) - base| can be much larger for a strongly
    repelling cycle.
    """

    points: tuple[complex, ...]
    period: int
    multiplier: complex
    residual: float

    def __post_init__(self):
        if self.period < 1 or len(self.points) != self.period:
            raise ValueError("cycle needs exactly `period` points")

    @property
    def base(self) -> complex:
        return self.points[0]

    @property
    def is_repelling(self) -> bool:
        return abs(self.multiplier) > 1.0

    @property
    def classification(self) -> str:
        m = abs(self.multiplier)
        if m > 1.0 + 1e-9:
            return "repelling"
        if m < 1.0 - 1e-9:
            return "attracting"
        return "indifferent"


def _point_key(z: complex) -> tuple[float, float]:
    re = round(z.real, KEY_DECIMALS)
    im = round(z.imag, KEY_DECIMALS)
    # avoid distinct -0.0/0.0 keys
    return (re + 0.0, im + 0.0)


def _build_cycle(
    map: MapSpec, p: complex, period: int, canonical: bool
) -> Cycle | None:
    """Forward points, multiplier, and residual for a refined period point."""
    points = [p]
    multiplier = 1 + 0j
    w = p
    for _ in range(period):
        value, dw = eval_map(map, w)
        multiplier *= dw
        w = value
        if len(points) < period:
            points.append(w)
    residual = abs(w - p)
    if canonical:
        # the multiplier is a cyclic product, identical for every rotation
        i0 = min(range(period), key=lambda i: _point_key(points[i]))
        points = points[i0:] + points[:i0]
    return Cycle(tuple(points), period, multiplier, residual)


def _minimal_period(map: MapSpec, p: complex, period: int) -> int:
    w = p
    for q in range(1, period):
        w, _ = eval_map(map, w)
        if period % q == 0 and abs(w - p) < 1e-7 * max(1.0, abs(p)):
            return q
    return period


def _newton_polish(
    map: MapSpec, z: complex, period: int, max_iter: int = 40
) -> complex | None:
    for _ in range(max_iter):
        w = z
        deriv = 1 + 0j
        try:
            for _ in range(period):
                value, dw = eval_map(map, w)
                deriv *= dw
                w = value
        except PoleError:
            return None
        f = w - z
        # rounding in f^n(z) grows with |(f^n)'(z)|, so an unscaled test
        # sits below the floor of strongly repelling cycles
        if abs(f) <= 1e-14 * max(1.0, abs(z)) * max(1.0, abs(deriv)):
            return z
        fprime = deriv - 1.0
        if fprime == 0 or not math.isfinite(abs(fprime)):
            return None
        step = f / fprime
        if not math.isfinite(abs(step)):
            return None
        z = z - step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            return z
    return None


def find_cycles(
    map: MapSpec,
    period: int,
    seeds: Sequence[complex] | None = None,
    tol: float = 1e-9,
) -> tuple[Cycle, ...]:
    """All cycles of exactly `period` reachable by Newton from the seeds.

    Cycles whose minimal period properly divides `period` are filtered
    out.  Each cycle is rotated so its base point is the lexicographically
    smallest under (Re, Im) after rounding to 1e-8, deduplicated on that
    key, and the results are sorted by it; the output is deterministic for
    a fixed seed list.  No convergent seeds means an empty tuple.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if seeds is None:
        seeds = default_cycle_seeds(map)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed list must be nonempty")

    converged = _newton_many(map, np.asarray(seeds, dtype=complex), period, tol)
    # hundreds of seeds land on a handful of points; polish one per cluster
    distinct: dict[tuple[float, float], complex] = {}
    for p in converged:
        distinct.setdefault((round(p.real, 6), round(p.imag, 6)), p)

    found: dict[tuple[float, float], Cycle] = {}
    for _, p in sorted(distinct.items()):
        polished = _newton_polish(map, p, period)
        if polished is None:
            continue
        p = polished
        if _minimal_period(map, p, period) != period:
            continue
        cycle = _build_cycle(map, p, period, canonical=True)
        if cycle is None or cycle.residual > tol * max(1.0, abs(p)):
            continue
        key = _point_key(cycle.base)
        kept = found.get(key)
        if kept is None or cycle.residual < kept.residual:
            found[key] = cycle

    cycles = [found[k] for k in sorted(found)]
    # collapse keys that round apart but represent the same cycle
    out: list[Cycle] = []
    for cyc in cycles:
        if out and abs(cyc.base - out[-1].base) < 1e-7 * max(1.0, abs(cyc.base)):
            continue
        out.append(cyc)
    return tuple(out)


def _newton_many(
    map: MapSpec, z: np.ndarray, period: int, tol: float, max_iter: int = 80
) -> list[complex]:
    z = z.astype(complex).copy()
    alive = np.ones(z.shape, dtype=bool)
    done = np.zeros(z.shape, dtype=bool)
    # diverging seeds overflow before the masks drop them; that is expected
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            if not alive.any():
                break
            w = z.copy()
            deriv = np.ones_like(z)
            ok = alive.copy()
            for _ in range(period):
                value, dw, valid = eval_map_many(map, w)
                ok &= valid
                deriv = np.where(ok, deriv * dw, deriv)
                w = np.where(ok, value, w)
            f = w - z
            fprime = deriv - 1.0
            ok &= np.isfinite(f) & (np.abs(z) < 1e8)
            newly_done = ok & (np.abs(f) <= tol * np.maximum(1.0, np.abs(z)))
            done |= newly_done
            alive &= ok & ~newly_done
            safe = np.abs(fprime) > 1e-14
            step = np.where(alive & safe, f / np.where(safe, fprime, 1.0), 0.0)
            alive &= safe
            z = z - step
    return [complex(v) for v in z[done]]


def default_cycle_seeds(
    map: MapSpec, count: int = 500, seed: int = 7
) -> tuple[complex, ...]:
    """Julia-set samples plus a rectangular grid covering them with margin.

    Raises ValueError when count is below 1."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n_julia = max(1, (count * 3) // 5)
    samples = julia_sample(map, n_julia, transient=50, seed=seed)
    re = [z.real for z in samples]
    im = [z.imag for z in samples]
    center = complex((max(re) + min(re)) / 2, (max(im) + min(im)) / 2)
    half = 0.75 * max(max(re) - min(re), max(im) - min(im), 1.0) + 0.5
    n_grid = count - len(samples)
    side = max(2, math.ceil(math.sqrt(n_grid)))
    xs = np.linspace(center.real - half, center.real + half, side)
    ys = np.linspace(center.imag - half, center.imag + half, side)
    grid = [complex(x, y) for y in ys for x in xs]
    return samples + tuple(grid[:n_grid])


@dataclass(frozen=True)
class CycleAlphaSolution:
    """alpha at each cycle point, with per-point functional-equation residuals."""

    alpha: tuple[complex, ...]
    residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def solve_alpha_on_cycle(
    map: MapSpec,
    cycle: Cycle,
    v: VectorFieldSpec,
    parabolic_tol: float = PARABOLIC_TOL,
) -> CycleAlphaSolution:
    """Exact solve of v(p_i) = alpha[i+1] - DR(p_i) alpha[i] around the cycle.

    alpha at the base point is the weighted wrap-around sum divided by
    (1 - multiplier); the remaining values propagate forward.  One or two
    refinement passes push the residuals to rounding level.  Raises
    ParabolicCycleError when |1 - multiplier| <= parabolic_tol.
    """
    n = cycle.period
    points = cycle.points
    derivs = [eval_map(map, p)[1] for p in points]
    rho = 1 + 0j
    for dw in derivs:
        rho *= dw
    if abs(1.0 - rho) <= parabolic_tol:
        raise ParabolicCycleError(
            f"multiplier {rho} within {parabolic_tol} of 1; linearized equation singular"
        )
    values = [complex(v(p)) for p in points]

    alpha = _cyclic_solve(values, derivs, rho)
    residuals = _equation_residuals(values, derivs, alpha)
    for _ in range(2):
        scale = max(1.0, max(abs(a) for a in alpha))
        if max(residuals) <= 1e-14 * scale:
            break
        errors = [
            values[i] - (alpha[(i + 1) % n] - derivs[i] * alpha[i]) for i in range(n)
        ]
        delta = _cyclic_solve(errors, derivs, rho)
        alpha = [a + d for a, d in zip(alpha, delta)]
        residuals = _equation_residuals(values, derivs, alpha)

    return CycleAlphaSolution(tuple(alpha), tuple(residuals))


def _cyclic_solve(
    values: list[complex], derivs: list[complex], rho: complex
) -> list[complex]:
    n = len(values)
    weights = [1 + 0j] * n
    for k in range(n - 2, -1, -1):
        weights[k] = weights[k + 1] * derivs[k + 1]
    head = sum(values[k] * weights[k] for k in range(n)) / (1.0 - rho)
    alpha = [head]
    for k in range(n - 1):
        alpha.append(derivs[k] * alpha[k] + values[k])
    return alpha


def _equation_residuals(
    values: list[complex], derivs: list[complex], alpha: list[complex]
) -> list[float]:
    n = len(values)
    return [
        abs(values[i] - (alpha[(i + 1) % n] - derivs[i] * alpha[i])) for i in range(n)
    ]


def cycle_from_point(
    map: MapSpec, z0: complex, period: int, tol: float = 1e-9
) -> Cycle:
    """Newton from z0 on the period equation; base point stays the converged
    point (no canonical rotation), so the caller controls which cycle point
    the result tracks.  If the converged orbit has a smaller minimal period,
    the cycle is returned at that period."""
    polished = _newton_polish(map, complex(z0), period)
    if polished is None:
        raise ValueError(f"Newton did not converge from {z0} at period {period}")
    actual = _minimal_period(map, polished, period)
    cycle = _build_cycle(map, polished, actual, canonical=False)
    if cycle is None or cycle.residual > tol * max(1.0, abs(polished)):
        raise ValueError(f"no period-{period} cycle through {z0} at tolerance {tol}")
    return cycle
