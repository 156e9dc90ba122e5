"""Periodic orbits: the cycle census, and the exact solve of the linearized
conjugacy equation v = alpha(R(z)) - DR(z) alpha(z) on a cycle.

The census finds every root of the period equation at once (Aberth-Ehrlich
sweeps seeded by a backward tree; for a rational map in homogeneous
coordinates, in a chart that holds infinity), then builds one cycle per
group of roots.  It shares one period solver (one polish, one cycle
builder, one minimal-period test and one residual gate) with
cycle_from_point, the continuation and the classification of z**d + c.

On a period-n cycle the functional equation closes up into an n-by-n cyclic
linear system with an explicit solution: propagate forward and divide the
wrap-around by (1 - multiplier).  Multiplier 1 (parabolic) is genuinely
singular and rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .errors import ParabolicCycleError, PoleError
from .fields import VectorFieldSpec
from .maps import MapSpec, _infinity_multiplier, eval_map, eval_map_many
from .orbits import julia_sample
from .polynomial import Polynomial, _repulsion

#: |1 - multiplier| at or below this is treated as parabolic.
PARABOLIC_TOL = 1e-6

#: Cycle points are keyed after rounding to this many decimals.
KEY_DECIMALS = 8

#: _newton_polish stops at |f^n(z) - z| <= this * max(1, |z|) * max(1, |(f^n)'(z)|):
#: rounding in f^n grows with the derivative, so no smaller residual is
#: reachable on a strongly repelling cycle.
NEWTON_TOL = 1e-14

#: Newton gives up on a point once it leaves |z| < this: it is walking to a
#: cycle at infinity (or overflowing), not to a finite one.
NEWTON_MAX_MODULUS = 1e8

#: Largest d**period of a census (a rational map adds the root at infinity).
#: d = 2 reaches period 12, where the 4,096 roots take well under a second;
#: d = 3 reaches period 7.
CENSUS_MAX_ROOTS = 4096

#: The candidate nearest a point of a found cycle is that point's root when
#: it is within this distance, relative to max(1, |point|).
CLAIM_TOL = 1e-6

#: An orbit back within this of its start, relative to max(1, |point|),
#: has closed (_minimal_period).
SAME_POINT_TOL = 1e-7

#: Reach of a double root of f^n(z) - z (a parabolic cycle of period n with
#: multiplier 1): its two roots spread over about sqrt(eps) in double
#: precision, and a cycle split off by perturbing it has multiplier within
#: PARABOLIC_TOL of 1 only within about sqrt(PARABOLIC_TOL).
PARABOLIC_RADIUS = math.sqrt(PARABOLIC_TOL)

#: A parabolic period-n cycle whose points m steps apart (m | n, m < n) stay
#: within this fraction of their distance to its other points (of
#: max(1, |z|) when m = 1) is a satellite collapsed onto a period-m cycle: a
#: cluster of q + 1 roots, q = n / m, around each parent point, spread over
#: about eps**(1/(q+1)), which stays under this fraction up to about q = 10.
SATELLITE_RATIO = 0.1

#: Aberth sweeps stop moving a root whose Newton correction is below this,
#: relative to max(1, |z|).
ABERTH_TOL = 1e-12

#: Sweep cap; simple roots settle in 3-30 sweeps, clusters never do.
ABERTH_MAX_SWEEPS = 100

#: Seeds are offset by this, relative to the largest, a golden angle apart.
SEED_OFFSET = 1e-6
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


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


def _walk(map: MapSpec, z: complex, period: int) -> tuple[list[complex], list[complex], complex]:
    """The period + 1 iterates of f from z, DR at the first period of them,
    and the product of those from 1 + 0j."""
    points, derivatives, product = [z], [], 1 + 0j
    for _ in range(period):
        value, dw = eval_map(map, points[-1])
        derivatives.append(dw)
        product *= dw
        points.append(value)
    return points, derivatives, product


def _canonical(cycle: Cycle) -> Cycle:
    """The cycle rotated to its smallest point under _point_key; the
    multiplier is a cyclic product, identical for every rotation."""
    points = cycle.points
    i0 = min(range(cycle.period), key=lambda i: _point_key(points[i]))
    return replace(cycle, points=points[i0:] + points[:i0])


def _minimal_period(points: Sequence[complex]) -> int:
    """The least q dividing len(points) with points[q] back at points[0]
    within SAME_POINT_TOL * max(1, |points[0]|)."""
    p, period = points[0], len(points)
    for q in range(1, period):
        if period % q == 0 and abs(points[q] - p) < SAME_POINT_TOL * max(1.0, abs(p)):
            return q
    return period


def _newton_polish(
    map: MapSpec, z: complex, period: int, max_iter: int = 40
) -> tuple[Cycle, list[complex]] | None:
    """Newton on f^n(z) - z from z: the cycle through the point it stops at
    (its base) and DR at its points, from the walk of the stop test, or of
    one more walk after a step below 1e-16 relative; None on a pole, a
    non-finite value, |z| >= NEWTON_MAX_MODULUS, or no stop within max_iter
    steps.  Every scalar solve of f^n(z) = z runs it."""
    for _ in range(max_iter):
        size = abs(z)
        if not size < NEWTON_MAX_MODULUS:
            return None
        try:
            points, derivatives, deriv = _walk(map, z, period)
        except PoleError:
            return None
        f = points[-1] - z
        # rounding in f^n(z) grows with |(f^n)'(z)|, so an unscaled test
        # sits below the floor of strongly repelling cycles; an overflowed
        # test would pass anything, and a non-finite f fails it and then
        # the step checks below
        stop = NEWTON_TOL * max(1.0, size) * max(1.0, abs(deriv))
        if not math.isfinite(stop):
            return None
        if abs(f) <= stop:
            return Cycle(tuple(points[:-1]), period, deriv, abs(f)), derivatives
        fprime = deriv - 1.0
        if fprime == 0 or not math.isfinite(abs(fprime)):
            return None
        step = f / fprime
        if not math.isfinite(abs(step)):
            return None
        z = z - step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            # the cycle through z takes one more walk, whose PoleError propagates
            points, derivatives, deriv = _walk(map, z, period)
            return Cycle(tuple(points[:-1]), period, deriv, abs(points[-1] - z)), derivatives
    return None


def check_census_size(degree: int, period: int) -> None:
    """Raise ValueError unless the census of a map of `degree` may run at
    `period`: degree**period <= CENSUS_MAX_ROOTS.

    The power is built up one factor at a time and abandoned once it
    passes the cap, so an absurd period costs nothing."""
    roots = 1
    for _ in range(min(period, CENSUS_MAX_ROOTS.bit_length())):
        roots *= degree
        if roots > CENSUS_MAX_ROOTS:
            raise ValueError(
                f"period {period} needs more than {CENSUS_MAX_ROOTS} roots at "
                f"degree {degree} (the census cap)"
            )


def find_cycles(
    map: MapSpec,
    period: int,
    seeds: Sequence[complex] | None = None,
    tol: float = 1e-9,
) -> tuple[Cycle, ...]:
    """The cycles of exactly `period`: every root of the period equation
    is found at once (_period_roots), so a hyperbolic map of degree d gets
    all (1/n) sum_{k|n} mu(n/k) d^k cycles (for a rational map d^k + 1 - m,
    m the multiplicity of infinity as a fixed point of R^k, replaces d^k,
    less the cycles through infinity).  `seeds` is ignored.

    Cycles whose minimal period properly divides `period` are filtered
    out.  A cycle whose multiplier is within PARABOLIC_TOL of 1 is a
    multiple root of the period equation: it is reported once, and dropped
    when it is a satellite collapsed onto a cycle of lower period (see
    SATELLITE_RATIO), so the count never exceeds the one above.  No two
    cycles share a point.  Each cycle is rotated so its base point is the
    lexicographically smallest under (Re, Im) after rounding to 1e-8, and
    the results are sorted by that key; the output is deterministic.
    Raises ValueError when period < 1, or when degree**period exceeds
    CENSUS_MAX_ROOTS, before anything is allocated.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    check_census_size(map.degree, period)
    return _collect_cycles(map, _period_roots(map, period), period, tol)


def _collect_cycles(
    map: MapSpec, candidates: np.ndarray, period: int, tol: float
) -> tuple[Cycle, ...]:
    """One Newton polish, minimal-period test and cycle build per cycle.

    Each cycle built claims the candidates it passes through: the nearest
    to each of its points, within CLAIM_TOL, and for a multiple root every
    candidate within PARABOLIC_RADIUS (twice the spread of a satellite).
    Claimed candidates are skipped, and a cycle that would claim one
    already claimed is a duplicate.  The candidates are the complete root
    set, so two distinct cycles are told apart by their roots, not by how
    close their polished points come."""
    candidates = candidates[np.lexsort((candidates.imag, candidates.real))]
    claimed = np.zeros(len(candidates), dtype=bool)
    found: list[Cycle] = []
    for i, z in enumerate(candidates.tolist()):
        if claimed[i]:
            continue
        claimed[i] = True
        polished = _newton_polish(map, z, period)
        if polished is None:
            continue
        cycle = polished[0]
        reach, satellite = 0.0, None
        if abs(1.0 - cycle.multiplier) <= PARABOLIC_TOL:
            satellite = _satellite_spread(cycle.points)
            if satellite is None:
                reach = PARABOLIC_RADIUS * max(1.0, max(abs(z) for z in cycle.points))
            else:
                reach = 2.0 * satellite
        mask = _claim(candidates, cycle.points, reach)
        mask[i] = False
        duplicate = bool((mask & claimed).any())
        claimed |= mask
        if (
            duplicate
            or satellite is not None
            or _minimal_period(cycle.points) != period
            or not _within_tolerance(cycle, tol)
        ):
            continue
        found.append(_canonical(cycle))
    return tuple(sorted(found, key=lambda cycle: _point_key(cycle.base)))


def _within_tolerance(cycle: Cycle, tol: float) -> bool:
    """The one residual gate on a solved cycle: |f^n(p) - p| at the base
    point p is at most tol * max(1, |p|), or at most the rounding floor
    _newton_polish stops at, when that is larger.  A bound that overflowed
    passes nothing, and neither does an orbit with a point at or beyond
    NEWTON_MAX_MODULUS: it runs through a pole towards infinity."""
    bound = max(tol, NEWTON_TOL * abs(cycle.multiplier)) * max(1.0, abs(cycle.base))
    return (
        math.isfinite(bound)
        and cycle.residual <= bound
        and max(abs(z) for z in cycle.points) < NEWTON_MAX_MODULUS
    )


def _claim(candidates: np.ndarray, points: Sequence[complex], reach: float) -> np.ndarray:
    """The candidates the cycle through `points` passes through: the one
    nearest each point, when within CLAIM_TOL (in the complete root set,
    that point's own root), and every candidate within `reach` of a point
    (the cluster around a multiple root)."""
    pts = np.asarray(points, dtype=complex)[:, None]
    dist = np.abs(candidates[None, :] - pts)
    mask = (dist <= reach).any(axis=0)
    nearest = np.argmin(dist, axis=1)
    close = dist[np.arange(len(pts)), nearest] <= CLAIM_TOL * np.maximum(1.0, np.abs(pts[:, 0]))
    mask[nearest[close]] = True
    return mask


def _satellite_spread(points: Sequence[complex]) -> float | None:
    """For a cycle that is a satellite collapsed onto a cycle of lower
    period m (see SATELLITE_RATIO), the largest distance from its base to
    the points m, 2m, ... steps on; None for any other cycle."""
    p, n = points[0], len(points)
    for m in range(1, n):
        if n % m:
            continue
        spread = max(abs(points[k] - p) for k in range(m, n, m))
        rest = min((abs(points[k] - p) for k in range(n) if k % m), default=max(1.0, abs(p)))
        if spread <= SATELLITE_RATIO * rest:
            return spread
    return None


def _period_roots(map: MapSpec, period: int) -> np.ndarray:
    """The roots of the period equation, by Aberth-Ehrlich sweeps from the
    backward tree: all d**period roots of f^n(z) - z for a polynomial map
    (f^n and its derivative from iterating eval_map_many), and the finite
    ones of the d**period + 1 fixed points of R^n on the sphere for any
    other map (_chart_newton).  A root stops moving once its Newton
    correction |F/F'| is below ABERTH_TOL relative (the Aberth step itself
    also shrinks when two roots collide, so it is no stop test); the sweeps
    end when every root has stopped or after ABERTH_MAX_SWEEPS, which only
    clusters around a multiple root reach.  A parabolic infinity of R^n
    takes the roots within PARABOLIC_RADIUS of w = 0 with it: its cluster,
    and far points where R^n(z) == z in floating point, are no cycles."""
    z = _backward_tree(map, period)
    if map.is_polynomial:
        def correction(za):
            w, slope = za, np.ones_like(za)
            for _ in range(period):
                w, dw = eval_map_many(map, w)
                slope = slope * dw
            return (w - za) / (slope - 1.0)
    else:
        # the chart z = s + rho / w, with s off the tree at its scale rho,
        # puts the bulk of the tree at |w| ~ 1 and infinity at w = 0
        centre = complex(np.median(z.real), np.median(z.imag))
        rho = float(np.median(np.abs(z - centre))) or 1.0
        s = centre + 2.0 * rho * complex(math.cos(GOLDEN_ANGLE), math.sin(GOLDEN_ANGLE))
        z = np.append(rho / (z - s), 0j)
        correction = partial(_chart_newton, map, period, s, rho)
    n_roots = len(z)
    # the tree is symmetric (z^d + c: rotations by d-th roots of unity) and
    # repeats whole subtrees below a critical point; an offset of a golden
    # angle per seed breaks both, where a common rotation would not
    scale = max(1.0, float(np.abs(z).max()))
    z = z + SEED_OFFSET * scale * np.exp(1j * GOLDEN_ANGLE * np.arange(n_roots))
    last = z.copy()
    active = np.arange(n_roots)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(ABERTH_MAX_SWEEPS):
            za = z[active]
            newton = correction(za)
            moving = ~(np.abs(newton) <= ABERTH_TOL * np.maximum(1.0, np.abs(za)))
            active, za, newton = active[moving], za[moving], newton[moving]
            if not active.size:
                break
            # a step that left the filled Julia set far enough for f^n to
            # overflow is taken back halfway
            lost = ~np.isfinite(newton)
            z[active[lost]] = 0.5 * (za[lost] + last[active[lost]])
            step = newton / (1.0 - newton * _repulsion(z, active))
            go = ~lost & np.isfinite(step)
            last[active[go]] = za[go]
            z[active[go]] = za[go] - step[go]
        if map.is_polynomial:
            return z
        at_infinity = _infinity_multiplier(map)
        if at_infinity is not None and abs(np.complex128(at_infinity) ** period - 1.0) <= PARABOLIC_TOL:
            z = z[np.abs(z) > PARABOLIC_RADIUS]
        z = s + rho / z
    return z[np.isfinite(z)]


def _chart_newton(map: MapSpec, period: int, s: complex, rho: float, w: np.ndarray) -> np.ndarray:
    """The Newton correction F/F' of F(w) = x_n y_0 - y_n x_0, whose roots
    are the fixed points of R^n in the chart z = s + rho / w, infinity
    included (w = 0); F has full degree d**n + 1 while s is not one of them.

    [x_0 : y_0] = [s w + rho : w], and [x_k : y_k] is R^k of it in
    homogeneous coordinates, carried with its w-derivative.  A step
    divides all four by y^d, evaluating P and Q at x/y, or by x^d,
    evaluating the reversed P and Q at y/x when |x| > |y|; the factor is
    the same for F and F', so F/F' is that of the polynomial F."""
    d = map.degree
    forms = [(p, Polynomial((p.coefficients + (0j,) * (d - p.degree))[::-1]))
             for p in (map.numerator, map.denominator)]
    x0 = s * w + rho
    x, y, dx, dy = x0, w, np.full_like(w, s), np.ones_like(w)
    for _ in range(period):
        flip = np.abs(x) > np.abs(y)
        a, da = np.where(flip, x, y), np.where(flip, dx, dy)
        u = np.where(flip, y, x) / a
        du = (np.where(flip, dy, dx) - u * da) / a
        ratio = d * da / a
        terms = []
        for poly, reversed_poly in forms:
            v, dv = np.where(flip, reversed_poly.eval_with_derivative(u), poly.eval_with_derivative(u))
            terms += [v, ratio * v + dv * du]
        x, dx, y, dy = terms
    return (x * w - y * x0) / (dx * w + x - dy * x0 - y * s)


def _backward_tree(map: MapSpec, period: int) -> np.ndarray:
    """The d**period period-th preimages of MapSpec.julia_point, for the
    map R of degree d.

    A level of a binomial polynomial R (a_0 + a_d z^d, as z^d + c) is one
    vectorized closed-form solve for d-th roots.  A level of any other map
    is one batch of eigenvalues: those of the companion matrix of P - w Q
    at every node w."""
    d = map.degree
    num, den = (np.array(p.coefficients + (0j,) * (d - p.degree)) for p in (map.numerator, map.denominator))
    level = np.array([map.julia_point])
    binomial = map.is_polynomial and not num[1:-1].any()
    turns = 2.0 * np.pi * np.arange(d) / d
    for _ in range(period):
        if binomial:
            a = (level - num[0] / den[0]) / (num[-1] / den[0])
            level = (np.abs(a) ** (1.0 / d))[:, None] * np.exp(
                1j * (np.angle(a)[:, None] / d + turns[None, :])
            )
        else:
            c = num - level[:, None] * den
            matrices = np.tile(np.eye(d, k=-1, dtype=complex), (len(level), 1, 1))
            # at w = R(infinity) one preimage is infinity: a small leading
            # coefficient puts it far out instead
            matrices[:, :, -1] = -c[:, :-1] / np.where(c[:, -1:] == 0, SEED_OFFSET, c[:, -1:])
            level = np.linalg.eigvals(matrices)
        level = level.ravel()
    return level


def default_cycle_seeds(
    map: MapSpec, count: int = 500, seed: int = 7
) -> tuple[complex, ...]:
    """Julia-set samples plus a rectangular grid covering them with margin,
    as Newton seeds; the census does not use them.

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
    return _alpha_from_derivatives(cycle, [eval_map(map, p)[1] for p in cycle.points], v, parabolic_tol)


def _alpha_from_derivatives(
    cycle: Cycle, derivs: list[complex], v: VectorFieldSpec, parabolic_tol: float = PARABOLIC_TOL
) -> CycleAlphaSolution:
    """solve_alpha_on_cycle with DR at the cycle's points given."""
    n = cycle.period
    rho = 1 + 0j
    for dw in derivs:
        rho *= dw
    if abs(1.0 - rho) <= parabolic_tol:
        raise ParabolicCycleError(
            f"multiplier {rho} within {parabolic_tol} of 1; linearized equation singular"
        )
    values = [complex(v(p)) for p in cycle.points]

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
    the cycle is returned at that period.  Raises ValueError when Newton
    fails (see _newton_polish) or the cycle fails _within_tolerance."""
    polished = _newton_polish(map, complex(z0), period)
    if polished is None:
        raise ValueError(f"Newton did not converge from {z0} at period {period}")
    cycle, derivs = polished
    actual = _minimal_period(cycle.points)
    if actual != period:
        # the first `actual` steps of the same walk
        multiplier = 1 + 0j
        for dw in derivs[:actual]:
            multiplier *= dw
        cycle = Cycle(cycle.points[:actual], actual, multiplier, abs(cycle.points[actual] - cycle.base))
    if not _within_tolerance(cycle, tol):
        raise ValueError(f"no period-{period} cycle through {z0} at tolerance {tol}")
    return cycle
