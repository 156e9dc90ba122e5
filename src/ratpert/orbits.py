"""Critical-orbit iteration with its derivative cocycle, and diagnostics.

The central object is the orbit of a critical point c together with the
cumulative derivatives along the orbit of its critical value: cocycle[k] is
the derivative of the k-th iterate evaluated at R(c), kept in extended-range
arithmetic because it grows or decays exponentially.  Everything downstream
(the orbit-sum functional, the obstruction sequence) is built from this
record.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CriticalRelationError, InvalidOrbitError, PoleError, RootFindingError
from .maps import MapSpec, _derivative_lanes, default_escape_radius, eval_map, is_critical_point
from .polynomial import _horner, _solve_roots, _trim
from .xcomplex import (
    XComplex,
    _collector_paused,
    _from_parts,
    _lane_parts,
    _mul,
    _product_run,
    normalize_lanes,
    reciprocal_lanes,
)

if TYPE_CHECKING:
    from .cycles import Cycle

#: Orbit points closer than this (relative) to a critical point are a
#: critical relation: the cocycle formulas divide by quantities that vanish.
RELATION_TOL = 1e-12

#: Distance at which a near-relation is still usable but worth a warning.
NEAR_RELATION_TOL = 1e-6

#: Tail ratios within this margin of 1 are inconclusive evidence.
SUMMABILITY_MARGIN = 0.05

#: Default tail-estimate bound, relative to the partial sum, for summable
#: evidence.
STABILIZATION_TOL = 1e-9

#: Cycle coincidence tolerance for parameter classification, and the
#: residual gate of the cycle solved from a coincidence.
CYCLE_DETECT_TOL = 1e-9


class NearCriticalRelationWarning(UserWarning):
    """The orbit passed unusually close to a critical point."""


@dataclass(frozen=True)
class OrbitRecord:
    """Forward orbit of a critical point c with the derivative cocycle.

    points[k] is the k-th iterate of c (points[0] = c); cocycle[k] is the
    derivative of the k-th iterate at the critical value R(c), so
    cocycle[0] = 1 and cocycle[k+1] = cocycle[k] * DR(points[k+1]).
    partial_sums_abs[k] accumulates 1/|cocycle[j]| for j <= k.
    """

    map: MapSpec
    points: tuple[complex, ...]
    cocycle: tuple[XComplex, ...]
    partial_sums_abs: tuple[float, ...]
    escaped_at: int | None
    truncated_at: int
    critical_relation_at: int | None = None

    @property
    def start(self) -> complex:
        """The critical value R(c), i.e. points[1]."""
        if len(self.points) < 2:
            raise InvalidOrbitError("orbit has no iterate beyond the critical point")
        return self.points[1]

    @property
    def has_critical_relation(self) -> bool:
        return self.critical_relation_at is not None

    def __len__(self) -> int:
        return len(self.points)


def iterate_orbit(
    map: MapSpec,
    c: complex,
    n_max: int,
    escape_radius: float = 1e6,
) -> OrbitRecord:
    """Iterate the critical point c for up to n_max steps.

    Stops early on escape (|z| > escape_radius, the escaping point is
    recorded) and raises CriticalRelationError if the orbit returns to a
    critical point within tolerance; the exception carries the marked
    prefix orbit.  A pole on the orbit raises eval_map's PoleError, and a
    point whose DR is not finite (an iterate that overflowed before it
    passed escape_radius) raises InvalidOrbitError.

    The orbit runs in segments of lanes.SEGMENT_ENTRIES steps, each in three
    passes: the orbit points alone; DR and every test on the points, over
    the whole segment at once (_step_tests); and the cocycle product alone,
    a run on raw mantissas normalized once a chunk (xcomplex._product_run,
    _mul's values bit for bit).  The partial sums read the run's normalized
    lanes, and its parts become XComplex values once, in the record.  A
    near relation only warns, so the third pass runs up to the first step
    that ends the orbit (an escape step included), and that step reads the
    same tests: records, exceptions and warnings are those of a
    step-by-step loop.  The record keeps no DR: obstruction_sequence forms it again
    from the points, by the same lanes.
    """
    from .lanes import SEGMENT_ENTRIES  # lanes imports this module

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not 0 < escape_radius < math.inf:
        raise ValueError(f"escape_radius must be positive and finite, got {escape_radius}")
    c = complex(c)
    if not is_critical_point(map, c):
        raise ValueError(f"{c} is not a critical point of the map (residual check)")

    with _collector_paused():
        num = map.numerator.coefficients
        den = None if map.is_polynomial else map.denominator.coefficients
        q0 = map.denominator.coefficients[0]
        points: list[complex] = [c]
        value = eval_map(map, c)[0]
        entry = (1 + 0j, 0)  # the parts of XComplex.one()
        cocycle: list = [entry]
        partials: list[float] = [1.0]
        escaped_at: int | None = None
        index = 0  # the last step taken

        while index < n_max and escaped_at is None:
            # (a) the orbit alone, up to a point that leaves the radius or
            # whose image cannot be formed: the step there ends the orbit
            segment: list[complex] = []
            try:
                for _ in range(min(SEGMENT_ENTRIES, n_max - index)):
                    z = value
                    segment.append(z)
                    if not abs(z) <= escape_radius:
                        break
                    p = _horner(num, z)
                    value = p / q0 if den is None else p / _horner(den, z)
            except (OverflowError, ZeroDivisionError):
                pass

            # (b) DR and the tests of every point, for the whole segment
            with np.errstate(all="ignore"):
                zs = np.array(segment, dtype=complex)
                dzr, dzi, pole, nearest, size, _ = _step_tests(map, zs.real, zs.imag, escape_radius)
                dz = normalize_lanes(dzr, dzi, 0)
                finite = np.isfinite(dzr) & np.isfinite(dzi)
                relation = (nearest < RELATION_TOL) | ((dzr == 0.0) & (dzi == 0.0))
                ends = pole | relation | ~finite | ~(size <= escape_radius)
                near = (nearest < NEAR_RELATION_TOL) & ~pole & ~relation
            cut = int(ends.argmax()) if ends.any() else len(segment)
            # the step of an escape is regular but for the radius: its DR
            # is finite and nonzero, so the run takes it too
            escape = cut < len(segment) and not (pole[cut] or relation[cut] or not finite[cut])

            # (c) the cocycle product alone, up to the step that ends the orbit
            for k in np.flatnonzero(near[: cut + 1]).tolist():
                warnings.warn(
                    f"orbit within {float(nearest[k]):.2e} of a critical point at index {index + 1 + k}",
                    NearCriticalRelationWarning,
                    stacklevel=2,
                )
            run, lanes = _product_run(entry, tuple(x[: cut + escape] for x in dz))
            cocycle += run
            entry = cocycle[-1]
            _extend_partial_sums(partials, lanes)
            points.extend(segment[: cut + 1])
            index = len(points) - 1
            if cut < len(segment):
                if pole[cut]:  # eval_map's error
                    raise PoleError(f"evaluation at {segment[cut]} is within pole tolerance")
                if not finite[cut]:
                    raise InvalidOrbitError(
                        f"orbit overflowed at index {index} before passing the escape radius {escape_radius:g}"
                    )
                if relation[cut]:
                    cocycle.append(_mul(entry, _lane_parts(*(x[cut : cut + 1] for x in dz))[0]))
                    partials.append(math.inf)
                    raise CriticalRelationError(
                        f"orbit landed on a critical point at index {index}",
                        index=index,
                        orbit=_orbit_record(map, points, cocycle, partials, None, index),
                    )
                escaped_at = index

        return _orbit_record(map, points, cocycle, partials, escaped_at, None)


def _orbit_record(map, points, cocycle, partials, escaped_at, relation_at):
    """The OrbitRecord of iterate_orbit's lists, its cocycle as XComplex."""
    return OrbitRecord(
        map=map,
        points=tuple(points),
        cocycle=tuple([_from_parts(x) for x in cocycle]),
        partial_sums_abs=tuple(partials),
        escaped_at=escaped_at,
        truncated_at=len(points) - 1,
        critical_relation_at=relation_at,
    )


def _step_tests(map: MapSpec, zr, zi, radius):
    """What a step measures at the orbit points zr + i zi: DR
    (maps._derivative_lanes), where eval_map raises PoleError, the distance
    to the nearest critical point relative to max(1, |cp|), |z|, and where
    the step is regular: no pole, DR finite and nonzero, that distance at
    least NEAR_RELATION_TOL and |z| <= radius.  np.hypot is abs(complex)
    bit for bit, but gives inf where abs raises OverflowError.  Under
    np.errstate."""
    dzr, dzi, pole = _derivative_lanes(map, zr, zi)
    nearest = np.min(
        [np.hypot(zr - cp.real, zi - cp.imag) / max(1.0, abs(cp)) for cp in map.critical_points], axis=0
    )
    size = np.hypot(zr, zi)
    regular = ~pole & np.isfinite(dzr) & np.isfinite(dzi) & ((dzr != 0.0) | (dzi != 0.0))
    regular &= (nearest >= NEAR_RELATION_TOL) & (size <= radius)
    return dzr, dzi, pole, nearest, size, regular


def _reciprocal_sums(first, parts):
    """first plus the running sums along axis 0 of 1/|x| over the parts
    (re, im, exponent), added in order as total += would; an overflowing
    term is inf, as in _magnitude.  Under np.errstate."""
    re, im, e = reciprocal_lanes(parts)
    terms = np.ldexp(np.hypot(re, im), e)
    return np.add.accumulate(np.concatenate([first[None], terms]), axis=0)[1:]


def _extend_partial_sums(partials: list[float], cocycle) -> None:
    """Append the running sums of 1/|x| over the (nonzero) normalized lanes
    cocycle (_reciprocal_sums)."""
    if len(cocycle[2]):
        with np.errstate(over="ignore"):
            partials.extend(_reciprocal_sums(np.array(partials[-1]), cocycle).tolist())


@dataclass(frozen=True)
class SummabilityReport:
    """Evidence about convergence of the series over 1/|cocycle|.

    tail_ratio is the geometric mean of successive term ratios over the
    trailing window; classification is evidence only, never a proof.
    """

    partial_sum: float
    tail_ratio: float
    classification: str  # "summable-evidence" | "divergent-evidence" | "inconclusive"
    last_increment: float
    tail_estimate: float
    window: int
    n_terms: int


def summability_report(orbit: OrbitRecord, window: int) -> SummabilityReport:
    """Classify the partial sums of 1/|cocycle| as summable/divergent evidence.

    Summable evidence needs a tail ratio below 1 - margin and a stabilized
    partial sum; a ratio above 1 + margin, an overflowed sum, or
    superlinearly growing partial sums count as divergent evidence;
    everything else is inconclusive.
    """
    if orbit.has_critical_relation:
        raise InvalidOrbitError("orbit carries a critical relation")
    n = len(orbit.points)
    if window < 1 or n < 2 * window:
        raise ValueError(f"orbit has {n} entries; needs >= 2*window = {2 * window}")

    last = orbit.truncated_at
    log2_drop = orbit.cocycle[last - window].log2_abs() - orbit.cocycle[last].log2_abs()
    # the last 2*window increments (or all there are): what the verdict reads
    increments = [
        orbit.partial_sums_abs[k] - orbit.partial_sums_abs[k - 1]
        for k in range(max(1, last + 1 - 2 * window), last + 1)
    ]
    if not math.isfinite(increments[-1]):  # inf - inf once the partial sums overflow
        increments[-1] = orbit.cocycle[last].reciprocal().magnitude()
    return _tail_report(
        orbit.partial_sums_abs[last], log2_drop, increments, window, last + 1, STABILIZATION_TOL
    )


def _tail_report(
    sum_n: float,
    log2_drop: float,
    increments: list[float],
    window: int,
    n_terms: int,
    stabilization_tol: float,
) -> SummabilityReport:
    """The verdict of summability_report from what it reads off the orbit:
    the last partial sum, the cocycle's log2 drop over the trailing window
    and (at least) the last 2*window increments of the partial sums."""
    tail_ratio = 2.0 ** (log2_drop / window)
    last_increment = increments[-1]
    if tail_ratio < 1.0:
        tail_estimate = last_increment * tail_ratio / (1.0 - tail_ratio)
    else:
        tail_estimate = math.inf

    if math.isinf(sum_n) or tail_ratio > 1.0 + SUMMABILITY_MARGIN or _superlinear(
        increments, window
    ):
        classification = "divergent-evidence"
    elif (
        tail_ratio < 1.0 - SUMMABILITY_MARGIN
        and tail_estimate <= stabilization_tol * max(1.0, sum_n)
    ):
        classification = "summable-evidence"
    else:
        classification = "inconclusive"

    return SummabilityReport(
        partial_sum=sum_n,
        tail_ratio=tail_ratio,
        classification=classification,
        last_increment=last_increment,
        tail_estimate=tail_estimate,
        window=window,
        n_terms=n_terms,
    )


def _superlinear(increments: list[float], window: int) -> bool:
    if len(increments) < 2 * window:
        return False
    recent = increments[-window:]
    previous = increments[-2 * window : -window]
    prev_mean = sum(previous) / window
    if prev_mean == 0.0 or math.isinf(prev_mean):
        return False
    return sum(recent) / window > 2.0 * prev_mean


def default_summability_window(orbit_length: int) -> int:
    return max(2, min(64, orbit_length // 4))


def default_summability_report(orbit: OrbitRecord) -> SummabilityReport:
    """summability_report at the default window; an orbit too short for
    it (an early escape, a tiny n_max) is an InvalidOrbitError."""
    n = len(orbit.points)
    window = default_summability_window(n)
    if n < 2 * window and not orbit.has_critical_relation:
        raise InvalidOrbitError(f"orbit has {n} entries; summability evidence needs at least {2 * window}")
    return summability_report(orbit, window)


@dataclass(frozen=True)
class ParameterClass:
    """Outcome of iterating the critical orbit of z**d + c.

    kind "attracting" certifies a detected cycle with |multiplier| < 1;
    "escaping" certifies leaving the escape radius; "undecided" is the
    fallback (a candidate non-hyperbolic parameter at this budget).
    """

    kind: str  # "escaping" | "attracting" | "undecided"
    period: int | None
    multiplier: complex | None
    iterations_used: int

    def __post_init__(self):
        if self.kind == "attracting":
            if self.period is None or self.period < 1:
                raise ValueError("attracting classification requires a period")
            if self.multiplier is None or abs(self.multiplier) >= 1.0:
                raise ValueError("attracting classification requires |multiplier| < 1")


def _unicritical_step(z: complex, c: complex, d: int) -> complex:
    w = z
    for _ in range(d - 1):
        w = w * z
    return w + c


def classify_parameter(
    c: complex,
    d: int,
    n_max: int = 2048,
    escape_radius: float | None = None,
) -> ParameterClass:
    """Classify c for the family z**d + c by iterating the critical orbit.

    Escape is decided by radius crossing (not |z| <= radius, so an iterate
    that overflows to nan, or whose modulus overflows, escapes); attraction
    by Brent-style cycle detection, then the census's period solver on the
    coincidence (`cycles.cycle_from_point`: its Newton, minimal period and
    residual gate `_within_tolerance` at CYCLE_DETECT_TOL) and
    |multiplier| < 1.  A coincidence distance that overflows is none.
    Anything else is undecided within the budget.
    """
    if d < 2:
        raise ValueError("family degree must be >= 2")
    c = complex(c)
    radius = default_escape_radius(d, c) if escape_radius is None else escape_radius

    z = 0j
    anchor = z
    anchor_index = 0
    next_power = 1
    refinement_attempts = 0

    for k in range(1, n_max + 1):
        z = _unicritical_step(z, c, d)
        size = _modulus(z)
        if not size <= radius:  # an overflow to nan escapes too
            return ParameterClass("escaping", None, None, k)
        if (
            refinement_attempts < 4
            and k > anchor_index
            and _modulus(z - anchor) < CYCLE_DETECT_TOL * max(1.0, size)
        ):
            refinement_attempts += 1
            cycle = _refine_coincidence(c, d, z, k - anchor_index)
            if cycle is not None and abs(cycle.multiplier) < 1.0:
                return ParameterClass("attracting", cycle.period, cycle.multiplier, k)
        if k == next_power:
            anchor = z
            anchor_index = k
            next_power *= 2

    return ParameterClass("undecided", None, None, n_max)


def _modulus(z: complex) -> float:
    """abs(z), or inf where abs raises OverflowError (finite parts whose
    modulus passes the largest float), as np.hypot gives it on lanes."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _refine_coincidence(c: complex, d: int, z: complex, m: int) -> Cycle | None:
    """The cycle of z**d + c through the solved point near z, at its minimal
    period dividing m, or None when the period solver rejects it."""
    # cycles imports julia_sample from here, so it is imported on use
    from .cycles import cycle_from_point

    map = MapSpec.unicritical(d, c)
    try:
        return cycle_from_point(map, z, m, tol=CYCLE_DETECT_TOL)
    except ValueError:
        return None


def julia_sample(
    map: MapSpec,
    n_points: int,
    transient: int = 64,
    seed: int = 0,
) -> tuple[complex, ...]:
    """Sample the Julia set by inverse iteration from MapSpec.julia_point:
    the most repelling fixed point, or a pole when that is infinity.

    Each step solves R(z) = w for all preimages and picks one branch
    uniformly at random (deterministic for a given seed); the first
    `transient` points are discarded.  A step forms P - w Q on coefficients, as
    Polynomial.__sub__ and scale do, and solves it as poly_roots does.
    """
    if map.degree < 2:
        raise ValueError("julia_sample needs map degree >= 2")
    if n_points < 0:
        raise ValueError("n_points must be >= 0")

    w = map.julia_point
    rng = random.Random(seed)
    num, den = map.numerator.coefficients, map.denominator.coefficients
    out: list[complex] = []
    for step in range(transient + n_points):
        # preimage equation R(z) = w, i.e. P(z) - w Q(z) = 0
        neg = _trim([-1.0 * (w * b) for b in den])
        shifted = _trim([a + b for a, b in zip(num, neg)] + list(num[len(neg):] or neg[len(num):]))
        if len(shifted) < 2:
            raise RootFindingError(f"no finite preimages of {w}")
        candidates = _solve_roots(shifted, 1e-12)
        w = candidates[rng.randrange(len(candidates))]
        if step >= transient:
            out.append(w)
    return tuple(out)
