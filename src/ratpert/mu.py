"""The orbit-sum functional: v maps to the sum of v(points[k]) / cocycle[k].

For a summable critical orbit this series converges absolutely and defines
a complex functional on fields holomorphic near the orbit closure.  The
module evaluates it with a geometric tail bound, restricted to monomials
(the moment vector), and constructs the unit-norm polynomial field that
maximizes its modulus (an explicit non-triviality witness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InvalidOrbitError, NoWitnessError, NotSummableError
from .fields import VectorFieldSpec
from .maps import MapSpec, default_escape_radius
from .orbits import (
    OrbitRecord,
    default_summability_window,
    iterate_orbit,
    summability_report,
)
from .xcomplex import XComplex

#: Don't trust a geometric tail bound until this many terms are in.
MIN_TERMS = 8


@dataclass(frozen=True)
class MuResult:
    """Value and convergence certificate of the orbit-sum functional.

    partial[N] is the sum of the first N+1 terms; tail_bound is the
    geometric estimate of everything not summed.  The value is trustworthy
    when converged is True and |value| clears tail_bound.
    """

    value: complex
    partial: tuple[complex, ...]
    tail_bound: float
    converged: bool
    terms_used: int

    def is_nonvanishing(self, threshold: float = 1e-9) -> bool:
        """Does |value| exceed the tail bound by at least threshold?"""
        return self.converged and abs(self.value) > self.tail_bound + threshold


def mu_functional(
    orbit: OrbitRecord,
    v: VectorFieldSpec,
    tol: float = 1e-12,
    n_max: int | None = None,
) -> MuResult:
    """Sum v(points[k]) / cocycle[k] until the geometric tail clears tol.

    Raises NotSummableError on divergent-evidence orbits and
    PoleProximityError if v has a pole near the orbit.  On inconclusive
    orbits the sum is still formed but can only come back converged=False.
    """
    if orbit.has_critical_relation:
        raise InvalidOrbitError("orbit carries a critical relation")
    report = summability_report(orbit, default_summability_window(len(orbit.points)))
    if report.classification == "divergent-evidence":
        raise NotSummableError(
            f"orbit shows divergent evidence (tail ratio {report.tail_ratio:.4g})"
        )
    v.check_poles_clear(orbit.points)

    limit = len(orbit.points) if n_max is None else min(n_max, len(orbit.points))
    if limit < 1:
        raise ValueError("n_max must allow at least one term")

    series = _SeriesSum(report.tail_ratio, tol)
    partial: list[complex] = []
    for k in range(limit):
        term_x = XComplex.from_complex(complex(v(orbit.points[k]))) / orbit.cocycle[k]
        done = series.add(_collapse(term_x))
        partial.append(series.value)
        if done:
            break

    return MuResult(
        value=series.value,
        partial=tuple(partial),
        tail_bound=series.tail_bound if math.isfinite(series.tail_bound) else math.inf,
        converged=series.converged,
        terms_used=series.terms_used,
    )


class _SeriesSum:
    """Running sum of the orbit series of one field, with the stopping rule
    of mu_functional: the largest of the last three terms over (1 - ratio)
    bounds the tail, and the sum stops once that clears tol after at least
    MIN_TERMS terms."""

    def __init__(self, ratio: float, tol: float):
        self.ratio = ratio
        self.tol = tol
        self.value = 0j
        self.tail_bound = math.inf
        self.converged = False
        self.terms_used = 0
        self._recent: list[float] = []

    def add(self, term: complex) -> bool:
        """Add the next term; True once the sum has converged."""
        self.value += term
        self.terms_used += 1
        self._recent.append(abs(term))
        if len(self._recent) > 3:
            self._recent.pop(0)
        if self.ratio < 1.0:
            # largest recent term over (1 - r); the max over a short window
            # guards fields that happen to vanish at a single orbit point
            self.tail_bound = max(self._recent) / (1.0 - self.ratio)
            if self.terms_used >= MIN_TERMS and self.tail_bound < self.tol:
                self.converged = True
        return self.converged


def _collapse(x: XComplex) -> complex:
    """XComplex to complex; swallows underflow (tiny tail terms) to 0."""
    try:
        return x.to_complex()
    except OverflowError:
        raise NotSummableError("a series term overflows double range") from None


def mu_constant_unicritical(
    c: complex,
    d: int,
    tol: float = 1e-12,
    n_max: int = 4096,
) -> MuResult:
    """The functional of the constant field 1 for z**d + c.

    Convergence of this value, with a nonzero limit, is the expected
    behavior at summable parameters; use MuResult.is_nonvanishing for the
    non-vanishing report.
    """
    map = MapSpec.unicritical(d, c)
    orbit = iterate_orbit(
        map, 0j, n_max=n_max, escape_radius=default_escape_radius(d, c)
    )
    return mu_functional(orbit, VectorFieldSpec.constant(1.0), tol=tol, n_max=n_max)


def moment_vector(
    orbit: OrbitRecord,
    max_degree: int,
    tol: float = 1e-12,
) -> tuple[complex, ...]:
    """Functional values on the monomial fields z**j, j = 0..max_degree.

    One pass over the orbit serves every degree; each degree keeps the
    terms and the stopping rule of mu_functional(orbit, z**j, tol), so the
    values are the same bit for bit.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    report = summability_report(orbit, default_summability_window(len(orbit.points)))
    if report.classification != "summable-evidence":
        raise NotSummableError(
            f"moment vector needs summable evidence, got {report.classification}"
        )
    fields = [VectorFieldSpec.monomial(j) for j in range(max_degree + 1)]
    sums = [_SeriesSum(report.tail_ratio, tol) for _ in fields]
    active = list(range(max_degree + 1))
    for point, cocycle in zip(orbit.points, orbit.cocycle):
        if not active:
            break
        # x / cocycle is x * cocycle.reciprocal(); the reciprocal is shared
        inverse = cocycle.reciprocal()
        active = [
            j for j in active
            if not sums[j].add(
                _collapse(XComplex.from_complex(complex(fields[j](point))) * inverse)
            )
        ]
    return tuple(series.value for series in sums)


class WitnessResult(NamedTuple):
    field: VectorFieldSpec
    mu_value: complex


def find_witness_field(
    moments: Sequence[complex],
    threshold: float = 1e-12,
) -> WitnessResult:
    """The unit-coefficient-norm polynomial field maximizing |mu(field)|.

    By linearity the maximizer under sum |a_j|^2 <= 1 is a_j proportional
    to conj(m_j), and the attained value is the Euclidean norm of the
    moment vector.  Raises NoWitnessError when that norm is below
    threshold (the functional vanishes on polynomials up to this degree,
    as far as these moments can tell).
    """
    if not moments:
        raise ValueError("moments must be nonempty")
    # scaled by a power of two (exact) so that squares of large or tiny
    # moments neither overflow nor underflow
    _, exponent = math.frexp(max(abs(m) for m in moments))
    norm = math.ldexp(math.sqrt(sum(math.ldexp(abs(m), -exponent) ** 2 for m in moments)), exponent)
    if norm < threshold:
        raise NoWitnessError(
            f"moment norm {norm:.3e} below threshold {threshold:.3e}"
        )
    coeffs = [m.conjugate() / norm for m in moments]
    return WitnessResult(VectorFieldSpec.from_coefficients(coeffs), complex(norm))
