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

from .errors import NoWitnessError, NotSummableError
from .fields import VectorFieldSpec
from .maps import MapSpec, default_escape_radius
from .orbits import (
    OrbitRecord,
    default_summability_report,
    iterate_orbit,
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
    report = default_summability_report(orbit)  # rejects a critical relation
    if report.classification == "divergent-evidence":
        raise NotSummableError(
            f"orbit shows divergent evidence (tail ratio {report.tail_ratio:.4g})"
        )
    v.check_poles_clear(orbit.points)

    limit = len(orbit.points) if n_max is None else min(n_max, len(orbit.points))
    if limit < 1:
        raise ValueError("n_max must allow at least one term")

    return _orbit_series(orbit, [v], report.tail_ratio, tol, limit)[0]


def _orbit_series(
    orbit: OrbitRecord, fields: Sequence[VectorFieldSpec], ratio: float, tol: float, limit: int
) -> list[MuResult]:
    """The orbit series of every field over the first `limit` orbit terms,
    in one pass: each term is v(points[k]) * cocycle[k].reciprocal() (which
    is v(points[k]) / cocycle[k] bit for bit), the reciprocal shared by the
    fields, and each field stops under its own _SeriesSum rule."""
    sums = [_SeriesSum(ratio, tol) for _ in fields]
    active = list(range(len(fields)))
    for point, cocycle in zip(orbit.points[:limit], orbit.cocycle):
        if not active:
            break
        inverse = cocycle.reciprocal()
        active = [
            j for j in active
            if not sums[j].add(_term(complex(fields[j](point)), inverse))
        ]
    return [
        MuResult(value=s.value, partial=tuple(s.partial), converged=s.converged, terms_used=s.terms_used,
                 tail_bound=s.tail_bound if math.isfinite(s.tail_bound) else math.inf)
        for s in sums
    ]


class _SeriesSum:
    """Running sum of the orbit series of one field, with its partial sums
    and the stopping rule of mu_functional: the largest of the last three
    terms over (1 - ratio) bounds the tail, and the sum stops once that
    clears tol after at least MIN_TERMS terms."""

    def __init__(self, ratio: float, tol: float):
        self.ratio = ratio
        self.tol = tol
        self.value = 0j
        self.partial: list[complex] = []
        self.tail_bound = math.inf
        self.converged = False
        self.terms_used = 0
        self._recent: list[float] = []

    def add(self, term: complex) -> bool:
        """Add the next term; True once the sum has converged."""
        self.value += term
        self.partial.append(self.value)
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


def _term(value: complex, inverse: XComplex) -> complex:
    """value * inverse as a complex, a tiny tail term underflowing to 0.  A
    term that is not finite (the field overflows on the orbit) or that
    overflows double range leaves the series without a value."""
    try:
        return (XComplex.from_complex(value) * inverse).to_complex()
    except ValueError:
        raise NotSummableError(f"the field is not finite on the orbit: v = {value}") from None
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
    report = default_summability_report(orbit)
    if report.classification != "summable-evidence":
        raise NotSummableError(
            f"moment vector needs summable evidence, got {report.classification}"
        )
    fields = [VectorFieldSpec.monomial(j) for j in range(max_degree + 1)]
    results = _orbit_series(orbit, fields, report.tail_ratio, tol, len(orbit.points))
    return tuple(result.value for result in results)


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
    # moments neither overflow nor underflow; x * x is correctly rounded,
    # x ** 2 (libm pow) need not be, and its bits change with the scaling
    _, exponent = math.frexp(max(abs(m) for m in moments))
    scaled = [math.ldexp(abs(m), -exponent) for m in moments]
    norm = math.ldexp(math.sqrt(sum(x * x for x in scaled)), exponent)
    if norm < threshold:
        raise NoWitnessError(
            f"moment norm {norm:.3e} below threshold {threshold:.3e}"
        )
    coeffs = [m.conjugate() / norm for m in moments]
    return WitnessResult(VectorFieldSpec.from_coefficients(coeffs), complex(norm))
