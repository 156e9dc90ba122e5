"""Perturbation direction fields: polynomial, or rational with known poles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import PoleProximityError
from .polynomial import ONE, Polynomial, horner_lanes, poly_roots
from .xcomplex import _cdiv_lanes

#: A rational field's pole must stay at least this fraction of the orbit
#: diameter away from every orbit point.
POLE_DISTANCE_FRACTION = 1e-3


@dataclass(frozen=True)
class VectorFieldSpec:
    """A direction v in which the map is perturbed to R + lambda*v."""

    numerator: Polynomial
    denominator: Polynomial = ONE

    def __post_init__(self):
        for name in ("numerator", "denominator"):
            for k, a in enumerate(getattr(self, name).coefficients):
                if not math.isfinite(math.hypot(a.real, a.imag)):
                    raise ValueError(f"VectorFieldSpec {name}: coefficient of z^{k} or its modulus is not finite ({a})")

    @staticmethod
    def constant(a: complex) -> "VectorFieldSpec":
        return VectorFieldSpec(Polynomial.constant(a))

    @staticmethod
    def monomial(degree: int, coefficient: complex = 1.0) -> "VectorFieldSpec":
        return VectorFieldSpec(Polynomial.monomial(degree, coefficient))

    @staticmethod
    def from_coefficients(coeffs: Iterable[complex]) -> "VectorFieldSpec":
        return VectorFieldSpec(Polynomial(tuple(complex(a) for a in coeffs)))

    @staticmethod
    def rational(numerator: Polynomial, denominator: Polynomial) -> "VectorFieldSpec":
        return VectorFieldSpec(numerator, denominator)

    @property
    def is_polynomial(self) -> bool:
        return self.denominator.is_constant

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    @cached_property
    def poles(self) -> tuple[complex, ...]:
        if self.is_polynomial:
            return ()
        return poly_roots(self.denominator, tol=1e-12)

    def __call__(self, z):
        if self.is_polynomial:
            return self.numerator(z) / self.denominator.coefficients[0]
        return self.numerator(z) / self.denominator(z)

    def check_poles_clear(self, points: Sequence[complex]) -> None:
        """Reject fields whose poles approach the orbit sample.

        The minimum allowed distance is POLE_DISTANCE_FRACTION times the
        orbit diameter (at least that fraction absolute for degenerate
        one-point samples).
        """
        if self.is_polynomial or not self.poles:
            return
        pts = list(points)
        re = [z.real for z in pts]
        im = [z.imag for z in pts]
        diameter = max(max(re) - min(re), max(im) - min(im))
        min_allowed = POLE_DISTANCE_FRACTION * max(diameter, 1.0)
        for pole in self.poles:
            nearest = min(abs(pole - z) for z in pts)
            if nearest < min_allowed:
                raise PoleProximityError(
                    f"field pole at {pole} lies {nearest:.3e} from the orbit "
                    f"(minimum allowed {min_allowed:.3e})"
                )


def _field_lanes(v: VectorFieldSpec, zr, zi):
    """v at the lanes zr + i zi, shaped like zr, as VectorFieldSpec.__call__
    forms it: Horner on numerator and denominator (a constant denominator
    is its coefficient), then CPython's complex division."""
    def value(poly):
        return horner_lanes([(a.real, a.imag) for a in poly.coefficients], zr, zi, derivative=False)[:2]

    wr, wi = _cdiv_lanes(*value(v.numerator), *value(v.denominator))
    return np.broadcast_to(wr, np.shape(zr)), np.broadcast_to(wi, np.shape(zr))


CONSTANT_ONE = VectorFieldSpec.constant(1.0)
