"""Rational and unicritical polynomial maps with derivative evaluation.

A MapSpec is a quotient of two coprime polynomials.  Evaluation returns the
value and the derivative together (Horner plus quotient rule), and the
finite-plane critical points and the start of the backward walks into J
are computed once and cached.

A map with J(R) = the whole sphere is outside this toolkit's scope; callers
are expected to supply maps with infinity in the Fatou set (for a rational
map not of that form, precompose with a Moebius change of coordinates
first; the toolkit does not choose one automatically).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMapError, PoleError, RootFindingError
from .polynomial import ONE, CLUSTER_TOL, Polynomial, _horner_scale, cluster_points, horner_lanes, poly_roots
from .xcomplex import _cdiv_lanes, cmul_lanes

#: Relative tolerance below which the denominator counts as a pole.
POLE_TOL = 1e-10

#: Relative residual a stored critical point must satisfy: |R'(z)| below
#: this times the local coefficient scale.
CRITICAL_RESIDUAL_TOL = 1e-10

#: Numerator/denominator roots closer than this (relative) fail coprimality.
COPRIMALITY_TOL = 1e-10


@dataclass(frozen=True)
class MapSpec:
    """A rational map numerator/denominator in lowest terms.

    Use the factories (:meth:`polynomial`, :meth:`unicritical`,
    :meth:`rational`) for validated construction; the bare constructor only
    runs cheap structural checks and is what perturbation code uses when
    coprimality is preserved by construction.
    """

    numerator: Polynomial
    denominator: Polynomial = ONE

    def __post_init__(self):
        # one sum is finite unless a coefficient is not (or finite ones
        # overflow, which the loop lets through): perturbed() builds a map
        # per continuation step
        if not cmath.isfinite(sum(self.numerator.coefficients) + sum(self.denominator.coefficients)):
            for name in ("numerator", "denominator"):
                for k, a in enumerate(getattr(self, name).coefficients):
                    if not cmath.isfinite(a):
                        raise ValueError(f"MapSpec {name}: coefficient of z^{k} is not finite ({a})")
        if self.numerator.is_zero:
            raise DegenerateMapError("numerator is identically zero")
        if self.denominator.is_zero:
            raise DegenerateMapError("denominator is identically zero")
        if self.degree < 2:
            raise DegenerateMapError(
                f"map degree {self.degree} < 2; the dynamics here need degree >= 2"
            )

    # -- factories -------------------------------------------------------

    @staticmethod
    def polynomial(poly: Polynomial) -> "MapSpec":
        return MapSpec(poly, ONE)

    @staticmethod
    def unicritical(d: int, c: complex) -> "MapSpec":
        """z**d + c."""
        if d < 2:
            raise ValueError("unicritical degree must be >= 2")
        coeffs = [complex(c)] + [0j] * (d - 1) + [1 + 0j]
        return MapSpec(Polynomial(tuple(coeffs)), ONE)

    @staticmethod
    def rational(numerator: Polynomial, denominator: Polynomial) -> "MapSpec":
        """Validated rational map; raises DegenerateMapError on a shared root."""
        if denominator.is_constant:
            if denominator.coefficients[0] == 0:
                raise DegenerateMapError("denominator is identically zero")
            scaled = numerator.scale(1.0 / denominator.coefficients[0])
            return MapSpec(scaled, ONE)
        if numerator.degree >= 1:
            num_roots = poly_roots(numerator, tol=1e-10)
            den_roots = poly_roots(denominator, tol=1e-10)
            for a in num_roots:
                for b in den_roots:
                    if abs(a - b) <= COPRIMALITY_TOL * max(1.0, abs(a), abs(b)):
                        raise DegenerateMapError(
                            f"numerator and denominator share a root near {a}"
                        )
        return MapSpec(numerator, denominator)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return max(self.numerator.degree, self.denominator.degree)

    @cached_property
    def is_polynomial(self) -> bool:
        return self.denominator.is_constant

    @cached_property
    def derivative_numerator(self) -> Polynomial:
        """Numerator of R': P'Q - PQ' (just P' for polynomial maps)."""
        if self.is_polynomial:
            return self.numerator.derivative().scale(
                1.0 / self.denominator.coefficients[0]
            )
        return self.numerator.derivative() * self.denominator - self.numerator * self.denominator.derivative()

    @cached_property
    def critical_points(self) -> tuple[complex, ...]:
        """Finite-plane critical points, clustered within 1e-7 and deduplicated.

        A cluster of k nearby roots of R' is reported once (its centroid).
        """
        dnum = self.derivative_numerator
        if dnum.is_zero:
            raise DegenerateMapError("derivative vanishes identically")
        if dnum.degree < 1:
            return ()
        roots = poly_roots(dnum, tol=1e-12)
        out = []
        for center, _ in cluster_points(roots, tol=CLUSTER_TOL):
            center = _polish_root(dnum, center)
            residual = abs(dnum(center))
            scale = max(dnum.eval_scale(center), 1e-300)
            if residual > CRITICAL_RESIDUAL_TOL * scale:
                raise RootFindingError(
                    f"critical point candidate {center} has residual {residual:.3e}"
                )
            out.append(center)
        return tuple(out)

    @cached_property
    def julia_point(self) -> complex:
        """The start of every backward walk: the finite fixed point with the
        largest |R'|, or a pole when infinity is a fixed point of larger
        multiplier or P - zQ is constant.  By the holomorphic index formula
        the most repelling fixed point has |R'| >= 1, so the start is in J."""
        at_infinity = _infinity_multiplier(self)
        best, best_slope = None, -1.0 if at_infinity is None else abs(at_infinity)
        fixed_equation = self.numerator - self.denominator * Polynomial.monomial(1)
        for z in poly_roots(fixed_equation, tol=1e-12) if fixed_equation.degree else ():
            try:
                slope = abs(eval_map(self, z)[1])
            except PoleError:
                continue
            if slope > best_slope:
                best, best_slope = z, slope
        return poly_roots(self.denominator, tol=1e-12)[0] if best is None else best


def _infinity_multiplier(map: MapSpec) -> complex | None:
    """The multiplier q_lead / p_lead of infinity if deg P = deg Q + 1, else None."""
    num, den = map.numerator.coefficients, map.denominator.coefficients
    return den[-1] / num[-1] if len(num) == len(den) + 1 else None


def _polish_root(p: Polynomial, z: complex, iterations: int = 3) -> complex:
    for _ in range(iterations):
        val, der = p.eval_with_derivative(z)
        if der == 0:
            return z
        step = val / der
        if abs(step) > 1.0 + abs(z):
            return z
        z = z - step
    return z


def eval_map(map: MapSpec, z: complex) -> tuple[complex, complex]:
    """R(z) and DR(z) by Horner and the quotient rule.

    Raises PoleError when |denominator(z)| falls below the pole tolerance
    relative to the local coefficient scale, or its square underflows.
    """
    z = complex(z)
    p, dp = map.numerator.eval_with_derivative(z)
    if map.is_polynomial:
        q0 = map.denominator.coefficients[0]
        return p / q0, dp / q0
    q, dq = map.denominator.eval_with_derivative(z)
    scale = max(map.denominator.eval_scale(z), 1e-300)
    q2 = q * q  # can underflow to 0 where |q| itself passes the relative test
    if abs(q) <= POLE_TOL * scale or q2 == 0:
        raise PoleError(f"evaluation at {z} is within pole tolerance")
    value = p / q
    derivative = (dp * q - p * dq) / q2
    return value, derivative


def _derivative_lanes(map: MapSpec, zr, zi):
    """DR at the lanes zr + i zi as eval_map forms it, and the lanes where
    eval_map raises PoleError instead.  Elsewhere DR is finite where
    eval_map's is, and then it is eval_map's bit for bit."""
    num = [(a.real, a.imag) for a in map.numerator.coefficients]
    pr, pi, dpr, dpi = horner_lanes(num, zr, zi, derivative=True)
    if map.is_polynomial:
        q0 = map.denominator.coefficients[0]
        dr, di = _cdiv_lanes(dpr, dpi, q0.real, q0.imag)
        return dr, di, np.zeros(np.shape(dr), dtype=bool)
    den = [(a.real, a.imag) for a in map.denominator.coefficients]
    qr, qi, dqr, dqi = horner_lanes(den, zr, zi, derivative=True)
    scale = _horner_scale(map.denominator.coefficients, np.hypot(zr, zi))
    ar, ai = cmul_lanes(dpr, dpi, qr, qi)
    br, bi = cmul_lanes(pr, pi, dqr, dqi)
    q2r, q2i = cmul_lanes(qr, qi, qr, qi)
    dr, di = _cdiv_lanes(ar - br, ai - bi, q2r, q2i)
    pole = (np.hypot(qr, qi) <= POLE_TOL * np.maximum(scale, 1e-300)) | ((q2r == 0.0) & (q2i == 0.0))
    return dr, di, pole


def eval_map_many(map: MapSpec, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (value, derivative) of a polynomial map, as the census
    iterates it.  Raises ValueError for any other map."""
    if not map.is_polynomial:
        raise ValueError("eval_map_many takes a polynomial map")
    p, dp = map.numerator.eval_with_derivative(np.asarray(z, dtype=complex))
    q0 = map.denominator.coefficients[0]
    return p / q0, dp / q0


def is_critical_point(map: MapSpec, z: complex) -> bool:
    """Residual check: does z satisfy |R'(z)| < tolerance at local scale?"""
    dnum = map.derivative_numerator
    scale = max(dnum.eval_scale(z), 1e-300)
    return abs(dnum(z)) <= CRITICAL_RESIDUAL_TOL * scale


def perturbed(map: MapSpec, field, lam: complex) -> MapSpec:
    """The map R + lam * v as a MapSpec.

    With v = vn/vd this is (P*vd + lam*vn*Q)/(Q*vd); coprimality is
    preserved structurally when v is polynomial (the common case), so no
    root-based validation is re-run here.
    """
    if lam == 0:
        return map
    vn, vd = field.numerator, field.denominator
    if vd.is_constant:
        vn = vn.scale(1.0 / vd.coefficients[0])
        num = map.numerator + vn.scale(lam) * map.denominator
        return MapSpec(num, map.denominator)
    num = map.numerator * vd + (vn * map.denominator).scale(lam)
    den = map.denominator * vd
    return MapSpec(num, den)


def default_escape_radius(d: int, c: complex) -> float:
    """Escape bound for z**d + c with margin: max(2, |c|^(1/(d-1))) + 1."""
    return max(2.0, abs(c) ** (1.0 / (d - 1))) + 1.0

