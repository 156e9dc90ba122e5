"""Complex polynomials (lowest-degree-first coefficients) and root finding.

The root finder is a simultaneous Aberth-Ehrlich iteration: all roots are
corrected at once, so there is no deflation-order sensitivity and clustered
roots degrade gracefully instead of poisoning later extractions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RootFindingError
from .xcomplex import cmul_lanes

#: Two roots closer than this (relative to scale) are considered one
#: multiple root when clustering.
CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with complex coefficients, constant term first.

    Trailing zero coefficients are trimmed on construction, so the leading
    coefficient is nonzero unless the polynomial is identically zero (which
    is stored as the single coefficient 0).
    """

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(a) for a in self.coefficients)
        n = len(coeffs)
        while n > 1 and coeffs[n - 1] == 0:
            n -= 1
        if n == 0:
            coeffs = (0j,)
            n = 1
        object.__setattr__(self, "coefficients", coeffs[:n])

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(a: complex) -> "Polynomial":
        return Polynomial((complex(a),))

    @staticmethod
    def monomial(degree: int, coefficient: complex = 1.0) -> "Polynomial":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return Polynomial((0j,) * degree + (complex(coefficient),))

    @staticmethod
    def from_roots(roots: Sequence[complex], leading: complex = 1.0) -> "Polynomial":
        p = Polynomial.constant(leading)
        for r in roots:
            p = p * Polynomial((-complex(r), 1 + 0j))
        return p

    # -- structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coefficients) == 1 and self.coefficients[0] == 0

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def derivative(self) -> "Polynomial":
        c = self.coefficients
        if len(c) == 1:
            return Polynomial((0j,))
        return Polynomial(tuple(k * c[k] for k in range(1, len(c))))

    # -- evaluation ------------------------------------------------------

    def __call__(self, z):
        if isinstance(z, np.ndarray):
            acc = np.full_like(z, self.coefficients[-1], dtype=complex)
            for a in reversed(self.coefficients[:-1]):
                acc = acc * z + a
            return acc
        value = self.coefficients[-1]
        for a in reversed(self.coefficients[:-1]):
            value = value * z + a
        return value

    def eval_with_derivative(self, z):
        """Horner pass returning (p(z), p'(z)); z may be scalar or ndarray.

        horner_lanes repeats the scalar pass on float64 lanes; keep the two
        in step."""
        if isinstance(z, np.ndarray):
            p = np.full_like(z, self.coefficients[-1], dtype=complex)
            dp = np.zeros_like(z, dtype=complex)
            for a in reversed(self.coefficients[:-1]):
                dp = dp * z + p
                p = p * z + a
            return p, dp
        p = self.coefficients[-1]
        dp = 0j
        for a in reversed(self.coefficients[:-1]):
            dp = dp * z + p
            p = p * z + a
        return p, dp

    def eval_scale(self, z) -> float:
        """sum_k |c_k| |z|^k, the natural residual scale at z."""
        az = abs(z)
        s = 0.0
        for a in reversed(self.coefficients):
            s = s * az + abs(a)
        return s

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, v in enumerate(b):
            out[k] += v
        return Polynomial(tuple(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial((0j,))
        a, b = self.coefficients, other.coefficients
        out = [0j] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Polynomial(tuple(out))

    def scale(self, factor: complex) -> "Polynomial":
        return Polynomial(tuple(factor * a for a in self.coefficients))


ONE = Polynomial((1 + 0j,))


def horner_lanes(coefficients, zr, zi, derivative: bool):
    """Polynomial.eval_with_derivative (or __call__) of the scalar path on
    float64 lanes, as (p re, p im, p' re, p' im); coefficients are (re, im)
    pairs, constant term first, each a float or an array."""
    pr, pi = coefficients[-1]
    dr, di = 0.0, 0.0
    for ar, ai in reversed(coefficients[:-1]):
        if derivative:
            tr, ti = cmul_lanes(dr, di, zr, zi)
            dr, di = tr + pr, ti + pi
        tr, ti = cmul_lanes(pr, pi, zr, zi)
        pr, pi = tr + ar, ti + ai
    return pr, pi, dr, di


def poly_roots(
    p: Polynomial, tol: float = 1e-12, max_iter: int = 400
) -> tuple[complex, ...]:
    """All complex roots of p, with multiplicity, via Aberth-Ehrlich.

    A binomial a_0 + a_n z^n (every coefficient strictly between the
    constant and the leading one zero, as in the preimage equation of
    z^d + c) gets its n-th roots of -a_0/a_n in closed form instead, unless
    one of them misses the residual bound below; then it goes to Aberth.

    Every returned root r satisfies |p(r)| < tol * (sum_k |c_k| |r|^k).
    Roots are sorted by (real, imaginary) for determinism.  Raises
    RootFindingError if the simultaneous iteration does not settle.
    """
    if p.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    coeffs = list(p.coefficients)

    # Exact roots at the origin: factor them out so the iteration only
    # sees a polynomial with nonzero constant term.
    n_zero = 0
    while coeffs[0] == 0 and len(coeffs) > 1:
        coeffs.pop(0)
        n_zero += 1
    roots: list[complex] = [0j] * n_zero

    n = len(coeffs) - 1
    if n == 0:
        pass
    elif n == 1:
        roots.append(-coeffs[0] / coeffs[1])
    else:
        closed = None if any(coeffs[1:-1]) else _binomial_roots(coeffs[0], coeffs[-1], n)
        if closed is None or not all(abs(p(r)) < tol * p.eval_scale(r) for r in closed):
            closed = _aberth(np.asarray(coeffs, dtype=complex), tol, max_iter)
        roots.extend(closed)
    return tuple(sorted(roots, key=lambda z: (z.real, z.imag)))


def _binomial_roots(a0: complex, an: complex, n: int) -> list[complex]:
    """The n roots of a0 + an z^n: the n-th roots of a = -a0/an."""
    a = -a0 / an
    modulus = abs(a) ** (1.0 / n)
    phase = cmath.phase(a)
    return [cmath.rect(modulus, (phase + 2.0 * math.pi * k) / n) for k in range(n)]


def _aberth(coeffs: np.ndarray, tol: float, max_iter: int) -> list[complex]:
    n = len(coeffs) - 1
    lead = coeffs[-1]
    # Cauchy bound on root modulus; seeds on that circle with a fixed
    # angular offset to avoid symmetric stalls.
    bound = 1.0 + float(np.max(np.abs(coeffs[:-1]))) / abs(lead)
    angles = 2.0 * math.pi * (np.arange(n) + 0.376) / n
    z = bound * np.exp(1j * angles)

    abs_coeffs = np.abs(coeffs)
    for _ in range(max_iter):
        pv = np.full(n, coeffs[-1], dtype=complex)
        dv = np.zeros(n, dtype=complex)
        for a in coeffs[-2::-1]:
            dv = dv * z + pv
            pv = pv * z + a
        # residual scale per point
        az = np.abs(z)
        scale = np.zeros(n)
        for a in abs_coeffs[::-1]:
            scale = scale * az + a
        converged = np.abs(pv) <= tol * np.maximum(scale, 1e-300)
        if converged.all():
            return list(map(complex, z))

        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(dv != 0, pv / np.where(dv != 0, dv, 1.0), 0.0)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            s = inv.sum(axis=1)
            denom = 1.0 - w * s
            step = np.where(np.abs(denom) > 1e-300, w / np.where(denom != 0, denom, 1.0), w)
        # nudge any point where the derivative vanished exactly
        dead = (dv == 0) & ~converged
        if dead.any():
            step = np.where(dead, 0.05 * bound * np.exp(1j * np.angle(z)) + 0.01j, step)
        step = np.where(converged, 0.0, step)
        z = z - step
        if float(np.max(np.abs(step))) <= 1e-16 * float(np.max(1.0 + np.abs(z))):
            break

    # final residual check against the requested tolerance
    pv = np.full(n, coeffs[-1], dtype=complex)
    for a in coeffs[-2::-1]:
        pv = pv * z + a
    az = np.abs(z)
    scale = np.zeros(n)
    for a in abs_coeffs[::-1]:
        scale = scale * az + a
    if not (np.abs(pv) <= tol * np.maximum(scale, 1e-300)).all():
        raise RootFindingError(
            f"Aberth iteration did not converge for degree {n} polynomial"
        )
    return list(map(complex, z))


def cluster_points(
    points: Sequence[complex], tol: float = CLUSTER_TOL
) -> list[tuple[complex, int]]:
    """Greedily merge points closer than tol; returns (centroid, count) pairs.

    Input order does not matter: points are pre-sorted, so the clustering
    is deterministic.
    """
    remaining = sorted(points, key=lambda z: (z.real, z.imag))
    clusters: list[tuple[complex, int]] = []
    for pt in remaining:
        placed = False
        for i, (center, count) in enumerate(clusters):
            if abs(pt - center) <= tol * max(1.0, abs(center)):
                new_count = count + 1
                clusters[i] = ((center * count + pt) / new_count, new_count)
                placed = True
                break
        if not placed:
            clusters.append((pt, 1))
    return clusters
