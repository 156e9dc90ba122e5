"""Complex polynomials (lowest-degree-first coefficients) and root finding.

The root finder is a simultaneous Aberth-Ehrlich iteration: all roots are
corrected at once, so there is no deflation-order sensitivity and clustered
roots degrade gracefully instead of poisoning later extractions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import RootFindingError
from .xcomplex import cmul_lanes

#: Two roots closer than this (relative to scale) are considered one
#: multiple root when clustering.
CLUSTER_TOL = 1e-7

#: Entries of the Aberth pairwise sum held at once (256 KiB of complex128).
ABERTH_BLOCK = 1 << 14

#: Sweep cap of the Aberth-Ehrlich iteration of poly_roots.
ABERTH_MAX_ITER = 400


def _trim(coeffs):
    """coeffs without its trailing zeros, keeping at least one entry."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _horner(coefficients, z):
    """sum_k c_k z^k by Horner, constant term first; Polynomial.__call__."""
    value = coefficients[-1]
    for a in coefficients[-2::-1]:
        value = value * z + a
    return value


def _horner_scale(coefficients, z):
    """sum_k |c_k| |z|^k by Horner; Polynomial.eval_scale."""
    az, s = abs(z), 0.0
    for a in reversed(coefficients):
        s = s * az + abs(a)
    return s


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with complex coefficients, constant term first.

    Trailing zero coefficients are trimmed on construction, so the leading
    coefficient is nonzero unless the polynomial is identically zero (which
    is stored as the single coefficient 0).
    """

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = _trim(tuple(map(complex, self.coefficients)))
        object.__setattr__(self, "coefficients", coeffs or (0j,))

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
        """p(z) by Horner, on a scalar or elementwise on an ndarray."""
        value = _horner(self.coefficients, z)
        if not self.degree and isinstance(z, np.ndarray):
            return np.full_like(z, value, dtype=complex)
        return value

    def eval_with_derivative(self, z):
        """(p(z), p'(z)) by one Horner pass, on a scalar or elementwise on
        an ndarray; horner_lanes repeats it on float64 lanes, so keep the
        two in step."""
        p, dp = self.coefficients[-1], 0j
        for a in reversed(self.coefficients[:-1]):
            dp = dp * z + p
            p = p * z + a
        if not self.degree and isinstance(z, np.ndarray):
            return np.full_like(z, p, dtype=complex), np.zeros_like(z, dtype=complex)
        return p, dp

    def eval_scale(self, z):
        """sum_k |c_k| |z|^k, the natural residual scale at z (or at each z)."""
        return _horner_scale(self.coefficients, z)

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


def poly_roots(p: Polynomial, tol: float = 1e-12) -> tuple[complex, ...]:
    """All complex roots of p, with multiplicity: _solve_roots on its coefficients.

    A binomial a_0 + a_n z^n (every coefficient strictly between the
    constant and the leading one zero, as in the preimage equation of
    z^d + c) gets its n-th roots of -a_0/a_n in closed form instead, unless
    one of them misses the residual bound below; then it goes to Aberth.

    Every returned root r satisfies |p(r)| < tol * (sum_k |c_k| |r|^k).
    Roots are sorted by (real, imaginary) for determinism.  Raises
    RootFindingError if the simultaneous Aberth-Ehrlich iteration does not settle.
    """
    if p.degree < 1:
        raise ValueError("poly_roots requires degree >= 1")
    return tuple(_solve_roots(p.coefficients, tol))


def _solve_roots(coeffs, tol: float = 1e-12) -> list[complex]:
    """poly_roots on trimmed coefficients (constant first, degree >= 1), as a sorted list."""
    # exact roots at the origin are factored out: Aberth needs a nonzero constant term
    n_zero = 0
    while coeffs[n_zero] == 0:
        n_zero += 1
    roots: list[complex] = [0j] * n_zero
    rest = coeffs[n_zero:]
    n = len(rest) - 1
    if n == 1:
        roots.append(-rest[0] / rest[1])
    elif n > 1:
        closed = None if any(rest[1:-1]) else _binomial_roots(rest[0], rest[-1], n)
        if closed is None or not all(abs(_horner(coeffs, r)) < tol * _horner_scale(coeffs, r) for r in closed):
            closed = _aberth(np.asarray(rest, dtype=complex), tol, ABERTH_MAX_ITER)
        roots.extend(closed)
    return sorted(roots, key=attrgetter("real", "imag"))


def _binomial_roots(a0: complex, an: complex, n: int) -> list[complex]:
    """The n roots of a0 + an z^n: the n-th roots of a = -a0/an."""
    a = -a0 / an
    modulus = abs(a) ** (1.0 / n)
    phase = cmath.phase(a)
    return [cmath.rect(modulus, (phase + 2.0 * math.pi * k) / n) for k in range(n)]


# far from the roots p and the pairwise sums may overflow; such a point never settles
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _aberth(coeffs: np.ndarray, tol: float, max_iter: int) -> list[complex]:
    """Roots of p = sum coeffs[k] z^k by Aberth-Ehrlich sweeps: p and p'
    from eval_with_derivative, the pairwise sums from the blocked _repulsion
    of the cycle census, so at most ABERTH_BLOCK of them are held at once."""
    p = Polynomial(tuple(coeffs))
    n = p.degree
    # Cauchy bound on root modulus; seeds on that circle with a fixed
    # angular offset to avoid symmetric stalls.
    bound = 1.0 + float(np.max(np.abs(coeffs[:-1]))) / abs(coeffs[-1])
    angles = 2.0 * math.pi * (np.arange(n) + 0.376) / n
    z = bound * np.exp(1j * angles)
    abs_coeffs = np.abs(coeffs)

    def settled(z, pv):
        # residual scale on np.abs(coeffs), not eval_scale's abs(complex):
        # abs() of a float64 is itself; an overflowed scale would let inf <=
        # inf pass
        scale = _horner_scale(abs_coeffs, z)
        return (np.abs(pv) <= tol * np.maximum(scale, 1e-300)) & np.isfinite(scale)

    for _ in range(max_iter):
        pv, dv = p.eval_with_derivative(z)
        converged = settled(z, pv)
        if converged.all():
            return list(map(complex, z))

        w = np.where(dv != 0, pv / np.where(dv != 0, dv, 1.0), 0.0)
        denom = 1.0 - w * _repulsion(z, np.arange(n))
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
    if not settled(z, p(z)).all():
        raise RootFindingError(
            f"Aberth iteration did not converge for degree {n} polynomial"
        )
    return list(map(complex, z))


def _repulsion(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1 / (z_i - z_j) for each i in rows, a block of rows at a
    time so that no more than ABERTH_BLOCK entries are held; each row is
    summed whole, so the blocking does not change the bits."""
    out = np.empty(len(rows), dtype=complex)
    block = max(1, min(len(rows), ABERTH_BLOCK // len(z)))
    buffer = np.empty((block, len(z)), dtype=complex)
    for start in range(0, len(rows), block):
        idx = rows[start : start + block]
        diag = (np.arange(len(idx)), idx)
        part = buffer[: len(idx)]
        np.subtract(z[idx, None], z[None, :], out=part)
        part[diag] = 1.0
        np.divide(1.0, part, out=part)
        part[diag] = 0.0
        part.sum(axis=1, out=out[start : start + len(idx)])
    return out


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
