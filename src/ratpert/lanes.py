"""The scan's candidate diagnostics run as numpy lanes, one per parameter.

For each candidate c of the family z**d + c, the scan needs the critical
orbit of 0 with its derivative cocycle, the summability verdict and the
growth fit of the obstruction sequence b.  The scalar path builds an
OrbitRecord and an ObstructionSeries per candidate; here one fused step
loop advances every candidate at once and keeps only what the verdict and
the fit read.

Lane values repeat the scalar arithmetic step for step, so every lane is
bit-identical to the scalar path: extended-range values and their
operations are the lane versions in xcomplex.py, polynomials are evaluated
by polynomial.horner_lanes, quotients follow CPython's complex division,
and the logarithms of the verdict and the fit are taken with ``math``, not
numpy.  The verdict and the fit themselves are the scalar code's own.
``np.hypot`` equals ``abs(complex)``, so the relation and escape tests
compare with their tolerance and radius exactly, as the scalar path does.

A lane whose orbit does anything the scalar path reports or treats
specially leaves the batch (its result is None) and the caller runs the
scalar path for it: a critical or near-critical relation, a vanishing
derivative, escape, a non-finite value, and summable evidence (whose
constant-field functional needs the whole orbit).  With a rational field
every lane leaves.

A step of the loop costs about as much as a step of the scalar path for
MIN_LANES lanes; the scan sends smaller batches to the scalar path.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import VectorFieldSpec
from .maps import MapSpec
from .obstruction import _fit_samples, _fit_start
from .orbits import (
    NEAR_RELATION_TOL,
    STABILIZATION_TOL,
    _tail_report,
    default_summability_window,
)
from .polynomial import horner_lanes
from .xcomplex import add_lanes, mul_lanes, normalize_lanes, reciprocal_lanes

#: Break-even lane count: on z**2 + c candidates from the scan-boundary
#: region, the loop was slower than the scalar path below 10-12 lanes and
#: faster above, at orbit lengths 256 and 2048 alike (2-CPU x86-64 box,
#: Python 3.11, numpy 2.4).
MIN_LANES = 12

#: Nominal lanes per block times the length of the fit window.  A block
#: keeps b over the fit window in 16 bytes an entry, so at most 2 MB (equal
#: blocks hold up to twice the nominal lane count), unless MIN_LANES lanes
#: of a very long orbit need more.
BLOCK_ENTRIES = 1 << 16

_LN2 = math.log(2.0)


def _cdiv_const(ar, ai, q: complex):
    """(ar + i ai) / q by CPython's complex division, for a constant q."""
    if abs(q.real) >= abs(q.imag):
        ratio = q.imag / q.real
        denom = q.real + q.imag * ratio
        return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    ratio = q.real / q.imag
    denom = q.real * ratio + q.imag
    return (ar * ratio + ai) / denom, (ai * ratio - ar) / denom


def candidate_lanes(
    cs: list[complex],
    radii: list[float],
    d: int,
    orbit_length: int,
    field: VectorFieldSpec,
) -> list[tuple[str, float, str] | None]:
    """(summability, growth exponent, bounded evidence) per candidate c of
    z**d + c, or None for a lane that left the batch.

    Each lane is what iterate_orbit(z**d + c, 0, orbit_length, radius),
    summability_report at the default window and obstruction_sequence over
    the whole orbit give, when they give it without incident.  Lanes run in
    equal blocks of block to 2 * block - 1 candidates (all of them if there
    are fewer), where block is BLOCK_ENTRIES / (fit window) but at least
    MIN_LANES.  With a rational field every lane leaves.
    """
    if not field.is_polynomial:
        return [None] * len(cs)
    n = orbit_length + 1
    block = max(MIN_LANES, BLOCK_ENTRIES // (n - _fit_start(n) + 1))
    count = max(1, len(cs) // block)
    bounds = [len(cs) * i // count for i in range(count + 1)]
    out: list[tuple[str, float, str] | None] = []
    for lo, hi in zip(bounds, bounds[1:]):
        out.extend(_run_block(cs[lo:hi], radii[lo:hi], d, orbit_length, field))
    return out


def _run_block(cs, radii, d, orbit_length, field):
    lanes = len(cs)
    last = orbit_length
    window = default_summability_window(last + 1)
    fit_start = _fit_start(last + 1)
    template = MapSpec.unicritical(d, 0j)
    crit = [(cp.real, cp.imag, max(1.0, abs(cp))) for cp in template.critical_points]
    map_q = template.denominator.coefficients[0]
    c = np.asarray(cs, dtype=complex)
    map_coeffs = [(c.real.copy(), c.imag.copy())] + [
        (a.real, a.imag) for a in template.numerator.coefficients[1:]
    ]
    field_coeffs = [(a.real, a.imag) for a in field.numerator.coefficients]
    field_q = field.denominator.coefficients[0]
    radius = np.asarray(radii, dtype=float)

    zeros = np.zeros(lanes)
    zr, zi = zeros.copy(), zeros.copy()  # points[0] = 0
    cocycle = (np.ones(lanes), zeros.copy(), np.zeros(lanes, dtype=np.int64))
    b = (zeros.copy(), zeros.copy(), np.zeros(lanes, dtype=np.int64))
    partial = np.ones(lanes)
    alive = np.ones(lanes, dtype=bool)

    # what the verdict and the fit read: partial sums over the last
    # 2*window steps, |cocycle| at last - window and last, b over the fit
    partials = np.empty((2 * window + 1, lanes))
    cocycle_at = {}
    b_abs = np.empty((last + 2 - fit_start, lanes))
    b_exp = np.empty((last + 2 - fit_start, lanes), dtype=np.int64)

    with np.errstate(all="ignore"):
        for k in range(last + 1):
            vr, vi, dzr, dzi = horner_lanes(map_coeffs, zr, zi, derivative=True)
            vr, vi = _cdiv_const(vr, vi, map_q)
            dzr, dzi = _cdiv_const(dzr, dzi, map_q)
            fr, fi, _, _ = horner_lanes(field_coeffs, zr, zi, derivative=False)
            fr, fi = (np.broadcast_to(x, (lanes,)) for x in _cdiv_const(fr, fi, field_q))
            alive &= np.isfinite(dzr) & np.isfinite(dzi) & np.isfinite(fr) & np.isfinite(fi)
            dz = normalize_lanes(dzr, dzi, 0)
            if k >= 1:
                nearest = np.minimum.reduce(
                    [np.hypot(zr - cpr, zi - cpi) / scale for cpr, cpi, scale in crit]
                )
                alive &= ~(nearest < NEAR_RELATION_TOL)
                alive &= (dzr != 0.0) | (dzi != 0.0)
                alive &= np.hypot(zr, zi) <= radius
                cocycle = mul_lanes(cocycle, dz)
                inverse = reciprocal_lanes(cocycle)
                partial = partial + np.ldexp(np.hypot(inverse[0], inverse[1]), inverse[2])
                if k >= last - 2 * window:
                    partials[k - (last - 2 * window)] = partial
                if k in (last - window, last):
                    cocycle_at[k] = (np.hypot(cocycle[0], cocycle[1]), cocycle[2].copy())
            b = add_lanes(mul_lanes(dz, b), normalize_lanes(fr, fi, 0))
            if k + 1 >= fit_start:
                b_abs[k + 1 - fit_start] = np.hypot(b[0], b[1])
                b_exp[k + 1 - fit_start] = b[2]
            zr, zi = vr, vi

    increments = partials[1:] - partials[:-1]
    (abs_w, exp_w), (abs_n, exp_n) = cocycle_at[last - window], cocycle_at[last]
    out = []
    for i in range(lanes):
        if not alive[i]:
            out.append(None)
            continue
        log2_drop = (math.log2(abs_w[i]) + int(exp_w[i])) - (math.log2(abs_n[i]) + int(exp_n[i]))
        report = _tail_report(
            float(partials[-1, i]), log2_drop, increments[:, i].tolist(), window, last + 1,
            STABILIZATION_TOL,
        )
        if report.classification == "summable-evidence":
            out.append(None)
            continue
        samples = [
            (fit_start + j, math.log(a) + e * _LN2)
            for j, (a, e) in enumerate(zip(b_abs[:, i].tolist(), b_exp[:, i].tolist()))
            if a != 0.0
        ]
        growth, evidence = _fit_samples(samples)
        out.append((report.classification, growth, evidence))
    return out
