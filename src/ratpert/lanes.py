"""The scan's per-point work, run as numpy lanes, one per parameter.

The scan classifies every parameter c of the family z**d + c and then runs
the diagnostics of the candidates.  _classify_lanes runs classify_parameter
for a chunk of parameters at once: the critical orbits advance in lockstep
with the escape and coincidence tests of every undecided lane, and each
coincidence goes to the scalar period solver.  candidate_lanes gives, for
each candidate, the summability verdict and the growth fit of the
obstruction sequence b, from the critical orbit of 0 and its derivative
cocycle.  The scalar path builds an OrbitRecord and an ObstructionSeries
per candidate; here the lanes keep only what the verdict and the fit read.

The candidate loop runs in segments of a few steps.  In each, a sequential
pass advances the orbit alone; one vectorized pass over the segment's steps
and lanes evaluates DR and the field and makes every test on the orbit
points; a second sequential pass runs only the recurrences, the cocycle
product and b; and the reciprocals of the cocycle and the partial sums of
their moduli are again taken over the whole segment at once.

Lane values repeat the scalar arithmetic step for step, so every lane is
bit-identical to the scalar path: extended-range values and their
operations are the lane versions in xcomplex.py, polynomials are evaluated
by polynomial.horner_lanes (the orbit step _step_lanes without Horner's
product by 1 and sums with 0, which change at most the sign of a zero),
products are formed componentwise as Python forms them, quotients follow
CPython's complex division, partial sums are added in order
(np.add.accumulate), and the logarithms of the verdict and the fit are
taken with ``math``, not numpy.  The verdict and the fit themselves are
the scalar code's own.  ``np.hypot`` equals ``abs(complex)``, so the
relation, escape and coincidence tests compare with their tolerance and
radius exactly, as the scalar path does.

A candidate lane whose orbit does anything the scalar path reports or
treats specially leaves the batch (its result is None) and the caller runs
the scalar path for it: a critical or near-critical relation, a vanishing
derivative, escape, a non-finite value, and summable evidence (whose
constant-field functional needs the whole orbit).  The field is evaluated
as the scalar path evaluates it (fields._field_lanes), a rational one
included.

A step of the candidate loop costs about as much as a step of the per-point
chain for MIN_LANES candidates, and a step of the classifier about as much
as 15-20 scalar classification steps; the scan sends chunks with fewer than
MIN_LANES points or candidates to the scalar code.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import VectorFieldSpec, _field_lanes
from .maps import MapSpec
from .obstruction import _fit_moduli, _fit_start
from .orbits import (
    CYCLE_DETECT_TOL,
    STABILIZATION_TOL,
    ParameterClass,
    _reciprocal_sums,
    _refine_coincidence,
    _step_tests,
    _tail_report,
    default_summability_window,
)
from .xcomplex import add_lanes, cmul_lanes, mul_lanes, normalize_lanes

#: Break-even lane count of the candidate loop: on z**2 + c and z**3 + c
#: candidates near the boundary it was slower than the per-point chain
#: (iterate_orbit and obstruction_sequence, measured when they still ran
#: in segments of SEGMENT_ENTRIES steps) below 20-24 lanes
#: and faster above, at orbit lengths 256 and 1024; the per-point/lanes
#: time ratio was 0.5-0.9 at 12 lanes, 0.9-1.0 at 20 and 1.2-1.7 at 32
#: (2-CPU x86-64 box, Python 3.11, numpy 2.4).  Against the step-by-step
#: chain it replaced, which took twice as long, break-even was 10-12.  The
#: scan classifies chunks of at least MIN_LANES points as lanes too; that
#: loop breaks even at 15-20 points that stay undecided.
MIN_LANES = 20

#: Nominal lanes per block times the length of the fit window.  A block
#: keeps b over the fit window in 16 bytes an entry, so at most 2 MB (equal
#: blocks hold up to twice the nominal lane count), unless MIN_LANES lanes
#: of a very long orbit need more.
BLOCK_ENTRIES = 1 << 16

#: Lanes times steps of a segment of _run_block's step loop (at least one
#: step); the scalar orbit and series run in one pass, not in segments.  A
#: scan-boundary scan (about 185 candidates, orbit 256) ran about as fast
#: with 2,048 to 4,096 entries a segment and 10% slower with 1,024, and the
#: scan raised peak RSS by 1.3 MB at 2,048 and by 1.6-1.8 MB at 4,096.
SEGMENT_ENTRIES = BLOCK_ENTRIES // 32


def _step_lanes(zr, zi, cr, ci, d):
    """_unicritical_step on lanes: d - 1 products as Python forms them, + c."""
    wr, wi = zr, zi
    for _ in range(d - 1):
        wr, wi = cmul_lanes(wr, wi, zr, zi)
    return wr + cr, wi + ci


def _classify_lanes(cs: list[complex], radii: list[float], d: int, n_max: int) -> list[ParameterClass]:
    """classify_parameter(c, d, n_max, radius) for every c of z**d + c, the
    orbits run as lanes.

    Each step is _step_lanes, then the escape and the coincidence test of
    every undecided lane; the coincidences of a step go to
    _refine_coincidence in lane order, at most 4 per lane.  A decided lane
    keeps iterating but is tested no more.
    """
    lanes = len(cs)
    cr, ci = np.real(cs).copy(), np.imag(cs).copy()
    radius = np.asarray(radii, dtype=float)
    zr, zi = np.zeros(lanes), np.zeros(lanes)
    anchor_r, anchor_i, anchor_index, next_power = zr, zi, 0, 1
    attempts = [0] * lanes
    out: list[ParameterClass | None] = [None] * lanes
    testable = np.ones(lanes, dtype=bool)  # undecided, with attempts left
    undecided = np.ones(lanes, dtype=bool)

    with np.errstate(all="ignore"):
        for k in range(1, n_max + 1):
            zr, zi = _step_lanes(zr, zi, cr, ci, d)
            size = np.hypot(zr, zi)
            # not |z| <= radius: an overflow to nan escapes too
            escaped = undecided & ~(size <= radius)
            if escaped.any():
                for i in np.flatnonzero(escaped):
                    out[i] = ParameterClass("escaping", None, None, k)
                undecided &= ~escaped
                testable &= undecided
            near = testable & (
                np.hypot(zr - anchor_r, zi - anchor_i) < CYCLE_DETECT_TOL * np.maximum(1.0, size)
            )
            for i in np.flatnonzero(near):
                attempts[i] += 1
                testable[i] = attempts[i] < 4
                cycle = _refine_coincidence(cs[i], d, complex(zr[i], zi[i]), k - anchor_index)
                if cycle is not None and abs(cycle.multiplier) < 1.0:
                    out[i] = ParameterClass("attracting", cycle.period, cycle.multiplier, k)
                    undecided[i] = testable[i] = False
            if not undecided.any():
                break
            if k == next_power:
                anchor_r, anchor_i, anchor_index = zr, zi, k
                next_power *= 2

    return [ParameterClass("undecided", None, None, n_max) if x is None else x for x in out]


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
    MIN_LANES.  A rational field runs as lanes too: where it is not
    finite (a pole on the orbit) the lane leaves.
    """
    n = orbit_length + 1
    block = max(MIN_LANES, BLOCK_ENTRIES // (n - _fit_start(n) + 1))
    count = max(1, len(cs) // block)
    bounds = [len(cs) * i // count for i in range(count + 1)]
    out: list[tuple[str, float, str] | None] = []
    for lo, hi in zip(bounds, bounds[1:]):
        segment = max(1, SEGMENT_ENTRIES // (hi - lo))
        out.extend(_run_block(cs[lo:hi], radii[lo:hi], d, orbit_length, field, segment))
    return out


def _run_block(cs, radii, d, orbit_length, field, segment):
    lanes = len(cs)
    last = orbit_length
    window = default_summability_window(last + 1)
    fit_start = _fit_start(last + 1)
    # DR of z**d + c does not read c, so one map serves every lane
    template = MapSpec.unicritical(d, 0j)
    c_re, c_im = np.real(cs).copy(), np.imag(cs).copy()
    radius = np.asarray(radii, dtype=float)

    def point_terms(zr, zi, first):
        """DR and v at the orbit points zr + i zi of a segment (a row a
        step), normalized, and which lanes pass every test there: values
        are finite, and from row `first` on (the steps k >= 1) the step
        tests of iterate_orbit pass (_step_tests)."""
        dzr, dzi, _, _, _, ok = _step_tests(template, zr, zi, radius)
        ok[:first] = True  # the critical point 0 itself, where DR = 0
        fr, fi = _field_lanes(field, zr, zi)
        ok &= np.isfinite(fr) & np.isfinite(fi)
        return ok.all(axis=0), normalize_lanes(dzr, dzi, 0), normalize_lanes(fr, fi, 0)

    zr, zi = np.zeros(lanes), np.zeros(lanes)  # points[0] = 0
    cocycle = (np.ones(lanes), np.zeros(lanes), np.zeros(lanes, dtype=np.int64))
    b = (np.zeros(lanes), np.zeros(lanes), np.zeros(lanes, dtype=np.int64))
    partial = np.ones(lanes)
    alive = np.ones(lanes, dtype=bool)

    # what the verdict and the fit read: partial sums over the last
    # 2*window steps, |cocycle| at last - window and last, b over the fit
    first_partial = last - 2 * window
    partials = np.empty((2 * window + 1, lanes))
    cocycle_at = {}
    b_abs = np.empty((last + 2 - fit_start, lanes))
    b_exp = np.empty((last + 2 - fit_start, lanes), dtype=np.int64)

    with np.errstate(all="ignore"):
        for k0 in range(0, last + 1, segment):
            k1 = min(k0 + segment, last + 1)
            # (a) the orbit alone: z at the steps k0 .. k1 - 1
            rows_r, rows_i = [], []
            for _ in range(k0, k1):
                rows_r.append(zr)
                rows_i.append(zi)
                zr, zi = _step_lanes(zr, zi, c_re, c_im, d)
            # (b) everything that needs only z, for the whole segment at once
            passed, dz, fv = point_terms(np.stack(rows_r), np.stack(rows_i), 1 if k0 == 0 else 0)
            alive &= passed

            # (c) the recurrences alone: the cocycle product and b
            rows_c, rows_b = [], []
            for s, k in enumerate(range(k0, k1)):
                dz_k = (dz[0][s], dz[1][s], dz[2][s])
                if k >= 1:
                    cocycle = mul_lanes(cocycle, dz_k)
                    rows_c.append(cocycle)
                b = add_lanes(mul_lanes(dz_k, b), (fv[0][s], fv[1][s], fv[2][s]))
                rows_b.append(b)

            # the partial sums of 1/|cocycle| at the steps max(k0, 1) .. k1 - 1
            if rows_c:
                k_c = max(k0, 1)
                cr, ci, ce = (np.stack(x) for x in zip(*rows_c))
                sums = _reciprocal_sums(partial, (cr, ci, ce))
                partial = sums[-1]
                lo = max(k_c, first_partial)
                if lo < k1:
                    partials[lo - first_partial : k1 - first_partial] = sums[lo - k_c :]
                for k in (last - window, last):
                    if k_c <= k < k1:
                        cocycle_at[k] = (np.hypot(cr[k - k_c], ci[k - k_c]), ce[k - k_c].copy())
            # b after step k is b[k + 1]
            lo = max(k0 + 1, fit_start)
            if lo <= k1:
                br, bi, be = (np.stack(x[lo - k0 - 1 :]) for x in zip(*rows_b))
                b_abs[lo - fit_start : k1 + 1 - fit_start] = np.hypot(br, bi)
                b_exp[lo - fit_start : k1 + 1 - fit_start] = be

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
        growth, evidence = _fit_moduli(fit_start, b_abs[:, i].tolist(), b_exp[:, i].tolist())
        out.append((report.classification, growth, evidence))
    return out
