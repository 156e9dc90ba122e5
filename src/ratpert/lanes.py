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
points; then the recurrences run as raw-mantissa runs on lanes
(xcomplex.product_lanes and affine_lanes: the cocycle product one complex
multiply a step, b about 25 numpy calls a step), normalized once a segment;
and the reciprocals of the cocycle and the partial sums of their moduli are
again taken over the whole segment at once.  After the last segment one
growth fit covers every lane (obstruction._fit_lanes).

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
constant-field functional needs the whole orbit).  So does a lane on one
of the rare branches the raw runs do not follow in lockstep (a tiny
component, v far above DR b, a hypot tie at the drop boundary, a zero v or
b after the start; see product_lanes and affine_lanes).  The field is
evaluated as the scalar path evaluates it (fields._field_lanes), a
rational one included.

A step of the candidate loop costs about as much as a step of the per-point
chain for 8-12 candidates, and a step of the classifier about as much as
15-20 scalar classification steps; the scan sends chunks with fewer than
MIN_LANES points or candidates to the scalar code.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import VectorFieldSpec, _field_lanes
from .maps import MapSpec
from .obstruction import _fit_lanes, _fit_start
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
from .xcomplex import _RUN_CHUNK, affine_lanes, cmul_lanes, normalize_lanes, product_lanes

#: Break-even lane count of the candidate loop against the per-point chain
#: (_candidate_row: iterate_orbit, summability_report, obstruction_sequence)
#: on z**2 + c and z**3 + c candidates near the boundary at orbit lengths
#: 256 and 1024: the per-point/lanes CPU time ratio was 0.7-1.0 at 8 lanes,
#: 0.7-1.4 at 12, 1.4-1.7 at 16 and 1.6-2.0 at 20 (2-CPU x86-64 box,
#: Python 3.11, numpy 2.4).  The scan classifies chunks of at least
#: MIN_LANES points as lanes too, and that loop breaks even at 15-20 points
#: that stay undecided, so MIN_LANES is 20 for both, though chunks of 12-19
#: candidates would run faster as lanes.
MIN_LANES = 20

#: Nominal lanes per block times the length of the fit window.  A block
#: keeps b over the fit window in 16 bytes an entry, so at most 2 MB (equal
#: blocks hold up to twice the nominal lane count), unless MIN_LANES lanes
#: of a very long orbit need more.
BLOCK_ENTRIES = 1 << 16

#: Lanes times steps of a segment of _run_block's step loop (at least one
#: step, at most _RUN_CHUNK); the scalar orbit and series run in one pass,
#: not in segments.  A seed-1 scan-boundary scan (183 candidates, orbit 256)
#: took a least CPU time of 48-50 ms at 1,024 entries, 42-43 at 2,048, 38-40
#: here, 36-40 at 8,192 and 36 at 16,384 (20 scans a setting, two runs);
#: peak RSS stayed the same up to here and rose 0.9 MB at 8,192 and 2.3 MB
#: at 16,384.
SEGMENT_ENTRIES = BLOCK_ENTRIES // 16


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
    if not cs:
        return []
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
    segment = min(segment, _RUN_CHUNK)  # the raw runs' longest
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

            # (c) the recurrences alone, as raw runs: the cocycle product at
            # the steps k_c = max(k0, 1) .. k1 - 1, and its partial sums of
            # 1/|cocycle|, then b
            k_c = max(k0, 1)
            if k_c < k1:
                (cr, ci, ce), leave = product_lanes(cocycle, tuple(x[k_c - k0 :] for x in dz))
                alive &= ~leave
                cocycle = (cr[-1], ci[-1], ce[-1])
                sums = _reciprocal_sums(partial, (cr, ci, ce))
                partial = sums[-1]
                lo = max(k_c, first_partial)
                if lo < k1:
                    partials[lo - first_partial : k1 - first_partial] = sums[lo - k_c :]
                for k in (last - window, last):
                    if k_c <= k < k1:
                        cocycle_at[k] = (np.hypot(cr[k - k_c], ci[k - k_c]), ce[k - k_c])
            (br, bi, be), leave = affine_lanes(b, dz, fv)
            alive &= ~leave
            b = (br[-1], bi[-1], be[-1])
            # b after step k is b[k + 1]
            lo = max(k0 + 1, fit_start)
            if lo <= k1:
                b_abs[lo - fit_start : k1 + 1 - fit_start] = np.hypot(br[lo - k0 - 1 :], bi[lo - k0 - 1 :])
                b_exp[lo - fit_start : k1 + 1 - fit_start] = be[lo - k0 - 1 :]

    increments = partials[1:] - partials[:-1]
    (abs_w, exp_w), (abs_n, exp_n) = cocycle_at[last - window], cocycle_at[last]
    verdicts = {}
    for i in np.flatnonzero(alive).tolist():
        log2_drop = (math.log2(abs_w[i]) + int(exp_w[i])) - (math.log2(abs_n[i]) + int(exp_n[i]))
        report = _tail_report(
            float(partials[-1, i]), log2_drop, increments[:, i].tolist(), window, last + 1,
            STABILIZATION_TOL,
        )
        if report.classification != "summable-evidence":
            verdicts[i] = report.classification
    fitted = list(verdicts)
    out: list[tuple[str, float, str] | None] = [None] * lanes
    for i, (growth, evidence) in zip(fitted, _fit_lanes(fit_start, b_abs[:, fitted], b_exp[:, fitted])):
        out[i] = (verdicts[i], growth, evidence)
    return out
