"""Derivative-weighted partial-sum sequence along a critical orbit.

b[n] is the cocycle at step n-1 times the n-term head of the orbit sum:
the infinitesimal displacement of the n-th iterate of the critical point
under the perturbation direction v.  Bounded sequences are consistent with
a rigid (structurally stable) configuration; growth at the cocycle's rate
is the expected signature of summable parameters.

The sequence is generated by the forward recurrence

    b[k+1] = DR(points[k]) * b[k] + v(points[k]),   b[0] = 0,

never by the displayed product-times-sum expression: multiplying a huge
cocycle into a tiny, heavily cancelling sum destroys every significant
digit.  The product form is kept only as a small-n cross-check.

The growth rate of b is one least-squares fit over a block of lanes,
_fit_lanes: obstruction_sequence fits its b as one lane, the scan's
candidate_lanes (lanes.py) the b of all its candidates at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrbitError, PoleError
from .fields import VectorFieldSpec, _field_lanes
from .maps import _derivative_lanes
from .orbits import OrbitRecord
from .xcomplex import XComplex, _affine_run, _collector_paused, normalize_lanes

#: |growth exponent| below this is neither growth nor decay evidence.
GROWTH_MARGIN = 0.05

#: Least-squares fit uses the trailing half of the sequence, at least this
#: many samples when available.
MIN_FIT_SAMPLES = 32

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ObstructionSeries:
    """The sequence b with a growth-rate fit.

    growth_exponent estimates lim sup (1/n) log |b[n]| by least squares
    over the trailing half; bounded_evidence is "bounded", "unbounded" or
    "inconclusive" by the sign of that exponent against a margin.  The
    identically-zero sequence reports exponent -inf and "bounded".
    """

    b: tuple[XComplex, ...]
    growth_exponent: float
    bounded_evidence: str

    def __len__(self) -> int:
        return len(self.b)


def obstruction_sequence(
    orbit: OrbitRecord,
    v: VectorFieldSpec,
    n: int,
) -> ObstructionSeries:
    """Generate b[0..n] by the forward recurrence in XComplex arithmetic.

    DR (maps._derivative_lanes, eval_map's bits) and v, normalized, over
    the whole orbit at once, then the recurrence alone, a run on raw
    mantissas normalized once a chunk (xcomplex._affine_run, the values of
    the _mul and _add steps bit for bit), whose XComplex values extend b as
    they are.  Fresh, decoded and hand-built records take this one path.
    At the first orbit point where eval_map raises PoleError this raises it
    too; at the first where DR or v is not finite, InvalidOrbitError.
    """
    if orbit.has_critical_relation:
        raise InvalidOrbitError("orbit carries a critical relation")
    if n < 1:
        raise ValueError("n must be >= 1")
    if orbit.truncated_at < n - 1:
        raise InvalidOrbitError(
            f"orbit has {orbit.truncated_at + 1} points; n = {n} needs {n} points"
        )

    with _collector_paused():
        points = orbit.points[:n]
        # DR and v of every point, normalized
        with np.errstate(all="ignore"):
            zs = np.array(points, dtype=complex)
            dr, di, pole = _derivative_lanes(orbit.map, zs.real, zs.imag)
            wr, wi = _field_lanes(v, zs.real, zs.imag)
            dz_finite = np.isfinite(dr) & np.isfinite(di)
            bad = pole | ~(dz_finite & np.isfinite(wr) & np.isfinite(wi))
            if bad.any():
                k = int(np.argmax(bad))
                if pole[k]:
                    raise PoleError(f"evaluation at {points[k]} is within pole tolerance")
                what = "v" if dz_finite[k] else "DR"
                raise InvalidOrbitError(f"{what} is not finite at orbit index {k}")
            dz = normalize_lanes(dr, di, 0)
            w = normalize_lanes(wr, wi, 0)
        # the recurrence alone
        b = [XComplex.zero(), *_affine_run(XComplex.zero(), dz, w)]

        exponent, evidence = _fit_growth(b)
        return ObstructionSeries(tuple(b), exponent, evidence)


def _fit_growth(b: list[XComplex]) -> tuple[float, str]:
    """The growth fit of b[0..n] over its trailing fit window: the one-lane
    case of _fit_lanes."""
    start = _fit_start(len(b) - 1)
    window = b[start:]
    moduli = np.array([abs(x.mantissa) for x in window])
    exponents = np.array([x.exponent for x in window])
    return _fit_lanes(start, moduli[:, None], exponents[:, None])[0]


def _fit_start(n: int) -> int:
    """First index of the trailing fit window of b[0..n]."""
    return max(1, n - max(n // 2, min(MIN_FIT_SAMPLES, n - 1)))


def _fit_lanes(start: int, moduli: np.ndarray, exponents: np.ndarray) -> list[tuple[float, str]]:
    """The growth exponent and its bounded/unbounded verdict of each lane
    of a fit window b[start:], given as |mantissa| and exponent (rows are
    steps; log|b[k]| is then XComplex.log_abs): the least-squares slope of
    (k, log|b[k]|) over the lane's nonzero entries.  A lane with none gives
    (-inf, "bounded"), one with a single one (0.0, "inconclusive").

    The float operations are fixed, so every fit keeps its bits: math.log,
    not np.log, in one map over the block; log + e * _LN2 on float64; the
    index offsets by _index_offsets, once for all lanes without a zero;
    and mean_l and sxy by Python's sum over each lane's list (3.12's sum
    is compensated, so no numpy sum matches it on every version)."""
    steps = len(moduli)
    positive = moduli > 0.0
    moduli = np.where(positive, moduli, 1.0)  # a zero entry is left out of its lane
    logs = np.fromiter(map(math.log, moduli.ravel().tolist()), float, moduli.size).reshape(moduli.shape)
    logs += exponents * _LN2
    offsets, sxx = _index_offsets(range(start, start + steps))
    window = np.array(offsets), sxx  # a lane without zeros
    fits = []
    for count, l, kept in zip(positive.sum(axis=0).tolist(), logs.T.copy(), positive.T):
        if count < 2:
            fits.append((0.0, "inconclusive") if count else (-math.inf, "bounded"))
            continue
        if count == steps:
            offsets, sxx = window
        else:
            l = l[kept]
            offsets, sxx = _index_offsets((start + np.flatnonzero(kept)).tolist())
        mean_l = sum(l.tolist()) / count
        slope = sum(((l - mean_l) * offsets).tolist()) / sxx if sxx > 0 else 0.0
        verdict = "unbounded" if slope > GROWTH_MARGIN else "bounded" if slope < -GROWTH_MARGIN else "inconclusive"
        fits.append((slope, verdict))
    return fits


def _index_offsets(ks) -> tuple[list[float], float]:
    """The offsets k - mean_k of the sample indices ks, and their sum of
    squares sxx."""
    mean_k = sum(ks) / len(ks)
    offsets = [k - mean_k for k in ks]
    return offsets, sum(x**2 for x in offsets)


def obstruction_direct(orbit: OrbitRecord, v: VectorFieldSpec, n: int) -> XComplex:
    """b[n] by the displayed product-times-sum form, in XComplex arithmetic.

    Numerically unstable for large n (catastrophic cancellation against a
    huge cocycle); intended as an independent cross-check at small n.  Where
    v is not finite on the orbit this raises InvalidOrbitError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if orbit.truncated_at < n - 1:
        raise InvalidOrbitError(f"orbit too short for n = {n}")
    total = XComplex.zero()
    for k in range(n):
        try:
            value = XComplex.from_complex(complex(v(orbit.points[k])))
        except (ValueError, ZeroDivisionError):
            raise InvalidOrbitError(f"v is not finite at orbit index {k}") from None
        total = total + value / orbit.cocycle[k]
    return orbit.cocycle[n - 1] * total
