"""Bit-faithful serialization of result types.

JSON: complex values are [re, im] pairs and extended-range values are
{mantissa, exponent} objects; floats rely on Python's shortest round-trip
repr, so parsing the output back reproduces the exact doubles.  Every
payload carries a "type" tag and decode() rebuilds the original object.

CSV: scan rows only, with the fixed column order
c_re, c_im, class, period, summability, growth_exponent, mu_re, mu_im, flags.

PPM: binary P6 with the fixed color maps documented on the writers.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .continuation import ContinuationResult, MotionCheck
from .cycles import Cycle, CycleAlphaSolution
from .fields import VectorFieldSpec
from .maps import MapSpec
from .mu import MuResult, WitnessResult
from .obstruction import ObstructionSeries
from .orbits import OrbitRecord, ParameterClass, SummabilityReport
from .polynomial import Polynomial
from .scan import HeatmapGrid, ScanConfig, ScanRow
from .xcomplex import XComplex

# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _c(z: complex) -> list[float]:
    return [z.real, z.imag]


def _uc(pair) -> complex:
    return complex(pair[0], pair[1])


def _xc(x: XComplex) -> dict:
    return {"mantissa": _c(x.mantissa), "exponent": x.exponent}


def _uxc(obj) -> XComplex:
    return XComplex(_uc(obj["mantissa"]), int(obj["exponent"]))


def _poly(p: Polynomial) -> list:
    return [_c(a) for a in p.coefficients]


def _upoly(obj) -> Polynomial:
    return Polynomial(tuple(_uc(pair) for pair in obj))


def _map(m: MapSpec) -> dict:
    return {"numerator": _poly(m.numerator), "denominator": _poly(m.denominator)}


def _umap(obj) -> MapSpec:
    return MapSpec(_upoly(obj["numerator"]), _upoly(obj["denominator"]))


def _field(v: VectorFieldSpec) -> dict:
    return {"numerator": _poly(v.numerator), "denominator": _poly(v.denominator)}


def _ufield(obj) -> VectorFieldSpec:
    return VectorFieldSpec(_upoly(obj["numerator"]), _upoly(obj["denominator"]))


def encode(obj: Any) -> dict:
    """Typed JSON-ready payload for any public result object."""
    if isinstance(obj, OrbitRecord):
        return {
            "type": "orbit",
            "map": _map(obj.map),
            "points": [_c(z) for z in obj.points],
            "cocycle": [_xc(x) for x in obj.cocycle],
            "partial_sums_abs": list(obj.partial_sums_abs),
            "escaped_at": obj.escaped_at,
            "truncated_at": obj.truncated_at,
            "critical_relation_at": obj.critical_relation_at,
        }
    if isinstance(obj, SummabilityReport):
        return {
            "type": "summability",
            "partial_sum": obj.partial_sum,
            "tail_ratio": obj.tail_ratio,
            "classification": obj.classification,
            "last_increment": obj.last_increment,
            "tail_estimate": obj.tail_estimate,
            "window": obj.window,
            "n_terms": obj.n_terms,
        }
    if isinstance(obj, MuResult):
        return {
            "type": "mu",
            "value": _c(obj.value),
            "partial": [_c(z) for z in obj.partial],
            "tail_bound": obj.tail_bound,
            "converged": obj.converged,
            "terms_used": obj.terms_used,
        }
    if isinstance(obj, ObstructionSeries):
        return {
            "type": "obstruction",
            "b": [_xc(x) for x in obj.b],
            "growth_exponent": obj.growth_exponent,
            "bounded_evidence": obj.bounded_evidence,
        }
    if isinstance(obj, Cycle):
        return {
            "type": "cycle",
            "points": [_c(z) for z in obj.points],
            "period": obj.period,
            "multiplier": _c(obj.multiplier),
            "residual": obj.residual,
            "classification": obj.classification,
        }
    if isinstance(obj, CycleAlphaSolution):
        return {
            "type": "alpha",
            "alpha": [_c(z) for z in obj.alpha],
            "residuals": list(obj.residuals),
        }
    if isinstance(obj, ContinuationResult):
        return {
            "type": "continuation",
            "lambda_path": [_c(z) for z in obj.lambda_path],
            "cycles": [encode(c) for c in obj.cycles],
            "velocity_at_zero": _c(obj.velocity_at_zero),
            "stopped_reason": obj.stopped_reason,
        }
    if isinstance(obj, MotionCheck):
        return {
            "type": "motion_check",
            "alpha": _c(obj.alpha),
            "fd_velocity": _c(obj.fd_velocity),
            "discrepancy": obj.discrepancy,
        }
    if isinstance(obj, WitnessResult):
        return {
            "type": "witness",
            "field": _field(obj.field),
            "mu_value": _c(obj.mu_value),
        }
    if isinstance(obj, ParameterClass):
        return {
            "type": "parameter_class",
            "kind": obj.kind,
            "period": obj.period,
            "multiplier": None if obj.multiplier is None else _c(obj.multiplier),
            "iterations_used": obj.iterations_used,
        }
    if isinstance(obj, ScanRow):
        return {
            "type": "scan_row",
            "c": _c(obj.c),
            "class": obj.kind,
            "period": obj.period,
            "summability": obj.summability,
            "growth_exponent": obj.growth_exponent,
            "mu": None if obj.mu_constant is None else _c(obj.mu_constant),
            "flags": list(obj.flags),
        }
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")


def decode(payload: dict) -> Any:
    """Inverse of encode()."""
    kind = payload["type"]
    if kind == "orbit":
        return OrbitRecord(
            map=_umap(payload["map"]),
            points=tuple(_uc(p) for p in payload["points"]),
            cocycle=tuple(_uxc(x) for x in payload["cocycle"]),
            partial_sums_abs=tuple(float(x) for x in payload["partial_sums_abs"]),
            escaped_at=payload["escaped_at"],
            truncated_at=payload["truncated_at"],
            critical_relation_at=payload["critical_relation_at"],
        )
    if kind == "summability":
        return SummabilityReport(
            partial_sum=payload["partial_sum"],
            tail_ratio=payload["tail_ratio"],
            classification=payload["classification"],
            last_increment=payload["last_increment"],
            tail_estimate=payload["tail_estimate"],
            window=payload["window"],
            n_terms=payload["n_terms"],
        )
    if kind == "mu":
        return MuResult(
            value=_uc(payload["value"]),
            partial=tuple(_uc(p) for p in payload["partial"]),
            tail_bound=payload["tail_bound"],
            converged=payload["converged"],
            terms_used=payload["terms_used"],
        )
    if kind == "obstruction":
        return ObstructionSeries(
            b=tuple(_uxc(x) for x in payload["b"]),
            growth_exponent=payload["growth_exponent"],
            bounded_evidence=payload["bounded_evidence"],
        )
    if kind == "cycle":
        return Cycle(
            points=tuple(_uc(p) for p in payload["points"]),
            period=payload["period"],
            multiplier=_uc(payload["multiplier"]),
            residual=payload["residual"],
        )
    if kind == "alpha":
        return CycleAlphaSolution(
            alpha=tuple(_uc(p) for p in payload["alpha"]),
            residuals=tuple(float(x) for x in payload["residuals"]),
        )
    if kind == "continuation":
        return ContinuationResult(
            lambda_path=tuple(_uc(p) for p in payload["lambda_path"]),
            cycles=tuple(decode(c) for c in payload["cycles"]),
            velocity_at_zero=_uc(payload["velocity_at_zero"]),
            stopped_reason=payload["stopped_reason"],
        )
    if kind == "motion_check":
        return MotionCheck(
            alpha=_uc(payload["alpha"]),
            fd_velocity=_uc(payload["fd_velocity"]),
            discrepancy=payload["discrepancy"],
        )
    if kind == "witness":
        return WitnessResult(
            field=_ufield(payload["field"]), mu_value=_uc(payload["mu_value"])
        )
    if kind == "parameter_class":
        return ParameterClass(
            kind=payload["kind"],
            period=payload["period"],
            multiplier=None
            if payload["multiplier"] is None
            else _uc(payload["multiplier"]),
            iterations_used=payload["iterations_used"],
        )
    if kind == "scan_row":
        return ScanRow(
            c=_uc(payload["c"]),
            kind=payload["class"],
            period=payload["period"],
            summability=payload["summability"],
            growth_exponent=payload["growth_exponent"],
            mu_constant=None if payload["mu"] is None else _uc(payload["mu"]),
            flags=tuple(payload["flags"]),
        )
    # composite CLI payloads
    if kind == "moments":
        return tuple(_uc(pair) for pair in payload["moments"])
    if kind == "cycles":
        return tuple(decode(c) for c in payload["cycles"])
    if kind == "cycle_alpha":
        return {
            "cycle": decode(payload["cycle"]),
            "solution": decode(payload["solution"]),
        }
    if kind == "scan":
        return tuple(decode(r) for r in payload["rows"])
    if kind == "render":
        return np.asarray(payload["counts"], dtype=np.int32)
    raise ValueError(f"unknown payload type {kind!r}")


def json_dumps(payload: Any) -> str:
    """Deterministic JSON text (insertion-ordered keys, trailing newline).

    Non-finite floats use Python's extended literals (Infinity, NaN), for
    instance the -Infinity growth exponent of an identically-zero
    obstruction sequence and the Infinity tail bound of a mu series whose
    tail ratio is not below 1.
    """
    return json.dumps(payload, indent=2) + "\n"


def json_loads(text: str) -> Any:
    return json.loads(text)


# ---------------------------------------------------------------------------
# CSV (scan rows)
# ---------------------------------------------------------------------------

SCAN_CSV_COLUMNS = (
    "c_re",
    "c_im",
    "class",
    "period",
    "summability",
    "growth_exponent",
    "mu_re",
    "mu_im",
    "flags",
)


def _num(x: float | None) -> str:
    if x is None or not math.isfinite(x):
        return ""
    return repr(float(x))


def scan_rows_to_csv(rows) -> str:
    """Fixed-column CSV, '\\n' line endings, shortest-repr floats."""
    lines = [",".join(SCAN_CSV_COLUMNS)]
    for row in rows:
        mu = row.mu_constant
        lines.append(
            ",".join(
                (
                    repr(row.c.real),
                    repr(row.c.imag),
                    row.kind,
                    "" if row.period is None else str(row.period),
                    row.summability or "",
                    _num(row.growth_exponent),
                    "" if mu is None else repr(mu.real),
                    "" if mu is None else repr(mu.imag),
                    ";".join(row.flags),
                )
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PPM (binary P6)
# ---------------------------------------------------------------------------


def ppm_bytes(rgb: np.ndarray) -> bytes:
    """P6 image from a (ny, nx, 3) uint8 array."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("ppm_bytes expects a (ny, nx, 3) uint8 array")
    ny, nx = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (nx, ny) + rgb.tobytes()


def _ramp(t: np.ndarray) -> np.ndarray:
    """The fixed three-channel ramp: r, g, b light up in thirds of [0, 1]."""
    r = np.clip(3.0 * t, 0.0, 1.0)
    g = np.clip(3.0 * t - 1.0, 0.0, 1.0)
    b = np.clip(3.0 * t - 2.0, 0.0, 1.0)
    return (np.stack([r, g, b], axis=-1) * 255.0 + 0.5).astype(np.uint8)


def escape_image(counts: np.ndarray, max_iter: int) -> bytes:
    """Color mapping: pixels that never escape are black; escape count k
    maps to the ramp at k / max_iter."""
    t = counts.astype(float) / float(max_iter)
    rgb = _ramp(t)
    rgb[counts >= max_iter] = 0
    return ppm_bytes(rgb)


def heatmap_image(grid: HeatmapGrid) -> bytes:
    """Color mapping: attracting cells are blue (40, 60, 220), escaping
    cells dark gray (16, 16, 16), missing-exponent cells magenta
    (200, 0, 200); candidate cells use the ramp with the exponent scaled
    by the largest finite positive exponent present (1.0 if none)."""
    values, kinds = grid.values, grid.kinds
    candidates = kinds == 0
    finite = values[candidates & np.isfinite(values)]
    positive = finite[finite > 0] if finite.size else finite
    vmax = float(positive.max()) if positive.size else 1.0
    t = np.zeros_like(values, dtype=float)
    np.divide(values, vmax, out=t, where=candidates)
    rgb = _ramp(np.clip(t, 0.0, 1.0))
    rgb[kinds == 1] = (40, 60, 220)
    rgb[kinds == 2] = (16, 16, 16)
    rgb[kinds == 3] = (200, 0, 200)
    return ppm_bytes(rgb)


def scan_heatmap_ppm(rows, config: ScanConfig) -> bytes:
    from .scan import growth_heatmap

    return heatmap_image(growth_heatmap(tuple(rows), config))
