"""Bit-faithful serialization of result types.

JSON: one table maps each "type" tag to a result type and the converters
of the fields that take part in its equality, built at import from the
annotations: complex values are [re, im] pairs, extended-range values
{mantissa, exponent} objects, maps and fields {numerator, denominator}
coefficient lists; `T | None` and `tuple[T, ...]` wrap the converter of T,
and a registered type nests as its own tagged payload.  Floats use Python's
shortest round-trip repr, so decode() rebuilds the exact object.  The text
is strict JSON (RFC 8259): a non-finite float is the string "Infinity",
"-Infinity" or "NaN", and decode() reads every float back with float().

CSV: scan rows only, with the fixed column order
c_re, c_im, class, period, summability, growth_exponent, mu_re, mu_im, flags.

PPM: binary P6 with the fixed color maps documented on the writers.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import typing
from functools import cache, partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .continuation import ContinuationResult, MotionCheck
from .cycles import Cycle, CycleAlphaSolution
from .fields import VectorFieldSpec
from .maps import MapSpec
from .mu import MuResult, WitnessResult
from .obstruction import ObstructionSeries
from .orbits import OrbitRecord, ParameterClass, SummabilityReport
from .polynomial import Polynomial
from .scan import HeatmapGrid, ScanConfig, ScanRow, growth_heatmap
from .xcomplex import XComplex, _collector_paused, _make

# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _float(x: float) -> float | str:
    if math.isfinite(x):
        return x
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _complex(z: complex) -> list:
    return [z.real, z.imag] if cmath.isfinite(z) else [_float(z.real), _float(z.imag)]


def _uncomplex(pair) -> complex:
    try:
        return complex(*pair)
    except TypeError:  # a non-finite part, written as a string
        return complex(float(pair[0]), float(pair[1]))


def _xcomplex(x: XComplex) -> dict:
    return {"mantissa": _complex(x.mantissa), "exponent": x.exponent}


def _unxcomplex(obj) -> XComplex:
    mantissa, exponent = _uncomplex(obj["mantissa"]), obj["exponent"]
    modulus = math.hypot(mantissa.real, mantissa.imag)  # as _normalize measures it
    if type(exponent) is not int or not (1 <= modulus < 2 or modulus == 0 == exponent):
        raise ValueError(f"no encoder writes the XComplex {obj!r}")
    return _make(mantissa, exponent)


def _fraction(cls: type) -> tuple[Callable, Callable]:
    """Converters of a map or field: numerator and denominator coefficient lists."""
    parts = ("numerator", "denominator")
    return (
        lambda f: {k: list(map(_complex, getattr(f, k).coefficients)) for k in parts},
        lambda obj: cls(*(Polynomial(tuple(map(_uncomplex, obj[k]))) for k in parts)),
    )


def _same(x):
    return x


def _exact(cls: type, x):
    """A JSON value read back as a field of type cls: only that exact type
    (a bool is no int, 9.5 no int)."""
    if type(x) is not cls:
        raise ValueError(f"no encoder writes the {cls.__name__} {x!r}")
    return x


# (to_json, from_json) of the field types that are not built from parts
_LEAVES: dict[Any, tuple[Callable, Callable]] = {
    int: (_same, partial(_exact, int)),
    str: (_same, partial(_exact, str)),
    bool: (_same, partial(_exact, bool)),
    float: (_float, float),
    complex: (_complex, _uncomplex),
    XComplex: (_xcomplex, _unxcomplex),
    MapSpec: _fraction(MapSpec),
    VectorFieldSpec: _fraction(VectorFieldSpec),
    np.ndarray: (np.ndarray.tolist, partial(np.asarray, dtype=np.int32)),  # escape counts
}


class _Entry(NamedTuple):
    tag: str
    # (attribute, key, to_json, from_json); a property has no from_json
    fields: tuple[tuple[str, str, Callable, Callable | None], ...]
    build: Callable[..., Any]


_BY_TYPE: dict[type, _Entry] = {}
_BY_TAG: dict[str, _Entry] = {}


def _converters(hint) -> tuple[Callable, Callable]:
    if hint in _LEAVES:
        return _LEAVES[hint]
    if hint in _BY_TYPE:
        return encode, decode
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,):
        enc, dec = _converters(args[0])
        return (lambda xs: list(map(enc, xs))), (lambda xs: tuple(map(dec, xs)))
    if len(args) == 2 and type(None) in args:
        enc, dec = _converters(args[args[0] is type(None)])
        return (lambda x: None if x is None else enc(x)), (lambda x: None if x is None else dec(x))
    raise TypeError(f"no JSON converter for {hint!r}")


def _register(tag: str, cls: type, keys: dict[str, str] | None = None,
              extras: tuple[str, ...] = (), build: Callable[..., Any] | None = None) -> None:
    """Add payload `tag` for `cls`: its fields that take part in equality,
    under their own names unless `keys` renames them, then the `extras`
    properties.  decode() calls `build` (the class by default) with the
    fields as keywords."""
    if tag in _BY_TAG or cls in _BY_TYPE:
        raise ValueError(f"payload tag {tag!r} or type {cls.__name__} registered twice")
    if dataclasses.is_dataclass(cls):
        names = [f.name for f in dataclasses.fields(cls) if f.compare]
    else:  # a NamedTuple compares every field
        names = cls._fields
    hints = typing.get_type_hints(cls)
    keys = keys or {}
    fields = [(n, keys.get(n, n), *_converters(hints[n])) for n in names]
    for n in extras:
        hint = typing.get_type_hints(getattr(cls, n).fget)["return"]
        fields.append((n, n, _converters(hint)[0], None))
    _BY_TYPE[cls] = _BY_TAG[tag] = _Entry(tag, tuple(fields), build or cls)


def encode(obj: Any) -> dict:
    """Typed JSON-ready payload for any registered result object."""
    entry = _BY_TYPE.get(type(obj))
    if entry is None:
        raise TypeError(f"no JSON encoding for {type(obj).__name__}")
    payload = {"type": entry.tag}
    with _collector_paused():
        for name, key, to_json, _ in entry.fields:
            payload[key] = to_json(getattr(obj, name))
    return payload


def decode(payload: dict) -> Any:
    """Inverse of encode()."""
    entry = _BY_TAG.get(payload["type"])
    if entry is None:
        raise ValueError(f"unknown payload type {payload['type']!r}")
    with _collector_paused():
        return entry.build(**{name: dec(payload[key]) for name, key, _, dec in entry.fields if dec})


# The CLI's composite payloads.  decode() returns what they hold: a tuple, a
# {"cycle", "solution"} dict, or the int32 count grid.
MomentsPayload = NamedTuple("MomentsPayload", [("moments", tuple[complex, ...])])
CyclesPayload = NamedTuple("CyclesPayload", [("cycles", tuple[Cycle, ...])])
CycleAlphaPayload = NamedTuple(
    "CycleAlphaPayload", [("cycle", Cycle), ("solution", CycleAlphaSolution)]
)
ScanPayload = NamedTuple("ScanPayload", [("rows", tuple[ScanRow, ...])])
RenderPayload = NamedTuple("RenderPayload", [("max_iter", int), ("counts", np.ndarray)])


_register("orbit", OrbitRecord)
_register("summability", SummabilityReport)
_register("mu", MuResult)
_register("obstruction", ObstructionSeries)
_register("cycle", Cycle, extras=("classification",))
_register("alpha", CycleAlphaSolution)
_register("continuation", ContinuationResult)
_register("motion_check", MotionCheck)
_register("witness", WitnessResult)
_register("parameter_class", ParameterClass)
_register("scan_row", ScanRow, keys={"kind": "class", "mu_constant": "mu"})
_register("moments", MomentsPayload, build=lambda moments: moments)
_register("cycles", CyclesPayload, build=lambda cycles: cycles)
_register("cycle_alpha", CycleAlphaPayload, build=dict)
_register("scan", ScanPayload, build=lambda rows: rows)
_register("render", RenderPayload, build=lambda max_iter, counts: counts)


_string = json.encoder.encode_basestring_ascii


@cache
def _layout(level: int) -> tuple[str, str, str, str]:
    """A list's item and closing breaks at `level`, and its pair and XComplex item formats."""
    outer, item, inner, leaf = ("\n" + "  " * (level + k) for k in range(4))
    pair = f"[{inner}%r,{inner}%r{item}]"
    xcomplex = f'{{{inner}"mantissa": [{leaf}%r,{leaf}%r{inner}],{inner}"exponent": %r{item}}}'
    return item, outer, pair, xcomplex


def _scalar(x: Any) -> str:
    if isinstance(x, str):
        return _string(x)
    if x is None or type(x) is bool:
        return {None: "null", True: "true", False: "false"}[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _key(k: Any) -> str:
    """A str key as it is, any other as the quoted text of its value."""
    return _string(k if isinstance(k, str) else _scalar(k))


def _pair_columns(items: list) -> list | None:
    # not zip(*items), which makes an iterator per item: slower, also with the collector paused
    ok = {*map(type, items)} <= {list, tuple} and {*map(len, items)} == {2}
    return [[p[0] for p in items], [p[1] for p in items]] if ok else None


def _leaf_items(xs: list, level: int) -> str | None:
    """The items of a list of finite floats, of [re, im] pairs of them or of
    {"mantissa": [re, im], "exponent": int} objects, in one join; None for
    any other list, which _write then walks item by item."""
    sep, _, pair, xcomplex = _layout(level)
    kinds, ints = {*map(type, xs)}, []
    if kinds == {float}:
        floats, fmt = [xs], "%r"
    elif kinds <= {list, tuple}:
        floats, fmt = _pair_columns(xs), pair
    elif kinds == {dict} and {*map(tuple, xs)} == {("mantissa", "exponent")}:
        floats, fmt = _pair_columns([d["mantissa"] for d in xs]), xcomplex
        ints = [[d["exponent"] for d in xs]]
    else:
        return None
    if floats and all([{*map(type, c)} == {float} and all(map(math.isfinite, c)) for c in floats]
                      + [{*map(type, c)} == {int} for c in ints]):
        return ("," + sep).join(map(fmt.__mod__, zip(*floats, *ints)))
    return None  # a misshapen item, a bool or int for a float, or a non-finite float


def _write(x: Any, level: int) -> str:
    if not isinstance(x, (list, tuple, dict)):
        return _scalar(x)
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    sep, outer, _, _ = _layout(level)
    if isinstance(x, dict):
        items = ("," + sep).join([f"{_key(k)}: {_write(v, level + 1)}" for k, v in x.items()])
        return f"{{{sep}{items}{outer}}}"
    items = _leaf_items(x, level) or ("," + sep).join([_write(v, level + 1) for v in x])
    return f"[{sep}{items}{outer}]"


def json_dumps(payload: Any) -> str:
    """Strict JSON text, byte for byte json.dumps(payload, indent=2,
    allow_nan=False) plus a newline, written without the stdlib's pure-Python
    indent encoder.  encode() writes non-finite floats as strings; a bare one
    raises ValueError here, and a value json.dumps cannot write TypeError."""
    with _collector_paused():
        return _write(payload, 0) + "\n"


def json_loads(text: str) -> Any:
    with _collector_paused():
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
    return heatmap_image(growth_heatmap(tuple(rows), config))
