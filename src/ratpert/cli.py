"""Command-line interface.

Commands cover every toolkit operation: orbit, summability, mu, moments,
witness, obstruction, cycles, alpha, continue, check-motion, scan, render.
Results go to the output target (file or stdout) in json, csv, or ppm;
diagnostics go to stderr.  Exit codes: 0 success, 1 domain errors
(not-summable, parabolic cycle, ...), 2 usage errors.

Options can be preloaded from a flat key=value config file (--config);
explicit flags win.  RATPERT_WORKERS sets the default scan worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Any

from . import serialize
from .continuation import continue_cycle, motion_velocity_check
from .cycles import (
    check_census_size,
    cycle_from_point,
    find_cycles,
    solve_alpha_on_cycle,
)
from .errors import DegenerateMapError, ParseError, RatpertError
from .fields import VectorFieldSpec
from .maps import MapSpec, default_escape_radius, is_critical_point
from .mu import find_witness_field, moment_vector, mu_functional
from .obstruction import obstruction_sequence
from .orbits import default_summability_report, iterate_orbit, summability_report
from .polynomial import Polynomial
from .scan import Rectangle, ScanConfig, render_escape, scan_parameters

WORKERS_ENV = "RATPERT_WORKERS"
# Caps checked while the options are parsed, before any work, so that no
# flag value can exhaust memory (exit 2, one line).
MAX_PERIOD = 4096  # a cycle holds `period` points
# --n-max, --terms, --orbit-length, --max-iter: an orbit keeps every step;
# --steps x --period of continue: a continuation keeps the whole cycle at
# every step
MAX_TERMS = 1 << 18
MAX_STEPS = 4096  # --steps: a continuation keeps the whole cycle at every step
MAX_PIXELS = 1 << 20  # --resolution nx*ny: one scan row or escape count per point
# --field exponents, unicritical:d, --d, --max-degree, and the degree
# (coefficient count less one) of each side of rational:: a polynomial holds
# degree + 1 coefficients
MAX_DEGREE = 1024

# ---------------------------------------------------------------------------
# Textual parsers
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^\s*([+-]?{_NUM})(?:\s*([+-])\s*({_NUM})\s*[iI])?\s*$"
)
_IMAG_RE = re.compile(rf"^\s*([+-]?{_NUM})\s*[iI]\s*$")


def parse_complex(text: str, offset: int = 0) -> complex:
    """Parse 'a', 'a+bi' or 'a-bi' (sign before the imaginary part is
    mandatory); raises ParseError with the offending position."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ParseError(
            f"malformed complex number {text!r} (expected 'a', 'a+bi' or 'a-bi')",
            position=offset,
        )
    re_part = float(m.group(1))
    im = 0.0 if m.group(2) is None else float(m.group(3))
    if not math.isfinite(math.hypot(re_part, im)):  # a part, or the modulus, overflows
        raise ParseError(f"complex number {text!r} is out of range", position=offset)
    return complex(re_part, -im if m.group(2) == "-" else im)


def _parse_complex_list(text: str, offset: int) -> list[complex]:
    out = []
    pos = 0
    for chunk in text.split(","):
        out.append(parse_complex(chunk, offset + pos))
        pos += len(chunk) + 1
    return out


def parse_map(text: str) -> MapSpec:
    """'unicritical:d,c' or 'rational:<num coeffs>/<den coeffs>'.

    Coefficients are comma-separated complex values, lowest degree first.
    """
    if text.startswith("unicritical:"):
        offset = len("unicritical:")
        body = text[offset:]
        head, sep, rest = body.partition(",")
        if not sep:
            raise ParseError("expected 'unicritical:d,c'", position=len(text))
        try:
            d = int(head)
        except ValueError:
            raise ParseError(f"bad degree {head!r}", position=offset) from None
        if d < 2:
            raise ParseError("unicritical degree must be >= 2", position=offset)
        if d > MAX_DEGREE:
            raise ParseError(f"unicritical degree {d} is above the cap of {MAX_DEGREE}", position=offset)
        c = parse_complex(rest, offset + len(head) + 1)
        return MapSpec.unicritical(d, c)
    if text.startswith("rational:"):
        offset = len("rational:")
        body = text[offset:]
        num_text, sep, den_text = body.partition("/")
        if not sep:
            raise ParseError(
                "expected 'rational:<num coeffs>/<den coeffs>'", position=len(text)
            )
        degree = max(num_text.count(","), den_text.count(","))
        if degree > MAX_DEGREE:
            raise ParseError(f"rational degree {degree} is above the cap of {MAX_DEGREE}", position=offset)
        num = Polynomial(tuple(_parse_complex_list(num_text, offset)))
        den = Polynomial(
            tuple(_parse_complex_list(den_text, offset + len(num_text) + 1))
        )
        try:
            return MapSpec.rational(num, den)
        except DegenerateMapError as err:
            raise ParseError(f"degenerate map: {err}", position=offset) from None
    raise ParseError(
        "map must start with 'unicritical:' or 'rational:'", position=0
    )


def _split_terms(text: str) -> list[tuple[str, int]]:
    """Split a polynomial expression on top-level +/- (not inside parens,
    not exponent signs); returns (term-with-sign, offset) pairs."""
    if not text.strip():
        raise ParseError("empty field expression", position=0)
    cuts = [0]
    depth = 0
    prev = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", position=i)
        elif ch in "+-" and depth == 0 and i > 0 and prev not in "eE(*^+-,":
            cuts.append(i)
        if not ch.isspace():
            prev = ch
    if depth != 0:
        raise ParseError("unbalanced '('", position=len(text) - 1)
    cuts.append(len(text))
    return [
        (text[cuts[j] : cuts[j + 1]], cuts[j]) for j in range(len(cuts) - 1)
    ]


def _parse_coefficient(text: str, offset: int) -> complex:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return parse_complex(text[1:-1], offset + 1)
    m = _IMAG_RE.match(text)
    if m:
        return complex(0.0, float(m.group(1)))
    return parse_complex(text, offset)


def parse_field(text: str) -> VectorFieldSpec:
    """Sum-of-monomials polynomial field: terms like '1', 'z', '2*z^3',
    '(0+1i)*z', '-0.5*z^2', joined by top-level +/-."""
    coeffs: dict[int, complex] = {}
    for raw, offset in _split_terms(text):
        term = raw.strip()
        sign = 1.0
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:].lstrip()
            offset += 1
        if not term:
            raise ParseError("empty term in field expression", position=offset)
        coef_text, star, z_text = term.partition("*")
        if star:
            coefficient = _parse_coefficient(coef_text, offset)
            power = _parse_z_power(z_text.strip(), offset + len(coef_text) + 1)
        elif term == "z" or term.startswith("z^"):
            coefficient = 1.0 + 0j
            power = _parse_z_power(term, offset)
        else:
            coefficient = _parse_coefficient(term, offset)
            power = 0
        coeffs[power] = coeffs.get(power, 0j) + sign * coefficient
    # every power is capped, so the dense list built from this is too
    return VectorFieldSpec.from_coefficients(coeffs.get(j, 0j) for j in range(max(coeffs) + 1))


def _parse_z_power(text: str, offset: int) -> int:
    if text == "z":
        return 1
    if text.startswith("z^"):
        try:
            power = int(text[2:])
        except ValueError:
            raise ParseError(f"bad exponent in {text!r}", position=offset) from None
        if power < 0:
            raise ParseError("negative powers are not polynomial", position=offset)
        if power > MAX_DEGREE:
            raise ParseError(f"field degree {power} is above the cap of {MAX_DEGREE}", position=offset)
        return power
    raise ParseError(f"expected 'z' or 'z^k', got {text!r}", position=offset)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _unicritical_parts(map: MapSpec) -> tuple[int, complex] | None:
    if not map.is_polynomial:
        return None
    coeffs = map.numerator.coefficients
    d = len(coeffs) - 1
    if d >= 2 and coeffs[-1] == 1 and all(a == 0 for a in coeffs[1:-1]):
        return d, coeffs[0]
    return None


def _escape_radius_for(map: MapSpec, explicit: float | None) -> float:
    if explicit is not None:
        return explicit
    parts = _unicritical_parts(map)
    if parts is not None:
        return default_escape_radius(*parts)
    return 1e6


def _critical_point(map: MapSpec, requested: complex | None) -> complex:
    if requested is not None:
        if not is_critical_point(map, requested):
            raise ParseError(f"--point {requested} is not a critical point of the map")
        return requested
    points = map.critical_points
    if not points:
        raise RatpertError("map has no finite critical points")
    return points[0]


def _orbit_from(opts, n_max_key: str = "n_max"):
    map = opts["map"]
    point = _critical_point(map, opts.get("point"))
    radius = _escape_radius_for(map, opts.get("escape_radius"))
    return iterate_orbit(map, point, n_max=opts[n_max_key], escape_radius=radius)


def _census(map: MapSpec, period: int, tol: float = 1e-9):
    """find_cycles, with a period outside the census cap as a usage error."""
    try:
        check_census_size(map.degree, period)
    except ValueError as err:
        raise ParseError(f"--period: {err}") from None
    return find_cycles(map, period, tol=tol)


def _pick_cycle(opts):
    map, period = opts["map"], opts["period"]
    if opts.get("point") is not None:
        try:
            return cycle_from_point(map, opts["point"], period)
        except ValueError as err:
            raise RatpertError(str(err)) from None
    cycles = _census(map, period)
    if not cycles:
        raise RatpertError(f"no period-{period} cycles found")
    return cycles[0]


# Each command returns what it computes: main writes a str or bytes (csv,
# ppm) as it is and encodes anything else as JSON.


def _cmd_orbit(opts):
    return _orbit_from(opts)


def _cmd_summability(opts):
    orbit = _orbit_from(opts)
    window = opts["window"]
    if window is None:
        return default_summability_report(orbit)
    if len(orbit.points) < 2 * window:
        raise ParseError(
            f"--window {window} needs an orbit of at least {2 * window} entries; "
            f"it has {len(orbit.points)}",
            0,
        )
    return summability_report(orbit, window)


def _cmd_mu(opts):
    return mu_functional(_orbit_from(opts), opts["field"], tol=opts["tol"])


def _cmd_moments(opts):
    return serialize.MomentsPayload(moment_vector(_orbit_from(opts), opts["max_degree"], tol=opts["tol"]))


def _cmd_witness(opts):
    if opts.get("moments") is not None:
        try:
            moments = _parse_complex_list(opts["moments"], 0)
        except ParseError as err:
            raise ParseError(f"--moments: {err}", err.position) from None
    elif opts.get("map") is None:
        raise ParseError("witness needs --moments or --map", 0)
    else:
        moments = list(moment_vector(_orbit_from(opts), opts["max_degree"], tol=opts["tol"]))
    return find_witness_field(moments)


def _cmd_obstruction(opts):
    orbit = _orbit_from(opts, "terms")
    return obstruction_sequence(orbit, opts["field"], min(opts["terms"], orbit.truncated_at + 1))


def _cmd_cycles(opts):
    return serialize.CyclesPayload(_census(opts["map"], opts["period"], opts["newton_tol"]))


def _cmd_alpha(opts):
    cycle = _pick_cycle(opts)
    return serialize.CycleAlphaPayload(cycle, solve_alpha_on_cycle(opts["map"], cycle, opts["field"]))


def _cmd_continue(opts):
    # a continuation keeps the whole cycle at every step
    points = opts["steps"] * opts["period"]
    if points > MAX_TERMS:
        raise ParseError(f"--steps x --period: {points} is above the cap of {MAX_TERMS}")
    return continue_cycle(opts["map"], opts["field"], _pick_cycle(opts), opts["lambda_target"], steps=opts["steps"])


def _cmd_check_motion(opts):
    return motion_velocity_check(opts["map"], opts["field"], _pick_cycle(opts), opts["h"])


def _scan_config(opts) -> ScanConfig:
    workers = opts.get("workers")
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    return ScanConfig(
        d=opts["d"],
        region=None if opts.get("path") else opts.get("region"),
        resolution=None if opts.get("path") else opts.get("resolution"),
        path=opts.get("path"),
        orbit_length=opts["orbit_length"],
        field=opts.get("field") or VectorFieldSpec.constant(1.0),
        escape_radius=opts.get("escape_radius"),
        worker_count=workers,
    )


def _cmd_scan(opts):
    try:
        config = _scan_config(opts)
    except ValueError as err:
        raise ParseError(f"bad scan configuration: {err}", 0) from None
    rows = scan_parameters(config)
    if opts["format"] == "csv":
        return serialize.scan_rows_to_csv(rows)
    if opts["format"] == "ppm":
        return serialize.scan_heatmap_ppm(rows, config)
    return serialize.ScanPayload(rows)


def _cmd_render(opts):
    try:
        config = ScanConfig(
            d=opts["d"],
            region=opts["region"],
            resolution=opts["resolution"],
            escape_radius=opts.get("escape_radius"),
        )
    except ValueError as err:
        raise ParseError(f"bad render configuration: {err}", 0) from None
    counts = render_escape(config, opts["max_iter"], julia_c=opts.get("julia"))
    if opts["format"] == "ppm":
        return serialize.escape_image(counts, opts["max_iter"])
    return serialize.RenderPayload(opts["max_iter"], counts)


# ---------------------------------------------------------------------------
# Option table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Option:
    flag: str
    kind: str  # str | int | nonnegative-int | positive-int | finite-float | positive-float | complex | map | field | path | region | resolution
    default: Any
    help: str
    required: bool = False
    cap: int | None = None  # the largest int value accepted

    @property
    def key(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _opt(flag, kind, default, help, required=False, cap=None):
    shown = help if cap is None else f"{help} (at most {cap})"
    shown = shown if default is None else f"{shown} (default: {default})"
    return Option(flag, kind, default, shown, required, cap)


_MAP = _opt("--map", "map", None, "map spec, e.g. unicritical:2,-2+0i", required=True)
_FIELD = _opt("--field", "field", "1", "perturbation field, e.g. '1' or '2*z^2-1'")
_TOL = _opt("--tol", "finite-float", 1e-12, "series tolerance")
_NMAX = _opt("--n-max", "positive-int", 4096, "orbit / series length budget", cap=MAX_TERMS)
_ESCAPE = _opt("--escape-radius", "positive-float", None, "escape radius (default: map-dependent bound)")
_POINT = _opt("--point", "complex", None, "cycle point seed (default: first found cycle)")
_PERIOD = _opt("--period", "positive-int", None, "cycle period", required=True, cap=MAX_PERIOD)
_OUTPUT = _opt("--output", "str", "-", "output path, '-' for stdout")
_CONFIG = _opt("--config", "str", None, "flat key=value config file; flags override it")


def _fmt(default: str, *allowed: str) -> Option:
    return _opt("--format", f"choice:{','.join(allowed)}", default, f"output format, one of {allowed}")


COMMANDS: dict[str, dict] = {
    "orbit": {
        "run": _cmd_orbit, "help": "iterate a critical orbit with its derivative cocycle",
        "options": [_MAP, _opt("--point", "complex", None, "critical point (default: first)"),
                    _NMAX, _ESCAPE, _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "summability": {
        "run": _cmd_summability, "help": "tail-ratio evidence for the summability condition",
        "options": [_MAP, _opt("--point", "complex", None, "critical point (default: first)"),
                    _NMAX, _ESCAPE, _opt("--window", "positive-int", None, "trailing window (default: length/4)"),
                    _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "mu": {
        "run": _cmd_mu, "help": "orbit-sum functional of a field over a critical orbit",
        "options": [_MAP, _FIELD, _TOL, _NMAX, _ESCAPE, _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "moments": {
        "run": _cmd_moments, "help": "functional values on monomials z^j",
        "options": [_MAP, _opt("--max-degree", "nonnegative-int", 5, "highest monomial degree", cap=MAX_DEGREE),
                    _TOL, _NMAX, _ESCAPE, _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "witness": {
        "run": _cmd_witness, "help": "unit-norm polynomial field maximizing |mu|",
        "options": [_opt("--map", "map", None, "map spec (compute moments first)"),
                    _opt("--moments", "str", None, "comma-separated moments, overrides --map"),
                    _opt("--max-degree", "nonnegative-int", 5, "highest monomial degree", cap=MAX_DEGREE),
                    _TOL, _NMAX, _ESCAPE, _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "obstruction": {
        "run": _cmd_obstruction, "help": "derivative-weighted partial-sum sequence and growth fit",
        "options": [_MAP, _FIELD, _opt("--terms", "positive-int", 200, "sequence length", cap=MAX_TERMS),
                    _ESCAPE, _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "cycles": {
        "run": _cmd_cycles, "help": "find periodic cycles of a given period",
        "options": [_MAP, _PERIOD,
                    _opt("--newton-tol", "finite-float", 1e-9, "cycle residual tolerance"),
                    _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "alpha": {
        "run": _cmd_alpha, "help": "solve the linearized conjugacy equation on a cycle",
        "options": [_MAP, _PERIOD, _FIELD, _POINT, _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "continue": {
        "run": _cmd_continue, "help": "continue a repelling cycle along R + lambda v",
        "options": [_MAP, _PERIOD, _FIELD, _POINT,
                    _opt("--lambda-target", "complex", None, "target lambda", required=True),
                    _opt("--steps", "positive-int", 16, "path subdivisions", cap=MAX_STEPS),
                    _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "check-motion": {
        "run": _cmd_check_motion, "help": "compare solved velocity against finite-difference motion",
        "options": [_MAP, _PERIOD, _FIELD, _POINT,
                    _opt("--h", "positive-float", 1e-4, "finite-difference step"),
                    _fmt("json", "json"), _OUTPUT, _CONFIG],
    },
    "scan": {
        "run": _cmd_scan, "help": "sweep unicritical parameters over a grid or path",
        "options": [_opt("--d", "int", 2, "family degree", cap=MAX_DEGREE),
                    _opt("--region", "region", None, "re_min:re_max:im_min:im_max"),
                    _opt("--resolution", "resolution", None, "nx,ny; nx*ny", cap=MAX_PIXELS),
                    _opt("--path", "path", None, "comma-separated c values (overrides region)", cap=MAX_PIXELS),
                    _opt("--orbit-length", "int", 256, "orbit budget per parameter", cap=MAX_TERMS),
                    _FIELD, _ESCAPE,
                    _opt("--workers", "int", None, f"worker processes (default: ${WORKERS_ENV} or 1)"),
                    _fmt("csv", "csv", "json", "ppm"), _OUTPUT, _CONFIG],
    },
    "render": {
        "run": _cmd_render, "help": "escape-time image of the parameter or dynamical plane",
        "options": [_opt("--d", "int", 2, "family degree", cap=MAX_DEGREE),
                    _opt("--region", "region", None, "re_min:re_max:im_min:im_max", required=True),
                    _opt("--resolution", "resolution", None, "nx,ny; nx*ny", required=True, cap=MAX_PIXELS),
                    _opt("--max-iter", "positive-int", 256, "iteration cap", cap=MAX_TERMS),
                    _opt("--julia", "complex", None, "fixed c: render the dynamical plane"),
                    _ESCAPE, _fmt("ppm", "ppm", "json"), _OUTPUT, _CONFIG],
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratpert",
        description="Perturbation diagnostics for rational maps: orbit sums, "
        "obstruction growth, cycle continuation, parameter scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec["help"], description=spec["help"])
        for opt in spec["options"]:
            sp.add_argument(opt.flag, dest=opt.key, type=str, default=None, help=opt.help)
    return parser


# ---------------------------------------------------------------------------
# Option resolution
# ---------------------------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(
                    f"{path}:{lineno}: expected key=value", position=lineno
                )
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _check_cap(opt: Option, value: int) -> None:
    if opt.cap is not None and value > opt.cap:
        raise ParseError(f"{opt.flag}: {value} is above the cap of {opt.cap}")


_INT_MINIMUM = {"int": -math.inf, "nonnegative-int": 0, "positive-int": 1}


def _convert(opt: Option, raw: Any) -> Any:
    if raw is None or not isinstance(raw, str):
        return raw
    kind = opt.kind
    if kind == "str":
        return raw
    if kind in _INT_MINIMUM:
        value = int(raw)
        if value < _INT_MINIMUM[kind]:
            raise ValueError(f"must be >= {_INT_MINIMUM[kind]}, got {value}")
        _check_cap(opt, value)
        return value
    if kind in ("finite-float", "positive-float"):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {raw!r}")
        if kind == "positive-float" and value <= 0:
            raise ValueError(f"must be > 0, got {raw!r}")
        return value
    if kind == "complex":
        return parse_complex(raw)
    if kind == "map":
        return parse_map(raw)
    if kind == "field":
        return parse_field(raw)
    if kind == "path":
        _check_cap(opt, raw.count(",") + 1)  # before any point is parsed
        return tuple(_parse_complex_list(raw, 0))
    if kind == "region":
        parts = raw.split(":")
        if len(parts) != 4:
            raise ParseError("region must be re_min:re_max:im_min:im_max", 0)
        return Rectangle(*map(float, parts))
    if kind == "resolution":
        parts = raw.split(",")
        if len(parts) != 2:
            raise ParseError("resolution must be nx,ny", 0)
        nx, ny = int(parts[0]), int(parts[1])
        if nx < 1 or ny < 1:
            raise ValueError(f"nx and ny must be >= 1, got {raw!r}")
        _check_cap(opt, nx * ny)
        return (nx, ny)
    if kind.startswith("choice:"):
        allowed = kind[len("choice:") :].split(",")
        if raw not in allowed:
            raise ParseError(f"format must be one of {allowed}, got {raw!r}", 0)
        return raw
    raise ValueError(f"unknown option kind {kind}")


def _resolve_options(command: str, args: argparse.Namespace) -> dict[str, Any]:
    spec = COMMANDS[command]
    file_values: dict[str, str] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_values = _read_config_file(config_path)
        except OSError as err:
            raise ParseError(f"cannot read --config file: {err}") from None
    resolved: dict[str, Any] = {}
    for opt in spec["options"]:
        raw = getattr(args, opt.key, None)
        if raw is None:
            raw = file_values.get(opt.key)
        if raw is None:
            raw = opt.default
        try:
            value = _convert(opt, raw)
        except (ValueError, TypeError) as err:
            raise ParseError(f"bad value for {opt.flag}: {err}", 0) from None
        if value is None and opt.required:
            raise ParseError(f"{opt.flag} is required for '{command}'", 0)
        resolved[opt.key] = value
    return resolved


def _check_output(target: str) -> None:
    """Fail before the work when the output path cannot be opened for
    writing.  Opening for append leaves an existing file as it is; a file
    the check creates is removed again."""
    if target == "-":
        return
    existed = os.path.lexists(target)
    try:
        with open(target, "ab"):
            pass
    except OSError as err:
        raise ParseError(f"cannot write --output: {err}") from None
    if not existed:
        os.remove(target)


def _write_output(content: str | bytes, target: str) -> None:
    data = content.encode("utf-8") if isinstance(content, str) else content
    if target == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(target, "wb") as fh:
            fh.write(data)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve_options(args.command, args)
        _check_output(opts["output"])
        result = COMMANDS[args.command]["run"](opts)
        content = result if isinstance(result, (str, bytes)) else serialize.json_dumps(serialize.encode(result))
    except ParseError as err:
        position = f" (at position {err.position})" if err.position >= 0 else ""
        print(f"usage error: {err}{position}", file=sys.stderr)
        return 2
    except RatpertError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    try:
        _write_output(content, opts["output"])
    except OSError as err:
        print(f"usage error: cannot write --output: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
