"""The JSON codec's table: each command's output is strict JSON that decodes
and re-encodes to the same bytes, and non-finite floats are strings."""

import hashlib
import json
import math
from typing import NamedTuple

import pytest

from ratpert import MapSpec, VectorFieldSpec, iterate_orbit, mu_functional, obstruction_sequence
from ratpert import serialize
from ratpert.cli import main
from ratpert.continuation import MotionCheck
from ratpert.maps import default_escape_radius
from ratpert.serialize import decode, encode, json_dumps, json_loads


def _strict_loads(text: str):
    def reject(literal):
        raise AssertionError(f"non-strict JSON literal {literal}")

    return json.loads(text, parse_constant=reject)


def _run(capsysbinary, args: list[str]) -> bytes:
    assert main(args) == 0
    return capsysbinary.readouterr().out


# one invocation per JSON-emitting command, both JSON forms of scan and render
INVOCATIONS = [
    "orbit --map unicritical:2,-2+0i",
    "summability --map unicritical:2,-0.12+0.75i",
    "mu --map unicritical:2,-2+0i",
    "mu --map unicritical:2,0.25+0i",
    "moments --map unicritical:2,-2+0i --max-degree 4",
    "witness --map unicritical:2,-2+0i",
    "witness --moments 1,0.5+0.5i,2",
    "obstruction --map unicritical:2,-2+0i --field 0",
    "obstruction --map unicritical:2,-0.12+0.75i --field z^2 --terms 100",
    "cycles --map unicritical:2,-1+0i --period 4",
    "cycles --map rational:0,0,1/0.3,1 --period 2",
    "alpha --map unicritical:2,-1+0i --period 3 --field 1",
    "continue --map unicritical:2,-2+0i --period 3 --lambda-target 0.01",
    "check-motion --map unicritical:2,-2+0i --period 3",
    "scan --path=-1,0.3+0.5i,-0.75+0.1i,0.25 --format json",
    "render --region=-2:0.5:-1:1 --resolution 20,16 --format json",
]

# what decode() returns for a CLI composite, wrapped back for encode()
REWRAP = {
    "moments": lambda value, payload: serialize.MomentsPayload(value),
    "cycles": lambda value, payload: serialize.CyclesPayload(value),
    "cycle_alpha": lambda value, payload: serialize.CycleAlphaPayload(**value),
    "scan": lambda value, payload: serialize.ScanPayload(value),
    "render": lambda value, payload: serialize.RenderPayload(payload["max_iter"], value),
}


@pytest.mark.parametrize("command", INVOCATIONS)
def test_output_is_strict_json_that_round_trips(command, capsysbinary):
    text = _run(capsysbinary, command.split()).decode()
    payload = _strict_loads(text)
    value = decode(payload)
    rewrap = REWRAP.get(payload["type"])
    assert json_dumps(encode(value if rewrap is None else rewrap(value, payload))) == text


# sha256 of each output before the codec became one table
@pytest.mark.parametrize(
    "command,digest",
    [
        ("cycles --map unicritical:2,-1+0i --period 4",
         "656a744400d3ebb5936577541171320c8c154b184fbb91692ae29040d0a55a55"),
        ("orbit --map unicritical:2,-2+0i",
         "4cb6692cd44de11059a25e18a0cd44edf38fb4864fd56046cad91fb0966d35be"),
        ("moments --map unicritical:2,-2+0i --max-degree 4",
         "457902c9b664f2443334481423769e8c3559387f87ac1c3a705664ef9372310d"),
        ("alpha --map unicritical:2,-1+0i --period 3 --field 1",
         "f34905314b2061453cc811bfc8ba7895a94d2139244d101f89b6a388ab1f0892"),
        ("scan --path=-1,0.3+0.5i,-0.75+0.1i,0.25 --format json",
         "fa7d82d745b7c0464fb51d66320156154534e38db9da03d90d096939c78a8ed8"),
        ("render --region=-2:0.5:-1:1 --resolution 20,16 --format json",
         "11d79a8b23c6ec72cda8d1def037f696d04f0ba722e95713ebe5e297ce517ad3"),
    ],
)
def test_finite_outputs_keep_their_bytes(command, digest, capsysbinary):
    assert hashlib.sha256(_run(capsysbinary, command.split())).hexdigest() == digest


def _orbit(c: complex, n_max: int):
    m = MapSpec.unicritical(2, c)
    return iterate_orbit(m, 0j, n_max=n_max, escape_radius=default_escape_radius(2, c))


def _bare_literals(text: str) -> str:
    """The same payload in the earlier, non-strict format."""
    for name in ("-Infinity", "Infinity", "NaN"):
        text = text.replace(f'"{name}"', name)
    return text


@pytest.mark.parametrize(
    "command,expected,key,literal",
    [
        ("mu --map unicritical:2,0.25+0i",
         lambda: mu_functional(_orbit(0.25, 4096), VectorFieldSpec.constant(1), tol=1e-12),
         "tail_bound", "Infinity"),
        ("obstruction --map unicritical:2,-2+0i --field 0",
         lambda: obstruction_sequence(_orbit(-2, 200), VectorFieldSpec.constant(0), 200),
         "growth_exponent", "-Infinity"),
    ],
)
def test_non_finite_floats_are_strings(command, expected, key, literal, capsysbinary):
    text = _run(capsysbinary, command.split()).decode()
    payload = _strict_loads(text)
    assert payload[key] == literal
    assert decode(payload) == expected()
    old = _bare_literals(text)
    assert old != text and decode(json_loads(old)) == expected()


def test_non_finite_parts_of_complex_pairs_and_nan():
    check = MotionCheck(complex(math.inf, math.nan), complex(0.5, -math.inf), -math.inf)
    payload = _strict_loads(json_dumps(encode(check)))
    assert payload["alpha"] == ["Infinity", "NaN"]
    assert payload["fd_velocity"] == [0.5, "-Infinity"]
    back = decode(payload)
    assert back.alpha.real == math.inf and math.isnan(back.alpha.imag)
    assert back.fd_velocity == complex(0.5, -math.inf) and back.discrepancy == -math.inf


def test_bare_non_finite_float_is_not_written():
    with pytest.raises(ValueError):
        json_dumps({"x": math.inf})


def test_duplicate_registration_raises():
    class Other(NamedTuple):
        x: float

    with pytest.raises(ValueError):
        serialize._register("orbit", Other)
    with pytest.raises(ValueError):
        serialize._register("other", serialize.MomentsPayload)
    with pytest.raises(TypeError):
        encode(Other(1.0))
