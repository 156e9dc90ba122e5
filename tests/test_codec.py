"""The JSON codec's table: each command's output is strict JSON that decodes
and re-encodes to the same bytes, and non-finite floats are strings."""

import hashlib
import json
import math
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from ratpert import (
    MapSpec, VectorFieldSpec, classify_parameter, iterate_orbit, mu_functional, obstruction_sequence,
)
from ratpert import serialize
from ratpert.cli import main
from ratpert.continuation import MotionCheck
from ratpert.maps import default_escape_radius
from ratpert.orbits import default_summability_window, summability_report
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
        # long outputs, pinned when json_dumps was still json.dumps(indent=2)
        ("orbit --map unicritical:2,-2+0i --n-max 20000",
         "72528414f2656c73989ba1330cee13422b7107fb37ac96341cdcaa9c6ecb9bc9"),
        ("obstruction --map rational:-2,0,1/1,0,0.001 --field 1+0.3*z --terms 20000",
         "f45401fc615208516a8bce27db8308e4319b50521dace1f29bce4c2616360814"),
        ("cycles --map unicritical:2,-0.5969-1.6758i --period 9",
         "04cddb13cd18f8971f62c0a39056bad20f0892b639b0e7a2cb76ca744340a1dc"),
        # a non-polynomial map, re-pinned when its census moved from seeded
        # Newton to Aberth sweeps, and again when its backward tree began at
        # the fixed point solved at 1e-12 instead of 1e-10: the points moved
        # in their last bits, and both cycles pass the 40-digit check of
        # test_census.TestRationalCensus
        ("cycles --map rational:-1,0,1/1,0,0.05 --period 3",
         "b3012f6adf24a9380924b2709fc134106b564dfa79091809ec5dc35af24235c1"),
        # the continuation, pinned while each step still rebuilt R + lambda v
        # for its predictor and walked f^n again after the corrector; the
        # third halves its one step twice (lambda 0, 2, 3, 4)
        ("continue --map unicritical:2,-0.12+0.75i --period 3 --field 1 --lambda-target 0.001 --steps 64",
         "387c6cac7187cbef01773ef9136e1839c5558f5959108e3bd4d886fe33058b64"),
        ("continue --map rational:-1,0,1/1,0,0.05 --period 3 --field 1+0.3*z --lambda-target 0.05+0.02i --steps 8",
         "dce9d244611eaa2f89e3e9e39c90fa2552be68831b33b4074fb96c376e074619"),
        ("continue --map rational:-1,0,1/1,0,0.05 --period 3 --field 1 --lambda-target 4 --steps 1",
         "27bab942b488ea6708ca9d5804605bbb9237564640d9c2666a6eb112a1b57bd8"),
        ("check-motion --map rational:-1,0,1/1,0,0.05 --period 3 --field 1 --h 1e-5",
         "f0f10b773c66fe426c03b9a011e0907ae94c7b272737e13c120d89128b456ce4"),
        # the orbit series of mu and the moments, the growth fit and the
        # scan's lanes, pinned while each of them still had two copies
        ("mu --map unicritical:2,-2+0i",
         "7bc2e226da7c71323b2523555387a520a5a77efe7ff9b14f87eb07f67f6b9b6a"),
        ("mu --map rational:-2,0,1/1,0,0.001 --field 1+0.3*z",
         "bf19694ef49d062abdbaddc90d74aa8a695c2730c22cbb3ba55c5e0d8c5c64fe"),
        ("witness --map unicritical:2,-2+0i",
         "2999ccfda0a5f94ac7433211b87d8e23e062ae557a800e18e06106a92e2e73fd"),
        ("obstruction --map unicritical:2,-0.12+0.75i --field z^2 --terms 100",
         "597882be0f8fda4f999ef7dbb01938691c67ce3327779b2b49cf8e6b89e5c091"),
        ("scan --region=-1.05:-0.95:0.18:0.28 --resolution 8,8 --format ppm",
         "fe2d4172f5fd5b320d249822c651530b361d632d5f00fe5fb2f12449b4d7e2a5"),
    ],
)
def test_finite_outputs_keep_their_bytes(command, digest, capsysbinary):
    assert hashlib.sha256(_run(capsysbinary, command.split())).hexdigest() == digest


def test_julia_render_keeps_its_bytes(capsysbinary):
    # a d = 3 dynamical-plane PPM, pinned while the escape loop still masked
    # the whole grid on every iteration
    command = "render --d 3 --julia=-0.1+0.7i --region=-1.5:1.5:-1.5:1.5 --resolution 48,40 --max-iter 64"
    assert (hashlib.sha256(_run(capsysbinary, command.split())).hexdigest()
            == "6e1452c118fb08f718c07026c00d90d98c01baa75cc8604fc62bebbf40040ce2")


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


def _tags(value) -> set:
    """The payload tags in a JSON value, nested payloads included."""
    if isinstance(value, list):
        return set().union(*map(_tags, value))
    if isinstance(value, dict):
        return set().union({value.get("type")} - {None}, *map(_tags, value.values()))
    return set()


def test_every_registered_payload_round_trips(capsysbinary):
    # the invocations, which test_output_is_strict_json_that_round_trips
    # round-trips, write every payload but parameter_class
    seen = {"parameter_class"}
    for command in INVOCATIONS:
        seen |= _tags(json.loads(_run(capsysbinary, command.split())))
    assert seen == set(serialize._BY_TAG)
    for c in (-1, 0.1, -2, 10):
        result = classify_parameter(c, 2)
        assert decode(json_loads(json_dumps(encode(result)))) == result


def test_overflowed_summability_report_round_trips():
    # drawn into an attracting cycle: 1/|cocycle| overflows, so the partial
    # sums are inf from index 762 on and the last increment is inf, not inf - inf
    c = -0.12 + 0.75j
    orbit = _orbit(c, 4096)
    report = summability_report(orbit, default_summability_window(len(orbit.points)))
    assert report.partial_sum == report.last_increment == math.inf
    assert decode(json_loads(json_dumps(encode(report)))) == report


def test_finite_summability_report_keeps_its_increment():
    orbit = _orbit(-2, 300)
    report = summability_report(orbit, 64)
    assert report.last_increment == orbit.partial_sums_abs[-1] - orbit.partial_sums_abs[-2]


# json_dumps against the stdlib's json.dumps(indent=2): the leaf shapes the
# codec writes in one join, their misshapen neighbours, and non-finite floats
_any_float = st.floats()
_number = st.one_of(_any_float, st.integers(), st.booleans())
_pair = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
    st.tuples(_any_float, _any_float),
    st.lists(_number, max_size=3),
)
_xcomplex = st.one_of(
    st.fixed_dictionaries({"mantissa": _pair, "exponent": st.integers()}),
    st.fixed_dictionaries({"mantissa": _pair, "exponent": _number}),
    st.builds(lambda m, e: {"exponent": e, "mantissa": m}, _pair, st.integers()),
    st.fixed_dictionaries({"mantissa": _pair, "exponent": st.integers(), "extra": _number}),
)
_leaf_lists = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
    st.lists(_number, min_size=1),
    st.lists(_pair, min_size=1),
    st.lists(_xcomplex, min_size=1),
)
_scalar = st.one_of(st.none(), _number, st.text())
_values = st.recursive(
    st.one_of(_scalar, _leaf_lists),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
        st.dictionaries(st.one_of(st.integers(), _any_float, st.booleans(), st.none()), inner),
    ),
    max_leaves=20,
)


@given(_values)
def test_json_dumps_matches_the_stdlib(value):
    try:
        expected = json.dumps(value, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError):
            json_dumps(value)
    else:
        assert json_dumps(value) == expected


@pytest.mark.parametrize(
    "value",
    [
        object(),
        [1.0, 2.0, 1j],
        [[1.0, 2.0], [1.0, {1, 2}]],
        [{"mantissa": [1.0, 2.0], "exponent": 1j}],
        {"key": b"bytes"},
        {(1, 2): 3.0},
    ],
)
def test_json_dumps_rejects_what_the_stdlib_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        json_dumps(value)
