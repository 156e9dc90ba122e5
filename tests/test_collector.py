"""The calls that build one container or more per orbit term run with the
cyclic garbage collector paused: each leaves gc.isenabled() as it found it,
returning or raising, and none runs collections while it works."""

import gc
import json
import math

import pytest

from ratpert import MapSpec, ObstructionSeries, VectorFieldSpec, iterate_orbit, obstruction_sequence
from ratpert.errors import InvalidOrbitError
from ratpert.maps import default_escape_radius
from ratpert.serialize import decode, encode, json_dumps, json_loads

CHEBYSHEV = MapSpec.unicritical(2, -2)  # orbit 0, -2, 2, 2, ...
FIELD = VectorFieldSpec.constant(1)
ORBIT = iterate_orbit(CHEBYSHEV, 0j, 200)
HUGE_C = MapSpec.unicritical(2, 1e300)  # c^2 overflows before |z| passes the radius

# name: (a call that returns, a call that raises, the exception it raises)
CALLS = {
    "iterate_orbit": (
        lambda: iterate_orbit(CHEBYSHEV, 0j, 200),
        lambda: iterate_orbit(HUGE_C, 0j, 100, escape_radius=default_escape_radius(2, 1e300)),
        InvalidOrbitError,
    ),
    "obstruction_sequence": (
        lambda: obstruction_sequence(ORBIT, FIELD, 200),
        # v(-2) = 2^1024 is not finite
        lambda: obstruction_sequence(ORBIT, VectorFieldSpec.monomial(1024), 50),
        InvalidOrbitError,
    ),
    "encode": (
        lambda: encode(ORBIT),
        lambda: encode(ObstructionSeries((1,), 0.0, "bounded")),
        AttributeError,
    ),
    "json_dumps": (
        lambda: json_dumps(encode(ORBIT)),
        lambda: json_dumps({"b": [1.0, math.nan]}),
        ValueError,
    ),
    "json_loads": (
        lambda: json_loads(json_dumps(encode(ORBIT))),
        lambda: json_loads("["),
        json.JSONDecodeError,
    ),
    "decode": (
        lambda: decode(encode(ORBIT)),
        lambda: decode({"type": "nonsense"}),
        ValueError,
    ),
}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("name", CALLS)
def test_the_collector_state_survives_a_return(name, collector):
    CALLS[name][0]()
    assert gc.isenabled() is collector


@pytest.mark.parametrize("name", CALLS)
def test_the_collector_state_survives_a_raise(name, collector):
    _, call, error = CALLS[name]
    with pytest.raises(error):
        call()
    assert gc.isenabled() is collector


def test_no_collection_runs_while_the_long_builders_work():
    # the allocations of a paused call still count, so the first allocation
    # after it returns may set off one generation-0 pass over its young
    # result: at most one per call, and never an older generation
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        orbit = iterate_orbit(CHEBYSHEV, 0j, 5000)
        series = obstruction_sequence(orbit, FIELD, 5000)
        decoded = decode(json_loads(json_dumps(encode(orbit))))
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was_enabled else gc.disable)()
    assert len(orbit.points) == len(series.b) == 5001 and decoded == orbit
    assert set(starts) <= {0} and len(starts) <= 6, starts
