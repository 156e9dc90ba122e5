"""iterate_orbit and obstruction_sequence, each one pass over the orbit,
against their step-by-step loops: records, series, exceptions and warnings,
bit for bit."""

import cmath
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratpert import (
    CriticalRelationError,
    InvalidOrbitError,
    MapSpec,
    PoleError,
    Polynomial,
    VectorFieldSpec,
    default_escape_radius,
    eval_map,
    iterate_orbit,
    obstruction_sequence,
    summability_report,
)
from ratpert.maps import _derivative_lanes
from ratpert.obstruction import ObstructionSeries, _fit_growth
from ratpert.orbits import (
    NEAR_RELATION_TOL,
    RELATION_TOL,
    STABILIZATION_TOL,
    NearCriticalRelationWarning,
    _orbit_record,
    _tail_report,
)
from ratpert.serialize import decode, encode, json_dumps, json_loads
from ratpert.xcomplex import XComplex, _add, _cdiv_lanes, _mul, _normalize, _reciprocal


# The step-by-step loops iterate_orbit and obstruction_sequence ran before
# they moved to segments, kept as the reference they must match bit for
# bit (the escape_radius check came with the segments, and the
# InvalidOrbitError for a DR or v that is not finite replaced the
# ValueError and ZeroDivisionError of the scalar steps later).
def per_step_iterate_orbit(map, c, n_max, escape_radius=1e6):
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    c = complex(c)
    crit = [(cp, max(1.0, abs(cp))) for cp in map.critical_points]
    points = [c]
    value = eval_map(map, c)[0]
    entry = XComplex.one()
    cocycle = [entry]
    total = 1.0
    partials = [total]
    escaped_at = None

    try:
        for index in range(1, n_max + 1):
            z = value
            points.append(z)
            nearest = min(abs(z - cp) / scale for cp, scale in crit)
            value, dz = eval_map(map, z)

            if nearest < RELATION_TOL or dz == 0:
                cocycle.append(_mul(entry, _normalize(dz.real, dz.imag, 0)))
                partials.append(math.inf)
                record = _orbit_record(map, points, cocycle, partials, None, index)
                raise CriticalRelationError(
                    f"orbit landed on a critical point at index {index}",
                    index=index,
                    orbit=record,
                )
            if nearest < NEAR_RELATION_TOL:
                warnings.warn(
                    f"orbit within {nearest:.2e} of a critical point at index {index}",
                    NearCriticalRelationWarning,
                    stacklevel=2,
                )

            entry = _mul(entry, _normalize(dz.real, dz.imag, 0))
            cocycle.append(entry)
            total += _reciprocal(entry).magnitude()
            partials.append(total)

            if abs(z) > escape_radius:
                escaped_at = index
                break
    except ValueError:
        raise InvalidOrbitError(
            f"orbit overflowed at index {index} before passing the escape radius {escape_radius:g}"
        ) from None

    return _orbit_record(map, points, cocycle, partials, escaped_at, None)


def per_step_obstruction_sequence(orbit, v, n):
    if orbit.has_critical_relation:
        raise InvalidOrbitError("orbit carries a critical relation")
    if n < 1:
        raise ValueError("n must be >= 1")
    if orbit.truncated_at < n - 1:
        raise InvalidOrbitError(
            f"orbit has {orbit.truncated_at + 1} points; n = {n} needs {n} points"
        )

    b = [XComplex.zero()]
    term = XComplex.zero()
    for k, point in enumerate(orbit.points[:n]):
        dz = eval_map(orbit.map, point)[1]
        try:
            w = complex(v(point))
        except ZeroDivisionError:  # a pole of v on the orbit
            w = complex(math.nan)
        if not cmath.isfinite(dz):
            raise InvalidOrbitError(f"DR is not finite at orbit index {k}")
        if not cmath.isfinite(w):
            raise InvalidOrbitError(f"v is not finite at orbit index {k}")
        product = _mul(_normalize(dz.real, dz.imag, 0), term)
        term = _add(product, _normalize(w.real, w.imag, 0))
        b.append(term)

    exponent, evidence = _fit_growth(b)
    return ObstructionSeries(tuple(b), exponent, evidence)


def _record_key(record):
    """Every field of an OrbitRecord but the map, as text: repr tells
    signed zeros and every float bit apart."""
    return repr(dataclasses.astuple(record)[1:])


def _error_key(err):
    key = (type(err), str(err), getattr(err, "index", None))
    if isinstance(err, CriticalRelationError):
        key += (_record_key(err.orbit),)
    return key


def _run(fn, *args, **kwargs):
    """(result or error, warnings) of one call.  Both implementations are
    called from the line below, so the warnings of both must name it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # compared by type, text and record
            result = err
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def assert_same_orbit(m, c, n_max, escape_radius):
    got, got_warnings = _run(iterate_orbit, m, c, n_max, escape_radius)
    want, want_warnings = _run(per_step_iterate_orbit, m, c, n_max, escape_radius)
    assert got_warnings == want_warnings
    assert all(filename == __file__ for _, _, filename, _ in got_warnings)
    if isinstance(want, Exception):
        assert isinstance(got, Exception), got
        assert _error_key(got) == _error_key(want)
    else:
        assert not isinstance(got, Exception), got
        assert _record_key(got) == _record_key(want)
    return got, got_warnings


def assert_same_series(orbit, v, n):
    got, got_warnings = _run(obstruction_sequence, orbit, v, n)
    want, want_warnings = _run(per_step_obstruction_sequence, orbit, v, n)
    assert got_warnings == want_warnings == []
    if isinstance(want, Exception):
        assert isinstance(got, Exception), got
        assert _error_key(got) == _error_key(want)
    else:
        assert not isinstance(got, Exception), got
        assert repr(got.b) == repr(want.b)
        assert repr((got.growth_exponent, got.bounded_evidence)) == repr(
            (want.growth_exponent, want.bounded_evidence)
        )
    return got


# (z^2 + a) / (1 + b z^2) is even, so 0 is a critical point
def _even_rational(a, b):
    return MapSpec.rational(Polynomial((a, 0, 1)), Polynomial((1, 0, b)))


CHEBYSHEV_CUBIC = MapSpec.polynomial(Polynomial((0, -3, 0, 4)))  # critical points +-1/2

SPECIAL_C = [-1 + 1e-8, -1 + 0j, -2 + 0j, 1j, 0.25 + 1e-6, -0.75 + 0j, -0.1 + 0.65j, 0.3 + 0.5j]

FIELDS = [
    VectorFieldSpec.constant(1),
    VectorFieldSpec.from_coefficients([0.3, -1, 0.25j]),
    VectorFieldSpec.from_coefficients([0]),
    VectorFieldSpec.rational(Polynomial((1, 1)), Polynomial((-50, 1))),
    # pole at the critical point 0: v(points[0]) divides by zero
    VectorFieldSpec.rational(Polynomial((1,)), Polynomial((0, 1))),
]


@st.composite
def orbit_cases(draw):
    kind = draw(st.sampled_from(["unicritical", "rational", "cubic"]))
    if kind == "unicritical":
        d = draw(st.integers(2, 4))
        c = draw(st.one_of(
            st.sampled_from(SPECIAL_C),
            st.builds(complex, st.floats(-2.1, 0.6), st.floats(-1.3, 1.3)),
        ))
        m, start = MapSpec.unicritical(d, c), 0j
        radius = draw(st.sampled_from([default_escape_radius(d, c), 3.0, 1e250]))
    elif kind == "rational":
        a = draw(st.sampled_from([-2.0, -1.5, -0.5 + 0.3j, 0.2j]))
        m, start = _even_rational(a, draw(st.sampled_from([0.001, 0.05, 0.2]))), 0j
        radius = draw(st.sampled_from([1e6, 10.0]))
    else:
        m, start = CHEBYSHEV_CUBIC, draw(st.sampled_from([0.5, -0.5]))
        radius = 1e6
    n_max = draw(st.one_of(st.integers(1, 300), st.sampled_from([2047, 2048, 2049])))
    return m, start, n_max, radius


@settings(max_examples=40)
@given(orbit_cases(), st.sampled_from(FIELDS))
def test_segments_match_the_step_by_step_loops(case, v):
    m, start, n_max, radius = case
    orbit, _ = assert_same_orbit(m, start, n_max, radius)
    if not isinstance(orbit, Exception):
        assert_same_series(orbit, v, orbit.truncated_at + 1)
        decoded = decode(json_loads(json_dumps(encode(orbit))))
        assert_same_series(decoded, v, max(1, orbit.truncated_at // 2))


# -- where and in which order a step's events happen -------------------------


def test_pole_at_the_critical_point():
    # 1/z^2: the critical point 0 is a double pole, so step 0 raises
    m = MapSpec(Polynomial((1,)), Polynomial((0, 0, 1)))
    got, _ = assert_same_orbit(m, 0j, 10, 1e6)
    assert isinstance(got, PoleError)


def _orbit_point(m, index):
    z = 0j
    for _ in range(index):
        z = eval_map(m, z)[0]
    return z


# n_max: the pole met at the orbit's last point, one step before the end,
# never reached, and far inside a long orbit
@pytest.mark.parametrize("n_max", [1, 2, 3, 2048])
@pytest.mark.parametrize("m,index", [
    # 0 -> -1, and q(-1) = 0 exactly: no ZeroDivisionError
    (MapSpec.rational(Polynomial((1,)), Polynomial((-1, 0, 1))), 1),
    # 0 -> -1 -> 1/2, and q(1/2) = 8/4 - 2 = 0 exactly
    (MapSpec.rational(Polynomial((2, 0, 1)), Polynomial((-2, 0, 8))), 2),
])
def test_pole_on_the_orbit(m, index, n_max):
    assert m.denominator(m.critical_points[0]) != 0
    assert m.denominator(_orbit_point(m, index)) == 0
    got, _ = assert_same_orbit(m, 0j, n_max, 1e6)
    if n_max < index:
        # the orbit stops short of the pole
        assert got.truncated_at == n_max and len(got.points) == n_max + 1
    else:
        assert isinstance(got, PoleError) and "within pole tolerance" in str(got)


def test_derivative_exactly_zero_beats_the_escape():
    # z_1 = 1e79 lies beyond the radius, but q(z_1)^2 overflows and DR(z_1)
    # = (p'q - pq') / q^2 is 0: the relation test comes first
    m = _even_rational(1e79, 0.001)
    got, _ = assert_same_orbit(m, 0j, 10, 1e6)
    assert isinstance(got, CriticalRelationError) and got.index == 1
    assert eval_map(m, got.orbit.points[1])[1] == 0 and got.orbit.cocycle[1].is_zero
    assert got.orbit.partial_sums_abs == (1.0, math.inf)


def test_derivative_overflow_beats_the_escape():
    # z^4 + 1e150: z_1 = 1e150 passes the radius 1e50 + 1, but DR(z_1) =
    # 4e450 overflows first
    m = MapSpec.unicritical(4, 1e150)
    got, _ = assert_same_orbit(m, 0j, 10, default_escape_radius(4, 1e150))
    assert isinstance(got, InvalidOrbitError)
    assert str(got).startswith("orbit overflowed at index 1 before passing")


def test_modulus_overflow_is_an_invalid_orbit():
    # z_2 = c^2 + c has finite parts and |z_2| overflows: the step-by-step
    # loop's abs(z - cp) raises OverflowError there, while iterate_orbit
    # reads np.hypot's inf and DR(z_2) = 2 z_2, which is not finite
    m = MapSpec.unicritical(2, 1.2528e154 + 5.189e153j)
    with pytest.raises(OverflowError):
        per_step_iterate_orbit(m, 0j, 50, 1e300)
    with pytest.raises(InvalidOrbitError, match="^orbit overflowed at index 2 before passing"):
        iterate_orbit(m, 0j, 50, 1e300)


# z^3 - 3z + 1 + 1e-7, critical points +-1: z_1 = -1 + 1e-7 passes near -1,
# then z_2 is about 3
NEAR_THEN_ESCAPE = MapSpec.polynomial(Polynomial((1 + 1e-7, -3, 0, 1)))


@pytest.mark.parametrize("m,start,radius,ending", [
    (MapSpec.unicritical(2, 1), 0j, 3.0, "escape"),
    (MapSpec.rational(Polynomial((1,)), Polynomial((-1, 0, 1))), 0j, 1e6, PoleError),
    (MapSpec.unicritical(2, -1), 0j, 3.0, CriticalRelationError),
    (NEAR_THEN_ESCAPE, 1 + 0j, 2.5, "escape"),
    (MapSpec.unicritical(2, 1e300), 0j, 1e300, InvalidOrbitError),
])
def test_eval_map_only_at_the_start(m, start, radius, ending):
    # every orbit point is measured by the orbit's lanes, the one that
    # ends the orbit included; eval_map gives only the first image
    got, caught = assert_same_orbit(m, start, 50, radius)
    if ending == "escape":
        assert got.escaped_at == got.truncated_at < 50
    else:
        assert type(got) is ending
    assert bool(caught) == (m is NEAR_THEN_ESCAPE)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is eval_map.__code__:
            calls.append(frame.f_locals["z"])

    sys.setprofile(profile)
    try:
        _run(iterate_orbit, m, start, 50, radius)
    finally:
        sys.setprofile(None)
    assert calls == [start]


# The lengths 2047 to 2049 and 4097 below were the boundaries of the
# 2,048-step segments these functions once ran in; they still straddle
# multiples of the runs' 512-step chunks (xcomplex._RUN_CHUNK).


def _drift_radius(n):
    """A radius that z^2 + 1/4 + 1e-6 from 0, an increasing real orbit,
    first passes at step n."""
    points = per_step_iterate_orbit(MapSpec.unicritical(2, 0.25 + 1e-6), 0j, n, 1e6).points
    assert points[n - 1].real < points[n].real
    return points[n - 1].real


@pytest.mark.parametrize("n", [2047, 2048, 2049])
def test_escape_at_the_segment_boundary(n):
    got, _ = assert_same_orbit(MapSpec.unicritical(2, 0.25 + 1e-6), 0j, 4100, _drift_radius(n))
    assert got.escaped_at == n and got.truncated_at == n


@pytest.mark.parametrize("n_max", [2047, 2048, 2049, 4097])
def test_warnings_across_the_segment_boundary(n_max):
    # near -1 the orbit alternates between about 0 and -1: a warning at
    # every even step
    got, caught = assert_same_orbit(MapSpec.unicritical(2, -1 + 1e-8), 0j, n_max, 3.0)
    assert got.truncated_at == n_max
    assert len(caught) == n_max // 2
    assert caught[-1][1].endswith(f"at index {n_max - n_max % 2}")


@pytest.mark.parametrize("n_max", [2047, 2048, 2049])
def test_relation_after_a_segment(n_max):
    # a fixed escape radius of 3: the relation of c = -1 comes at step 2,
    # whatever the length asked for
    got, _ = assert_same_orbit(MapSpec.unicritical(2, -1), 0j, n_max, 3.0)
    assert isinstance(got, CriticalRelationError) and got.index == 2


@pytest.mark.parametrize("v", FIELDS)
def test_decoded_record_over_several_segments(v):
    m = _even_rational(-2.0, 0.001)
    orbit = iterate_orbit(m, 0j, 5000)
    decoded = decode(json_loads(json_dumps(encode(orbit))))
    assert decoded == orbit
    series = assert_same_series(decoded, v, 5001)
    stored = _run(obstruction_sequence, orbit, v, 5001)[0]
    assert repr(series) == repr(stored)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.0, -1.0])
def test_escape_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ValueError, match="escape_radius must be positive and finite"):
        iterate_orbit(MapSpec.unicritical(2, -1 + 0.1j), 0j, 10, escape_radius=radius)


# -- the lane copy of CPython's complex division ----------------------------


def _division_operands():
    rng = np.random.default_rng(5)
    values = (rng.uniform(-4, 4, 200) + 1j * rng.uniform(-4, 4, 200)).tolist()
    values += [1 + 0j, -0.0 + 0j, 0j, 1e-310 + 1e-310j, 1e300 - 1e300j, 3 - 3j,
               complex(math.inf, 1), complex(1, math.nan), complex(-0.0, 2)]
    return values


def _bits(values):
    return [repr(v) for v in values]


def test_lane_division_is_cpython_division():
    values = _division_operands()
    pairs = [(a, b) for a in values for b in values if b != 0]
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        re, im = _cdiv_lanes(a.real, a.imag, b.real, b.imag)
    got = [complex(r, i) for r, i in zip(re.tolist(), im.tolist())]
    assert _bits(got) == _bits([x / y for x, y in pairs])


@pytest.mark.parametrize("q", [1 + 0j, 2 - 0.5j, 0.25j, -3 + 0j, complex(-0.0, 1)])
def test_lane_division_by_one_value(q):
    a = np.array(_division_operands())
    re, im = _cdiv_lanes(a.real, a.imag, q.real, q.imag)
    got = [complex(r, i) for r, i in zip(re.tolist(), im.tolist())]
    assert _bits(got) == _bits([x / q for x in a.tolist()])


# -- DR on lanes: eval_map's bits, and its PoleError -------------------------


@pytest.mark.parametrize("m", [
    _even_rational(-2.0, 0.001),
    MapSpec.rational(Polynomial((1,)), Polynomial((-1, 0, 1))),  # poles +-1
    MapSpec(Polynomial((1e-170,)), Polynomial((1e-170, 0, 1e-170))),  # q^2 underflows to 0
    CHEBYSHEV_CUBIC,
    MapSpec.unicritical(4, 1e150),
])
def test_derivative_lanes_are_eval_map(m):
    rng = np.random.default_rng(11)
    points = (rng.uniform(-4, 4, 300) + 1j * rng.uniform(-4, 4, 300)).tolist()
    points += [p + e for p in (1, -1, 1j, -1j, 1e-100) for e in (0, 1e-12, 1e-9, 3e-8j)]
    points += [1e80, 1e155j, 1e160 - 1e160j, 1e200, 1e300 + 1e300j, complex(math.inf, 0), complex(0, math.nan)]
    zs = np.array(points)
    with np.errstate(all="ignore"):
        dr, di, pole = _derivative_lanes(m, zs.real, zs.imag)
    for z, re, im, at_pole in zip(points, dr.tolist(), di.tolist(), pole.tolist()):
        try:
            want = eval_map(m, z)[1]
        except PoleError:
            assert at_pole, z
            continue
        assert not at_pole, z
        if math.isfinite(re) and math.isfinite(im):
            assert repr(complex(re, im)) == repr(want), z
        else:
            assert not cmath.isfinite(want), z


# -- summability_report reads only the last 2*window increments -------------


@pytest.mark.parametrize("c,n_max,window", [
    (-2 + 0j, 300, 64), (-2 + 0j, 127, 64), (-2 + 0j, 128, 64), (1j, 200, 2),
    (-0.12 + 0.75j, 500, 64), (-0.75 + 0j, 40, 7),
])
def test_summability_report_reads_the_last_increments(c, n_max, window):
    # the verdict from every increment, as summability_report formed it
    # before; a 2*window-entry orbit has only 2*window - 1 increments
    orbit = iterate_orbit(MapSpec.unicritical(2, c), 0j, n_max, escape_radius=1e6)
    last = orbit.truncated_at
    ps = orbit.partial_sums_abs
    increments = [ps[k] - ps[k - 1] for k in range(1, last + 1)]
    if not math.isfinite(increments[-1]):
        increments[-1] = orbit.cocycle[last].reciprocal().magnitude()
    drop = orbit.cocycle[last - window].log2_abs() - orbit.cocycle[last].log2_abs()
    want = _tail_report(ps[last], drop, increments, window, last + 1, STABILIZATION_TOL)
    assert repr(summability_report(orbit, window)) == repr(want)
