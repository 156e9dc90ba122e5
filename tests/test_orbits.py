import hashlib
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ratpert import (
    CriticalRelationError,
    InvalidOrbitError,
    MapSpec,
    OrbitRecord,
    ParameterClass,
    Polynomial,
    XComplex,
    classify_parameter,
    default_cycle_seeds,
    default_escape_radius,
    eval_map,
    iterate_orbit,
    julia_sample,
    mantissa_ulp_gap,
    summability_report,
)
from ratpert.cli import main, parse_map
from ratpert.lanes import _classify_lanes
from ratpert.orbits import (
    NEAR_RELATION_TOL,
    RELATION_TOL,
    NearCriticalRelationWarning,
)
from ratpert.polynomial import poly_roots


class TestIterateOrbit:
    def test_chebyshev_closed_form(self, chebyshev_orbit):
        # orbit 0, -2, 2, 2, ...; cocycle[k] = -(4**k) for k >= 1
        orb = chebyshev_orbit
        assert orb.points[:5] == (0j, -2 + 0j, 2 + 0j, 2 + 0j, 2 + 0j)
        assert orb.cocycle[0].to_complex() == 1
        for k in range(1, 8):
            assert orb.cocycle[k].to_complex() == -(4.0**k)
        assert orb.escaped_at is None
        assert orb.truncated_at == 300

    @pytest.mark.parametrize("c,radius", [(1e300, None), (1e200, 1e250)])
    def test_overflow_before_escape_is_an_invalid_orbit(self, c, radius):
        # z_1 = c stays inside the radius and z_2 = c^2 + c overflows, so
        # the derivative at z_2 is not finite
        m = MapSpec.unicritical(2, c)
        radius = radius or default_escape_radius(2, c)
        with pytest.raises(InvalidOrbitError, match="overflowed at index 2 before passing"):
            iterate_orbit(m, 0j, 50, escape_radius=radius)

    def test_superattracting_fixed_critical_point(self):
        with pytest.raises(CriticalRelationError) as excinfo:
            iterate_orbit(MapSpec.unicritical(2, 0), 0j, 50)
        assert excinfo.value.index == 1
        marked = excinfo.value.orbit
        assert marked is not None and marked.critical_relation_at == 1

    def test_escape_with_radius_ten(self):
        orb = iterate_orbit(MapSpec.unicritical(2, 1), 0j, 50, escape_radius=10.0)
        assert orb.points == (0j, 1 + 0j, 2 + 0j, 5 + 0j, 26 + 0j)
        assert orb.escaped_at == 4

    def test_non_critical_start_rejected(self):
        with pytest.raises(ValueError):
            iterate_orbit(MapSpec.unicritical(2, -2), 1.0, 10)

    def test_cocycle_recurrence_exact_exponent(self):
        m = MapSpec.unicritical(2, 1j)
        orb = iterate_orbit(m, 0j, 200)
        for k in range(orb.truncated_at):
            _, dz = eval_map(m, orb.points[k + 1])
            recomputed = orb.cocycle[k] * XComplex.from_complex(dz)
            assert recomputed.exponent == orb.cocycle[k + 1].exponent
            assert mantissa_ulp_gap(recomputed, orb.cocycle[k + 1]) <= 2.0

    def test_prefix_consistency(self):
        m = MapSpec.unicritical(2, 1j)
        short = iterate_orbit(m, 0j, 50)
        long = iterate_orbit(m, 0j, 120)
        assert long.points[:51] == short.points
        assert long.cocycle[:51] == short.cocycle
        assert long.partial_sums_abs[:51] == short.partial_sums_abs

    def test_partial_sums_nondecreasing(self, chebyshev_orbit):
        sums = chebyshev_orbit.partial_sums_abs
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_rational_map_orbit(self):
        m = MapSpec.rational(Polynomial((1, 0, 1)), Polynomial((0, 1)))
        orb = iterate_orbit(m, 1.0, 30, escape_radius=1e12)
        # (z^2+1)/z from 1: 2, 2.5, 2.9, ... increasing along the real axis
        assert orb.points[1] == 2
        assert all(abs(z.imag) < 1e-12 for z in orb.points)


class TestSummability:
    def test_chebyshev_partial_sum_converges_to_4_3(self, chebyshev_orbit):
        sums = chebyshev_orbit.partial_sums_abs
        for n in range(5, 60):
            assert abs(sums[n] - 4.0 / 3.0) < 4.0 ** (-n + 2)

    def test_chebyshev_report(self, chebyshev_orbit):
        report = summability_report(chebyshev_orbit, 32)
        assert report.classification == "summable-evidence"
        assert report.tail_ratio == pytest.approx(0.25, abs=1e-12)
        assert report.partial_sum == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_attracting_parameter_divergent(self):
        orb = iterate_orbit(MapSpec.unicritical(2, 0.1), 0j, 400)
        report = summability_report(orb, 32)
        assert report.classification == "divergent-evidence"
        # terms grow like 1/|multiplier| = 1/0.2254
        assert report.tail_ratio == pytest.approx(1 / 0.22540333075851662, rel=1e-6)

    def test_constant_cocycle_inconclusive(self, chebyshev_map):
        n = 64
        orbit = OrbitRecord(
            map=chebyshev_map,
            points=tuple([0.5 + 0j] * (n + 1)),
            cocycle=tuple([XComplex.one()] * (n + 1)),
            partial_sums_abs=tuple(float(k + 1) for k in range(n + 1)),
            escaped_at=None,
            truncated_at=n,
        )
        report = summability_report(orbit, 16)
        assert report.tail_ratio == pytest.approx(1.0)
        assert report.classification == "inconclusive"

    def test_relation_marked_orbit_rejected(self, chebyshev_map):
        try:
            iterate_orbit(MapSpec.unicritical(2, 0), 0j, 50)
        except CriticalRelationError as err:
            marked = err.orbit
        with pytest.raises(InvalidOrbitError):
            summability_report(marked, 1)

    def test_window_too_large(self, chebyshev_orbit):
        with pytest.raises(ValueError):
            summability_report(chebyshev_orbit, 400)


class TestClassifyParameter:
    def test_origin_superattracting(self):
        got = classify_parameter(0, 2)
        assert (got.kind, got.period, got.multiplier) == ("attracting", 1, 0j)

    def test_escaping(self):
        got = classify_parameter(1, 2)
        assert got.kind == "escaping"

    def test_superattracting_two_cycle(self):
        got = classify_parameter(-1, 2)
        assert got.kind == "attracting"
        assert got.period == 2
        assert abs(got.multiplier) == 0

    def test_chebyshev_undecided(self):
        assert classify_parameter(-2, 2, n_max=512).kind == "undecided"

    def test_attracting_fixed_point_multiplier(self):
        got = classify_parameter(0.1, 2)
        assert got.kind == "attracting" and got.period == 1
        z_fix = (1 - math.sqrt(0.6)) / 2
        assert got.multiplier == pytest.approx(2 * z_fix, rel=1e-9)

    def test_overflow_to_nan_escapes(self):
        # z_6 of z**4 + c overflows to nan while |z_5| < 1e300; iterate_orbit
        # raises on the same orbit, so "undecided" would send it there
        got = classify_parameter(1.875 + 1.875j, 4, escape_radius=1e300)
        assert (got.kind, got.iterations_used) == ("escaping", 6)
        with pytest.raises(InvalidOrbitError, match="overflowed at index 5"):
            iterate_orbit(MapSpec.unicritical(4, 1.875 + 1.875j), 0j, 256, escape_radius=1e300)

    def test_modulus_overflow_escapes_as_in_the_lanes(self):
        # z_2 = c^2 + c has finite parts, and abs(z_2) raises OverflowError
        # where np.hypot gives inf: both paths see the escape at k = 2
        c = 1.2528e154 + 5.189e153j
        escaping = ParameterClass("escaping", None, None, 2)
        assert classify_parameter(c, 2, escape_radius=1e300) == escaping
        assert _classify_lanes([c] * 20, [1e300] * 20, 2, 2048) == [escaping] * 20

    def test_outside_disk_escapes(self):
        import random

        rng = random.Random(3)
        for _ in range(25):
            angle = rng.uniform(0, 2 * math.pi)
            radius = rng.uniform(2.0001, 5)
            c = radius * complex(math.cos(angle), math.sin(angle))
            assert classify_parameter(c, 2).kind == "escaping"


class TestClassifyClosedForm:
    """z^2 + c at c = lam/2 - lam^2/4 has the fixed point lam/2 with
    multiplier lam; at c = -1 + mu/4 its 2-cycle, the roots p, q of
    z^2 + z + c + 1, has multiplier 4pq = mu.

    Error budget, from the residual gate the classification certifies
    (|f^n(p) - p| <= CYCLE_DETECT_TOL * max(1, |p|)) and |1 - rho| >= 0.05
    for |rho| <= 0.95: the solved point is within residual / |1 - rho| of
    the cycle.  Period 1: |p| < 1, so p is within 2e-8 and rho = 2p within
    4e-8.  Period 2: |p|, |q| <= (1 + sqrt(1.95)) / 2 < 1.2, so p is within
    2.4e-8, and rho = 4 p (p^2 + c) moves by |4(q + 2p^2)| < 16.4 times
    that, under 4e-7.  Rounding c itself adds about 1e-16 / 0.05."""

    @settings(max_examples=60)
    @given(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))
    def test_fixed_point_multiplier(self, radius, angle):
        lam = radius * complex(math.cos(angle), math.sin(angle))
        got = classify_parameter(lam / 2 - lam * lam / 4, 2)
        assert (got.kind, got.period) == ("attracting", 1)
        assert abs(got.multiplier - lam) <= 4e-8

    @settings(max_examples=60)
    @given(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))
    def test_two_cycle_multiplier(self, radius, angle):
        mu = radius * complex(math.cos(angle), math.sin(angle))
        got = classify_parameter(-1 + mu / 4, 2)
        assert (got.kind, got.period) == ("attracting", 2)
        assert abs(got.multiplier - mu) <= 4e-7


class TestParameterClassValidation:
    def test_attracting_requires_contracting_multiplier(self):
        from ratpert import ParameterClass

        with pytest.raises(ValueError):
            ParameterClass("attracting", 1, 2 + 0j, 10)
        with pytest.raises(ValueError):
            ParameterClass("attracting", None, 0j, 10)


class TestJuliaSample:
    def test_unit_circle(self, squaring_map):
        pts = julia_sample(squaring_map, 200, transient=32, seed=1)
        assert len(pts) == 200
        assert max(abs(abs(z) - 1.0) for z in pts) < 1e-6

    def test_chebyshev_interval(self, chebyshev_map):
        pts = julia_sample(chebyshev_map, 200, transient=32, seed=1)
        assert max(abs(z.imag) for z in pts) < 1e-6
        assert max(abs(z.real) for z in pts) <= 2 + 1e-6

    def test_deterministic_for_seed(self, squaring_map):
        a = julia_sample(squaring_map, 25, seed=9)
        b = julia_sample(squaring_map, 25, seed=9)
        assert a == b
        assert a != julia_sample(squaring_map, 25, seed=10)

    @pytest.mark.parametrize(
        "d,c", [(2, -1), (2, 0.3j), (2, -0.5969 - 1.6758j), (3, 0.3j), (3, 1.2796 + 1.2706j)]
    )
    def test_each_point_is_a_preimage_of_the_last(self, d, c):
        # the preimage equation of z^d + c is binomial, so each point is a
        # closed-form d-th root whose modulus and angle are within a few ulp:
        # w_k^d + c lands within about 2d ulp of w_{k-1} relative to the
        # residual scale |c - w_{k-1}| + |w_k|^d, Horner included; 8d gives 4x room
        m = MapSpec.unicritical(d, c)
        pts = julia_sample(m, 300, seed=5)
        budget = 8 * d * 2.0**-52
        for prev, cur in zip(pts, pts[1:]):
            value, _ = eval_map(m, cur)
            assert abs(value - prev) <= budget * (abs(c - prev) + abs(cur) ** d)


@pytest.mark.parametrize(
    "text,start,tol",
    [
        # infinity has multiplier 1 and the finite fixed point 0 is
        # superattracting: the walk starts at the pole
        ("rational:0,0,1/0.3,1", -0.3, 0.0),
        # z + 1/z: P - zQ = 1, every fixed point is at infinity
        ("rational:1,0,1/0,1", 0.0, 0.0),
        # the parabolic fixed point 1/2 of z^2 + 1/4 is a double root, solved
        # to about sqrt(eps)
        ("unicritical:2,0.25", 0.5, 1e-6),
        # the most repelling of the two fixed points of z^2 - 1
        ("unicritical:2,-1", (1 + 5**0.5) / 2, 1e-12),
    ],
)
def test_julia_point(text, start, tol):
    assert abs(parse_map(text).julia_point - start) <= tol


def reference_julia_sample(map, n_points, transient, seed):
    """julia_sample as it was when each step built its preimage equation as
    a Polynomial and called poly_roots."""
    w = map.julia_point
    rng = random.Random(seed)
    out = []
    for step in range(transient + n_points):
        candidates = poly_roots(map.numerator - map.denominator.scale(w), tol=1e-12)
        w = candidates[rng.randrange(len(candidates))]
        if step >= transient:
            out.append(w)
    return tuple(out)


# numerator longer, denominator longer, equal lengths, a non-binomial
# numerator (the Aberth path) and a root of the preimage equation at 0
@pytest.mark.parametrize(
    "text",
    ["unicritical:2,0.3-0.5i", "unicritical:4,0.2+0.4i", "rational:1,0,0/0,0,1,0.3",
     "rational:0,0,1/0.3,1", "rational:0,0,1,1/1,0,0.7", "rational:0.1,-1,0.5,1/1,0.2",
     "rational:0,-3,0,4/1"],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_julia_sample_matches_the_polynomial_reference(text, seed):
    m = parse_map(text)
    assert julia_sample(m, 60, transient=20, seed=seed) == reference_julia_sample(m, 60, 20, seed)


# the first 16 hex digits of sha256(repr(...)) of default_cycle_seeds(m) and
# of julia_sample(m, 200, transient=32, seed=1), pinned while each inverse-
# iteration step still built its preimage equation as a Polynomial; the
# last two re-pinned when the walk began at MapSpec.julia_point: z^2 / (z + 0.3)
# now starts at its pole -0.3 (infinity, of multiplier 1, outranks the
# superattracting 0), and the other map's fixed point is solved at 1e-12
@pytest.mark.parametrize(
    "text,seeds_digest,sample_digest",
    [
        ("unicritical:2,-0.12+0.75i", "665d8c2047144ed8", "d474adc5774d3ac8"),
        ("unicritical:3,1.2796+1.2706i", "fd4d9772e803289c", "0602aea6c446a1f6"),
        ("rational:0,-3,0,4/1", "9337dfeab57d7d37", "a32b9cb9a644172f"),
        ("rational:-2,0,1/1,0,0.001", "be1e64296957d171", "45224e6d6652061e"),
        ("rational:0,0,1/0.3,1", "58fc3b6179b80f0b", "902988eb9896b6df"),
        ("rational:0.1,-1,0.5,1/1,0.2", "4e4fe5649d2a8b55", "067424e423cf1e07"),
    ],
)
def test_julia_seeds_keep_their_bytes(text, seeds_digest, sample_digest):
    m = parse_map(text)
    digest = lambda x: hashlib.sha256(repr(x).encode()).hexdigest()[:16]
    assert digest(default_cycle_seeds(m)) == seeds_digest
    assert digest(julia_sample(m, 200, transient=32, seed=1)) == sample_digest


# The XComplex loop iterate_orbit ran before its cocycle moved to raw parts,
# kept as the reference the parts loop must match bit for bit.
def reference_iterate_orbit(map, c, n_max, escape_radius=1e6):
    c = complex(c)
    crit = map.critical_points
    points = [c]
    cocycle = [XComplex.one()]
    partials = [1.0]
    escaped_at = None

    value, _ = eval_map(map, c)
    for k in range(n_max):
        z = value
        points.append(z)
        index = k + 1

        nearest = min(abs(z - cp) / max(1.0, abs(cp)) for cp in crit)
        value, dz = eval_map(map, z)

        if nearest < RELATION_TOL or dz == 0:
            record = OrbitRecord(
                map=map,
                points=tuple(points),
                cocycle=tuple(cocycle) + (cocycle[-1] * XComplex.from_complex(dz),),
                partial_sums_abs=tuple(partials) + (math.inf,),
                escaped_at=None,
                truncated_at=index,
                critical_relation_at=index,
            )
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

        entry = cocycle[-1] * XComplex.from_complex(dz)
        cocycle.append(entry)
        try:
            increment = entry.reciprocal().magnitude()
        except OverflowError:
            increment = math.inf
        partials.append(partials[-1] + increment)

        if abs(z) > escape_radius:
            escaped_at = index
            break

    return OrbitRecord(
        map=map,
        points=tuple(points),
        cocycle=tuple(cocycle),
        partial_sums_abs=tuple(partials),
        escaped_at=escaped_at,
        truncated_at=len(points) - 1,
    )


def outcome(fn, *args, **kwargs):
    """(record, relation index, warning texts) of an orbit computation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record, index = fn(*args, **kwargs), None
        except CriticalRelationError as err:
            record, index = err.orbit, err.index
    return record, index, [str(w.message) for w in caught]


def assert_same_orbit(m, c, n_max, **kwargs):
    got = outcome(iterate_orbit, m, c, n_max, **kwargs)
    want = outcome(reference_iterate_orbit, m, c, n_max, **kwargs)
    (record, index, texts), (ref, ref_index, ref_texts) = got, want
    assert (index, texts) == (ref_index, ref_texts)
    assert record.points == ref.points
    assert record.cocycle == ref.cocycle
    assert record.partial_sums_abs == ref.partial_sums_abs
    assert record == ref
    return record, index, texts


class TestPartsCoreMatchesXComplexLoop:
    @settings(max_examples=40)
    @given(
        st.floats(-2.0, 0.5, allow_nan=False),
        st.floats(-1.2, 1.2, allow_nan=False),
    )
    def test_quadratic_family(self, re_c, im_c):
        c = complex(re_c, im_c)
        m = MapSpec.unicritical(2, c)
        assert_same_orbit(m, 0j, 300, escape_radius=default_escape_radius(2, c))

    def test_rational_map(self):
        m = MapSpec.rational(Polynomial((-2, 0, 1)), Polynomial((1, 0, 0.001)))
        record, _, _ = assert_same_orbit(m, 0j, 3000)
        assert record.escaped_at is None and record.truncated_at == 3000

    @pytest.mark.parametrize("c", [0.5, -0.5])
    def test_chebyshev_cubic(self, c):
        # 4z^3 - 3z: both critical points land on a repelling fixed point
        m = MapSpec.polynomial(Polynomial((0, -3, 0, 4)))
        record, _, _ = assert_same_orbit(m, c, 2000)
        assert record.cocycle[-1].exponent > 6000

    def test_escaping_orbit(self):
        record, _, _ = assert_same_orbit(MapSpec.unicritical(2, 1), 0j, 50, escape_radius=3.0)
        assert record.escaped_at == 3

    def test_near_relation_warning(self):
        _, index, texts = assert_same_orbit(MapSpec.unicritical(2, -1 + 1e-8), 0j, 64)
        assert index is None and texts

    def test_relation_record(self):
        record, index, _ = assert_same_orbit(MapSpec.unicritical(2, -1), 0j, 64)
        assert index == 2 and record.critical_relation_at == 2
        assert record.cocycle[-1].is_zero and record.partial_sums_abs[-1] == math.inf


def test_orbit_cli_output_pinned(capsysbinary):
    # sha256 of the output before the cocycle moved to raw parts
    # (CPython 3.11, x86-64 Linux)
    assert main(["orbit", "--map", "unicritical:2,-2+0i"]) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digest == "4cb6692cd44de11059a25e18a0cd44edf38fb4864fd56046cad91fb0966d35be"


def test_long_inexact_orbit_cli_output_pinned(capsysbinary):
    # sha256 of the output before the cocycle ran on raw mantissas (CPython
    # 3.11, x86-64 Linux): an orbit whose points are not exact in binary,
    # across ten segments and forty product chunks
    assert main(["orbit", "--map", "rational:-2,0,1/1,0,0.001", "--n-max", "20000"]) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digest == "3d1e4bd35c1df4a2652c938871a95b84ab033c429551fedf13faa7778d35e720"
