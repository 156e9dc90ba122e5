import hashlib
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ratpert import (
    CriticalRelationError,
    InvalidOrbitError,
    MapSpec,
    ObstructionSeries,
    OrbitRecord,
    PoleError,
    Polynomial,
    VectorFieldSpec,
    XComplex,
    default_escape_radius,
    eval_map,
    iterate_orbit,
    mantissa_ulp_gap,
    obstruction_direct,
    obstruction_sequence,
)
from ratpert.cli import main
from ratpert.obstruction import GROWTH_MARGIN, _fit_growth, _fit_lanes, _fit_start
from ratpert.orbits import NearCriticalRelationWarning
from ratpert.serialize import decode, encode, json_dumps, json_loads


def chebyshev_sequence_exact(n):
    """Oracle: the recurrence over exact rationals for z^2 - 2, c = 0, v = 1.

    Orbit 0, -2, 2, 2, ...; derivative 2z along it.  No floating point.
    """
    points = [Fraction(0), Fraction(-2)] + [Fraction(2)] * (n - 1)
    b = [Fraction(0)]
    for k in range(n):
        b.append(2 * points[k] * b[k] + 1)
    return b


class TestChebyshev:
    def test_small_n_exact_rationals(self, chebyshev_orbit):
        v = VectorFieldSpec.constant(1)
        series = obstruction_sequence(chebyshev_orbit, v, 30)
        oracle = chebyshev_sequence_exact(30)
        assert series.b[0].is_zero
        for k in range(1, 31):
            got = series.b[k].to_complex()
            want = oracle[k]
            assert abs(got - complex(want)) <= 1e-12 * abs(complex(want))

    def test_growth_matches_cocycle_rate(self, chebyshev_orbit):
        series = obstruction_sequence(chebyshev_orbit, VectorFieldSpec.constant(1), 200)
        assert abs(series.growth_exponent - math.log(4)) < 0.02
        assert series.bounded_evidence == "unbounded"

    def test_direct_formula_cross_check(self, chebyshev_orbit):
        v = VectorFieldSpec.constant(1)
        series = obstruction_sequence(chebyshev_orbit, v, 10)
        direct = obstruction_direct(chebyshev_orbit, v, 10)
        got = series.b[10].to_complex()
        want = direct.to_complex()
        assert abs(got - want) <= 1e-8 * abs(want)


class TestInvariants:
    @pytest.mark.parametrize(
        "map_builder,crit",
        [
            (lambda: MapSpec.unicritical(2, -2), 0j),
            (lambda: MapSpec.unicritical(2, 1j), 0j),
        ],
    )
    def test_recurrence_holds_at_every_index(self, map_builder, crit):
        m = map_builder()
        orbit = iterate_orbit(m, crit, 400)
        v = VectorFieldSpec.from_coefficients([0.3, -1, 0.25j])
        series = obstruction_sequence(orbit, v, 400)
        for k in range(400):
            _, dz = eval_map(m, orbit.points[k])
            recomputed = XComplex.from_complex(dz) * series.b[k] + XComplex.from_complex(
                complex(v(orbit.points[k]))
            )
            assert mantissa_ulp_gap(recomputed, series.b[k + 1]) <= 4.0
            if not series.b[k + 1].is_zero:
                assert recomputed.exponent == series.b[k + 1].exponent

    def test_zero_field_is_bounded_zero(self, chebyshev_orbit):
        series = obstruction_sequence(chebyshev_orbit, VectorFieldSpec.constant(0), 100)
        assert all(x.is_zero for x in series.b)
        assert series.bounded_evidence == "bounded"
        assert series.growth_exponent == -math.inf

    def test_coboundary_field_stays_bounded(self, chebyshev_orbit):
        # v = a(R(z)) - DR(z) a(z) with constant a makes b[n] = a(R^n(c)),
        # i.e. exactly constant: the displacement field of a conjugacy has a
        # bounded sequence.  Here v(z) = a(1 - 2z) for the degree-2 map.
        a = 0.75 - 0.5j
        v = VectorFieldSpec.from_coefficients([a, -2 * a])
        series = obstruction_sequence(chebyshev_orbit, v, 200)
        for k in range(1, 201):
            assert abs(series.b[k].to_complex() - a) < 1e-10
        assert abs(series.growth_exponent) < 0.05
        assert series.bounded_evidence == "inconclusive"

    def test_linear_growth_via_direct_formula(self, chebyshev_map):
        # unit cocycle and v = 1 make the partial sums grow linearly
        n = 128
        orbit = OrbitRecord(
            map=chebyshev_map,
            points=tuple([0.25 + 0j] * (n + 1)),
            cocycle=tuple([XComplex.one()] * (n + 1)),
            partial_sums_abs=tuple(float(k + 1) for k in range(n + 1)),
            escaped_at=None,
            truncated_at=n,
        )
        direct = obstruction_direct(orbit, VectorFieldSpec.constant(1), 50)
        assert direct.to_complex() == pytest.approx(50.0)

    @pytest.mark.parametrize("v,index", [
        # (-2)^1024 overflows at the orbit point -2
        (VectorFieldSpec.monomial(1024), 1),
        # 1/(z - 2) divides by zero at the orbit point 2
        (VectorFieldSpec.rational(Polynomial((1,)), Polynomial((-2, 1))), 2),
    ])
    def test_direct_formula_rejects_a_field_not_finite_on_the_orbit(self, v, index):
        # the orbit of z^2 - 2 is 0, -2, 2, 2, ...; the recurrence names the same index
        orbit = iterate_orbit(MapSpec.unicritical(2, -2), 0j, 10)
        message = f"^v is not finite at orbit index {index}$"
        with pytest.raises(InvalidOrbitError, match=message):
            obstruction_direct(orbit, v, 5)
        with pytest.raises(InvalidOrbitError, match=message):
            obstruction_sequence(orbit, v, 5)

    @pytest.mark.parametrize("m,bad,error,message", [
        # -1 is a pole of 1/(z^2 - 1): the error eval_map raises there
        (MapSpec.rational(Polynomial((1,)), Polynomial((-1, 0, 1))), -1 + 0j, PoleError, None),
        # DR = 4z^3 overflows at 1e120
        (MapSpec.unicritical(4, 0), 1e120 + 0j, InvalidOrbitError, "DR is not finite at orbit index 2"),
    ])
    def test_unusable_point_of_a_hand_built_orbit(self, m, bad, error, message):
        orbit = OrbitRecord(
            map=m,
            points=(0j, 0.5 + 0j, bad, 0.25 + 0j),
            cocycle=(XComplex.one(),) * 4,
            partial_sums_abs=(1.0, 2.0, 3.0, 4.0),
            escaped_at=None,
            truncated_at=3,
        )
        assert len(obstruction_sequence(orbit, VectorFieldSpec.constant(1), 2)) == 3
        if message is None:
            with pytest.raises(PoleError) as want:
                eval_map(m, bad)
            message = str(want.value)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            obstruction_sequence(orbit, VectorFieldSpec.constant(1), 4)

    def test_orbit_too_short_rejected(self, chebyshev_orbit):
        with pytest.raises(InvalidOrbitError):
            obstruction_sequence(chebyshev_orbit, VectorFieldSpec.constant(1), 1000)

    def test_relation_marked_orbit_rejected(self, chebyshev_map):
        from ratpert import CriticalRelationError

        try:
            iterate_orbit(MapSpec.unicritical(2, 0), 0j, 20)
        except CriticalRelationError as err:
            marked = err.orbit
        with pytest.raises(InvalidOrbitError):
            obstruction_sequence(marked, VectorFieldSpec.constant(1), 5)


class TestLongRange:
    def test_ten_thousand_terms_no_overflow(self, chebyshev_map):
        orbit = iterate_orbit(chebyshev_map, 0j, 10_000)
        series = obstruction_sequence(orbit, VectorFieldSpec.constant(1), 10_000)
        top = series.b[-1]
        # |b[n]| ~ (2/3) * 4^(n-1): exponent near 2n, far beyond double range
        assert top.exponent > 19_000
        assert math.isfinite(abs(top.mantissa))


# The XComplex loop obstruction_sequence ran before the recurrence moved to
# raw parts and lanes, kept as the reference it must match.
def reference_obstruction_sequence(orbit, v, n):
    b = [XComplex.zero()]
    for k in range(n):
        point = orbit.points[k]
        _, dz = eval_map(orbit.map, point)
        term = XComplex.from_complex(dz) * b[k] + XComplex.from_complex(
            complex(v(point))
        )
        b.append(term)
    exponent, evidence = _fit_growth(b)
    return ObstructionSeries(tuple(b), exponent, evidence)


FIELDS = [
    VectorFieldSpec.constant(1),
    VectorFieldSpec.from_coefficients([0.3, -1, 0.25j]),
    VectorFieldSpec.rational(Polynomial((1, 1)), Polynomial((-50, 1))),
]


def assert_same_series(orbit, v, n):
    series = obstruction_sequence(orbit, v, n)
    ref = reference_obstruction_sequence(orbit, v, n)
    assert series.b == ref.b
    assert series == ref
    return series


class TestPartsCoreMatchesXComplexLoop:
    @pytest.mark.filterwarnings("ignore::ratpert.orbits.NearCriticalRelationWarning")
    @settings(max_examples=30)
    @given(
        st.floats(-2.0, 0.5, allow_nan=False),
        st.floats(-1.2, 1.2, allow_nan=False),
        st.sampled_from(FIELDS),
    )
    def test_quadratic_family(self, re_c, im_c, v):
        c = complex(re_c, im_c)
        try:
            orbit = iterate_orbit(MapSpec.unicritical(2, c), 0j, 300,
                                  escape_radius=default_escape_radius(2, c))
        except CriticalRelationError:
            assume(False)
        assert_same_series(orbit, v, orbit.truncated_at + 1)

    @pytest.mark.parametrize("v", FIELDS)
    def test_rational_map(self, v):
        m = MapSpec.rational(Polynomial((-2, 0, 1)), Polynomial((1, 0, 0.001)))
        assert_same_series(iterate_orbit(m, 0j, 3000), v, 3001)

    @pytest.mark.parametrize("v", FIELDS[:2])
    def test_chebyshev_cubic(self, v):
        m = MapSpec.polynomial(Polynomial((0, -3, 0, 4)))
        series = assert_same_series(iterate_orbit(m, 0.5, 2000), v, 2000)
        assert series.bounded_evidence == "unbounded"

    def test_escaping_orbit(self):
        orbit = iterate_orbit(MapSpec.unicritical(2, 1), 0j, 50, escape_radius=3.0)
        assert orbit.escaped_at == 3
        assert_same_series(orbit, FIELDS[1], 4)

    def test_near_relation_orbit(self):
        with pytest.warns(NearCriticalRelationWarning):
            orbit = iterate_orbit(MapSpec.unicritical(2, -1 + 1e-8), 0j, 64)
        assert_same_series(orbit, FIELDS[1], 65)

    def test_decoded_record_skips_eval_map(self):
        # DR comes from the points by one path, whatever built the record
        m = MapSpec.rational(Polynomial((-2, 0, 1)), Polynomial((1, 0, 0.001)))
        orbit = iterate_orbit(m, 0j, 500)
        decoded = decode(json_loads(json_dumps(encode(orbit))))
        assert decoded == orbit
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is eval_map.__code__:
                calls.append(frame.f_locals["z"])

        for v in FIELDS:
            sys.setprofile(profile)
            try:
                fresh, again = (obstruction_sequence(record, v, 501) for record in (orbit, decoded))
            finally:
                sys.setprofile(None)
            assert calls == []
            assert repr(again) == repr(fresh) == repr(reference_obstruction_sequence(orbit, v, 501))


# The list-based fit of one lane that obstruction.py ran before the growth
# fit became the one lane-block fit, kept verbatim as the reference it must
# match, with the two helpers it called.
_LN2 = math.log(2.0)


def reference_fit_moduli(start, moduli, exponents):
    samples = [
        (start + j, math.log(a) + e * _LN2) for j, (a, e) in enumerate(zip(moduli, exponents)) if a != 0.0
    ]
    if not samples:
        return -math.inf, "bounded"
    if len(samples) < 2:
        return 0.0, "inconclusive"
    offsets, sxx = reference_index_offsets([k for k, _ in samples])
    logs = [l for _, l in samples]
    mean_l = sum(logs) / len(logs)
    sxy = sum(x * (l - mean_l) for x, l in zip(offsets, logs))
    return reference_slope_verdict(sxy / sxx if sxx > 0 else 0.0)


def reference_index_offsets(ks):
    mean_k = sum(ks) / len(ks)
    offsets = [k - mean_k for k in ks]
    return offsets, sum(x**2 for x in offsets)


def reference_slope_verdict(slope):
    if slope > GROWTH_MARGIN:
        return slope, "unbounded"
    if slope < -GROWTH_MARGIN:
        return slope, "bounded"
    return slope, "inconclusive"


ZERO_PATTERNS = ["none", "all", "single", "leading", "trailing", "interior", "scattered"]


def fit_window(seed, rows, lanes):
    """A fit window of |mantissa| and exponent lanes (rows are steps) with
    growth rates around the verdict margin and base exponents up to
    +-1e6, each lane with one of ZERO_PATTERNS."""
    rng = np.random.default_rng(seed)
    moduli = rng.uniform(1.0, 2.0 * math.sqrt(2.0), (rows, lanes))
    steps = np.arange(rows)[:, None]
    rates = rng.choice([0.0, GROWTH_MARGIN, -GROWTH_MARGIN, 0.5, -0.5, 3.0], lanes) + rng.normal(0.0, 0.05, lanes)
    exponents = rng.integers(-10**6, 10**6, lanes) + np.floor(rates * steps / math.log(2.0)).astype(np.int64)
    exponents += rng.integers(-2, 3, (rows, lanes))
    for i in range(lanes):
        pattern = ZERO_PATTERNS[rng.integers(len(ZERO_PATTERNS))]
        cut = int(rng.integers(rows + 1))
        if pattern == "all":
            moduli[:, i] = 0.0
        elif pattern == "single":
            moduli[np.arange(rows) != rng.integers(rows), i] = 0.0
        elif pattern == "leading":
            moduli[:cut, i] = 0.0
        elif pattern == "trailing":
            moduli[cut:, i] = 0.0
        elif pattern == "interior":
            moduli[cut // 2 : cut, i] = 0.0
        elif pattern == "scattered":
            moduli[rng.random(rows) < 0.3, i] = 0.0
    exponents[moduli == 0.0] = 0  # XComplex zero
    return moduli, exponents


def fit_key(fit):
    exponent, evidence = fit
    return float.hex(exponent), evidence


class TestOneGrowthFit:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 600), st.integers(1, 40), st.integers(1, 10**6))
    def test_lanes_match_the_list_fit(self, seed, rows, lanes, start):
        moduli, exponents = fit_window(seed, rows, lanes)
        fits = _fit_lanes(start, moduli, exponents)
        assert len(fits) == lanes
        for i, fit in enumerate(fits):
            ref = reference_fit_moduli(start, moduli[:, i].tolist(), exponents[:, i].tolist())
            assert fit_key(fit) == fit_key(ref)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 1200))
    def test_series_fit_is_the_one_lane_fit(self, seed, n):
        start = _fit_start(n)
        moduli, exponents = fit_window(seed, n + 1 - start, 1)
        angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, len(moduli))
        window = [
            XComplex(complex(a * math.cos(t), a * math.sin(t)), e) if a else XComplex.zero()
            for a, t, e in zip(moduli[:, 0].tolist(), angles.tolist(), exponents[:, 0].tolist())
        ]
        b = [XComplex.zero()] * start + window
        ref = reference_fit_moduli(start, [abs(x.mantissa) for x in window], [x.exponent for x in window])
        assert fit_key(_fit_growth(b)) == fit_key(ref)

    @pytest.mark.parametrize("pattern,expected", [
        ([0.0, 0.0, 0.0], (-math.inf, "bounded")),
        ([0.0, 1.5, 0.0], (0.0, "inconclusive")),
        ([1.5], (0.0, "inconclusive")),
    ])
    def test_empty_and_single_entry_lanes(self, pattern, expected):
        moduli = np.array(pattern)[:, None]
        assert _fit_lanes(7, moduli, np.zeros_like(moduli, dtype=np.int64)) == [expected]


def test_obstruction_cli_output_pinned(capsysbinary):
    # sha256 of the output before the recurrence moved to raw parts
    # (CPython 3.11, x86-64 Linux); 4z^3 - 3z, 2000 terms
    args = ["obstruction", "--map", "rational:0,-3,0,4/1", "--field", "1", "--terms", "2000"]
    assert main(args) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert digest == "3777f1a96920bfb62926a7528053cfb898443036dfdd779e15f6dd18c72d54f7"


@pytest.mark.parametrize("args,expected", [
    (["--map", "unicritical:2,0+1i", "--terms", "10000"],
     "c4af97ac20565cccc5095502bba9ef724e3bdaeecb25e86fa51a636cbaa6670c"),
    (["--map", "rational:-2,0,1/1,0,0.001", "--terms", "20000"],
     "0abdefa0dbb6dc1a6b799b61399d4ddf15f4275cbeb9493fc30d4d49dce02977"),
    (["--map", "unicritical:2,-0.12+0.75i", "--terms", "5000"],
     "0d61a3583c7d36b23582a5d99c0ba3db35ac8830e1e02b4d21933cb6486442cd"),
], ids=["c=i", "rational", "rabbit"])
def test_long_series_cli_output_pinned(capsysbinary, args, expected):
    # sha256 of the output before b ran on raw mantissas (CPython 3.11,
    # x86-64 Linux).  All three cross run chunks; the last two run
    # on orbits that are not exact in binary.  At the rabbit b stays
    # bounded, so every step adds v and the raw term is rescaled 146 times.
    assert main(["obstruction", *args]) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == expected
