import math

import pytest

from ratpert import (
    CriticalRelationError,
    InvalidOrbitError,
    MapSpec,
    OrbitRecord,
    Polynomial,
    XComplex,
    classify_parameter,
    eval_map,
    iterate_orbit,
    julia_sample,
    mantissa_ulp_gap,
    summability_report,
)


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

    def test_outside_disk_escapes(self):
        import random

        rng = random.Random(3)
        for _ in range(25):
            angle = rng.uniform(0, 2 * math.pi)
            radius = rng.uniform(2.0001, 5)
            c = radius * complex(math.cos(angle), math.sin(angle))
            assert classify_parameter(c, 2).kind == "escaping"


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
