import dataclasses
import math
import warnings

import numpy as np
import pytest

import ratpert.scan as scan_module
from ratpert import (
    Polynomial,
    Rectangle,
    ScanConfig,
    ShapeError,
    VectorFieldSpec,
    growth_heatmap,
    render_escape,
    scan_parameters,
)
import ratpert.lanes as lanes_module
from ratpert.lanes import MIN_LANES, _classify_lanes, candidate_lanes
from ratpert.cli import main
from ratpert.maps import MapSpec, default_escape_radius
import ratpert.orbits as orbits_module
from ratpert.orbits import (
    NEAR_RELATION_TOL,
    NearCriticalRelationWarning,
    classify_parameter,
    iterate_orbit,
)
from ratpert.scan import _candidate_row
from ratpert.serialize import scan_rows_to_csv

ACCEPTANCE_PATH = (-2 + 0j, -1 + 0j, 0j, 1 + 0j)

# Near the centre of a period-10 component: at orbit length 16 the
# classifier cannot see the cycle, and the 10th iterate lies about 1e-7
# (NEAR_RELATION_C) or 1e-13 (RELATION_C) from the critical point.
NEAR_RELATION_C = -1.3731547774244246 + 0.08494748053200075j
RELATION_C = -1.3731547801760977 + 0.08494748359511935j

LANE_CASES = {
    # 1216 escaping, 254 attracting and 130 candidate points
    "grid-40x40": ScanConfig(
        d=2, region=Rectangle(-2.0, 0.5, -1.25, 1.25), resolution=(40, 40),
        orbit_length=256,
    ),
    "boundary": ScanConfig(
        d=2, region=Rectangle(-1.05, -0.95, 0.18, 0.28), resolution=(16, 16),
        orbit_length=256, field=VectorFieldSpec.from_coefficients([1, 0.3]),
    ),
    "cubic-grid": ScanConfig(
        d=3, region=Rectangle(-0.2, 0.8, 0.2, 1.2), resolution=(16, 16),
        orbit_length=128, field=VectorFieldSpec.from_coefficients([0.5j, -0.25, 1e-3]),
    ),
    "summable-path": ScanConfig(
        d=2, path=(1j, -2 + 0j, -1j, -0.75 + 0j), orbit_length=256,
    ),
    "superattracting-path": ScanConfig(
        d=2, path=(-1 + 0j, 0.25 + 0j, -1 + 1e-3j, 0.3 + 0.5j), orbit_length=64,
        field=VectorFieldSpec.from_coefficients([0, 1]),
    ),
    "relation-path": ScanConfig(
        d=2, path=(NEAR_RELATION_C, 1j, RELATION_C), orbit_length=16,
    ),
}


# v = 1/(z+3), (z^2+0.5)/(z^3+2) and (1+2z)/(z^2+0.25)
RATIONAL_FIELDS = [
    VectorFieldSpec.rational(Polynomial((1,)), Polynomial((3, 1))),
    VectorFieldSpec.rational(Polynomial((0.5, 0, 1)), Polynomial((2, 0, 0, 1))),
    VectorFieldSpec.rational(Polynomial((1, 2)), Polynomial((0.25, 0, 1))),
]

RATIONAL_FIELD_SCANS = [
    LANE_CASES["boundary"],
    ScanConfig(d=2, region=Rectangle(-2.0, 0.5, -1.2, 1.2), resolution=(24, 24)),
    ScanConfig(d=3, region=Rectangle(-1.0, 1.0, -1.0, 1.0), resolution=(20, 20)),
]


def _csv(config):
    return scan_rows_to_csv(scan_parameters(config))


def _lane_csv(config, monkeypatch):
    """The scan with every chunk's candidates run as lanes, however few."""
    with monkeypatch.context() as patch:
        patch.setattr(scan_module, "MIN_LANES", 1)
        return _csv(config)


def _per_point_classes(cs, radii, d, n_max):
    return [classify_parameter(c, d, n_max=n_max, escape_radius=r) for c, r in zip(cs, radii)]


def _per_point_csv(config, monkeypatch):
    """The scan with every point classified by classify_parameter and every
    candidate sent through the per-point chain."""
    with monkeypatch.context() as patch:
        patch.setattr(scan_module, "_classify_lanes", _per_point_classes)
        patch.setattr(scan_module, "candidate_lanes", lambda cs, *args: [None] * len(cs))
        return _csv(config)


class TestConfig:
    def test_zero_resolution_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(d=2, region=Rectangle(0, 1, 0, 1), resolution=(0, 4))

    def test_both_region_and_path_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(
                d=2,
                region=Rectangle(0, 1, 0, 1),
                resolution=(2, 2),
                path=(0j,),
            )

    def test_short_orbit_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(d=2, path=(0j,), orbit_length=8)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
    def test_escape_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="escape_radius"):
            ScanConfig(d=2, path=(0j,), escape_radius=radius)

    @pytest.mark.parametrize("point", [1.7e308 + 1.7e308j, complex(math.nan, 0), complex(0, math.inf)])
    def test_path_modulus_must_be_finite(self, point):
        # abs(c) in default_escape_radius overflows, and a nan or inf c
        # would read as escaping
        with pytest.raises(ValueError, match="modulus is not finite"):
            ScanConfig(path=(0.3, point), orbit_length=16)

    def test_grid_points_row_major_pixel_centers(self):
        config = ScanConfig(
            d=2, region=Rectangle(0, 1, 0, 2), resolution=(2, 2), orbit_length=16
        )
        assert config.points() == (
            complex(0.25, 0.5),
            complex(0.75, 0.5),
            complex(0.25, 1.5),
            complex(0.75, 1.5),
        )

    @pytest.mark.parametrize("bounds", [
        (1e308, 1.7e308, 1e308, 1.7e308),
        (-1.7e308, 0.0, -1.7e308, 0.0),
        (0.0, math.inf, 0.0, 1.0),
        (math.nan, 0.0, 0.0, 1.0),
    ])
    def test_rectangle_modulus_must_be_finite(self, bounds):
        # abs() of a point inside would overflow
        with pytest.raises(ValueError, match="finite|overflows"):
            Rectangle(*bounds)

    @pytest.mark.parametrize("bounds,resolution", [
        ((-2.2, 0.8, -1.2, 1.2), (7, 5)),
        ((-0.0, 0.0, -0.0, 0.0), (3, 2)),
        ((-1e-310, 3e-310, -0.0, 1e-300), (4, 3)),
        ((-1e300, 1e300, 5e299, 1e300), (5, 6)),
        ((-0.75, -0.75, -1.0, 1.0), (3, 4)),
    ])
    def test_scan_points_are_the_render_pixels(self, bounds, resolution, monkeypatch):
        # both read Rectangle's one grid: the centres of the old per-point
        # loop, bit for bit (a -0.0 would show in the repr)
        re_min, re_max, im_min, im_max = bounds
        nx, ny = resolution
        dx, dy = (re_max - re_min) / nx, (im_max - im_min) / ny
        loop = [complex(re_min + (ix + 0.5) * dx, im_min + (iy + 0.5) * dy)
                for iy in range(ny) for ix in range(nx)]
        config = ScanConfig(d=2, region=Rectangle(*bounds), resolution=resolution)
        seen = []
        monkeypatch.setattr(scan_module, "_escape_counts",
                            lambda z, c, *args: seen.append(c) or np.zeros(c.size, np.int32))
        render_escape(config, 4)
        assert repr(config.points()) == repr(tuple(loop)) == repr(tuple(seen[0].tolist()))


class TestScanRows:
    def test_real_path_classes(self):
        rows = scan_parameters(ScanConfig(d=2, path=ACCEPTANCE_PATH, orbit_length=256))
        kinds = [(r.kind, r.period) for r in rows]
        assert kinds == [
            ("candidate", None),
            ("attracting", 2),
            ("attracting", 1),
            ("escaping", None),
        ]
        chebyshev = rows[0]
        assert chebyshev.summability == "summable-evidence"
        assert abs(chebyshev.growth_exponent - math.log(4)) < 0.02
        assert abs(chebyshev.mu_constant - 2 / 3) < 1e-10

    def test_worker_counts_byte_identical(self):
        base = ScanConfig(d=2, path=ACCEPTANCE_PATH, orbit_length=128)
        wide = ScanConfig(
            d=2, path=ACCEPTANCE_PATH, orbit_length=128, worker_count=4
        )
        assert scan_rows_to_csv(scan_parameters(base)) == scan_rows_to_csv(
            scan_parameters(wide)
        )

    def test_monotone_refinement_keeps_decided_rows(self):
        path = (-1 + 0j, 0.2 + 0j, 1j, 1 + 1j)
        short = scan_parameters(ScanConfig(d=2, path=path, orbit_length=64))
        long = scan_parameters(ScanConfig(d=2, path=path, orbit_length=128))
        for a, b in zip(short, long):
            if a.kind in ("attracting", "escaping"):
                assert (a.kind, a.period) == (b.kind, b.period)

    def test_conjugate_parameters_same_growth(self):
        rows = scan_parameters(ScanConfig(d=2, path=(1j, -1j), orbit_length=200))
        a, b = rows
        assert a.kind == b.kind == "candidate"
        assert a.growth_exponent is not None
        assert abs(a.growth_exponent - b.growth_exponent) <= 1e-9

    def test_grid_with_superattracting_center_never_raises(self):
        # a grid straddling c = -1 (superattracting 2-cycle): per-row
        # failures must land in flags, never abort the sweep
        rows = scan_parameters(
            ScanConfig(
                d=2,
                region=Rectangle(-1.1, -0.9, -0.1, 0.1),
                resolution=(3, 3),
                orbit_length=64,
            )
        )
        assert len(rows) == 9
        assert {r.kind for r in rows} <= {"attracting", "escaping", "candidate"}

    def test_degree_three_scan(self):
        rows = scan_parameters(ScanConfig(d=3, path=(0j, 2 + 2j), orbit_length=64))
        assert rows[0].kind == "attracting"
        assert rows[1].kind == "escaping"


class TestLanePath:
    @pytest.mark.filterwarnings("ignore::ratpert.orbits.NearCriticalRelationWarning")
    @pytest.mark.parametrize("name", sorted(LANE_CASES))
    def test_csv_identical_to_per_point_chain(self, name, monkeypatch):
        config = LANE_CASES[name]
        expected = _per_point_csv(config, monkeypatch)
        assert _lane_csv(config, monkeypatch) == expected
        assert _csv(config) == expected

    def test_csv_identical_across_worker_counts(self, monkeypatch):
        config = LANE_CASES["boundary"]
        expected = _csv(config)
        monkeypatch.setattr(scan_module, "MIN_POOL_STEPS", 0)  # a pool however small
        for workers in (2, 3):
            assert _csv(dataclasses.replace(config, worker_count=workers)) == expected

    def test_boundary_candidates_stay_in_the_batch(self, monkeypatch):
        calls, classified = [], []

        def spy(cs, *args):
            results = candidate_lanes(cs, *args)
            calls.append(results)
            return results

        def classify_spy(cs, *args):
            results = _classify_lanes(cs, *args)
            classified.append(results)
            return results

        monkeypatch.setattr(scan_module, "candidate_lanes", spy)
        monkeypatch.setattr(scan_module, "_classify_lanes", classify_spy)
        monkeypatch.setattr(scan_module, "classify_parameter", None)  # never per point
        rows = scan_parameters(LANE_CASES["boundary"])
        (results,) = calls
        assert len(results) == sum(r.kind == "candidate" for r in rows) > 150
        assert all(r is not None for r in results)
        (classes,) = classified
        assert [(x.kind, x.period) for x in classes] == [
            ("undecided" if r.kind == "candidate" else r.kind, r.period) for r in rows
        ]

    def test_few_candidates_skip_the_lanes(self, monkeypatch):
        calls, classified = [], []
        monkeypatch.setattr(
            scan_module, "candidate_lanes", lambda cs, *args: calls.append(cs) or [None] * len(cs)
        )
        monkeypatch.setattr(
            scan_module, "_classify_lanes",
            lambda cs, *args: classified.append(cs) or _per_point_classes(cs, *args),
        )
        scan_parameters(LANE_CASES["summable-path"])  # 4 points, 4 candidates
        assert calls == [] and classified == []
        scan_parameters(LANE_CASES["boundary"])
        assert len(calls) == 1 and len(calls[0]) >= MIN_LANES
        assert len(classified) == 1 and len(classified[0]) == 256

    def test_equal_blocks_give_the_same_lanes(self, monkeypatch):
        config = LANE_CASES["boundary"]
        cs = [r.c for r in scan_parameters(config) if r.kind == "candidate"][:45]
        args = ([3.0] * len(cs), 2, 256, config.field)
        whole = candidate_lanes(cs, *args)
        sizes = []
        run_block = lanes_module._run_block
        monkeypatch.setattr(lanes_module, "BLOCK_ENTRIES", 1)
        monkeypatch.setattr(
            lanes_module, "_run_block", lambda cs, *a: sizes.append(len(cs)) or run_block(cs, *a)
        )
        assert repr(candidate_lanes(cs, *args)) == repr(whole)
        assert sizes == [22, 23]  # 45 // MIN_LANES equal blocks

    def test_radius_tie_is_exact(self):
        # a candidate whose farthest orbit point lies exactly on the radius
        # does not escape, in either path; one ulp inside it escapes
        c, field = -0.95 + 0.25j, VectorFieldSpec.constant(1.0)
        points = iterate_orbit(MapSpec.unicritical(2, c), 0j, 64, escape_radius=10.0).points
        radius = max(abs(z) for z in points)
        (lane,) = candidate_lanes([c], [radius], 2, 64, field)
        row = _candidate_row(c, 2, 64, field, radius)
        assert lane is not None
        assert (row.summability, row.growth_exponent, row.flags) == (
            lane[0], lane[1], (f"obstruction={lane[2]}",)
        )
        inside = math.nextafter(radius, 0.0)
        assert iterate_orbit(MapSpec.unicritical(2, c), 0j, 64, inside).escaped_at is not None
        assert candidate_lanes([c], [inside], 2, 64, field) == [None]

    def test_relation_tie_is_exact(self):
        # z_1 = c lies exactly NEAR_RELATION_TOL from the critical point 0:
        # no warning and the lane stays; one ulp closer warns and leaves
        field = VectorFieldSpec.constant(1.0)
        c = complex(NEAR_RELATION_TOL, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = _candidate_row(c, 2, 32, field, 3.0)
        (lane,) = candidate_lanes([c], [3.0], 2, 32, field)
        assert lane is not None
        assert repr((row.summability, row.growth_exponent, row.flags)) == repr(
            (lane[0], lane[1], (f"obstruction={lane[2]}",))
        )
        closer = complex(math.nextafter(NEAR_RELATION_TOL, 0.0), 0.0)
        with pytest.warns(NearCriticalRelationWarning):
            _candidate_row(closer, 2, 32, field, 3.0)
        assert candidate_lanes([closer], [3.0], 2, 32, field) == [None]

    def test_leaving_lanes(self):
        # c = -2 shows summable evidence (mu is needed); the relation lanes
        # carry a warning or a flag; 1j stays
        radii = [3.0] * 4
        results = candidate_lanes(
            [-2 + 0j, NEAR_RELATION_C, RELATION_C, 1j], radii, 2, 16,
            VectorFieldSpec.constant(1.0),
        )
        assert results[:3] == [None, None, None]
        assert results[3] is not None
        # a rational field stays in the batch, unless it has a pole on the
        # orbit: 1/z at the critical point 0
        rational = VectorFieldSpec.rational(Polynomial((1,)), Polynomial((5, 1)))
        assert candidate_lanes([1j], [3.0], 2, 16, rational) != [None]
        pole = VectorFieldSpec.rational(Polynomial((1,)), Polynomial((0, 1)))
        assert candidate_lanes([1j], [3.0], 2, 16, pole) == [None]

    @pytest.mark.parametrize("field", RATIONAL_FIELDS)
    @pytest.mark.parametrize("config", RATIONAL_FIELD_SCANS)
    def test_rational_fields_match_the_per_point_chain(self, config, field, monkeypatch):
        config = dataclasses.replace(config, field=field)
        expected = _per_point_csv(config, monkeypatch)
        assert _lane_csv(config, monkeypatch) == expected
        assert _csv(config) == expected

    def test_field_pole_on_the_orbit_flags_every_candidate(self):
        # v = 1/z has its pole at the critical point 0, where every orbit starts
        pole = VectorFieldSpec.rational(Polynomial((1,)), Polynomial((0, 1)))
        rows = scan_parameters(dataclasses.replace(LANE_CASES["boundary"], field=pole))
        candidates = [r for r in rows if r.kind == "candidate"]
        assert len(candidates) > MIN_LANES
        for row in candidates:
            assert row.growth_exponent is None
            assert "obstruction-error:v is not finite at orbit index 0" in row.flags

    def test_summable_row_gets_mu(self):
        rows = scan_parameters(LANE_CASES["summable-path"])
        assert rows[1].summability == "summable-evidence"
        assert abs(rows[1].mu_constant - 2 / 3) < 1e-10

    def test_relation_rows_warn_and_flag(self, monkeypatch):
        config = LANE_CASES["relation-path"]
        for run in (
            lambda c: _lane_csv(c, monkeypatch), lambda c: _per_point_csv(c, monkeypatch)
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                text = run(config)
            assert [w.category for w in caught] == [NearCriticalRelationWarning]
            assert "critical-relation@10" in text.splitlines()[3]


def _classes_both_ways(cs, radii, d, n_max):
    """repr of the lane classes and of classify_parameter's, point by point."""
    return repr(_classify_lanes(list(cs), list(radii), d, n_max)), repr(
        _per_point_classes(cs, radii, d, n_max)
    )


class TestLockstepClassification:
    @pytest.mark.parametrize("name", ["grid-40x40", "cubic-grid", "boundary"])
    def test_grids_match_classify_parameter(self, name):
        config = LANE_CASES[name]
        cs = config.points()
        radii = [default_escape_radius(config.d, c) for c in cs]
        lanes, scalar = _classes_both_ways(cs, radii, config.d, config.orbit_length)
        assert lanes == scalar

    @pytest.mark.parametrize("d", [2, 3])
    def test_signed_zero_parameters(self, d):
        # the orbits differ from Horner's only in the signs of zeros
        cs = [complex(-1.0, -0.0), complex(-0.0, 0.5), complex(-0.0, -0.0), complex(0.25, -0.0),
              complex(-2.0, 0.0), complex(-0.0, 1.0)] * 2
        radii = [default_escape_radius(d, c) for c in cs]
        lanes, scalar = _classes_both_ways(cs, radii, d, 128)
        assert lanes == scalar

    def test_radius_tie_on_a_classification_step(self):
        # the radius equal to |z_k| does not escape at step k; one ulp less does
        c, d = 0.3 + 0.55j, 2
        z, sizes = 0j, []
        for _ in range(6):
            z = orbits_module._unicritical_step(z, c, d)
            sizes.append(abs(z))
        radius = max(sizes)
        step = sizes.index(radius) + 1
        inside = math.nextafter(radius, 0.0)
        cs, radii = [c, c, 0.5j, 0.5j], [radius, inside, radius, inside]
        lanes, scalar = _classes_both_ways(cs, radii, d, 64)
        assert lanes == scalar
        assert classify_parameter(c, d, 64, escape_radius=inside).iterations_used == step
        assert classify_parameter(c, d, 64, escape_radius=radius).iterations_used > step

    def test_failed_refinements_and_the_attempt_cap(self, monkeypatch):
        # every refinement fails, so the orbits that meet a cycle within the
        # budget (c = -2, i, -1, 0.1) stay undecided after exactly 4 attempts;
        # 2 escapes first and the parabolic -0.75 makes no coincidence
        cs = [-2 + 0j, 1j, -1 + 0j, 0.1 + 0j, 2 + 0j, -0.75 + 0j] * 2
        radii = [default_escape_radius(2, c) for c in cs]
        calls = []

        def failing(c, d, z, m):
            calls.append((c, z, m))
            return None

        monkeypatch.setattr(orbits_module, "_refine_coincidence", failing)
        scalar = repr(_per_point_classes(cs, radii, 2, 256))
        scalar_calls, calls[:] = sorted(map(repr, calls)), []
        monkeypatch.setattr(lanes_module, "_refine_coincidence", failing)
        lanes = repr(_classify_lanes(cs, radii, 2, 256))
        assert lanes == scalar
        assert sorted(map(repr, calls)) == scalar_calls
        # 4 each, as cs holds every point twice
        assert [sum(c == x for x, _, _ in calls) for c in cs[:6]] == [8, 8, 8, 8, 0, 0]
        assert lanes.count("undecided") == 10

    def test_failed_refinements_keep_the_scalar_verdicts(self):
        # c = -2, i and -2 + 1e-15i use up their 4 attempts on repelling
        # cycles (the last then escapes); -1 is accepted at its first
        cs = [-2 + 0j, 1j, -2 + 1e-15j, -1 + 0j, -0.1 + 0.65j, 0.26 + 0j, -1.75 + 0j] * 2
        radii = [default_escape_radius(2, c) for c in cs]
        lanes, scalar = _classes_both_ways(cs, radii, 2, 512)
        assert lanes == scalar

    @pytest.mark.filterwarnings("error")
    def test_overflow_escapes_without_warnings(self):
        # at radius 1e300 the orbit of z**4 + c overflows to nan before it
        # passes the radius; that is an escape in both paths
        cs = [1.875 + 1.875j, -1.875 - 1.875j, 0.125 + 0.125j, 1e-3 + 0j] * 3
        radii = [1e300] * len(cs)
        lanes, scalar = _classes_both_ways(cs, radii, 4, 256)
        assert lanes == scalar
        assert lanes.count("escaping") == 6

    @pytest.mark.filterwarnings("error")
    def test_overflow_rows_escape_in_the_scan(self, monkeypatch):
        # 154 of these rows were candidates flagged "orbit-error:orbit
        # overflowed ..." while classification let nan pass as bounded
        config = ScanConfig(d=4, region=Rectangle(-2, 2, -2, 2), resolution=(16, 16),
                            escape_radius=1e300)
        text = _csv(config)
        assert text == _per_point_csv(config, monkeypatch)
        assert "orbit-error" not in text
        rows = scan_parameters(config)
        assert rows[0].c == -1.875 - 1.875j and rows[0].kind == "escaping"
        assert [sum(r.kind == k for r in rows) for k in ("escaping", "attracting", "candidate")] == [
            224, 24, 8]


class TestSegments:
    @pytest.mark.parametrize("orbit_length", [64, 256, 1024])
    def test_segment_sizes_give_the_same_lanes(self, orbit_length, monkeypatch):
        config = LANE_CASES["boundary"]
        cs = [r.c for r in scan_parameters(config) if r.kind == "candidate"][:24]
        args = ([3.0] * len(cs), 2, orbit_length, config.field)
        whole = repr(candidate_lanes(cs, *args))
        segments = []
        run_block = lanes_module._run_block
        monkeypatch.setattr(
            lanes_module, "_run_block",
            lambda cs, *a: segments.append(a[-1]) or run_block(cs, *a),
        )
        for steps in (1, 7, orbit_length + 5):
            monkeypatch.setattr(lanes_module, "SEGMENT_ENTRIES", steps * len(cs))
            assert repr(candidate_lanes(cs, *args)) == whole
        assert segments == [1, 7, orbit_length + 5]
        rows = [_candidate_row(c, 2, orbit_length, config.field, 3.0) for c in cs]
        assert whole == repr([(r.summability, r.growth_exponent, r.flags[0][len("obstruction="):])
                              for r in rows])


class TestWorkerPool:
    def test_small_scans_run_in_process(self, monkeypatch):
        config = LANE_CASES["boundary"]
        assert 256 * config.orbit_length < scan_module.MIN_POOL_STEPS
        expected = _csv(config)

        def no_pool(*args, **kwargs):
            raise AssertionError("a small scan started a process pool")

        monkeypatch.setattr(scan_module, "ProcessPoolExecutor", no_pool)
        for workers in (2, 4):
            assert _csv(dataclasses.replace(config, worker_count=workers)) == expected

    def test_large_scans_use_the_pool(self, monkeypatch):
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(scan_module, "ProcessPoolExecutor", Pool)
        config = ScanConfig(d=2, region=Rectangle(3, 4, 0, 1), resolution=(25, 25),
                            orbit_length=160, worker_count=2)
        assert 25 * 25 * 160 == scan_module.MIN_POOL_STEPS
        rows = scan_parameters(config)
        assert started == [2]
        assert rows == scan_parameters(dataclasses.replace(config, worker_count=1))


class TestHeatmap:
    def test_all_escaping_region(self):
        config = ScanConfig(
            d=2, region=Rectangle(3, 4, 0, 1), resolution=(4, 3), orbit_length=32
        )
        rows = scan_parameters(config)
        grid = growth_heatmap(rows, config)
        assert grid.values.shape == (3, 4)
        assert (grid.kinds == 2).all()
        assert (grid.values == -1.0).all()

    def test_path_rows_raise_shape_error(self):
        config = ScanConfig(d=2, path=ACCEPTANCE_PATH, orbit_length=32)
        rows = scan_parameters(config)
        with pytest.raises(ShapeError):
            growth_heatmap(rows, config)

    def test_row_count_mismatch(self):
        config = ScanConfig(
            d=2, region=Rectangle(3, 4, 0, 1), resolution=(4, 3), orbit_length=32
        )
        rows = scan_parameters(config)
        with pytest.raises(ShapeError):
            growth_heatmap(rows[:-1], config)

    def test_chebyshev_cell_value(self):
        # pixel center exactly at c = -2
        config = ScanConfig(
            d=2,
            region=Rectangle(-2.5, -1.5, -0.5, 0.5),
            resolution=(1, 1),
            orbit_length=256,
        )
        rows = scan_parameters(config)
        assert rows[0].c == -2
        grid = growth_heatmap(rows, config)
        assert grid.kinds[0, 0] == 0
        assert abs(grid.values[0, 0] - math.log(4)) < 0.05

    def test_attracting_sentinel(self):
        config = ScanConfig(
            d=2,
            region=Rectangle(-0.1, 0.1, -0.1, 0.1),
            resolution=(1, 1),
            orbit_length=32,
        )
        rows = scan_parameters(config)
        grid = growth_heatmap(rows, config)
        assert grid.kinds[0, 0] == 1
        assert grid.values[0, 0] == 0.0


class TestRenderEscape:
    def test_never_escaping_pixel(self):
        config = ScanConfig(
            d=2, region=Rectangle(-0.5, 0.5, -0.5, 0.5), resolution=(1, 1),
        )
        counts = render_escape(config, max_iter=64)
        assert counts[0, 0] == 64

    def test_escape_count_matches_hand_iteration(self):
        # c = 1 with radius 10: orbit 0, 1, 2, 5, 26 crosses at step 4
        config = ScanConfig(
            d=2,
            region=Rectangle(0.5, 1.5, -0.5, 0.5),
            resolution=(1, 1),
            escape_radius=10.0,
        )
        counts = render_escape(config, max_iter=64)
        assert counts[0, 0] == 4

    def test_degree_three_superattracting(self):
        config = ScanConfig(
            d=3, region=Rectangle(-0.5, 0.5, -0.5, 0.5), resolution=(1, 1),
        )
        assert render_escape(config, max_iter=32)[0, 0] == 32

    def test_dynamical_plane(self):
        # fixed c = 0: the unit disk never escapes, outside does
        config = ScanConfig(
            d=2, region=Rectangle(-2, 2, -2, 2), resolution=(8, 8),
        )
        counts = render_escape(config, max_iter=50, julia_c=0j)
        assert counts.dtype == np.int32
        # center pixels inside the unit circle
        assert counts[4, 4] == 50
        assert counts[0, 0] < 50

    def test_corner_scale_that_overflows(self):
        # max|re| + max|im| is inf here, which made the default radius inf and
        # every count 4 (the step whose iterate is nan).  The far corner's
        # modulus gives radius |c| + 1, which z_1 = c stays within and z_2
        # leaves.
        c = 1.2e308 + 1.2e308j
        config = ScanConfig(d=2, region=Rectangle(c.real, c.real, c.imag, c.imag), resolution=(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = render_escape(config, max_iter=256)
        assert counts.tolist() == [[2, 2], [2, 2]]
        radius = default_escape_radius(2, abs(c))
        assert (counts.ravel() == scan_module._escape_counts(np.zeros(4, complex), np.full(4, c), radius, 256, 2)).all()

    @pytest.mark.parametrize("julia_c", [1.7e308 + 1.7e308j, complex(math.nan, 0), complex(math.inf, 1)])
    def test_julia_parameter_modulus_must_be_finite(self, julia_c):
        # the default radius reads abs(julia_c), and a nan julia_c would
        # count every pixel as escaped at step 1
        config = ScanConfig(d=2, region=Rectangle(-2, 2, -2, 2), resolution=(4, 4))
        with pytest.raises(ValueError, match="modulus is not finite"):
            render_escape(config, 8, julia_c=julia_c)

    def test_deterministic(self):
        config = ScanConfig(
            d=2, region=Rectangle(-2.2, 0.8, -1.2, 1.2), resolution=(16, 12),
        )
        a = render_escape(config, max_iter=40)
        b = render_escape(config, max_iter=40)
        assert (a == b).all()


def _mask_loop_render(config, max_iter, julia_c=None):
    """render_escape as the plain whole-grid mask loop: the reference the
    blocked loop must match byte for byte wherever no iterate overflows."""
    nx, ny = config.resolution
    r = config.region
    dx = (r.re_max - r.re_min) / nx
    dy = (r.im_max - r.im_min) / ny
    xs = r.re_min + (np.arange(nx) + 0.5) * dx
    ys = r.im_min + (np.arange(ny) + 0.5) * dy
    pixels = xs[None, :] + 1j * ys[:, None]

    if julia_c is None:
        c = pixels
        z = np.zeros_like(pixels)
        corner_scale = max(abs(r.re_min), abs(r.re_max)) + max(
            abs(r.im_min), abs(r.im_max)
        )
        radius = (
            config.escape_radius
            if config.escape_radius is not None
            else max(2.0, corner_scale ** (1.0 / (config.d - 1))) + 1.0
        )
    else:
        c = np.full_like(pixels, complex(julia_c))
        z = pixels.copy()
        radius = (
            config.escape_radius
            if config.escape_radius is not None
            else default_escape_radius(config.d, julia_c)
        )

    counts = np.full(pixels.shape, max_iter, dtype=np.int32)
    alive = np.ones(pixels.shape, dtype=bool)
    for k in range(1, max_iter + 1):
        z_alive = z[alive]
        w = z_alive.copy()
        for _ in range(config.d - 1):
            w = w * z_alive
        z[alive] = w + c[alive]
        escaped = alive & (np.abs(z) > radius)
        counts[escaped] = k
        alive &= ~escaped
        if not alive.any():
            break
    return counts


WIDE = Rectangle(-2.0, 2.0, -2.0, 2.0)
# (config, max_iter, julia_c)
RENDER_CASES = {
    # 20,000 pixels: one whole block and a partial one
    "200x100": (ScanConfig(d=2, region=Rectangle(-2.2, 0.8, -1.2, 1.2), resolution=(200, 100)), 128, None),
    "200x100-julia": (ScanConfig(d=2, region=WIDE, resolution=(200, 100)), 128, -0.75 + 0.1j),
    "1x1": (ScanConfig(d=2, region=Rectangle(-1.0, -0.5, 0.0, 0.5), resolution=(1, 1)), 64, None),
    "degenerate-region": (ScanConfig(d=2, region=Rectangle(-0.75, -0.75, -1.0, 1.0), resolution=(3, 40)), 64, None),
    "max-iter-1": (ScanConfig(d=2, region=WIDE, resolution=(30, 20)), 1, None),
    "max-iter-1-julia": (ScanConfig(d=3, region=WIDE, resolution=(30, 20)), 1, 0.5j),
    # every pixel escapes within a few steps: the loop stops early
    "all-escape": (ScanConfig(d=2, region=Rectangle(3.0, 5.0, 3.0, 5.0), resolution=(40, 30)), 256, None),
    "all-escape-julia": (ScanConfig(d=2, region=Rectangle(3.0, 5.0, 3.0, 5.0), resolution=(40, 30)), 256, 1 + 1j),
    # the scan-boundary benchmark region and Julia parameter at seed 1
    "scan-boundary-1": (
        ScanConfig(d=2, region=Rectangle(-1.0492002637577773, -0.9492002637577771,
                                         0.1828361991458621, 0.2828361991458621),
                   resolution=(256, 256)),
        256, None),
    "scan-boundary-1-julia": (
        ScanConfig(d=2, region=Rectangle(-1.0492002637577773, -0.9492002637577771,
                                         0.1828361991458621, 0.2828361991458621),
                   resolution=(256, 256)),
        256, -0.9992002637577773 + 0.23283619914586212j),
}
# radius 0.9 does not trap here: orbits leave the disk and come back
# (0, -1, 0, ...), so a pixel that failed one test may pass the next
RENDER_CASES["radius-0.9"] = (
    ScanConfig(d=2, region=Rectangle(-1.2, -0.8, -0.2, 0.2), resolution=(40, 40), escape_radius=0.9), 64, None)
# 100 is no multiple of the escape window: escapes at every step offset of
# a window, and in the last, short window
for _name, _julia_c in (("max-iter-100", None), ("max-iter-100-julia", -0.75 + 0.1j)):
    RENDER_CASES[_name] = (ScanConfig(d=2, region=Rectangle(-2.2, 0.8, -1.2, 1.2), resolution=(120, 80)), 100, _julia_c)
# radius**(d - 1) overflows in the trapping test; no iterate overflows to nan
RENDER_CASES["d1024"] = (ScanConfig(d=1024, region=Rectangle(-0.9, 1.5, -0.9, 0.9), resolution=(90, 70)), 64, None)
RENDER_CASES["d1024-julia-1e308"] = (ScanConfig(d=1024, region=Rectangle(-1.0, 1.0, -1.0, 1.0), resolution=(40, 40)), 64, 1e308)
for _d in (2, 3, 5):
    for _radius in (None, 7.5):
        _config = ScanConfig(d=_d, region=WIDE, resolution=(90, 70), escape_radius=_radius)
        RENDER_CASES[f"d{_d}-r{_radius}"] = (_config, 96, None)
        RENDER_CASES[f"d{_d}-r{_radius}-julia"] = (_config, 96, 0.3 - 0.55j)


@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_render_matches_mask_loop_byte_for_byte(case):
    config, max_iter, julia_c = RENDER_CASES[case]
    counts = render_escape(config, max_iter, julia_c=julia_c)
    expected = _mask_loop_render(config, max_iter, julia_c=julia_c)
    assert counts.dtype == np.int32 and counts.shape == expected.shape
    assert counts.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["max-iter-100", "max-iter-100-julia"])
def test_off_window_cases_escape_at_every_window_offset(case):
    config, max_iter, julia_c = RENDER_CASES[case]
    assert max_iter % scan_module.ESCAPE_WINDOW
    counts = render_escape(config, max_iter, julia_c=julia_c)
    escaped = counts[counts < max_iter]
    assert set(((escaped - 1) % scan_module.ESCAPE_WINDOW).tolist()) == set(range(scan_module.ESCAPE_WINDOW))
    assert escaped.max() > max_iter - max_iter % scan_module.ESCAPE_WINDOW


@pytest.mark.parametrize("case", ["d1024", "d1024-julia-1e308"])
def test_degree_1024_render_warns_nothing(case):
    config, max_iter, julia_c = RENDER_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        render_escape(config, max_iter, julia_c=julia_c)


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("julia_c", [None, 0.3 + 0.5j])
def test_overflow_counts_as_escape(d, julia_c):
    # an orbit that stays inside the default radius stays inside any larger
    # one, so its pixels are the only ones that may never escape at 1e300:
    # orbits that overflow to nan on the way count as escaped
    def never_escaping(radius):
        config = ScanConfig(d=d, region=WIDE, resolution=(64, 64), escape_radius=radius)
        return render_escape(config, 256, julia_c=julia_c) == 256

    at_default, at_large = never_escaping(None), never_escaping(1e300)
    assert not (at_large & ~at_default).any()


def test_overflowing_orbit_escapes():
    # c = -0.28125-1.90625i under z**4 + c reaches 7.9e298, then nan
    config = ScanConfig(d=4, region=WIDE, resolution=(64, 64), escape_radius=1e300)
    assert render_escape(config, 256)[1, 27] == 7


def test_render_leaks_no_overflow_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["render", "--region=-2:2:-2:2", "--resolution", "4,4",
                     "--escape-radius", "1e200", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().err == ""
