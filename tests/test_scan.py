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
from ratpert.lanes import MIN_LANES, candidate_lanes
from ratpert.maps import MapSpec
from ratpert.orbits import NEAR_RELATION_TOL, NearCriticalRelationWarning, iterate_orbit
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


def _csv(config):
    return scan_rows_to_csv(scan_parameters(config))


def _lane_csv(config, monkeypatch):
    """The scan with every chunk's candidates run as lanes, however few."""
    with monkeypatch.context() as patch:
        patch.setattr(scan_module, "MIN_LANES", 1)
        return _csv(config)


def _per_point_csv(config, monkeypatch):
    """The scan with every candidate sent through the per-point chain."""
    with monkeypatch.context() as patch:
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

    def test_csv_identical_across_worker_counts(self):
        config = LANE_CASES["boundary"]
        expected = _csv(config)
        for workers in (2, 3):
            assert _csv(dataclasses.replace(config, worker_count=workers)) == expected

    def test_boundary_candidates_stay_in_the_batch(self, monkeypatch):
        calls = []

        def spy(cs, *args):
            results = candidate_lanes(cs, *args)
            calls.append(results)
            return results

        monkeypatch.setattr(scan_module, "candidate_lanes", spy)
        rows = scan_parameters(LANE_CASES["boundary"])
        (results,) = calls
        assert len(results) == sum(r.kind == "candidate" for r in rows) > 150
        assert all(r is not None for r in results)

    def test_few_candidates_skip_the_lanes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            scan_module, "candidate_lanes", lambda cs, *args: calls.append(cs) or [None] * len(cs)
        )
        scan_parameters(LANE_CASES["summable-path"])  # 4 candidates
        assert calls == []
        scan_parameters(LANE_CASES["boundary"])
        assert len(calls) == 1 and len(calls[0]) >= MIN_LANES

    def test_equal_blocks_give_the_same_lanes(self, monkeypatch):
        config = LANE_CASES["boundary"]
        cs = [r.c for r in scan_parameters(config) if r.kind == "candidate"][:40]
        args = ([3.0] * len(cs), 2, 256, config.field)
        whole = candidate_lanes(cs, *args)
        sizes = []
        run_block = lanes_module._run_block
        monkeypatch.setattr(lanes_module, "BLOCK_ENTRIES", 1)
        monkeypatch.setattr(
            lanes_module, "_run_block", lambda cs, *a: sizes.append(len(cs)) or run_block(cs, *a)
        )
        assert repr(candidate_lanes(cs, *args)) == repr(whole)
        assert sizes == [13, 13, 14]  # 40 // MIN_LANES equal blocks

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
        rational = VectorFieldSpec.rational(Polynomial((1,)), Polynomial((5, 1)))
        assert candidate_lanes([1j], [3.0], 2, 16, rational) == [None]

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

    def test_deterministic(self):
        config = ScanConfig(
            d=2, region=Rectangle(-2.2, 0.8, -1.2, 1.2), resolution=(16, 12),
        )
        a = render_escape(config, max_iter=40)
        b = render_escape(config, max_iter=40)
        assert (a == b).all()
