import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ratpert import (
    MapSpec,
    Rectangle,
    ScanConfig,
    ObstructionSeries,
    VectorFieldSpec,
    continue_cycle,
    cycle_from_point,
    find_witness_field,
    iterate_orbit,
    motion_velocity_check,
    mu_functional,
    obstruction_sequence,
    render_escape,
    scan_parameters,
    solve_alpha_on_cycle,
    summability_report,
)
from ratpert.serialize import (
    SCAN_CSV_COLUMNS,
    decode,
    encode,
    escape_image,
    heatmap_image,
    json_dumps,
    json_loads,
    ppm_bytes,
    scan_rows_to_csv,
    scan_heatmap_ppm,
)
from ratpert.xcomplex import HYPOT_TIE, XComplex, _lane_values, _normalize, normalize_lanes

ONE = VectorFieldSpec.constant(1)


def roundtrip(obj):
    return decode(json_loads(json_dumps(encode(obj))))


class TestJsonRoundTrip:
    def test_orbit(self, chebyshev_orbit):
        assert roundtrip(chebyshev_orbit) == chebyshev_orbit

    def test_summability(self, chebyshev_orbit):
        report = summability_report(chebyshev_orbit, 32)
        assert roundtrip(report) == report

    def test_mu(self, chebyshev_orbit):
        result = mu_functional(chebyshev_orbit, ONE, tol=1e-12)
        assert roundtrip(result) == result

    def test_obstruction(self, chebyshev_orbit):
        series = obstruction_sequence(chebyshev_orbit, ONE, 150)
        assert roundtrip(series) == series

    def test_obstruction_zero_field_nonfinite_exponent(self, chebyshev_orbit):
        series = obstruction_sequence(chebyshev_orbit, VectorFieldSpec.constant(0), 20)
        assert roundtrip(series) == series

    def test_cycle_and_alpha(self, chebyshev_map):
        cyc = cycle_from_point(chebyshev_map, 2.0, 1)
        assert roundtrip(cyc) == cyc
        sol = solve_alpha_on_cycle(chebyshev_map, cyc, ONE)
        assert roundtrip(sol) == sol

    def test_continuation_and_motion(self, squaring_map):
        cyc = cycle_from_point(squaring_map, 1.0, 1)
        result = continue_cycle(squaring_map, ONE, cyc, 0.05, steps=4)
        assert roundtrip(result) == result
        chk = motion_velocity_check(squaring_map, ONE, cyc, 1e-4)
        assert roundtrip(chk) == chk

    def test_witness(self):
        result = find_witness_field([2 / 3, 1 / 3])
        assert roundtrip(result) == result

    def test_scan_rows(self):
        rows = scan_parameters(
            ScanConfig(d=2, path=(-2 + 0j, 0j, 1 + 0j), orbit_length=64)
        )
        for row in rows:
            assert roundtrip(row) == row

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            decode({"type": "nonsense"})
        with pytest.raises(TypeError):
            encode(object())

    def test_composite_payloads_decode(self, chebyshev_map):
        cycles = [cycle_from_point(chebyshev_map, 2.0, 1)]
        payload = {"type": "cycles", "cycles": [encode(c) for c in cycles]}
        assert decode(json_loads(json_dumps(payload))) == tuple(cycles)

        moments = {"type": "moments", "moments": [[0.5, 0.0], [0.0, -1.5]]}
        assert decode(moments) == (0.5 + 0j, -1.5j)

        render = {"type": "render", "max_iter": 3, "counts": [[1, 2], [3, 3]]}
        grid = decode(render)
        assert grid.dtype == np.int32 and grid[1, 0] == 3


# moduli within a few HYPOT_TIE of 1 and of 2, at any angle and binary scale
_near_ties = st.builds(
    lambda r, t, k: (math.ldexp(r * math.cos(t), k), math.ldexp(r * math.sin(t), k)),
    st.sampled_from([1.0, 2.0]).flatmap(lambda a: st.floats(a - 8 * HYPOT_TIE, a + 8 * HYPOT_TIE)),
    st.floats(0.0, 2 * math.pi),
    st.integers(-1070, 1020),
)
_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestXComplexPayload:
    """decode() takes an extended-range value only in a form encode() writes."""

    @pytest.mark.parametrize("value", [
        {"mantissa": [1.5, 0.0], "exponent": 1.5},  # int() would truncate it to 2**1
        {"mantissa": [1.5, 0.0], "exponent": True},  # a bool, read as 2**1
        {"mantissa": [1.5, 0.0], "exponent": "7"},  # a string, read as 2**7
        {"mantissa": [0.0, 0.0], "exponent": 5},  # a zero that is not XComplex.zero()
        {"mantissa": [4.0, 0.0], "exponent": 0},  # 4 * 2**0, whose mantissa is 1 * 2**2
        {"mantissa": [0.5, 0.0], "exponent": 1},
        {"mantissa": [1.5, "NaN"], "exponent": 0},
    ])
    def test_unwritten_forms_are_rejected(self, chebyshev_orbit, value):
        payload = encode(chebyshev_orbit)
        payload["cocycle"][3] = value
        with pytest.raises(ValueError, match="no encoder writes"):
            decode(payload)

    @given(st.one_of(st.tuples(_finite, _finite), _near_ties))
    def test_every_normalized_value_decodes_to_itself(self, parts):
        re, im = parts
        lane = _lane_values(*normalize_lanes(np.array([re]), np.array([im]), 0))[0]
        for x in (_normalize(re, im, 0), lane):
            back = decode(json_loads(json_dumps(encode(ObstructionSeries((x,), 0.0, "bounded")))))
            assert back.b == (x,) and isinstance(back.b[0], XComplex)


class TestLeafPayload:
    """decode() takes an int, str or bool field only as that exact JSON
    type: anything else would decode to an object != the one encoded."""

    @pytest.mark.parametrize("build,key,value", [
        (lambda m, orbit: orbit, "truncated_at", 9.5),
        (lambda m, orbit: orbit, "escaped_at", "3"),
        (lambda m, orbit: cycle_from_point(m, 2.0, 1), "period", True),
        (lambda m, orbit: summability_report(orbit, 32), "classification", 1),
        (lambda m, orbit: mu_functional(orbit, ONE), "converged", 1),
    ], ids=["float-int", "str-int", "bool-int", "int-str", "int-bool"])
    def test_other_json_types_are_rejected(self, chebyshev_map, chebyshev_orbit, build, key, value):
        payload = encode(build(chebyshev_map, chebyshev_orbit))
        payload[key] = value
        with pytest.raises(ValueError, match="no encoder writes"):
            decode(payload)


class TestCsv:
    def test_fixed_column_order(self):
        assert SCAN_CSV_COLUMNS == (
            "c_re",
            "c_im",
            "class",
            "period",
            "summability",
            "growth_exponent",
            "mu_re",
            "mu_im",
            "flags",
        )
        rows = scan_parameters(ScanConfig(d=2, path=(1 + 0j,), orbit_length=32))
        text = scan_rows_to_csv(rows)
        assert text.splitlines()[0] == ",".join(SCAN_CSV_COLUMNS)
        assert text.endswith("\n")

    def test_float_fields_roundtrip_exactly(self):
        rows = scan_parameters(
            ScanConfig(d=2, path=(-2 + 0j,), orbit_length=128)
        )
        line = scan_rows_to_csv(rows).splitlines()[1]
        cells = line.split(",")
        assert float(cells[0]) == rows[0].c.real
        assert float(cells[5]) == rows[0].growth_exponent
        assert float(cells[6]) == rows[0].mu_constant.real


class TestPpm:
    def test_header_and_size(self):
        rgb = np.zeros((3, 5, 3), dtype=np.uint8)
        data = ppm_bytes(rgb)
        assert data.startswith(b"P6\n5 3\n255\n")
        assert len(data) == len(b"P6\n5 3\n255\n") + 3 * 5 * 3

    def test_escape_image_deterministic_and_black_interior(self):
        config = ScanConfig(
            d=2, region=Rectangle(-2.2, 0.8, -1.2, 1.2), resolution=(24, 20),
        )
        counts = render_escape(config, max_iter=30)
        img1 = escape_image(counts, 30)
        img2 = escape_image(render_escape(config, max_iter=30), 30)
        assert img1 == img2
        # c = 0 is in-set: find its pixel and check it is black
        pts = config.points()
        idx = min(range(len(pts)), key=lambda i: abs(pts[i]))
        iy, ix = divmod(idx, 24)
        offset = len(b"P6\n24 20\n255\n") + 3 * (iy * 24 + ix)
        assert img1[offset : offset + 3] == b"\x00\x00\x00"

    def test_heatmap_image_sentinel_colors(self):
        config = ScanConfig(
            d=2, region=Rectangle(3, 4, 0, 1), resolution=(2, 2), orbit_length=32
        )
        rows = scan_parameters(config)
        data = scan_heatmap_ppm(rows, config)
        body = data[len(b"P6\n2 2\n255\n") :]
        assert body == bytes((16, 16, 16)) * 4
