import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from ratpert import ParseError
from ratpert import cli
from ratpert import cycles as cycles_module
from ratpert.cli import main, parse_complex, parse_field, parse_map


# z_2 = c^2 + c has finite parts, and |z_2| overflows
MODULUS_OVERFLOW_MAP = "unicritical:2,1.2528e154+5.189e153i"


def _never_called(*args, **kwargs):
    raise AssertionError("the command ran although its options were rejected")


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("-2", -2 + 0j),
            ("-2+0i", -2 + 0j),
            ("0.5-1.25i", 0.5 - 1.25j),
            ("1e-3+2.5e2i", 0.001 + 250j),
            (" 3 - 4 i ", 3 - 4j),
        ],
    )
    def test_accepts(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "i", "1+i", "2i", "1 2", "nan", "1+2j"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_position_reported(self):
        err = pytest.raises(ParseError, parse_complex, "bogus", 7).value
        assert err.position == 7

    finite = st.floats(
        min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
    )

    @given(finite, finite)
    def test_roundtrip_through_text(self, re_part, im_part):
        sign = "+" if im_part >= 0 else "-"
        text = f"{re_part!r}{sign}{abs(im_part)!r}i"
        assert parse_complex(text) == complex(re_part, im_part)


class TestParseMap:
    def test_unicritical(self):
        m = parse_map("unicritical:2,-2+0i")
        assert m.numerator.coefficients == (-2 + 0j, 0j, 1 + 0j)
        assert m.critical_points == (0j,)

    def test_rational_squaring(self):
        m = parse_map("rational:0,0,1/1")
        assert m.is_polynomial
        assert m.critical_points == (0j,)

    def test_shared_root_degenerate(self):
        # MapSpec.rational's DegenerateMapError, as a usage error at the map text
        with pytest.raises(ParseError, match="share a root") as info:
            parse_map("rational:1,0,1/2,0,2")
        assert info.value.position == len("rational:")

    @pytest.mark.parametrize("text", ["rational:1/1", "rational:1,0/1", "rational:0/1"])
    def test_rational_degree_below_two_rejected(self, text):
        with pytest.raises(ParseError, match="degenerate map"):
            parse_map(text)

    @pytest.mark.parametrize(
        "text", ["", "poly:1,2", "unicritical:2", "unicritical:x,1", "rational:1,0,1"]
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_map(text)

    def test_degree_one_rejected(self):
        with pytest.raises(ParseError):
            parse_map("unicritical:1,0")


class TestParseField:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("1", (1 + 0j,)),
            ("z", (0j, 1 + 0j)),
            ("-z", (0j, -1 + 0j)),
            ("2*z^2", (0j, 0j, 2 + 0j)),
            ("0.5+0.25*z", (0.5 + 0j, 0.25 + 0j)),
            ("(0+1i)*z^3", (0j, 0j, 0j, 1j)),
            ("1e-3*z", (0j, 0.001 + 0j)),
            ("1-0.5*z^2+z", (1 + 0j, 1 + 0j, -0.5 + 0j)),
            ("1+2i", (1 + 2j,)),
            ("z+z", (0j, 2 + 0j)),
        ],
    )
    def test_accepts(self, text, coeffs):
        assert parse_field(text).numerator.coefficients == coeffs

    @pytest.mark.parametrize("text", ["", "q", "z^-1", "2**z", "(1+2i*z", "z^one"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_field(text)


class TestCommands:
    def test_mu_chebyshev(self, tmp_path):
        out = tmp_path / "mu.json"
        code = main(
            ["mu", "--map", "unicritical:2,-2+0i", "--field", "1",
             "--tol", "1e-12", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["type"] == "mu"
        assert payload["converged"] is True
        assert abs(payload["value"][0] - 2 / 3) < 1e-12
        assert payload["value"][1] == 0.0

    def test_scan_two_by_two_escaping(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            ["scan", "--d", "2", "--region", "3:4:0:1", "--resolution", "2,2",
             "--orbit-length", "32", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert all(line.split(",")[2] == "escaping" for line in lines[1:])

    def test_scan_worker_counts_identical_bytes(self, tmp_path):
        args = ["scan", "--path=-2+0i,-1+0i,0+0i,1+0i", "--orbit-length", "64"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--workers", "1", "--output", str(a)]) == 0
        assert main(args + ["--workers", "4", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_render_ppm_deterministic(self, tmp_path):
        args = ["render", "--region=-2.2:0.8:-1.2:1.2", "--resolution", "12,10",
                "--max-iter", "25"]
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert data.startswith(b"P6\n12 10\n255\n")

    def test_scan_ppm_is_the_heatmap(self, tmp_path):
        # one pixel a parameter, in grid order
        out = tmp_path / "scan.ppm"
        args = ["scan", "--region=-1.05:-0.95:0.18:0.28", "--resolution", "8,6",
                "--format", "ppm", "--output", str(out)]
        assert main(args) == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n8 6\n255\n")
        assert len(data) == len(b"P6\n8 6\n255\n") + 3 * 8 * 6

    def test_alpha_fixed_point(self, tmp_path):
        out = tmp_path / "alpha.json"
        code = main(
            ["alpha", "--map", "rational:0,0,1/1", "--period", "1",
             "--point", "1+0i", "--field", "1", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["solution"]["alpha"][0][0] == pytest.approx(-1.0, abs=1e-14)

    def test_alpha_output_round_trips_through_decoder(self, tmp_path):
        from ratpert.serialize import decode, encode, json_dumps

        out = tmp_path / "alpha.json"
        code = main(
            ["alpha", "--map", "rational:0,0,1/1", "--period", "1",
             "--point", "1+0i", "--field", "1", "--output", str(out)]
        )
        assert code == 0
        text = out.read_text()
        parsed = decode(json.loads(text))
        payload = {
            "type": "cycle_alpha",
            "cycle": encode(parsed["cycle"]),
            "solution": encode(parsed["solution"]),
        }
        assert json_dumps(payload) == text

    @pytest.mark.parametrize(
        "args",
        [
            ["summability", "--map", "unicritical:2,-2+0i", "--window", "0"],
            ["summability", "--map", "unicritical:2,-2+0i", "--window", "-1"],
            ["summability", "--map", "unicritical:2,-2+0i", "--n-max", "64",
             "--window", "40"],
            ["mu", "--map", "unicritical:2,-2+0i", "--tol", "nan"],
            ["moments", "--map", "unicritical:2,-2+0i", "--tol", "inf"],
            ["cycles", "--map", "unicritical:2,-1+0i", "--period", "2",
             "--newton-tol", "nan"],
        ],
    )
    def test_bad_window_and_tolerance_rejected(self, args, capsys):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    # each flag's option kind rejects these while the options are parsed,
    # before the command's own work (which used to raise or run on)
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_h_rejected(self, value, capsys, monkeypatch):
        monkeypatch.setattr(cli, "motion_velocity_check", _never_called)
        monkeypatch.setattr(cli, "_census", _never_called)
        args = ["check-motion", "--map", "unicritical:2,-1+0i", "--period", "2", f"--h={value}"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad value for --h:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["moments", "witness"])
    @pytest.mark.parametrize("value", ["-1", "-1000"])
    def test_bad_max_degree_rejected(self, command, value, capsys, monkeypatch):
        monkeypatch.setattr(cli, "iterate_orbit", _never_called)
        assert main([command, "--map", "unicritical:2,-2+0i", f"--max-degree={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad value for --max-degree: must be >= 0")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["orbit", "obstruction", "scan", "render"])
    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_bad_escape_radius_rejected(self, command, value, capsys, monkeypatch):
        for name in ("iterate_orbit", "scan_parameters", "render_escape"):
            monkeypatch.setattr(cli, name, _never_called)
        args = {"orbit": ["--map", "unicritical:2,-1+0i"],
                "obstruction": ["--map", "unicritical:2,-1+0i"],
                "scan": ["--path", "0"],
                "render": ["--region=-2:0.5:-1:1", "--resolution", "4,4"]}[command]
        assert main([command, *args, f"--escape-radius={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad value for --escape-radius:")
        assert err.count("\n") == 1

    # an orbit that escapes (or stops) within three entries is too short
    # for the default summability window: a domain error, not a traceback
    @pytest.mark.parametrize("command", ["summability", "mu", "moments", "witness"])
    @pytest.mark.parametrize("flags", [["--map", "unicritical:2,10"],
                                       ["--map", "unicritical:2,-2+0i", "--escape-radius", "1e-3"],
                                       ["--map", "unicritical:2,-2+0i", "--n-max", "1"]])
    def test_too_short_orbit_is_one_error_line(self, command, flags, capsys):
        assert main([command, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidOrbitError: orbit has") and err.count("\n") == 1

    # an iterate that overflows before it passes the escape radius: a domain
    # error naming the index and the radius, not a traceback (the last map's
    # z_2 has finite parts, but its modulus overflows)
    @pytest.mark.parametrize("flags", [["--map", "unicritical:2,1e300"],
                                       ["--map", "rational:1e300,0,1/1"],
                                       ["--map", "unicritical:2,1e200", "--escape-radius", "1e250"],
                                       ["--map", MODULUS_OVERFLOW_MAP, "--escape-radius", "1e300"]])
    def test_overflow_before_escape_is_one_error_line(self, flags, capsys):
        assert main(["orbit", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidOrbitError: orbit overflowed at index 2") and err.count("\n") == 1
        assert "escape radius 1e+" in err

    def test_modulus_overflow_escapes_in_the_scan(self, capsys):
        c = MODULUS_OVERFLOW_MAP.partition(",")[2]
        assert main(["scan", f"--path={c}", "--escape-radius", "1e300", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["class"] == "escaping"

    # z^1024 overflows at the orbit point -2: the field has no value there
    @pytest.mark.parametrize("args,error", [
        (["obstruction", "--field", "z^1024", "--terms", "50"],
         "InvalidOrbitError: v is not finite at orbit index 1"),
        (["mu", "--field", "z^1024"], "NotSummableError: the field is not finite on the orbit"),
        (["moments", "--max-degree", "1024"], "NotSummableError: the field is not finite on the orbit"),
    ])
    def test_field_overflow_is_one_error_line(self, args, error, capsys):
        assert main([args[0], "--map", "unicritical:2,-2+0i", *args[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and err.count("\n") == 1

    def test_field_overflow_flags_the_scan_row(self, capsys):
        assert main(["scan", "--path=-2+0i", "--field", "z^1024", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["growth_exponent"] is None
        assert row["flags"] == ["obstruction-error:v is not finite at orbit index 1"]

    def test_parabolic_infinity_is_no_cycle(self, capsys):
        # z + 1/z: Newton from 3e6 walks towards the parabolic fixed point
        # at infinity, which is no finite cycle (and so no ParabolicCycleError)
        args = ["alpha", "--map", "rational:1,0,1/0,1", "--period", "1",
                "--point", "3e6", "--field", "1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "no period-1 cycle" in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0,2", "2,0", "-1,-1"])
    def test_resolution_below_one_rejected_with_path(self, value, capsys, monkeypatch):
        monkeypatch.setattr(cli, "scan_parameters", _never_called)
        assert main(["scan", f"--resolution={value}", "--path=0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad value for --resolution:") and err.count("\n") == 1

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_bad_seed_count_rejected(self, count, capsys):
        # --seed-count went with the seeded search: it is an unknown flag
        args = ["cycles", "--map", "unicritical:2,-1+0i", "--period", "2",
                "--seed-count", count]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert "--seed-count" in capsys.readouterr().err

    def test_unwritable_output_rejected(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.json"
        assert main(["mu", "--map", "unicritical:2,-2+0i", "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--output" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["orbit", "summability"])
    def test_non_critical_point_rejected_before_work(self, command, capsys, monkeypatch):
        monkeypatch.setattr(cli, "iterate_orbit", _never_called)
        args = [command, "--map", "unicritical:2,-1+0i", "--point", "0.5+0i"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--point" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["mu", "obstruction"])
    def test_mu_and_obstruction_take_no_point(self, command):
        # these commands always follow the map's first critical point
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--map", "unicritical:2,-1+0i", "--point", "0.5+0i"])
        assert excinfo.value.code == 2

    def test_critical_point_accepted(self, capsys):
        args = ["orbit", "--map", "rational:0,-3,0,4/1", "--point=-0.5+0i", "--n-max", "8"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["points"][0] == [-0.5, 0.0]

    @pytest.mark.parametrize(
        "args,compute",
        [
            (["mu", "--map", "unicritical:2,-2+0i"], "iterate_orbit"),
            (["scan", "--region=-2:0.5:-1:1", "--resolution", "4,4"], "scan_parameters"),
        ],
    )
    def test_unwritable_output_rejected_before_work(self, args, compute, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.setattr(cli, compute, _never_called)
        target = tmp_path / "missing-dir" / "out.json"
        assert main(args + ["--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--output" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "args,code",
        [
            (["mu", "--map", "unicritical:2,0.1+0i"], 1),
            (["orbit", "--map", "unicritical:2,-1+0i", "--point", "0.5+0i"], 2),
        ],
    )
    def test_failed_command_leaves_output_path_alone(self, args, code, tmp_path):
        existing = tmp_path / "existing.json"
        existing.write_text("keep me")
        assert main(args + ["--output", str(existing)]) == code
        assert existing.read_text() == "keep me"
        fresh = tmp_path / "fresh.json"
        assert main(args + ["--output", str(fresh)]) == code
        assert not fresh.exists()

    def test_output_replaces_existing_file(self, tmp_path):
        out = tmp_path / "w.json"
        out.write_text("x" * 10_000)
        assert main(["witness", "--moments", "0.5+0i,0+0.5i", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["type"] == "witness"

    def test_non_finite_moments_rejected(self, capsys):
        assert main(["witness", "--moments", "1e400,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--moments" in err

    def test_large_moments_give_a_witness(self, capsys):
        assert main(["witness", "--moments", "1e200,1"]) == 0
        assert json.loads(capsys.readouterr().out)["mu_value"] == [1e200, 0.0]

    @pytest.mark.parametrize(
        "args",
        [["orbit", "--map", "unicritical:2,1e400+0i"],
         ["mu", "--map", "rational:0,0,1/1,1e999"],
         ["alpha", "--map", "unicritical:2,-1+0i", "--period", "2", "--point", "1e400"]],
    )
    def test_out_of_range_number_rejected_before_work(self, args, capsys, monkeypatch):
        for name in ("iterate_orbit", "cycle_from_point", "find_cycles"):
            monkeypatch.setattr(cli, name, _never_called)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "out of range" in err
        assert err.count("\n") == 1

    # finite parts whose modulus overflows: abs() of the value would raise
    @pytest.mark.parametrize("args", [
        ["mu", "--map", "unicritical:2,1.3e308+1.3e308i"],
        ["scan", "--path=1.3e308+1.3e308i"],
        ["render", "--region=-2:2:-2:2", "--resolution", "4,4", "--julia", "1.3e308+1.3e308i"],
        ["witness", "--moments", "1.3e308+1.3e308i"],
        ["continue", "--map", "unicritical:2,-0.12+0.75i", "--period", "3", "--field", "1",
         "--lambda-target", "1.3e308+1.3e308i"],
        ["alpha", "--map", "unicritical:2,-1", "--period", "2", "--point", "1.3e308+1.3e308i"],
        ["orbit", "--map", "unicritical:2,-1", "--point", "1.3e308+1.3e308i"],
    ], ids=lambda args: args[0])
    def test_overflowing_modulus_rejected(self, args, capsys):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "'1.3e308+1.3e308i' is out of range" in err
        assert err.count("\n") == 1

    # every point of the region is finite, and the modulus of its far corner overflows
    @pytest.mark.parametrize("command", ["scan", "render"])
    def test_overflowing_region_rejected(self, command, capsys, monkeypatch):
        for name in ("scan_parameters", "render_escape"):
            monkeypatch.setattr(cli, name, _never_called)
        assert main([command, "--region=1e308:1.7e308:1e308:1.7e308", "--resolution", "2,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad value for --region:") and "overflows" in err
        assert err.count("\n") == 1

    # parse_field sums the terms 1.3e308 and 1.3e308i into one coefficient
    # whose modulus overflows
    @pytest.mark.parametrize("args", [
        ["mu", "--map", "unicritical:2,-2+0i"],
        ["obstruction", "--map", "unicritical:2,-2+0i"],
        ["alpha", "--map", "unicritical:2,-1", "--period", "2"],
        ["continue", "--map", "unicritical:2,-1", "--period", "2", "--lambda-target", "0.001"],
        ["check-motion", "--map", "unicritical:2,-1", "--period", "2"],
        ["scan", "--path=0"],
    ], ids=lambda args: args[0])
    def test_overflowing_field_rejected(self, args, capsys):
        assert main([*args, "--field", "1.3e308+1.3e308i"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad value for --field:") and "modulus is not finite" in err
        assert err.count("\n") == 1

    # z^2 + c with |c| near 1e200 or beyond: Aberth's seeds for the fixed
    # points sit where the residual overflows, and they are no roots
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", ["1e200+0i", "1.2e308+1.2e308i"])
    def test_overflowing_fixed_point_solve_is_one_error_line(self, c, capsys):
        assert main(["cycles", "--map", f"unicritical:2,{c}", "--period", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: RootFindingError:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["cycles", "alpha", "continue", "check-motion"])
    @pytest.mark.parametrize("period", ["13", "40", "1000000000000"])
    def test_census_period_outside_cap_rejected(self, command, period, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_cycles", _never_called)
        args = [command, "--map", "unicritical:2,-1+0i", "--period", period]
        if command == "continue":
            args += ["--lambda-target", "0.001"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --period:") and err.count("\n") == 1

    def test_rational_census_period_outside_cap_rejected(self, capsys, monkeypatch):
        # the census of a rational map needs d**period + 1 roots
        monkeypatch.setattr(cli, "find_cycles", _never_called)
        for command in ("cycles", "alpha", "continue", "check-motion"):
            args = [command, "--map", "rational:0,0,1/0.3,1", "--period", "13"]
            if command == "continue":
                args += ["--lambda-target", "0.001"]
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith("usage error: --period:") and err.count("\n") == 1

    @pytest.mark.parametrize("point", [[], ["--point", "0"]])
    @pytest.mark.parametrize("period", ["0", "-2"])
    def test_period_below_one_rejected(self, point, period, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_cycles", _never_called)
        monkeypatch.setattr(cli, "cycle_from_point", _never_called)
        assert main(["alpha", "--map", "unicritical:2,-1+0i", f"--period={period}", *point]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad value for --period") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["alpha", "continue", "check-motion"])
    @pytest.mark.parametrize(
        "map_text,point",
        [("unicritical:2,-1+0i", "1e300"),
         ("rational:0,0,1/0.3,1", "5"),
         ("rational:0,0,1/0.3,1", "100")],
    )
    def test_point_without_a_cycle_is_one_error_line(self, command, map_text, point, capsys):
        # Newton overflows from 1e300; on z^2 / (z + 0.3) it walks to the
        # fixed point at infinity
        args = [command, "--map", map_text, "--period", "1", "--point", point, "--field", "1"]
        if command == "continue":
            args += ["--lambda-target", "0.001"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_point_at_an_underflowing_pole_is_one_error_line(self, capsys):
        # q * q underflows at 1e-100 on 1 / z^2: a pole, not a traceback
        args = ["alpha", "--map", "rational:1/0,0,1", "--period", "1", "--point", "1e-100", "--field", "1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_check_motion_on_a_strongly_repelling_cycle(self, capsys):
        # the census's first period-9 cycle, |multiplier| about 2e4
        args = ["check-motion", "--map", "unicritical:2,-0.5969-1.6758i", "--period", "9",
                "--field", "1", "--h", "1e-6"]
        assert main(args) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["discrepancy"] <= 1e-8 * abs(complex(*result["alpha"]))

    def test_polynomial_census_makes_no_seeds(self, capsys, monkeypatch):
        monkeypatch.setattr(cycles_module, "default_cycle_seeds", _never_called)
        assert main(["cycles", "--map", "unicritical:2,-1+0i", "--period", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["cycles"]) == 1
        assert main(["alpha", "--map", "unicritical:2,-1+0i", "--period", "2"]) == 0

    def test_rational_census_makes_no_seeds(self, capsys, monkeypatch):
        monkeypatch.setattr(cycles_module, "default_cycle_seeds", _never_called)
        monkeypatch.setattr(cycles_module, "julia_sample", _never_called)
        # z^2 / (z + 0.3): the finite fixed point 0; infinity is the other
        assert main(["cycles", "--map", "rational:0,0,1/0.3,1", "--period", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["cycles"]) == 1

    def test_explicit_window_used(self, capsys):
        assert main(["summability", "--map", "unicritical:2,-2+0i", "--n-max", "64",
                     "--window", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["window"] == 1

    def test_witness_from_moments(self, tmp_path):
        out = tmp_path / "w.json"
        code = main(
            ["witness", "--moments", "0.5+0i,0+0.5i", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mu_value"][0] == pytest.approx(math.sqrt(0.5), abs=1e-13)

    def test_json_roundtrip_through_decoder(self, tmp_path):
        from ratpert.serialize import decode
        from ratpert import MapSpec, VectorFieldSpec, iterate_orbit, mu_functional

        out = tmp_path / "mu.json"
        main(["mu", "--map", "unicritical:2,-2+0i", "--field", "z",
              "--n-max", "256", "--output", str(out)])
        parsed = decode(json.loads(out.read_text()))
        m = MapSpec.unicritical(2, -2)
        orbit = iterate_orbit(m, 0j, 256, escape_radius=3.0)
        direct = mu_functional(orbit, VectorFieldSpec.monomial(1), tol=1e-12)
        assert parsed == direct

    def test_domain_error_exit_code(self, capsys):
        code = main(["mu", "--map", "unicritical:2,0.1+0i", "--field", "1"])
        assert code == 1
        assert "NotSummableError" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        code = main(["mu", "--map", "nonsense:map"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_required_option_missing(self, capsys):
        assert main(["mu"]) == 2

    def test_unknown_flag_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mu", "--map", "unicritical:2,0+0i", "--nonsense", "1"])
        assert excinfo.value.code == 2

    # the error exits of the option kinds, the handlers and the output write
    # that the other tests leave out: the exit code and one stderr line
    @pytest.mark.parametrize("args,code,message", [
        (["orbit", "--map", "unicritical:2,-2+0i", "--format", "xml"], 2, "format must be one of"),
        (["scan", "--region=0:1", "--resolution", "2,2"], 2, "region must be re_min:re_max:im_min:im_max"),
        (["render", "--region=-2:2:-2:2", "--resolution", "5"], 2, "resolution must be nx,ny"),
        (["mu", "--map", "unicritical:2,-2+0i", "--field", "1)"], 2, "unbalanced ')'"),
        (["mu", "--map", "unicritical:2,-2+0i", "--field", "1+"], 2, "empty term"),
        (["witness"], 2, "witness needs --moments or --map"),
        (["render", "--d", "1", "--region=-2:2:-2:2", "--resolution", "4,4"], 2, "bad render configuration"),
        (["orbit", "--map", "unicritical:2,-2+0i", "--output", "/dev/full"], 2, "cannot write --output"),
        (["alpha", "--map", "rational:1,0,1/0,1", "--period", "1", "--field", "1"], 1,
         "no period-1 cycles found"),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_error_exit_is_one_line(self, args, code, message, capsys):
        if "/dev/full" in args and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error:" if code == 2 else "error:")
        assert message in err and err.count("\n") == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "ratpert.conf"
        cfg.write_text(
            "# defaults for the run\n"
            "map=unicritical:2,-2+0i\n"
            "field=1\n"
            "tol=1e-6\n"
        )
        out1 = tmp_path / "a.json"
        assert main(["mu", "--config", str(cfg), "--output", str(out1)]) == 0
        payload = json.loads(out1.read_text())
        assert abs(payload["value"][0] - 2 / 3) < 1e-5

        # explicit flag overrides the file's field
        out2 = tmp_path / "b.json"
        assert main(
            ["mu", "--config", str(cfg), "--field", "z", "--output", str(out2)]
        ) == 0
        payload2 = json.loads(out2.read_text())
        assert abs(payload2["value"][0] - 1 / 3) < 1e-5

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("tol 1e-6\n")
        assert main(["mu", "--map", "unicritical:2,-2+0i", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.conf"
        assert main(["mu", "--map", "unicritical:2,-2+0i", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--config" in err
        assert err.count("\n") == 1

    def test_workers_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RATPERT_WORKERS", "2")
        out = tmp_path / "scan.csv"
        code = main(
            ["scan", "--path=-2+0i,1+0i", "--orbit-length", "64",
             "--output", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3


class TestSubprocessEntry:
    def test_module_invocation_stdout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ratpert.cli", "summability",
             "--map", "unicritical:2,-2+0i", "--n-max", "128"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["classification"] == "summable-evidence"
        assert payload["tail_ratio"] == pytest.approx(0.25)

    def test_help_lists_all_commands(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ratpert.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        for command in ("orbit", "summability", "mu", "moments", "witness",
                        "obstruction", "cycles", "alpha", "continue",
                        "check-motion", "scan", "render"):
            assert command in proc.stdout
