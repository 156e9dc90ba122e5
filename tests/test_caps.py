"""Length, grid and worker caps: a value above a cap is a one-line usage
error found before any work, so nothing of its size is ever allocated and
no worker process is started."""

import pytest

import ratpert.scan as scan_module
from ratpert import MapSpec, VectorFieldSpec, cli
from ratpert.cli import MAX_DEGREE, MAX_PERIOD, MAX_PIXELS, MAX_STEPS, MAX_TERMS, main
from ratpert.scan import MAX_WORKERS, Rectangle, ScanConfig, scan_parameters

# the library call that each command's capped flag sizes
WORK = ("iterate_orbit", "obstruction_sequence", "scan_parameters", "render_escape",
        "continue_cycle", "_census", "cycle_from_point")


class Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise Reached


def _never_called(*args, **kwargs):
    raise AssertionError("work started although a capped flag was rejected")


# (arguments without the capped value, flag, cap)
CAPPED = [
    (["orbit", "--map", "unicritical:2,-2+0i"], "--n-max", MAX_TERMS),
    (["summability", "--map", "unicritical:2,-2+0i"], "--n-max", MAX_TERMS),
    (["mu", "--map", "unicritical:2,-2+0i"], "--n-max", MAX_TERMS),
    (["obstruction", "--map", "unicritical:2,-2+0i"], "--terms", MAX_TERMS),
    (["scan", "--path=-1,0.25"], "--orbit-length", MAX_TERMS),
    (["render", "--region=-2:0.5:-1:1", "--resolution", "4,4"], "--max-iter", MAX_TERMS),
    (["continue", "--map", "unicritical:2,-2+0i", "--period", "3", "--lambda-target", "0.01"],
     "--steps", MAX_STEPS),
    (["moments", "--map", "unicritical:2,-2+0i"], "--max-degree", MAX_DEGREE),
    (["witness", "--map", "unicritical:2,-2+0i"], "--max-degree", MAX_DEGREE),
    (["scan", "--path=-1,0.25"], "--d", MAX_DEGREE),
    (["render", "--region=-2:0.5:-1:1", "--resolution", "4,4"], "--d", MAX_DEGREE),
]

# flags that went with the code they sized, at their old cap: the seeded
# search and its --seed-count are gone, so every value of the flag, the old
# cap included, is an unknown flag and exit 2 before any work
REMOVED = [
    (["cycles", "--map", "rational:0,0,1/0.3,1", "--period", "1"], "--seed-count", MAX_TERMS),
]


def _args(base, flag, value):
    return base + [flag, str(value)]


def _assert_unknown_flag(base, flag, values, capsys, monkeypatch):
    for name in WORK:
        monkeypatch.setattr(cli, name, _never_called)
    for value in values:
        with pytest.raises(SystemExit) as excinfo:
            main(_args(base, flag, value))
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("base,flag,cap", CAPPED + REMOVED)
def test_above_the_cap_rejected_before_any_work(base, flag, cap, capsys, monkeypatch):
    if (base, flag, cap) in REMOVED:
        _assert_unknown_flag(base, flag, (cap + 1, 10**18), capsys, monkeypatch)
        return
    for name in WORK:
        monkeypatch.setattr(cli, name, _never_called)
    for value in (cap + 1, 10**18):
        assert main(_args(base, flag, value)) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: {flag}: {value} is above the cap of {cap}\n"


@pytest.mark.parametrize("base,flag,cap", CAPPED + REMOVED)
def test_at_the_cap_reaches_the_work(base, flag, cap, capsys, monkeypatch):
    if (base, flag, cap) in REMOVED:
        _assert_unknown_flag(base, flag, (cap,), capsys, monkeypatch)
        return
    for name in WORK:
        monkeypatch.setattr(cli, name, _reached)
    with pytest.raises(Reached):
        main(_args(base, flag, cap))


@pytest.mark.parametrize("base,flag,cap", [case for case in CAPPED + REMOVED
                                            if case[1] not in ("--orbit-length", "--max-degree", "--d")])
def test_zero_is_a_usage_error(base, flag, cap, capsys, monkeypatch):
    if (base, flag, cap) in REMOVED:
        _assert_unknown_flag(base, flag, (0,), capsys, monkeypatch)
        return
    assert main(_args(base, flag, 0)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad value for {flag}:") and err.count("\n") == 1


def _rational(n_coefficients):
    return "rational:" + ",".join(["0"] * (n_coefficients - 1) + ["1"]) + "/1,0.5"


# (arguments for a degree, the library call that would allocate that many
# coefficients, the usage error); the map and field texts are checked while
# they are parsed
DEGREES = [
    (lambda d: ["orbit", "--map", f"unicritical:{d},0"], (MapSpec, "unicritical"),
     "unicritical degree {d} is above the cap of {cap} (at position 12)"),
    (lambda d: ["mu", "--map", "unicritical:2,-2+0i", "--field", f"1+z^{d}"],
     (VectorFieldSpec, "from_coefficients"), "field degree {d} is above the cap of {cap} (at position 2)"),
    (lambda d: ["orbit", "--map", _rational(d + 1)], (cli, "_parse_complex_list"),
     "rational degree {d} is above the cap of {cap} (at position 9)"),
]


@pytest.mark.parametrize("args,call,message", DEGREES)
def test_degree_above_the_cap_rejected_before_any_allocation(args, call, message, capsys, monkeypatch):
    monkeypatch.setattr(*call, _never_called)
    for name in WORK:
        monkeypatch.setattr(cli, name, _never_called)
    # a rational: text spells out every coefficient, so it stays at cap + 1
    for degree in (MAX_DEGREE + 1,) if call[1] == "_parse_complex_list" else (MAX_DEGREE + 1, 10**18):
        assert main(args(degree)) == 2
        err = capsys.readouterr().err
        assert err == "usage error: " + message.format(d=degree, cap=MAX_DEGREE) + "\n"


@pytest.mark.parametrize("args,call,message", DEGREES)
def test_degree_at_the_cap_reaches_the_allocation(args, call, message, monkeypatch):
    monkeypatch.setattr(*call, _reached)
    with pytest.raises(Reached):
        main(args(MAX_DEGREE))


CONTINUE = ["continue", "--map", "unicritical:2,-2+0i", "--lambda-target", "0.01"]


# each within its own cap; together they are not
@pytest.mark.parametrize("steps,period", [(MAX_STEPS, MAX_TERMS // MAX_STEPS + 1),
                                          (MAX_TERMS // MAX_PERIOD + 1, MAX_PERIOD),
                                          (MAX_STEPS, MAX_PERIOD)])
def test_continuation_above_the_points_cap_rejected(steps, period, capsys, monkeypatch):
    for name in WORK:
        monkeypatch.setattr(cli, name, _never_called)
    assert main(CONTINUE + ["--steps", str(steps), "--period", str(period)]) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: --steps x --period: {steps * period} is above the cap of {MAX_TERMS}\n"


def test_continuation_at_the_points_cap_reaches_the_work(monkeypatch):
    for name in WORK:
        monkeypatch.setattr(cli, name, _reached)
    with pytest.raises(Reached):
        main(CONTINUE + ["--steps", str(MAX_STEPS), "--period", str(MAX_TERMS // MAX_STEPS)])


GRIDS = [
    ["scan", "--region=-2:0.5:-1:1"],
    ["render", "--region=-2:0.5:-1:1"],
]


@pytest.mark.parametrize("base", GRIDS)
@pytest.mark.parametrize("resolution", [f"{MAX_PIXELS + 1},1", f"1,{MAX_PIXELS + 1}",
                                        "1025,1024", "100000000,100000000"])
def test_grid_above_the_cap_rejected(base, resolution, capsys, monkeypatch):
    for name in WORK:
        monkeypatch.setattr(cli, name, _never_called)
    assert main(base + ["--resolution", resolution]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --resolution:") and err.count("\n") == 1
    assert f"above the cap of {MAX_PIXELS}" in err


@pytest.mark.parametrize("base", GRIDS)
def test_grid_at_the_cap_reaches_the_work(base, monkeypatch):
    for name in WORK:
        monkeypatch.setattr(cli, name, _reached)
    with pytest.raises(Reached):
        main(base + ["--resolution", "1024,1024"])


# a path is capped as a grid is, by its points, which are counted before
# any of them is parsed
def test_path_above_the_cap_rejected(capsys, monkeypatch):
    for name in WORK + ("_parse_complex_list",):
        monkeypatch.setattr(cli, name, _never_called)
    for points in (MAX_PIXELS + 1, 2 * MAX_PIXELS):
        assert main(["scan", "--path=" + ",".join(["0.3"] * points)]) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --path: {points} is above the cap of {MAX_PIXELS}\n"


def test_path_at_the_cap_reaches_the_parse(monkeypatch):
    for name in WORK:
        monkeypatch.setattr(cli, name, _never_called)
    monkeypatch.setattr(cli, "_parse_complex_list", _reached)
    with pytest.raises(Reached):
        main(["scan", "--path=" + ",".join(["0.3"] * MAX_PIXELS)])


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker process is started."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pool(monkeypatch):
    """The recording pool, taken by scans of any size."""
    _RecordingPool.max_workers = []
    monkeypatch.setattr(scan_module, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(scan_module, "MIN_POOL_STEPS", 0)
    return _RecordingPool


class TestWorkerCap:
    def _config(self, workers):
        return ScanConfig(d=2, region=Rectangle(-2, 0.5, -1, 1), resolution=(3, 2),
                          orbit_length=32, worker_count=workers)

    def test_above_the_cap_fails_validation(self, pool):
        for workers in (MAX_WORKERS + 1, 100_000):
            with pytest.raises(ValueError, match="worker_count"):
                self._config(workers)
        assert pool.max_workers == []

    def test_at_the_cap_starts_one_worker_per_point(self, pool):
        rows = scan_parameters(self._config(MAX_WORKERS))
        assert pool.max_workers == [6]
        assert rows == scan_parameters(self._config(1))

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_cli_above_the_cap_is_a_usage_error(self, how, pool, capsys, monkeypatch):
        args = ["scan", "--path=-1,0.25", "--orbit-length", "32"]
        if how == "flag":
            args += ["--workers", "100000"]
        else:
            monkeypatch.setenv(cli.WORKERS_ENV, "100000")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad scan configuration: worker_count")
        assert err.count("\n") == 1
        assert pool.max_workers == []
