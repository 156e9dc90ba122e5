"""Length, grid and worker caps: a value above a cap is a one-line usage
error found before any work, so nothing of its size is ever allocated and
no worker process is started."""

import pytest

import ratpert.scan as scan_module
from ratpert import cli
from ratpert.cli import MAX_PIXELS, MAX_STEPS, MAX_TERMS, main
from ratpert.scan import MAX_WORKERS, Rectangle, ScanConfig, scan_parameters

# the library call that each command's capped flag sizes
WORK = ("iterate_orbit", "obstruction_sequence", "scan_parameters", "render_escape",
        "continue_cycle", "_census")


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
]


def _args(base, flag, value):
    return base + [flag, str(value)]


@pytest.mark.parametrize("base,flag,cap", CAPPED)
def test_above_the_cap_rejected_before_any_work(base, flag, cap, capsys, monkeypatch):
    for name in WORK:
        monkeypatch.setattr(cli, name, _never_called)
    for value in (cap + 1, 10**18):
        assert main(_args(base, flag, value)) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: {flag}: {value} is above the cap of {cap}\n"


@pytest.mark.parametrize("base,flag,cap", CAPPED)
def test_at_the_cap_reaches_the_work(base, flag, cap, monkeypatch):
    for name in WORK:
        monkeypatch.setattr(cli, name, _reached)
    with pytest.raises(Reached):
        main(_args(base, flag, cap))


@pytest.mark.parametrize("base,flag,cap", [case for case in CAPPED if case[1] != "--orbit-length"])
def test_zero_is_a_usage_error(base, flag, cap, capsys):
    assert main(_args(base, flag, 0)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: bad value for {flag}:") and err.count("\n") == 1


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
    _RecordingPool.max_workers = []
    monkeypatch.setattr(scan_module, "ProcessPoolExecutor", _RecordingPool)
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
