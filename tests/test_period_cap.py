"""--period is capped before any work, on every path that solves for a cycle."""

import pytest

from ratpert import cli
from ratpert.cli import MAX_PERIOD, main

# the census entry of the CLI, whose own cap then rejects a period of 4,096
SOLVERS = ("_census", "find_cycles", "cycle_from_point")


class Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise Reached


def _never_called(*args, **kwargs):
    raise AssertionError("a solver ran although --period was rejected")


def _args(command: str, map_text: str, period: int, point: str | None) -> list[str]:
    args = [command, "--map", map_text, "--period", str(period)]
    if point is not None:
        args.append(f"--point={point}")
    if command == "continue":
        args += ["--lambda-target", "0.001"]
    return args


# --point on a polynomial map, and the census of a rational map
CASES = [
    (command, map_text, point)
    for command in ("cycles", "alpha", "continue", "check-motion")
    for map_text, point in (("unicritical:2,-1+0i", "0.5"), ("rational:0,0,1/0.3,1", None))
    if not (command == "cycles" and point is not None)
]


@pytest.mark.parametrize("command,map_text,point", CASES)
def test_period_above_cap_rejected_before_any_work(command, map_text, point, capsys, monkeypatch):
    for name in SOLVERS:
        monkeypatch.setattr(cli, name, _never_called)
    for period in (MAX_PERIOD + 1, 10_000_000):
        assert main(_args(command, map_text, period, point)) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --period:") and err.count("\n") == 1


@pytest.mark.parametrize("command,map_text,point", CASES)
def test_period_at_cap_reaches_the_solver(command, map_text, point, monkeypatch):
    for name in SOLVERS:
        monkeypatch.setattr(cli, name, _reached)
    with pytest.raises(Reached):
        main(_args(command, map_text, MAX_PERIOD, point))
