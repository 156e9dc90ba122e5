"""Fuzz over in-process cli.main(): argv drawn from each command's option
table, with small valid values, values at and just past every bound and
cap, and malformed text.

Every run returns 0, 1 or 2 with no uncaught exception; an exit of 1 or 2
prints one line on stderr; JSON output is strict and re-encodes to the same
bytes through decode(); and a value past a bound, or malformed, is a usage
error (2) whatever else was drawn.  Values stay small so that the runs that
get past the parser take milliseconds."""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from ratpert.cli import COMMANDS, MAX_DEGREE, MAX_PERIOD, MAX_PIXELS, MAX_STEPS, MAX_TERMS, main
from ratpert.serialize import decode, encode, json_dumps
from test_codec import REWRAP, _strict_loads

BAD_NUMBERS = ["", "x", "1.5.2", "nan", "inf", "-inf", "1e400"]

# flag -> (values that run, values that are usage errors, values that may be
# either: an exit of 1 or 2 is allowed)
VALUES = {
    "--map": (["unicritical:2,-2+0i", "unicritical:2,1+1i", "unicritical:2,-0.12+0.75i",
               "unicritical:3,0.1+0.2i", "rational:-2,0,1/1,0,0.001"],
              ["", "circle:1", "unicritical:2", "unicritical:1,0", "unicritical:2,nan",
               "unicritical:2,1e400", f"unicritical:{MAX_DEGREE + 1},0", "rational:1,2",
               "rational:" + ",".join(["0"] * (MAX_DEGREE + 1)) + ",1/1",
               "rational:1/1", "rational:0,1,1/0,1"],
              ["unicritical:2,-1+0i"]),
    "--field": (["1", "z", "z^0", "2*z^2-1", "(0+1i)*z-0.5"],
                ["", "w", "z^x", "z^-1", "1+", "(1", f"z^{MAX_DEGREE + 1}"], []),
    "--tol": (["1e-12", "1e-6"], BAD_NUMBERS, []),
    "--newton-tol": (["1e-9"], BAD_NUMBERS, []),
    "--h": (["1e-4", "1e-3"], BAD_NUMBERS + ["0", "-0", "-1"], []),
    "--escape-radius": (["3", "100"], BAD_NUMBERS + ["0", "-1"], ["1e-3"]),
    "--n-max": (["1", "16", "64"], ["0", "-1", "x", str(MAX_TERMS + 1)], []),
    "--terms": (["1", "16", "64"], ["0", "x", str(MAX_TERMS + 1)], []),
    "--window": (["1", "4"], ["0", "x"], ["100000"]),
    "--max-degree": (["0", "1", "4"], ["-1", "x", str(MAX_DEGREE + 1)], []),
    "--moments": (["1,0.5+0.5i,2", "1"], ["", "1,nan", "1,,2", "1e400"], []),
    "--period": (["1", "2", "3"], ["0", "-3", "x", str(MAX_PERIOD + 1)], []),
    "--steps": (["1", "4"], ["0", "x", str(MAX_STEPS + 1)], []),
    "--point": (["0", "-1", "0.5+0.5i"], ["", "x", "1+i", "1e400"], []),
    "--lambda-target": (["0.001", "0.01+0.01i", "0"], ["", "x", "1e400"], []),
    "--julia": (["-1", "0.25"], ["", "x", "1e400"], []),
    "--d": (["2", "3"], ["0", "1", "x", str(MAX_DEGREE + 1)], []),
    "--region": (["-2:0.5:-1:1", "-0.1:0.1:-0.1:0.1"], ["", "1:0:0:1", "0:1", "x:0:0:1", "nan:0:0:1", "-inf:inf:-1:1"], []),
    "--resolution": (["1,1", "3,2"], ["", "2", "a,b", "0,2", "-1,-1", f"{MAX_PIXELS + 1},1"], []),
    "--path": (["0", "-1,0.25"], ["", "x", "1e400", "0,,1", ",".join(["0"] * (MAX_PIXELS + 1))], []),
    "--orbit-length": (["16", "32"], ["15", "x", str(MAX_TERMS + 1)], []),
    "--max-iter": (["1", "8"], ["0", "x", str(MAX_TERMS + 1)], []),
    "--workers": (["1"], ["0", "x", "65"], []),
    "--output": (["-"], [], []),
}


def _value(flag, kind):
    if kind.startswith("choice:"):
        good, bad, either = kind[len("choice:"):].split(","), ["", "xml"], []
    else:
        good, bad, either = VALUES[flag]
    return st.sampled_from([(v, 0) for v in good] + [(v, 2) for v in bad] + [(v, 1) for v in either])


@st.composite
def invocations(draw):
    """(argv, the exit codes allowed, format): a value past a bound or
    malformed allows only 2, or 1 and 2 beside a value that may be either."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv, drawn, fmt = [command], set(), None
    for opt in COMMANDS[command]["options"]:
        if opt.flag == "--config" or not (opt.required or draw(st.booleans())):
            continue
        text, code = draw(_value(opt.flag, opt.kind))
        argv.append(f"{opt.flag}={text}")
        drawn.add(code)
        if opt.flag == "--format":
            fmt = text
    if fmt is None:
        fmt = next(o.default for o in COMMANDS[command]["options"] if o.flag == "--format")
    return argv, ({0, 1, 2} if 2 not in drawn else {1, 2} if 1 in drawn else {2}), fmt


def _run(argv):
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout.flush()
    return code, out.getvalue(), err.getvalue()


MAP = "--map=unicritical:2,-2+0i"


@settings(max_examples=60)
@given(invocations())
# values that once raised out of main() or ran on
@example((["check-motion", MAP, "--period=2", "--h=0"], {2}, "json"))
@example((["check-motion", MAP, "--period=2", "--h=nan"], {2}, "json"))
@example((["moments", MAP, "--max-degree=-1"], {2}, "json"))
@example((["witness", MAP, "--max-degree=-1"], {2}, "json"))
@example((["witness", MAP, "--moments="], {2}, "json"))
@example((["obstruction", MAP, "--escape-radius=nan"], {2}, "json"))
@example((["obstruction", MAP, "--escape-radius=-1"], {2}, "json"))
@example((["scan", "--region=-inf:inf:-1:1", "--resolution=2,2"], {2}, "csv"))
@example((["mu", "--map=unicritical:2,10"], {1}, "json"))
@example((["scan", "--resolution=0,2", "--path=0"], {2}, "csv"))
@example((["scan", "--resolution=-1,-1", "--path=0"], {2}, "csv"))
# iterates that overflow before they pass the escape radius
@example((["orbit", "--map=unicritical:2,1e300"], {1}, "json"))
@example((["orbit", "--map=rational:1e300,0,1/1"], {1}, "json"))
@example((["orbit", "--map=unicritical:2,1e200", "--escape-radius=1e250"], {1}, "json"))
def test_every_invocation_exits_cleanly(invocation):
    argv, allowed, fmt = invocation
    code, out, err = _run(argv)
    assert code in allowed, (argv, err)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == 0 and fmt == "json":
        text = out.decode()
        payload = _strict_loads(text)
        value = decode(payload)
        rewrap = REWRAP.get(payload["type"])
        assert json_dumps(encode(value if rewrap is None else rewrap(value, payload))) == text
