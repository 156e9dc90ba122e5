"""Benchmark of the ratpert toolkit: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload scan-boundary --seed 1 --seconds 30 --trace 0

With --trace 0 it times rounds of the workload for --seconds seconds and
prints the end-to-end metrics; with --trace 1 it runs one untraced and one
traced round and prints the per-layer metrics.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the full
record of the run goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs as inp

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh-interpreter set-up probes per run (after one unmeasured warm-up).
SETUP_PROBES = 7
IMPORTTIME_PROBES = 3

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "primary_per_s": "1/s", "secondary_per_s": "1/s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter running probe.py."""
    command = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        started = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=child_env(), check=True)
        if i:
            times.append(time.perf_counter() - started)
    return statistics.median(times)


def import_times() -> tuple[float, float]:
    """(numpy, rest of ratpert.cli) cumulative import seconds, medians of
    `python -X importtime -c "import ratpert.cli"`."""
    numpy_s, cli_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ratpert.cli"],
            cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) * 1e-6
        numpy_s.append(cumulative["numpy"])
        cli_s.append(cumulative["ratpert.cli"] - cumulative["numpy"])
    return statistics.median(numpy_s), statistics.median(cli_s)


def host() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def rate(rounds, section: str) -> float | None:
    values = [r.items[section] / r.seconds[section] for r in rounds if r.seconds.get(section)]
    return statistics.median(values) if values else None


def run_untraced(workload, inputs, maps, seconds, result):
    import workloads as wl

    round_fn, fingerprint = wl.ROUNDS[workload]
    first = round_fn(inputs, maps, parallel=True)
    reference = fingerprint(first)
    rounds, mismatches = [], 0
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        r = round_fn(inputs, maps, parallel=True)
        mismatches += fingerprint(r) != reference
        r.outputs = None
        rounds.append(r)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rounds"] = [{"seconds": dict(r.seconds), "items": dict(r.items)} for r in rounds]
    result["named_rates"] = {
        name: {"value": rate(rounds, section), "unit": unit}
        for name, section, unit in wl.NAMED_RATES[workload] if rate(rounds, section) is not None
    }
    metrics = {
        "peak_rss_mb": peak_rss_mb,
        "primary_per_s": rate(rounds, wl.PRIMARY[workload]),
        "secondary_per_s": rate(rounds, wl.SECONDARY[workload]),
    }
    return first, [first] + rounds, mismatches, metrics


def per_layer(tracer, traced_round) -> dict:
    """Every per-layer metric, from the spans and counts of one traced round."""
    import tracing as tr

    spans = tracer.by_name()
    counts = tracer.counts
    out = {}

    def calls(name):
        return spans[name][0] if name in spans else 0

    def self_s(name):
        return spans[name][1] if name in spans else 0.0

    out["xcomplex.ops"] = (counts["xcomplex.ops"], "count")
    out["maps.eval_map.calls"] = (counts["maps.eval_map.calls"], "count")
    out["maps.eval_map_many.calls"] = (counts["maps.eval_map_many.calls"], "count")
    out["fields.calls"] = (counts["fields.calls"], "count")
    for name in ("polynomial.poly_roots", "orbits.classify_parameter", "orbits.iterate_orbit",
                 "orbits.summability_report", "mu.mu_functional", "mu.moment_vector",
                 "obstruction.obstruction_sequence"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("polynomial.poly_roots", "orbits.classify_parameter", "orbits.iterate_orbit",
                 "orbits.summability_report", "orbits.julia_sample",
                 "obstruction.obstruction_sequence", "mu.mu_functional", "mu.moment_vector",
                 "cycles.default_cycle_seeds", "cycles.find_cycles", "cycles.solve_alpha_on_cycle",
                 "continuation.continue_cycle", "continuation.motion_velocity_check",
                 "scan.scan_parameters", "scan.render_escape", "serialize.encode",
                 "serialize.json_dumps", "serialize.json_loads", "serialize.decode"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["mu.terms_used"] = (counts["mu.terms_used"], "count")
    out["cycles.found"] = (counts["cycles.found"], "count")
    expected = sum(e for _, _, e, _ in traced_round.outputs.get("censuses", ()))
    out["cycles.expected"] = (expected, "count")
    out["continuation.steps"] = (counts["continuation.steps"], "count")
    for kind in ("escaping", "attracting", "candidate"):
        out[f"scan.rows.{kind}"] = (counts[f"scan.rows.{kind}"], "count")
    out["scan.chunk_imbalance"] = (tr.chunk_imbalance(tracer, 2), "ratio")
    out["serialize.bytes"] = (counts["serialize.bytes"], "B")
    return out


def run_traced(workload, inputs, maps, seed, result):
    import tracing as tr
    import workloads as wl

    round_fn, fingerprint = wl.ROUNDS[workload]
    first = round_fn(inputs, maps, parallel=False)
    reference = fingerprint(first)
    started = time.perf_counter()
    plain = round_fn(inputs, maps, parallel=False)
    untraced_s = time.perf_counter() - started
    tracer = tr.Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        traced = round_fn(inputs, maps, parallel=False)
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    mismatches = int(fingerprint(plain) != reference) + int(fingerprint(traced) != reference)
    metrics = per_layer(tracer, traced)
    numpy_s, ratpert_s = import_times()
    metrics["cli.import_numpy_s"] = (numpy_s, "s")
    metrics["cli.import_ratpert_s"] = (ratpert_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    result["untraced_round_s"] = untraced_s
    result["traced_round_s"] = traced_s
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(trace_path)
    result["trace_file"] = str(trace_path.relative_to(ROOT))
    return first, [first, plain, traced], mismatches, metrics


def check(workload, inputs, outputs) -> str | None:
    """None when every check passes, else the first failure."""
    import checks

    try:
        checks.CHECKS[workload](inputs, outputs)
    except checks.CheckFailed as err:
        return str(err)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inp.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ratpert" / "__init__.py").is_file():
        print(f"error: no src/ratpert under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ratpert

    if Path(ratpert.__file__).resolve().parent != (SRC / "ratpert").resolve():
        print(f"error: ratpert imported from {ratpert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host()}
    if args.trace == 0:
        setup_s = setup_seconds(args.workload, args.seed)
    inputs = inp.inputs_for(args.workload, args.seed)
    maps = wl.build_maps(inputs.map_texts)
    if args.trace == 0:
        first, rounds, mismatches, metrics = run_untraced(args.workload, inputs, maps, args.seconds, result)
        metrics = {"setup_s": setup_s, **metrics}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}
    else:
        first, rounds, mismatches, metrics = run_traced(args.workload, inputs, maps, args.seed, result)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    started = time.perf_counter()
    failure = check(args.workload, inputs, first.outputs)
    result["check_s"] = time.perf_counter() - started
    if mismatches:
        failure = failure or f"{mismatches} round(s) gave outputs different from the first round"
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    summary = {"correct": failure is None, "attempted": attempted, "failed": failed, "metrics": metrics}
    result.update(summary, check_failure=failure)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    if failure:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, m in result.get("named_rates", {}).items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {attempted} failed {failed} rounds {len(rounds)}")
    print(json.dumps(summary))
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
