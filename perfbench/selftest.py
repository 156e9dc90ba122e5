"""Shows that every independent check rejects a deliberately corrupted output.

Run from the repository root:

    python3 perfbench/selftest.py [--seed N]

For each workload it runs one round, requires the checks to pass on the
clean outputs, then corrupts one output at a time (a flipped scan class, a
nudged cycle point, mu off by 1e-9, ...) and requires the checks to fail.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
from pathlib import Path

SRC = Path.cwd() / "src"


def nudged(z: complex, by: float) -> complex:
    return z + by * max(1.0, abs(z))


def scan_cases(outputs):
    rows = outputs["rows"]
    kinds = {row.kind: i for i, row in enumerate(rows)}
    grown = next(i for i, row in enumerate(rows) if row.growth_exponent is not None)

    def set_row(i, **changes):
        def corrupt(o):
            o["rows"] = rows[:i] + (dataclasses.replace(rows[i], **changes),) + rows[i + 1:]
        return corrupt

    def set_pixel(key):
        def corrupt(o):
            o[key] = o[key].copy()
            o[key] += 1
        return corrupt

    cases = {
        "candidate flipped to escaping": set_row(kinds["candidate"], kind="escaping"),
        "escaping flipped to candidate": set_row(kinds["escaping"], kind="candidate", growth_exponent=0.0),
        "growth exponent off by 1e-6": set_row(grown, growth_exponent=rows[grown].growth_exponent + 1e-6),
        "grid point moved": set_row(0, c=nudged(rows[0].c, 1e-12)),
        "parameter-plane render counts shifted": set_pixel("render_plane"),
        "Julia render counts shifted": set_pixel("render_julia"),
        "2-worker CSV differs": lambda o: o.update(csv_2w=o["csv_2w"].replace("candidate", "escaping", 1)),
    }
    if "attracting" in kinds:
        i = kinds["attracting"]
        cases["attracting period doubled"] = set_row(i, period=2 * rows[i].period)
        cases["escaping flipped to attracting"] = set_row(kinds["escaping"], kind="attracting", period=1)
    return cases


def deep_cases(outputs):
    import ratpert

    def on_map(index, key, change):
        def corrupt(o):
            entry = dict(o["maps"][index])
            entry[key] = change(entry[key])
            o["maps"] = o["maps"][:index] + [entry] + o["maps"][index + 1:]
        return corrupt

    def xc_nudged(x, ulps):
        return ratpert.XComplex(x.mantissa * (1 + ulps * 2.0**-52), x.exponent)

    def cocycle_at(k, ulps):
        return lambda orbit: dataclasses.replace(
            orbit, cocycle=orbit.cocycle[:k] + (xc_nudged(orbit.cocycle[k], ulps),) + orbit.cocycle[k + 1:])

    def b_at(k, ulps):
        return lambda s: dataclasses.replace(s, b=s.b[:k] + (xc_nudged(s.b[k], ulps),) + s.b[k + 1:])

    return {
        "mu off by 1e-9": on_map(1, "mu", lambda mu: dataclasses.replace(mu, value=mu.value + 1e-9)),
        "mu(1) of z^2-2 off by 1e-9": on_map(0, "moments", lambda m: (m[0] + 1e-9,) + m[1:]),
        "moment 3 off by 1e-8": on_map(2, "moments", lambda m: m[:3] + (m[3] + 1e-8,) + m[4:]),
        "cocycle[20] off by 1e4 ulp (non-polynomial map)": on_map(3, "orbit", cocycle_at(20, 1e4)),
        "cocycle[5000] off by 1e6 ulp (z^2+i)": on_map(1, "orbit", cocycle_at(5000, 1e6)),
        "cocycle exponent of z^2-2 off by one": on_map(0, "orbit", lambda orbit: dataclasses.replace(
            orbit, cocycle=orbit.cocycle[:7] + (ratpert.XComplex(-1 + 0j, 15),) + orbit.cocycle[8:])),
        "b[30] off by 1e6 ulp": on_map(3, "series", b_at(30, 1e6)),
        "witness value off by 1e-6": on_map(2, "witness", lambda w: w._replace(mu_value=w.mu_value * (1 + 1e-6))),
        "decoded orbit point moved": on_map(0, "orbit_back", lambda orbit: dataclasses.replace(
            orbit, points=orbit.points[:3] + (orbit.points[3] + 1e-15,) + orbit.points[4:])),
        "growth exponent off by 0.01": on_map(1, "series", lambda s: dataclasses.replace(
            s, growth_exponent=s.growth_exponent + 0.01)),
    }


def census_cases(outputs):
    censuses = outputs["censuses"]
    index = next(i for i, (cm, p, e, cycles) in enumerate(censuses) if p == 5 and cycles)

    def on_census(change):
        def corrupt(o):
            cm, p, e, cycles = censuses[index]
            o["censuses"] = censuses[:index] + [(cm, p, e, change(cycles))] + censuses[index + 1:]
        return corrupt

    def on_cycle(change):
        return on_census(lambda cycles: (change(cycles[0]),) + cycles[1:])

    continued = outputs["continued"]
    slot = next(i for i, (_, _, results) in enumerate(continued) if results)

    def on_continued(change):
        def corrupt(o):
            cm, p, results = continued[slot]
            o["continued"] = continued[:slot] + [(cm, p, [change(*results[0])] + results[1:])] + continued[slot + 1:]
        return corrupt

    return {
        "cycle point nudged by 1e-6": on_cycle(lambda c: dataclasses.replace(
            c, points=(nudged(c.points[0], 1e-6),) + c.points[1:])),
        "multiplier off by 1e-4": on_cycle(lambda c: dataclasses.replace(c, multiplier=c.multiplier * (1 + 1e-4))),
        "one cycle reported twice": on_census(lambda cycles: (cycles[1],) + cycles[1:]),
        "more cycles than the exact count": on_census(lambda cycles: cycles + cycles[:1]),
        "alpha off by 1e-8": on_continued(lambda cycle, alpha, path, motion: (
            cycle, dataclasses.replace(alpha, alpha=(alpha.alpha[0] + 1e-8,) + alpha.alpha[1:]), path, motion)),
        "continued cycle moved by 1e-8": on_continued(lambda cycle, alpha, path, motion: (
            cycle, alpha, dataclasses.replace(path, cycles=path.cycles[:-1] + (dataclasses.replace(
                path.cycles[-1], points=(nudged(path.cycles[-1].base, 1e-8),) + path.cycles[-1].points[1:]),)),
            motion)),
        "finite-difference velocity off by 1e-4": on_continued(lambda cycle, alpha, path, motion: (
            cycle, alpha, path, motion._replace(fd_velocity=motion.fd_velocity + 1e-4,
                                                discrepancy=abs(motion.alpha - motion.fd_velocity - 1e-4)))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="check the checks")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import checks
    import inputs as inp
    import workloads as wl

    case_sets = {"scan-boundary": scan_cases, "deep-orbit": deep_cases, "cycle-census": census_cases}
    missed = 0
    for workload, build_cases in case_sets.items():
        inputs = inp.inputs_for(workload, args.seed)
        maps = wl.build_maps(inputs.map_texts)
        round_fn, _ = wl.ROUNDS[workload]
        outputs = round_fn(inputs, maps, parallel=True).outputs
        checks.CHECKS[workload](inputs, outputs)
        print(f"{workload}: clean outputs pass")
        for name, corrupt in build_cases(outputs).items():
            bad = copy.copy(outputs)
            corrupt(bad)
            try:
                checks.CHECKS[workload](inputs, bad)
            except checks.CheckFailed as err:
                print(f"{workload}: caught {name}: {err}")
            else:
                missed += 1
                print(f"{workload}: MISSED {name}")
    print("all corruptions caught" if not missed else f"{missed} corruption(s) missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
