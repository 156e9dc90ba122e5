"""One round of each workload: the timed calls into the public ratpert API.

Every ratpert function is looked up on its module at call time
(``ratpert.scan_parameters``, ``serialize.encode``), so the tracer's patches
take effect without re-importing anything.

A round returns its outputs and records each timed section's wall time and
item count.  An operation is one checked unit of work; an operation that
comes up short is counted as failed, never raised.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from dataclasses import dataclass, field as dataclass_field

import ratpert
from ratpert import cli, orbits, serialize

import inputs as inp


@dataclass
class Round:
    outputs: dict
    attempted: int = 0
    failed: int = 0
    seconds: dict = dataclass_field(default_factory=lambda: defaultdict(float))
    items: dict = dataclass_field(default_factory=lambda: defaultdict(int))

    def add(self, section: str, started: float, items: int) -> None:
        self.seconds[section] += time.perf_counter() - started
        self.items[section] += items


def build_maps(map_texts) -> dict:
    """MapSpecs parsed from their CLI texts, with critical points cached."""
    maps = {}
    for text in map_texts:
        m = cli.parse_map(text)
        m.critical_points
        maps[text] = m
    return maps


def field_spec(coefficients) -> "ratpert.VectorFieldSpec":
    return ratpert.VectorFieldSpec.from_coefficients(list(coefficients))


# ---------------------------------------------------------------------------
# scan-boundary
# ---------------------------------------------------------------------------


def scan_configs(si: inp.ScanInputs):
    region = ratpert.Rectangle(*si.region)
    scan1 = ratpert.ScanConfig(
        d=2, region=region, resolution=inp.SCAN_RESOLUTION,
        orbit_length=inp.SCAN_ORBIT_LENGTH, field=field_spec(si.field),
    )
    render = ratpert.ScanConfig(d=2, region=region, resolution=inp.RENDER_RESOLUTION)
    return scan1, dataclasses.replace(scan1, worker_count=2), render


def scan_round(si: inp.ScanInputs, maps: dict, parallel: bool) -> Round:
    """scan at 1 worker, scan at 2 workers (when parallel), and the two
    escape renders of the same region."""
    scan1, scan2, render = scan_configs(si)
    npoints = scan1.resolution[0] * scan1.resolution[1]
    npixels = render.resolution[0] * render.resolution[1]
    r = Round(outputs={})

    t = time.perf_counter()
    rows = ratpert.scan_parameters(scan1)
    r.add("scan", t, npoints)
    r.outputs["rows"] = rows
    r.outputs["csv"] = serialize.scan_rows_to_csv(rows)
    r.attempted += 1

    if parallel:
        t = time.perf_counter()
        rows2 = ratpert.scan_parameters(scan2)
        r.add("scan_2w", t, npoints)
        r.outputs["csv_2w"] = serialize.scan_rows_to_csv(rows2)
        r.attempted += 1

    t = time.perf_counter()
    plane = ratpert.render_escape(render, inp.RENDER_MAX_ITER)
    julia = ratpert.render_escape(render, inp.RENDER_MAX_ITER, julia_c=si.julia_c)
    r.add("render", t, 2 * npixels)
    r.outputs["render_plane"] = plane
    r.outputs["render_julia"] = julia
    r.attempted += 2
    return r


def scan_fingerprint(r: Round):
    return (r.outputs["csv"], r.outputs.get("csv_2w"),
            r.outputs["render_plane"].tobytes(), r.outputs["render_julia"].tobytes())


# ---------------------------------------------------------------------------
# deep-orbit
# ---------------------------------------------------------------------------


def deep_round(di: inp.DeepInputs, maps: dict, parallel: bool) -> Round:
    """Per map: the report chain (orbit, summability, mu, moments, witness,
    obstruction), then the JSON export chain of orbit and obstruction."""
    v = field_spec(di.field)
    r = Round(outputs={"maps": []})
    for dm in di.maps:
        m = maps[dm.text]
        # the CLI's rule: the unicritical bound, else 1e6
        if dm.text.startswith("unicritical:"):
            radius = ratpert.default_escape_radius(2, dm.numerator[0])
        else:
            radius = 1e6
        t = time.perf_counter()
        orbit = ratpert.iterate_orbit(m, dm.critical_point, dm.terms, escape_radius=radius)
        report = ratpert.summability_report(
            orbit, orbits.default_summability_window(len(orbit.points))
        )
        mu = ratpert.mu_functional(orbit, v)
        moments = ratpert.moment_vector(orbit, inp.MOMENT_DEGREE)
        witness = ratpert.find_witness_field(moments)
        series = ratpert.obstruction_sequence(orbit, v, orbit.truncated_at + 1)
        r.add("report", t, orbit.truncated_at)
        r.attempted += 1

        t = time.perf_counter()
        orbit_text = serialize.json_dumps(serialize.encode(orbit))
        series_text = serialize.json_dumps(serialize.encode(series))
        orbit_back = serialize.decode(serialize.json_loads(orbit_text))
        series_back = serialize.decode(serialize.json_loads(series_text))
        r.add("export", t, len(orbit.points) + len(series.b))
        r.attempted += 1

        r.outputs["maps"].append({
            "spec": dm, "map": m, "orbit": orbit, "report": report, "mu": mu,
            "moments": moments, "witness": witness, "series": series,
            "orbit_text": orbit_text, "series_text": series_text,
            "orbit_back": orbit_back, "series_back": series_back,
        })
    return r


def deep_fingerprint(r: Round):
    return tuple(
        (o["orbit_text"], o["series_text"], o["mu"].value, o["moments"], o["report"])
        for o in r.outputs["maps"]
    )


# ---------------------------------------------------------------------------
# cycle-census
# ---------------------------------------------------------------------------


def census_round(ci: inp.CensusInputs, maps: dict, parallel: bool) -> Round:
    """One census per (map, period): Julia-set seeds plus the Newton search.
    Then, per (map, period) up to the continuation cap, every repelling
    cycle goes through the alpha solve, continuation and motion check.

    A census that finds fewer cycles than the exact count is a failed
    operation; so is a continuation batch in which any cycle does not reach
    the target lambda."""
    v = ratpert.VectorFieldSpec.constant(1.0)
    r = Round(outputs={"censuses": [], "continued": []})
    for cm in ci.maps:
        m = maps[cm.text]
        for period in cm.periods:
            expected = inp.necklace_count(period, cm.degree)
            t = time.perf_counter()
            try:
                seeds = ratpert.default_cycle_seeds(m)
                cycles = ratpert.find_cycles(m, period, seeds)
            except ratpert.RatpertError:
                cycles = None
            r.add("census", t, 1)
            r.attempted += 1
            if cycles is None or len(cycles) != expected:
                r.failed += 1
            r.outputs["censuses"].append((cm, period, expected, cycles))

            if period > cm.continue_max_period:
                continue
            batch = [c for c in cycles or () if abs(c.multiplier) > inp.CONTINUE_MIN_MULTIPLIER]
            t = time.perf_counter()
            results = []
            ok = cycles is not None
            for cycle in batch:
                try:
                    alpha = ratpert.solve_alpha_on_cycle(m, cycle, v)
                    path = ratpert.continue_cycle(
                        m, v, cycle, inp.CONTINUE_LAMBDA, steps=inp.CONTINUE_STEPS
                    )
                    motion = ratpert.motion_velocity_check(m, v, cycle, inp.MOTION_H)
                except ratpert.RatpertError:
                    ok = False
                    continue
                ok = ok and path.stopped_reason == "reached_target"
                results.append((cycle, alpha, path, motion))
            r.add("continue", t, len(batch))
            r.attempted += 1
            if not ok:
                r.failed += 1
            r.outputs["continued"].append((cm, period, results))
    return r


def census_fingerprint(r: Round):
    return (
        tuple((cm, p, cycles) for cm, p, _, cycles in r.outputs["censuses"]),
        tuple((cm, p, tuple((a, path, mo) for _, a, path, mo in res))
              for cm, p, res in r.outputs["continued"]),
    )


ROUNDS = {
    "scan-boundary": (scan_round, scan_fingerprint),
    "deep-orbit": (deep_round, deep_fingerprint),
    "cycle-census": (census_round, census_fingerprint),
}

#: Sections behind the two generic end-to-end rates, by workload.
PRIMARY = {"scan-boundary": "scan", "deep-orbit": "report", "cycle-census": "census"}
SECONDARY = {"scan-boundary": "render", "deep-orbit": "export", "cycle-census": "continue"}

#: The workload-specific rates, printed by name beside the gated metrics.
NAMED_RATES = {
    "scan-boundary": (("scan_pts_per_s", "scan", "pt/s"),
                      ("scan_2w_pts_per_s", "scan_2w", "pt/s"),
                      ("render_px_per_s", "render", "px/s")),
    "deep-orbit": (("report_terms_per_s", "report", "term/s"),
                   ("export_terms_per_s", "export", "term/s")),
    "cycle-census": (("census_ops_per_s", "census", "op/s"),
                     ("continue_cycles_per_s", "continue", "cycle/s")),
}
