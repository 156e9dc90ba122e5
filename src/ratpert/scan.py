"""Parameter-space sweeps for the unicritical families z**d + c.

Each grid or path point is classified (escaping / attracting / candidate);
candidates get the full orbit diagnostics: summability evidence, the
obstruction growth exponent for the configured field, and the constant-field
orbit sum.  The points of a chunk are classified together as numpy lanes,
and then its candidates run together as lanes too (see lanes.py), both
bit-identical to the per-point chain, which still serves every lane that
leaves the batch and every chunk with fewer than CLASSIFY_MIN_LANES points
or CANDIDATE_MIN_LANES candidates.  Rows are independent of each other and are always aggregated
in index order, so the output is byte-reproducible regardless of the
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import CriticalRelationError, RatpertError, ShapeError
from .fields import CONSTANT_ONE, VectorFieldSpec
from .lanes import CANDIDATE_MIN_LANES, CLASSIFY_MIN_LANES, _classify_lanes, candidate_lanes
from .maps import MapSpec, default_escape_radius
from .mu import mu_functional
from .obstruction import obstruction_sequence
from .orbits import (
    classify_parameter,
    default_summability_window,
    iterate_orbit,
    summability_report,
)


@dataclass(frozen=True)
class Rectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"rectangle bounds must be finite, got {bounds}")
        # the far corner bounds the modulus of every point inside
        if not math.isfinite(math.hypot(max(map(abs, bounds[:2])), max(map(abs, bounds[2:])))):
            raise ValueError(f"the modulus of the far corner of {bounds} overflows")
        if not (self.re_min <= self.re_max and self.im_min <= self.im_max):
            raise ValueError("rectangle must have re_min <= re_max and im_min <= im_max")

    def _pixel_centres(self, nx: int, ny: int) -> np.ndarray:
        """The centres of an nx by ny pixel grid, row-major (imaginary axis
        outer, real axis inner), as a flat complex array."""
        xs = self.re_min + (np.arange(nx) + 0.5) * ((self.re_max - self.re_min) / nx)
        ys = self.im_min + (np.arange(ny) + 0.5) * ((self.im_max - self.im_min) / ny)
        return (xs[None, :] + 1j * ys[:, None]).ravel()


#: The most worker processes a scan may start: scan_parameters starts
#: min(worker_count, points) of them, so an unchecked count could start one
#: process per point.
MAX_WORKERS = 64

#: Points times orbit_length below which a scan runs in-process whatever its
#: worker_count.  Starting the pool and shipping the chunks and rows costs
#: tens of ms, and the lane loops cost nearly as much for half the lanes.
#: On z**2 + c grids over the scan-boundary region at orbit 256 (median
#: wall times, 7-18 alternating runs a size, 2-CPU x86-64 box, Python
#: 3.11, numpy 2.4), 2 workers took 0.141 s against 0.088 s in-process at
#: 65,536 steps, 0.143 s against 0.144 s at 102,400, and 0.139 s against
#: 0.169 s at 147,456, down to 0.379 s against 0.604 s at 589,824.
MIN_POOL_STEPS = 100_000


@dataclass(frozen=True)
class ScanConfig:
    """A sweep over a pixel-centered rectangle grid or an explicit c path."""

    d: int = 2
    region: Rectangle | None = None
    resolution: tuple[int, int] | None = None  # (nx, ny)
    path: tuple[complex, ...] | None = None
    orbit_length: int = 256
    field: VectorFieldSpec = dataclass_field(default_factory=lambda: CONSTANT_ONE)
    escape_radius: float | None = None
    worker_count: int = 1

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("family degree must be >= 2")
        if self.orbit_length < 16:
            raise ValueError("orbit_length must be >= 16")
        if not 1 <= self.worker_count <= MAX_WORKERS:
            raise ValueError(f"worker_count must be between 1 and {MAX_WORKERS}, got {self.worker_count}")
        if self.escape_radius is not None and not 0 < self.escape_radius < math.inf:
            raise ValueError(f"escape_radius must be positive and finite, got {self.escape_radius}")
        has_grid = self.region is not None or self.resolution is not None
        if has_grid == (self.path is not None):
            raise ValueError("provide either region+resolution or a path, not both")
        if has_grid:
            if self.region is None or self.resolution is None:
                raise ValueError("grid scans need both region and resolution")
            nx, ny = self.resolution
            if nx < 1 or ny < 1:
                raise ValueError("resolution must be >= 1 in each axis")
        elif not self.path:
            raise ValueError("path must be nonempty")
        else:
            path = np.asarray(self.path, dtype=complex)
            with np.errstate(over="ignore"):
                bad = ~np.isfinite(np.hypot(path.real, path.imag))
            if bad.any():
                raise ValueError(f"path point {complex(path[bad.argmax()])} or its modulus is not finite")

    def points(self) -> tuple[complex, ...]:
        """Scan points: the path as given, or grid pixel centers row-major
        (imaginary axis outer, real axis inner)."""
        if self.path is not None:
            return tuple(complex(c) for c in self.path)
        return tuple(self.region._pixel_centres(*self.resolution).tolist())


@dataclass(frozen=True)
class ScanRow:
    """Per-parameter outcome.  growth_exponent and mu_constant are only
    present for candidate rows whose orbit diagnostics succeeded; failures
    are recorded in flags, never raised."""

    c: complex
    kind: str  # "escaping" | "attracting" | "candidate"
    period: int | None
    summability: str | None
    growth_exponent: float | None
    mu_constant: complex | None
    flags: tuple[str, ...]


def _candidate_row(
    c: complex, d: int, orbit_length: int, field: VectorFieldSpec, radius: float
) -> ScanRow:
    """The per-point candidate chain: orbit, summability, obstruction, and
    the constant-field functional on summable evidence."""
    flags: list[str] = []
    try:
        map = MapSpec.unicritical(d, c)
        orbit = iterate_orbit(map, 0j, n_max=orbit_length, escape_radius=radius)
    except CriticalRelationError as err:
        return ScanRow(
            c, "candidate", None, None, None, None, (f"critical-relation@{err.index}",)
        )
    except RatpertError as err:
        return ScanRow(c, "candidate", None, None, None, None, (f"orbit-error:{err}",))

    summability = None
    try:
        report = summability_report(
            orbit, default_summability_window(len(orbit.points))
        )
        summability = report.classification
    except (RatpertError, ValueError) as err:
        flags.append(f"summability-error:{err}")

    growth = None
    try:
        series = obstruction_sequence(orbit, field, orbit.truncated_at + 1)
        growth = series.growth_exponent
        flags.append(f"obstruction={series.bounded_evidence}")
    except RatpertError as err:
        flags.append(f"obstruction-error:{err}")

    mu_value = None
    if summability == "summable-evidence":
        try:
            result = mu_functional(orbit, CONSTANT_ONE)
            mu_value = result.value
            if not result.converged:
                flags.append("mu-not-converged")
        except RatpertError as err:
            flags.append(f"mu-error:{err}")

    return ScanRow(c, "candidate", None, summability, growth, mu_value, tuple(flags))


def _scan_chunk(task: tuple) -> list[ScanRow]:
    """Rows of consecutive scan points: classify them and run the candidates
    as lanes, with the per-point chain for lanes that leave.  Fewer than
    CLASSIFY_MIN_LANES points are classified one by one, and fewer than
    CANDIDATE_MIN_LANES candidates all take the per-point chain, since the
    lanes are slower there."""
    points, d, orbit_length, field, escape_radius = task
    radii = [
        default_escape_radius(d, c) if escape_radius is None else escape_radius
        for c in points
    ]
    if len(points) >= CLASSIFY_MIN_LANES:
        classes = _classify_lanes(list(points), radii, d, orbit_length)
    else:
        classes = [
            classify_parameter(c, d, n_max=orbit_length, escape_radius=radius)
            for c, radius in zip(points, radii)
        ]
    rows: list[ScanRow | None] = []
    candidates: list[tuple[int, complex, float]] = []
    for c, radius, cls in zip(points, radii, classes):
        if cls.kind in ("escaping", "attracting"):
            rows.append(ScanRow(c, cls.kind, cls.period, None, None, None, ()))
        else:
            candidates.append((len(rows), c, radius))
            rows.append(None)

    results = (
        candidate_lanes(
            [c for _, c, _ in candidates],
            [radius for _, _, radius in candidates],
            d,
            orbit_length,
            field,
        )
        if len(candidates) >= CANDIDATE_MIN_LANES
        else [None] * len(candidates)
    )
    for (index, c, radius), result in zip(candidates, results):
        if result is None:
            rows[index] = _candidate_row(c, d, orbit_length, field, radius)
        else:
            summability, growth, evidence = result
            rows[index] = ScanRow(
                c, "candidate", None, summability, growth, None,
                (f"obstruction={evidence}",),
            )
    return rows


def scan_parameters(config: ScanConfig) -> tuple[ScanRow, ...]:
    """Run the sweep; rows come back in grid/path order regardless of
    worker_count, so repeated runs are byte-identical.

    With worker_count > 1 the points are split into worker_count contiguous
    chunks of equal size (within one point), one per worker process, unless
    the scan has fewer than MIN_POOL_STEPS orbit steps: it then runs
    in-process, as with one worker.
    """
    points = config.points()
    task = (config.d, config.orbit_length, config.field, config.escape_radius)
    workers = min(config.worker_count, len(points))
    if workers == 1 or len(points) * config.orbit_length < MIN_POOL_STEPS:
        return tuple(_scan_chunk((points, *task)))
    bounds = [len(points) * i // workers for i in range(workers + 1)]
    chunks = [(points[a:b], *task) for a, b in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return tuple(row for rows in pool.map(_scan_chunk, chunks) for row in rows)


@dataclass(frozen=True)
class HeatmapGrid:
    """Growth-exponent image with a parallel per-cell kind channel.

    kinds: 0 candidate (value = fitted exponent), 1 attracting (value 0
    sentinel), 2 escaping (value -1 sentinel), 3 candidate whose exponent
    is missing (value nan).
    """

    values: np.ndarray
    kinds: np.ndarray


def growth_heatmap(rows: tuple[ScanRow, ...], config: ScanConfig) -> HeatmapGrid:
    """Arrange scan rows into the (ny, nx) exponent grid of the config."""
    if config.region is None or config.resolution is None:
        raise ShapeError("growth_heatmap needs a rectangular scan config")
    nx, ny = config.resolution
    if len(rows) != nx * ny:
        raise ShapeError(f"{len(rows)} rows do not fill a {nx}x{ny} grid")
    values = np.zeros((ny, nx), dtype=float)
    kinds = np.zeros((ny, nx), dtype=np.uint8)
    for index, row in enumerate(rows):
        iy, ix = divmod(index, nx)
        if row.kind == "attracting":
            values[iy, ix] = 0.0
            kinds[iy, ix] = 1
        elif row.kind == "escaping":
            values[iy, ix] = -1.0
            kinds[iy, ix] = 2
        elif row.growth_exponent is None or not math.isfinite(row.growth_exponent):
            values[iy, ix] = math.nan
            kinds[iy, ix] = 3
        else:
            values[iy, ix] = row.growth_exponent
            kinds[iy, ix] = 0
    return HeatmapGrid(values, kinds)


#: Pixels per block of the escape loop.  A block runs every iteration to
#: completion, so its few working arrays stay in cache.  Median ms per
#: 256x256 scan-boundary render at window 16 (2-CPU x86-64 box, numpy 2.4):
#: 40.7 at 4,096 pixels, 33.7 at 8,192 (40.1 against 41.1 here in a rerun),
#: 35.8 here, 38.8 at 32,768, 62.3 at 65,536.
ESCAPE_BLOCK = 16_384

#: Steps of a block between two escape tests.  Same renders: 41.9 ms at 4,
#: 38.6 at 8, 35.8 here, 35.6 at 32, 35.2 at 64; the replay grows with it.
ESCAPE_WINDOW = 16


def _escape_step(z: np.ndarray, c: np.ndarray, w: np.ndarray, d: int, out: np.ndarray) -> None:
    """out <- z**d + c: z*z, d - 2 more multiplications by z, plus c."""
    np.multiply(z, z, out=w)
    for _ in range(d - 2):
        np.multiply(w, z, out=w)
    np.add(w, c, out=out)


def _escape_counts(z: np.ndarray, c: np.ndarray, radius: float, max_iter: int, d: int) -> np.ndarray:
    """Escape counts of z -> z**d + c for flat complex arrays z (start) and
    c, block by block with in-place ufuncs in the order of the plain mask
    loop, so the counts are bit-identical to it.  A block tests |z| <=
    radius once per ESCAPE_WINDOW steps; the window's first step writes to
    a second buffer, which keeps the start z.  Pixels that fail the test
    are replayed from there one step at a time for their first k with not
    |z_k| <= radius.  That is exact when the radius traps (radius >= 2 and
    every |c| <= (radius**d - radius)/2): a pixel with |z| > radius stays
    out, and a non-finite one non-finite.  Other radii take windows of one
    step.  An escaped pixel is parked at z = c = 0, a fixed point inside
    any positive radius; a block drops its parked pixels once fewer than
    half of them are live."""
    counts = np.full(z.size, max_iter, dtype=np.int32)
    with np.errstate(over="ignore", invalid="ignore"):
        # the trap as radius**(d - 1) >= 2|c|/radius + 1: the left side may
        # overflow to inf, the right side cannot
        cmax = np.abs(c).max(initial=0.0)
        traps = radius >= 2 and 2 * (cmax / radius) + 1 <= np.float64(radius) ** (d - 1)
        window = ESCAPE_WINDOW if traps else 1
        for start in range(0, z.size, ESCAPE_BLOCK):
            ids = np.arange(start, min(start + ESCAPE_BLOCK, z.size))
            zb, cb, live = z[ids], c[ids], ids.size
            w, z0, size, inside = np.empty_like(zb), np.empty_like(zb), np.empty(live), np.empty(live, bool)
            for k in range(0, max_iter, window):
                steps = min(window, max_iter - k)
                # the first step writes to the other buffer: z0 keeps the window's start
                zb, z0 = z0, zb
                _escape_step(z0, cb, w, d, zb)
                for _ in range(steps - 1):
                    _escape_step(zb, cb, w, d, zb)
                np.abs(zb, out=size)
                # not (|z| <= radius): an overflow to nan escapes too
                np.less_equal(size, radius, out=inside)
                if inside.all():
                    continue
                out = np.flatnonzero(~inside)
                # a trapped pixel that left stays out, and it is out after the
                # last step: its count is k + 1 plus the earlier steps it stayed in
                zr, cr, stayed = z0[out], cb[out], np.zeros(out.size, np.int32)
                for _ in range(steps - 1):
                    _escape_step(zr, cr, w[: out.size], d, zr)
                    stayed += np.abs(zr) <= radius
                counts[ids[out]] = k + 1 + stayed
                zb[out] = cb[out] = 0
                ids[out] = -1
                live -= out.size
                if not live:
                    break
                if 2 * live < ids.size:
                    keep = ids >= 0
                    zb, cb, ids = zb[keep], cb[keep], ids[keep]
                    w, z0, size, inside = w[:live], z0[:live], size[:live], inside[:live]
    return counts


def render_escape(
    config: ScanConfig,
    max_iter: int,
    julia_c: complex | None = None,
) -> np.ndarray:
    """Escape-time counts per pixel (int32, shape (ny, nx)).

    Parameter-plane mode iterates the critical orbit of z**d + c for each
    pixel c; with julia_c given, the pixel is the starting z and the map is
    fixed.  A pixel that never leaves the escape radius reports max_iter;
    otherwise the count is the first iterate index k with not
    |z_k| <= radius, so an iterate that overflows to nan counts as escaped.
    """
    if config.region is None or config.resolution is None:
        raise ValueError("render_escape needs region and resolution")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if julia_c is not None:
        julia_c = complex(julia_c)
        if not math.isfinite(math.hypot(julia_c.real, julia_c.imag)):
            raise ValueError(f"julia_c {julia_c} or its modulus is not finite")
    nx, ny = config.resolution
    r = config.region
    pixels = r._pixel_centres(nx, ny)

    if julia_c is None:
        # the corner scale bounds every pixel's |c|; where the sum of the
        # parts overflows, the far corner's modulus (finite, by Rectangle)
        z, c = np.zeros_like(pixels), pixels
        re, im = max(abs(r.re_min), abs(r.re_max)), max(abs(r.im_min), abs(r.im_max))
        scale = re + im
        if not math.isfinite(scale):
            scale = math.hypot(re, im)
    else:
        z, c, scale = pixels, np.full_like(pixels, julia_c), julia_c
    radius = config.escape_radius
    if radius is None:
        radius = default_escape_radius(config.d, scale)
    return _escape_counts(z, c, radius, max_iter, config.d).reshape(ny, nx)
