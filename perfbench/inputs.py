"""Workload inputs, generated from the workload seed.

Everything here is plain data (map texts, numbers, regions) so that the
set-up probe, the workload runner and the checks build the same inputs
from the same seed.  Nothing here imports ratpert.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

WORKLOADS = ("scan-boundary", "deep-orbit", "cycle-census")


def complex_text(z: complex) -> str:
    """A complex number in the `a+bi` form the ratpert CLI parses, exact to
    the last bit (shortest round-trip reprs of both parts)."""
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _disk_point(rng: random.Random, radius: float) -> complex:
    """Uniform point of the open disk |c| < radius."""
    return radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def _small_complex(rng: random.Random, size: float) -> complex:
    return complex(rng.uniform(-size, size), rng.uniform(-size, size))


# ---------------------------------------------------------------------------
# scan-boundary
# ---------------------------------------------------------------------------

#: z^2 + c grid straddling the top of the period-2 bulb (centre -1, radius
#: 1/4): most points are undecided candidates near the boundary, the rest
#: escape, and a few deep inside the bulb (periods 2 and 8) attract.
SCAN_REGION = (-1.05, -0.95, 0.18, 0.28)
SCAN_RESOLUTION = (16, 16)
SCAN_ORBIT_LENGTH = 256
RENDER_RESOLUTION = (256, 256)
RENDER_MAX_ITER = 256


@dataclass(frozen=True)
class ScanInputs:
    region: tuple[float, float, float, float]
    field: tuple[complex, complex]  # v(z) = field[0] + field[1] * z
    julia_c: complex

    @property
    def map_texts(self) -> tuple[str, ...]:
        return (f"unicritical:2,{complex_text(self.julia_c)}",)


def scan_inputs(seed: int) -> ScanInputs:
    """The grid is shifted by a seeded sub-pixel offset, so class shares
    stay close to those of the reference region whatever the seed."""
    rng = random.Random(f"scan-boundary:{seed}")
    re_min, re_max, im_min, im_max = SCAN_REGION
    nx, ny = SCAN_RESOLUTION
    sx = rng.random() * (re_max - re_min) / nx
    sy = rng.random() * (im_max - im_min) / ny
    region = (re_min + sx, re_max + sx, im_min + sy, im_max + sy)
    field = (1 + 0j, _small_complex(rng, 0.5))
    julia_c = complex((region[0] + region[1]) / 2, (region[2] + region[3]) / 2)
    return ScanInputs(region, field, julia_c)


# ---------------------------------------------------------------------------
# deep-orbit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeepMap:
    text: str
    critical_point: complex
    terms: int
    #: Coefficients (lowest degree first) of numerator and denominator, for
    #: the checks' own evaluation of the map.
    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    postcritically_finite: bool


#: Three postcritically finite maps, whose orbit sums have closed forms, and
#: one non-polynomial map that shows summable evidence.
DEEP_MAPS = (
    DeepMap("unicritical:2,-2+0i", 0j, 20000, (-2, 0, 1), (1,), True),
    DeepMap("unicritical:2,0+1i", 0j, 10000, (1j, 0, 1), (1,), True),
    DeepMap("rational:0,-3,0,4/1", 0.5 + 0j, 10000, (0, -3, 0, 4), (1,), True),
    DeepMap("rational:-2,0,1/1,0,0.001", 0j, 20000, (-2, 0, 1), (1, 0, 0.001), False),
)

#: Degree of the moment vector (monomials z^0 .. z^MOMENT_DEGREE).
MOMENT_DEGREE = 5


@dataclass(frozen=True)
class DeepInputs:
    maps: tuple[DeepMap, ...]
    field: tuple[complex, ...]  # v(z) = sum field[j] z^j

    @property
    def map_texts(self) -> tuple[str, ...]:
        return tuple(m.text for m in self.maps)


def deep_inputs(seed: int) -> DeepInputs:
    """Fixed maps; the seed draws the perturbation field v = 1 + a z + b z^2."""
    rng = random.Random(f"deep-orbit:{seed}")
    field = (1 + 0j, _small_complex(rng, 0.5), _small_complex(rng, 0.25))
    return DeepInputs(DEEP_MAPS, field)


# ---------------------------------------------------------------------------
# cycle-census
# ---------------------------------------------------------------------------

#: Periods censused on the seeded maps, by degree.  Longer periods come up
#: short on some seeds (see CENSUS_FIXED_PERIODS), so they are run on fixed maps only.
CENSUS_PERIODS = {2: tuple(range(1, 7)), 3: tuple(range(1, 5))}

#: Periods whose census comes up short for some c: run on maps drawn from a
#: fixed seed, so the shortfall is the same in every run.
CENSUS_FIXED_PERIODS = {2: (7, 8, 9), 3: (5,)}

#: Highest period whose cycles are continued, by degree.
CONTINUE_MAX_PERIOD = {2: 3, 3: 2}

#: Cycles are continued only when |multiplier| exceeds this (the method
#: needs repelling cycles; the margin keeps clear of the degeneracy stop).
CONTINUE_MIN_MULTIPLIER = 1.1
CONTINUE_LAMBDA = 1e-3 + 0j
CONTINUE_STEPS = 64
MOTION_H = 1e-5


@dataclass(frozen=True)
class CensusMap:
    degree: int
    c: complex
    periods: tuple[int, ...]
    continue_max_period: int

    @property
    def text(self) -> str:
        return f"unicritical:{self.degree},{complex_text(self.c)}"


@dataclass(frozen=True)
class CensusInputs:
    maps: tuple[CensusMap, ...]

    @property
    def map_texts(self) -> tuple[str, ...]:
        return tuple(m.text for m in self.maps)


def census_inputs(seed: int) -> CensusInputs:
    """One seeded z^2+c and one seeded z^3+c with |c| < 2, plus one fixed
    map of each degree for the periods that come up short."""
    rng = random.Random(f"cycle-census:{seed}")
    fixed = random.Random("cycle-census:fixed")
    maps = []
    for d in (2, 3):
        maps.append(CensusMap(d, _disk_point(rng, 2.0), CENSUS_PERIODS[d], CONTINUE_MAX_PERIOD[d]))
    for d in (2, 3):
        maps.append(CensusMap(d, _disk_point(fixed, 2.0), CENSUS_FIXED_PERIODS[d], 0))
    return CensusInputs(tuple(maps))


def inputs_for(workload: str, seed: int):
    if workload == "scan-boundary":
        return scan_inputs(seed)
    if workload == "deep-orbit":
        return deep_inputs(seed)
    if workload == "cycle-census":
        return census_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def necklace_count(n: int, d: int) -> int:
    """Number of cycles of exact period n of z^d + c: (1/n) sum_{k|n} mu(n/k) d^k."""
    total = sum(_moebius(n // k) * d**k for k in range(1, n + 1) if n % k == 0)
    return total // n


def _moebius(m: int) -> int:
    result, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result
