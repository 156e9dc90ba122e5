"""Lane arithmetic against XComplex, value by value and bit for bit."""

import numpy as np
import pytest

from ratpert.xcomplex import (
    XComplex,
    add_lanes,
    mul_lanes,
    normalize_lanes,
    reciprocal_lanes,
)

# moduli on or next to the doubling boundary of the normalization; for the
# last two, np.hypot gives 1.0 and math.hypot 0.9999999999999999
TIES = [1 + 0j, 0.6 + 0.8j, 0.7071067811865476 + 0.7071067811865475j,
        -0.8 + 0.6j, 0.9999999999999999 + 1e-8j, 4 + 0j, -16j,
        0.731964383509655 + 0.681342895518351j, 0.8868838049670993 - 0.46199255025062913j]


def _random_values(seed, n=4000):
    rng = np.random.default_rng(seed)
    zs = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
    zs[::50] = 0
    zs[1::50] = rng.choice(TIES, size=len(zs[1::50]))
    values = [XComplex.from_complex(z) for z in zs]
    # exponents spread so that add gaps straddle MANTISSA_BITS
    shifts = rng.integers(-60, 61, n)
    return [XComplex(v.mantissa, v.exponent + int(s)) if not v.is_zero else v
            for v, s in zip(values, shifts)]


def _lanes(values):
    m = np.array([v.mantissa for v in values])
    return m.real.copy(), m.imag.copy(), np.array([v.exponent for v in values], dtype=np.int64)


def _scalars(lane):
    re, im, e = lane
    return [XComplex.zero() if r == 0 and i == 0 else XComplex(complex(r, i), int(x))
            for r, i, x in zip(re.tolist(), im.tolist(), e.tolist())]


@pytest.mark.parametrize("seed", [0, 1])
def test_normalize_matches_from_complex(seed):
    rng = np.random.default_rng(seed)
    zs = np.concatenate([
        rng.uniform(-3, 3, 2000) + 1j * rng.uniform(-3, 3, 2000),
        np.array(TIES) * 2.0 ** rng.integers(-40, 40, len(TIES)),
        [0j, 1e-310 + 0j, 1e300 - 1e300j],
    ])
    lane = normalize_lanes(zs.real.copy(), zs.imag.copy(), np.zeros(len(zs), dtype=np.int64))
    assert _scalars(lane) == [XComplex.from_complex(z) for z in zs]


def test_normalize_takes_any_shape():
    # the tie fix-up indexes the flat lanes, so a block of steps x lanes
    # normalizes as its rows would, ties included
    rng = np.random.default_rng(2)
    zs = rng.uniform(-3, 3, 24) + 1j * rng.uniform(-3, 3, 24)
    zs[::4] = rng.choice(TIES, size=6) * 2.0 ** rng.integers(-5, 5, 6)
    flat = normalize_lanes(zs.real.copy(), zs.imag.copy(), 0)
    block = normalize_lanes(zs.real.reshape(4, 6), zs.imag.reshape(4, 6), 0)
    assert all(np.array_equal(x.ravel(), y) for x, y in zip(block, flat))


@pytest.mark.parametrize("seed", [0, 1])
def test_mul_add_reciprocal_match_xcomplex(seed):
    a = _random_values(seed)
    b = _random_values(seed + 100)
    la, lb = _lanes(a), _lanes(b)
    assert _scalars(mul_lanes(la, lb)) == [x * y for x, y in zip(a, b)]
    assert _scalars(add_lanes(la, lb)) == [x + y for x, y in zip(a, b)]
    nonzero = [x for x in a if not x.is_zero]
    assert _scalars(reciprocal_lanes(_lanes(nonzero))) == [x.reciprocal() for x in nonzero]
