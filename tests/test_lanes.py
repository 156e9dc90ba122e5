"""Lane arithmetic against XComplex, value by value and bit for bit."""

from itertools import accumulate
from operator import mul

import numpy as np
import pytest

from ratpert.xcomplex import (
    MANTISSA_BITS,
    XComplex,
    _ZERO,
    _add,
    _has_tiny,
    _lane_values,
    _mul,
    _value_lanes,
    affine_lanes,
    normalize_lanes,
    product_lanes,
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
    # exponents spread over 120 places
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
def test_reciprocal_matches_xcomplex(seed):
    a = _random_values(seed)
    nonzero = [x for x in a if not x.is_zero]
    assert _scalars(reciprocal_lanes(_lanes(nonzero))) == [x.reciprocal() for x in nonzero]


# The raw runs on lanes against the scalar steps.  Each lane is a run of its
# own kind; rows are steps, columns lanes.

TINY = 2.0**-950  # a component this far below the modulus is tiny
UNITS = [1 + 0j, -1 + 0j, 1j, -1j]  # np.hypot on the bottom edge of a binade
# exponent gaps of w below the product: both sides of the drop boundary
# (53 | 54), the near side of the take-w boundary (-53; the v-dominates
# lanes cross it), and gaps far from either
GAPS = [-53, -52, -51, 51, 52, 53, 54, 55, 56, -20, 0, 3, 30, 1000]
UNIT_GAPS = [1000, 1000, 52, 55, -52, 0]
STEPS = 24


def bits(values):
    """Values with their floats in hex, so that -0.0 and 0.0 differ."""
    return [(v.mantissa.real.hex(), v.mantissa.imag.hex(), v.exponent) for v in values]


def _value(rng, mantissas, exponents=(-2, 3)):
    return XComplex.from_complex(complex(rng.choice(mantissas))) * XComplex(1 + 0j, int(rng.integers(*exponents)))


def _plain(rng):
    """A generic mantissa or one of the TIES."""
    if rng.random() < 0.6:
        return XComplex(1 + 0j, int(rng.integers(-2, 3))) * XComplex.from_complex(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    return _value(rng, TIES)


def _tiny(rng):
    return XComplex.from_complex(complex(rng.uniform(1, 2), rng.choice([TINY, -TINY])))


def _affine_lane(rng, kind):
    """The starting term and the dz and w values of one lane.  Each w is
    placed at a gap below its step's product, so that the additions land on
    the drop boundary and on the take-w boundary."""
    if kind == "zero-start":
        start = _ZERO
    elif kind == "units-tie":
        start = _value(rng, UNITS)
    else:
        start = _plain(rng)
    term = start
    special = int(rng.integers(1, STEPS))
    dzs, ws = [], []
    for s in range(STEPS):
        if kind.startswith("units"):
            # exact unit products: np.hypot on a binade edge
            d, u, gap = _value(rng, UNITS), _value(rng, UNITS), int(rng.choice(UNIT_GAPS))
            if kind == "units-tie":
                gap = int(rng.choice([53, 54, -53])) if s == special else 1000
        else:
            d, u, gap = _plain(rng), _plain(rng), int(rng.choice(GAPS))
            if kind == "v-dominates" and s == special:
                gap = int(rng.choice([-54, -55, -60]))
        if kind == "zero-start" and s == 0:
            d = _ZERO  # DR at the critical point
            u = _ZERO if rng.random() < 0.5 else u  # v(0) = 0, as for v = z
        if s == special and kind == "tiny-dz":
            d = _tiny(rng)
        p = _mul(d, term)
        u = XComplex(u.mantissa, p.exponent - gap) if not (u.is_zero or p.is_zero) else u
        if s == special:
            if kind == "zero-w":
                u = _ZERO
            elif kind == "tiny-w":
                u = _tiny(rng)
            elif kind == "cancel":
                u = XComplex(-p.mantissa, p.exponent)
        dzs.append(d)
        ws.append(u)
        term = _add(p, u)
    return start, dzs, ws


def _affine_reference(term, dzs, ws):
    """The terms of the _add(_mul) steps, and whether affine_lanes must let
    the lane leave: the rules of its docstring, in scalar terms."""
    values, leave = [], False
    for d, u in zip(dzs, ws):
        p = _mul(d, term)
        if not term.is_zero:
            m, h = np.frexp(np.hypot(p.mantissa.real, p.mantissa.imag))
            x = p.exponent + int(h) - 1 - u.exponent
            edge = m in (0.5, 1.0 - 2.0**-53)
            leave |= u.is_zero or x < -MANTISSA_BITS or (edge and MANTISSA_BITS <= abs(x) <= MANTISSA_BITS + 1)
        term = _add(p, u)
        leave |= any(_has_tiny(x.mantissa.real, x.mantissa.imag) for x in (d, u, term))
        leave |= term.is_zero and not p.is_zero
        values.append(term)
    return values, leave


def _rows(per_lane):
    """Rows of lanes from one list of values per lane."""
    return tuple(np.stack(x) for x in zip(*(_value_lanes(step) for step in zip(*per_lane))))


AFFINE_KINDS = ["plain", "units", "zero-start"]
LEAVING_KINDS = ["units-tie", "v-dominates", "zero-w", "tiny-dz", "tiny-w", "cancel"]


def _run(run, *lanes):
    with np.errstate(all="ignore"):
        return run(*lanes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affine_lanes_are_the_add_steps(seed):
    rng = np.random.default_rng(seed)
    every = AFFINE_KINDS * 3 + LEAVING_KINDS
    kinds = [every[i % len(every)] for i in range(300)]
    starts, dzs, ws = zip(*(_affine_lane(rng, kind) for kind in kinds))
    want = [_affine_reference(*case) for case in zip(starts, dzs, ws)]
    term, dz, w = _value_lanes(starts), _rows(dzs), _rows(ws)
    rows, leave = _run(affine_lanes, term, dz, w)

    assert leave.tolist() == [lane_leaves for _, lane_leaves in want]
    for i in np.flatnonzero(~leave):
        assert bits(_lane_values(*(x[:, i] for x in rows))) == bits(want[i][0])
    # a run split in two, the second half from the last row of the first,
    # keeps the same lanes with the same values
    first, leave_first = _run(affine_lanes, term, *(tuple(x[:10] for x in y) for y in (dz, w)))
    rest, leave_rest = _run(affine_lanes, tuple(x[-1] for x in first), *(tuple(x[10:] for x in y) for y in (dz, w)))
    assert ((leave_first | leave_rest) == leave).all()
    for x, y, z in zip(first, rest, rows):
        assert (np.concatenate([x, y])[:, ~leave] == z[:, ~leave]).all()

    # every lane of the leaving kinds leaves; most lanes of the others
    # stay (TIES hold exact units too), with gaps on both sides of the
    # boundaries
    for kind in AFFINE_KINDS + LEAVING_KINDS:
        share = np.mean([out for k, out in zip(kinds, leave.tolist()) if k == kind])
        assert share == 1.0 if kind in LEAVING_KINDS else share < 0.25, kind


def test_affine_lanes_zero_start():
    # b[0] = 0 with DR = 0 at step 0: b[1] = v(0); where v(0) = 0 (v = z),
    # b[1] = 0 and b[2] = v(z_1).  A later zero v leaves, as does a sum
    # that cancels to zero
    v = [XComplex.from_complex(z) for z in (0.3 - 1j, 1.5 + 0.25j, -0.75 + 0.5j)]
    d = XComplex.from_complex(-1.25 + 0.5j)
    dzs = [[_ZERO, d, d]] * 5
    ws = [v, [_ZERO, *v[1:]], [_ZERO, _ZERO, v[2]], [v[0], _ZERO, v[2]], [v[0], _mul(d, v[0]) * XComplex(-1 + 0j, 0), v[2]]]
    rows, leave = _run(affine_lanes, _value_lanes([_ZERO] * 5), _rows(dzs), _rows(ws))
    assert leave.tolist() == [False, False, False, True, True]
    for i in range(3):
        want, _ = _affine_reference(_ZERO, dzs[i], ws[i])
        assert bits(_lane_values(*(x[:, i] for x in rows))) == bits(want)
    assert bits(_lane_values(*(x[:, 1] for x in rows))) == bits([_ZERO, v[1], _add(_mul(d, v[1]), v[2])])


@pytest.mark.parametrize("seed", [0, 1])
def test_product_lanes_are_the_mul_steps(seed):
    rng = np.random.default_rng(seed)
    entries = [_plain(rng) for _ in range(300)]
    factors = []
    for i in range(300):
        lane = [_value(rng, UNITS) if i % 3 == 0 else _plain(rng) for _ in range(STEPS)]
        if i % 5 == 0:
            lane[int(rng.integers(STEPS))] = _tiny(rng)
        factors.append(lane)
    rows, leave = _run(product_lanes, _value_lanes(entries), _rows(factors))

    want_leave = []
    for i, (entry, lane) in enumerate(zip(entries, factors)):
        raw = np.array(list(accumulate([x.mantissa for x in lane], mul, initial=entry.mantissa))[1:])
        want_leave.append(any(_has_tiny(x.mantissa.real, x.mantissa.imag) for x in lane) or _has_tiny(raw.real, raw.imag))
        if not leave[i]:
            want = []
            for x in lane:
                entry = _mul(entry, x)
                want.append(entry)
            assert bits(_lane_values(*(x[:, i] for x in rows))) == bits(want)
    assert leave.tolist() == want_leave
    assert 0 < leave.sum() < 100
