"""Overflow-safe complex arithmetic with a separated base-2 exponent.

An :class:`XComplex` stores ``mantissa * 2**exponent`` with the mantissa
modulus normalized into [1, 2) (or exactly zero).  Products of many factors
whose magnitudes grow or shrink exponentially, such as derivative cocycles
along long orbits, stay representable: the exponent is a Python integer and
never saturates, while the mantissa stays in hardware range.

Mantissas are ordinary double-precision complex values, so mantissa
arithmetic carries the usual ~53-bit precision; exponent arithmetic is
exact.

The arithmetic exists once, on XComplex values (``_normalize``, ``_mul``,
``_add``, ``_reciprocal``), and the operators are these functions.  The
orbit's cocycle product and the obstruction recurrence run them as runs
(``_product_run``, ``_affine_run``): plain complex mantissas that are not
normalized, with an integer exponent, normalized once a chunk of up to 512
steps.  Multiplying by a power of two is exact away from overflow and the
subnormal range, so a run's values are those of the scalar steps bit for
bit; a chunk where a component is tiny beside its value's modulus, the one
place where an underflow could round differently, takes the scalar steps.

The same format also runs on numpy lanes (``normalize_lanes`` and the
operations after it at the end of this module): mantissa real and imaginary
parts as float64 arrays and the exponent as an int64 array.  The scan's
candidate lanes run the two runs above in lockstep, one run a lane
(``product_lanes``, ``affine_lanes``), normalized once a call; a lane that
reaches a branch the lockstep steps do not take is flagged to leave.  Each
lane operation repeats its scalar counterpart, so the values of the lanes
that stay are bit-identical to XComplex values; tests/test_lanes.py checks
them against each other.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from math import frexp, hypot, isfinite, ldexp
from operator import mul

import numpy as np

#: Significand width of the mantissa type.  An addend whose exponent lies
#: more than this far below the other operand cannot affect the result.
MANTISSA_BITS = 53


def _scaled(z: complex, shift: int) -> complex:
    """z * 2**shift, componentwise and exact (up to under/overflow)."""
    return complex(ldexp(z.real, shift), ldexp(z.imag, shift))


def _normalize(re: float, im: float, exponent: int) -> "XComplex":
    """The XComplex of (re + i im) * 2**exponent; _ZERO for zero.

    normalize_lanes repeats these steps on arrays; keep the two in step."""
    if re == 0.0 and im == 0.0:
        return _ZERO
    if not (isfinite(re) and isfinite(im)):
        raise ValueError(f"non-finite mantissa components ({re}, {im})")
    # Coarse rescale by the larger component first so that the modulus
    # cannot overflow even for components near the double limits.
    ar, ai = abs(re), abs(im)
    _, e0 = frexp(ar if ar >= ai else ai)  # the larger one, without a max() call
    if e0 != 0:
        re = ldexp(re, -e0)
        im = ldexp(im, -e0)
        exponent += e0
    # Now the larger component is in [0.5, 1), so the modulus is in
    # [0.5, sqrt(2)); at most one doubling remains.
    if hypot(re, im) < 1.0:
        re *= 2.0
        im *= 2.0
        exponent -= 1
    return _make(complex(re, im), exponent)


def _mul(a: "XComplex", b: "XComplex") -> "XComplex":
    """Normalized product; exponent arithmetic is exact, and a zero factor
    gives a zero mantissa, which _normalize makes _ZERO."""
    m = a.mantissa * b.mantissa
    return _normalize(m.real, m.imag, a.exponent + b.exponent)


def _add(a: "XComplex", b: "XComplex") -> "XComplex":
    """Exponent-aligned sum; an addend more than MANTISSA_BITS binary
    places below the other leaves it unchanged."""
    if a.mantissa == 0:
        return _ZERO if b.mantissa == 0 else b
    if b.mantissa == 0:
        return a
    hi, lo = (a, b) if a.exponent >= b.exponent else (b, a)
    shift = hi.exponent - lo.exponent
    if shift > MANTISSA_BITS:
        return hi
    m = hi.mantissa + _scaled(lo.mantissa, -shift)
    return _normalize(m.real, m.imag, hi.exponent)


def _reciprocal(a: "XComplex") -> "XComplex":
    """1/a; raises ZeroDivisionError for zero."""
    if a.mantissa == 0:
        raise ZeroDivisionError("reciprocal of XComplex zero")
    m = 1.0 / a.mantissa
    return _normalize(m.real, m.imag, -a.exponent)


@dataclass(frozen=True, slots=True)
class XComplex:
    """A complex number ``mantissa * 2**exponent`` with |mantissa| in [1, 2).

    Zero is represented canonically as mantissa 0, exponent 0.  Instances
    are immutable; all arithmetic returns new normalized values.  The
    exponent is an arbitrary-precision integer, so exponent overflow is
    structurally impossible (the OverflowError contract of fixed-width
    exponents is unreachable here).
    """

    mantissa: complex
    exponent: int

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_complex(z: complex) -> "XComplex":
        z = complex(z)
        return _normalize(z.real, z.imag, 0)

    @staticmethod
    def zero() -> "XComplex":
        return _ZERO

    @staticmethod
    def one() -> "XComplex":
        return _ONE

    # -- predicates / conversions -------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def to_complex(self) -> complex:
        """Collapse to a plain complex.

        Values below the double range underflow gracefully to 0; values
        above it raise OverflowError.
        """
        if self.is_zero:
            return 0j
        if self.exponent > 1100:
            raise OverflowError(
                f"value 2**{self.exponent} * {self.mantissa} exceeds double range"
            )
        try:
            return _scaled(self.mantissa, self.exponent)
        except OverflowError:
            raise OverflowError(
                f"value 2**{self.exponent} * {self.mantissa} exceeds double range"
            ) from None

    def magnitude(self) -> float:
        """|value| as a float; 0.0 on underflow, inf on overflow."""
        try:
            return ldexp(abs(self.mantissa), self.exponent)
        except OverflowError:
            return math.inf

    def log2_abs(self) -> float:
        """log2 |value|; -inf for zero.  Never over/underflows."""
        if self.is_zero:
            return -math.inf
        return math.log2(abs(self.mantissa)) + self.exponent

    def log_abs(self) -> float:
        """Natural log of |value|; -inf for zero."""
        if self.is_zero:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.exponent * math.log(2.0)

    # -- arithmetic ----------------------------------------------------

    __mul__ = _mul
    __add__ = _add
    reciprocal = _reciprocal

    def __neg__(self) -> "XComplex":
        return XComplex(-self.mantissa, self.exponent)

    def __sub__(self, other: "XComplex") -> "XComplex":
        return self + (-other)

    def __truediv__(self, other: "XComplex") -> "XComplex":
        return self * other.reciprocal()

    def conjugate(self) -> "XComplex":
        return XComplex(self.mantissa.conjugate(), self.exponent)

    def __repr__(self) -> str:
        if self.is_zero:
            return "XComplex(0)"
        return f"XComplex({self.mantissa!r} * 2**{self.exponent})"


_new = object.__new__
_set_mantissa = XComplex.mantissa.__set__
_set_exponent = XComplex.exponent.__set__


def _make(mantissa: complex, exponent: int) -> XComplex:
    """XComplex(mantissa, exponent) filled in through the slots: the frozen
    __init__ would go through object.__setattr__ per field."""
    x = _new(XComplex)
    _set_mantissa(x, mantissa)
    _set_exponent(x, exponent)
    return x


_ZERO = XComplex(0j, 0)
_ONE = XComplex(1 + 0j, 0)


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, and turn it on
    again in finally, also when the body raises.  For the calls that build
    one container or more per orbit term: their results are acyclic, so
    reference counting frees them, and the collections their allocations
    would set off only walk the heap.  A collector already off (a nested
    call, a caller's gc.disable()) stays off.  The switch is process-wide:
    while one thread is in a paused call, no thread's allocations collect."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def mantissa_ulp_gap(a: XComplex, b: XComplex) -> float:
    """Distance between two XComplex values in ulps of a [1, 2) mantissa.

    Aligns exponents when they differ by 1 (a value straddling the
    renormalization boundary); returns inf for larger exponent gaps.
    One ulp here is 2**-52.
    """
    if a.is_zero and b.is_zero:
        return 0.0
    if a.is_zero or b.is_zero:
        return math.inf
    d = a.exponent - b.exponent
    if abs(d) > 1:
        return math.inf
    ma = _scaled(a.mantissa, max(d, 0))
    mb = _scaled(b.mantissa, max(-d, 0))
    return abs(ma - mb) / 2.0 ** -52


# Lane versions.  A lane value is a tuple (re, im, exponent) of arrays; a
# zero lane value keeps zero mantissa components, by which every operation
# recognizes it, and its exponent is never read.

#: Lane moduli this close to 1 are compared with math.hypot, which _normalize
#: uses, not np.hypot, which can differ from it in the last bit.
HYPOT_TIE = 1e-15


def normalize_lanes(re, im, e):
    """_normalize on lanes of any shape: frexp on the larger component, then
    at most one doubling.  Finite components only; zero stays zero."""
    _, e0 = np.frexp(np.maximum(np.abs(re), np.abs(im)))
    re = np.ldexp(re, -e0)
    im = np.ldexp(im, -e0)
    a = np.hypot(re, im)
    double = a < 1.0
    for i in np.flatnonzero(np.abs(a - 1.0) <= HYPOT_TIE):
        double.flat[i] = math.hypot(re.flat[i], im.flat[i]) < 1.0
    scale = np.where(double, 2.0, 1.0)
    return re * scale, im * scale, e + e0 - double


def _complex_list(re, im) -> list[complex]:
    """re + i im as Python complex values, signed zeros and non-finite
    parts kept as they are."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out.tolist()


def _lane_values(re, im, e) -> list[XComplex]:
    """The XComplex values of normalized lanes."""
    values = list(map(_make, _complex_list(re, im), e.tolist()))
    for i in np.flatnonzero((re == 0.0) & (im == 0.0)).tolist():
        values[i] = _ZERO
    return values


def _value_lanes(values):
    """The lanes of a list of XComplex values."""
    m = np.array([x.mantissa for x in values], dtype=complex)
    return m.real, m.imag, np.array([x.exponent for x in values], dtype=np.int64)


# Runs of _mul and _add steps on raw mantissas (see the module docstring):
# each raw step is the normalized step times a power of two.

#: Steps between normalizations.  A factor's modulus is below 2, so a raw
#: product stays below 2**(64 + _RUN_CHUNK + 1), far from overflow.
_RUN_CHUNK = 512

#: _affine_run rescales its raw term's modulus into [1, _RAW_MAX) after a sum.
_RAW_MAX = 2.0**64

#: Runs shorter than this take the scalar steps, which cost less than the
#: numpy calls of one chunk (the two cost the same at 32 to 48 steps).
_RUN_MIN = 48

#: A nonzero component below this fraction of its value's modulus sends a
#: chunk to the scalar steps.  Above it, every partial product a step forms
#: and every addend it aligns stays a normal double at either scale, or is
#: too small to change the component it is added to.
_TINY_PART = 2.0**-900


def _has_tiny(re, im, axis=None):
    """Whether a value has a nonzero component below _TINY_PART of its
    modulus (only the smaller component can be): any value, or any value of
    each lane along axis."""
    small = np.minimum(np.abs(re), np.abs(im))
    return ((small > 0.0) & (small < _TINY_PART * np.hypot(re, im))).any(axis=axis)


def _chunk(lanes, i):
    """The chunk of lanes from step i; the lanes themselves when they are
    one chunk."""
    re, im, e = lanes
    return lanes if len(e) <= _RUN_CHUNK else (re[i : i + _RUN_CHUNK], im[i : i + _RUN_CHUNK], e[i : i + _RUN_CHUNK])


def _product_run(entry, dz):
    """The running products entry * dz[0] * ... * dz[k] of a nonzero
    XComplex entry and nonzero normalized lanes dz: _mul's values step by
    step, bit for bit, as a list of XComplex and as normalized lanes."""
    values, lanes = [], []
    for i in range(0, len(dz[2]), _RUN_CHUNK):
        chunk = _chunk(dz, i)
        if len(chunk[2]) >= _RUN_MIN and not _has_tiny(chunk[0], chunk[1]):
            raw = np.array(list(accumulate(_complex_list(chunk[0], chunk[1]), mul, initial=entry.mantissa)))
            if not _has_tiny(raw.real, raw.imag):
                lanes.append(normalize_lanes(raw.real[1:], raw.imag[1:], entry.exponent + np.cumsum(chunk[2])))
                values += _lane_values(*lanes[-1])
                entry = values[-1]
                continue
        for m in _lane_values(*chunk):
            entry = _mul(entry, m)
            values.append(entry)
        lanes.append(_value_lanes(values[i:]))
    if len(lanes) == 1:
        return values, lanes[0]
    return values, tuple(map(np.concatenate, zip(*lanes))) if lanes else dz


def _affine_run(term, dz, w):
    """The terms of term <- _add(_mul(dz[k], term), w[k]) from an XComplex
    term over finite normalized lanes dz and w: a list of XComplex, bit for
    bit those of the scalar steps.

    The raw term's modulus stays at least about 1: a factor's modulus is at
    least 1, and a sum is rescaled into [1, 2**64).  So the product's
    exponent is at least the frame's less one, and an addend more than 54
    places below the frame is dropped with no hypot call, as _add drops it.
    Otherwise the product's exact exponent, _normalize's (math.hypot scales
    exactly), decides between dropping one operand and adding the other,
    aligned to the frame."""
    values = []
    for i in range(0, len(dz[2]), _RUN_CHUNK):
        d, v = _chunk(dz, i), _chunk(w, i)
        if len(d[2]) >= _RUN_MIN and not (_has_tiny(d[0], d[1]) or _has_tiny(v[0], v[1])):
            zero = (d[0] == 0.0) & (d[1] == 0.0)
            # a zero DR gives a zero product, which the raw steps take for a
            # nonzero one; that is harmless only while the term is zero
            if not (zero[1:].any() or (zero[0] and not term.is_zero)):
                ts, es = _affine_raw(term, d, v)
                raw = np.array(ts)
                if not _has_tiny(raw.real, raw.imag):
                    values += _lane_values(*normalize_lanes(raw.real[1:], raw.imag[1:], np.array(es[1:])))
                    term = values[-1]
                    continue
        for a, b in zip(_lane_values(*d), _lane_values(*v)):
            term = _add(_mul(a, term), b)
            values.append(term)
    return values


def _affine_raw(term, dz, w):
    """_affine_run's steps on raw mantissas: the starting term, then each
    step's, as mantissas t and exponents E whose value is t * 2**E."""
    t, frame = term.mantissa, term.exponent
    ts, es = [t], [frame]
    for d, f, u, g in zip(_complex_list(dz[0], dz[1]), dz[2].tolist(), _complex_list(w[0], w[1]), w[2].tolist()):
        if t:
            t = d * t
            frame += f
            if u and frame - g <= MANTISSA_BITS + 1:
                h = frexp(hypot(t.real, t.imag))[1] - 1 + frame
                if g - h > MANTISSA_BITS:
                    t, frame = u, g
                elif h - g <= MANTISSA_BITS:
                    t += _scaled(u, g - frame)
                    a = abs(t)
                    if not 1.0 <= a < _RAW_MAX:
                        s = frexp(a)[1] - 1
                        t = _scaled(t, -s)
                        frame += s
        elif u:
            t, frame = u, g
        ts.append(t)
        es.append(frame)
    return ts, es


# The same runs on lanes, one run a lane, every lane's steps in lockstep:
# rows are steps, columns lanes.  A call takes at most _RUN_CHUNK steps and
# normalizes them at once.  A lane whose raw steps could differ from the
# scalar ones, or that reaches a branch the lockstep steps do not take,
# leaves: the call flags it, and its rows are not to be read.


def product_lanes(entry, dz):
    """The running products entry * dz[0] * ... * dz[s] of normalized lanes
    entry and rows dz, as normalized rows: _product_run on each lane, one
    cmul_lanes a step, the exponents by one cumsum, one normalize_lanes for
    all rows.  Also the lanes that leave: a component of dz or of a raw
    product is tiny (_has_tiny).  Under np.errstate."""
    re, im = entry[0], entry[1]
    rows_r, rows_i = [], []
    for dr, di in zip(dz[0], dz[1]):
        re, im = cmul_lanes(re, im, dr, di)
        rows_r.append(re)
        rows_i.append(im)
    re, im = np.stack(rows_r), np.stack(rows_i)
    leave = _has_tiny(dz[0], dz[1], axis=0) | _has_tiny(re, im, axis=0)
    return normalize_lanes(re, im, entry[2] + np.cumsum(dz[2], axis=0)), leave


#: The mantissa np.frexp gives at the top of a binade (its bottom is 0.5):
#: at either edge np.hypot and math.hypot, one ulp apart, can give
#: exponents one apart.
_BINADE_TOP = 1.0 - 2.0**-53


def affine_lanes(term, dz, w):
    """The terms of term <- _add(_mul(dz[s], term), w[s]) from normalized
    lanes term over finite normalized rows dz and w, as normalized rows:
    _affine_run on each lane.  Also the lanes that leave.

    A step forms the raw product p = dz[s] * t and the gap x between its
    exponent and w[s]'s (_affine_raw's h - g, from np.hypot).  It keeps p
    where x > MANTISSA_BITS, else adds w[s] aligned to the frame, and
    rescales the sum into [1, 2) by a power of two, which is exact.  A zero
    term takes w[s], as _add does.  A lane leaves where a step is not
    _affine_raw's: x < -MANTISSA_BITS (_add returns w[s]); |x| at
    MANTISSA_BITS or one more while np.hypot(p) lies on a binade edge,
    where math.hypot, which _normalize uses, may give the next exponent; a
    zero w[s] or a zero sum after a nonzero term; a tiny component
    (_has_tiny) of dz, w or a raw term.  Under np.errstate."""
    tr, ti, frame = term
    zero = (tr == 0.0) & (ti == 0.0)
    w_zero = (w[0] == 0.0) & (w[1] == 0.0)
    some_zero = zero.any()
    zeros, gaps, mantissas, rows_r, rows_i, frames = [], [], [], [], [], []
    for dr, di, f, ur, ui, g, u_zero in zip(*dz, *w, w_zero):
        zeros.append(zero)
        pr, pi = cmul_lanes(dr, di, tr, ti)
        frame = frame + f
        shift = g - frame
        m, h = np.frexp(np.hypot(pr, pi))
        x = h - 1 - shift
        add = x <= MANTISSA_BITS
        tr = np.where(add, pr + np.ldexp(ur, shift), pr)
        ti = np.where(add, pi + np.ldexp(ui, shift), pi)
        scale = 1 - np.frexp(np.hypot(tr, ti))[1]
        tr, ti, frame = np.ldexp(tr, scale), np.ldexp(ti, scale), frame - scale
        if some_zero:
            tr, ti, frame = np.where(zero, ur, tr), np.where(zero, ui, ti), np.where(zero, g, frame)
            zero = zero & u_zero
            some_zero = zero.any()
        gaps.append(x)
        mantissas.append(m)
        rows_r.append(tr)
        rows_i.append(ti)
        frames.append(frame)
    re, im, x = np.stack(rows_r), np.stack(rows_i), np.stack(gaps)
    gap = np.abs(x)
    m = np.stack(mantissas)
    tie = (gap >= MANTISSA_BITS) & (gap <= MANTISSA_BITS + 1) & ((m == 0.5) | (m == _BINADE_TOP))
    stray = (x < -MANTISSA_BITS) | tie | w_zero | ((re == 0.0) & (im == 0.0))
    leave = (
        (stray & ~np.stack(zeros)).any(axis=0)
        | _has_tiny(dz[0], dz[1], axis=0)
        | _has_tiny(w[0], w[1], axis=0)
        | _has_tiny(re, im, axis=0)
    )
    return normalize_lanes(re, im, np.stack(frames)), leave


def cmul_lanes(ar, ai, br, bi):
    """Complex product as Python forms it, componentwise (numpy's complex128
    multiply may fuse, Python's does not)."""
    return ar * br - ai * bi, ar * bi + ai * br


def select_lanes(mask, x, y):
    """Lane values taken from x where mask holds, else from y."""
    return tuple(np.where(mask, u, v) for u, v in zip(x, y))


def _cdiv_lanes(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) by CPython's complex division: divide by
    the divisor component of larger modulus.  Each operand is lanes or a
    scalar; a scalar divisor takes its one branch, lanes take both and keep
    one per lane.  A zero divisor gives nan where Python raises
    ZeroDivisionError."""
    # CPython's division overflows and underflows silently, and the branch
    # not taken may divide by zero
    with np.errstate(all="ignore"):
        if isinstance(br, np.ndarray) or isinstance(bi, np.ndarray):
            real_major = np.abs(br) >= np.abs(bi)  # false for a nan divisor, as in CPython
            return select_lanes(real_major, _cdiv_by_real(ar, ai, br, bi), _cdiv_by_imag(ar, ai, br, bi))
        br, bi = np.float64(br), np.float64(bi)  # a zero divisor gives nan, as on lanes
        return (_cdiv_by_real if abs(br) >= abs(bi) else _cdiv_by_imag)(ar, ai, br, bi)


def _cdiv_by_real(ar, ai, br, bi):
    ratio = bi / br
    denom = br + bi * ratio
    return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom


def _cdiv_by_imag(ar, ai, br, bi):
    ratio = br / bi
    denom = br * ratio + bi
    return (ar * ratio + ai) / denom, (ai * ratio - ar) / denom


def reciprocal_lanes(x):
    """_reciprocal on nonzero lanes: 1.0 / mantissa by CPython's
    complex division, then normalize."""
    br, bi, e = x
    return normalize_lanes(*_cdiv_lanes(1.0, 0.0, br, bi), -e)
