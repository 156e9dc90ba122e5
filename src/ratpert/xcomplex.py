"""Overflow-safe complex arithmetic with a separated base-2 exponent.

An :class:`XComplex` stores ``mantissa * 2**exponent`` with the mantissa
modulus normalized into [1, 2) (or exactly zero).  Products of many factors
whose magnitudes grow or shrink exponentially, such as derivative cocycles
along long orbits, stay representable: the exponent is a Python integer and
never saturates, while the mantissa stays in hardware range.

Mantissas are ordinary double-precision complex values, so mantissa
arithmetic carries the usual ~53-bit precision; exponent arithmetic is
exact.

The arithmetic exists once, on raw parts (``_normalize``, ``_mul``,
``_add``, ``_reciprocal``): a (mantissa, exponent) tuple, or None for zero.
XComplex methods wrap these functions, and the orbit and obstruction loops
call them directly, building XComplex values only for their results.

The same format also runs on numpy lanes (``normalize_lanes`` and the
operations after it at the end of this module): mantissa real and imaginary
parts as float64 arrays and the exponent as an int64 array.  Each lane
operation repeats its scalar counterpart step for step, so lane values are
bit-identical to XComplex values; tests/test_lanes.py checks them against
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import frexp, hypot, isfinite, ldexp

import numpy as np

#: Significand width of the mantissa type.  An addend whose exponent lies
#: more than this far below the other operand cannot affect the result.
MANTISSA_BITS = 53


def _scaled(z: complex, shift: int) -> complex:
    """z * 2**shift, componentwise and exact (up to under/overflow)."""
    return complex(ldexp(z.real, shift), ldexp(z.imag, shift))


def _normalize(re: float, im: float, exponent: int) -> tuple[complex, int] | None:
    """Parts of (re + i im) * 2**exponent; None for zero.

    normalize_lanes repeats these steps on arrays; keep the two in step."""
    if re == 0.0 and im == 0.0:
        return None
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
    return complex(re, im), exponent


def _mul(a, b):
    """Normalized product of parts; exponent arithmetic is exact."""
    if a is None or b is None:
        return None
    m = a[0] * b[0]
    return _normalize(m.real, m.imag, a[1] + b[1])


def _add(a, b):
    """Exponent-aligned sum of parts; an addend more than MANTISSA_BITS
    binary places below the other leaves it unchanged."""
    if a is None:
        return b
    if b is None:
        return a
    hi, lo = (a, b) if a[1] >= b[1] else (b, a)
    shift = hi[1] - lo[1]
    if shift > MANTISSA_BITS:
        return hi
    m = hi[0] + _scaled(lo[0], -shift)
    return _normalize(m.real, m.imag, hi[1])


def _reciprocal(a):
    """Parts of 1/a; raises ZeroDivisionError for zero."""
    if a is None:
        raise ZeroDivisionError("reciprocal of XComplex zero")
    m = 1.0 / a[0]
    return _normalize(m.real, m.imag, -a[1])


def _magnitude(a) -> float:
    """|a| as a float; 0.0 on underflow, inf on overflow."""
    if a is None:
        return 0.0
    try:
        return ldexp(abs(a[0]), a[1])
    except OverflowError:
        return math.inf


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
        return _from_parts(_normalize(z.real, z.imag, 0))

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
        return _magnitude(_parts(self))

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

    def __mul__(self, other: "XComplex") -> "XComplex":
        return _from_parts(_mul(_parts(self), _parts(other)))

    def __add__(self, other: "XComplex") -> "XComplex":
        return _from_parts(_add(_parts(self), _parts(other)))

    def __neg__(self) -> "XComplex":
        return XComplex(-self.mantissa, self.exponent)

    def __sub__(self, other: "XComplex") -> "XComplex":
        return self + (-other)

    def reciprocal(self) -> "XComplex":
        return _from_parts(_reciprocal(_parts(self)))

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


def _parts(x: XComplex) -> tuple[complex, int] | None:
    """The parts of an XComplex; None for zero."""
    return None if x.mantissa == 0 else (x.mantissa, x.exponent)


def _from_parts(a) -> XComplex:
    """The XComplex of parts, filled in through the slots: the frozen
    __init__ would go through object.__setattr__ per field."""
    if a is None:
        return _ZERO
    x = _new(XComplex)
    _set_mantissa(x, a[0])
    _set_exponent(x, a[1])
    return x


_ZERO = XComplex(0j, 0)
_ONE = XComplex(1 + 0j, 0)


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


def _normalized_parts(re, im) -> list:
    """_normalize(re, im, 0) of finite lanes: (mantissa, exponent) parts,
    or None for zero."""
    mr, mi, e = normalize_lanes(re, im, 0)
    parts = list(zip(_complex_list(mr, mi), e.tolist()))
    for i in np.flatnonzero((mr == 0.0) & (mi == 0.0)).tolist():
        parts[i] = None
    return parts


def cmul_lanes(ar, ai, br, bi):
    """Complex product as Python forms it, componentwise (numpy's complex128
    multiply may fuse, Python's does not)."""
    return ar * br - ai * bi, ar * bi + ai * br


def select_lanes(mask, x, y):
    """Lane values taken from x where mask holds, else from y."""
    return tuple(np.where(mask, u, v) for u, v in zip(x, y))


def mul_lanes(a, b):
    """_mul on lanes; a zero factor gives zero components."""
    (ar, ai, ae), (br, bi, be) = a, b
    return normalize_lanes(*cmul_lanes(ar, ai, br, bi), ae + be)


def add_lanes(a, b):
    """_add on lanes."""
    a_zero = (a[0] == 0.0) & (a[1] == 0.0)
    b_zero = (b[0] == 0.0) & (b[1] == 0.0)
    a_hi = a[2] >= b[2]
    hi, lo = select_lanes(a_hi, a, b), select_lanes(a_hi, b, a)
    shift = hi[2] - lo[2]
    total = normalize_lanes(
        hi[0] + np.ldexp(lo[0], -shift), hi[1] + np.ldexp(lo[1], -shift), hi[2]
    )
    total = select_lanes(shift > MANTISSA_BITS, hi, total)
    # the zero tests come first in _add, so they win
    return select_lanes(a_zero, b, select_lanes(b_zero, a, total))


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
