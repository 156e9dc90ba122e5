import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratpert import Polynomial, RootFindingError, poly_roots
from ratpert import polynomial
from ratpert.polynomial import _aberth, cluster_points

EPS = 2.0**-52


class TestStructure:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial((1, 2, 0, 0))
        assert p.degree == 1
        assert p.coefficients == (1 + 0j, 2 + 0j)

    def test_zero_polynomial(self):
        assert Polynomial((0, 0)).is_zero
        assert Polynomial(()).is_zero

    def test_derivative(self):
        p = Polynomial((5, 3, 0, 2))  # 5 + 3z + 2z^3
        assert p.derivative().coefficients == (3 + 0j, 0j, 6 + 0j)

    def test_algebra_matches_pointwise(self):
        rng = random.Random(1)
        for _ in range(20):
            a = Polynomial([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)])
            b = Polynomial([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)])
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert (a * b)(z) == pytest.approx(a(z) * b(z), rel=1e-12)
            assert (a + b)(z) == pytest.approx(a(z) + b(z), rel=1e-12)

    def test_horner_matches_numpy_and_arrays(self):
        p = Polynomial((1, -2, 0.5, 3j))
        zs = np.array([0.3 + 0.1j, -1.2j, 2.0])
        vals, derivs = p.eval_with_derivative(zs)
        for z, v, d in zip(zs, vals, derivs):
            v2, d2 = p.eval_with_derivative(complex(z))
            assert v == pytest.approx(v2, rel=1e-14)
            assert d == pytest.approx(d2, rel=1e-14)

    @pytest.mark.parametrize("coefficients", [(2 - 1j,), (0.5, 3j), (1, -2, 0.5, 3j)])
    def test_one_horner_body_for_scalars_and_arrays(self, coefficients):
        # the same Horner body runs on both (numpy's complex product may
        # round differently from Python's in the last bit): scalars stay
        # Python complex, and arrays, a constant polynomial's too, keep
        # their shape
        p = Polynomial(coefficients)
        zs = np.array([[0.3 + 0.1j, -1.2j], [2.0, -0.7 + 1e3j]])
        value, (p_z, dp_z) = p(zs), p.eval_with_derivative(zs)
        for out in (value, p_z, dp_z):
            assert isinstance(out, np.ndarray) and out.shape == zs.shape and out.dtype == complex
        for index, z in np.ndenumerate(zs):
            scalar, (p_s, dp_s) = p(complex(z)), p.eval_with_derivative(complex(z))
            assert type(scalar) is complex and type(p_s) is complex and type(dp_s) is complex
            assert scalar == p_s
            assert (p_s, dp_s) == pytest.approx((p_z[index], dp_z[index]), rel=1e-14, abs=0)
            assert p.eval_scale(zs)[index] == pytest.approx(p.eval_scale(complex(z)), rel=1e-14)


class TestRoots:
    def test_quadratic(self):
        roots = poly_roots(Polynomial((-1, 0, 1)))  # z^2 - 1
        assert sorted(z.real for z in roots) == pytest.approx([-1.0, 1.0], abs=1e-13)
        assert max(abs(z.imag) for z in roots) < 1e-13

    def test_linear_through_origin(self):
        assert poly_roots(Polynomial((0, 2))) == (0j,)

    def test_cube_roots_of_unity(self):
        roots = poly_roots(Polynomial((-1, 0, 0, 1)), tol=1e-13)
        expected = sorted(
            (cmath.exp(2j * cmath.pi * k / 3) for k in range(3)),
            key=lambda z: (z.real, z.imag),
        )
        for got, want in zip(roots, expected):
            assert abs(got - want) < 1e-12

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Polynomial((3,)))

    def test_reconstruction_to_1e8_relative(self):
        # well-separated random roots up to degree 12: recompose the monic
        # product of (z - r) and compare coefficient vectors
        rng = random.Random(7)
        for degree in range(2, 13):
            while True:
                roots = [
                    complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    for _ in range(degree)
                ]
                if min(
                    abs(a - b)
                    for i, a in enumerate(roots)
                    for b in roots[i + 1 :]
                ) > 0.3:
                    break
            lead = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            p = Polynomial.from_roots(roots, lead)
            got = poly_roots(p, tol=1e-12)
            rebuilt = Polynomial.from_roots(got, lead)
            scale = max(abs(a) for a in p.coefficients)
            for a, b in zip(p.coefficients, rebuilt.coefficients):
                assert abs(a - b) <= 1e-8 * scale

    def test_double_root_clusters(self):
        # a double root is only recoverable to ~sqrt(tol), so cluster at
        # a matching radius; the centroid lands on the true root
        p = Polynomial.from_roots([1, 1, -2])
        roots = poly_roots(p, tol=1e-10)
        clusters = cluster_points(roots, tol=1e-4)
        counts = sorted((count, round(center.real)) for center, count in clusters)
        assert counts == [(1, -2), (2, 1)]
        double = next(center for center, count in clusters if count == 2)
        assert abs(double - 1.0) < 1e-9

    def test_residuals_meet_tolerance(self):
        p = Polynomial((2, -3, 1j, 0.5, 1))
        for r in poly_roots(p, tol=1e-12):
            assert abs(p(r)) <= 1e-12 * p.eval_scale(r)

    # z^2 - z + c: the seeds have modulus about |c|, where p and its residual
    # scale overflow to inf; inf <= tol * inf must not pass them as roots
    # (the roots are near +-sqrt(c) i, out of reach of the unscaled sweeps)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e200, 1.2e308 + 1.2e308j])
    def test_overflowing_residual_never_settles(self, c):
        with pytest.raises(RootFindingError, match="did not converge"):
            poly_roots(Polynomial((c, -1, 1)))


def _matched_distances(got, want):
    """Distance from each root in got to its partner in want, pairing each
    with the nearest unused one (exact when roots are far apart)."""
    left = list(want)
    out = []
    for r in got:
        i = min(range(len(left)), key=lambda j: abs(r - left[j]))
        out.append(abs(r - left.pop(i)))
    return out


_modulus = st.floats(min_value=1e-6, max_value=1e6)
_angle = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def _binomials(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    an = cmath.rect(draw(_modulus), draw(_angle))
    kind = draw(st.sampled_from(["complex", "real-negative", "real-positive"]))
    if kind == "complex":
        a0 = cmath.rect(draw(_modulus), draw(_angle))
    else:
        a0 = complex(draw(_modulus) * (-1 if kind == "real-negative" else 1), 0)
    return n, a0, an


class TestBinomialRoots:
    @settings(max_examples=60)
    @given(_binomials())
    def test_closed_form_roots(self, case):
        mpmath = pytest.importorskip("mpmath")
        n, a0, an = case
        coeffs = [a0] + [0j] * (n - 1) + [an]
        tol = 1e-12
        p = Polynomial(coeffs)
        roots = poly_roots(p, tol=tol)
        assert len(roots) == n
        assert list(roots) == sorted(roots, key=lambda z: (z.real, z.imag))
        for r in roots:
            assert abs(p(r)) < tol * p.eval_scale(r)
        modulus = abs(a0 / an) ** (1.0 / n)
        # modulus and angle each within a few ulp: n * eps per root, 4x room
        with mpmath.workdps(30):
            exact = mpmath.polyroots(
                [mpmath.mpc(a) for a in reversed(coeffs)], maxsteps=200, extraprec=60
            )
            for dist in _matched_distances(roots, [complex(z) for z in exact]):
                assert dist <= 4 * n * EPS * modulus
        # Aberth stops once |p(z)| <= tol (|a0| + |an| |z|^n), about
        # 2 tol |a0|; dividing by |p'| = n |a0| / |z| bounds its root error
        # at 2 tol |z| / n to first order, doubled here
        reference = _aberth(np.asarray(coeffs, dtype=complex), tol, 400)
        for dist in _matched_distances(roots, reference):
            assert dist <= (4 * tol / n + 4 * n * EPS) * modulus

    def test_falls_back_to_aberth_when_residual_fails(self, monkeypatch):
        closed_form = polynomial._binomial_roots
        monkeypatch.setattr(
            polynomial,
            "_binomial_roots",
            lambda a0, an, n: [r * (1 + 1e-6) for r in closed_form(a0, an, n)],
        )
        coeffs = [2 - 1j, 0, 0, 0, 0.5j]
        reference = sorted(
            _aberth(np.asarray(coeffs, dtype=complex), 1e-12, 400),
            key=lambda z: (z.real, z.imag),
        )
        assert list(poly_roots(Polynomial(coeffs))) == reference

    def test_solve_falls_back_to_aberth_on_coefficients(self, monkeypatch):
        # the solve behind poly_roots and julia_sample, on a coefficient list
        # with a root at the origin: the perturbed closed form misses the
        # residual test on the whole polynomial, so Aberth solves the rest
        closed_form = polynomial._binomial_roots
        monkeypatch.setattr(
            polynomial,
            "_binomial_roots",
            lambda a0, an, n: [r * (1 + 1e-6) for r in closed_form(a0, an, n)],
        )
        coeffs = [0j, 1.5 + 0.5j, 0j, 0j, -2 + 0j]
        tol = 1e-12
        roots = polynomial._solve_roots(coeffs, tol)
        aberth = _aberth(np.asarray(coeffs[1:], dtype=complex), tol, 400)
        assert roots == sorted([0j, *aberth], key=lambda z: (z.real, z.imag))
        for r in aberth:  # the origin is exact: p(0) = 0
            assert abs(polynomial._horner(coeffs, r)) < tol * polynomial._horner_scale(coeffs, r)
