"""Independent checks of each workload's outputs.

Nothing here reuses ratpert's arithmetic.  Maps, fields and recurrences are
evaluated again from the workload's own inputs, in plain Python floats or in
mpmath at 40 digits, and every tolerance is an error budget: the rounding a
double-precision computation of the same quantity can incur, times a stated
safety factor.  The checks run outside the timed sections.
"""

from __future__ import annotations

import math
import random

import mpmath
from mpmath import mp

import inputs as inp

EPS = 2.0**-53
DPS = 40
#: Factor between an error budget and the tolerance applied.
SAFETY = 4.0


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def poly_eval(coeffs, z):
    """(p(z), p'(z), sum |a_k||z|^k, sum k|a_k||z|^(k-1)) by Horner."""
    p, dp = 0 * z, 0 * z
    s, ds = 0.0, 0.0
    az = abs(z)
    for a in reversed(coeffs):
        dp = dp * z + p
        p = p * z + a
        ds = ds * az + s
        s = s * az + abs(a)
    return p, dp, s, ds


def rational_eval(numerator, denominator, z):
    """R(z), R'(z), and a relative error bound for R'(z) as a double
    evaluation (Horner then the quotient rule) would compute it."""
    p, dp, sp, sdp = poly_eval(numerator, z)
    q, dq, sq, sdq = poly_eval(denominator, z)
    n = max(len(numerator), len(denominator))
    horner = 2 * n * EPS
    value = p / q
    derivative = (dp * q - p * dq) / (q * q)
    absolute = (
        abs(dp * q) * (horner * sdp / max(abs(dp), 1e-300) + horner * sq / abs(q) + EPS)
        + abs(p * dq) * (horner * sp / max(abs(p), 1e-300) + horner * sdq / max(abs(dq), 1e-300) + EPS)
    ) / abs(q * q)
    relative = absolute / max(abs(derivative), 1e-300) + 4 * EPS
    return value, derivative, float(relative)


def field_eval(coeffs, z):
    """v(z) and a relative error bound for its double Horner evaluation."""
    p, _, s, _ = poly_eval(coeffs, z)
    return p, float(2 * len(coeffs) * EPS * s / max(abs(p), 1e-300))


def xc_to_mp(x):
    """An XComplex as an mpc (exact: mantissa times a power of two)."""
    return mpmath.mpc(x.mantissa) * mpmath.ldexp(mpmath.mpf(1), x.exponent)


def least_squares_slope(samples):
    n = len(samples)
    mk = sum(k for k, _ in samples) / n
    ml = sum(l for _, l in samples) / n
    sxx = sum((k - mk) ** 2 for k, _ in samples)
    sxy = sum((k - mk) * (l - ml) for k, l in samples)
    return sxy / sxx if sxx > 0 else 0.0


# ---------------------------------------------------------------------------
# scan-boundary
# ---------------------------------------------------------------------------


def grid_points(region, resolution):
    """Pixel centres, imaginary axis outer, as the scan documents them."""
    re_min, re_max, im_min, im_max = region
    nx, ny = resolution
    dx = (re_max - re_min) / nx
    dy = (im_max - im_min) / ny
    return [
        complex(re_min + (ix + 0.5) * dx, im_min + (iy + 0.5) * dy)
        for iy in range(ny)
        for ix in range(nx)
    ]


def quadratic_orbit(c: complex, radius: float, steps: int):
    """Plain z -> z*z + c from 0; returns (points, first index outside radius)."""
    z = 0j
    points = [z]
    for k in range(1, steps + 1):
        z = z * z + c
        points.append(z)
        if abs(z) > radius:
            return points, k
    return points, None


def check_escaping(c: complex, radius: float, steps: int) -> None:
    _, escaped = quadratic_orbit(c, radius, steps)
    require(escaped is not None, f"escaping row {c} stays within radius {radius} for {steps} steps")


def check_attracting(c: complex, period: int) -> None:
    """Newton at 40 digits on f^p(z) = z from the settled orbit: the cycle
    must have minimal period p and |multiplier| < 1."""
    require(period is not None and period >= 1, f"attracting row {c} has no period")
    z = 0j
    for _ in range(4096):
        z = z * z + c
    with mp.workdps(DPS):
        cc = mpmath.mpc(c)
        w0 = mpmath.mpc(z)
        for _ in range(100):
            w, dw = w0, mpmath.mpc(1)
            for _ in range(period):
                dw *= 2 * w
                w = w * w + cc
            step = (w - w0) / (dw - 1)
            w0 -= step
            if abs(step) < mpmath.mpf(10) ** (-DPS + 5):
                break
        else:
            raise CheckFailed(f"attracting row {c}: no period-{period} point near the orbit")
        require(abs(w0 - mpmath.mpc(z)) < 1e-6, f"attracting row {c}: orbit does not settle on a period-{period} cycle")
        for q in range(1, period):
            if period % q == 0:
                w = w0
                for _ in range(q):
                    w = w * w + cc
                require(abs(w - w0) > 1e-20, f"attracting row {c}: minimal period {q}, not {period}")
        multiplier, w = mpmath.mpc(1), w0
        for _ in range(period):
            multiplier *= 2 * w
            w = w * w + cc
        require(abs(multiplier) < 1, f"attracting row {c}: |multiplier| {float(abs(multiplier)):.6g} >= 1")


def log_scaled_growth(points, field) -> float:
    """Growth exponent of b[k+1] = 2 z_k b[k] + v(z_k), b[0] = 0, along the
    given orbit: b is carried as m * 2**s with |m| rescaled into [1/2, 1)
    after every step, then log|b| is fitted over the trailing half by least
    squares (the fit window the obstruction module documents)."""
    m, s = 0j, 0
    logs = [-math.inf]
    for z in points:
        v = field[0] + field[1] * z
        m = 2 * z * m + complex(math.ldexp(v.real, -s), math.ldexp(v.imag, -s))
        if m == 0:
            logs.append(-math.inf)
            continue
        e = math.frexp(abs(m))[1]
        m = complex(math.ldexp(m.real, -e), math.ldexp(m.imag, -e))
        s += e
        logs.append(math.log(abs(m)) + s * math.log(2.0))
    n = len(logs) - 1
    start = max(1, n - max(n // 2, min(32, n - 1)))
    samples = [(k, logs[k]) for k in range(start, n + 1) if logs[k] != -math.inf]
    if not samples:
        return -math.inf
    return least_squares_slope(samples)


def check_candidate(row, radius: float, steps: int, field) -> None:
    points, escaped = quadratic_orbit(row.c, radius, steps)
    require(escaped is None, f"candidate row {row.c} escapes at step {escaped}")
    if row.growth_exponent is None:
        require(any(f.startswith(("critical-relation", "obstruction-error")) for f in row.flags),
                f"candidate row {row.c} has no growth exponent and no flag saying why")
        return
    expected = log_scaled_growth(points, field)
    require(
        abs(row.growth_exponent - expected) <= 1e-9 * max(1.0, abs(expected)),
        f"candidate row {row.c}: growth exponent {row.growth_exponent!r}, recomputed {expected!r}",
    )


def escape_count_or_none(z: complex, c: complex, radius: float, max_iter: int):
    """Plain escape count of z -> z*z + c, or None when two double-precision
    evaluations could disagree: a running bound on the gap between them
    (2|z| times the old gap plus the rounding of one step, for each of the
    two) reaches the distance of |z| from the radius."""
    gap = 0.0
    for k in range(1, max_iter + 1):
        gap = 2 * abs(z) * gap + 2 * 4 * EPS * (abs(z) ** 2 + abs(c))
        z = z * z + c
        if SAFETY * gap >= abs(abs(z) - radius):
            return None
        if abs(z) > radius:
            return k
    return max_iter


def check_render(counts, region, resolution, max_iter, julia_c, seed: int, samples: int = 96) -> int:
    """Sampled pixels against a plain escape count; returns how many sampled
    pixels were well-conditioned enough to compare."""
    nx, ny = resolution
    require(counts.shape == (ny, nx), f"render shape {counts.shape}, expected {(ny, nx)}")
    re_min, re_max, im_min, im_max = region
    if julia_c is None:
        corner = max(abs(re_min), abs(re_max)) + max(abs(im_min), abs(im_max))
        radius = max(2.0, corner) + 1.0
    else:
        radius = max(2.0, abs(julia_c)) + 1.0
    pixels = grid_points(region, resolution)
    rng = random.Random(seed)
    compared = 0
    for _ in range(samples):
        index = rng.randrange(nx * ny)
        iy, ix = divmod(index, nx)
        pixel = pixels[index]
        if julia_c is None:
            expected = escape_count_or_none(0j, pixel, radius, max_iter)
        else:
            expected = escape_count_or_none(pixel, julia_c, radius, max_iter)
        if expected is None:
            continue
        compared += 1
        require(int(counts[iy, ix]) == expected,
                f"render pixel {pixel}: count {int(counts[iy, ix])}, plain count {expected}")
    require(compared >= samples // 8, f"only {compared} of {samples} sampled pixels were comparable")
    return compared


def check_scan(si: inp.ScanInputs, outputs: dict) -> None:
    rows = outputs["rows"]
    points = grid_points(si.region, inp.SCAN_RESOLUTION)
    require(len(rows) == len(points), f"{len(rows)} scan rows for {len(points)} grid points")
    for row, c in zip(rows, points):
        require(row.c == c, f"scan row at {row.c}, grid point {c}")
        radius = max(2.0, abs(c)) + 1.0
        if row.kind == "escaping":
            check_escaping(c, radius, inp.SCAN_ORBIT_LENGTH)
        elif row.kind == "attracting":
            check_attracting(c, row.period)
        elif row.kind == "candidate":
            check_candidate(row, radius, inp.SCAN_ORBIT_LENGTH, si.field)
        else:
            raise CheckFailed(f"scan row {c} has unknown class {row.kind!r}")
    if "csv_2w" in outputs:
        require(outputs["csv"] == outputs["csv_2w"], "scan CSV differs between 1 and 2 workers")
    check_render(outputs["render_plane"], si.region, inp.RENDER_RESOLUTION, inp.RENDER_MAX_ITER, None, 1)
    check_render(outputs["render_julia"], si.region, inp.RENDER_RESOLUTION, inp.RENDER_MAX_ITER, si.julia_c, 2)


# ---------------------------------------------------------------------------
# deep-orbit
# ---------------------------------------------------------------------------


def check_head(dm: inp.DeepMap, field, orbit, series, terms: int = 50) -> None:
    """cocycle[k] and b[k], k <= terms, against a 40-digit recomputation on
    the program's own orbit points, with a running rounding budget."""
    with mp.workdps(DPS):
        cocycle, rel = mpmath.mpc(1), 0.0
        b, err = mpmath.mpc(0), 0.0
        for k in range(terms + 1):
            got = xc_to_mp(orbit.cocycle[k])
            require(abs(got - cocycle) <= SAFETY * rel * abs(cocycle),
                    f"{dm.text}: cocycle[{k}] = {complex(got)}, 40-digit value {complex(cocycle)}")
            got = xc_to_mp(series.b[k])
            require(abs(got - b) <= SAFETY * err,
                    f"{dm.text}: b[{k}] = {complex(got)}, 40-digit value {complex(b)}")
            z = mpmath.mpc(orbit.points[k])
            _, d, d_rel = rational_eval(dm.numerator, dm.denominator, z)
            v, v_rel = field_eval(field, z)
            new_b = d * b + v
            err = float(abs(d) * err + abs(d * b) * (d_rel + 8 * EPS)
                        + abs(v) * (v_rel + 4 * EPS) + 4 * EPS * abs(new_b))
            b = new_b
            _, d_next, d_next_rel = rational_eval(dm.numerator, dm.denominator, mpmath.mpc(orbit.points[k + 1]))
            cocycle *= d_next
            rel += d_next_rel + 8 * EPS


def exact_orbit(dm: inp.DeepMap):
    """Exact critical orbit of a postcritically finite map at 40 digits:
    (points up to the first repeat, preperiod p, period q)."""
    z = mpmath.mpc(dm.critical_point)
    points = [z]
    for _ in range(64):
        z, _, _ = rational_eval(dm.numerator, dm.denominator, z)
        for j, w in enumerate(points):
            if abs(z - w) < mpmath.mpf(10) ** (-DPS + 8):
                return points, j, len(points) - j
        points.append(z)
    raise CheckFailed(f"{dm.text}: critical orbit is not finite within 64 steps")


def closed_form_sum(dm: inp.DeepMap, f, points, p: int, q: int):
    """sum_k f(z_k)/C_k in closed form: the terms before the preperiod, plus
    one period of terms over (1 - 1/rho)."""
    derivs = [rational_eval(dm.numerator, dm.denominator, z)[1] for z in points]
    cocycle = [mpmath.mpc(1)]
    for k in range(1, p + q):
        cocycle.append(cocycle[-1] * derivs[k])
    rho = mpmath.mpc(1)
    for k in range(p, p + q):
        rho *= derivs[k]
    head = sum(f(points[k]) / cocycle[k] for k in range(p))
    block = sum(f(points[k]) / cocycle[k] for k in range(p, p + q))
    return head + block / (1 - 1 / rho), cocycle, rho


def check_closed_forms(dm, field, orbit, mu, moments, series) -> None:
    with mp.workdps(DPS):
        points, p, q = exact_orbit(dm)
        v = lambda z: field_eval(field, z)[0]
        exact_mu, cocycle, rho = closed_form_sum(dm, v, points, p, q)
        require(mu.converged, f"{dm.text}: mu did not converge")
        require(abs(mpmath.mpc(mu.value) - exact_mu) <= mu.tail_bound + 1e-12 * (1 + abs(exact_mu)),
                f"{dm.text}: mu(v) = {mu.value}, closed form {complex(exact_mu)}")
        for j, m in enumerate(moments):
            exact = closed_form_sum(dm, lambda z: z**j, points, p, q)[0]
            require(abs(mpmath.mpc(m) - exact) <= 1e-10 * (1 + abs(exact)),
                    f"{dm.text}: moment {j} = {m}, closed form {complex(exact)}")
        # every cocycle entry: C_{p+mq+r} = C_{p+r} rho^m, relative error
        # at most a few roundings per step
        rho_power, base = mpmath.mpc(1), p
        per_step = max(rational_eval(dm.numerator, dm.denominator, z)[2] for z in points[1:]) + 8 * EPS
        for k in range(len(orbit.cocycle)):
            if k < p + q:
                exact = cocycle[k]
            else:
                m, r = divmod(k - p, q)
                if r == 0:
                    rho_power = rho**m
                exact = cocycle[p + r] * rho_power
            got = xc_to_mp(orbit.cocycle[k])
            require(abs(got / exact - 1) <= SAFETY * (k + 1) * per_step,
                    f"{dm.text}: cocycle[{k}] off its closed form by {float(abs(got / exact - 1)):.3g}")
        rate = float(mpmath.log(abs(rho))) / q
        require(abs(series.growth_exponent - rate) <= 1e-3,
                f"{dm.text}: growth exponent {series.growth_exponent}, cocycle rate {rate}")


def check_chebyshev(orbit, moments) -> None:
    """z^2 - 2: mu(1) = 2/3, and cocycle[k] = -4^k exactly."""
    require(abs(moments[0] - 2 / 3) <= 1e-12, f"z^2-2: mu(1) = {moments[0]}, expected 2/3")
    for k, x in enumerate(orbit.cocycle):
        expected = (1 + 0j, 0) if k == 0 else (-1 + 0j, 2 * k)
        require((x.mantissa, x.exponent) == expected,
                f"z^2-2: cocycle[{k}] = {x!r}, expected mantissa {expected[0]} exponent {expected[1]}")


def check_witness(orbit, moments, witness, mu_of_witness) -> None:
    """The witness has unit coefficient norm and |mu(witness)| equals the
    norm of the moment vector."""
    with mp.workdps(DPS):
        norm = mpmath.sqrt(sum(abs(mpmath.mpc(m)) ** 2 for m in moments))
        coeffs = witness.field.numerator.coefficients
        require(abs(sum(abs(mpmath.mpc(a)) ** 2 for a in coeffs) - 1) <= 1e-12,
                "witness field does not have unit coefficient norm")
        require(abs(mpmath.mpc(witness.mu_value) - norm) <= 1e-12 * norm,
                f"witness value {witness.mu_value}, moment norm {float(norm)}")
        require(abs(abs(mpmath.mpc(mu_of_witness)) - norm) <= 1e-9 * norm,
                f"|mu(witness)| = {abs(mu_of_witness)}, moment norm {float(norm)}")


def check_deep(di: inp.DeepInputs, outputs: dict) -> None:
    import ratpert

    for o in outputs["maps"]:
        dm, orbit, series = o["spec"], o["orbit"], o["series"]
        require(orbit.truncated_at == dm.terms and orbit.escaped_at is None,
                f"{dm.text}: orbit stopped at {orbit.truncated_at} of {dm.terms}")
        require(o["report"].classification == "summable-evidence",
                f"{dm.text}: summability {o['report'].classification}")
        check_head(dm, di.field, orbit, series)
        if dm.postcritically_finite:
            check_closed_forms(dm, di.field, orbit, o["mu"], o["moments"], series)
        if dm.text == "unicritical:2,-2+0i":
            check_chebyshev(orbit, o["moments"])
        mu_of_witness = ratpert.mu_functional(orbit, o["witness"].field).value
        check_witness(orbit, o["moments"], o["witness"], mu_of_witness)
        require(o["orbit_back"] == orbit, f"{dm.text}: orbit does not survive encode/JSON/decode")
        require(o["series_back"] == series, f"{dm.text}: obstruction does not survive encode/JSON/decode")


# ---------------------------------------------------------------------------
# cycle-census
# ---------------------------------------------------------------------------


def _step(w, d, c, lam):
    return w**d + c + lam


def refine_cycle(degree: int, c, z0, period: int, lam=0):
    """Newton at 40 digits on f^n(z) = z for f = z^d + c + lam, from z0."""
    w0 = mpmath.mpc(z0)
    for _ in range(80):
        w, dw = w0, mpmath.mpc(1)
        for _ in range(period):
            dw *= degree * w ** (degree - 1)
            w = _step(w, degree, c, lam)
        step = (w - w0) / (dw - 1)
        w0 -= step
        if abs(step) <= mpmath.mpf(10) ** (-DPS + 6) * max(1, abs(w0)):
            return w0
    raise CheckFailed(f"no period-{period} point near {complex(z0)} at 40 digits")


def evaluation_budget(degree, c, points, lam=0) -> float:
    """Bound on the rounding error of f^n(p) - p evaluated in doubles along
    the given cycle points: each step adds its own rounding and scales the
    error carried so far by |f'|."""
    error = 0.0
    for w in points:
        error = float(abs(degree * w ** (degree - 1))) * error + float(
            4 * degree * EPS * (abs(w) ** degree + abs(c) + abs(lam)))
    return error


def cycle_points(degree, c, z, period, lam=0):
    points, multiplier = [], mpmath.mpc(1)
    for _ in range(period):
        points.append(z)
        multiplier *= degree * z ** (degree - 1)
        z = _step(z, degree, c, lam)
    return points, multiplier


def check_cycle(cm: inp.CensusMap, cycle, period: int) -> list[complex]:
    """The cycle is a true period-n cycle near the reported points, with the
    reported multiplier; returns its points at 40 digits, as doubles."""
    d, c = cm.degree, mpmath.mpc(cm.c)
    require(cycle.period == period and len(cycle.points) == period,
            f"{cm.text}: cycle of period {cycle.period} in the period-{period} census")
    base = cycle.base
    # find_cycles accepts a double-precision residual up to 1e-9 |p| at its
    # Newton point p, which the canonical rotation may move off the base:
    # some reported point must meet that, and Cycle.residual must be the
    # residual there up to evaluation rounding
    best = None
    for z in cycle.points:
        orbit, _ = cycle_points(d, c, mpmath.mpc(z), period)
        residual = float(abs(_step(orbit[-1], d, c, 0) - mpmath.mpc(z)))
        budget = SAFETY * evaluation_budget(d, c, orbit)
        if best is None or residual < best[0]:
            best = (residual, budget, z)
    residual, budget, newton_point = best
    allowed = 1e-9 * max(1.0, abs(newton_point)) + budget
    require(residual <= allowed,
            f"{cm.text}: cycle through {base} has residual {residual:.3g} (allowed {allowed:.3g})")
    require(abs(residual - cycle.residual) <= budget,
            f"{cm.text}: cycle through {base} reports residual {cycle.residual:.3g}, exact {residual:.3g}")
    star = refine_cycle(d, c, base, period)
    points, multiplier = cycle_points(d, c, star, period)
    # the reported points are forward iterates of a Newton point (rotated),
    # so each carries that point's error times at most the largest
    # derivative product along the cycle, plus forward rounding
    newton_error = allowed / max(float(abs(multiplier - 1)), 1e-12)
    slopes = [float(abs(d * w ** (d - 1))) for w in points]
    spread = max(math.prod((slopes * 2)[s:s + length])
                 for s in range(period) for length in range(period))
    distance = SAFETY * (spread * newton_error + evaluation_budget(d, c, points))
    for got, exact in zip(cycle.points, points):
        require(abs(mpmath.mpc(got) - exact) <= distance,
                f"{cm.text}: cycle point {got} is {float(abs(mpmath.mpc(got) - exact)):.3g} from the exact cycle")
    for q in range(1, period):
        if period % q == 0:
            require(abs(points[q] - star) > 1e-12 * max(1, abs(star)),
                    f"{cm.text}: cycle through {base} has minimal period {q}, not {period}")
    require(abs(mpmath.mpc(cycle.multiplier) - multiplier) <= 1e-6 * max(1, abs(multiplier)),
            f"{cm.text}: multiplier {cycle.multiplier}, exact {complex(multiplier)}")
    return [complex(z) for z in points]


def check_distinct(cm, period, point_sets) -> None:
    """No point is shared by two reported cycles."""
    owner = []
    for index, points in enumerate(point_sets):
        owner.extend((z, index) for z in points)
    owner.sort(key=lambda t: (t[0].real, t[0].imag))
    for i, (z, a) in enumerate(owner):
        for w, b in owner[i + 1:]:
            if w.real - z.real > 1e-9:
                break
            require(a == b or abs(w - z) > 1e-9 * max(1.0, abs(z)),
                    f"{cm.text}: two period-{period} cycles share the point {z}")


def motion_velocity(degree, c, z, period, lam):
    """dz/dlam of the cycle point z of z^d + c + lam, by implicit
    differentiation of F(z, lam) = f^n(z) - z with forward derivatives."""
    w, dz, dlam = z, mpmath.mpc(1), mpmath.mpc(0)
    for _ in range(period):
        slope = degree * w ** (degree - 1)
        dz, dlam = slope * dz, slope * dlam + 1
        w = _step(w, degree, c, lam)
    return -dlam / (dz - 1)


def check_continued(cm: inp.CensusMap, period: int, cycle, alpha, path, motion) -> None:
    d, c = cm.degree, mpmath.mpc(cm.c)
    n = period
    # alpha equation residuals (v = 1), on the program's points and alpha
    for i in range(n):
        p = mpmath.mpc(cycle.points[i])
        dr = d * p ** (d - 1)
        a_i, a_next = mpmath.mpc(alpha.alpha[i]), mpmath.mpc(alpha.alpha[(i + 1) % n])
        residual = abs(1 - (a_next - dr * a_i))
        scale = 1 + abs(a_next) + abs(dr * a_i)
        require(residual <= 1e-12 * scale,
                f"{cm.text}: alpha equation residual {float(residual):.3g} at cycle point {i}")
    # the continued cycle solves the perturbed map's periodic equation
    lam = mpmath.mpc(inp.CONTINUE_LAMBDA)
    require(path.stopped_reason == "reached_target" and path.lambda_path[-1] == inp.CONTINUE_LAMBDA,
            f"{cm.text}: continuation stopped with {path.stopped_reason}")
    final = path.final_cycle
    points, _ = cycle_points(d, c, mpmath.mpc(final.base), n, lam)
    residual = abs(_step(points[-1], d, c, lam) - mpmath.mpc(final.base))
    # continue_cycle accepts a double-precision residual up to 1e-12 |p|
    budget = 1e-12 * max(1.0, abs(final.base)) + evaluation_budget(d, c, points, lam)
    require(residual <= SAFETY * budget,
            f"{cm.text}: continued cycle residual {float(residual):.3g} at lambda {inp.CONTINUE_LAMBDA}")
    require(abs(final.multiplier) > 1, f"{cm.text}: continued cycle is no longer repelling")
    # the finite difference converges to the exact velocity at O(h^2)
    h = inp.MOTION_H
    star = refine_cycle(d, c, cycle.base, n)
    _, rho = cycle_points(d, c, star, n)
    velocity = motion_velocity(d, c, star, n, 0)

    def fd(step):
        plus = refine_cycle(d, c, star + velocity * step, n, step)
        minus = refine_cycle(d, c, star - velocity * step, n, -step)
        return (plus - minus) / (2 * step)

    err_h = abs(fd(mpmath.mpf(h)) - velocity)
    err_half = abs(fd(mpmath.mpf(h) / 2) - velocity)
    require(err_half <= err_h / 3 + mpmath.mpf(10) ** (-DPS + 10),
            f"{cm.text}: finite difference is not second order ({float(err_h):.3g} -> {float(err_half):.3g})")
    scale = max(1.0, abs(cycle.base))
    require(abs(mpmath.mpc(motion.alpha) - velocity) <= 1e-9 * (1 + abs(velocity)) / min(1, float(abs(rho - 1))),
            f"{cm.text}: solved velocity {motion.alpha}, exact {complex(velocity)}")
    # continue_cycle accepts a continued point whose double-precision
    # residual is at most 1e-12 |p|
    points, _ = cycle_points(d, c, star, n)
    position = SAFETY * (1e-12 * scale + evaluation_budget(d, c, points, h)) / float(abs(rho - 1))
    fd_prog = mpmath.mpc(motion.fd_velocity)
    require(abs(fd_prog - velocity) <= err_h + position / h,
            f"{cm.text}: finite-difference velocity {motion.fd_velocity} is "
            f"{float(abs(fd_prog - velocity)):.3g} from exact (allowed {float(err_h + position / h):.3g})")
    require(motion.discrepancy == abs(motion.alpha - motion.fd_velocity),
            f"{cm.text}: reported discrepancy {motion.discrepancy} is not |alpha - fd|")


def check_census(ci: inp.CensusInputs, outputs: dict) -> None:
    with mp.workdps(DPS):
        for cm, period, expected, cycles in outputs["censuses"]:
            if cycles is None:
                continue
            require(len(cycles) <= expected,
                    f"{cm.text}: {len(cycles)} period-{period} cycles, more than the exact count {expected}")
            check_distinct(cm, period, [check_cycle(cm, cyc, period) for cyc in cycles])
        for cm, period, results in outputs["continued"]:
            for cycle, alpha, path, motion in results:
                check_continued(cm, period, cycle, alpha, path, motion)


#: The checks of each workload, called as check(inputs, outputs).
CHECKS = {"scan-boundary": check_scan, "deep-orbit": check_deep, "cycle-census": check_census}
