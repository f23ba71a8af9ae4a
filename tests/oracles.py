"""Brute-force, exact and panel-by-panel references that the tests compare the library against."""
import heapq
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from folbend import quadrature
from folbend.tubes import InitKind


def torus_riemann_oracle(big_radius, small_radius, nodes=1_000_000, *, area_weighted=False):
    """Midpoint Riemann sum for the torus bending integral of ``torus_bending``."""
    R, r = big_radius, small_radius
    t = (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
    values = np.sin(t) ** 2 / (R + r * np.cos(t)) ** 2
    if area_weighted:
        values = values * r * (R + r * np.cos(t))
    return math.pi * float(np.mean(values)) * 2.0 * math.pi


# pi to 60 significant digits.
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def torus_reference(big_radius, small_radius, area_weighted=False):
    """The torus bending 2 pi^2 / ((R + s) s), or 2 pi^2 r / (R + s) area
    weighted, with s = sqrt((R - r)(R + r)), in 60-digit decimal arithmetic
    from the exact values of the float radii."""
    with localcontext() as ctx:
        ctx.prec = 60
        R, r = Decimal(big_radius), Decimal(small_radius)
        s = ((R - r) * (R + r)).sqrt()
        if area_weighted:
            return 2 * PI_60**2 * r / (R + s)
        return 2 * PI_60**2 / ((R + s) * s)


def jacobi_ode_oracle(kappa, init, r, steps=1024):
    """f(r) by fixed-step classic fourth-order integration of f'' = -kappa*f.

    Deliberately independent of the closed forms; global error is O(steps**-4).
    """
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError("kappa must be finite and nonnegative")
    if r < 0 or not math.isfinite(r):
        raise ValueError("radius must be finite and nonnegative")
    if not isinstance(steps, int) or steps < 16:
        raise ValueError("need at least 16 integration steps")
    if init is InitKind.NORMAL:
        y, yp = 0.0, 1.0
    elif init is InitKind.TANGENT:
        y, yp = 1.0, 0.0
    else:
        raise ValueError(f"unknown initial condition {init!r}")
    h = r / steps
    for _ in range(steps):
        k1y, k1p = yp, -kappa * y
        k2y, k2p = yp + 0.5 * h * k1p, -kappa * (y + 0.5 * h * k1y)
        k3y, k3p = yp + 0.5 * h * k2p, -kappa * (y + 0.5 * h * k2y)
        k4y, k4p = yp + h * k3p, -kappa * (y + h * k3y)
        y += h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0
        yp += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
    return y


def kronrod_panel(f, a, b):
    """Reference kernel: one Kronrod panel, one integrand call.  A one-row
    integrand gives floats, a k-row one k-tuples."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(center + half * np.array(quadrature._NODES)), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand returned a non-finite value inside [{a}, {b}]")
    if y.ndim == 1:
        kron = half * float(quadrature._KRONROD_W @ y)
        gauss = half * float(quadrature._GAUSS_W @ y)
        return kron, abs(kron - gauss)
    pairs = [kronrod_panel(lambda _: row, a, b) for row in y]
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def _fsum(values):
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _checked(value, error, a, b):
    """(value, error), or the library's UndecidedError unless both are finite."""
    if not (math.isfinite(value) and math.isfinite(error)):
        raise quadrature.UndecidedError(
            f"the integral over [{a}, {b}] is not finite: value {value!r}, error {error!r}")
    return value, error


def _reference_refine(f, intervals, config, log, rows):
    """The refinement of ``adaptive_quadrature`` (one row) or ``ratio_quadrature``
    (two rows) with one integrand call per panel, each panel evaluated only when
    the refinement uses it: [(value, error)] per row.  ``log`` collects the
    kernel's (value, error) by panel bounds."""
    config = config or quadrature.QuadratureConfig()
    rel, absol = config.rel_tol, config.abs_tol

    def panel(lo, hi):
        out = kronrod_panel(f, lo, hi)
        if log is not None:
            log[(lo, hi)] = out
        value, error = out
        return ((value, 0.0), (error, 0.0)) if rows == 1 else out

    def scales(v):
        # (target, denominator, weight of the second row's errors)
        if rows == 1:
            return v[0], 1.0, 0.0
        ratio = v[0] / v[1] if v[1] else math.nan
        return ratio, abs(v[1]), max(abs(ratio), absol / rel)

    def totals(heap):
        return ([sum(e[4][i] for e in heap) for i in (0, 1)],
                [sum(e[5][i] for e in heap) for i in (0, 1)],
                [sum(abs(e[4][i]) for e in heap) for i in (0, 1)])

    a, b = intervals[0][0], intervals[-1][1]
    width_floor, eps = (b - a) * 2.0 ** (-quadrature.MAX_DEPTH), quadrature._EPS
    heap = [(0.0, i, lo, hi, *panel(lo, hi)) for i, (lo, hi) in enumerate(intervals)]
    v, e, s = totals(heap)
    target, den, w = scales(v)
    heap = [(-(entry[5][0] + w * entry[5][1]), *entry[1:]) for entry in heap]
    heapq.heapify(heap)
    tick = len(heap)

    def unmet():
        return e[0] + w * e[1] > max(den * absol, den * (rel * abs(target)),
                                     32.0 * eps * (s[0] + w * s[1]))

    while True:
        if not unmet():  # stop only if a recount from the panels agrees
            v, e, s = totals(heap)
            target, den, w = scales(v)
            if not unmet():
                break
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        if (pb - pa <= width_floor and pb - pa <= 8.0 * eps * max(abs(pa), abs(pb))
                or len(heap) + 2 > quadrature.MAX_PANELS):
            raise quadrature.UndecidedError(
                "quadrature did not converge within the refinement budget "
                f"(residual error {e[0] + w * e[1]:.3e} on [{a}, {b}])")
        mid = 0.5 * (pa + pb)
        (x, ex), (y, ey) = panel(pa, mid), panel(mid, pb)
        for i in (0, 1):
            v[i] += (x[i] + y[i]) - pval[i]
            e[i] += (ex[i] + ey[i]) - perr[i]
            s[i] += abs(x[i]) + abs(y[i]) - abs(pval[i])
        heapq.heappush(heap, (-(ex[0] + w * ex[1]), tick, pa, mid, x, ex))
        heapq.heappush(heap, (-(ey[0] + w * ey[1]), tick + 1, mid, pb, y, ey))
        tick += 2
        target, den, w = scales(v)
    panels = sorted((entry[2], entry[4], entry[5]) for entry in heap)
    return [_checked(_fsum([p[1][i] for p in panels]), _fsum([p[2][i] for p in panels]), a, b)
            for i in range(rows)]


def reference_adaptive(f, a, b, config=None, log=None):
    """``adaptive_quadrature`` with one integrand call per panel, each panel
    evaluated only when the refinement uses it.  ``log`` collects
    (value, error) by panel bounds."""
    if b == a:
        return 0.0, 0.0
    return _reference_refine(f, [(a, b)], config, log, 1)[0]


def reference_ratio(f, breakpoints, config=None, log=None):
    """``ratio_quadrature`` with one integrand call per panel, each panel
    evaluated only when the refinement uses it."""
    intervals = list(zip(breakpoints[:-1], breakpoints[1:]))
    (num, num_err), (den, den_err) = _reference_refine(f, intervals, config, log, 2)
    if not den >= 2.0 ** -1022:
        raise quadrature.UndecidedError(f"the denominator integral {den!r} over [{breakpoints[0]}, "
                                        f"{breakpoints[-1]}] is not a positive normal float")
    ratio = num / den
    error = (num_err + abs(ratio) * den_err) / den + 64.0 * quadrature._EPS * abs(ratio)
    return (*_checked(ratio, error, breakpoints[0], breakpoints[-1]), num, den)


def reference_open(f, a, b, config=None, log=None):
    """``integrate_open`` with one integrand call per panel: each endpoint
    ladder, then ``reference_adaptive`` on the central interval.  The ladder
    bounds and the exponent fit are the library's own."""
    window = quadrature.DIVERGENCE_WINDOW * (b - a)
    scans = []
    for start, direction in ((a, +1), (b, -1)):
        lows, highs = quadrature._ladder(start, direction, window)
        pairs = [kronrod_panel(f, lo, hi) for lo, hi in zip(lows, highs)]
        if log is not None:
            log.update(zip(zip(lows, highs), pairs))
        scans.append(quadrature._endpoint_scan([p[0] for p in pairs], [p[1] for p in pairs]))
    lower, upper = scans
    if lower.divergent or upper.divergent:
        return quadrature.OpenResult("divergent", None, None, lower, upper)
    value, error = reference_adaptive(f, a + window, b - window, config, log)
    value, error = _checked(_fsum([lower.value, value, upper.value]),
                            lower.error + error + upper.error, a, b)
    return quadrature.OpenResult("finite", value, error, lower, upper)


# ---------------------------------------------------------------- exact catalog answers
# An own copy of the tube catalog, in fractions only.  In x = sqrt(lam) * r
# every density is a Laurent polynomial in s = sin x and c = cos x.  Per
# branch kind (NORMAL at lam, TANGENT at lam, NORMAL at 4 lam): the (s, c)
# powers of its Jacobi field, and (alpha / sqrt(lam))**2 as
# {(s power, c power): coefficient}.
_FIELD_POWERS = {"N": (1, 0), "T": (0, 1), "N4": (1, 1)}
_ALPHA_SQUARED = {
    "N": {(-2, 2): 1},                           # (c / s)**2
    "T": {(2, -2): 1},                           # (-s / c)**2
    "N4": {(-2, 2): 1, (0, 0): -2, (2, -2): 1},  # (c / s - s / c)**2
}
_DIM_FACTOR = {"S": 1, "RP": 1, "CP": 2, "HP": 4, "CaP": 8}
_NU = {"S": 0, "RP": 0, "CP": 1, "HP": 3, "CaP": 7}


def catalog_labels(max_dim=200, every_p_to=24):
    """(space, focal) labels of every family and index up to ``max_dim``, with
    every focal variety up to dimension ``every_p_to`` and, above it, the
    sub-spaces at both ends of the range of p and in its middle."""
    for family, factor in (("S", 1), ("RP", 1), ("CP", 2), ("HP", 4)):
        for m in range(2, max_dim // factor + 1):
            space = f"{family}:{m}"
            yield space, "point"
            ps = range(1, m)
            if factor * m > every_p_to:
                ps = sorted({p for p in (1, 2, m // 2, m - 2, m - 1) if 1 <= p < m})
            yield from ((space, f"sub:{family}:{p}") for p in ps)
            if family in ("CP", "HP"):
                yield space, f"sub:{'RP' if family == 'CP' else 'CP'}:{m}"
    yield "CaP2", "point"


def _family(space):
    """(family, m, n, nu) of a space label."""
    family, m = ("CaP", 2) if space == "CaP2" else (space.split(":")[0], int(space.split(":")[1]))
    return family, m, _DIM_FACTOR[family] * m, _NU[family]


def ricci_per_lam(space):
    """Ric(u, u) / lam = n - 1 + 3 nu of a space label, the same for every unit direction."""
    _, _, n, nu = _family(space)
    return n - 1 + 3 * nu


def catalog_branches(space, focal):
    """(kind, multiplicity) of the branches of a catalog pair given by its
    labels; None for the two pairs whose tube data is not computable."""
    family, m, n, nu = _family(space)
    if focal == "point":
        data = [("N", n - 1 - nu), ("N4", nu)]
    else:
        _, sub, p = focal.split(":")
        if int(p) == m and (family, sub) in (("CP", "RP"), ("HP", "CP")):
            return None
        data = [("T", (nu + 1) * int(p)), ("N", (nu + 1) * (m - 1 - int(p))), ("N4", nu)]
    return [(kind, mult) for kind, mult in data if mult > 0]


def _wallis_ratio(a, b, a0, b0):
    """W(a, b) / W(a0, b0) for W(a, b) the integral of s**a c**b over (0, pi/2),
    by the Wallis recurrence W(a + 2, b) = W(a, b) (a + 1) / (a + b + 2) and its
    mirror image in b; a = a0 and b = b0 modulo 2, all exponents >= 0."""
    ratio = Fraction(1)
    while a0 < a:
        ratio *= Fraction(a0 + 1, a0 + b0 + 2)
        a0 += 2
    while a0 > a:
        ratio *= Fraction(a0 + b0, a0 - 1)
        a0 -= 2
    while b0 < b:
        ratio *= Fraction(b0 + 1, a0 + b0 + 2)
        b0 += 2
    while b0 > b:
        ratio *= Fraction(a0 + b0, b0 - 1)
        b0 -= 2
    return ratio


def exact_bending(space, focal):
    """(verdict, B/Vol per unit curvature scale, divergent endpoint) of a catalog pair.

    The verdict is "finite", "divergent" or "not-computable"; B/Vol is a
    Fraction for a finite pair and None otherwise.  A negative power of s (c)
    diverges at x = 0 (at pi/2); only multiplicities multiply those powers,
    so no two of them cancel.  The round spheres around a point run over
    (0, pi), where s vanishes at both ends and the integrals of their even
    powers of c are twice those over (0, pi/2).
    """
    data = catalog_branches(space, focal)
    if data is None:
        return "not-computable", None, None
    a0 = sum(mult * _FIELD_POWERS[kind][0] for kind, mult in data)
    b0 = sum(mult * _FIELD_POWERS[kind][1] for kind, mult in data)
    terms = {}
    for kind, mult in data:
        for (a, b), coef in _ALPHA_SQUARED[kind].items():
            key = (a + a0, b + b0)
            terms[key] = terms.get(key, 0) + Fraction(mult * coef, 2)
    terms = {key: coef for key, coef in terms.items() if coef}
    at_zero = any(a < 0 for a, _ in terms)
    at_mu = at_zero if space.startswith("S:") and focal == "point" else any(b < 0 for _, b in terms)
    if at_zero or at_mu:
        return "divergent", None, "both" if at_zero and at_mu else ("0" if at_zero else "mu")
    value = sum((coef * _wallis_ratio(a, b, a0, b0) for (a, b), coef in terms.items()), Fraction(0))
    return "finite", value, None


# The spaces and leaf dimensions over which the bound-case labels are checked.
BOUND_SPACES = ([f"S:{m}" for m in range(3, 13)] + ["RP:3", "RP:4", "RP:7"]
                + [f"CP:{m}" for m in range(2, 7)] + ["HP:2", "HP:3", "CaP2"])


def label_reading(label, n, q):
    """The explicit case value a bare label I or III names at (n, q): the rule
    the command line used before the library resolved labels itself."""
    if label == "I":
        return "I" if q == 1 else "I'"
    # III: the valid reading with the smaller coefficient, III- on a tie
    if q <= n - 2 and (q < 2 or 2 * q <= n):
        return "III-"
    return "III+"


def exact_bounds(space, q, case):
    """(n, coefficient, einstein) of ``bounds --space space --q q --case case``:
    the coefficient of q (n - q) lam, and the case-I coefficient 1/(2(n - 2))
    times Ric / lam = n - 1 + 3 nu, as Fractions.  The coefficient is None where
    the command must exit 2: n < 3, q outside [1, n - 1], or no reading of the
    case holds.  Of the readings that hold, the smallest coefficient counts."""
    _, _, n, nu = _family(space)
    if n < 3:
        return n, None, None
    readings = {"I'": [(q == n - 1, 2 * (n - 2))], "II": [(2 * q == n, n - 2)],
                "III-": [(q <= n - 2, 2 * (n - q - 1))], "III+": [(q >= 2, 2 * (q - 1))]}
    readings["I"] = [(q == 1, 2 * (n - 2))] + readings["I'"]
    readings["III"] = readings["III-"] + readings["III+"]
    held = [Fraction(1, d) for holds, d in readings[case] if holds and 1 <= q <= n - 1]
    return n, min(held, default=None), Fraction(n - 1 + 3 * nu, 2 * (n - 2))
