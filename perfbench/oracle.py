"""Exact answers for every request the benchmark sends.

The oracle shares no code with ``folbend``.  It keeps its own copy of the
tube catalog (branch curvatures, multiplicities and initial conditions)
and integrates in the angle x = sqrt(lam) * r, where every cataloged
integrand is a Laurent polynomial in s = sin x and c = cos x:

    normal branch, kappa = lam:     alpha / sqrt(lam) = c / s,        f ~ s
    tangent branch, kappa = lam:    alpha / sqrt(lam) = -s / c,       f ~ c
    normal branch, kappa = 4 lam:   alpha / sqrt(lam) = (c^2 - s^2) / (s c),  f ~ s c

A term s^a c^b with a <= -1 diverges at x = 0 and one with b <= -1 at the
far end; otherwise it integrates exactly by the Wallis/Beta recurrence
W(a+2, b) = W(a, b) (a+1)/(a+b+2).  All terms of one integrand share the
parity of (a, b), so bending / volume is an exact rational times lam.

The deformation window is an incomplete integral; apart from the 2-sphere
(closed form) the oracle evaluates it with its own graded Gauss-Legendre
rule and returns an uncertainty with the value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

# Real dimension per unit index and number of invariant structures.
_DIM_FACTOR = {"S": 1, "RP": 1, "CP": 2, "HP": 4, "CaP": 8}
_INVARIANTS = {"S": 0, "RP": 0, "CP": 1, "HP": 3, "CaP": 7}

# Laurent polynomials in (s, c): {(a, b): coefficient}.
_ALPHA = {
    (1, "N"): {(-1, 1): Fraction(1)},
    (1, "T"): {(1, -1): Fraction(-1)},
    (4, "N"): {(-1, 1): Fraction(1), (1, -1): Fraction(-1)},
}
_THETA = {(1, "N"): (1, 0), (1, "T"): (0, 1), (4, "N"): (1, 1)}


@dataclass(frozen=True)
class Space:
    family: str  # "S", "RP", "CP", "HP" or "CaP"
    m: int

    @property
    def dim(self) -> int:
        return _DIM_FACTOR[self.family] * self.m

    @property
    def nu(self) -> int:
        return _INVARIANTS[self.family]

    @property
    def label(self) -> str:
        return "CaP2" if self.family == "CaP" else f"{self.family}:{self.m}"


def parse_space(label: str) -> Space:
    if label == "CaP2":
        return Space("CaP", 2)
    family, m = label.split(":")
    return Space(family, int(m))


def focal_varieties(space: Space) -> list[str]:
    """Every focal variety of the catalog on ``space``, computable or not."""
    fam, m = space.family, space.m
    out = []
    if fam in ("S", "RP") or m >= 2:
        out.append("point")
    if fam in ("S", "RP", "CP", "HP"):
        out += [f"sub:{fam}:{p}" for p in range(1, m)]
    if fam == "CP" and m >= 2:
        out.append(f"sub:RP:{m}")
    if fam == "HP" and m >= 2:
        out.append(f"sub:CP:{m}")
    return out


def branches(space: Space, focal: str) -> Optional[tuple[tuple[int, int, str], ...]]:
    """(kappa / lam, multiplicity, init) per branch; None when not computable."""
    fam, m, n, nu = space.family, space.m, space.dim, space.nu
    if focal == "point":
        if fam in ("S", "RP"):
            if m < 2:
                raise ValueError(f"no radial foliation on {space.label}")
            data = [(1, n - 1, "N")]
        else:
            if m < 2:
                raise ValueError(f"{space.label} is a sphere")
            data = [(1, n - 1 - nu, "N"), (4, nu, "N")]
        return tuple(b for b in data if b[1] > 0)
    _, sub, p_text = focal.split(":")
    p = int(p_text)
    if fam == "CP" and sub == "RP" and p == m and m >= 2:
        return None
    if fam == "HP" and sub == "CP" and p == m and m >= 2:
        return None
    if sub != fam or not 1 <= p <= m - 1:
        raise ValueError(f"({space.label}, {focal}) is outside the catalog")
    k = _DIM_FACTOR[fam]
    data = [(1, k * p, "T"), (1, k * (m - 1 - p), "N")]
    if fam in ("CP", "HP"):
        data.append((4, nu, "N"))
    return tuple(b for b in data if b[1] > 0)


def far_end(space: Space, focal: str) -> float:
    """x at the far end of the tube: pi for spheres around a point, else pi/2."""
    return math.pi if (space.family == "S" and focal == "point") else math.pi / 2


# ---------------------------------------------------------------- algebra

def _add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for key, coef in q.items():
        out[key] = out.get(key, 0) + scale * coef
    return {k: v for k, v in out.items() if v != 0}


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _canonical(poly: dict) -> dict:
    """Rewrite with s^2 + c^2 = 1 until no pole hides a cancellation.

    Afterwards every term has a, b >= 0, or a < 0 with b in {0, 1}, or
    b < 0 with a in {0, 1}.  Since all terms share one parity, two terms
    never carry the same leading power at an endpoint, so any term with a
    negative exponent is a genuine pole.
    """
    todo = dict(poly)
    done: dict = {}
    while todo:
        (a, b), coef = todo.popitem()
        if a < 0 and b < 0:        # s^a c^b = s^(a+2) c^b + s^a c^(b+2)
            parts = (((a + 2, b), coef), ((a, b + 2), coef))
        elif a < 0 and b >= 2:     # c^2 = 1 - s^2
            parts = (((a, b - 2), coef), ((a + 2, b - 2), -coef))
        elif b < 0 and a >= 2:     # s^2 = 1 - c^2
            parts = (((a - 2, b), coef), ((a - 2, b + 2), -coef))
        else:
            done[(a, b)] = done.get((a, b), 0) + coef
            continue
        for key, value in parts:
            todo[key] = todo.get(key, 0) + value
            if todo[key] == 0:
                del todo[key]
    return {k: v for k, v in done.items() if v != 0}


@lru_cache(maxsize=None)
def _wallis(a: int, b: int) -> Fraction:
    """Integral of s^a c^b over (0, pi/2) in units of the same-parity base."""
    if a >= 2:
        return _wallis(a - 2, b) * Fraction(a - 1, a + b)
    if b >= 2:
        return _wallis(a, b - 2) * Fraction(b - 1, a + b)
    return Fraction(1)


# Integral of s^a c^b over (0, pi/2) for (a, b) = (a mod 2, b mod 2).
_BASE = {(0, 0): math.pi / 2, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 0.5}


@dataclass(frozen=True)
class Integral:
    """Exact integral over (0, X): a rational times ``base``, or a divergence."""

    value: Optional[Fraction]
    base: Optional[float]
    endpoint: Optional[str]  # "0", "mu" or "both" when divergent

    @property
    def finite(self) -> bool:
        return self.endpoint is None


def integrate(poly: dict, x_end: float) -> Integral:
    terms = _canonical(poly)
    at_zero = any(a <= -1 for a, _ in terms)
    at_end = any(b <= -1 for _, b in terms)
    if x_end != math.pi / 2:
        # Over (0, pi) the far end is another zero of s; c vanishes inside.
        if at_end or any(b % 2 for _, b in terms):
            raise ValueError("integrand with odd cosine powers over (0, pi)")
        at_end = at_zero
    if at_zero or at_end:
        return Integral(None, None, "both" if at_zero and at_end else ("0" if at_zero else "mu"))
    parities = {(a % 2, b % 2) for a, b in terms}
    if len(parities) != 1:
        raise ValueError("terms of mixed parity")
    value = sum((coef * _wallis(a, b) for (a, b), coef in terms.items()), Fraction(0))
    if x_end != math.pi / 2:
        value *= 2  # even powers of c: (0, pi) is two mirror images of (0, pi/2)
    return Integral(value, _BASE[parities.pop()], None)


# ---------------------------------------------------------------- tube answers

@dataclass(frozen=True)
class TubeAnswer:
    """Exact outcome of one catalog pair, per unit curvature scale."""

    kind: str  # "finite" | "divergent" | "not-computable"
    bending: Optional[Fraction] = None        # B/Vol / lam
    endpoint: Optional[str] = None
    identity_rhs: Optional[Fraction] = None  # mean of 2*sigma_2 / lam
    volume: Optional[Integral] = None


def _integrands(data) -> tuple[dict, dict, dict]:
    """(theta, bending density, 2*sigma_2*theta) as Laurent polynomials."""
    a = b = 0
    for kappa, mult, init in data:
        da, db = _THETA[(kappa, init)]
        a, b = a + mult * da, b + mult * db
    theta = {(a, b): Fraction(1)}
    sum_alpha: dict = {}
    sum_alpha_sq: dict = {}
    for kappa, mult, init in data:
        alpha = _ALPHA[(kappa, init)]
        sum_alpha = _add(sum_alpha, alpha, mult)
        sum_alpha_sq = _add(sum_alpha_sq, _mul(alpha, alpha), mult)
    density = _mul({(0, 0): Fraction(1, 2)}, _mul(sum_alpha_sq, theta))
    sigma2 = _mul(_add(_mul(sum_alpha, sum_alpha), sum_alpha_sq, -1), theta)
    return theta, density, sigma2


@lru_cache(maxsize=4096)
def tube_answer(space_label: str, focal: str) -> TubeAnswer:
    """Exact verdict and B/Vol (per unit lam) of one catalog pair.

    Raises ValueError for pairs that are no foliation of the catalog.
    """
    space = parse_space(space_label)
    data = branches(space, focal)
    if data is None:
        return TubeAnswer("not-computable")
    x_end = far_end(space, focal)
    theta, density, sigma2 = _integrands(data)
    vol = integrate(theta, x_end)
    num = integrate(density, x_end)
    if not num.finite:
        return TubeAnswer("divergent", endpoint=num.endpoint, volume=vol)
    rhs = integrate(sigma2, x_end)
    return TubeAnswer("finite", bending=num.value / vol.value,
                      identity_rhs=rhs.value / vol.value, volume=vol)


def ricci(space_label: str, lam: float) -> float:
    space = parse_space(space_label)
    return (space.dim - 1 + 3 * space.nu) * lam


def complex_radial(lam: float) -> float:
    """B/Vol of the complex radial foliation of CP^m: 2 lam for every m."""
    return 2.0 * lam


def torus(big_radius: float, small_radius: float, area_weighted: bool) -> float:
    """Torus bending, in forms free of cancellation for thin tori."""
    root = math.sqrt((big_radius - small_radius) * (big_radius + small_radius))
    if area_weighted:
        return 2.0 * math.pi**2 * small_radius / (big_radius + root)
    return 2.0 * math.pi**2 / ((big_radius + root) * root)


def sphere2_deformation(x_lo: float, lam: float) -> tuple[float, float]:
    """(B/Vol, uncertainty) of the deformation of the point foliation of S^2.

    The window is (x_lo, pi - x_lo) in the angle; the antiderivative of
    cos^2/sin is log tan(x/2) + cos x and the volume is 2.  The uncertainty
    covers the rounding of tan(x/2) near 1, which the cancellation between
    the two terms exposes for narrow windows.
    """
    log_term, cos_term = -math.log(math.tan(0.5 * x_lo)), math.cos(x_lo)
    value = 0.5 * lam * (log_term - cos_term)
    return value, lam * 2.0**-50 * (1.0 + abs(log_term) + abs(cos_term))


# ---------------------------------------------------------------- deformation window

_GL = {n: np.polynomial.legendre.leggauss(n) for n in (20, 30)}


def _density(data, x):
    s, c = np.sin(x), np.cos(x)
    theta = np.ones_like(x)
    sq = np.zeros_like(x)
    for kappa, mult, init in data:
        if init == "T":
            alpha, f = -s / c, c
        elif kappa == 1:
            alpha, f = c / s, s
        else:
            alpha, f = (c - s) * (c + s) / (s * c), s * c
        theta = theta * f**mult
        sq = sq + mult * alpha**2
    return 0.5 * sq * theta


def _graded_panels(lo: float, hi: float, width: float = 0.05) -> np.ndarray:
    """Edges from lo to hi; a panel starting at x is min(x, width) wide.

    A pole at 0 is then never closer to a panel than the panel is wide,
    which keeps Gauss-Legendre convergence geometric on every panel.
    """
    if not 0.0 < lo < hi:
        raise ValueError("the window must lie strictly inside the tube")
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(edges[-1] + min(edges[-1], width), hi))
    return np.array(edges)


def _window_integral(data, x_lo: float, x_end: float, nodes: int) -> float:
    # The window is symmetric about x_end/2; poles sit at 0 and x_end.
    mid = 0.5 * x_end
    left = _graded_panels(x_lo, mid)
    t, w = _GL[nodes]
    a, b = left[:-1, None], left[1:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * t
    weights = 0.5 * (b - a) * w
    total = math.fsum((weights * _density(data, x)).ravel())
    total += math.fsum((weights * _density(data, x_end - x)).ravel())
    return total


def deformation(space_label: str, focal: str, eps: float, lam: float) -> tuple[float, float]:
    """(B/Vol, uncertainty) of the epsilon-deformation of a finite-volume pair."""
    space = parse_space(space_label)
    data = branches(space, focal)
    if data is None:
        raise ValueError("no deformation of a pair that is not computable")
    x_end = far_end(space, focal)
    # The same float expression as the window of the program under test.
    x_lo = x_end * (math.pi - 2.0 * eps) / (2.0 * math.pi)
    if space_label == "S:2" and focal == "point":
        return sphere2_deformation(x_lo, lam)
    fine = _window_integral(data, x_lo, x_end, 30)
    coarse = _window_integral(data, x_lo, x_end, 20)
    vol = tube_answer(space_label, focal).volume
    volume = float(vol.value) * vol.base
    value = lam * fine / volume
    return value, abs(fine - coarse) * lam / volume + 1e-13 * abs(value)
