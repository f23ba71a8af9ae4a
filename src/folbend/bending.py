"""Total bending and energy of the cataloged singular foliations.

The bending of a radial or tubular foliation reduces to one-dimensional
integrals over the tube radius: with branch principal curvatures alpha_a
of multiplicity m_a and density theta,

    B / c     = integral over (0, mu) of  0.5 * sum_a m_a alpha_a(r)^2 * theta(r) dr,
    Vol / c   = integral over (0, mu) of  theta(r) dr,

with the same (usually symbolic) constant c in both, so the ratio B/Vol is
always well defined; absolute values are reported only where the catalog
pins c (geodesic spheres around points of S^m and RP^m), as long as c and
Vol are normal floats and B is one or 0.  The energy of the orthogonal unit
vector field is E = (n/2) Vol + B.

Divergence of the bending integral at either end of (0, mu) is decided
by the exact endpoint orders of the tube profile and reported as a
verdict instead of a number; a convergent ratio comes from one adaptive
pass over both densities on shared panels.  The circle foliation of a
torus and the complex radial foliation of CP^m have elementary closed
forms, which their functions evaluate without quadrature.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .quadrature import QuadratureConfig, UndecidedError, _finite, _normal, ratio_quadrature
from .spaces import Family, FocalVariety, ModelSpace
from .tubes import JacobiBranch, TubeProfile, tube_profile

__all__ = [
    "BendingResult",
    "TorusResult",
    "EnergyResult",
    "total_bending",
    "epsilon_deformed_bending",
    "torus_bending",
    "complex_radial_bending",
    "energy",
]

@dataclass(frozen=True)
class BendingResult:
    """Outcome of one bending computation.

    ``status`` is "finite" or "divergent".  Finite results always carry
    ``value_per_volume`` (and its error estimate); ``value``/``volume`` are
    the absolute numbers and are present only when the volume constant is
    part of the catalog.  Divergent results carry the endpoint ("0", "mu"
    or "both") and the power-law exponent of the density there instead,
    which is exactly 1.0 for every cataloged divergence.
    """

    status: str
    value_per_volume: Optional[float] = None
    error_estimate: Optional[float] = None
    value: Optional[float] = None
    volume: Optional[float] = None
    divergent_endpoint: Optional[str] = None
    exponent_estimate: Optional[float] = None
    mu: Optional[float] = None
    branches: tuple[JacobiBranch, ...] = ()

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"


@dataclass(frozen=True)
class TorusResult:
    """Bending of the isoparametric circle foliation of a torus of revolution."""

    value: float
    error_estimate: float
    upper_bound: float
    area_weighted: bool


@dataclass(frozen=True)
class EnergyResult:
    """Energy E = (n/2) Vol + B of the unit normal field of a foliation."""

    status: str
    per_volume: Optional[float]
    absolute: Optional[float]
    bending: BendingResult


def _per_volume(
    prof: TubeProfile,
    rows: Callable,
    quad: Optional[QuadratureConfig],
    window: Optional[tuple[float, float]] = None,
) -> BendingResult:
    """Integral of a density per unit volume of the profile, with its error.

    ``rows`` gives the density and theta at radii r, integrated over (0, mu)
    on shared panels.  Outside a ``window`` the density is zero; its edges
    are breakpoints, so every panel is smooth even where the density
    diverges at an end.  A density that overflows, a bar that is not finite
    with the window's edge term, or a volume or a nonzero ratio that is not a
    normal float raises UndecidedError: on the subnormal grid the density and
    the ratio round past their error estimate.
    """
    breaks, integrand = (0.0, prof.mu), rows
    if window is not None:
        import numpy as np

        w0, w1 = window
        breaks = (0.0, w0, w1, prof.mu)

        def integrand(r):
            out = rows(r)
            out[0] = np.where((r > w0) & (r < w1), out[0], 0.0)
            return out

    try:
        ratio, error, val, vol = ratio_quadrature(integrand, breaks, quad)
        if window is not None and w1 > w0:
            # Each edge is rounded in r and again in x = sqrt(lam) * r: about
            # two ulps, which move the numerator by the density there.
            with np.errstate(all="ignore"):
                edge = np.abs(rows(np.array(window))[0])
            error += float(2.0 * (edge[0] * math.ulp(w0) + edge[1] * math.ulp(w1)) / vol)
            ratio, error = _finite(ratio, error, 0.0, prof.mu)
    except ValueError as exc:  # a non-finite density value
        raise UndecidedError(f"the density of {prof.space.label} / {prof.focal.label} "
                             f"overflows at this curvature scale: {exc}") from exc
    if ratio and not _normal(abs(ratio)):
        raise UndecidedError(f"the ratio {ratio!r} of {prof.space.label} / {prof.focal.label} "
                             "falls below the normal float range")
    c = prof.area_constant
    absolute = volume = None
    if c is not None and _normal(c * vol) and (val == 0.0 or _normal(abs(c * val))):
        absolute, volume = c * val, c * vol
    return BendingResult(
        status="finite",
        value_per_volume=ratio,
        error_estimate=error,
        value=absolute,
        volume=volume,
        mu=prof.mu,
        branches=prof.branches,
    )


def total_bending(
    space: ModelSpace,
    focal: FocalVariety,
    quad: Optional[QuadratureConfig] = None,
) -> BendingResult:
    """Total bending per unit volume of the radial/tubular foliation."""
    prof = tube_profile(space, focal)
    end = prof.divergent_endpoint
    if end is None:
        return _per_volume(prof, prof.bending_rows, quad)
    return BendingResult(status="divergent", divergent_endpoint=end, exponent_estimate=1.0,
                         mu=prof.mu, branches=prof.branches)


def epsilon_deformed_bending(
    space: ModelSpace,
    focal: FocalVariety,
    epsilon: float,
    quad: Optional[QuadratureConfig] = None,
) -> BendingResult:
    """Bending of the deformation that is flat outside the radial window
    [mu*(pi - 2*eps)/(2*pi), mu*(pi + 2*eps)/(2*pi)].

    At epsilon = 0 the field is parallel on every leaf and the bending is
    exactly zero; at epsilon = pi/2 the window is all of (0, mu) and the
    result must agree with ``total_bending`` (including its divergence
    verdict, e.g. for the spherical foliation of S^2).  An epsilon > 0 whose
    edges round to one float (below about 1.1e-16) raises UndecidedError.
    """
    if not (0.0 <= epsilon <= math.pi / 2.0):
        raise ValueError("epsilon must lie in [0, pi/2]")
    if epsilon == math.pi / 2.0:
        return total_bending(space, focal, quad)
    prof = tube_profile(space, focal)
    window = (prof.mu * (math.pi - 2.0 * epsilon) / (2.0 * math.pi),
              prof.mu * (math.pi + 2.0 * epsilon) / (2.0 * math.pi))
    if epsilon > 0.0 and window[1] <= window[0]:
        raise UndecidedError(f"the window of epsilon = {epsilon!r} on {space.label} / "
                             f"{focal.label} is narrower than the float resolution of its edges")
    return _per_volume(prof, prof.bending_rows, quad, window)


def torus_bending(
    big_radius: float,
    small_radius: float,
    quad: Optional[QuadratureConfig] = None,
    *,
    area_weighted: bool = False,
) -> TorusResult:
    """Bending of the angular circle foliation of a torus of revolution.

    The flat default is pi times the integral of sin(t)^2 / (R + r cos(t))^2
    over t in (0, 2 pi) (the phi integral is a constant factor 2 pi), which
    is 2 pi^2 / (R + s) / s with s = sqrt((R - r)(R + r)); its upper bound is
    2 (pi / (R - r))^2.  ``area_weighted`` puts the surface area element
    r (R + r cos t) into the integrand, for 2 pi^2 / ((R + s) / r).  Both
    forms are free of cancellation, and once (R - r)(R + r) and the value are
    normal, so is every intermediate (2 pi^2 / (R + s) and (R + s) / r are
    at least 1e-154 and 1), so each of their roughly ten roundings, that of
    pi included, is within half an eps relative and 16 eps times the value
    bounds the error.  ``quad`` is accepted for a uniform signature and not
    used.  Radii for which (R - r)(R + r), the value, its error bound or the
    upper bound is not a positive normal float raise UndecidedError.
    """
    if not (math.isfinite(big_radius) and 0 < small_radius < big_radius):
        raise ValueError("torus radii must satisfy 0 < small_radius < big_radius")
    R, r = big_radius, small_radius
    square = (R - r) * (R + r)
    if _normal(square):
        root = math.sqrt(square)
        if area_weighted:
            value = 2.0 * math.pi**2 / ((R + root) / r)
        else:
            value = 2.0 * math.pi**2 / (R + root) / root
        try:
            bound = 2.0 * (math.pi / (R - r)) ** 2
        except OverflowError:  # float ** raises where * gives inf
            bound = math.inf
        bar = 16.0 * sys.float_info.epsilon * value
        if all(map(_normal, (value, bar, bound))):
            return TorusResult(value, bar, bound, area_weighted)
    raise UndecidedError(f"the torus bending or its bound at R={R!r}, r={r!r} "
                         "is not a positive normal float")


def complex_radial_bending(
    m: int, lam: float = 1.0, quad: Optional[QuadratureConfig] = None
) -> BendingResult:
    """Total bending per unit volume of the complex radial foliation on CP^m.

    The leaves are totally geodesic invariant surfaces, so only the
    horizontal shear enters: the 2m - 2 directions of the lam branch share
    alpha(r) = sqrt(lam) cot(sqrt(lam) r), and each counts twice in the
    squared torsion, for the density (2m - 2) alpha^2.  Against the volume
    density sin(x)^(2m-1) cos(x), x = sqrt(lam) r, the two Beta integrals
    over (0, pi/2) give B/Vol = 2 lam for every m >= 2, exact in floating
    point.  ``quad`` is accepted for a uniform signature and not used.  The
    tube profile supplies mu and the branches, and raises UndecidedError
    where the branch curvature 4 lam overflows.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError("the complex radial foliation needs m >= 2")
    prof = tube_profile(ModelSpace(Family.COMPLEX_PROJECTIVE, m, lam), FocalVariety.point())
    return BendingResult(status="finite", value_per_volume=2.0 * prof.space.lam,
                         error_estimate=0.0, mu=prof.mu, branches=prof.branches)


def energy(bending: BendingResult, n: int) -> EnergyResult:
    """Energy of the orthogonal unit field, E = (n/2) Vol + B, from the
    bending result of a foliation of an n-dimensional space.

    Per unit volume this is n/2 + B/Vol; the absolute value is filled in
    where the bending result carries an absolute volume and the sum is a
    normal float.  The torus variant is not supported because its quoted
    bending integral is not volume-normalized.
    """
    if not isinstance(bending, BendingResult):
        raise TypeError("energy is defined for the volume-normalized bending results")
    if not bending.is_finite:
        return EnergyResult("divergent", None, None, bending)
    per_volume = n / 2.0 + bending.value_per_volume
    absolute = None
    if bending.value is not None and bending.volume is not None:
        total = n / 2.0 * bending.volume + bending.value
        absolute = total if _normal(total) else None
    return EnergyResult("finite", per_volume, absolute, bending)
