"""Total bending and energy of the cataloged singular foliations.

The bending of a radial or tubular foliation reduces to one-dimensional
integrals over the tube radius: with branch principal curvatures alpha_a
of multiplicity m_a and density theta,

    B / c     = integral over (0, mu) of  0.5 * sum_a m_a alpha_a(r)^2 * theta(r) dr,
    Vol / c   = integral over (0, mu) of  theta(r) dr,

with the same (usually symbolic) constant c in both, so the ratio B/Vol is
always well defined; absolute values are reported only where the catalog
pins c (geodesic spheres around points of S^m and RP^m, as long as c is a
normal float).  The energy of the orthogonal unit vector field is
E = (n/2) Vol + B.

Divergence of the bending integral at either end of (0, mu) is detected by
the open-interval quadrature and reported as a verdict with the fitted
power-law exponent instead of a number.
"""
from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import (
    OpenResult,
    QuadratureConfig,
    UndecidedError,
    adaptive_quadrature,
    integrate_open,
)
from .spaces import Family, FocalVariety, ModelSpace
from .tubes import InitKind, JacobiBranch, TubeProfile, jacobi_solution, tube_profile

__all__ = [
    "BendingResult",
    "TorusResult",
    "EnergyResult",
    "total_bending",
    "epsilon_deformed_bending",
    "torus_bending",
    "complex_radial_bending",
    "complex_radial_density",
    "energy",
]

@dataclass(frozen=True)
class BendingResult:
    """Outcome of one bending computation.

    ``status`` is "finite" or "divergent".  Finite results always carry
    ``value_per_volume`` (and its error estimate); ``value``/``volume`` are
    the absolute numbers and are present only when the volume constant is
    part of the catalog.  Divergent results carry the endpoint ("0", "mu"
    or "both") and the fitted power-law exponent instead.
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


def _divergent_endpoint(open_result: OpenResult) -> str:
    if open_result.lower.divergent and open_result.upper.divergent:
        return "both"
    return "0" if open_result.lower.divergent else "mu"


@contextmanager
def _overflow_is_undecided(prof: TubeProfile):
    """A density of ``prof`` whose values or panel sums overflow is undecided."""
    try:
        yield
    except ValueError as exc:
        raise UndecidedError(f"the density of {prof.space.label} / {prof.focal.label} "
                             f"overflows at this curvature scale: {exc}") from exc


def _per_volume(
    prof: TubeProfile,
    density: Callable,
    quad: Optional[QuadratureConfig],
    window: Optional[tuple[float, float]] = None,
) -> BendingResult:
    """Integral of ``density`` per unit volume of the profile, with its error.

    The density is integrated over the open interval (0, mu), which can
    return a divergence verdict instead, or over the closed ``window``
    inside it.  This is the only place that divides by the volume; a density
    that overflows or a volume that is not a normal float raises UndecidedError.
    """
    with _overflow_is_undecided(prof):
        if window is None:
            res = integrate_open(density, 0.0, prof.mu, quad)
            if res.status == "divergent":
                return BendingResult(
                    status="divergent",
                    divergent_endpoint=_divergent_endpoint(res),
                    exponent_estimate=res.exponent_estimate,
                    mu=prof.mu,
                    branches=prof.branches,
                )
            val, err = res.value, res.error
        else:
            val, err = adaptive_quadrature(density, window[0], window[1], quad)
        vol, vol_err = adaptive_quadrature(prof.theta, 0.0, prof.mu, quad)
    if vol < sys.float_info.min:
        raise UndecidedError(
            f"the volume integral {vol!r} of {prof.space.label} / {prof.focal.label} "
            "is not a positive normal float at this curvature scale"
        )
    ratio = val / vol
    absolute = volume = None
    if prof.area_constant is not None:
        absolute = prof.area_constant * val
        volume = prof.area_constant * vol
    return BendingResult(
        status="finite",
        value_per_volume=ratio,
        error_estimate=(err + abs(ratio) * vol_err) / vol,
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
    return _per_volume(prof, prof.bending_density, quad)


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
    verdict, e.g. for the spherical foliation of S^2).
    """
    if not (0.0 <= epsilon <= math.pi / 2.0):
        raise ValueError("epsilon must lie in [0, pi/2]")
    prof = tube_profile(space, focal)
    window = None
    if epsilon < math.pi / 2.0:
        window = (prof.mu * (math.pi - 2.0 * epsilon) / (2.0 * math.pi),
                  prof.mu * (math.pi + 2.0 * epsilon) / (2.0 * math.pi))
    return _per_volume(prof, prof.bending_density, quad, window)


def torus_bending(
    big_radius: float,
    small_radius: float,
    quad: Optional[QuadratureConfig] = None,
    *,
    area_weighted: bool = False,
) -> TorusResult:
    """Bending of the angular circle foliation of a torus of revolution.

    The flat default evaluates the double integral of
    sin(t)^2 / (R + r cos(t))^2 over both angles (the phi integral is a
    constant factor 2*pi), together with its upper bound 2*(pi/(R-r))^2.
    ``area_weighted`` switches to the variant with the surface area element
    r*(R + r cos t) dt dphi in the integrand.
    """
    if not (math.isfinite(big_radius) and 0 < small_radius < big_radius):
        raise ValueError("torus radii must satisfy 0 < small_radius < big_radius")
    R, r = big_radius, small_radius

    def integrand(t):
        base = np.sin(t) ** 2 / (R + r * np.cos(t)) ** 2
        if area_weighted:
            return base * r * (R + r * np.cos(t))
        return base

    val, err = adaptive_quadrature(integrand, 0.0, 2.0 * math.pi, quad)
    return TorusResult(
        value=math.pi * val,
        error_estimate=math.pi * err,
        upper_bound=2.0 * (math.pi / (R - r)) ** 2,
        area_weighted=area_weighted,
    )


def complex_radial_density(m: int, lam: float = 1.0):
    """Pointwise bending density (squared-torsion quarter) of the complex
    radial foliation on CP^m, as a function of the tube radius.

    The orthogonal complement of the invariant surface through a radial
    geodesic consists of 2m-2 principal directions sharing the generic
    shear alpha(r) = sqrt(lam)*cot(sqrt(lam)*r); each contributes twice to
    the squared torsion (once along the radial direction, once along its
    invariant-structure image), so the density is (2m-2)*alpha(r)^2.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError("the complex radial foliation needs m >= 2")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("the curvature scale must be positive")
    _, alpha = jacobi_solution(lam, InitKind.NORMAL)
    return lambda r: (2 * m - 2) * alpha(r) ** 2


def complex_radial_bending(
    m: int, lam: float = 1.0, quad: Optional[QuadratureConfig] = None
) -> BendingResult:
    """Total bending per unit volume of the complex radial foliation on CP^m.

    The leaves are totally geodesic invariant surfaces, so only the
    horizontal shear enters; the integral is finite for every m >= 2.
    """
    density = complex_radial_density(m, lam)  # validates m and lam
    prof = tube_profile(ModelSpace(Family.COMPLEX_PROJECTIVE, m, lam), FocalVariety.point())
    return _per_volume(prof, lambda r: density(r) * prof.theta(r), quad)


def energy(bending: BendingResult, n: int) -> EnergyResult:
    """Energy of the orthogonal unit field, E = (n/2) Vol + B, from the
    bending result of a foliation of an n-dimensional space.

    Per unit volume this is n/2 + B/Vol; the absolute value is filled in
    whenever the bending result carries an absolute volume.  The torus
    variant is not supported because its quoted bending integral is not
    volume-normalized.
    """
    if not isinstance(bending, BendingResult):
        raise TypeError("energy is defined for the volume-normalized bending results")
    if not bending.is_finite:
        return EnergyResult("divergent", None, None, bending)
    per_volume = n / 2.0 + bending.value_per_volume
    absolute = None
    if bending.value is not None and bending.volume is not None:
        absolute = n / 2.0 * bending.volume + bending.value
    return EnergyResult("finite", per_volume, absolute, bending)
