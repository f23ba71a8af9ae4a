"""Principal-curvature profiles of geodesic spheres and distance tubes.

A radial or tubular foliation of a model space is determined along a unit
normal geodesic by a handful of scalar Jacobi equations f'' + kappa*f = 0.
Each *branch* carries one curvature eigenvalue kappa, a multiplicity, and
an initial condition:

``NORMAL``   f(0) = 0, f'(0) = 1 -- directions spreading out from the center;
``TANGENT``  f(0) = 1, f'(0) = 0 -- directions tangent to the focal sub-space.

From the branch solutions we get the leaves' principal curvature functions
alpha = f'/f and the volume density theta = prod f**mult, defined up to a
constant factor (supplied explicitly only where the leaves are full
geodesic spheres, so that absolute volumes make sense).  ``TubeProfile``
is the one evaluator of the branches' closed forms: each evaluation loops
once over the branches, in order, for (multiplicity, f, alpha) at the
radii, and folds that list into theta, the curvature sums or the two-row
integrands.  ``tube_profile`` builds a profile for a cataloged pair.

The catalog covers exactly the pairs whose curvature data is available:
points in all five families, totally geodesic S^k in S^m (likewise RP),
CP^p in CP^m and HP^p in HP^m.  The two classical pairs with a
different normal geometry (RP^m inside CP^m, CP^m inside HP^m) are
rejected with NotComputableError: their tube profile is not determined by
the spectral data this package carries.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import combinations
from typing import Optional

from .quadrature import UndecidedError
from .spaces import Family, FocalVariety, ModelSpace

__all__ = [
    "InitKind",
    "JacobiBranch",
    "TubeProfile",
    "NotComputableError",
    "tube_profile",
    "write_profile_csv",
]


class InitKind(Enum):
    NORMAL = "normal"
    TANGENT = "tangent"


@dataclass(frozen=True)
class JacobiBranch:
    """One Jacobi equation of a tube; the only place branch data is checked."""

    kappa: float
    multiplicity: int
    init: InitKind

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("branch curvature must be finite and positive")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise ValueError("branch multiplicity must be a positive integer")
        if not isinstance(self.init, InitKind):
            raise ValueError(f"unknown initial condition {self.init!r}")


class NotComputableError(ValueError):
    """The pair is classical but its tube data is not computable from the
    spectral information this catalog quotes."""


# numpy, bound by the first evaluation of a profile (``TubeProfile._rows`` or
# ``samples``): the commands that evaluate none never import it.
np = None


def _unit_sphere_area(n: int) -> Optional[float]:
    # Surface area of the unit (n-1)-sphere in R^n, computed in log space
    # because gamma(n/2) overflows for n >= 350; None once the area is no
    # longer a normal float.
    area = math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))
    return area if area >= sys.float_info.min else None


@dataclass(frozen=True)
class TubeProfile:
    """Branches, cut distance and density of one cataloged foliation.

    ``theta(mu)`` vanishes except in the one cataloged case where the
    boundary leaf is a regular smooth leaf rather than a focal set (the
    antipodal cross-section of RP^m around a point); that case is marked by
    ``boundary_leaf_regular``.  Every branch has kappa > 0.  Each evaluation
    runs ``_rows`` once, a loop over ``branches``, and folds its rows.
    """

    space: ModelSpace
    focal: FocalVariety
    branches: tuple[JacobiBranch, ...]
    mu: float
    area_constant: Optional[float]
    # (Z_0, Z_mu): multiplicity of the branches vanishing at r = 0 and at mu.
    # There theta ~ d**Z and sum m alpha**2 ~ d**-2 (Z >= 1), so the bending
    # integral diverges, logarithmically, exactly at an end with Z = 1.
    orders: tuple[int, int]

    @property
    def boundary_leaf_regular(self) -> bool:
        return self.orders[1] == 0

    @property
    def divergent_endpoint(self) -> Optional[str]:
        """The ends with Z = 1, where the bending diverges: None, "0", "mu" or "both"."""
        z_0, z_mu = self.orders
        if z_0 == 1:
            return "both" if z_mu == 1 else "0"
        return "mu" if z_mu == 1 else None

    def _rows(self, r) -> tuple[tuple, list]:
        """Shape of r, and (multiplicity, f, alpha) per branch at the flattened
        radii, by the closed forms of f'' + kappa*f = 0 at x = sqrt(kappa)*r."""
        global np
        if np is None:
            import numpy as np
        r = np.asarray(r, dtype=float)
        rows = []
        for branch in self.branches:
            root = math.sqrt(branch.kappa)
            x = root * r.reshape(-1)
            if branch.init is InitKind.NORMAL:
                f, alpha = np.sin(x) / root, root / np.tan(x)
            else:
                f, alpha = np.cos(x), -root * np.tan(x)
            rows.append((float(branch.multiplicity), f, alpha))
        return r.shape, rows

    def theta(self, r):
        """Volume density (up to the constant factor) at tube radius r."""
        shape, rows = self._rows(r)
        return _theta(rows).reshape(shape)

    def alpha_values(self, r) -> np.ndarray:
        """Per-branch principal curvature values at tube radius r (one row each)."""
        shape, rows = self._rows(r)
        return np.array([alpha for _, _, alpha in rows]).reshape((len(rows),) + shape)

    def sum_alpha(self, r):
        """Multiplicity-weighted sum of principal curvatures (mean curvature)."""
        shape, rows = self._rows(r)
        return _sum(rows, 1).reshape(shape)

    def bending_rows(self, r) -> np.ndarray:
        """Rows (bending density, theta) at the flattened radii r, from one evaluation."""
        _, rows = self._rows(r)
        theta = _theta(rows)
        return np.array((0.5 * _sum(rows, 2) * theta, theta))

    def second_mean_curvature(self, r):
        """Sum of pairwise products of principal curvatures (with multiplicity),
        pair by pair: 0.5 ((sum m alpha)**2 - sum m alpha**2) cancels d**-2 terms."""
        shape, rows = self._rows(r)
        return _sigma_2(rows).reshape(shape)

    def identity_rows(self, r) -> np.ndarray:
        """Rows (2 * second mean curvature * theta, theta) at the flattened radii r,
        from one evaluation."""
        _, rows = self._rows(r)
        theta = _theta(rows)
        return np.array((2.0 * _sigma_2(rows) * theta, theta))

    def samples(self, count: int = 200) -> np.ndarray:
        """Interior sample table: columns r, alpha per branch, theta."""
        global np
        if count < 2:
            raise ValueError("need at least two sample points")
        import numpy as np
        with np.errstate(all="ignore"):  # an overflowing density is written as inf
            r = np.linspace(0.0, self.mu, count + 2)[1:-1]
            _, rows = self._rows(r)
            return np.column_stack([r, *(alpha for _, _, alpha in rows), _theta(rows)])


# The folds over the rows of ``TubeProfile._rows``, one row at a time in branch
# order: cheaper than a numpy axis reduction over so few rows.  theta raises the
# stacked f rows to the column of multiplicities in one power: a row raised to a
# scalar multiplicity of 2 would take numpy's square path, which rounds some
# values otherwise.
def _theta(rows):
    powers = np.array([f for _, f, _ in rows]) ** np.array([[mult] for mult, _, _ in rows])
    return reduce(np.multiply, powers)


def _sum(rows, power):
    return reduce(np.add, [mult * alpha ** power for mult, _, alpha in rows])


def _sigma_2(rows):
    weighted = [mult * alpha for mult, _, alpha in rows]
    total = 0.5 * reduce(np.add, [(mult - 1.0) * alpha * w
                                  for (mult, _, alpha), w in zip(rows, weighted)])
    for a, b in combinations(weighted, 2):
        total = total + a * b
    return total


def _build(space, focal, branch_data, turns, area_constant=None) -> TubeProfile:
    # At mu a branch reaches x = k*turns*pi/2, a zero of sin (NORMAL) if
    # k*turns is even and of cos (TANGENT) if it is odd.
    lam, branches, z_0, z_mu = space.lam, [], 0, 0
    for k, mult, init in branch_data:
        if mult > 0:
            if math.isinf(k * k * lam):
                raise UndecidedError(f"the branch curvature 4*lambda of {space.label} / "
                                     f"{focal.label} overflows at lambda = {lam!r}")
            branches.append(JacobiBranch(k * k * lam, mult, init))
            z_0 += mult if init is InitKind.NORMAL else 0
            z_mu += mult if (k * turns % 2 == 0) == (init is InitKind.NORMAL) else 0
    mu = turns * math.pi / (2.0 * math.sqrt(lam))
    return TubeProfile(space, focal, tuple(branches), mu, area_constant, (z_0, z_mu))


def tube_profile(space: ModelSpace, focal: FocalVariety) -> TubeProfile:
    """Branch data, cut distance and density for one cataloged pair.

    The branches of every family follow from n = ``space.dim`` and nu =
    ``space.invariant_count`` (A. Gray, *Tubes*, 2nd ed., 2004), each as a
    frequency k = 1 or 2 with kappa = k*k*lam; the cut is mu = turns * pi /
    (2 sqrt(lam)), with turns = 2 half turns around a point of S and 1
    elsewhere.  The orders follow from these alone: Z_0 sums the NORMAL
    multiplicities, and Z_mu those of the branches where k*turns is even
    exactly when they are NORMAL.

    Raises ValueError for pairs outside the catalog, NotComputableError
    for the two classical pairs whose tube data the catalog cannot supply
    (RP^m in CP^m and CP^m in HP^m), and UndecidedError where the branch
    curvature 4*lambda overflows.
    """
    n, nu, m, fam = space.dim, space.invariant_count, space.m, space.family
    N, T = InitKind.NORMAL, InitKind.TANGENT

    if focal.kind == "point":
        round_family = fam in (Family.SPHERE, Family.REAL_PROJECTIVE)
        if m < 2 and round_family:
            raise ValueError(f"no radial foliation on {space}: need dimension >= 2")
        if m < 2:
            raise ValueError(f"{space} is isometric to a sphere; use the sphere catalog entry")
        return _build(
            space, focal, [(1, n - 1 - nu, N), (2, nu, N)], 2 if fam is Family.SPHERE else 1,
            area_constant=_unit_sphere_area(n) if round_family else None,
        )

    sub, p = focal.sub_family, focal.p
    if sub is fam:
        if not (1 <= p <= m - 1):
            raise ValueError(f"no totally geodesic {focal.label} inside {space}")
        return _build(space, focal,
                      [(1, (nu + 1) * p, T), (1, (nu + 1) * (m - 1 - p), N), (2, nu, N)], 1)
    if p == m and (fam, sub) in ((Family.COMPLEX_PROJECTIVE, Family.REAL_PROJECTIVE),
                                 (Family.QUATERNIONIC_PROJECTIVE, Family.COMPLEX_PROJECTIVE)):
        raise NotComputableError(
            f"tube data for {focal.label} inside {space.label} is not computable "
            "from the quoted curvature data"
        )
    raise ValueError(f"pair ({space.label}, {focal.label}) is outside the tube catalog")


def write_profile_csv(profile: TubeProfile, path: str, count: int = 200) -> None:
    """Write the interior sample table as CSV: r, alpha_1..alpha_B, theta."""
    table = profile.samples(count)
    header = ["r"] + [f"alpha_{i + 1}" for i in range(len(profile.branches))] + ["theta"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in table:
            writer.writerow([repr(float(x)) for x in row])
