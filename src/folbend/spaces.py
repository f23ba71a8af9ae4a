"""Catalog of compact rank-one model spaces and their curvature data.

Five families: round spheres S^m, real projective spaces RP^m, complex
projective spaces CP^m, quaternionic projective spaces HP^m, and the
16-dimensional octonionic projective plane (CaP2).  Each space carries a
curvature scale ``lam``; spheres and RP have constant sectional curvature
``lam``, the other families are normalized so the curvature operator in a
unit direction u has eigenvalue 4*lam on the invariant-structure images of
u and ``lam`` on the rest.

Downstream modules read ``invariant_count`` nu and ``dim`` = (nu + 1) * m,
from which ``tubes.tube_profile`` builds its branches, and
``jacobi_spectrum``, the (eigenvalue, multiplicity) pairs of the operator
on the orthogonal complement of u.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Family",
    "ModelSpace",
    "FocalVariety",
    "parse_space",
    "parse_focal",
    "jacobi_spectrum",
    "ricci_curvature",
    "scalar_curvature",
]


class Family(Enum):
    SPHERE = "S"
    REAL_PROJECTIVE = "RP"
    COMPLEX_PROJECTIVE = "CP"
    QUATERNIONIC_PROJECTIVE = "HP"
    CAYLEY_PLANE = "CaP2"


# Number of orthogonal invariant structures J_s (quaternionic triple, etc.).
_INVARIANT_COUNT = {
    Family.SPHERE: 0,
    Family.REAL_PROJECTIVE: 0,
    Family.COMPLEX_PROJECTIVE: 1,
    Family.QUATERNIONIC_PROJECTIVE: 3,
    Family.CAYLEY_PLANE: 7,
}

@dataclass(frozen=True)
class ModelSpace:
    family: Family
    m: int
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("the index m must be a positive integer")
        if self.family is Family.CAYLEY_PLANE and self.m != 2:
            raise ValueError("the octonionic projective space exists only as a plane (m = 2)")
        if not (isinstance(self.lam, (int, float)) and math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("the curvature scale must be a positive finite number")
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def dim(self) -> int:
        return (self.invariant_count + 1) * self.m

    @property
    def invariant_count(self) -> int:
        return _INVARIANT_COUNT[self.family]

    @property
    def label(self) -> str:
        if self.family is Family.CAYLEY_PLANE:
            return "CaP2"
        return f"{self.family.value}:{self.m}"

    def __str__(self) -> str:
        if self.family is Family.CAYLEY_PLANE:
            return f"CaP^2(lam={self.lam:g})"
        return f"{self.family.value}^{self.m}(lam={self.lam:g})"


def parse_space(text: str, lam: float = 1.0) -> ModelSpace:
    """Parse "S:m", "RP:m", "CP:m", "HP:m" or "CaP2"."""
    text = text.strip()
    if text == "CaP2":
        return ModelSpace(Family.CAYLEY_PLANE, 2, lam)
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"cannot parse space {text!r}; expected FAMILY:m or CaP2")
    prefix, index = parts
    for family in Family:
        if family.value == prefix and family is not Family.CAYLEY_PLANE:
            try:
                m = int(index)
            except ValueError:
                raise ValueError(f"space index must be an integer, got {index!r}") from None
            return ModelSpace(family, m, lam)
    raise ValueError(f"unknown space family {prefix!r}")


def jacobi_spectrum(space: ModelSpace) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) pairs of the curvature operator normal to a unit direction.

    Families without invariant structures have the single degenerate pair;
    the others split off the invariant-structure directions at 4*lam.
    """
    n, nu, lam = space.dim, space.invariant_count, space.lam
    if nu == 0:
        return [(lam, n - 1)]
    return [(4.0 * lam, nu), (lam, n - 1 - nu)]


def ricci_curvature(space: ModelSpace) -> float:
    """Ricci curvature Ric(u, u) of any unit direction: the spectrum trace."""
    return math.fsum(eig * mult for eig, mult in jacobi_spectrum(space))


def scalar_curvature(space: ModelSpace) -> float:
    """Scalar curvature, n*(n - 1 + 3*nu)*lam.

    Closed form on purpose: tests compare it against n times the
    ``jacobi_spectrum`` trace as a consistency check between the two routes.
    """
    n, nu = space.dim, space.invariant_count
    return n * (n - 1 + 3 * nu) * space.lam


@dataclass(frozen=True)
class FocalVariety:
    """Center of a radial or tubular foliation: a point or a totally geodesic sub-space.

    For kind "sub", ``sub_family`` and ``p`` name the sub-space the same way
    ModelSpace does (S^p, RP^p, CP^p, HP^p).
    """

    kind: str
    sub_family: Family | None = None
    p: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("point", "sub"):
            raise ValueError("focal kind must be 'point' or 'sub'")
        if self.kind == "sub":
            if self.sub_family is None or self.sub_family is Family.CAYLEY_PLANE:
                raise ValueError("sub-space focal varieties exist for S, RP, CP, HP only")
            if not isinstance(self.p, int) or self.p < 1:
                raise ValueError("the sub-space index must be a positive integer")

    @staticmethod
    def point() -> "FocalVariety":
        return FocalVariety("point")

    @staticmethod
    def sub(family: Family, p: int) -> "FocalVariety":
        return FocalVariety("sub", family, p)

    @property
    def label(self) -> str:
        if self.kind == "point":
            return "point"
        return f"sub:{self.sub_family.value}:{self.p}"


def parse_focal(text: str) -> FocalVariety:
    """Parse "point" or "sub:FAMILY:p"."""
    text = text.strip()
    if text == "point":
        return FocalVariety.point()
    parts = text.split(":")
    if len(parts) == 3 and parts[0] == "sub":
        for family in Family:
            if family.value == parts[1] and family is not Family.CAYLEY_PLANE:
                try:
                    p = int(parts[2])
                except ValueError:
                    raise ValueError(f"sub-space index must be an integer, got {parts[2]!r}") from None
                return FocalVariety.sub(family, p)
    raise ValueError(f"cannot parse focal variety {text!r}; expected 'point' or 'sub:FAMILY:p'")
