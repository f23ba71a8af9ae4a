"""Catalog of compact rank-one model spaces and their curvature data.

Five families: round spheres S^m, real projective spaces RP^m, complex
projective spaces CP^m, quaternionic projective spaces HP^m, and the
16-dimensional octonionic projective plane (CaP2).  Each space carries a
curvature scale ``lam``; spheres and RP have constant sectional curvature
``lam``, the other families are normalized so the curvature operator in a
unit direction u has eigenvalue 4*lam on the invariant-structure images of
u and ``lam`` on the rest.

Downstream modules read ``invariant_count`` nu and ``dim`` = (nu + 1) * m,
from which ``tubes.tube_profile`` builds its branches, and the Ricci
curvature (n - 1 + 3 nu) * lam, the trace of that operator on the orthogonal
complement of u (``ricci_curvature``).  ``label`` ("S:3", "CaP2") is the one
rendering of a space, in messages and output alike.
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
    "ricci_curvature",
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

# The families named FAMILY:m, by prefix: every one but the single plane CaP2.
_INDEXED = {family.value: family for family in Family if family is not Family.CAYLEY_PLANE}

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
        if self.dim > 2**53:  # so n, q, n - q and each multiplicity are exact floats
            raise ValueError("the dimension must be at most 2**53")
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


def parse_space(text: str, lam: float = 1.0) -> ModelSpace:
    """Parse "S:m", "RP:m", "CP:m", "HP:m" or "CaP2"."""
    text = text.strip()
    if text == "CaP2":
        return ModelSpace(Family.CAYLEY_PLANE, 2, lam)
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"cannot parse space {text!r}; expected FAMILY:m or CaP2")
    prefix, index = parts
    if prefix not in _INDEXED:
        raise ValueError(f"unknown space family {prefix!r}")
    try:
        m = int(index)
    except ValueError:
        raise ValueError(f"space index must be an integer, got {index!r}") from None
    return ModelSpace(_INDEXED[prefix], m, lam)


def ricci_curvature(space: ModelSpace) -> float:
    """Ricci curvature Ric(u, u) of any unit direction: n - 1 - nu directions at
    curvature lam and nu at 4 lam, for the exact (n - 1 + 3 nu) * lam rounded once."""
    return (space.dim - 1 + 3 * space.invariant_count) * space.lam


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
            if self.sub_family not in _INDEXED.values():
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
    if len(parts) == 3 and parts[0] == "sub" and parts[1] in _INDEXED:
        try:
            p = int(parts[2])
        except ValueError:
            raise ValueError(f"sub-space index must be an integer, got {parts[2]!r}") from None
        return FocalVariety.sub(_INDEXED[parts[1]], p)
    raise ValueError(f"cannot parse focal variety {text!r}; expected 'point' or 'sub:FAMILY:p'")
