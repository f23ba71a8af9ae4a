"""Lower bounds for total bending, the mean-curvature integral identity,
and the reference table of radial/tubular bendings.

The bound for a singular foliation with q-dimensional leaves on a compact
space of positive curvature scale lam is

    B / Vol  >=  coefficient * q * (n - q) * lam,

where the coefficient depends on how q sits inside n (cases I, II, III
below).  The product q*(n-q)*lam is used verbatim even on spaces whose
invariant-subspace dimensions would constrain q, so on the projective
families the bound is valid but not sharp; ``einstein_lower_bound`` gives
the variant driven by the scalar curvature instead.

``integral_formula_check`` verifies the divergence identity relating the
Ricci curvature of the radial direction to the leafwise second mean
curvature: for every tube foliation with finite bending,

    Ric(u, u) * Vol = integral of 2 * (second mean curvature) over the space.

The identity has no reason to hold when the bending diverges, and the
check reports those rows as not applicable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .bending import BendingResult, _per_volume, _weighted_rows, total_bending
from .quadrature import QuadratureConfig
from .spaces import (
    FocalVariety,
    ModelSpace,
    parse_focal,
    parse_space,
    ricci_curvature,
    scalar_curvature,
)
from .tubes import NotComputableError, tube_profile

__all__ = [
    "BoundCase",
    "LowerBound",
    "lower_bound",
    "einstein_lower_bound",
    "IntegralCheckResult",
    "integral_formula_check",
    "DEFAULT_CHECK_PAIRS",
    "TableRow",
    "Table1Report",
    "DEFAULT_TABLE_ROWS",
    "table1_report",
    "MinimizerReport",
    "minimizer_report",
]


class BoundCase(Enum):
    """Position of the leaf dimension q inside the ambient dimension n."""

    I_Q1 = "I"            # q = 1
    I_CODIM1 = "I'"       # q = n - 1
    II_HALF = "II"        # 2q = n
    III_LOW = "III-"      # generic q, constant tuned to n - q
    III_HIGH = "III+"     # generic q, constant tuned to q


def _case_coefficient(case: BoundCase, n: int, q: int) -> Fraction:
    if case is BoundCase.I_Q1:
        if q != 1:
            raise ValueError("case I requires q = 1")
        return Fraction(1, 2 * (n - 2))
    if case is BoundCase.I_CODIM1:
        if q != n - 1:
            raise ValueError("case I' requires q = n - 1")
        return Fraction(1, 2 * (n - 2))
    if case is BoundCase.II_HALF:
        if 2 * q != n:
            raise ValueError("case II requires 2q = n")
        return Fraction(1, n - 2)
    if case is BoundCase.III_LOW:
        if q > n - 2:
            raise ValueError("case III- requires q <= n - 2")
        return Fraction(1, 2 * (n - q - 1))
    if case is BoundCase.III_HIGH:
        if q < 2:
            raise ValueError("case III+ requires q >= 2")
        return Fraction(1, 2 * (q - 1))
    raise ValueError(f"unknown bound case {case!r}")


@dataclass(frozen=True)
class LowerBound:
    case: BoundCase
    n: int
    q: int
    coefficient: Fraction  # multiplies q*(n-q)*lam
    value: float


def lower_bound(space: ModelSpace, q: int, case: BoundCase) -> LowerBound:
    """Lower bound for B/Vol of a foliation with q-dimensional leaves."""
    n = space.dim
    if n < 3:
        raise ValueError("the bending bounds need ambient dimension >= 3")
    if not isinstance(q, int) or not (1 <= q <= n - 1):
        raise ValueError("leaf dimension q must be an integer in [1, n-1]")
    coeff = _case_coefficient(case, n, q)
    value = float(coeff) * q * (n - q) * space.lam
    return LowerBound(case=case, n=n, q=q, coefficient=coeff, value=value)


def einstein_lower_bound(space: ModelSpace) -> float:
    """Scalar-curvature form of the case-I bound: tau / (2 n (n - 2)).

    On the projective families this is strictly stronger than
    ``lower_bound`` with the bare q*(n-q)*lam product; on constant
    curvature the two coincide.
    """
    n = space.dim
    if n < 3:
        raise ValueError("the bending bounds need ambient dimension >= 3")
    return scalar_curvature(space) / (2 * n * (n - 2))


@dataclass(frozen=True)
class IntegralCheckResult:
    """Outcome of the mean-curvature integral identity on one tube foliation."""

    space: str
    focal: str
    status: str  # "applicable" | "not-applicable"
    lhs: float   # Ricci curvature of the radial direction
    rhs: Optional[float]
    relative_gap: Optional[float]
    holds: bool  # applicable, and the gap is at most 1e-6


def integral_formula_check(
    space: ModelSpace,
    focal: FocalVariety,
    quad: Optional[QuadratureConfig] = None,
) -> IntegralCheckResult:
    """Check Ric(u,u) = (integral of twice the second mean curvature)/Vol,
    applicable where the endpoint orders make the bending finite."""
    prof = tube_profile(space, focal)
    lhs = ricci_curvature(space)
    status = "not-applicable" if 1 in prof.orders else "applicable"
    rhs = _per_volume(
        prof, _weighted_rows(prof, lambda r: 2.0 * prof.second_mean_curvature(r)), quad
    ).value_per_volume
    gap = None if rhs is None else abs(lhs - rhs) / abs(lhs)
    return IntegralCheckResult(
        space=space.label, focal=focal.label,
        status=status, lhs=lhs, rhs=rhs, relative_gap=gap,
        holds=status == "applicable" and gap is not None and gap <= 1e-6,
    )


# The pairs with finite bending in the reference table below, which the
# identity survey checks by default; the table lists its own rows.
DEFAULT_CHECK_PAIRS: tuple[tuple[str, str], ...] = (
    ("S:3", "point"),
    ("S:4", "point"),
    ("S:5", "point"),
    ("S:6", "point"),
    ("RP:3", "point"),
    ("RP:4", "point"),
    ("S:5", "sub:S:2"),
    ("CP:3", "sub:CP:1"),
    ("HP:2", "point"),
    ("HP:3", "point"),
    ("HP:3", "sub:HP:1"),
    ("CaP2", "point"),
)


@dataclass(frozen=True)
class TableRow:
    """One verified entry of the radial/tubular bending table."""

    space: str
    focal: str
    kind: str  # "finite" | "divergent" | "not-computable"
    closed_form: Optional[Fraction]  # B/Vol per unit curvature scale
    expected: Optional[float]
    computed: Optional[float]
    relative_error: Optional[float]
    divergent_endpoint: Optional[str]
    exponent_estimate: Optional[float]
    status: str  # "Reproduced" | "DivergenceConfirmed" | "NotComputable" | "Failed"

    @property
    def ok(self) -> bool:
        return self.status in ("Reproduced", "DivergenceConfirmed", "NotComputable")


# (space, focal, closed form per unit lam or the expected verdict); every row
# equals the exact catalog answer (tests/test_bounds.py, test_rows_equal_the_exact_catalog).
DEFAULT_TABLE_ROWS: tuple[tuple[str, str, object], ...] = (
    ("S:2", "point", "divergent"),
    ("S:3", "point", Fraction(1)),
    ("S:4", "point", Fraction(3, 4)),
    ("S:5", "point", Fraction(2, 3)),
    ("S:6", "point", Fraction(5, 8)),
    ("S:4", "sub:S:2", "divergent"),
    ("S:5", "sub:S:2", Fraction(6)),
    ("S:5", "sub:S:3", "divergent"),
    ("RP:3", "point", Fraction(1)),
    ("RP:4", "point", Fraction(3, 4)),
    ("CP:2", "point", "divergent"),
    ("CP:3", "point", "divergent"),
    ("CP:3", "sub:CP:1", Fraction(5)),
    ("HP:2", "point", Fraction(16, 3)),
    ("HP:3", "point", Fraction(41, 5)),
    ("HP:3", "sub:HP:1", Fraction(19, 3)),
    ("CaP2", "point", Fraction(139, 21)),
    ("CP:2", "sub:RP:2", "not computable"),
    ("HP:2", "sub:CP:2", "not computable"),
)


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[TableRow, ...]
    lam: float
    rtol: float

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


_VERDICT_KIND = {"divergent": "divergent", "not computable": "not-computable"}
_CONFIRMED = {"finite": "Reproduced", "divergent": "DivergenceConfirmed",
              "not-computable": "NotComputable"}


def _table_row(space, focal, form, lam, rtol, quad) -> TableRow:
    """Compute one pair and compare it with its closed form or expected verdict."""
    kind = _VERDICT_KIND.get(form, "finite")
    closed_form = expected = relative_error = None
    if kind == "finite":
        closed_form, expected = form, float(form) * lam
    try:
        res = total_bending(parse_space(space, lam), parse_focal(focal), quad)
    except NotComputableError:
        res = BendingResult(status="not-computable")  # every value left empty
    if kind == res.status == "finite":
        relative_error = abs(res.value_per_volume - expected) / abs(expected)
    ok = kind == res.status and (relative_error is None or relative_error <= rtol)
    return TableRow(space, focal, kind, closed_form, expected, res.value_per_volume,
                    relative_error, res.divergent_endpoint, res.exponent_estimate,
                    _CONFIRMED[kind] if ok else "Failed")


def table1_report(
    lam: float = 1.0,
    rtol: float = 1e-5,
    quad: Optional[QuadratureConfig] = None,
    rows: Optional[Sequence[tuple[str, str, object]]] = None,
) -> Table1Report:
    """Recompute the reference bending table and compare row by row.

    Finite rows must match their closed form to relative tolerance
    ``rtol``; rows expected to diverge must be flagged divergent; the two
    quotient pairs whose tube data is not determined by the catalog must
    raise accordingly.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("the curvature scale must be positive")
    if not (math.isfinite(rtol) and rtol >= 0):
        raise ValueError("the relative tolerance must be a nonnegative finite number")
    out = tuple(
        _table_row(space, focal, form, lam, rtol, quad)
        for space, focal, form in (rows if rows is not None else DEFAULT_TABLE_ROWS)
    )
    return Table1Report(rows=out, lam=lam, rtol=rtol)


@dataclass(frozen=True)
class MinimizerReport:
    """Does the geodesic-sphere foliation attain the codimension-one bound?"""

    space: str
    bound: LowerBound
    bending: BendingResult
    slack: Optional[float]
    attains_bound: bool
    leaves_umbilical: bool
    leaves_integrable: bool
    note: str


def minimizer_report(
    space: ModelSpace,
    quad: Optional[QuadratureConfig] = None,
    tol: float = 1e-8,
) -> MinimizerReport:
    """Compare the radial foliation of a model space against the q = n-1 bound.

    On constant curvature the geodesic spheres are umbilical and the bound
    is attained exactly; on the projective families the spheres carry two
    distinct principal curvatures and the bending sits strictly above the
    bound (or diverges, making the bound vacuous).
    """
    bound = lower_bound(space, space.dim - 1, BoundCase.I_CODIM1)
    bending = total_bending(space, FocalVariety.point(), quad)
    umbilical = len(bending.branches) == 1
    if not bending.is_finite:
        return MinimizerReport(
            space=space.label, bound=bound, bending=bending, slack=None,
            attains_bound=False, leaves_umbilical=umbilical,
            leaves_integrable=True,
            note="bound holds vacuously: the total bending diverges",
        )
    slack = bending.value_per_volume - bound.value
    attains = abs(slack) <= tol * max(1.0, abs(bound.value))
    if slack < -tol * max(1.0, abs(bound.value)):
        note = "bound violated"  # would indicate a defect; never expected
    elif attains:
        note = "bound attained: umbilical integrable leaves minimize bending"
    else:
        note = "bound strict: leaves are not umbilical"
    return MinimizerReport(
        space=space.label, bound=bound, bending=bending, slack=slack,
        attains_bound=attains, leaves_umbilical=umbilical,
        leaves_integrable=True, note=note,
    )
