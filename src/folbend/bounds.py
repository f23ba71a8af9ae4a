"""Lower bounds for total bending, the mean-curvature integral identity,
and the reference table of radial/tubular bendings.

The bound for a singular foliation with q-dimensional leaves on a compact
space of positive curvature scale lam is

    B / Vol  >=  coefficient * q * (n - q) * lam,

where the table ``_CASES`` gives each case its condition and coefficient:
I (q = 1) and I' (q = n - 1) have 1/(2(n-2)), II (2q = n) 1/(n-2), III-
(q <= n-2) 1/(2(n-q-1)) and III+ (q >= 2) 1/(2(q-1)).  The paper's labels
I and III resolve to the reading whose condition holds; where both
readings of III hold, the larger coefficient wins, and III- wins a tie.
The product q*(n-q)*lam is used verbatim even on spaces whose
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

from .bending import BendingResult, _per_volume, total_bending
from .quadrature import QuadratureConfig, UndecidedError, _normal
from .spaces import (
    FocalVariety,
    ModelSpace,
    parse_focal,
    parse_space,
    ricci_curvature,
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


# Each case: the paper's label, the condition on (n, q) in words and as a
# test, and the denominator d of the coefficient 1/d of q*(n-q)*lam.
_CASES = {
    BoundCase.I_Q1: ("I", "q = 1", lambda n, q: q == 1, lambda n, q: 2 * (n - 2)),
    BoundCase.I_CODIM1: ("I", "q = n - 1", lambda n, q: q == n - 1, lambda n, q: 2 * (n - 2)),
    BoundCase.II_HALF: ("II", "2q = n", lambda n, q: 2 * q == n, lambda n, q: n - 2),
    BoundCase.III_LOW: ("III", "q <= n - 2", lambda n, q: q <= n - 2, lambda n, q: 2 * (n - q - 1)),
    BoundCase.III_HIGH: ("III", "q >= 2", lambda n, q: q >= 2, lambda n, q: 2 * (q - 1)),
}


def _reading(case, n: int, q: int) -> tuple[BoundCase, Fraction]:
    """The case a label, a ``BoundCase`` or its value names at (n, q), and its
    coefficient: of the readings that hold, the largest, the first on a tie."""
    if n < 3:
        raise ValueError("the bending bounds need ambient dimension >= 3")
    if not isinstance(q, int) or not (1 <= q <= n - 1):
        raise ValueError("leaf dimension q must be an integer in [1, n-1]")
    readings = [c for c, row in _CASES.items() if row[0] == case] or [BoundCase(case)]
    held = [(c, Fraction(1, _CASES[c][3](n, q))) for c in readings if _CASES[c][2](n, q)]
    if not held:
        raise ValueError(f"case {getattr(case, 'value', case)} requires "
                         + " or ".join(_CASES[c][1] for c in readings))
    return max(held, key=lambda pair: pair[1])


def _finite(value: float, space: ModelSpace, what: str = "bound") -> float:
    # Below the normal range rounding is coarse enough to print a lower bound
    # above the exact one (5/8 * 5e-324 prints as 5e-324), so that is undecided too.
    if not _normal(value):
        where = "exceeds the" if value > 1 else "falls below the normal"
        raise UndecidedError(f"the {what} on {space.label} {where} float range "
                             f"at lam = {space.lam!r}")
    return value


@dataclass(frozen=True)
class LowerBound:
    case: BoundCase
    n: int
    q: int
    coefficient: Fraction  # multiplies q*(n-q)*lam
    value: float


def lower_bound(space: ModelSpace, q: int, case: BoundCase | str) -> LowerBound:
    """Lower bound for B/Vol of a foliation with q-dimensional leaves in the
    ``case`` that a ``BoundCase``, its value or the paper's label I, II or III
    names (module docstring); a bound outside the normal float range is undecided."""
    n = space.dim
    case, coeff = _reading(case, n, q)
    value = _finite(float(coeff) * q * (n - q) * space.lam, space)
    return LowerBound(case=case, n=n, q=q, coefficient=coeff, value=value)


def einstein_lower_bound(space: ModelSpace) -> float:
    """Scalar-curvature form of the case-I bound, tau / (2 n (n - 2)): the
    case-I coefficient times the exact Ric/lam = n - 1 + 3 nu, times lam.

    On the projective families this is strictly stronger than
    ``lower_bound`` with the bare q*(n-q)*lam product; on constant
    curvature the two coincide.
    """
    ric = Fraction(ricci_curvature(ModelSpace(space.family, space.m)))  # Ric / lam, exactly
    return _finite(float(_reading(BoundCase.I_Q1, space.dim, 1)[1] * ric) * space.lam, space)


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
    applicable where the endpoint orders make the bending finite.  A Ricci
    side that is not a normal float is undecided, before any integration."""
    prof = tube_profile(space, focal)
    lhs = _finite(ricci_curvature(space), space, "Ricci curvature")
    status = "not-applicable" if prof.divergent_endpoint else "applicable"

    rhs = _per_volume(prof, prof.identity_rows, quad).value_per_volume
    gap = None if rhs is None else abs(lhs - rhs) / abs(lhs)
    return IntegralCheckResult(
        space=space.label, focal=focal.label,
        status=status, lhs=lhs, rhs=rhs, relative_gap=gap,
        holds=status == "applicable" and gap is not None and gap <= 1e-6,
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


# (space, focal, closed form per unit lam or the verdict "divergent" or "not-computable");
# every row equals the exact catalog answer (test_bounds.py, test_rows_equal_the_exact_catalog).
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
    ("CP:2", "sub:RP:2", "not-computable"),
    ("HP:2", "sub:CP:2", "not-computable"),
)

# The pairs with finite bending in the table, which the identity survey checks by default.
DEFAULT_CHECK_PAIRS: tuple[tuple[str, str], ...] = tuple(
    (space, focal) for space, focal, form in DEFAULT_TABLE_ROWS if isinstance(form, Fraction))


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[TableRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


_CONFIRMED = {"finite": "Reproduced", "divergent": "DivergenceConfirmed",
              "not-computable": "NotComputable"}


def _table_row(space, focal, form, lam, rtol, quad) -> TableRow:
    """Compute one pair and compare it with its closed form or expected verdict."""
    kind = form if isinstance(form, str) else "finite"
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
    raise accordingly.  The rows' ``ModelSpace`` rejects an invalid ``lam``.
    """
    if not (math.isfinite(rtol) and rtol >= 0):
        raise ValueError("the relative tolerance must be a nonnegative finite number")
    out = tuple(
        _table_row(space, focal, form, lam, rtol, quad)
        for space, focal, form in (rows if rows is not None else DEFAULT_TABLE_ROWS)
    )
    return Table1Report(rows=out)


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
) -> MinimizerReport:
    """Compare the radial foliation of a model space against the q = n-1 bound.

    On constant curvature the geodesic spheres are umbilical and the bound
    is attained exactly; on the projective families the spheres carry two
    distinct principal curvatures and the bending sits strictly above the
    bound (or diverges, making the bound vacuous).  It is attained where |slack|
    is within the bending's error estimate plus four ulps of the bound (its roundings).
    """
    bound = lower_bound(space, space.dim - 1, BoundCase.I_CODIM1)
    bending = total_bending(space, FocalVariety.point(), quad)
    if not bending.is_finite:
        slack, attains = None, False
        note = "bound holds vacuously: the total bending diverges"
    else:
        slack = bending.value_per_volume - bound.value
        margin = bending.error_estimate + 4.0 * math.ulp(bound.value)
        attains = abs(slack) <= margin
        if slack < -margin:
            note = "bound violated"  # would indicate a defect; never expected
        elif attains:
            note = "bound attained: umbilical integrable leaves minimize bending"
        else:
            note = "bound strict: leaves are not umbilical"
    return MinimizerReport(
        space=space.label, bound=bound, bending=bending, slack=slack,
        attains_bound=attains, leaves_umbilical=len(bending.branches) == 1,
        leaves_integrable=True, note=note,
    )
