"""Energy and total bending of singular foliations on model spaces.

The package computes, to controlled accuracy, the total bending of the
classical singular foliations of compact rank-one model spaces (geodesic
spheres around points and totally geodesic subspaces, their flattened
deformations, the complex radial foliation, circles on a torus of
revolution), checks the known lower bounds and the mean-curvature
integral identity, and reproduces the reference value table.

Layout:

- ``quadrature``: adaptive panel integration with honest error estimates
  and endpoint divergence classification on open intervals.
- ``torsion``: pointwise invariants of an orthogonal splitting and the
  inequalities between them.
- ``spaces``: the model space catalog with its curvature data.
- ``tubes``: distance-tube profiles (principal curvatures and density).
- ``bending``: the bending/energy functionals built on the above.
- ``bounds``: lower bounds, the integral identity, the reference table.
- ``cli``: the ``folbend`` command line front end.
"""
from .bending import (
    BendingResult,
    EnergyResult,
    TorusResult,
    complex_radial_bending,
    energy,
    epsilon_deformed_bending,
    torus_bending,
    total_bending,
)
from .bounds import (
    BoundCase,
    IntegralCheckResult,
    LowerBound,
    MinimizerReport,
    Table1Report,
    einstein_lower_bound,
    integral_formula_check,
    lower_bound,
    minimizer_report,
    table1_report,
)
from .quadrature import QuadratureConfig, UndecidedError, adaptive_quadrature, integrate_open
from .spaces import Family, FocalVariety, ModelSpace, parse_focal, parse_space
from .torsion import SplitDims, TorsionCoefficients, classify, derive
from .tubes import JacobiBranch, NotComputableError, TubeProfile, tube_profile

__version__ = "0.1.0"

__all__ = [
    "BendingResult",
    "BoundCase",
    "EnergyResult",
    "Family",
    "FocalVariety",
    "IntegralCheckResult",
    "JacobiBranch",
    "LowerBound",
    "MinimizerReport",
    "ModelSpace",
    "NotComputableError",
    "QuadratureConfig",
    "SplitDims",
    "Table1Report",
    "TorsionCoefficients",
    "TorusResult",
    "TubeProfile",
    "UndecidedError",
    "adaptive_quadrature",
    "classify",
    "complex_radial_bending",
    "derive",
    "einstein_lower_bound",
    "energy",
    "epsilon_deformed_bending",
    "integral_formula_check",
    "integrate_open",
    "lower_bound",
    "minimizer_report",
    "parse_focal",
    "parse_space",
    "table1_report",
    "torus_bending",
    "total_bending",
    "tube_profile",
    "__version__",
]
