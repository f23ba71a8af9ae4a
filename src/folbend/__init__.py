"""Total bending and energy bounds of singular foliations on model spaces.

The package computes, to controlled accuracy, the total bending of the
classical singular foliations of compact rank-one model spaces (geodesic
spheres around points and totally geodesic subspaces, their flattened
deformations, the complex radial foliation, circles on a torus of
revolution), checks the known lower bounds and the mean-curvature
integral identity, and reproduces the reference value table.  The energy
per unit volume of the unit normal field is E/Vol = n/2 + B/Vol.

Layout (import from these modules; the package itself re-exports nothing):

- ``quadrature``: adaptive panel integration with honest error estimates;
  its endpoint ladder serves no catalog path, since divergence comes from
  the exact endpoint orders of the tubes.
- ``torsion``: pointwise invariants of an orthogonal splitting and the
  inequalities between them.
- ``spaces``: the model space catalog with its curvature data.
- ``tubes``: distance-tube profiles (branches, cut, endpoint orders, density).
- ``bending``: the bending functionals built on the above.
- ``bounds``: lower bounds, the integral identity, the reference table.
- ``cli``: the ``folbend`` command line front end.
"""

__version__ = "0.1.0"
