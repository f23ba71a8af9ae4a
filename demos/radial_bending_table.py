"""
Bending of radial and tubular foliations on the model spaces
============================================================

Walks the whole catalog: geodesic spheres around points and around
totally geodesic subspaces, on spheres, real/complex/quaternionic
projective spaces and the octonionic plane.  Finite ratios are checked
against their exact closed forms; the rest are classified.
"""
from fractions import Fraction

from folbend.bounds import table1_report
from folbend.quadrature import QuadratureConfig

# one tight tolerance for the whole table
report = table1_report(lam=1.0, rtol=1e-6, quad=QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13))

print(f"{'space':>6} {'focal':>10} {'B/Vol':>12} {'closed form':>12}  verdict")
for row in report.rows:
    if row.kind == "finite":
        print(f"{row.space:>6} {row.focal:>10} {row.computed:12.8f} "
              f"{str(row.closed_form):>12}  {row.status}")
    elif row.kind == "divergent":
        where = {"0": "the focal variety", "mu": "the far cut locus",
                 "both": "both ends"}[row.divergent_endpoint]
        print(f"{row.space:>6} {row.focal:>10} {'---':>12} {'---':>12}  "
              f"diverges near {where} (exponent ~ {row.exponent_estimate:.3f})")
    else:
        print(f"{row.space:>6} {row.focal:>10} {'---':>12} {'---':>12}  "
              f"tube data not determined by the catalog")

print()
print("all rows as expected:", report.all_ok)

# the same ratios scale linearly with the curvature of the ambient space
doubled = table1_report(lam=2.0, rtol=1e-6)
pair = [(a.computed, b.computed) for a, b in zip(report.rows, doubled.rows)
        if a.kind == "finite"]
print("ratio at lam=2 over lam=1, all rows:",
      sorted({round(b / a, 9) for a, b in pair}))
