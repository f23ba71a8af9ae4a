"""
Torus circles and the lower bounds for total bending
====================================================

Two independent sanity anchors for the bending machinery: the explicit
circle foliation of a torus of revolution in flat 3-space, where the
bending integral has an elementary closed form and an a priori upper
bound, and the curvature lower bounds that every foliation of a model
space must respect.
"""
import math

import numpy as np

from folbend.bending import complex_radial_bending, torus_bending
from folbend.bounds import BoundCase, einstein_lower_bound, lower_bound, minimizer_report
from folbend.spaces import parse_space

# --- the torus ---------------------------------------------------------
R, r = 2.0, 1.0
res = torus_bending(R, r)
closed = 2 * math.pi**2 / r**2 * (R / math.sqrt(R**2 - r**2) - 1)
# midpoint rule over the angle t; the angle phi contributes a factor 2*pi
t = (np.arange(200_000) + 0.5) * (2 * math.pi / 200_000)
riemann = 2 * math.pi**2 * float(np.mean(np.sin(t) ** 2 / (R + r * np.cos(t)) ** 2))
print(f"torus R={R:g}, r={r:g}")
print(f"  bending        {res.value:.9f}")
print(f"  closed form    {closed:.9f}")
print(f"  Riemann sum    {riemann:.9f}")
print(f"  upper bound    {res.upper_bound:.9f}")

# a thin tube around a long axis barely bends
for rr in (0.5, 0.1, 0.01):
    print(f"  r={rr:<5g} bending = {torus_bending(R, rr).value:.6f} "
          f"(limit pi^2/R^2 = {math.pi**2 / R**2:.6f})")

# --- lower bounds on the model spaces ----------------------------------
print()
for label in ("S:4", "S:6", "HP:2"):
    space = parse_space(label)
    n = space.dim
    b = lower_bound(space, n - 1, BoundCase.I_CODIM1)
    print(f"{label}: codimension-one bound {b.value:.6f}, "
          f"scalar-curvature variant {einstein_lower_bound(space):.6f}")

# the geodesic-sphere foliation attains the bound exactly on constant curvature
print()
for label in ("S:4", "HP:2", "CP:2"):
    rep = minimizer_report(parse_space(label))
    print(f"{label}: {rep.note}")

# on CP:2 the complex radial foliation attains the half-dimension bound instead
cp2 = parse_space("CP:2")
value = complex_radial_bending(2).value_per_volume
bound = lower_bound(cp2, 2, BoundCase.II_HALF).value
print(f"\nCP:2 complex radial: B/Vol = {value:.9f}, "
      f"half-dimension bound = {bound:.9f} (attained)")
