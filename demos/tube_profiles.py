"""
Tube profiles: principal curvatures and volume density
======================================================

A distance tube of radius r around a focal variety has principal
curvatures alpha_a(r) = f_a'(r)/f_a(r), one family per curvature branch,
and volume density theta(r) = prod f_a(r)^multiplicity.  This script
builds a few profiles, prints where their leaves sit, and exports one
sampled profile to CSV.
"""
import math

import numpy as np

from folbend.spaces import parse_focal, parse_space
from folbend.tubes import tube_profile, write_profile_csv

for space, focal in (("S:5", "point"), ("S:5", "sub:S:2"),
                     ("CP:3", "sub:CP:1"), ("HP:2", "point")):
    prof = tube_profile(parse_space(space), parse_focal(focal))
    print(f"{space} around {focal}:")
    print(f"  leaves live on (0, mu) with mu = {prof.mu:.6f}")
    for b in prof.branches:
        kind = "tangent" if b.init.value == "tangent" else "normal"
        print(f"  branch: curvature {b.kappa:g}, multiplicity {b.multiplicity}, "
              f"{kind} initial data")
    # density vanishing order at the ends tells which leaves are singular
    r_lo, r_hi = 1e-3 * prof.mu, (1 - 1e-3) * prof.mu
    print(f"  theta near 0: {prof.theta(r_lo):.3e}   theta near mu: {prof.theta(r_hi):.3e}")
    if prof.boundary_leaf_regular:
        print("  the leaf at mu is regular (theta stays bounded away from 0)")
    print()

# each alpha solves the curvature equation alpha' + alpha^2 + kappa = 0;
# verify by a centered difference at a midpoint
prof = tube_profile(parse_space("HP:2"), parse_focal("point"))
r, h = 0.4 * prof.mu, 1e-6
alpha = prof.alpha_values  # one row per branch
for b, a, da in zip(prof.branches, alpha(r), (alpha(r + h) - alpha(r - h)) / (2 * h)):
    print(f"curvature-equation residual (kappa={b.kappa:g}): "
          f"{float(da) + float(a)**2 + b.kappa:+.3e}")

# the log-derivative of theta is the sum of the alphas, multiplicity counted
dth = (prof.theta(r + h) - prof.theta(r - h)) / (2 * h)
sum_alpha = sum(b.multiplicity * float(a) for b, a in zip(prof.branches, alpha(r)))
print(f"log-derivative residual: {float(dth / prof.theta(r)) - sum_alpha:+.3e}")

write_profile_csv(prof, "hp2_point_profile.csv", count=100)
print("\nwrote hp2_point_profile.csv with columns r, alpha_1, alpha_2, theta")
