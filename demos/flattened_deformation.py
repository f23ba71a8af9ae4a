"""
Flattening the spherical foliation of the round 2-sphere
========================================================

The foliation of S^2 by circles around a point has divergent total
bending: the unit normal field twists too fast at both poles.  Flattening
it outside a window of half-width epsilon around the equator gives a
finite bending for every epsilon < pi/2, with an elementary closed form

    B(eps) = pi * ( log((1 + sin eps)/(1 - sin eps)) - 2 sin eps ),

growing without bound as the window fills the sphere.
"""
import math

from folbend.bending import epsilon_deformed_bending
from folbend.quadrature import QuadratureConfig
from folbend.spaces import parse_focal, parse_space

s2 = parse_space("S:2")
point = parse_focal("point")
quad = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)

print(f"{'epsilon':>10} {'B computed':>14} {'B closed form':>14}")
for k in range(0, 12):
    eps = k * math.pi / 24
    res = epsilon_deformed_bending(s2, point, eps, quad)
    s = math.sin(eps)
    closed = math.pi * (math.log((1 + s) / (1 - s)) - 2 * s) if eps > 0 else 0.0
    print(f"{eps:10.6f} {res.value:14.9f} {closed:14.9f}")

# at eps = pi/2 the window is the whole sphere and the divergence returns
full = epsilon_deformed_bending(s2, point, math.pi / 2, quad)
print(f"\nepsilon = pi/2: status = {full.status}, "
      f"divergent at r={full.divergent_endpoint}, "
      f"exponent ~ {full.exponent_estimate:.3f}")
