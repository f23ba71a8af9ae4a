"""Brute-force references that the tests compare the library against."""
import math

import numpy as np


def torus_riemann_oracle(big_radius, small_radius, nodes=1_000_000, *, area_weighted=False):
    """Midpoint Riemann sum for the torus bending integral of ``torus_bending``."""
    R, r = big_radius, small_radius
    t = (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
    values = np.sin(t) ** 2 / (R + r * np.cos(t)) ** 2
    if area_weighted:
        values = values * r * (R + r * np.cos(t))
    return math.pi * float(np.mean(values)) * 2.0 * math.pi
