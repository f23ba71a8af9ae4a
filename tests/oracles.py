"""Brute-force and panel-by-panel references that the tests compare the library against."""
import heapq
import math

import numpy as np

from folbend import quadrature


def torus_riemann_oracle(big_radius, small_radius, nodes=1_000_000, *, area_weighted=False):
    """Midpoint Riemann sum for the torus bending integral of ``torus_bending``."""
    R, r = big_radius, small_radius
    t = (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
    values = np.sin(t) ** 2 / (R + r * np.cos(t)) ** 2
    if area_weighted:
        values = values * r * (R + r * np.cos(t))
    return math.pi * float(np.mean(values)) * 2.0 * math.pi


def kronrod_panel(f, a, b):
    """Reference kernel: one Kronrod panel, one integrand call."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(center + half * quadrature._NODES), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand returned a non-finite value inside [{a}, {b}]")
    kron = half * float(quadrature._KRONROD_W @ y)
    gauss = half * float(quadrature._GAUSS_W @ y)
    return kron, abs(kron - gauss)


def _checked_sums(values, errors, a, b):
    try:
        value, error = math.fsum(values), math.fsum(errors)
    except (OverflowError, ValueError):
        value = error = math.nan
    if not (math.isfinite(value) and math.isfinite(error)):
        raise quadrature.UndecidedError(f"the integral over [{a}, {b}] is not finite")
    return value, error


def reference_adaptive(f, a, b, config=None, log=None):
    """``adaptive_quadrature`` with one integrand call per panel, each panel
    evaluated only when the refinement uses it.  ``log`` collects
    (value, error) by panel bounds."""
    config = config or quadrature.QuadratureConfig()

    def panel(lo, hi):
        out = kronrod_panel(f, lo, hi)
        if log is not None:
            log[(lo, hi)] = out
        return out

    if b == a:
        return 0.0, 0.0
    width_floor = (b - a) * 2.0 ** (-quadrature.MAX_DEPTH)
    val, err = panel(a, b)
    heap = [(-err, 0, a, b, val)]
    tick = 1
    total_val, total_err, sum_abs = val, err, abs(val)
    while total_err > max(config.abs_tol, config.rel_tol * abs(total_val),
                          32.0 * quadrature._EPS * sum_abs):
        neg_err, _, pa, pb, pval = heapq.heappop(heap)
        perr = -neg_err
        if pb - pa <= width_floor or len(heap) + 2 > quadrature.MAX_PANELS:
            raise quadrature.UndecidedError("quadrature did not converge")
        mid = 0.5 * (pa + pb)
        (v1, e1), (v2, e2) = panel(pa, mid), panel(mid, pb)
        total_val += (v1 + v2) - pval
        total_err += (e1 + e2) - perr
        sum_abs += abs(v1) + abs(v2) - abs(pval)
        heapq.heappush(heap, (-e1, tick, pa, mid, v1))
        heapq.heappush(heap, (-e2, tick + 1, mid, pb, v2))
        tick += 2
        if math.isnan(total_err):  # inf - inf: recount from the panels
            total_val = sum(entry[4] for entry in heap)
            total_err = sum(-entry[0] for entry in heap)
            sum_abs = sum(abs(entry[4]) for entry in heap)
    panels = sorted((entry[2], entry[4], -entry[0]) for entry in heap)
    return _checked_sums([p[1] for p in panels], [p[2] for p in panels], a, b)


def reference_open(f, a, b, config=None, log=None):
    """``integrate_open`` with one integrand call per panel: each endpoint
    ladder, then ``reference_adaptive`` on the central interval.  The ladder
    bounds and the exponent fit are the library's own."""
    window = quadrature.DIVERGENCE_WINDOW * (b - a)
    scans = []
    for start, direction in ((a, +1), (b, -1)):
        lows, highs = quadrature._ladder(start, direction, window)
        pairs = [kronrod_panel(f, lo, hi) for lo, hi in zip(lows, highs)]
        if log is not None:
            log.update(zip(zip(lows, highs), pairs))
        scans.append(quadrature._endpoint_scan([p[0] for p in pairs], [p[1] for p in pairs]))
    lower, upper = scans
    if lower.divergent or upper.divergent:
        return quadrature.OpenResult("divergent", None, None, lower, upper)
    value, error = reference_adaptive(f, a + window, b - window, config, log)
    value, error = _checked_sums([lower.value, value, upper.value],
                                 [lower.error + error + upper.error], a, b)
    return quadrature.OpenResult("finite", value, error, lower, upper)
