"""Adaptive Gauss-Kronrod quadrature, of one integral or of a ratio of two.

Three entry points:

``adaptive_quadrature``
    Globally adaptive bisection with a 15-point Kronrod rule (embedded
    7-point Gauss rule for the error estimate).  Meant for integrands that
    are bounded on the closed interval; nodes are strictly interior, so a
    removable endpoint blow-up of the *formula* (0/0 at the boundary) is
    harmless as long as the integrand stays bounded where it is sampled.

``ratio_quadrature``
    The same refinement of a numerator and a denominator on shared panels,
    to the tolerance of their ratio (a vector-valued adaptive rule after
    A. C. Genz and A. A. Malik, *J. Comput. Appl. Math.* 6, 1980).

``integrate_open``
    Integrates over an open interval whose endpoints may carry power-law
    singularities.  Each endpoint gets a geometric ladder of at most
    ``ENDPOINT_LEVELS`` panels (widths shrinking by ``ENDPOINT_SHRINK``
    toward the endpoint) inside a window of relative size
    ``DIVERGENCE_WINDOW``.  If the integrand behaves like C * d**(-s) at
    distance d from the endpoint, consecutive panel sums have ratio
    shrink**(1-s); fitting that ratio on the levels
    ``EXPONENT_FIT_START``..``EXPONENT_FIT_STOP`` gives an exponent
    estimate.  s >= 1 means the integral diverges there; an estimate at or
    above ``DIVERGENCE_THRESHOLD`` is reported so.  The fit is what decides
    divergence -- never exhaustion of the refinement depth.  For convergent
    endpoints, the ladder is summed and the remaining sliver is
    extrapolated geometrically.  No catalog path uses it.

Only the tolerances are settable (``QuadratureConfig``); the refinement
budget (``MAX_PANELS`` panels, each at least ``MAX_DEPTH`` halvings of the
interval or the float resolution of its edges wide) and the endpoint policy
above are module constants.

All entry points use the 15-point Gauss-Kronrod rule with its embedded
7-point Gauss rule, the QK15 rule of QUADPACK (R. Piessens,
E. de Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner, *QUADPACK: A
Subroutine Package for Automatic Integration*, Springer, 1983).

The integrand contract: ``f`` maps a 1-D float array of any length N to
shape (N,), elementwise, or for ``ratio_quadrature`` to two such rows,
shape (2, N).  One call covers many panels, 15 nodes each: both endpoint
ladders of ``integrate_open``, which leaves the interval between them to
``adaptive_quadrature``; the starting panels and ``_LOOKAHEAD`` generations
of their bisections; or, when a panel to bisect has no evaluated halves,
those generations below it and below every other panel whose own weighted
error exceeds the tolerance.  So panels may be evaluated before they are
needed, or never be needed.  A non-finite value raises ValueError, naming
the first such panel, only in a panel the result uses.  A panel sum that
overflows before the half-width scales it is taken again at 2**-4 scale,
exactly, so values near the float maximum keep a representable integral.
A summed value or error that overflows raises UndecidedError: never a
number.

All reductions happen in a fixed order (panels sorted by position, summed
with math.fsum), so results do not depend on evaluation order.  Panel rows
of 15 values are reduced by one ``np.matmul`` of the stacked (1 x 15) rows
with the Kronrod and Gauss weights as two stacked (15 x 1) columns: numpy
evaluates each product with the same dot kernel as a 1-D ``@``, so a panel's
integral does not depend on which panels, or which rows, share its call.
A 2-D matrix-vector product, ``einsum``, ``(y * w).sum``, one (15 x 2)
weight matrix or Fortran-ordered rows sum in other orders and change the
last bit of about half the rows.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

__all__ = [
    "QuadratureConfig",
    "UndecidedError",
    "EndpointScan",
    "OpenResult",
    "adaptive_quadrature",
    "ratio_quadrature",
    "integrate_open",
]

_EPS = sys.float_info.epsilon

# 15-point Kronrod rule with embedded 7-point Gauss rule (positive abscissae).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.12948496616886969,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
)

# Full 15-node layout: [-x0..-x6, 0, x6..x0]; the Gauss weights sit on the odd nodes.
_NODES = tuple(-x for x in _XGK[:7]) + _XGK[7:] + _XGK[6::-1]
_KRONROD_W = _WGK[:7] + _WGK[7:] + _WGK[6::-1]
_GAUSS_W = (0.0,) + sum(((w, 0.0) for w in _WG + _WG[2::-1]), ())
# numpy and the rule as arrays: bound by the first ``_gk15`` call, so that a
# process that integrates nothing never imports numpy.
np = _NODE_ARRAY = _WEIGHTS = None


class UndecidedError(RuntimeError):
    """Raised when quadrature can neither converge nor classify a divergence,
    when an integral overflows, or when a volume integral underflows."""


# Refinement budget of adaptive_quadrature.
MAX_DEPTH = 40
MAX_PANELS = 4096
# Endpoint policy: a window of this fraction of the interval at each end
# is covered by panels shrinking geometrically toward the endpoint.
DIVERGENCE_WINDOW = 1e-2
ENDPOINT_SHRINK = 0.5
ENDPOINT_LEVELS = 48
# Relative panel bounds of the ladder: level k spans shrink**(k+1)..shrink**k.
_LADDER = tuple(ENDPOINT_SHRINK ** k for k in range(ENDPOINT_LEVELS + 1))
# Panel-sum ratios are fitted on this band of ladder levels; outside it
# the asymptotics have not set in yet (low k) or floating-point
# cancellation in the node positions pollutes the samples (high k).
EXPONENT_FIT_START = 12
EXPONENT_FIT_STOP = 28
# Fitted exponent at or above this value is reported as divergent.
DIVERGENCE_THRESHOLD = 0.95


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the bending integrals."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < 1):
            raise ValueError("rel_tol must lie in (0, 1)")
        if not (0 < self.abs_tol < 1):
            raise ValueError("abs_tol must lie in (0, 1)")


def _gk15(f: Callable, a: Sequence[float], b: Sequence[float]) -> tuple[list, list]:
    """Kronrod panels [a[i], b[i]] in one integrand call: (integrals, error estimates).

    A float per panel for a one-row integrand, a pair for two rows.  Each row
    is reduced by a stacked matmul equal to its own 1-D dot (module
    docstring).  A panel with a non-finite value in any row gets the integral
    None, for which the caller raises ``_not_finite`` if it uses the panel.
    """
    global np, _NODE_ARRAY, _WEIGHTS
    if np is None:
        import numpy as np
        _NODE_ARRAY = np.array(_NODES)
        _WEIGHTS = np.array([_KRONROD_W, _GAUSS_W])[:, None, :, None]  # (2, 1, 15, 1) for ``_reduce``
    lo = np.asarray(a, dtype=float)
    hi = np.asarray(b, dtype=float)
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODE_ARRAY
    with np.errstate(over="ignore", invalid="ignore"):  # what is not finite is sorted out below
        y = np.asarray(f(x.reshape(-1)), dtype=float)
        if y.shape not in ((x.size,), (2, x.size)):
            raise ValueError("integrand must map a vector of nodes to a vector of values, "
                             "or to two rows of them")
        rows = np.ascontiguousarray(y).reshape(-1, 15)
        kron, err = _reduce(rows, half)
        integrals, errors, bad = kron.tolist(), err.tolist(), []
        # An error is not finite where either sum is not; all Kronrod weights
        # are positive, so a non-finite value shows here.
        if not math.isfinite(sum(map(sum, errors))):
            # Rows with a non-finite value count as zeros; overflowing rows are redone at 2**-4.
            finite = np.isfinite(rows).all(axis=1)
            bad = np.flatnonzero(~finite.reshape(-1, lo.size).all(axis=0)).tolist()
            scale = np.where(np.isfinite(err), 1.0, 2.0 ** -4)
            kron, err = _reduce(np.where(finite[:, None], rows * scale.reshape(-1, 1), 0.0), half)
            integrals, errors = (kron / scale).tolist(), (err / scale).tolist()
    integrals, errors = (v[0] if y.ndim == 1 else list(zip(*v)) for v in (integrals, errors))
    for i in bad:
        integrals[i] = None
    return integrals, errors


def _reduce(rows: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Kronrod sum, its distance to the Gauss sum) of each row times its half-width."""
    kron, gauss = np.matmul(rows[:, None, :], _WEIGHTS).reshape(2, -1, half.size) * half
    return kron, np.abs(kron - gauss)


def _not_finite(a: float, b: float) -> ValueError:
    return ValueError(f"integrand returned a non-finite value inside [{a}, {b}]")


def _fsum(values: list[float]) -> float:
    """math.fsum, or nan where the exact sum leaves the float range (or is inf - inf)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _finite(value: float, error: float, a: float, b: float) -> tuple[float, float]:
    """(value, error) of the integral over [a, b]; UndecidedError unless both are finite."""
    if not (math.isfinite(value) and math.isfinite(error)):
        raise UndecidedError(
            f"the integral over [{a}, {b}] is not finite: value {value!r}, error {error!r}")
    return value, error


def _normal(x: float) -> bool:
    """Whether x is a positive normal float: at least the smallest one, and finite."""
    return sys.float_info.min <= x < math.inf


# Generations of bisections below a panel that one integrand call evaluates
# ahead of need.  On the bending integrals 2 ran faster than 1 or 3, also with
# every panel to split in one call: 1 took 1.16x the p99 time, 3 about 1.05x.
_LOOKAHEAD = 2


def _panels(f: Callable, roots: list[tuple[float, float]], rows: int, below: bool = False) -> dict:
    """(integrals, errors) by bounds (left, right), as pairs, of each root panel
    and ``_LOOKAHEAD`` generations of bisections below it (of those generations
    only, ``below``), from one ``_gk15`` call: a one-row integrand's second row is zero."""
    lows, highs = [], []
    for a, b in roots:
        lo, hi = [a], [b]
        for i in range(2 ** _LOOKAHEAD - 1):
            mid = 0.5 * (lo[i] + hi[i])
            lo += (lo[i], mid)
            hi += (mid, hi[i])
        lows += lo[below:]
        highs += hi[below:]
    integrals, errors = _gk15(f, lows, highs)
    if isinstance(errors[0], tuple) != (rows == 2):
        raise ValueError(f"integrand must return {rows} row(s) of values")
    if rows == 1:
        integrals = [v if v is None else (v, 0.0) for v in integrals]
        errors = [(e, 0.0) for e in errors]
    return dict(zip(zip(lows, highs), zip(integrals, errors)))


def adaptive_quadrature(
    f: Callable,
    a: float,
    b: float,
    config: Optional[QuadratureConfig] = None,
) -> tuple[float, float]:
    """Integrate f over [a, b], returning (value, error estimate).

    Globally adaptive: the panel with the worst error estimate is bisected
    until the summed estimates meet max(abs_tol, rel_tol*|value|).  Raises
    UndecidedError if the tolerance is unreachable within the panel budget
    MAX_PANELS, or on a panel narrower than both the width floor 2**-MAX_DEPTH
    (b - a) and the float resolution 8 eps max(|left|, |right|) of its edges.
    """
    config = config or QuadratureConfig()
    if not (b > a):
        if b == a:
            return 0.0, 0.0
        raise ValueError("integration bounds must satisfy a <= b")
    return _refine(f, [(a, b)], config, 1)[0]


def ratio_quadrature(
    f: Callable,
    breakpoints: Sequence[float],
    config: Optional[QuadratureConfig] = None,
) -> tuple[float, float, float, float]:
    """(ratio, its error estimate, numerator, denominator) of the two rows of
    f, shape (2, N), integrated on shared panels from those between the
    breakpoints, where a row may have kinks.  The refinement stops when
    E_num + w E_den <= den max(abs_tol, rel_tol |ratio|), w = max(|ratio|,
    abs_tol / rel_tol): ``abs_tol`` bounds the ratio, and the denominator
    meets ``rel_tol`` on its own.  The estimate (E_num + |ratio| E_den) / den
    adds the rounding floor of the refinement, 64 eps |ratio|.  Raises
    UndecidedError like ``adaptive_quadrature``, and for a denominator that
    is not a positive normal float.
    """
    config = config or QuadratureConfig()
    intervals = list(zip(breakpoints[:-1], breakpoints[1:]))
    if not intervals or not all(hi >= lo for lo, hi in intervals):
        raise ValueError("breakpoints must be at least two and nondecreasing")
    (num, num_err), (den, den_err) = _refine(f, intervals, config, 2)
    if not _normal(den):
        raise UndecidedError(f"the denominator integral {den!r} over [{breakpoints[0]}, "
                             f"{breakpoints[-1]}] is not a positive normal float")
    ratio = num / den
    error = (num_err + abs(ratio) * den_err) / den + 64.0 * _EPS * abs(ratio)
    return (*_finite(ratio, error, breakpoints[0], breakpoints[-1]), num, den)


def _refine(f: Callable, intervals: list[tuple[float, float]], config: QuadratureConfig,
            rows: int) -> list[tuple[float, float]]:
    """The bisection loop: (integral, error) of each row over ``intervals``.
    A panel weighs e_0 + w e_1: w as in ``ratio_quadrature`` for two rows, 0
    for the zero second row of one.  ``known`` holds the panels evaluated
    ahead of need (module docstring): a bisection whose halves are not known
    evaluates the generations below its panel, and below every panel whose
    own weight exceeds the tolerance, in one call, since those will almost
    surely be bisected too."""
    rel, absol = config.rel_tol, config.abs_tol
    a, b = intervals[0][0], intervals[-1][1]
    width_floor = (b - a) * 2.0 ** (-MAX_DEPTH)
    known = _panels(f, intervals, rows)
    # Heap entries: (-weighted error, tiebreak, left, right, integrals, errors).
    heap = [(0.0, tick, pa, pb, *known.pop((pa, pb))) for tick, (pa, pb) in enumerate(intervals)]
    bad = next((entry for entry in heap if entry[4] is None), None)
    if bad:
        raise _not_finite(bad[2], bad[3])
    tick = len(heap)

    def totals():  # integrals, errors and absolute integrals over the heap, summed in heap order
        v0 = v1 = e0 = e1 = s0 = s1 = 0.0
        for _, _, _, _, (x0, x1), (y0, y1) in heap:
            v0 += x0
            v1 += x1
            e0 += y0
            e1 += y1
            s0 += abs(x0)
            s1 += abs(x1)
        return (v0, v1), (e0, e1), (s0, s1)

    def scales():  # the target of the tolerance, its denominator, and w
        if rows == 1:
            return v0, 1.0, 0.0
        ratio = v0 / v1 if v1 else math.nan
        return ratio, abs(v1), max(abs(ratio), absol / rel)

    def tolerance():
        return max(den * absol, den * (rel * abs(target)), 32.0 * _EPS * (s0 + w * s1))

    (v0, v1), (e0, e1), (s0, s1) = totals()
    target, den, w = scales()
    heap = [(-(err[0] + w * err[1]), *entry[1:5], err) for *entry, err in heap]
    heapq.heapify(heap)

    while True:
        # Stop only if a recount agrees: bisecting a dwarfing panel cancels running totals.
        if not e0 + w * e1 > tolerance():
            (v0, v1), (e0, e1), (s0, s1) = totals()
            target, den, w = scales()
            if not e0 + w * e1 > tolerance():
                break
        _, _, pa, pb, (p0, p1), (q0, q1) = heapq.heappop(heap)
        if (pb - pa <= width_floor and pb - pa <= 8.0 * _EPS * max(abs(pa), abs(pb))
                or len(heap) + 2 > MAX_PANELS):
            raise UndecidedError(
                "quadrature did not converge within the refinement budget "
                f"(residual error {e0 + w * e1:.3e} on [{a}, {b}])"
            )
        mid = 0.5 * (pa + pb)
        left = known.pop((pa, mid), None)
        if left is None:  # one call for every panel that must be split
            limit = -tolerance()  # heap keys are negated weights
            roots = [(pa, pb)] + [(e[2], e[3]) for e in heap
                                  if e[0] < limit and (e[2], 0.5 * (e[2] + e[3])) not in known]
            known.update(_panels(f, roots, rows, below=True))
            left = known.pop((pa, mid))
        (x, ex), (y, ey) = left, known.pop((mid, pb))
        if x is None or y is None:
            raise _not_finite(pa, mid) if x is None else _not_finite(mid, pb)
        (x0, x1), (y0, y1), (ex0, ex1), (ey0, ey1) = x, y, ex, ey
        v0 += (x0 + y0) - p0
        v1 += (x1 + y1) - p1
        e0 += (ex0 + ey0) - q0
        e1 += (ex1 + ey1) - q1
        s0 += abs(x0) + abs(y0) - abs(p0)
        s1 += abs(x1) + abs(y1) - abs(p1)
        heapq.heappush(heap, (-(ex0 + w * ex1), tick, pa, mid, x, ex))
        heapq.heappush(heap, (-(ey0 + w * ey1), tick + 1, mid, pb, y, ey))
        tick += 2
        target, den, w = scales()

    panels = sorted((entry[2], entry[4], entry[5]) for entry in heap)
    return [_finite(_fsum([p[1][i] for p in panels]), _fsum([p[2][i] for p in panels]), a, b)
            for i in range(rows)]


@dataclass(frozen=True)
class EndpointScan:
    """Result of the geometric ladder at one endpoint."""

    value: float            # sum over ladder panels plus extrapolated sliver
    error: float
    exponent: Optional[float]  # fitted s in integrand ~ d**(-s); None if flat zero
    divergent: bool
    levels: int


def _ladder(start: float, direction: int, window: float) -> tuple[list[float], list[float]]:
    """Bounds (lows, highs) of the panels shrinking toward ``start`` in (start,
    start+window] (direction +1) or [start-window, start) (-1), outermost first,
    up to the first level within the floating-point width floor."""
    edges = [start + direction * window * shrink for shrink in _LADDER]
    floor = 8.0 * _EPS * max(abs(start), abs(start + direction * window), 1.0)
    levels = next((k for k in range(ENDPOINT_LEVELS) if abs(edges[k] - edges[k + 1]) <= floor),
                  ENDPOINT_LEVELS)
    near, far = edges[1:levels + 1], edges[:levels]
    return (near, far) if direction > 0 else (far, near)


def _log_ratios(sums: list[float], start: int, stop: int, floor: float) -> list[float]:
    """log |sums[k+1] / sums[k]| for k in [start, stop) where both sums exceed floor."""
    pairs = [(abs(sums[k]), abs(sums[k + 1])) for k in range(start, stop)]
    return [math.log(s1 / s0) for s0, s1 in pairs if s0 > floor and s1 > floor]


def _endpoint_scan(sums: list[float], errs: list[float]) -> EndpointScan:
    """Exponent fit and sum of one ladder's panels, outermost first; the panels
    come from the one ``_gk15`` call of ``integrate_open``."""
    levels = len(sums)
    peak = max(map(abs, sums), default=0.0)
    if peak == 0.0:
        return EndpointScan(0.0, 0.0, None, False, levels)

    log_ratios = _log_ratios(sums, EXPONENT_FIT_START,
                             min(EXPONENT_FIT_STOP, levels - 1), 1e-13 * peak)
    if len(log_ratios) >= 4:
        mean_log_ratio = math.fsum(log_ratios) / len(log_ratios)
        exponent = 1.0 - mean_log_ratio / math.log(ENDPOINT_SHRINK)
    else:
        exponent = None

    divergent = exponent is not None and exponent >= DIVERGENCE_THRESHOLD
    if divergent:
        return EndpointScan(_fsum(sums), _fsum(errs), exponent, True, levels)

    # Extrapolate the uncovered sliver next to the endpoint geometrically.
    tail = 0.0
    tail_ratios = _log_ratios(sums, max(0, levels - 4), levels - 1, 0.0)
    if tail_ratios and abs(sums[-1]) > 0.0:
        ratio = min(0.9, math.exp(math.fsum(tail_ratios) / len(tail_ratios)))
        tail = sums[-1] * ratio / (1.0 - ratio)
    value = _fsum(sums + [tail])
    error = _fsum(errs) + abs(tail)
    return EndpointScan(value, error, exponent, False, levels)


@dataclass(frozen=True)
class OpenResult:
    """Integral over an open interval with endpoint diagnostics."""

    status: str  # "finite" | "divergent"
    value: Optional[float]
    error: Optional[float]
    lower: EndpointScan
    upper: EndpointScan

    @property
    def exponent_estimate(self) -> Optional[float]:
        # A divergent endpoint always has a fitted exponent.
        return max((s.exponent for s in (self.lower, self.upper) if s.divergent), default=None)


def integrate_open(
    f: Callable, a: float, b: float, config: Optional[QuadratureConfig] = None
) -> OpenResult:
    """Integrate f over the open interval (a, b); see module docstring."""
    config = config or QuadratureConfig()
    if not (b > a):
        raise ValueError("integration bounds must satisfy a < b")
    window = DIVERGENCE_WINDOW * (b - a)
    (lo1, hi1), (lo2, hi2) = _ladder(a, +1, window), _ladder(b, -1, window)
    lows, highs = lo1 + lo2, hi1 + hi2
    sums, errs = _gk15(f, lows, highs) if lows else ([], [])
    if None in sums:
        i = sums.index(None)
        raise _not_finite(lows[i], highs[i])
    lower = _endpoint_scan(sums[:len(lo1)], errs[:len(lo1)])
    upper = _endpoint_scan(sums[len(lo1):], errs[len(lo1):])
    if lower.divergent or upper.divergent:
        return OpenResult("divergent", None, None, lower, upper)
    central_val, central_err = adaptive_quadrature(f, a + window, b - window, config)
    value, error = _finite(_fsum([lower.value, central_val, upper.value]),
                           lower.error + central_err + upper.error, a, b)
    return OpenResult("finite", value, error, lower, upper)
