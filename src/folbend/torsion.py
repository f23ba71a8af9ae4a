"""Pointwise algebra of the intrinsic torsion of an orthogonal splitting.

A splitting of an n-dimensional tangent space into a q-dimensional
"vertical" block and an (n-q)-dimensional "horizontal" block is described,
at a point, by two coefficient arrays of the torsion of the associated
almost-product structure:

``vertical[a, b, j]``
    component along horizontal direction j of the derivative of vertical
    frame field b in vertical direction a;
``horizontal[j, k, a]``
    the mirror block, components along vertical direction a.

Everything below is finite index algebra on these arrays: square sums,
second-fundamental-form and integrability-tensor norms (symmetric and skew
parts), mean-curvature norms, second mean curvatures, and the slack of the
inequalities relating them.  Terms are numpy array expressions and every
sum is the correctly rounded sum of its terms, equal bit for bit to
``math.fsum`` over them, so results do not depend on the order of the terms
and are reproducible bit for bit.

Each block is gathered once above, below and on its diagonal.  The sff and
skew terms at (a, b) and (b, a) are equal, so each such pair enters its sum
once as a doubled term; doubling is exact, so the exact sum is unchanged.
A long sum is formed in whole arrays by error-free extraction (Rump, Ogita
& Oishi, "Accurate floating-point summation, part I: faithful rounding",
SIAM J. Sci. Comput. 31(1), 2008, ExtractVector): each round splits every
term exactly into a high part, on a grid coarse enough that the high parts
add up in floating point without error, and a low remainder.  The round
sums and the few remainders left have the same exact sum as the terms, and
one ``math.fsum`` of them rounds it as ``math.fsum`` of the terms would.

Each block is reduced in one pass, cached on its ``TorsionCoefficients``
object: the sums, the sigma slack and the largest magnitudes of its parts.
Every function below reads that pass; ``classify`` applies its tolerance to
the cached maxima, so nothing cached depends on a tolerance.
"""
from __future__ import annotations

import collections
import functools
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "SplitDims",
    "TorsionCoefficients",
    "DerivedTensors",
    "BlockFlags",
    "derive",
    "mu_identity_residual",
    "sigma_inequality_slack",
    "mean_curvature_bound_slack",
    "block_mean_curvature_slacks",
    "classify",
    "random_coefficients",
    "umbilical_coefficients",
]


@dataclass(frozen=True)
class SplitDims:
    """Ambient dimension n and vertical dimension q of a splitting."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and isinstance(self.q, int)):
            raise ValueError("dimensions must be integers")
        if self.n < 2:
            raise ValueError("ambient dimension must be at least 2")
        if not (1 <= self.q <= self.n):
            raise ValueError("vertical dimension must satisfy 1 <= q <= n")

    @property
    def horiz(self) -> int:
        return self.n - self.q


@dataclass(frozen=True)
class TorsionCoefficients:
    """Torsion coefficient blocks of a splitting at one point.

    ``vertical`` has shape (q, q, n-q) and ``horizontal`` (n-q, n-q, q).
    Arrays are copied and frozen on construction.  On first use each block
    is reduced in one pass, and the result is kept in this object's
    ``__dict__``: the blocks are frozen, so it stays valid, and an equal
    but distinct object computes its own.
    """

    dims: SplitDims
    vertical: np.ndarray
    horizontal: np.ndarray

    def __post_init__(self) -> None:
        q, h = self.dims.q, self.dims.horiz
        vert = np.array(self.vertical, dtype=float, copy=True)
        horiz = np.array(self.horizontal, dtype=float, copy=True)
        if vert.shape != (q, q, h):
            raise ValueError(f"vertical block must have shape {(q, q, h)}, got {vert.shape}")
        if horiz.shape != (h, h, q):
            raise ValueError(f"horizontal block must have shape {(h, h, q)}, got {horiz.shape}")
        if not (np.all(np.isfinite(vert)) and np.all(np.isfinite(horiz))):
            raise ValueError("torsion coefficients must be finite")
        # Every square, sum and slack below is at most (n+2)**5 * scale**2 in
        # magnitude, so under this bound none overflows, inside fsum or after.
        bound = math.sqrt(sys.float_info.max / (self.dims.n + 2) ** 5)
        scale = max(float(np.max(np.abs(block), initial=0.0)) for block in (vert, horiz))
        if scale > bound:
            raise ValueError(f"coefficient scale {scale:.6g} exceeds {bound:.6g} at n = {self.dims.n}")
        vert.flags.writeable = False
        horiz.flags.writeable = False
        object.__setattr__(self, "vertical", vert)
        object.__setattr__(self, "horizontal", horiz)

    @functools.cached_property
    def _blocks(self) -> tuple[_BlockPass, _BlockPass]:
        return _block_pass(self.vertical), _block_pass(self.horizontal)


@dataclass(frozen=True)
class DerivedTensors:
    """Scalar invariants derived from one coefficient pair.

    ``sigma_v``/``sigma_h`` are the plain square sums of the blocks;
    ``norm_sq`` the squared norm of the full torsion tensor (each block
    counted twice, once per slot the mixed derivative can land in);
    ``sff_*`` the squared norms of the symmetric parts (second fundamental
    forms), ``skew_*`` of the skew parts (integrability tensors),
    ``mean_*`` of the traces (mean curvature vectors); ``mu_v``/``mu_h``
    the second mean curvatures (sums of pairwise principal minors).
    """

    sigma_v: float
    sigma_h: float
    norm_sq: float
    sff_v_sq: float
    sff_h_sq: float
    skew_v_sq: float
    skew_h_sq: float
    mean_v_sq: float
    mean_h_sq: float
    mu_v: float
    mu_h: float


_BlockPass = collections.namedtuple("_BlockPass", "sigma sff skew mean mu sigma_slack "
                                    "max_entry max_sym max_skew max_off_sym max_spread")


# Extraction starts at this many terms, below which one fsum over a list is
# faster, and stops when fewer than _EXTRACT_DOWN_TO are left (both measured).
_EXTRACT_FROM, _EXTRACT_DOWN_TO = 400, 32


def _fsum(*parts: np.ndarray) -> float:
    """``math.fsum`` of every entry of ``parts``, bit for bit, whatever their order.

    Rounds of error-free extraction (Rump, Ogita & Oishi 2008, ExtractVector)
    take the high bits off all N terms p at once.  With sigma a power of two
    above (N + 2) * max|p|, each q = (sigma + p) - sigma is p rounded to a
    multiple of 2**-53 * sigma, p - q is exact, and the |q| add up to at
    most sigma, so ``np.sum(q)`` is exact in any order.  The exact total is
    then the round sums plus the short remainder, which one fsum rounds as
    it would round the terms.  Short inputs, nonfinite terms and a sigma of
    2**1024 or more go to fsum directly.
    """
    p = np.concatenate(parts, axis=None)
    taus = []
    while p.size >= (_EXTRACT_DOWN_TO if taus else _EXTRACT_FROM):
        top = float(np.abs(p).max())
        if not top:  # only zeros, in the first round: fsum of one zero, -0.0 if all are
            return math.fsum([-0.0] if np.signbit(p).all() else [])
        exponent = math.frexp(top)[1] + (p.size + 2).bit_length()
        if not math.isfinite(top) or exponent >= 1024:  # first round only: plain fsum
            break
        sigma = math.ldexp(1.0, exponent)
        q = sigma + p
        q -= sigma
        taus.append(float(q.sum()))
        p = p - q
        p = p[p != 0]
    return math.fsum(taus + p.tolist())


@functools.lru_cache(maxsize=64)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs a < b of a d x d block, read-only."""
    rows, cols = np.triu_indices(d, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _block_pass(block: np.ndarray) -> _BlockPass:
    """Every sum and maximum the functions below read of one (d, d, c) block.

    In order: the square sum; the squared norms of the symmetric part, the
    skew part and the trace; the second mean curvature; the sigma slack; the
    largest |entry|, |sym|, |skew|, off-diagonal |sym| and diagonal spread.
    None depends on a tolerance.  The sigma slack is sigma - 2*mu/(d-1)
    expanded, for d >= 2, into a manifestly nonnegative quadratic form (its
    last terms vanish at d = 2), so it is exactly >= 0; for d = 1 the
    quotient is taken to be zero and the slack is sigma itself.

    ``up`` and ``lo`` hold the entries at (a, b) and (b, a) for a < b; each
    pair of equal sff or skew terms enters its sum once, doubled.
    """
    d = block.shape[0]
    a, b = _pairs(d)
    up, lo = block[a, b], block[b, a]  # (pairs, c)
    diag = block.diagonal().T  # diag[a, j] = block[a, a, j]
    sym, anti = up + lo, up - lo
    twice = diag + diag  # sym on the diagonal, where skew vanishes
    sym_sq, spread = sym * sym, diag[a] - diag[b]
    traces = [math.fsum(column) for column in diag.T.tolist()]  # one per j
    sigma = _fsum(block * block)
    slack = sigma
    if d >= 2:
        slack = _fsum(spread * spread, sym_sq, (d - 2) * (up * up), (d - 2) * (lo * lo)) / (d - 1)
    max_off_sym = float(np.abs(sym).max(initial=0.0))
    return _BlockPass(
        sigma, _fsum(2.0 * (0.25 * sym_sq), 0.25 * (twice * twice)),
        _fsum(2.0 * (0.25 * (anti * anti))), math.fsum(t * t for t in traces),
        _fsum(diag[a] * diag[b] - up * lo), slack,
        float(np.abs(block).max(initial=0.0)),
        max(max_off_sym, float(np.abs(twice).max(initial=0.0))),
        float(np.abs(anti).max(initial=0.0)), max_off_sym,
        float(np.abs(spread).max(initial=0.0)),
    )


def derive(coeffs: TorsionCoefficients) -> DerivedTensors:
    """Every derived scalar of the coefficient blocks, from the object's cached passes."""
    v, h = coeffs._blocks
    return DerivedTensors(
        sigma_v=v.sigma, sigma_h=h.sigma, norm_sq=2.0 * (v.sigma + h.sigma),
        sff_v_sq=v.sff, sff_h_sq=h.sff, skew_v_sq=v.skew, skew_h_sq=h.skew,
        mean_v_sq=v.mean, mean_h_sq=h.mean, mu_v=v.mu, mu_h=h.mu,
    )


def mu_identity_residual(coeffs: TorsionCoefficients) -> tuple[float, float]:
    """Residual, per block, of 2*mu = mean^2 + skew^2 - sff^2.

    Both sides come from independent index sums, so a nonzero residual
    beyond round-off indicates an algebra bug, not input noise.
    """
    v, h = coeffs._blocks
    return 2.0 * v.mu - (v.mean + v.skew - v.sff), 2.0 * h.mu - (h.mean + h.skew - h.sff)


def sigma_inequality_slack(coeffs: TorsionCoefficients) -> tuple[float, float]:
    """Per-block slack of the square-sum lower bound by the second mean curvature.

    Returns (sigma_v - 2*mu_v/(q-1), sigma_h - 2*mu_h/(n-q-1)), each
    computed as an explicitly nonnegative quadratic form.  A slack of zero
    characterizes umbilical blocks when the block is 2-dimensional, and
    umbilical integrable blocks in dimension >= 3.
    """
    v, h = coeffs._blocks
    return v.sigma_slack, h.sigma_slack


def mean_curvature_bound_slack(coeffs: TorsionCoefficients) -> float:
    """Slack of ((n+2)**2/8)*norm_sq >= mean_v_sq + mean_h_sq."""
    v, h = coeffs._blocks
    return ((coeffs.dims.n + 2) ** 2 / 8.0) * (2.0 * (v.sigma + h.sigma)) - (v.mean + h.mean)


def block_mean_curvature_slacks(coeffs: TorsionCoefficients) -> tuple[float, float]:
    """Sharper per-block forms: ((q+1)*sigma_v - mean_v_sq, (n-q+1)*sigma_h - mean_h_sq)."""
    q, horiz = coeffs.dims.q, coeffs.dims.horiz
    v, h = coeffs._blocks
    return (q + 1) * v.sigma - v.mean, (horiz + 1) * h.sigma - h.mean


@dataclass(frozen=True)
class BlockFlags:
    """Structural classification of the two blocks at the given tolerance."""

    v_geodesic: bool
    v_integrable: bool
    v_umbilical: bool
    h_geodesic: bool
    h_integrable: bool
    h_umbilical: bool


def classify(coeffs: TorsionCoefficients, tol: float = 1e-12) -> BlockFlags:
    """Flag geodesic / integrable / umbilical structure per block.

    The tolerance is relative to the max-magnitude coefficient, so exact
    zero input classifies as everything at once.  It is applied to the
    maxima cached on ``coeffs``, so no tolerance is kept there.
    """
    if not 0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and nonnegative")
    limit = 2.0 * (tol * max(b.max_entry for b in coeffs._blocks))
    v, h = [(b.max_sym <= limit, b.max_skew <= limit, b.max_off_sym <= limit and b.max_spread <= limit)
            for b in coeffs._blocks]
    return BlockFlags(*v, *h)


def random_coefficients(dims: SplitDims, seed: Union[int, np.random.Generator] = 0) -> TorsionCoefficients:
    """Coefficient blocks with entries uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    q, h = dims.q, dims.horiz
    return TorsionCoefficients(
        dims,
        rng.uniform(-1.0, 1.0, size=(q, q, h)),
        rng.uniform(-1.0, 1.0, size=(h, h, q)),
    )


def _umbilical_block(d: int, c: int, rng: np.random.Generator, integrable: bool) -> np.ndarray:
    block = np.zeros((d, d, c))
    block[np.arange(d), np.arange(d), :] = rng.uniform(-1.0, 1.0, size=c)
    if not integrable:
        a, b = np.triu_indices(d, 1)
        s = rng.uniform(-1.0, 1.0, size=(c, a.size)).T  # drawn j by j, pairs in row order
        block[a, b, :] = s
        block[b, a, :] = -s
    return block


def umbilical_coefficients(
    dims: SplitDims,
    seed: Union[int, np.random.Generator] = 0,
    *,
    integrable_v: bool = False,
    integrable_h: bool = False,
) -> TorsionCoefficients:
    """Blocks that are umbilical by construction (equal diagonals, skew off-diagonal).

    With ``integrable_*`` the off-diagonal part is dropped entirely, which
    additionally kills the integrability tensor of that block.
    """
    rng = np.random.default_rng(seed)
    q, h = dims.q, dims.horiz
    return TorsionCoefficients(
        dims,
        _umbilical_block(q, h, rng, integrable_v),
        _umbilical_block(h, q, rng, integrable_h),
    )
