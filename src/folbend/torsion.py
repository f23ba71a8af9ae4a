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
sum is a correctly rounded ``math.fsum``, so results do not depend on the
order of the terms and are reproducible bit for bit.
"""
from __future__ import annotations

import functools
import math
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
    Arrays are copied and frozen on construction; derived scalars on first use.
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
        vert.flags.writeable = False
        horiz.flags.writeable = False
        object.__setattr__(self, "vertical", vert)
        object.__setattr__(self, "horizontal", horiz)

    @functools.cached_property
    def _derived(self) -> DerivedTensors:
        # Kept in this object's __dict__: the blocks are frozen, so the value
        # stays valid, and an equal but distinct object computes its own.
        sigma_v, sff_v, skew_v, mean_v, mu_v = _block_scalars(self.vertical)
        sigma_h, sff_h, skew_h, mean_h, mu_h = _block_scalars(self.horizontal)
        return DerivedTensors(
            sigma_v=sigma_v, sigma_h=sigma_h, norm_sq=2.0 * (sigma_v + sigma_h),
            sff_v_sq=sff_v, sff_h_sq=sff_h, skew_v_sq=skew_v, skew_h_sq=skew_h,
            mean_v_sq=mean_v, mean_h_sq=mean_h, mu_v=mu_v, mu_h=mu_h,
        )


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


def _fsum(terms: np.ndarray) -> float:
    """Correctly rounded sum of every entry, whatever their order."""
    return math.fsum(terms.ravel().tolist())


def _pair_masks(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(a < b, a != b) as (d, d) masks over the first two block indices."""
    idx = np.arange(d)
    return idx[:, None] < idx, idx[:, None] != idx


def _block_scalars(block: np.ndarray) -> tuple[float, float, float, float, float]:
    """(square sum, sff^2, skew^2, mean^2, mu) for one (d, d, c) block."""
    upper, _ = _pair_masks(block.shape[0])
    swapped = block.transpose(1, 0, 2)  # swapped[a, b, j] = block[b, a, j]
    diag = block.diagonal().T  # diag[a, j] = block[a, a, j]
    sym = block + swapped
    anti = block - swapped
    traces = [math.fsum(column) for column in diag.T.tolist()]  # one per j
    minors = diag[:, None, :] * diag[None, :, :] - block * swapped
    return (
        _fsum(block * block),
        _fsum(0.25 * (sym * sym)),
        _fsum(0.25 * (anti * anti)),
        math.fsum(t * t for t in traces),
        _fsum(minors[upper]),
    )


def derive(coeffs: TorsionCoefficients) -> DerivedTensors:
    """Every derived scalar of the coefficient blocks, computed once per object."""
    return coeffs._derived


def mu_identity_residual(coeffs: TorsionCoefficients) -> tuple[float, float]:
    """Residual, per block, of 2*mu = mean^2 + skew^2 - sff^2.

    Both sides come from independent index sums, so a nonzero residual
    beyond round-off indicates an algebra bug, not input noise.
    """
    d = coeffs._derived
    res_v = 2.0 * d.mu_v - (d.mean_v_sq + d.skew_v_sq - d.sff_v_sq)
    res_h = 2.0 * d.mu_h - (d.mean_h_sq + d.skew_h_sq - d.sff_h_sq)
    return res_v, res_h


def _sigma_slack_block(block: np.ndarray) -> float:
    """Slack of sigma >= 2*mu/(d-1) for one block, as a sum of squares.

    For d >= 2 the difference sigma - 2*mu/(d-1) expands into the manifestly
    nonnegative quadratic form below; evaluating that form (rather than the
    difference) keeps the result exactly >= 0.  For d = 1 the quotient
    mu/(d-1) is taken to be zero, so the slack is sigma itself.
    """
    d = block.shape[0]
    squares = block * block
    if d < 2:
        return _fsum(squares)
    upper, off = _pair_masks(d)
    diag = block.diagonal().T
    spread = diag[:, None, :] - diag[None, :, :]
    sym = block + block.transpose(1, 0, 2)
    terms = [(spread * spread)[upper], (sym * sym)[upper]]
    if d > 2:
        terms.append((d - 2) * squares[off])
    return _fsum(np.concatenate(terms, axis=None)) / (d - 1)


def sigma_inequality_slack(coeffs: TorsionCoefficients) -> tuple[float, float]:
    """Per-block slack of the square-sum lower bound by the second mean curvature.

    Returns (sigma_v - 2*mu_v/(q-1), sigma_h - 2*mu_h/(n-q-1)), each
    computed as an explicitly nonnegative quadratic form.  A slack of zero
    characterizes umbilical blocks when the block is 2-dimensional, and
    umbilical integrable blocks in dimension >= 3.
    """
    return (
        _sigma_slack_block(coeffs.vertical),
        _sigma_slack_block(coeffs.horizontal),
    )


def mean_curvature_bound_slack(coeffs: TorsionCoefficients) -> float:
    """Slack of ((n+2)**2/8)*norm_sq >= mean_v_sq + mean_h_sq."""
    n = coeffs.dims.n
    d = coeffs._derived
    return ((n + 2) ** 2 / 8.0) * d.norm_sq - (d.mean_v_sq + d.mean_h_sq)


def block_mean_curvature_slacks(coeffs: TorsionCoefficients) -> tuple[float, float]:
    """Sharper per-block forms: ((q+1)*sigma_v - mean_v_sq, (n-q+1)*sigma_h - mean_h_sq)."""
    q = coeffs.dims.q
    h = coeffs.dims.horiz
    d = coeffs._derived
    return (q + 1) * d.sigma_v - d.mean_v_sq, (h + 1) * d.sigma_h - d.mean_h_sq


@dataclass(frozen=True)
class BlockFlags:
    """Structural classification of the two blocks at the given tolerance."""

    v_geodesic: bool
    v_integrable: bool
    v_umbilical: bool
    h_geodesic: bool
    h_integrable: bool
    h_umbilical: bool


def _classify_block(block: np.ndarray, thresh: float) -> tuple[bool, bool, bool]:
    upper, off = _pair_masks(block.shape[0])
    swapped = block.transpose(1, 0, 2)
    sym = np.abs(block + swapped)
    diag = block.diagonal().T
    spread = np.abs(diag[:, None, :] - diag[None, :, :])[upper]
    limit = 2.0 * thresh
    geodesic = bool(np.max(sym, initial=0.0) <= limit)
    integrable = bool(np.max(np.abs(block - swapped), initial=0.0) <= limit)
    umbilical = bool(np.max(sym[off], initial=0.0) <= limit
                     and np.max(spread, initial=0.0) <= limit)
    return geodesic, integrable, umbilical


def classify(coeffs: TorsionCoefficients, tol: float = 1e-12) -> BlockFlags:
    """Flag geodesic / integrable / umbilical structure per block.

    The tolerance is relative to the max-magnitude coefficient, so exact
    zero input classifies as everything at once.
    """
    if not 0 <= tol < math.inf:
        raise ValueError("tolerance must be finite and nonnegative")
    thresh = tol * max(float(np.max(np.abs(block), initial=0.0))
                       for block in (coeffs.vertical, coeffs.horizontal))
    v = _classify_block(coeffs.vertical, thresh)
    h = _classify_block(coeffs.horizontal, thresh)
    return BlockFlags(
        v_geodesic=v[0], v_integrable=v[1], v_umbilical=v[2],
        h_geodesic=h[0], h_integrable=h[1], h_umbilical=h[2],
    )


def _rng(seed: Union[int, np.random.Generator]) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_coefficients(dims: SplitDims, seed: Union[int, np.random.Generator] = 0) -> TorsionCoefficients:
    """Coefficient blocks with entries uniform in [-1, 1]."""
    rng = _rng(seed)
    q, h = dims.q, dims.horiz
    return TorsionCoefficients(
        dims,
        rng.uniform(-1.0, 1.0, size=(q, q, h)),
        rng.uniform(-1.0, 1.0, size=(h, h, q)),
    )


def _umbilical_block(d: int, c: int, rng: np.random.Generator, integrable: bool) -> np.ndarray:
    block = np.zeros((d, d, c))
    for j in range(c):
        block[np.arange(d), np.arange(d), j] = rng.uniform(-1.0, 1.0)
    if not integrable:
        for j in range(c):
            for a in range(d):
                for b in range(a + 1, d):
                    s = rng.uniform(-1.0, 1.0)
                    block[a, b, j] = s
                    block[b, a, j] = -s
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
    rng = _rng(seed)
    q, h = dims.q, dims.horiz
    return TorsionCoefficients(
        dims,
        _umbilical_block(q, h, rng, integrable_v),
        _umbilical_block(h, q, rng, integrable_h),
    )
