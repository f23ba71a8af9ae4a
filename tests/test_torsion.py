import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folbend.torsion
from folbend.torsion import (
    BlockFlags,
    SplitDims,
    TorsionCoefficients,
    block_mean_curvature_slacks,
    classify,
    derive,
    mean_curvature_bound_slack,
    mu_identity_residual,
    random_coefficients,
    sigma_inequality_slack,
    umbilical_coefficients,
)


# ---------------------------------------------------------------------------
# Reference implementations.  ref_scalars is plain numpy, compared within a
# tolerance.  The loop_* functions are index loops over the library's terms,
# each a scalar formula with every square written x * x and each sum one fsum,
# so the array implementation must match them with ==.


def ref_scalars(block):
    d = block.shape[0]
    sym = 0.5 * (block + block.transpose(1, 0, 2))
    skew = 0.5 * (block - block.transpose(1, 0, 2))
    trace = np.einsum("aaj->j", block) if d else np.zeros(block.shape[2])
    mu = 0.0
    for j in range(block.shape[2]):
        m = block[:, :, j]
        for a in range(d):
            for b in range(a + 1, d):
                mu += m[a, a] * m[b, b] - m[a, b] * m[b, a]
    return {
        "sigma": float(np.sum(block**2)),
        "sff": float(np.sum(sym**2)),
        "skew": float(np.sum(skew**2)),
        "mean": float(np.sum(trace**2)),
        "mu": float(mu),
    }


def _sq(x):
    return x * x


def loop_scalars(block):
    d, _, c = block.shape
    sigma = math.fsum(_sq(x) for x in block.flat)
    sff = math.fsum(
        0.25 * _sq(block[a, b, j] + block[b, a, j])
        for a in range(d) for b in range(d) for j in range(c)
    )
    skew = math.fsum(
        0.25 * _sq(block[a, b, j] - block[b, a, j])
        for a in range(d) for b in range(d) for j in range(c)
    )
    mean = math.fsum(
        _sq(math.fsum(block[a, a, j] for a in range(d))) for j in range(c)
    )
    mu = math.fsum(
        block[a, a, j] * block[b, b, j] - block[a, b, j] * block[b, a, j]
        for j in range(c) for a in range(d) for b in range(a + 1, d)
    )
    return sigma, sff, skew, mean, mu


def loop_sigma_slack(block):
    d, _, c = block.shape
    if d < 2:
        return math.fsum(_sq(x) for x in block.flat)
    terms = []
    for j in range(c):
        for a in range(d):
            for b in range(a + 1, d):
                terms.append(_sq(block[a, a, j] - block[b, b, j]))
                terms.append(_sq(block[a, b, j] + block[b, a, j]))
        if d > 2:
            for a in range(d):
                for b in range(d):
                    if a != b:
                        terms.append((d - 2) * _sq(block[a, b, j]))
    return math.fsum(terms) / (d - 1)


def loop_flags(block, thresh):
    d = block.shape[0]
    sym = skew = off_sym = diag_spread = 0.0
    for j in range(block.shape[2]):
        for a in range(d):
            for b in range(d):
                s = abs(block[a, b, j] + block[b, a, j])
                k = abs(block[a, b, j] - block[b, a, j])
                sym = max(sym, s)
                skew = max(skew, k)
                if a != b:
                    off_sym = max(off_sym, s)
            for b in range(a + 1, d):
                diag_spread = max(diag_spread, abs(block[a, a, j] - block[b, b, j]))
    return (bool(sym <= 2.0 * thresh), bool(skew <= 2.0 * thresh),
            bool(off_sym <= 2.0 * thresh and diag_spread <= 2.0 * thresh))


def make(dims, seed):
    return random_coefficients(dims, seed)


DIM_GRID = [SplitDims(q + h, q) for q in range(1, 6) for h in range(1, 6)]


class TestDerive:
    def test_zero_input(self):
        dims = SplitDims(4, 2)
        c = TorsionCoefficients(dims, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        d = derive(c)
        assert d.sigma_v == 0.0 and d.sigma_h == 0.0 and d.norm_sq == 0.0
        assert d.mu_v == 0.0 and d.mu_h == 0.0

    def test_single_component(self):
        # q = 1, n = 2, one vertical coefficient s: norm_sq = 2 s^2 and the
        # 1x1 block has mean^2 = sff^2 = s^2, no skew part, no minors.
        dims = SplitDims(2, 1)
        c = TorsionCoefficients(dims, np.full((1, 1, 1), 0.7), np.zeros((1, 1, 1)))
        d = derive(c)
        assert d.sigma_v == pytest.approx(0.49, abs=1e-15)
        assert d.norm_sq == pytest.approx(0.98, abs=1e-15)
        assert d.mean_v_sq == pytest.approx(0.49, abs=1e-15)
        assert d.sff_v_sq == pytest.approx(0.49, abs=1e-15)
        assert d.skew_v_sq == 0.0
        assert d.mu_v == 0.0

    def test_diagonal_horizontal_block(self):
        # q = 1, horizontal block diagonal with equal entries alpha: the
        # closed forms for a shape-operator-style block.
        alpha, h = 0.83, 5
        dims = SplitDims(h + 1, 1)
        horiz = np.zeros((h, h, 1))
        horiz[np.arange(h), np.arange(h), 0] = alpha
        c = TorsionCoefficients(dims, np.zeros((1, 1, h)), horiz)
        d = derive(c)
        assert d.sigma_h == pytest.approx(h * alpha**2, rel=1e-15)
        assert d.sff_h_sq == pytest.approx(h * alpha**2, rel=1e-15)
        assert d.skew_h_sq == 0.0
        assert d.mean_h_sq == pytest.approx(h**2 * alpha**2, rel=1e-15)
        assert d.mu_h == pytest.approx(h * (h - 1) / 2 * alpha**2, rel=1e-14)

    @pytest.mark.parametrize("dims", DIM_GRID)
    def test_matches_reference(self, dims):
        c = make(dims, seed=dims.n * 100 + dims.q)
        d = derive(c)
        rv = ref_scalars(c.vertical)
        rh = ref_scalars(c.horizontal)
        assert d.sigma_v == pytest.approx(rv["sigma"], rel=1e-13)
        assert d.sigma_h == pytest.approx(rh["sigma"], rel=1e-13)
        assert d.norm_sq == pytest.approx(2 * (rv["sigma"] + rh["sigma"]), rel=1e-13)
        assert d.sff_v_sq == pytest.approx(rv["sff"], rel=1e-13)
        assert d.skew_v_sq == pytest.approx(rv["skew"], rel=1e-13)
        assert d.mean_v_sq == pytest.approx(rv["mean"], rel=1e-13, abs=1e-13)
        assert d.mu_v == pytest.approx(rv["mu"], rel=1e-12, abs=1e-12)
        assert d.sff_h_sq == pytest.approx(rh["sff"], rel=1e-13)
        assert d.skew_h_sq == pytest.approx(rh["skew"], rel=1e-13)
        assert d.mean_h_sq == pytest.approx(rh["mean"], rel=1e-13, abs=1e-13)
        assert d.mu_h == pytest.approx(rh["mu"], rel=1e-12, abs=1e-12)

    def test_sigma_decomposes_into_sym_plus_skew(self):
        c = make(SplitDims(7, 3), seed=5)
        d = derive(c)
        assert d.sigma_v == pytest.approx(d.sff_v_sq + d.skew_v_sq, rel=1e-13)
        assert d.sigma_h == pytest.approx(d.sff_h_sq + d.skew_h_sq, rel=1e-13)


class TestValidation:
    def test_dims(self):
        with pytest.raises(ValueError):
            SplitDims(1, 1)
        with pytest.raises(ValueError):
            SplitDims(4, 0)
        with pytest.raises(ValueError):
            SplitDims(4, 5)

    def test_shapes(self):
        dims = SplitDims(4, 2)
        with pytest.raises(ValueError):
            TorsionCoefficients(dims, np.zeros((2, 2, 1)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            TorsionCoefficients(dims, np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_nonfinite_rejected(self):
        dims = SplitDims(3, 1)
        vert = np.zeros((1, 1, 2))
        vert[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            TorsionCoefficients(dims, vert, np.zeros((2, 2, 1)))

    def test_input_isolated_from_later_mutation(self):
        dims = SplitDims(3, 1)
        vert = np.zeros((1, 1, 2))
        c = TorsionCoefficients(dims, vert, np.zeros((2, 2, 1)))
        vert[0, 0, 0] = 99.0
        assert c.vertical[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            c.vertical[0, 0, 1] = 1.0


class TestMuIdentity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dims", DIM_GRID)
    def test_residual_vanishes(self, dims, seed):
        c = make(dims, seed)
        d = derive(c)
        scale = max(1.0, d.mean_v_sq + d.skew_v_sq + d.sff_v_sq,
                    d.mean_h_sq + d.skew_h_sq + d.sff_h_sq)
        rv, rh = mu_identity_residual(c)
        assert abs(rv) <= 1e-13 * scale
        assert abs(rh) <= 1e-13 * scale

    @given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_residual_property(self, seed, q, h):
        c = make(SplitDims(q + h, q), seed)
        rv, rh = mu_identity_residual(c)
        assert abs(rv) <= 1e-11 and abs(rh) <= 1e-11


class TestSigmaSlack:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dims", DIM_GRID)
    def test_nonnegative_and_consistent(self, dims, seed):
        c = make(dims, seed)
        sv, sh = sigma_inequality_slack(c)
        assert sv >= 0.0 and sh >= 0.0
        d = derive(c)
        if dims.q >= 2:
            assert sv == pytest.approx(d.sigma_v - 2 * d.mu_v / (dims.q - 1),
                                       rel=1e-12, abs=1e-12)
        else:
            assert sv == pytest.approx(d.sigma_v, rel=1e-15)
        if dims.horiz >= 2:
            assert sh == pytest.approx(d.sigma_h - 2 * d.mu_h / (dims.horiz - 1),
                                       rel=1e-12, abs=1e-12)
        else:
            assert sh == pytest.approx(d.sigma_h, rel=1e-15)

    def test_equality_for_2d_umbilical_block(self):
        c = umbilical_coefficients(SplitDims(5, 2), seed=3)
        sv, _ = sigma_inequality_slack(c)
        assert sv == 0.0

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_equality_for_umbilical_integrable_block(self, q):
        c = umbilical_coefficients(SplitDims(q + 2, q), seed=q, integrable_v=True)
        sv, _ = sigma_inequality_slack(c)
        assert sv == 0.0

    def test_umbilical_but_nonintegrable_has_positive_slack(self):
        # Dimension >= 3: the skew part alone keeps the slack away from zero.
        c = umbilical_coefficients(SplitDims(5, 3), seed=11)
        assert derive(c).skew_v_sq > 0.1
        sv, _ = sigma_inequality_slack(c)
        assert sv > 1e-3

    def test_umbilical_constructor_classifies(self):
        c = umbilical_coefficients(SplitDims(6, 3), seed=7)
        flags = classify(c)
        assert flags.v_umbilical and flags.h_umbilical
        assert not flags.v_integrable


class TestMeanCurvatureBound:
    def test_hand_example(self):
        # q = 1, n = 2, single coefficient 1: slack = (16/8)*2 - 1 = 3.
        dims = SplitDims(2, 1)
        c = TorsionCoefficients(dims, np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
        assert mean_curvature_bound_slack(c) == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dims", DIM_GRID)
    def test_nonnegative(self, dims, seed):
        c = make(dims, seed)
        assert mean_curvature_bound_slack(c) >= 0.0
        bv, bh = block_mean_curvature_slacks(c)
        assert bv >= -1e-13 and bh >= -1e-13

    def test_block_forms_imply_combined(self):
        # (q+1) and (n-q+1) both stay below (n+2)^2/8 * 2, so the block
        # slacks are the sharper statements; check on one instance.
        c = make(SplitDims(6, 2), seed=1)
        d = derive(c)
        bv, bh = block_mean_curvature_slacks(c)
        combined = mean_curvature_bound_slack(c)
        n = 6
        residual = ((n + 2) ** 2 / 4.0 - (2 + 1)) * d.sigma_v \
            + ((n + 2) ** 2 / 4.0 - (4 + 1)) * d.sigma_h
        assert combined == pytest.approx(bv + bh + residual, rel=1e-12)


class TestClassify:
    def test_zero_everything(self):
        dims = SplitDims(4, 2)
        c = TorsionCoefficients(dims, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        flags = classify(c)
        assert flags == BlockFlags(True, True, True, True, True, True)

    def test_skew_block(self):
        # Purely skew vertical block: geodesic and umbilical, not integrable.
        dims = SplitDims(3, 2)
        vert = np.zeros((2, 2, 1))
        vert[0, 1, 0] = 1.0
        vert[1, 0, 0] = -1.0
        c = TorsionCoefficients(dims, vert, np.zeros((1, 1, 2)))
        flags = classify(c)
        assert flags.v_geodesic and flags.v_umbilical and not flags.v_integrable

    def test_distinct_diagonal(self):
        dims = SplitDims(3, 1)
        horiz = np.zeros((2, 2, 1))
        horiz[0, 0, 0] = 1.0
        horiz[1, 1, 0] = 2.0
        c = TorsionCoefficients(dims, np.zeros((1, 1, 2)), horiz)
        flags = classify(c)
        assert flags.h_integrable
        assert not flags.h_umbilical
        assert not flags.h_geodesic

    def test_one_dimensional_block_vacuous(self):
        dims = SplitDims(3, 1)
        vert = np.full((1, 1, 2), 0.4)
        c = TorsionCoefficients(dims, vert, np.zeros((2, 2, 1)))
        flags = classify(c)
        # A 1-dimensional block is trivially integrable and umbilical, but
        # carries mean curvature, so it is not geodesic.
        assert flags.v_integrable and flags.v_umbilical
        assert not flags.v_geodesic

    def test_tolerance_is_relative(self):
        # The fixed tolerance 1e-12 is relative to the largest coefficient:
        # a diagonal spread of 1e-13 of it is umbilical, one of 1e-10 is not,
        # and scaling the block by a power of two (exactly) changes neither.
        dims = SplitDims(3, 2)
        for spread, umbilical in ((1e-7, True), (1e-4, False)):
            vert = np.zeros((2, 2, 1))
            vert[0, 0, 0], vert[1, 1, 0] = 1e6, 1e6 + spread
            for k in (-300, -20, 0, 20, 100):
                c = TorsionCoefficients(dims, np.ldexp(vert, k), np.zeros((1, 1, 2)))
                assert classify(c).v_umbilical is umbilical, (spread, k)


# Every public function on one coefficient object, as plain values.
def all_answers(c):
    return {
        "derived": dataclasses.astuple(derive(c)),
        "flags": dataclasses.astuple(classify(c)),
        "residual": mu_identity_residual(c),
        "sigma_slack": sigma_inequality_slack(c),
        "mean_slack": mean_curvature_bound_slack(c),
        "block_slacks": block_mean_curvature_slacks(c),
    }


def loop_answers(c):
    n, q, h = c.dims.n, c.dims.q, c.dims.horiz
    sigma_v, sff_v, skew_v, mean_v, mu_v = loop_scalars(c.vertical)
    sigma_h, sff_h, skew_h, mean_h, mu_h = loop_scalars(c.horizontal)
    norm_sq = 2.0 * (sigma_v + sigma_h)
    scale = max([0.0] + [float(np.max(np.abs(b))) for b in (c.vertical, c.horizontal) if b.size])
    return {
        "derived": (sigma_v, sigma_h, norm_sq, sff_v, sff_h, skew_v, skew_h,
                    mean_v, mean_h, mu_v, mu_h),
        "flags": loop_flags(c.vertical, 1e-12 * scale) + loop_flags(c.horizontal, 1e-12 * scale),
        "residual": (2.0 * mu_v - (mean_v + skew_v - sff_v),
                     2.0 * mu_h - (mean_h + skew_h - sff_h)),
        "sigma_slack": (loop_sigma_slack(c.vertical), loop_sigma_slack(c.horizontal)),
        "mean_slack": ((n + 2) ** 2 / 8.0) * norm_sq - (mean_v + mean_h),
        "block_slacks": ((q + 1) * sigma_v - mean_v, (h + 1) * sigma_h - mean_h),
    }


class TestArrayKernels:
    @pytest.mark.parametrize("chunk", range(10))
    def test_bit_identical_to_index_loops(self, chunk):
        # 30 splittings per chunk, n up to 33, a quarter umbilical by construction.
        rng = np.random.default_rng(7000 + chunk)
        for k in range(30):
            n = int(rng.integers(2, 34))
            dims = SplitDims(n, int(rng.integers(1, n + 1)))
            seed = int(rng.integers(2**62))
            if k % 4 == 0:
                c = umbilical_coefficients(dims, seed, integrable_v=bool(k % 8 == 0),
                                           integrable_h=bool(k % 3 == 0))
            else:
                c = random_coefficients(dims, seed)
            assert all_answers(c) == loop_answers(c), (dims, seed)

    @pytest.mark.parametrize("dims", [SplitDims(4, 4), SplitDims(2, 2)])
    def test_empty_horizontal_block(self, dims):
        # q == n: the horizontal block is (0, 0, q) and the vertical (q, q, 0).
        for c in (random_coefficients(dims, 3), umbilical_coefficients(dims, 3)):
            assert c.vertical.shape == (dims.q, dims.q, 0)
            assert c.horizontal.shape == (0, 0, dims.q)
            got = all_answers(c)
            assert got["derived"] == (0.0,) * 11
            assert got["flags"] == (True,) * 6
            assert got["residual"] == got["sigma_slack"] == got["block_slacks"] == (0.0, 0.0)
            assert got["mean_slack"] == 0.0

    @pytest.mark.parametrize("tiny", [True, False])
    def test_extreme_scales(self, tiny):
        # Entries scaled by 2**-540 have subnormal or vanishing squares; at
        # largest_scale(n) the sums reach the top of the float range.
        rng = np.random.default_rng(7100 + tiny)
        for k in range(12):
            n = int(rng.integers(2, 34))
            dims = SplitDims(n, int(rng.integers(1, n + 1)))
            base = (umbilical_coefficients(dims, k, integrable_v=k % 2 == 0) if k % 3 == 0
                    else random_coefficients(dims, k))
            scale = 2.0**-540 if tiny else largest_scale(n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                c = TorsionCoefficients(dims, scale * base.vertical, scale * base.horizontal)
                assert all_answers(c) == loop_answers(c), (dims, k)

    @pytest.mark.parametrize("n", [3, 4, 9, 17, 26, 33, 40])
    def test_one_and_two_dimensional_blocks(self, n):
        # q = 1 or 2 makes the vertical block 1- or 2-dimensional, q = n - 1
        # or n - 2 the horizontal one; the other block is up to (39, 39, 1).
        for q in {1, 2, n - 2, n - 1}:
            dims = SplitDims(n, q)
            for c in (random_coefficients(dims, n + q), umbilical_coefficients(dims, n + q),
                      umbilical_coefficients(dims, n + q, integrable_v=True, integrable_h=True)):
                assert all_answers(c) == loop_answers(c), dims


class TestDeriveOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = folbend.torsion._block_pass

        def counting(block):
            seen.append(block.shape)
            return original(block)

        monkeypatch.setattr(folbend.torsion, "_block_pass", counting)
        return seen

    def test_one_computation_per_object(self, calls):
        # One pass per block, whatever is asked of the object afterwards.
        dims = SplitDims(9, 4)
        c = random_coefficients(dims, seed=21)
        assert calls == []
        first = all_answers(c)
        assert calls == [(4, 4, 5), (5, 5, 4)]
        for _ in range(3):
            classify(c)
        assert all_answers(c) == first
        assert calls == [(4, 4, 5), (5, 5, 4)]

    def test_equal_but_distinct_object_computes_again(self, calls):
        c = random_coefficients(SplitDims(6, 2), seed=4)
        twin = TorsionCoefficients(c.dims, c.vertical, c.horizontal)
        assert all_answers(twin) == all_answers(c)
        assert calls == [(2, 2, 4), (4, 4, 2)] * 2


def largest_scale(n):
    # The documented bound: every invariant is at most (n+2)**5 * scale**2.
    return math.sqrt(sys.float_info.max / (n + 2) ** 5)


class TestCoefficientScale:
    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_huge_scale_rejected(self, scale):
        # Finite blocks that once passed construction: at 1e154 five functions
        # raised OverflowError inside fsum, at 1e160 derive returned inf and
        # the second mean curvature nan.
        c = random_coefficients(SplitDims(4, 2), seed=3)
        with pytest.raises(ValueError, match="coefficient scale"):
            TorsionCoefficients(c.dims, scale * c.vertical, scale * c.horizontal)

    @pytest.mark.parametrize("dims", [SplitDims(2, 1), SplitDims(4, 2), SplitDims(9, 4),
                                      SplitDims(33, 1), SplitDims(33, 16)])
    def test_largest_accepted_scale_is_finite(self, dims):
        bound = largest_scale(dims.n)
        q, h = dims.q, dims.horiz
        rng = np.random.default_rng(dims.n)
        signs = [np.ones((q, q, h)), np.ones((h, h, q)),
                 rng.choice([-1.0, 1.0], (q, q, h)), rng.choice([-1.0, 1.0], (h, h, q))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for vert, horiz in (signs[:2], signs[2:]):
                got = all_answers(TorsionCoefficients(dims, bound * vert, bound * horiz))
                values = [*got["derived"], *got["residual"], *got["sigma_slack"],
                          got["mean_slack"], *got["block_slacks"]]
                assert all(math.isfinite(x) for x in values)
                with pytest.raises(ValueError, match="coefficient scale"):
                    TorsionCoefficients(dims, np.nextafter(bound, math.inf) * vert, horiz)


def largest_term(n):
    # The bound on every invariant at the largest accepted scale.
    return min(sys.float_info.max, (n + 2) ** 5 * largest_scale(n) ** 2)


def fsum_outcome(fsum, parts):
    try:
        return fsum(*parts).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestExactSum:
    """``torsion._fsum`` is ``math.fsum`` over the same terms, compared by ``float.hex``."""

    EXTRACT = folbend.torsion._EXTRACT_FROM

    @staticmethod
    def check(*parts):
        def plain(*arrays):
            return math.fsum(np.concatenate(arrays, axis=None).tolist())

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fsum_outcome(folbend.torsion._fsum, parts)
        assert got == fsum_outcome(plain, parts)
        return got

    SIZES = [0, 1, 2, 31, 32, 33, EXTRACT - 1, EXTRACT, EXTRACT + 1, 3 * EXTRACT, 20000]

    @pytest.mark.parametrize("size", SIZES)
    def test_zeros(self, size):
        zeros = np.zeros(size)
        for terms in (zeros, -zeros, np.where(np.arange(size) % 3, zeros, -zeros)):
            assert self.check(terms) == "0x0.0p+0"
        assert self.check(np.array([-0.0]), np.zeros((2, 0)), -zeros) == self.check(np.array([-0.0]))

    @pytest.mark.parametrize("size", SIZES)
    def test_sizes_around_the_crossover(self, size):
        rng = np.random.default_rng(size)
        x, y = rng.uniform(-1.0, 1.0, (2, size))
        self.check(x * x)
        self.check(x * y)
        self.check(x.reshape(-1, 1), y * y, np.ones((3, 2)))

    @pytest.mark.parametrize("size", [40, 3000])
    def test_subnormal_terms(self, size):
        rng = np.random.default_rng(1)
        for terms in (rng.uniform(-1.0, 1.0, size) * 2.0**-1030,
                      rng.integers(-50, 50, size) * 5e-324,
                      rng.uniform(0.0, 1.0, size) ** 40 * 2.0**-1022):
            assert np.all(np.abs(terms) < sys.float_info.min)
            self.check(terms)

    @pytest.mark.parametrize("size", [40, 3000])
    def test_cancellation(self, size):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, size) * 2.0 ** rng.integers(-60, 60, size)
        assert self.check(x, -x) == "0x0.0p+0"
        assert self.check(x, -x * (1.0 + 2.0**-52)) != "0x0.0p+0"
        self.check(x, -x[::-1], np.array([2.0**-1074]))

    @pytest.mark.parametrize("size", [1021, 1022, 4093])
    def test_terms_of_one_sign_near_the_largest(self, size):
        # The extracted parts then add up to nearly sigma, the most that
        # np.sum may reach and stay exact; N + 2 = 1023 is the tightest case.
        rng = np.random.default_rng(size)
        for top in (1.0, 2.0**-1000, 2.0**1000):
            terms = top * (1.0 - rng.uniform(0.0, 2.0**-20, size))
            self.check(terms)
            self.check(-terms)

    @pytest.mark.parametrize("size", [200, 5000])
    def test_three_hundred_decades_at_once(self, size):
        rng = np.random.default_rng(3)
        terms = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
        terms[:2] = 1e-300, 1e300
        self.check(terms)
        self.check(terms, -terms[1:])

    @pytest.mark.parametrize("n", [2, 9, 33, 40])
    def test_terms_as_large_as_an_accepted_object_allows(self, n):
        # Terms whose first extraction would need sigma = 2**1024 go to fsum
        # directly; just below that, sigma = 2**1023 and sigma + p stays finite.
        top, size = largest_term(n), 1000
        rng = np.random.default_rng(n)
        terms = rng.uniform(0.0, 1.0, size) * (top / size)
        terms[0] = top / size

        def exponent(p):
            return math.frexp(float(np.max(np.abs(p))))[1] + (p.size + 2).bit_length()

        assert exponent(terms) >= 1024
        assert self.check(terms) == math.fsum(terms.tolist()).hex()
        self.check(terms, -terms[::2])
        below = rng.uniform(-1.0, 1.0, size) * 2.0**1013
        below[0] = 2.0**1013 * (1.0 - 2.0**-53)
        assert exponent(below) == 1023
        self.check(below)
        self.check(below, -below[::3])
        # Past the float range both raise OverflowError.
        assert self.check(np.full(size, top)) is OverflowError

    @pytest.mark.parametrize("size", [3, 3000])
    def test_nonfinite_terms(self, size):
        ones = np.ones(size)
        assert self.check(ones, np.array([math.inf])) == "inf"
        assert self.check(ones, np.array([math.inf, -math.inf])) is ValueError
        assert self.check(ones, np.array([math.nan])) == "nan"

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 4000),
           spread=st.integers(0, 1100), zeros=st.floats(0.0, 1.0))
    def test_random_terms(self, seed, size, spread, zeros):
        rng = np.random.default_rng(seed)
        terms = rng.choice([-1.0, 1.0], size) * 2.0 ** rng.uniform(-spread, min(spread, 1023), size)
        terms[rng.uniform(0.0, 1.0, size) < zeros] = 0.0
        self.check(terms)
