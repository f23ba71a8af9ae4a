"""Bending values against hand-derived closed forms.

Every expected number quoted here was computed by hand from elementary
antiderivatives (powers of sine and cosine over (0, mu)) before the
implementation existed, and is frozen: do not regenerate from the code
under test.
"""
import math
import random
import sys
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folbend.bending
from folbend.bending import (
    BendingResult,
    complex_radial_bending,
    epsilon_deformed_bending,
    torus_bending,
    total_bending,
)
from folbend import cli, quadrature
from folbend.bounds import integral_formula_check, table1_report
from folbend.quadrature import QuadratureConfig, UndecidedError, adaptive_quadrature, integrate_open
from folbend.spaces import FocalVariety, ModelSpace, parse_focal, parse_space
from folbend.tubes import NotComputableError, tube_profile
from oracles import (
    PI_60,
    catalog_labels,
    exact_bending,
    reference_ratio,
    torus_reference,
    torus_riemann_oracle,
)

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)
POINT = FocalVariety.point()


def ratio(space, focal, quad=TIGHT, lam=1.0):
    res = total_bending(parse_space(space, lam), parse_focal(focal), quad)
    assert res.status == "finite"
    return res


# Closed forms for the ratio B/Vol at lam = 1, from hand antiderivatives.
FINITE_TABLE = [
    ("S:3", "point", Fraction(1)),
    ("S:4", "point", Fraction(3, 4)),
    ("S:5", "point", Fraction(2, 3)),
    ("S:6", "point", Fraction(5, 8)),
    ("RP:3", "point", Fraction(1)),
    ("RP:4", "point", Fraction(3, 4)),
    ("S:5", "sub:S:2", Fraction(6)),
    ("CP:3", "sub:CP:1", Fraction(5)),
    ("HP:2", "point", Fraction(16, 3)),
    ("HP:3", "point", Fraction(41, 5)),
    ("HP:3", "sub:HP:1", Fraction(19, 3)),
    ("CaP2", "point", Fraction(139, 21)),
]

DIVERGENT_TABLE = [
    ("S:2", "point", "both"),
    ("S:4", "sub:S:2", "0"),
    ("S:5", "sub:S:3", "0"),
    ("CP:2", "point", "mu"),
    ("CP:3", "point", "mu"),
]


class TestFiniteTable:
    @pytest.mark.parametrize("space,focal,expected", FINITE_TABLE)
    def test_ratio_matches_closed_form(self, space, focal, expected):
        res = ratio(space, focal)
        assert res.value_per_volume == pytest.approx(float(expected), rel=1e-9)
        assert res.error_estimate < 1e-8

    @pytest.mark.parametrize("space,focal,expected", FINITE_TABLE[:4])
    def test_point_formula_in_round_spheres(self, space, focal, expected):
        # geodesic spheres around a point of S^m: (m - 1) / (2 (m - 2))
        m = int(space.split(":")[1])
        assert expected == Fraction(m - 1, 2 * (m - 2))

    def test_error_estimate_is_honest(self):
        res = ratio("S:5", "sub:S:2")
        assert abs(res.value_per_volume - 6.0) <= 10 * res.error_estimate + 1e-12

    def test_branches_and_mu_reported(self):
        res = ratio("HP:2", "point")
        assert res.mu == pytest.approx(math.pi / 2)
        assert sum(b.multiplicity for b in res.branches) == 7

    def test_profile_reorder_does_not_change_value(self, monkeypatch):
        space, focal = parse_space("CP:3"), parse_focal("sub:CP:1")
        prof = tube_profile(space, focal)
        shuffled = replace(prof, branches=tuple(prof.branches[i] for i in (2, 0, 1)))
        a = total_bending(space, focal, TIGHT)
        monkeypatch.setattr(folbend.bending, "tube_profile", lambda *_: shuffled)
        b = total_bending(space, focal, TIGHT)
        assert b.branches == shuffled.branches != a.branches
        assert a.value_per_volume == pytest.approx(b.value_per_volume, rel=1e-11)


class TestDivergentRows:
    @pytest.mark.parametrize("space,focal,endpoint", DIVERGENT_TABLE)
    def test_divergence_verdicts(self, space, focal, endpoint):
        res = total_bending(parse_space(space), parse_focal(focal), TIGHT)
        assert res.status == "divergent"
        assert not res.is_finite
        assert res.divergent_endpoint == endpoint
        assert res.value_per_volume is None

    @pytest.mark.parametrize("space,focal,endpoint", DIVERGENT_TABLE)
    def test_divergence_is_logarithmic(self, space, focal, endpoint):
        # every divergent catalog entry blows up like 1/distance
        res = total_bending(parse_space(space), parse_focal(focal), TIGHT)
        assert 0.9 <= res.exponent_estimate <= 1.1

    def test_not_computable_rows_raise(self):
        with pytest.raises(NotComputableError):
            total_bending(parse_space("CP:2"), parse_focal("sub:RP:2"))
        with pytest.raises(NotComputableError):
            total_bending(parse_space("HP:2"), parse_focal("sub:CP:2"))


class TestCurvatureScaling:
    @pytest.mark.parametrize("space,focal,expected", [
        ("S:4", "point", Fraction(3, 4)),
        ("HP:2", "point", Fraction(16, 3)),
        ("S:5", "sub:S:2", Fraction(6)),
    ])
    @pytest.mark.parametrize("lam", [0.25, 2.0, 3.0])
    def test_ratio_scales_linearly_in_curvature(self, space, focal, expected, lam):
        res = ratio(space, focal, lam=lam)
        assert res.value_per_volume == pytest.approx(lam * float(expected), rel=1e-9)

    def test_divergence_verdict_survives_scaling(self):
        res = total_bending(parse_space("CP:2", 5.0), POINT, TIGHT)
        assert res.status == "divergent"
        assert res.divergent_endpoint == "mu"

    def test_a_ratio_below_the_normal_range_is_undecided(self):
        # B/Vol = 21/41 lam = 2.05e-323 came out as 1e-323 +- 5e-324: on the
        # subnormal grid the density and the ratio round past their estimate.
        with pytest.raises(UndecidedError):
            total_bending(parse_space("RP:43", 4e-323), parse_focal("sub:RP:42"))

    def test_volume_meets_its_tolerance_past_a_gauss_sum_overflow(self):
        # The first volume panel's Gauss sum overflows here; bisecting it
        # turned the running error into NaN, which ended the refinement early.
        lam = 5.1794746792311805e-11
        space = parse_space("S:60", lam)
        prof = tube_profile(space, POINT)
        # theta = (sin(x) / sqrt(lam))**59 at x = sqrt(lam) r: Vol = lam**-30 * W(59)
        exact = math.exp(0.5 * math.log(math.pi) + math.lgamma(30) - math.lgamma(30.5)
                         - 30 * math.log(lam))
        with np.errstate(over="ignore"):
            vol, _ = adaptive_quadrature(prof.theta, 0.0, prof.mu)
            res = total_bending(space, POINT)
            # The shared pass bisects that panel too, and must recount like its reference.
            shared = quadrature.ratio_quadrature(prof.bending_rows, (0.0, prof.mu))
            assert shared == reference_ratio(prof.bending_rows, (0.0, prof.mu))
        assert abs(vol - exact) <= 1e-8 * exact
        assert abs(shared[3] - exact) <= 1e-8 * exact
        assert abs(res.value_per_volume - lam * 59 / 116) <= res.error_estimate


class TestOverflowWithoutWarnings:
    # The quadrature called the integrand before its errstate block, so an
    # overflowing density warned (an error under -W error) before it ended
    # undecided outside the command line, which silences numpy itself.
    @pytest.mark.parametrize("space,lam", [("S:200", 1e-5), ("S:3", 1e-300), ("HP:3", 1e-200)])
    @pytest.mark.parametrize("call", [
        lambda space: total_bending(space, POINT),
        lambda space: epsilon_deformed_bending(space, POINT, 0.5),
        lambda space: integral_formula_check(space, POINT),
    ], ids=["total", "epsilon", "identity"])
    def test_overflow_is_undecided_and_silent(self, space, lam, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndecidedError):
                call(parse_space(space, lam))


def s2_deformed_closed_form(eps):
    # hand antiderivative of cos^2/sin over the deformation window on S^2,
    # pi * (log((1 + s) / (1 - s)) - 2 s) with s = sin(eps), summed as its
    # series 2 pi sum_{k >= 1} s^(2k+1) / (2k+1): the two terms cancel for small eps
    s = math.sin(eps)
    return 2 * math.pi * math.fsum(s ** (2 * k + 1) / (2 * k + 1) for k in range(1, 400))


def s2_window_at_the_ends(w0, w1):
    """B/Vol of S^2 at lam = 1 over the float window [w0, w1] with both edges
    within 1e-6 of the ends 0 and pi: 1/4 of the antiderivative log tan(r/2) +
    cos r of cos^2/sin between them, from the series log tan u = log u + u^2/3
    + O(u^4) and cos d = 1 - d^2/2 + O(d^4) in the distances d to the ends,
    in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        d0, d1 = Decimal(w0), PI_60 - Decimal(w1)
        log_tan = lambda d: (d / 2).ln() + (d / 2) ** 2 / 3
        return float((-log_tan(d1) - log_tan(d0) - 2 + (d0 ** 2 + d1 ** 2) / 2) / 4)


class TestEpsilonDeformation:
    S2 = parse_space("S:2")

    def test_zero_deformation_is_parallel(self):
        res = epsilon_deformed_bending(self.S2, POINT, 0.0)
        assert res.status == "finite"
        assert res.value_per_volume == 0.0
        assert res.value == 0.0

    def test_zero_deformation_keeps_the_volume(self):
        s3 = parse_space("S:3")
        res = epsilon_deformed_bending(s3, POINT, 0.0)
        assert res.volume == total_bending(s3, POINT).volume
        assert res.value_per_volume == 0.0
        assert res.value == 0.0  # so E = (3/2) Vol exactly

    @pytest.mark.parametrize("eps", [math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3])
    def test_sphere_window_closed_form(self, eps):
        res = epsilon_deformed_bending(self.S2, POINT, eps, TIGHT)
        assert res.status == "finite"
        assert res.value == pytest.approx(s2_deformed_closed_form(eps), abs=1e-10)

    @pytest.mark.parametrize("quad", [QuadratureConfig(), TIGHT], ids=["default", "tight"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
    def test_narrow_sphere_window_inside_its_bar(self, eps, quad):
        res = epsilon_deformed_bending(self.S2, POINT, eps, quad)
        exact = s2_deformed_closed_form(eps)
        assert abs(res.value - exact) <= res.error_estimate * res.volume + 4 * math.ulp(exact)

    def test_window_bar_covers_the_rounded_edges(self):
        # The rounding of the window edges moves this narrow window's B/Vol by
        # 9.2e-18; the quadrature error alone is 7e-19.  The exact value comes
        # from the catalog's Laurent polynomial integrated over the same float
        # window by graded Gauss-Legendre panels.
        lam, eps = 0.056198404815094784, 6.910159868683462e-4
        res = epsilon_deformed_bending(parse_space("RP:5", lam), parse_focal("sub:RP:4"), eps,
                                       QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12))
        assert abs(res.value_per_volume - 3.296331448379329e-05) <= res.error_estimate

    def test_monotone_in_epsilon(self):
        values = [
            epsilon_deformed_bending(self.S2, POINT, e, TIGHT).value
            for e in np.linspace(0.1, 1.4, 8)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_full_window_recovers_total_bending(self):
        # at eps = pi/2 the window is all of (0, mu), divergence verdict included
        res = epsilon_deformed_bending(self.S2, POINT, math.pi / 2, TIGHT)
        assert res.status == "divergent"
        assert res.divergent_endpoint == "both"

        finite = epsilon_deformed_bending(parse_space("S:4"), POINT, math.pi / 2, TIGHT)
        assert finite.value_per_volume == pytest.approx(0.75, rel=1e-9)

    def test_finite_space_small_window_positive(self):
        res = epsilon_deformed_bending(parse_space("S:4"), POINT, 0.3, TIGHT)
        assert res.status == "finite"
        assert 0 < res.value_per_volume < 0.75

    @pytest.mark.parametrize("space", ["S:2", "S:3", "CP:3"])
    @pytest.mark.parametrize("eps", [5e-324, 1e-17, 1e-16])
    def test_window_below_the_float_resolution_is_undecided(self, space, eps):
        # Both edges round to the same float: the window is empty, the exact
        # bending (about 4 eps^3 / (3 pi) on S:3) is not.
        with pytest.raises(UndecidedError, match="float resolution"):
            epsilon_deformed_bending(parse_space(space), POINT, eps)

    def test_window_next_to_the_divergent_ends(self):
        # The edges lie about 5e-12 from the ends, where the density grows like
        # 1/d, so the panels next to them must be narrower than 2**-40 mu; the
        # bar must hold the exact value over the float edges.
        eps = 1.57079632679
        res = epsilon_deformed_bending(self.S2, POINT, eps)
        w0, w1 = (math.pi * (math.pi + sign * 2.0 * eps) / (2.0 * math.pi) for sign in (-1, 1))
        assert abs(res.value_per_volume - s2_window_at_the_ends(w0, w1)) <= res.error_estimate
        assert res.error_estimate < 1e-4

    def test_window_nearer_the_divergent_ends_exhausts_the_refinement_budget(self):
        # About 1e-13 from the ends the panels next to the edges reach both the
        # width floor and the float resolution of their edges before the
        # tolerance: the refinement stops with its residual, not with a number.
        with pytest.raises(UndecidedError, match=r"did not converge within the refinement "
                           r"budget \(residual error 6\.256e-04 on \[0\.0, 3\.141592653589793\]\)"):
            epsilon_deformed_bending(self.S2, POINT, 1.5707963267948)

    def test_edge_term_that_is_not_finite_is_undecided(self):
        # The density at the window's edges is not finite here; the bar with
        # the edge term was NaN, after the quadrature's own finite check.
        space = parse_space("S:150", 2.299678078840782e+283)
        with pytest.raises(UndecidedError, match="not finite"):
            epsilon_deformed_bending(space, parse_focal("sub:S:148"), 1.5707963267941152)

    @pytest.mark.parametrize("eps", [-0.1, math.pi / 2 + 0.01, 7.0])
    def test_rejects_out_of_range_epsilon(self, eps):
        with pytest.raises(ValueError):
            epsilon_deformed_bending(self.S2, POINT, eps)


def torus_closed_form(R, r):
    return 2 * math.pi**2 / r**2 * (R / math.sqrt(R**2 - r**2) - 1)


class TestTorus:
    def test_matches_closed_form(self):
        res = torus_bending(2.0, 1.0, TIGHT)
        assert res.value == pytest.approx(torus_closed_form(2.0, 1.0), rel=1e-11)

    def test_matches_riemann_oracle(self):
        oracle = torus_riemann_oracle(2.0, 1.0, nodes=1_000_000)
        res = torus_bending(2.0, 1.0, TIGHT)
        assert res.value == pytest.approx(oracle, rel=1e-6)

    def test_upper_bound_holds(self):
        rng = np.random.default_rng(20240817)
        for _ in range(25):
            r = float(rng.uniform(0.1, 3.0))
            R = r + float(rng.uniform(0.05, 4.0))
            res = torus_bending(R, r)
            assert res.upper_bound == pytest.approx(2 * (math.pi / (R - r)) ** 2)
            assert res.value < res.upper_bound

    def test_thin_tube_limit(self):
        # r -> 0 with R fixed: the integral tends to pi^2 / R^2
        R = 2.0
        for r in (1e-2, 1e-3):
            res = torus_bending(R, r, TIGHT)
            assert res.value == pytest.approx(math.pi**2 / R**2, rel=5 * r)

    def test_area_weighted_variant(self):
        res = torus_bending(2.0, 1.0, TIGHT, area_weighted=True)
        oracle = torus_riemann_oracle(2.0, 1.0, nodes=500_000, area_weighted=True)
        assert res.area_weighted is True
        assert res.value == pytest.approx(oracle, rel=1e-6)
        assert res.value != pytest.approx(torus_bending(2.0, 1.0, TIGHT).value)

    @pytest.mark.parametrize("R,r,weighted", [
        (3e-154, 1e-154, False), (3e-154, 1e-154, True),  # the bound overflows
        (2e-155, 1e-155, False), (2e-155, 1e-155, True),  # (R - r)(R + r) underflows
        (1.5e308, 1e308, True),                           # R + r overflows
    ])
    def test_past_the_float_range_is_undecided(self, R, r, weighted):
        with np.errstate(all="ignore"), pytest.raises(UndecidedError):
            torus_bending(R, r, area_weighted=weighted)

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-6])
    def test_bar_holds_on_a_narrow_gap(self, rel_tol):
        # R - r = 0.046: quadrature gave 99.08902500421594 +- 6.79e-7, against
        # the exact 99.08902186745989 (error 3.14e-6); a tube_sweep request found it.
        R, r = 0.6168842670015278, 0.5707425855031254
        res = torus_bending(R, r, QuadratureConfig(rel_tol=rel_tol))
        assert abs(Decimal(res.value) - torus_reference(R, r)) <= res.error_estimate

    @pytest.mark.parametrize("weighted", [False, True], ids=["flat", "weighted"])
    def test_bar_holds_on_random_tori(self, weighted):
        # r log-uniform over 1e-100..1e100 and the gap R/r - 1 over 1e-12..1e3,
        # against a 60-digit reference; the bar is a rounding count, 16 eps.
        rng = random.Random(20261019)
        for _ in range(2000):
            r = 10.0 ** rng.uniform(-100.0, 100.0)
            R = r * (1.0 + 10.0 ** rng.uniform(-12.0, 3.0))
            res = torus_bending(R, r, area_weighted=weighted)
            assert abs(Decimal(res.value) - torus_reference(R, r, weighted)) <= res.error_estimate
            assert res.error_estimate == 16.0 * sys.float_info.epsilon * res.value

    @pytest.mark.parametrize("weighted", [False, True], ids=["flat", "weighted"])
    def test_bar_holds_on_a_subnormal_tube(self, weighted):
        # r below the normal range: r times 2 pi^2 would be rounded on the
        # subnormal grid (1.3% off at r = 5e-324), so every rounding has to
        # happen at normal magnitude, or the value is undecided.
        rng = random.Random(20261020)
        decided = 0
        for _ in range(500):
            r = max(rng.random() * sys.float_info.min, 5e-324)
            R = 10.0 ** rng.uniform(-154.0, -15.0)
            try:
                res = torus_bending(R, r, area_weighted=weighted)
            except UndecidedError:
                continue
            decided += 1
            assert abs(Decimal(res.value) - torus_reference(R, r, weighted)) <= res.error_estimate
        assert decided >= 100
        res = torus_bending(1e-100, 5e-324, area_weighted=weighted)
        assert abs(Decimal(res.value) - torus_reference(1e-100, 5e-324, weighted)) <= res.error_estimate

    def test_wide_torus_is_decided_where_its_bar_is_normal(self):
        # R = 1.2e154: 2 R^2 overflows, the value pi^2 / R^2 = 6.9e-308 does
        # not, but its bar is subnormal; the area-weighted value is larger.
        with pytest.raises(UndecidedError):
            torus_bending(1.2e154, 1.0)
        res = torus_bending(1.2e154, 1.0, area_weighted=True)
        assert abs(Decimal(res.value) - torus_reference(1.2e154, 1.0, True)) <= res.error_estimate

    def test_small_radii_keep_their_bits(self):
        res = torus_bending(1e-150, 5e-151)
        assert res.upper_bound == 2.0 * (math.pi / (1e-150 - 5e-151)) ** 2
        assert res.value == pytest.approx(1.2214664915510e301, rel=1e-12)

    @pytest.mark.parametrize("R,r", [(1.0, 1.0), (1.0, 2.0), (0.0, -1.0), (2.0, 0.0),
                                     (math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan)])
    def test_rejects_bad_radii(self, R, r):
        with pytest.raises(ValueError):
            torus_bending(R, r)


class TestComplexRadial:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("lam", [1.0, 3.0])
    def test_ratio_is_twice_curvature(self, m, lam):
        res = complex_radial_bending(m, lam, TIGHT)
        assert res.status == "finite"
        assert res.value_per_volume == pytest.approx(2.0 * lam, rel=1e-9)

    @pytest.mark.parametrize("lam", [5e-324, 1e-300, 2.5e-150, 1e-5, 1.0, 3.7e5, 6e150,
                                     1e300, 4.4e307])
    def test_ratio_is_exactly_twice_curvature(self, lam):
        # the closed form 2 lam, exact in floating point, for every m
        for m in range(2, 201):
            res = complex_radial_bending(m, lam)
            assert (res.status, res.value_per_volume, res.error_estimate) == (
                "finite", 2.0 * lam, 0.0)
            assert res.mu == math.pi / (2.0 * math.sqrt(lam))

    def test_rejects_small_m(self):
        for bad in (1, 0, -3):
            with pytest.raises(ValueError):
                complex_radial_bending(bad)
        with pytest.raises(ValueError):
            complex_radial_bending(2, -1.0)


class TestEnergy:
    """The energy E = (n/2) Vol + B of the unit normal field, from the B and Vol
    that a bending result carries."""

    def test_round_sphere_absolute_energy(self):
        # S^3 radial: Vol = 2 pi^2, B = 2 pi^2, E = (3/2) Vol + B = 5 pi^2
        res = total_bending(parse_space("S:3"), POINT, TIGHT)
        assert res.status == "finite"
        assert res.volume == pytest.approx(2 * math.pi**2, rel=1e-10)
        assert res.value == pytest.approx(2 * math.pi**2, rel=1e-10)
        assert 1.5 * res.volume + res.value == pytest.approx(5 * math.pi**2, rel=1e-10)

    def test_projective_space_has_no_absolute_value(self):
        res = total_bending(parse_space("CP:3"), parse_focal("sub:CP:1"), TIGHT)
        assert res.value_per_volume == pytest.approx(5.0, rel=1e-9)
        assert (res.value, res.volume) == (None, None)

    @pytest.mark.parametrize("space,lam", [
        ("S:3", 4.818305117709074e-206), ("RP:3", 3.0e-206), ("S:4", 9.9e-155),
        ("S:7", 8.6e-89), ("S:12", 4.1e-52)])
    def test_no_absolute_value_past_the_float_range(self, space, lam):
        # The volume integral is finite but the area constant times it is not.
        res = total_bending(parse_space(space, lam), POINT)
        assert res.value_per_volume == pytest.approx(exact_bending(space, "point")[1] * lam)
        assert (res.value, res.volume) == (None, None)

    def test_no_absolute_energy_past_the_float_range(self):
        # Vol (about 1.797e308) and B are normal floats, but (n/2) Vol + B is not.
        res = total_bending(parse_space("S:12", 6.355e-52), POINT)
        assert sys.float_info.min <= res.value < res.volume <= sys.float_info.max
        assert res.value_per_volume == pytest.approx(11.0 / 20.0 * 6.355e-52)
        assert 6.0 * res.volume + res.value == math.inf


@st.composite
def catalog_pairs(draw):
    family = draw(st.sampled_from(["S", "RP", "CP", "HP", "CaP2"]))
    if family == "CaP2":
        return "CaP2", "point"
    m = draw(st.integers(2, 12))
    p = draw(st.integers(0, m - 1))
    return f"{family}:{m}", "point" if p == 0 else f"sub:{family}:{p}"


def _outcome(space, focal, quad, epsilon):
    try:
        if epsilon is None:
            return total_bending(space, focal, quad)
        return epsilon_deformed_bending(space, focal, epsilon, quad)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestAgainstThePanelLoop:
    @settings(max_examples=60, deadline=None)
    @given(pair=catalog_pairs(), log_lam=st.floats(-3.0, 3.0),
           rel_tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
           abs_tol=st.sampled_from([1e-12, 1e-14]),
           epsilon=st.one_of(st.none(), st.floats(0.0, math.pi / 2)))
    def test_total_bending_is_bit_identical(self, pair, log_lam, rel_tol, abs_tol, epsilon):
        # The library's batched, look-ahead shared pass against one integrand
        # call per panel, each panel evaluated only when the refinement uses it.
        space, focal = parse_space(pair[0], 10.0 ** log_lam), parse_focal(pair[1])
        quad = QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol)
        result = _outcome(space, focal, quad, epsilon)
        calls = []

        def reference(*args):
            calls.append(args)
            return reference_ratio(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(folbend.bending, "ratio_quadrature", reference)
            assert _outcome(space, focal, quad, epsilon) == result
        # A divergence verdict takes no quadrature; every other answer one pass.
        if isinstance(result, BendingResult):
            assert len(calls) == (0 if result.status == "divergent" else 1)


def test_closed_forms_run_no_quadrature(monkeypatch):
    # Every quadrature entry point evaluates its integrand in the Kronrod kernel.
    calls = []
    kernel = quadrature._gk15
    monkeypatch.setattr(quadrature, "_gk15", lambda *args: calls.append(args) or kernel(*args))
    torus_bending(2.0, 1.0, TIGHT)
    torus_bending(1.0, 0.9999999999, area_weighted=True)
    complex_radial_bending(3, 2.0, TIGHT)
    complex_radial_bending(100000)
    assert calls == []
    quadrature.adaptive_quadrature(np.cos, 0.0, 1.0)  # the counter itself sees a call
    assert len(calls) == 1


def _ladder_calls(monkeypatch):
    """Calls of ``integrate_open``, counted at its ladder."""
    calls = []
    ladder = quadrature._ladder
    monkeypatch.setattr(quadrature, "_ladder", lambda *args: calls.append(args) or ladder(*args))
    return calls


def test_no_bending_path_runs_the_endpoint_ladder(monkeypatch, capsys):
    calls = _ladder_calls(monkeypatch)
    for space, focal in (("S:2", "point"), ("S:5", "sub:S:2"), ("CP:2", "point")):
        total_bending(parse_space(space), parse_focal(focal))
        epsilon_deformed_bending(parse_space(space), parse_focal(focal), 0.5)
        integral_formula_check(parse_space(space), parse_focal(focal))
    complex_radial_bending(3)
    table1_report()
    for argv in (["table1"], ["check-integral"], ["bending", "--space", "S:2"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == []
    integrate_open(np.cos, 0.0, 1.0)  # the counter itself sees a call
    assert len(calls) == 2


CATALOG = list(catalog_labels()) + [("S:600", "point"), ("S:80", "sub:S:40")]
FAMILIES = ("S:", "RP:", "CP:", "HP:", "CaP2")


class TestAgainstTheExactCatalog:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_pair_meets_its_verdict_bar_and_tolerance(self, family):
        # S:600 and S:80 / sub:S:40 came out silently wrong from the
        # unnormalised absolute tolerance (B/Vol 5.8e-12 +- 5.8e-12 on S:600).
        misses = []
        for space, focal in (pair for pair in CATALOG if pair[0].startswith(family)):
            verdict, exact, endpoint = exact_bending(space, focal)
            for rel_tol in (1e-6, 1e-8, 1e-10):
                quad = QuadratureConfig(rel_tol=rel_tol, abs_tol=1e-12)
                try:
                    res = total_bending(parse_space(space), parse_focal(focal), quad)
                except NotComputableError:
                    res = BendingResult(status="not-computable")
                if (res.status, res.divergent_endpoint) != (verdict, endpoint):
                    misses.append((space, focal, rel_tol, res.status, res.divergent_endpoint))
                elif verdict == "divergent" and res.exponent_estimate != 1.0:
                    misses.append((space, focal, rel_tol, res.exponent_estimate))
                elif verdict == "finite":
                    error = abs(res.value_per_volume - float(exact))
                    if error > min(res.error_estimate, max(1e-12, rel_tol * float(exact))):
                        misses.append((space, focal, rel_tol, error, res.error_estimate))
        assert misses == []

    def test_orders_agree_with_the_fitted_endpoint_ladder(self):
        # The exact orders, against the exponents that integrate_open fits.
        disagree = []
        for space, focal in CATALOG:
            if exact_bending(space, focal)[0] == "not-computable":
                continue
            prof = tube_profile(parse_space(space), parse_focal(focal))
            fit = integrate_open(lambda r: prof.bending_rows(r)[0], 0.0, prof.mu)
            if (fit.lower.divergent, fit.upper.divergent) != tuple(z == 1 for z in prof.orders):
                disagree.append((space, focal, prof.orders, fit.lower.exponent, fit.upper.exponent))
        assert disagree == []


class TestResultInvariants:
    def test_finite_result_fields(self):
        res = ratio("S:3", "point")
        assert res.is_finite
        assert res.divergent_endpoint is None
        assert res.exponent_estimate is None
        assert res.value == pytest.approx(res.value_per_volume * res.volume, rel=1e-12)

    def test_divergent_result_fields(self):
        res = total_bending(parse_space("S:2"), POINT, TIGHT)
        assert res.value is None and res.volume is None
        assert res.error_estimate is None

    def test_default_quadrature_is_used(self):
        res = total_bending(parse_space("S:3"), POINT)
        assert res.value_per_volume == pytest.approx(1.0, rel=1e-7)
