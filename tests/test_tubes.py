import dataclasses
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from folbend.quadrature import UndecidedError
from folbend.spaces import Family, FocalVariety, ModelSpace, parse_focal, parse_space
from folbend.tubes import (
    InitKind,
    JacobiBranch,
    NotComputableError,
    TubeProfile,
    tube_profile,
    write_profile_csv,
)
from oracles import exact_bending, jacobi_ode_oracle
from test_bending import CATALOG as CATALOG_LABELS

POINT = FocalVariety.point()

# Representative slice of the catalog, with focal sub-spaces of every kind.
CATALOG = [
    (parse_space("S:2"), POINT),
    (parse_space("S:5"), POINT),
    (parse_space("S:5", lam=2.0), POINT),
    (parse_space("RP:3"), POINT),
    (parse_space("S:5"), parse_focal("sub:S:2")),
    (parse_space("S:4"), parse_focal("sub:S:3")),
    (parse_space("RP:5"), parse_focal("sub:RP:2")),
    (parse_space("CP:3"), POINT),
    (parse_space("CP:3", lam=0.5), parse_focal("sub:CP:1")),
    (parse_space("HP:2"), POINT),
    (parse_space("HP:3"), parse_focal("sub:HP:1")),
    (parse_space("CaP2"), POINT),
]

N, T = InitKind.NORMAL, InitKind.TANGENT

# One pair per (family, focal kind) at lam = 2, branches in catalog order.
# The order is printed by --json and sets the last bits of B/Vol, so it is
# pinned as a tuple rather than compared as a set.
ORDERED_BRANCHES = [
    ("S:5", "point", [(2.0, 4, N)]),
    ("RP:4", "point", [(2.0, 3, N)]),
    ("CP:3", "point", [(2.0, 4, N), (8.0, 1, N)]),
    ("HP:3", "point", [(2.0, 8, N), (8.0, 3, N)]),
    ("CaP2", "point", [(2.0, 8, N), (8.0, 7, N)]),
    ("S:5", "sub:S:2", [(2.0, 2, T), (2.0, 2, N)]),
    ("RP:4", "sub:RP:2", [(2.0, 2, T), (2.0, 1, N)]),
    ("CP:3", "sub:CP:1", [(2.0, 2, T), (2.0, 2, N), (8.0, 1, N)]),
    ("HP:3", "sub:HP:1", [(2.0, 4, T), (2.0, 4, N), (8.0, 3, N)]),
]


def sum_alpha_sq(prof, r):
    """Multiplicity-weighted sum of squared principal curvatures, branch by branch."""
    return sum(b.multiplicity * a**2 for b, a in zip(prof.branches, prof.alpha_values(r)))


def central_derivative(func, r, h):
    # Fourth-order centered stencil keeps the truncation error far below
    # the identity tolerances at interior sample points.
    return (-func(r + 2 * h) + 8 * func(r + h) - 8 * func(r - h) + func(r - 2 * h)) / (12 * h)


def one_branch(kappa, init):
    """A profile evaluating the single branch (kappa, 1, init) by its closed form."""
    return replace(tube_profile(parse_space("S:2"), POINT),
                   branches=(JacobiBranch(kappa, 1, init),))


class TestJacobiSolution:
    def test_normal_closed_form(self):
        prof = one_branch(4.0, InitKind.NORMAL)
        r = 0.3
        assert float(prof.theta(r)) == pytest.approx(math.sin(2 * r) / 2, rel=1e-15)
        assert float(prof.alpha_values(r)[0]) == pytest.approx(2 / math.tan(2 * r), rel=1e-14)

    def test_tangent_closed_form(self):
        prof = one_branch(2.0, InitKind.TANGENT)
        r = 0.5
        s = math.sqrt(2.0)
        assert float(prof.theta(r)) == pytest.approx(math.cos(s * r), rel=1e-15)
        assert float(prof.alpha_values(r)[0]) == pytest.approx(-s * math.tan(s * r), rel=1e-14)

    def test_vectorized(self):
        prof = one_branch(1.0, InitKind.NORMAL)
        r = np.array([0.1, 0.2, 0.4])
        assert prof.theta(r).shape == (3,)
        assert prof.alpha_values(r).shape == (1, 3)
        assert np.allclose(prof.alpha_values(r)[0], 1 / np.tan(r))


class TestJacobiBranch:
    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.inf, math.nan])
    def test_curvature_must_be_finite_and_positive(self, kappa):
        with pytest.raises(ValueError, match="branch curvature"):
            JacobiBranch(kappa, 1, InitKind.NORMAL)

    @pytest.mark.parametrize("mult", [0, -1, 1.0])
    def test_multiplicity_must_be_a_positive_int(self, mult):
        with pytest.raises(ValueError, match="multiplicity"):
            JacobiBranch(1.0, mult, InitKind.NORMAL)

    @pytest.mark.parametrize("init", ["normal", "tangent", None])
    def test_init_must_be_an_init_kind(self, init):
        # A string used to pass and evaluate as a TANGENT branch.
        with pytest.raises(ValueError, match="initial condition"):
            JacobiBranch(1.0, 1, init)


class TestOdeOracle:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("init", [InitKind.NORMAL, InitKind.TANGENT])
    def test_matches_closed_form(self, kappa, init):
        prof = one_branch(kappa, init)
        for r in np.linspace(0.05, 1.4, 20):
            assert jacobi_ode_oracle(kappa, init, float(r), steps=2048) == pytest.approx(
                float(prof.theta(r)), abs=1e-9
            )

    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_branch_product_matches_theta(self, space, focal):
        # theta is the product over the branches of f ** multiplicity.
        prof = tube_profile(space, focal)
        for r in np.linspace(0.1 * prof.mu, 0.9 * prof.mu, 5):
            direct = math.prod(jacobi_ode_oracle(b.kappa, b.init, float(r), steps=2048)
                               ** b.multiplicity for b in prof.branches)
            assert direct == pytest.approx(float(prof.theta(r)), rel=1e-9)

    def test_fourth_order_convergence(self):
        r = 1.1
        exact = float(one_branch(4.0, InitKind.NORMAL).theta(r))
        e_coarse = abs(jacobi_ode_oracle(4.0, InitKind.NORMAL, r, steps=64) - exact)
        e_fine = abs(jacobi_ode_oracle(4.0, InitKind.NORMAL, r, steps=128) - exact)
        assert e_coarse / e_fine == pytest.approx(16.0, rel=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            jacobi_ode_oracle(1.0, InitKind.NORMAL, -1.0)
        with pytest.raises(ValueError):
            jacobi_ode_oracle(1.0, InitKind.NORMAL, 1.0, steps=4)


class TestCatalog:
    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_multiplicities_fill_normal_bundle(self, space, focal):
        prof = tube_profile(space, focal)
        assert sum(b.multiplicity for b in prof.branches) == space.dim - 1

    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_cut_distance(self, space, focal):
        prof = tube_profile(space, focal)
        root = math.sqrt(space.lam)
        if space.family is Family.SPHERE and focal.kind == "point":
            assert prof.mu == pytest.approx(math.pi / root)
        else:
            assert prof.mu == pytest.approx(math.pi / (2 * root))

    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_density_positive_inside_and_zero_at_cut(self, space, focal):
        prof = tube_profile(space, focal)
        r = np.linspace(0.0, prof.mu, 50)[1:-1]
        assert np.all(prof.theta(r) > 0)
        boundary = float(prof.theta(prof.mu - 1e-9))
        if prof.boundary_leaf_regular:
            assert boundary > 0.5
        else:
            assert boundary < 1e-6

    def test_regular_boundary_flag_is_rp_point_only(self):
        flagged = [(s, f) for s, f in CATALOG if tube_profile(s, f).boundary_leaf_regular]
        assert flagged == [(parse_space("RP:3"), POINT)]

    def test_sphere_point_profile(self):
        prof = tube_profile(parse_space("S:5"), POINT)
        assert len(prof.branches) == 1
        assert prof.branches[0] == JacobiBranch(1.0, 4, InitKind.NORMAL)
        assert prof.area_constant == pytest.approx(8 * math.pi**2 / 3)  # unit 4-sphere area

    def test_cp_point_profile(self):
        prof = tube_profile(parse_space("CP:3"), POINT)
        kinds = {(b.kappa, b.multiplicity, b.init) for b in prof.branches}
        assert kinds == {(1.0, 4, InitKind.NORMAL), (4.0, 1, InitKind.NORMAL)}
        assert prof.area_constant is None

    def test_tube_profile_branches(self):
        prof = tube_profile(parse_space("HP:3"), parse_focal("sub:HP:1"))
        kinds = {(b.kappa, b.multiplicity, b.init) for b in prof.branches}
        assert kinds == {
            (1.0, 4, InitKind.TANGENT),
            (1.0, 4, InitKind.NORMAL),
            (4.0, 3, InitKind.NORMAL),
        }

    @pytest.mark.parametrize("space_text,focal_text,expected", ORDERED_BRANCHES,
                             ids=[f"{s}/{f}" for s, f, _ in ORDERED_BRANCHES])
    def test_branch_order(self, space_text, focal_text, expected):
        prof = tube_profile(parse_space(space_text, lam=2.0), parse_focal(focal_text))
        assert prof.branches == tuple(JacobiBranch(*b) for b in expected)

    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_riccati_identity(self, space, focal):
        prof = tube_profile(space, focal)
        h = 1e-5 * prof.mu
        r = np.linspace(0.05 * prof.mu, 0.95 * prof.mu, 100)
        alpha = prof.alpha_values
        for k, branch in enumerate(prof.branches):
            lhs = central_derivative(alpha, r, h)[k] + alpha(r)[k] ** 2 + branch.kappa
            assert np.max(np.abs(lhs)) < 1e-6

    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_log_derivative_identity(self, space, focal):
        prof = tube_profile(space, focal)
        h = 1e-5 * prof.mu
        r = np.linspace(0.05 * prof.mu, 0.95 * prof.mu, 100)
        lhs = central_derivative(lambda x: np.log(prof.theta(x)), r, h)
        assert np.max(np.abs(lhs - prof.sum_alpha(r))) < 1e-8

    @pytest.mark.parametrize("reverse", [False, True], ids=["catalog order", "reversed"])
    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_rows_equal_the_stacked_closed_forms(self, space, focal, reverse):
        # Reference: both closed forms on every row, one picked per row by
        # np.where, and the multiplicities applied by one stacked power.
        prof = tube_profile(space, focal)
        if reverse:
            prof = replace(prof, branches=prof.branches[::-1])
        r = np.linspace(0.0, prof.mu, 202)[1:-1]
        column = lambda values: np.array(values, dtype=float).reshape(-1, 1)
        root = column([math.sqrt(b.kappa) for b in prof.branches])
        normal = column([b.init is InitKind.NORMAL for b in prof.branches]) == 1.0
        mult = column([b.multiplicity for b in prof.branches])
        x = root * r
        tan = np.tan(x)
        alpha = np.where(normal, root / tan, -root * tan)
        theta = reduce(np.multiply, np.where(normal, np.sin(x) / root, np.cos(x)) ** mult)
        assert np.array_equal(prof.alpha_values(r), alpha)
        assert np.array_equal(prof.theta(r), theta)
        assert np.array_equal(prof.bending_rows(r)[0],
                              0.5 * reduce(np.add, mult * alpha ** 2) * theta)

    def test_sum_alpha_sq_matches_branches(self):
        prof = tube_profile(parse_space("S:5"), parse_focal("sub:S:2"))
        r = 0.7
        expected = 2 * (1 / math.tan(r)) ** 2 + 2 * math.tan(r) ** 2
        assert float(sum_alpha_sq(prof, r)) == pytest.approx(expected, rel=1e-13)
        # The bending density is half the square sum times the density.
        assert float(prof.bending_rows(r)[0, 0]) == pytest.approx(
            0.5 * expected * float(prof.theta(r)), rel=1e-13)

    def test_reordered_preserves_values(self):
        prof = tube_profile(parse_space("CP:3"), parse_focal("sub:CP:1"))
        rev = replace(prof, branches=prof.branches[::-1])
        r = np.linspace(0.1, 1.4, 7)
        assert np.allclose(prof.theta(r), rev.theta(r), rtol=1e-14)
        assert np.allclose(sum_alpha_sq(prof, r), sum_alpha_sq(rev, r), rtol=1e-14)
        assert np.allclose(prof.bending_rows(r)[0], rev.bending_rows(r)[0], rtol=1e-14)

    @pytest.mark.parametrize("space,focal,orders", [
        ("S:2", "point", (1, 1)), ("S:5", "point", (4, 4)), ("RP:4", "point", (3, 0)),
        ("CP:2", "point", (3, 1)), ("HP:2", "point", (7, 3)), ("CaP2", "point", (15, 7)),
        ("S:4", "sub:S:2", (1, 2)), ("S:5", "sub:S:3", (1, 3)), ("RP:5", "sub:RP:4", (0, 4)),
        ("CP:3", "sub:CP:1", (3, 3)), ("HP:3", "sub:HP:1", (7, 7)),
    ])
    def test_endpoint_orders(self, space, focal, orders):
        # Derived from the branch table: Z_0 sums the NORMAL multiplicities,
        # Z_mu those of the branches (frequency k, kappa = k*k*lam) where
        # k*turns is even exactly when they are NORMAL; the cut is turns =
        # 2 half turns around a point of S and 1 elsewhere.
        prof = tube_profile(parse_space(space, lam=3.0), parse_focal(focal))
        assert prof.orders == orders
        assert orders[0] == sum(b.multiplicity for b in prof.branches
                                if b.init is InitKind.NORMAL)
        assert prof.divergent_endpoint == {(False, False): None, (True, False): "0",
                                           (False, True): "mu", (True, True): "both"}[
            orders[0] == 1, orders[1] == 1]

    def test_derived_data_equals_the_literal_formulas(self):
        # Reference: mu, kappa and the orders by each family's literal formulas,
        # which the derivation from branch frequencies and half-turn counts must
        # reproduce bit for bit over the whole catalog and the float range of lam.
        undecided = 0
        for space_text, focal_text in CATALOG_LABELS:
            if exact_bending(space_text, focal_text)[0] == "not-computable":
                continue
            for lam in (5e-324, 1e-300, 1e-5, 1.0, 2.5, 1e300, 1.7e308):
                space, focal = parse_space(space_text, lam), parse_focal(focal_text)
                n, nu, m, p = space.dim, space.invariant_count, space.m, focal.p
                if nu and math.isinf(4.0 * lam):
                    with pytest.raises(UndecidedError):
                        tube_profile(space, focal)
                    undecided += 1
                    continue
                root = math.sqrt(lam)
                if focal.kind == "point":
                    sphere = space.family is Family.SPHERE
                    mu = math.pi / root if sphere else math.pi / (2.0 * root)
                    far = {Family.SPHERE: n - 1, Family.REAL_PROJECTIVE: 0}.get(space.family, nu)
                    orders = (n - 1, far)
                    data = [(lam, n - 1 - nu, N), (4.0 * lam, nu, N)]
                else:
                    mu = math.pi / (2.0 * root)
                    orders = ((nu + 1) * (m - 1 - p) + nu, (nu + 1) * p + nu)
                    data = [(lam, (nu + 1) * p, T), (lam, (nu + 1) * (m - 1 - p), N),
                            (4.0 * lam, nu, N)]
                prof = tube_profile(space, focal)
                assert (prof.mu, prof.orders) == (mu, orders), (space_text, focal_text, lam)
                assert prof.branches == tuple(JacobiBranch(*b) for b in data if b[1] > 0)
        assert undecided > 0

    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_bending_rows_are_density_and_theta(self, space, focal):
        prof = tube_profile(space, focal)
        r = np.linspace(0.0, prof.mu, 37)[1:-1]
        rows = prof.bending_rows(r)
        assert rows.shape == (2, r.size)
        assert np.array_equal(rows[0], 0.5 * sum_alpha_sq(prof, r) * prof.theta(r))
        assert np.array_equal(rows[1], prof.theta(r))

    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_identity_rows_are_twice_sigma_2_theta_and_theta(self, space, focal):
        prof = tube_profile(space, focal)
        r = np.linspace(0.0, prof.mu, 37)[1:-1]
        theta = prof.theta(r)
        assert np.array_equal(prof.identity_rows(r),
                              (2.0 * prof.second_mean_curvature(r) * theta, theta))

    def test_no_hidden_state(self):
        # A profile is its six constructor fields; evaluating it stores nothing on it.
        names = [f.name for f in dataclasses.fields(TubeProfile)]
        assert names == ["space", "focal", "branches", "mu", "area_constant", "orders"]
        prof = tube_profile(parse_space("CP:3"), parse_focal("sub:CP:1"))
        before = dict(vars(prof))
        r = np.linspace(0.1, 1.4, 7)
        prof.theta(r), prof.bending_rows(r), prof.identity_rows(r), prof.samples(10)
        assert vars(prof) == before

    @pytest.mark.parametrize("space,focal", CATALOG)
    def test_second_mean_curvature_is_the_pairwise_sum(self, space, focal):
        prof = tube_profile(space, focal)
        r = np.linspace(0.05 * prof.mu, 0.95 * prof.mu, 9)
        alpha = prof.alpha_values(r)
        mult = np.array([float(b.multiplicity) for b in prof.branches])[:, None]
        first = (mult * alpha).sum(axis=0)
        expected = 0.5 * (first ** 2 - (mult * alpha ** 2).sum(axis=0))
        assert np.allclose(prof.second_mean_curvature(r), expected, rtol=1e-12, atol=1e-12)

    def test_second_mean_curvature_has_no_cancelling_poles(self):
        # CP:2 around a point: only the 4 lam branch, of multiplicity 1,
        # vanishes at mu, so sigma_2 ~ d**-1 there, with no d**-2 terms to cancel.
        prof = tube_profile(parse_space("CP:2"), POINT)
        d = 1e-9  # the difference form returns 0.0 here, the exact value is about -2
        alpha = prof.alpha_values(prof.mu - d)
        exact = 2.0 * float(alpha[0]) * float(alpha[1]) + float(alpha[0]) ** 2
        assert float(prof.second_mean_curvature(prof.mu - d)) == pytest.approx(exact, rel=1e-14)

    def test_flat_branch_rejected(self):
        prof = tube_profile(parse_space("S:3"), POINT)
        with pytest.raises(ValueError):
            replace(prof, branches=(JacobiBranch(0.0, 2, InitKind.NORMAL),))


class TestCatalogRejections:
    def test_not_computable_pairs(self):
        with pytest.raises(NotComputableError):
            tube_profile(parse_space("CP:2"), parse_focal("sub:RP:2"))
        with pytest.raises(NotComputableError):
            tube_profile(parse_space("HP:2"), parse_focal("sub:CP:2"))

    def test_not_computable_message_names_the_data(self):
        with pytest.raises(NotComputableError, match="not computable"):
            tube_profile(parse_space("CP:3"), parse_focal("sub:RP:3"))

    def test_outside_catalog(self):
        cases = [
            ("S:1", "point"),
            ("CP:1", "point"),
            ("HP:1", "point"),
            ("S:4", "sub:S:4"),
            ("S:4", "sub:RP:2"),
            ("CP:3", "sub:S:2"),
            ("CP:3", "sub:CP:3"),
            ("CP:3", "sub:RP:2"),
            ("HP:3", "sub:CP:1"),
            ("CaP2", "sub:S:8"),
        ]
        for space_text, focal_text in cases:
            with pytest.raises(ValueError):
                tube_profile(parse_space(space_text), parse_focal(focal_text))

    def test_not_computable_is_distinguishable(self):
        # Catalog-external pairs raise plain ValueError, not the marker type.
        try:
            tube_profile(parse_space("CP:3"), parse_focal("sub:S:2"))
        except NotComputableError:
            pytest.fail("plain catalog-external pair must not be marked NotComputable")
        except ValueError:
            pass


class TestSamples:
    def test_table_shape_and_interior(self):
        prof = tube_profile(parse_space("CP:2"), POINT)
        table = prof.samples(50)
        assert table.shape == (50, 1 + len(prof.branches) + 1)
        assert table[0, 0] > 0.0
        assert table[-1, 0] < prof.mu
        assert np.all(np.isfinite(table))

    def test_csv_export(self, tmp_path):
        prof = tube_profile(parse_space("S:3"), POINT)
        path = tmp_path / "profile.csv"
        write_profile_csv(prof, str(path), count=10)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,alpha_1,theta"
        assert len(lines) == 11
        first = [float(x) for x in lines[1].split(",")]
        assert first[2] == pytest.approx(math.sin(first[0]) ** 2, rel=1e-12)
