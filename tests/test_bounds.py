"""Lower bounds, the integral identity, and the reference table report."""
import contextlib
import math
import re
import sys
from fractions import Fraction

import pytest

from folbend import bounds
from folbend.bounds import (
    DEFAULT_CHECK_PAIRS,
    DEFAULT_TABLE_ROWS,
    BoundCase,
    einstein_lower_bound,
    integral_formula_check,
    lower_bound,
    minimizer_report,
    table1_report,
)
from folbend.quadrature import QuadratureConfig, UndecidedError
from folbend.spaces import parse_focal, parse_space, ricci_curvature
from oracles import BOUND_SPACES, catalog_labels, exact_bending, label_reading, ricci_per_lam

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestLowerBound:
    @pytest.mark.parametrize("space,q,case,coeff,value", [
        ("S:3", 1, BoundCase.I_Q1, Fraction(1, 2), 1.0),
        ("S:3", 2, BoundCase.I_CODIM1, Fraction(1, 2), 1.0),
        ("S:4", 2, BoundCase.II_HALF, Fraction(1, 2), 2.0),
        ("S:6", 2, BoundCase.III_LOW, Fraction(1, 6), 4.0 / 3.0),
        ("S:6", 2, BoundCase.III_HIGH, Fraction(1, 2), 4.0),
        ("S:6", 4, BoundCase.III_LOW, Fraction(1, 2), 4.0),
        ("HP:2", 7, BoundCase.I_CODIM1, Fraction(1, 12), 7.0 / 12.0),
        ("CP:2", 2, BoundCase.II_HALF, Fraction(1, 2), 2.0),
    ])
    def test_values(self, space, q, case, coeff, value):
        b = lower_bound(parse_space(space), q, case)
        assert b.coefficient == coeff
        assert b.value == pytest.approx(value, rel=1e-12)

    def test_scales_with_curvature(self):
        b1 = lower_bound(parse_space("S:5", 1.0), 2, BoundCase.III_LOW)
        b3 = lower_bound(parse_space("S:5", 3.0), 2, BoundCase.III_LOW)
        assert b3.value == pytest.approx(3 * b1.value)

    @pytest.mark.parametrize("q,case", [
        (2, BoundCase.I_Q1),        # q must be 1
        (1, BoundCase.I_CODIM1),    # q must be n-1
        (2, BoundCase.II_HALF),     # 2q != 5
        (4, BoundCase.III_LOW),     # q > n-2
        (1, BoundCase.III_HIGH),    # q < 2
    ])
    def test_case_mismatch_rejected(self, q, case):
        with pytest.raises(ValueError):
            lower_bound(parse_space("S:5"), q, case)

    def test_leaf_dimension_range(self):
        s = parse_space("S:5")
        for q in (0, 5, -1, 2.0):
            with pytest.raises(ValueError):
                lower_bound(s, q, BoundCase.III_LOW)

    def test_needs_dimension_three(self):
        with pytest.raises(ValueError):
            lower_bound(parse_space("S:2"), 1, BoundCase.I_Q1)
        with pytest.raises(ValueError):
            einstein_lower_bound(parse_space("S:2"))


class TestEinsteinBound:
    @pytest.mark.parametrize("space", ["S:3", "S:4", "S:5", "S:6", "RP:3", "RP:4"])
    def test_equals_codimension_one_bound_on_constant_curvature(self, space):
        s = parse_space(space, 1.7)
        plain = lower_bound(s, s.dim - 1, BoundCase.I_CODIM1)
        assert einstein_lower_bound(s) == pytest.approx(plain.value, rel=1e-12)

    @pytest.mark.parametrize("space", ["CP:2", "CP:3", "HP:2", "HP:3", "CaP2"])
    def test_strictly_stronger_on_projective_families(self, space):
        s = parse_space(space)
        plain = lower_bound(s, s.dim - 1, BoundCase.I_CODIM1)
        assert einstein_lower_bound(s) > plain.value * 1.5

    def test_value(self):
        # HP:2: tau = 8 * 16, bound = 128 / (2 * 8 * 6)
        assert einstein_lower_bound(parse_space("HP:2")) == pytest.approx(4.0 / 3.0)


class TestCaseLabels:
    @pytest.mark.parametrize("label", ["I", "III"])
    @pytest.mark.parametrize("space", BOUND_SPACES)
    def test_label_is_the_explicit_reading(self, space, label):
        s = parse_space(space)
        for q in range(s.dim + 1):
            explicit = BoundCase(label_reading(label, s.dim, q))
            try:
                want = lower_bound(s, q, explicit)
            except ValueError:
                with pytest.raises(ValueError):
                    lower_bound(s, q, label)
            else:
                assert lower_bound(s, q, label) == want

    @pytest.mark.parametrize("case", [BoundCase.I_CODIM1, BoundCase.II_HALF,
                                      BoundCase.III_LOW, BoundCase.III_HIGH])
    def test_value_names_its_case(self, case):
        s = parse_space("S:8", 2.5)
        for q in range(1, s.dim):
            try:
                want = lower_bound(s, q, case)
            except ValueError:
                with pytest.raises(ValueError, match=re.escape(f"case {case.value} requires")):
                    lower_bound(s, q, case.value)
            else:
                assert lower_bound(s, q, case.value) == want

    def test_label_without_reading_names_both_conditions(self):
        with pytest.raises(ValueError, match="case I requires q = 1 or q = n - 1"):
            lower_bound(parse_space("S:6"), 3, "I")

    @pytest.mark.parametrize("case", ["IV", "i", None, 3])
    def test_unknown_case_rejected(self, case):
        with pytest.raises(ValueError):
            lower_bound(parse_space("S:6"), 2, case)


class TestBoundRange:
    @pytest.mark.parametrize("space", BOUND_SPACES)
    def test_einstein_is_the_scalar_curvature_quotient(self, space):
        # bit-identical to tau / (2 n (n - 2)) at lam = 1, within 2 ulp elsewhere
        for lam in (1.0, 2.5, 1e-3, 7.25e100):
            s = parse_space(space, lam)
            n = s.dim
            tau_form = n * ricci_per_lam(space) * lam / (2 * n * (n - 2))
            ulps = abs(einstein_lower_bound(s) - tau_form) / math.ulp(tau_form)
            assert ulps <= (0 if lam == 1.0 else 2)

    def test_einstein_at_the_largest_scale(self):
        # the exact bound is 1e308; dividing tau overflowed on the way
        assert einstein_lower_bound(parse_space("S:3", 1e308)) == 1e308
        assert lower_bound(parse_space("S:3", 1e308), 1, "I").value == 1e308

    def test_bound_past_the_float_range_is_undecided(self):
        with pytest.raises(UndecidedError):
            lower_bound(parse_space("CaP2", 1e308), 8, "II")  # 32/7 * 1e308
        assert einstein_lower_bound(parse_space("CaP2", 1e308)) == pytest.approx(9 / 7 * 1e308)
        with pytest.raises(UndecidedError):
            einstein_lower_bound(parse_space("CaP2", 1.5e308))  # 9/7 * 1.5e308


    @pytest.mark.parametrize("space", BOUND_SPACES)
    def test_bounds_answer_down_to_the_normal_range(self, space):
        # A bound of at least sys.float_info.min answers; below it, where rounding
        # may print a lower bound above the exact one, the bound is undecided.
        tiny = sys.float_info.min
        unit = parse_space(space)
        n = unit.dim
        exact = {None: Fraction(ricci_curvature(unit)) / (2 * (n - 2))}  # per unit lam
        for q in range(1, n):
            for case in BoundCase:
                with contextlib.suppress(ValueError):
                    exact[q, case] = lower_bound(unit, q, case).coefficient * q * (n - q)
        for lam in [5e-324, 3 * tiny] + [math.ldexp(tiny, k) for k in range(-4, 7)]:
            s = parse_space(space, lam)
            for key, per_lam in exact.items():
                value = per_lam * Fraction(lam)
                if abs(value / Fraction(tiny) - 1) < 1e-9:
                    continue  # the rounding of the product decides
                call = (lambda: einstein_lower_bound(s)) if key is None else (
                    lambda: lower_bound(s, *key).value)
                if value > tiny:
                    assert call() >= tiny, (lam, key)
                else:
                    with pytest.raises(UndecidedError):
                        call()


class TestIntegralFormula:
    @pytest.mark.parametrize("space,focal", DEFAULT_CHECK_PAIRS)
    def test_identity_on_all_finite_rows(self, space, focal):
        res = integral_formula_check(parse_space(space), parse_focal(focal), TIGHT)
        assert res.status == "applicable"
        assert res.lhs == pytest.approx(ricci_curvature(parse_space(space)))
        assert res.relative_gap <= 1e-6
        assert res.holds

    def test_at_least_eight_finite_rows(self):
        assert len(DEFAULT_CHECK_PAIRS) >= 8

    def test_divergent_row_is_not_applicable(self):
        res = integral_formula_check(parse_space("CP:2"), parse_focal("point"), TIGHT)
        assert res.status == "not-applicable"
        assert not res.holds
        assert res.lhs == pytest.approx(6.0)
        # the right side still converges here, to a value far from Ric
        assert res.rhs == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("space,focal", [
        (f"{family}:{m}", focal)
        for family, top in (("S", 12), ("RP", 12), ("CP", 6), ("HP", 3))
        for m in range(2, top + 1)
        for focal in ["point"] + [f"sub:{family}:{p}" for p in range(1, m)]
    ] + [("CaP2", "point")])
    def test_verdict_and_identity_across_the_catalog(self, space, focal):
        # The verdict comes from the exact orders; the right side converges
        # either way, and equals Ric where the bending does.
        res = integral_formula_check(parse_space(space), parse_focal(focal), TIGHT)
        finite = exact_bending(space, focal)[0] == "finite"
        assert res.status == ("applicable" if finite else "not-applicable")
        assert res.rhs is not None and math.isfinite(res.rhs)
        if finite:
            assert res.relative_gap <= 1e-10 and res.holds

    @pytest.mark.parametrize("space,lam", [("CP:2", 4e307), ("CP:2", 3.5e307), ("S:3", 1e-320)])
    def test_ricci_outside_the_normal_range_is_undecided(self, space, lam):
        # 6 * 4e307 overflows and 2e-320 is subnormal: undecided before any integration
        with pytest.raises(UndecidedError, match="Ricci curvature on"):
            integral_formula_check(parse_space(space, lam), parse_focal("point"), TIGHT)

    def test_identity_scales_with_curvature(self):
        res = integral_formula_check(parse_space("HP:2", 2.0), parse_focal("point"), TIGHT)
        assert res.lhs == pytest.approx(32.0)
        assert res.relative_gap <= 1e-6


class TestTableReport:
    def test_default_table_reproduces(self):
        rows = table1_report(quad=TIGHT)
        assert all(row.ok for row in rows)
        assert len(rows) == len(DEFAULT_TABLE_ROWS) == 19
        statuses = {row.status for row in rows}
        assert statuses == {"Reproduced", "DivergenceConfirmed", "NotComputable"}

    @pytest.mark.parametrize("space,focal,form", DEFAULT_TABLE_ROWS,
                             ids=[f"{row[0]}-{row[1]}" for row in DEFAULT_TABLE_ROWS])
    def test_rows_equal_the_exact_catalog(self, space, focal, form):
        # A closed form is the exact B/Vol per unit lam; a verdict is the exact one.
        verdict, value, _ = exact_bending(space, focal)
        if isinstance(form, Fraction):
            assert (verdict, value) == ("finite", form)
        else:
            assert verdict == form

    def test_row_contents(self):
        by_key = {(r.space, r.focal): r for r in table1_report(quad=TIGHT)}
        finite = by_key[("CaP2", "point")]
        assert finite.closed_form == Fraction(139, 21)
        assert finite.relative_error <= 1e-5
        div = by_key[("S:2", "point")]
        assert div.divergent_endpoint == "both"
        assert 0.9 <= div.exponent_estimate <= 1.1
        nc = by_key[("CP:2", "sub:RP:2")]
        assert nc.status == "NotComputable"

    def test_scaled_curvature(self):
        rows = table1_report(lam=2.0, quad=TIGHT)
        assert all(row.ok for row in rows)
        row = {(r.space, r.focal): r for r in rows}[("S:5", "sub:S:2")]
        assert row.expected == pytest.approx(12.0)

    # A wrong row is put into the table in place of the reference rows.
    def test_wrong_closed_form_fails(self, monkeypatch):
        monkeypatch.setattr(bounds, "DEFAULT_TABLE_ROWS", (("S:3", "point", Fraction(2)),))
        (row,) = table1_report(quad=TIGHT)
        assert not row.ok
        assert row.status == "Failed"

    def test_wrong_verdict_fails(self, monkeypatch):
        monkeypatch.setattr(bounds, "DEFAULT_TABLE_ROWS", (("S:3", "point", "divergent"),
                                                           ("S:3", "point", "not-computable")))
        rows = table1_report(quad=TIGHT)
        assert [row.status for row in rows] == ["Failed", "Failed"]
        assert rows[1].computed == pytest.approx(1.0, rel=1e-9)

    def test_unexpectedly_not_computable_row_fails(self, monkeypatch):
        monkeypatch.setattr(bounds, "DEFAULT_TABLE_ROWS", (("CP:2", "sub:RP:2", "divergent"),))
        (row,) = table1_report(quad=TIGHT)
        assert row.status == "Failed"
        assert row.computed is None

    def test_rejects_bad_curvature(self):
        for lam in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                table1_report(lam=lam)


class TestMinimizerReport:
    @pytest.mark.parametrize("space", ["S:3", "S:4", "S:5", "S:6", "RP:3", "RP:4"])
    def test_round_spheres_attain_the_bound(self, space):
        rep = minimizer_report(parse_space(space), TIGHT)
        assert rep.attains_bound
        assert abs(rep.slack) <= 1e-8
        assert rep.leaves_umbilical and rep.leaves_integrable
        assert "attained" in rep.note

    def test_quaternionic_spheres_do_not(self):
        rep = minimizer_report(parse_space("HP:2"), TIGHT)
        assert not rep.attains_bound
        assert rep.slack == pytest.approx(16.0 / 3.0 - 7.0 / 12.0, rel=1e-9)
        assert not rep.leaves_umbilical
        assert "strict" in rep.note

    def test_divergent_bending_is_vacuous(self):
        rep = minimizer_report(parse_space("CP:2"), TIGHT)
        assert not rep.attains_bound
        assert rep.slack is None
        assert "vacuous" in rep.note

    def test_scaled_curvature_still_attains(self):
        rep = minimizer_report(parse_space("S:4", 2.5), TIGHT)
        assert rep.attains_bound
        assert rep.bound.value == pytest.approx(2.5 * 0.75)

    def test_small_spaces_rejected(self):
        with pytest.raises(ValueError):
            minimizer_report(parse_space("S:2"))

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-12])
    @pytest.mark.parametrize("label,lam,attains", [
        ("S:3", 1.0, True), ("S:9", 2.5, True), ("S:4", 1e-10, True), ("RP:3", 1.0, True),
        ("RP:8", 1e3, True), ("CP:3", 1.0, False), ("CP:6", 1e-3, False), ("HP:2", 1.0, False),
        ("HP:4", 1e3, False), ("HP:2", 1e-10, False), ("CaP2", 1.0, False), ("CaP2", 1e-12, False),
    ])
    def test_attains_exactly_within_the_bar(self, label, lam, attains, rel_tol):
        # The bar is the bending's error estimate plus four ulps of the bound.  It
        # scales with lam: a fixed margin of 1e-8 called HP:2 at lam = 1e-10 attained.
        rep = minimizer_report(parse_space(label, lam), QuadratureConfig(rel_tol=rel_tol))
        assert rep.attains_bound is attains
        if label.startswith("CP"):  # the bending diverges at mu, the bound holds vacuously
            assert rep.slack is None and "vacuous" in rep.note
            return
        bar = rep.bending.error_estimate + 4.0 * math.ulp(rep.bound.value)
        assert (abs(rep.slack) <= bar) is attains
        assert rep.note.startswith("bound attained" if attains else "bound strict")


def test_every_minimizer_space_is_cataloged():
    # the report runs on every catalog space of dimension >= 3
    for label in ("S:3", "S:6", "RP:3", "RP:5", "CP:2", "CP:4", "HP:2", "HP:3", "CaP2"):
        rep = minimizer_report(parse_space(label))
        assert rep.bound.value > 0


def test_no_catalog_foliation_is_below_a_bare_label_bound():
    # Every finite tube pair is a foliation by hypersurfaces (q = n - 1) with
    # the exact B/Vol of the oracle, and the complex radial foliation of CP^m
    # has q = 2 and B/Vol = 2 lam; at lam = 1 no bound I, II or III that has a
    # reading at that q may exceed it.
    foliations = [(space, parse_space(space).dim - 1, exact_bending(space, focal)[1])
                  for space, focal in catalog_labels(60)
                  if exact_bending(space, focal)[0] == "finite"]
    foliations += [(f"CP:{m}", 2, Fraction(2)) for m in range(2, 31)]
    below, checked = [], set()
    for space, q, ratio in foliations:
        for label in ("I", "II", "III"):
            try:
                bound = lower_bound(parse_space(space), q, label)
            except ValueError:  # no reading of the label at this q, or n < 3
                continue
            checked.add(label)
            if bound.coefficient * q * (parse_space(space).dim - q) > ratio:
                below.append((space, q, label, bound.case.value, ratio))
    assert checked == {"I", "II", "III"}
    assert below == []
