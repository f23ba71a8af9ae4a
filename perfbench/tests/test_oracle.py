"""The exact oracle against the reference table and its own closed forms."""
import math
from fractions import Fraction

import numpy as np
import pytest

import oracle
from folbend.bounds import DEFAULT_TABLE_ROWS


@pytest.mark.parametrize("space,focal,form", DEFAULT_TABLE_ROWS)
def test_reproduces_reference_table_exactly(space, focal, form):
    answer = oracle.tube_answer(space, focal)
    if isinstance(form, Fraction):
        assert answer.kind == "finite"
        assert answer.bending == form
    else:
        assert answer.kind == form.replace(" ", "-")


@pytest.mark.parametrize("space,focal,endpoint", [
    ("S:2", "point", "both"), ("S:4", "sub:S:2", "0"), ("S:5", "sub:S:3", "0"),
    ("CP:2", "point", "mu"), ("CP:3", "point", "mu"),
])
def test_divergent_endpoints(space, focal, endpoint):
    assert oracle.tube_answer(space, focal).endpoint == endpoint


def test_values_beyond_the_table():
    assert oracle.tube_answer("HP:60", "point").bending == Fraction(21302, 119)
    assert oracle.tube_answer("CP:21", "sub:CP:1").bending == Fraction(590, 19)


def test_identity_rhs_is_ricci_on_every_finite_pair():
    # Ric(u, u) * Vol equals the integral of twice the second mean curvature.
    for dim in range(2, 41):
        for family in ("S", "RP", "CP", "HP"):
            k = oracle._DIM_FACTOR[family]
            if dim % k or dim // k < 2:
                continue
            space = oracle.Space(family, dim // k)
            for focal in oracle.focal_varieties(space):
                answer = oracle.tube_answer(space.label, focal)
                if answer.kind == "finite":
                    assert answer.identity_rhs == oracle.ricci(space.label, 1), (space, focal)


def test_focal_varieties_include_the_uncomputable_pairs():
    assert "sub:RP:3" in oracle.focal_varieties(oracle.parse_space("CP:3"))
    assert "sub:CP:2" in oracle.focal_varieties(oracle.parse_space("HP:2"))
    assert oracle.focal_varieties(oracle.parse_space("S:2")) == ["point", "sub:S:1"]


def test_hidden_cancellation_at_a_pole_is_not_a_divergence():
    # s^-2 c^2 - s^-2 = -1 has no pole.
    poly = {(-2, 2): Fraction(1), (-2, 0): Fraction(-1)}
    result = oracle.integrate(poly, math.pi / 2)
    assert result.finite
    assert result.value == -1 and result.base == math.pi / 2


@pytest.mark.parametrize("eps", [0.05, 0.4, 0.9, 1.3, 1.5, 1.5707])
def test_sphere_closed_form_matches_the_window_quadrature(eps):
    value, unc = oracle.deformation("S:2", "point", eps, 3.0)
    x_lo = math.pi * (math.pi - 2.0 * eps) / (2.0 * math.pi)
    data = oracle.branches(oracle.parse_space("S:2"), "point")
    quadrature = 3.0 * oracle._window_integral(data, x_lo, math.pi, 30) / 2.0
    assert abs(value - quadrature) <= unc + 1e-13 * value


def test_deformation_tends_to_the_full_bending():
    exact = float(oracle.tube_answer("HP:3", "sub:HP:1").bending) * 2.0
    value, _ = oracle.deformation("HP:3", "sub:HP:1", math.pi / 2 - 1e-12, 2.0)
    assert value == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("big,small", [(2.0, 1.0), (1.05, 1.0), (30.0, 0.1)])
def test_torus_closed_forms_against_a_riemann_sum(big, small, weighted):
    t = (np.arange(200_000) + 0.5) * (2 * math.pi / 200_000)
    density = np.sin(t) ** 2 / (big + small * np.cos(t)) ** 2
    if weighted:
        density = density * small * (big + small * np.cos(t))
    riemann = math.pi * float(np.mean(density)) * 2 * math.pi
    assert oracle.torus(big, small, weighted) == pytest.approx(riemann, rel=1e-10)
