"""End-to-end acceptance checks.

Each test exercises one headline capability at its stated tolerance and
prints a single ACCEPTANCE line.  Expected values are the frozen hand
derivations used across the unit suites.
"""
import math

import numpy as np
import pytest

from folbend.bending import (
    complex_radial_bending,
    epsilon_deformed_bending,
    torus_bending,
    total_bending,
)
from folbend.bounds import (
    DEFAULT_CHECK_PAIRS,
    BoundCase,
    integral_formula_check,
    lower_bound,
    minimizer_report,
    table1_report,
)
from folbend.quadrature import QuadratureConfig
from folbend.spaces import FocalVariety, parse_focal, parse_space
from folbend.torsion import (
    SplitDims,
    derive,
    mean_curvature_bound_slack,
    mu_identity_residual,
    random_coefficients,
    sigma_inequality_slack,
    umbilical_coefficients,
)
from folbend.tubes import tube_profile
from oracles import jacobi_ode_oracle, torus_riemann_oracle

TIGHT = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)
POINT = FocalVariety.point()


def report(n, failures):
    ok = not failures
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n}: " + "; ".join(failures)


def test_acceptance_1_reference_table_reproduced():
    failures = []
    for row in table1_report(rtol=1e-5, quad=TIGHT):
        if row.kind == "finite" and row.status != "Reproduced":
            failures.append(f"{row.space}/{row.focal} missed its closed form")
    report(1, failures)


def test_acceptance_2_divergence_verdicts():
    failures = []
    expected = {
        ("S:2", "point"): "both",
        ("S:4", "sub:S:2"): "0",
        ("S:5", "sub:S:3"): "0",
        ("CP:2", "point"): "mu",
        ("CP:3", "point"): "mu",
    }
    for (space, focal), endpoint in expected.items():
        res = total_bending(parse_space(space), parse_focal(focal), TIGHT)
        if res.status != "divergent" or res.divergent_endpoint != endpoint:
            failures.append(f"{space}/{focal} verdict wrong")
        elif not (0.9 <= res.exponent_estimate <= 1.1):
            failures.append(f"{space}/{focal} exponent {res.exponent_estimate:.3f}")
    report(2, failures)


def test_acceptance_3_deformation_closed_form():
    failures = []
    s2 = parse_space("S:2")
    for eps in (math.pi / 12, math.pi / 6, math.pi / 4, math.pi / 3):
        expected = math.pi * (
            math.log((1 + math.sin(eps)) / (1 - math.sin(eps))) - 2 * math.sin(eps)
        )
        got = epsilon_deformed_bending(s2, POINT, eps, TIGHT).value
        if abs(got - expected) > 1e-8:
            failures.append(f"eps={eps:.4f}: {got!r} vs {expected!r}")
    report(3, failures)


def test_acceptance_4_integral_identity():
    failures = []
    if len(DEFAULT_CHECK_PAIRS) < 8:
        failures.append("fewer than eight finite catalog pairs")
    for space, focal in DEFAULT_CHECK_PAIRS:
        res = integral_formula_check(parse_space(space), parse_focal(focal), TIGHT)
        if res.status != "applicable" or res.relative_gap > 1e-6:
            failures.append(f"{space}/{focal} gap {res.relative_gap}")
    report(4, failures)


def test_acceptance_5_minimality_equalities():
    failures = []
    for label in ("S:3", "S:4", "S:5", "S:6", "RP:3", "RP:4"):
        rep = minimizer_report(parse_space(label), TIGHT)
        if not rep.attains_bound or abs(rep.slack) > 1e-8:
            failures.append(f"{label} does not attain the codimension-one bound")
    # the complex radial foliation attains the half-dimension bound on CP:2
    cp2 = parse_space("CP:2")
    value = complex_radial_bending(2, 1.0, TIGHT).value_per_volume
    bound = lower_bound(cp2, 2, BoundCase.II_HALF).value
    if abs(value - 2.0) > 1e-6 or abs(value - bound) > 1e-6:
        failures.append(f"complex radial value {value!r} vs bound {bound!r}")
    report(5, failures)


def test_acceptance_6_torus_bound_and_oracle():
    failures = []
    rng = np.random.default_rng(99)
    for _ in range(50):
        r = float(rng.uniform(0.05, 4.0))
        R = r + float(rng.uniform(0.01, 5.0))
        res = torus_bending(R, r)
        if not res.value < res.upper_bound:
            failures.append(f"bound violated at R={R}, r={r}")
            break
    oracle = torus_riemann_oracle(2.0, 1.0, nodes=1_000_000)
    got = torus_bending(2.0, 1.0, TIGHT).value
    if abs(got - oracle) > 1e-6 * abs(oracle):
        failures.append(f"quadrature {got!r} vs Riemann oracle {oracle!r}")
    report(6, failures)


def test_acceptance_7_pointwise_identities():
    failures = []

    # invariant identity and both inequalities on random coefficient blocks
    rng = np.random.default_rng(424242)
    for k in range(1000):
        q, h = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        dims = SplitDims(q + h, q)
        coeffs = random_coefficients(dims, seed=rng)
        res_v, res_h = mu_identity_residual(coeffs)
        if max(abs(res_v), abs(res_h)) > 1e-12:
            failures.append(f"identity residual {max(abs(res_v), abs(res_h)):.2e}")
            break
        if min(sigma_inequality_slack(coeffs)) < 0:
            failures.append("negative shear-inequality slack")
            break
        if mean_curvature_bound_slack(coeffs) < 0:
            failures.append("negative mean-curvature slack")
            break

    # equality witnesses are exact zeros
    for dims in (SplitDims(4, 2), SplitDims(7, 3)):
        witness = umbilical_coefficients(dims, seed=7, integrable_v=True,
                                         integrable_h=True)
        if sigma_inequality_slack(witness) != (0.0, 0.0):
            failures.append("umbilical integrable witness has nonzero slack")

    # curvature equation, density log-derivative and density against direct
    # integration of the branches' Jacobi equations on every catalog profile
    pairs = [(s, f) for s, f, _ in (
        ("S:3", "point", 0), ("S:6", "point", 0), ("RP:4", "point", 0),
        ("S:5", "sub:S:2", 0), ("CP:3", "point", 0), ("CP:3", "sub:CP:1", 0),
        ("HP:2", "point", 0), ("HP:3", "sub:HP:1", 0), ("CaP2", "point", 0),
    )]
    for space, focal in pairs:
        prof = tube_profile(parse_space(space), parse_focal(focal))
        for r in np.linspace(0.1 * prof.mu, 0.9 * prof.mu, 5):
            direct = math.prod(jacobi_ode_oracle(b.kappa, b.init, float(r), steps=2048)
                               ** b.multiplicity for b in prof.branches)
            if abs(direct - float(prof.theta(r))) > 1e-9 * abs(direct):
                failures.append(f"density off the integrated branches on {space}")
                break
        h = 1e-5 * prof.mu
        alpha = prof.alpha_values
        for r in np.linspace(0.05 * prof.mu, 0.95 * prof.mu, 40):
            for k, b in enumerate(prof.branches):
                d_alpha = (-float(alpha(r + 2 * h)[k]) + 8 * float(alpha(r + h)[k])
                           - 8 * float(alpha(r - h)[k]) + float(alpha(r - 2 * h)[k])) / (12 * h)
                resid = d_alpha + float(alpha(r)[k]) ** 2 + b.kappa
                if abs(resid) > 1e-6:
                    failures.append(f"curvature equation residual {resid:.2e} on {space}")
                    break
            d_theta = (-prof.theta(r + 2 * h) + 8 * prof.theta(r + h)
                       - 8 * prof.theta(r - h) + prof.theta(r - 2 * h)) / (12 * h)
            sum_alpha = sum(b.multiplicity * a for b, a in zip(prof.branches, alpha(r)))
            if abs(d_theta / prof.theta(r) - sum_alpha) > 1e-8:
                failures.append(f"density log-derivative off on {space}")
                break
    report(7, failures)


def test_acceptance_8_curvature_scaling():
    failures = []
    for space, focal in (("S:4", "point"), ("HP:2", "point"), ("S:5", "sub:S:2")):
        one = total_bending(parse_space(space, 1.0), parse_focal(focal), TIGHT)
        two = total_bending(parse_space(space, 2.0), parse_focal(focal), TIGHT)
        if abs(two.value_per_volume - 2 * one.value_per_volume) > 1e-8 * abs(
                2 * one.value_per_volume):
            failures.append(f"{space}/{focal} does not scale linearly")
    report(8, failures)
