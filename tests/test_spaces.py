import random
from fractions import Fraction

import pytest

from folbend.spaces import (
    Family,
    FocalVariety,
    ModelSpace,
    parse_focal,
    parse_space,
    ricci_curvature,
)
from oracles import catalog_labels, ricci_per_lam

ALL_SPACES = [
    ModelSpace(Family.SPHERE, 3),
    ModelSpace(Family.SPHERE, 6, 2.0),
    ModelSpace(Family.REAL_PROJECTIVE, 4),
    ModelSpace(Family.COMPLEX_PROJECTIVE, 2),
    ModelSpace(Family.COMPLEX_PROJECTIVE, 3, 0.5),
    ModelSpace(Family.QUATERNIONIC_PROJECTIVE, 2),
    ModelSpace(Family.QUATERNIONIC_PROJECTIVE, 3),
    ModelSpace(Family.CAYLEY_PLANE, 2),
]


class TestModelSpace:
    def test_dimensions(self):
        assert ModelSpace(Family.SPHERE, 5).dim == 5
        assert ModelSpace(Family.REAL_PROJECTIVE, 7).dim == 7
        assert ModelSpace(Family.COMPLEX_PROJECTIVE, 3).dim == 6
        assert ModelSpace(Family.QUATERNIONIC_PROJECTIVE, 2).dim == 8
        assert ModelSpace(Family.CAYLEY_PLANE, 2).dim == 16

    def test_invariant_counts(self):
        assert ModelSpace(Family.SPHERE, 3).invariant_count == 0
        assert ModelSpace(Family.COMPLEX_PROJECTIVE, 2).invariant_count == 1
        assert ModelSpace(Family.QUATERNIONIC_PROJECTIVE, 2).invariant_count == 3
        assert ModelSpace(Family.CAYLEY_PLANE, 2).invariant_count == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpace(Family.SPHERE, 0)
        with pytest.raises(ValueError):
            ModelSpace(Family.CAYLEY_PLANE, 3)
        with pytest.raises(ValueError):
            ModelSpace(Family.SPHERE, 3, -1.0)
        with pytest.raises(ValueError):
            ModelSpace(Family.SPHERE, 3, 0.0)

    def test_parse_round_trip(self):
        for text in ["S:3", "RP:4", "CP:2", "HP:3", "CaP2"]:
            assert parse_space(text).label == text
        assert parse_space("S:3", lam=2.5).lam == 2.5

    def test_parse_rejects_garbage(self):
        for text in ["S", "S:x", "XP:3", "CaP2:2", "CP"]:
            with pytest.raises(ValueError):
                parse_space(text)


class TestSpectrum:
    """Ric(u, u) against the trace of the curvature operator normal to u and
    the oracle's n - 1 + 3 nu; the scalar curvature is n * Ric."""

    def test_sphere(self):
        assert ricci_curvature(ModelSpace(Family.SPHERE, 3)) == 2.0
        assert ricci_curvature(ModelSpace(Family.REAL_PROJECTIVE, 5, 2.0)) == 8.0

    def test_complex_projective(self):
        assert ricci_curvature(ModelSpace(Family.COMPLEX_PROJECTIVE, 2)) == 6.0

    def test_cayley_plane(self):
        assert ricci_curvature(ModelSpace(Family.CAYLEY_PLANE, 2)) == 36.0

    def test_multiplicities_fill_the_normal_space(self):
        # nu invariant-structure directions at 4 lam, the other n - 1 - nu at lam
        for space in ALL_SPACES:
            nu, lam = space.invariant_count, Fraction(space.lam)
            assert ricci_curvature(space) == float(4 * nu * lam + (space.dim - 1 - nu) * lam)

    def test_scalar_curvature_consistent_with_spectrum_trace(self):
        # Two independent routes: the oracle's n (n - 1 + 3 nu) lam versus n * Ric(u, u).
        for space in ALL_SPACES:
            assert space.dim * ricci_per_lam(space.label) * space.lam == pytest.approx(
                space.dim * ricci_curvature(space), rel=1e-15
            )

    def test_values(self):
        assert 3 * ricci_curvature(ModelSpace(Family.SPHERE, 3)) == 6.0
        assert 4 * ricci_curvature(ModelSpace(Family.COMPLEX_PROJECTIVE, 2)) == 24.0
        assert 8 * ricci_curvature(ModelSpace(Family.QUATERNIONIC_PROJECTIVE, 2)) == 128.0
        assert ricci_curvature(ModelSpace(Family.CAYLEY_PLANE, 2)) == 36.0

    def test_correctly_rounded_over_the_catalog(self):
        # 20 scales log-uniform in 1e-300..1e300 for every catalog space: Ric is
        # the exact (n - 1 + 3 nu) * lam rounded once.  A sum of the two parts of
        # the spectrum rounds 36 * 0.3 on CaP2 to 10.8, one ulp above it.
        assert ricci_curvature(parse_space("CaP2", 0.3)) == 10.799999999999999
        rng = random.Random(27)
        for label in dict.fromkeys(space for space, _ in catalog_labels()):
            for _ in range(20):
                lam = 10.0 ** rng.uniform(-300.0, 300.0)
                exact = Fraction(ricci_per_lam(label)) * Fraction(lam)
                assert ricci_curvature(parse_space(label, lam)) == float(exact), (label, lam)


class TestFocalVariety:
    def test_parse(self):
        assert parse_focal("point") == FocalVariety.point()
        assert parse_focal("sub:S:2") == FocalVariety.sub(Family.SPHERE, 2)
        assert parse_focal("sub:CP:1").label == "sub:CP:1"

    def test_parse_rejects(self):
        for text in ["pt", "sub:S", "sub:CaP2:1", "sub:S:0", "sub:S:x"]:
            with pytest.raises(ValueError):
                parse_focal(text)
