import pytest

from folbend.spaces import (
    Family,
    FocalVariety,
    ModelSpace,
    jacobi_spectrum,
    parse_focal,
    parse_space,
    ricci_curvature,
    scalar_curvature,
)

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
    def test_sphere(self):
        assert jacobi_spectrum(ModelSpace(Family.SPHERE, 3)) == [(1.0, 2)]
        assert jacobi_spectrum(ModelSpace(Family.REAL_PROJECTIVE, 5, 2.0)) == [(2.0, 4)]

    def test_complex_projective(self):
        assert jacobi_spectrum(ModelSpace(Family.COMPLEX_PROJECTIVE, 2)) == [(4.0, 1), (1.0, 2)]

    def test_cayley_plane(self):
        assert jacobi_spectrum(ModelSpace(Family.CAYLEY_PLANE, 2)) == [(4.0, 7), (1.0, 8)]

    def test_multiplicities_fill_the_normal_space(self):
        for space in ALL_SPACES:
            assert sum(mult for _, mult in jacobi_spectrum(space)) == space.dim - 1

    def test_scalar_curvature_consistent_with_spectrum_trace(self):
        # Two independent routes: the closed form versus n * Ric(u, u).
        for space in ALL_SPACES:
            assert scalar_curvature(space) == pytest.approx(
                space.dim * ricci_curvature(space), rel=1e-15
            )

    def test_values(self):
        assert scalar_curvature(ModelSpace(Family.SPHERE, 3)) == 6.0
        assert scalar_curvature(ModelSpace(Family.COMPLEX_PROJECTIVE, 2)) == 24.0
        assert scalar_curvature(ModelSpace(Family.QUATERNIONIC_PROJECTIVE, 2)) == 128.0
        assert ricci_curvature(ModelSpace(Family.CAYLEY_PLANE, 2)) == 36.0


class TestFocalVariety:
    def test_parse(self):
        assert parse_focal("point") == FocalVariety.point()
        assert parse_focal("sub:S:2") == FocalVariety.sub(Family.SPHERE, 2)
        assert parse_focal("sub:CP:1").label == "sub:CP:1"

    def test_parse_rejects(self):
        for text in ["pt", "sub:S", "sub:CaP2:1", "sub:S:0", "sub:S:x"]:
            with pytest.raises(ValueError):
                parse_focal(text)
