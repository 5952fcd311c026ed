import pytest

from hermlie.algebra import structure_invariants
from hermlie.errors import HermlieError
from hermlie.generators import (
    PROFILES,
    random_compatible_metric,
    random_complex_shear,
    random_unitary,
)
from hermlie.hermitian import ComplexStructure, hermitian_decomposition
from hermlie.shear import build_shear, check_complex_shear
from hermlie import linalg as la

import random


class TestRandomUnitary:
    def test_orthogonal_and_j_commuting(self):
        rng = random.Random(0)
        J = ComplexStructure.standard(6)
        for _ in range(5):
            q = random_unitary(6, rng)
            assert la.mat_mul(la.transpose(q), q) == la.identity_matrix(6)
            assert la.mat_mul(q, J.matrix) == la.mat_mul(J.matrix, q)


class TestRandomCompatibleMetric:
    def test_compatible_and_positive(self):
        rng = random.Random(1)
        J = ComplexStructure.from_pairs(6, [(1, 2), (3, 5), (4, 6)])
        for _ in range(5):
            g = random_compatible_metric(6, J, rng)
            assert g.compatible_with(J)  # positive definiteness checked on build


class TestRandomComplexShear:
    def test_deterministic(self):
        a = random_complex_shear(3, "typeII", 6)
        b = random_complex_shear(3, "typeII", 6)
        assert a[0].omega.values == b[0].omega.values
        assert a[1].matrix == b[1].matrix and a[2].matrix == b[2].matrix

    @pytest.mark.parametrize("profile", PROFILES)
    def test_valid_data(self, profile):
        dims = (6,) if profile == "mixed" else (4, 6)
        for dim in dims:
            for seed in range(3):
                data, g, J = random_complex_shear(seed, profile, dim)
                rep = check_complex_shear(data, J)
                assert rep.jacobi_ok and rep.integrable_ok
                assert g.compatible_with(J)

    def test_nilpotent_profile_is_nilpotent(self):
        for dim in (4, 6):
            for seed in range(4):
                data, _, _ = random_complex_shear(seed, "nilpotent", dim)
                L = build_shear(data)
                fp = structure_invariants(L)
                assert fp.nilpotent
                # the data's form kills the subspace a entirely
                for pair in data.omega.values:
                    for v in data.a.basis():
                        assert la.is_zero_vec(data.omega(v, la.unit_vec(dim, pair[0])))

    def test_typeII_profile_type(self):
        for seed in range(4):
            data, g, J = random_complex_shear(seed, "typeII", 6)
            dec = hermitian_decomposition(build_shear(data), g, J)
            assert dec.pure_type == "II"

    def test_mixed_profile_dim_guard(self):
        with pytest.raises(ValueError):
            random_complex_shear(0, "mixed", 4)
        with pytest.raises(ValueError):
            random_complex_shear(0, "nonsense", 6)

    @pytest.mark.parametrize(
        "profile,dim", [("nilpotent", 8), ("nilpotent", 10), ("typeII", 8), ("typeII", 10)]
    )
    def test_fixed_size_profiles_reject_other_dimensions(self, profile, dim):
        # up front, and as a HermlieError, which callers of the generators catch
        with pytest.raises(HermlieError, match=f"the {profile} profile exists only"):
            random_complex_shear(0, profile, dim)
