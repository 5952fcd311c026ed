import hashlib
import random

import pytest

from hermlie.algebra import change_basis, structure_invariants
from hermlie.errors import HermlieError
from hermlie.generators import (
    FIXED_DIMS,
    PROFILES,
    _mixed_params,
    _typeII_params,
    rand_fraction,
    rand_nonzero_fraction,
    random_compatible_metric,
    random_complex_shear,
    random_unitary,
)
from hermlie.hermitian import ComplexStructure, hermitian_decomposition
from hermlie.normal_forms import (
    Cq,
    SixDNonPureData,
    TypeIINormalForm,
    sixd_nonpure_table,
    skt_typeII_normal_form,
)
from hermlie.salamon import parse_salamon
from hermlie.shear import build_shear, check_complex_shear
from hermlie import linalg as la

from conftest import unit_vec


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
                        assert la.is_zero_vec(data.omega(v, unit_vec(dim, pair[0])))

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


# Every buildable (profile, dim) cell; perfbench's generated-shears rounds use
# exactly these, with seed * 1000 + part * 100 + k for k below the per-round
# count of the cell's dimension, over three set-up parts.
CELLS = [(p, d) for p in PROFILES for d in FIXED_DIMS.get(p, (4, 6, 8, 10))]
PER_ROUND = {4: 10, 6: 8, 8: 3, 10: 1}
# metric-search's cases: conjugated by random_unitary for their J pairs,
# the non-standard pairing included
SEARCH_CASES = (
    ("(25,-15,46,-36,0,0)", ((1, 2), (3, 4), (5, 6))),
    ("(0,21,0,0,43,0)", ((1, 2), (3, 4), (5, 6))),
    ("(-15+16,-25+26,2.(35+46),2.(36+45),0,0)", ((1, 2), (3, 5), (4, 6))),
)


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


def _shears(seeds):
    for profile, dim, seed in seeds:
        data, g, J = random_complex_shear(seed, profile, dim)
        yield (data.a.basis(), sorted(data.omega.values.items()), g.matrix, J.matrix)


def _conjugations():
    for seed in (7, 8):
        for part in range(3):
            rng = random.Random(f"metric-search/{seed}/{part}")
            for k in range(9):
                salamon, pairs = SEARCH_CASES[k % 3]
                q = random_unitary(6, rng, pairs=list(pairs))
                yield q, sorted(change_basis(parse_salamon(salamon), q).table.items())
    for dim in (4, 6, 8, 10):
        yield random_unitary(dim, random.Random(dim)), None


PINNED = {
    "grid": (
        lambda: _shears((p, d, s) for p, d in CELLS for s in range(20)),
        "70b852b4f6f5917bdce2303a3e5d70a840e551dde923cb30ce82d5a6d2839405",
    ),
    "rounds": (
        lambda: _shears(
            (p, d, seed * 1000 + part * 100 + k)
            for seed in (7, 8) for part in range(3) for p, d in CELLS for k in range(PER_ROUND[d])
        ),
        "127a8e61621d4f0e25918c982b7e8615cf8731d59689ba5b0c2cb7b53826f0e6",
    ),
    "unitaries": (_conjugations, "a98bd6e50f5a16d328534f0bd065df7d7a357211cd9dcb484390435c53e0c898"),
}


@pytest.mark.parametrize("name", PINNED)
def test_outputs_are_pinned(name):
    """The generator's exact outputs, recorded before it moved onto int
    numerators: any change to a draw, its order or the arithmetic shows."""
    items, expected = PINNED[name]
    assert _digest(items()) == expected


def _table(L):
    return L.dim, sorted(L.table.items())


def _typeII_tables():
    for dim in (4, 6, 8):
        for seed in range(40):
            L, _, _ = skt_typeII_normal_form(_typeII_params(dim, random.Random(f"typeII/{dim}/{seed}")))
            yield _table(L)
    # m = 1 with one line, as the sparse catalog builds them
    for dim in (4, 6, 8, 10):
        rng = random.Random(f"typeII-m1/{dim}")
        for _ in range(10):
            row = [rand_fraction(rng, -2, 2, 2) for _ in range(dim - 2)]
            row[rng.randrange(dim - 2)] = rand_nonzero_fraction(rng)
            z = Cq(rand_fraction(rng, -2, 2, 2), rand_fraction(rng, -2, 2, 2))
            params = TypeIINormalForm(1, dim // 2 - 1, 1, alphas=(tuple(row),), zs=(z,))
            yield _table(skt_typeII_normal_form(params)[0])


def _sixd_tables():
    for seed in range(200):
        yield _table(sixd_nonpure_table(_mixed_params(random.Random(f"mixed/{seed}"))))
    # raw data with every w_t drawn, which _mixed_params almost never returns
    rng = random.Random("sixd-raw")
    cq = lambda: Cq(rand_fraction(rng), rand_fraction(rng))
    for _ in range(40):
        b = tuple(rand_fraction(rng) for _ in range(4))
        data = SixDNonPureData(b, z=tuple(cq() for _ in range(3)), w=tuple(cq() for _ in range(6)))
        yield _table(sixd_nonpure_table(data))


NORMAL_FORMS = {
    "typeII": (_typeII_tables, "a08163c048d1af4b6463c3a9cd18583811d375f0f74cef4fd23052fcdf1f955b"),
    "sixd": (_sixd_tables, "6fd2cba3b17e7c22e03a8cbd80cca31ab980e9d5c3dd5228558ab7659a5cdb7a"),
}


@pytest.mark.parametrize("name", NORMAL_FORMS)
def test_normal_form_tables_are_pinned(name):
    """The bracket tables the normal forms build, recorded before they were
    rewritten as structure constants for ``make_algebra``."""
    items, expected = NORMAL_FORMS[name]
    assert _digest(items()) == expected
