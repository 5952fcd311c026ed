import random
from fractions import Fraction

import pytest

from hermlie import algebra as al
from hermlie import core
from hermlie import forms as fm
from hermlie import linalg as la
from hermlie.errors import (
    DuplicateEntryError,
    IndexOutOfRangeError,
    NotValidatedError,
)
from hermlie.generators import random_complex_shear
from hermlie.shear import build_shear

from conftest import bracket_basis, nullspace, random_table, unit_vec

Q = Fraction


def e(n, i):
    return unit_vec(n, i)


class TestMakeAlgebra:
    def test_aff(self, aff):
        assert aff.dim == 2 and aff.validated
        assert aff.bracket(e(2, 1), e(2, 2)) == e(2, 2)

    def test_abelian_validated(self):
        L = al.abelian(6)
        assert L.validated and not L.table

    def test_invalid_table_not_validated(self):
        L = al.make_algebra(3, [(1, 2, 1, 1), (1, 3, 2, 1)])
        assert not L.validated
        # cyclic sum on (e1, e2, e3) is exactly e2
        s = L.bracket(L.bracket(e(3, 1), e(3, 2)), e(3, 3))
        s = la.add_vec(s, L.bracket(L.bracket(e(3, 2), e(3, 3)), e(3, 1)))
        s = la.add_vec(s, L.bracket(L.bracket(e(3, 3), e(3, 1)), e(3, 2)))
        assert s == e(3, 2)
        assert L.jacobi_residual() == 1

    def test_antisymmetry_normalisation(self):
        L = al.make_algebra(2, [(2, 1, 2, -1)])
        assert L.bracket(e(2, 1), e(2, 2)) == e(2, 2)

    def test_errors(self):
        with pytest.raises(IndexOutOfRangeError):
            al.make_algebra(2, [(1, 3, 2, 1)])
        with pytest.raises(IndexOutOfRangeError):
            al.make_algebra(2, [(1, 1, 2, 1)])
        with pytest.raises(DuplicateEntryError):
            al.make_algebra(3, [(1, 2, 3, 1), (2, 1, 3, 1)])


class TestBracket:
    def test_alternating(self, cx_type_I):
        x = la.vec([1, 2, 3, 4, 5, 6])
        assert la.is_zero_vec(cx_type_I.bracket(x, x))

    def test_counterexample_bracket_value(self, cx_type_III):
        assert cx_type_III.bracket(e(6, 5), e(6, 1)) == la.neg_vec(e(6, 1))

    def test_dimension_mismatch(self, aff):
        with pytest.raises(al.DimensionMismatchError):
            aff.bracket((1, 0, 0), (0, 1, 0))


class TestJacobiResidual:
    def test_h3(self, h3):
        assert h3.jacobi_residual() == 0

    def test_abelian(self):
        assert al.abelian(4).jacobi_residual() == 0


class TestStructureInvariants:
    def test_example_43(self, cx_type_I):
        fp = al.structure_invariants(cx_type_I)
        assert fp.derived_series == (2, 0)
        assert fp.center_dim == 2
        assert fp.derived_center_dim == 1
        assert not fp.unimodular and not fp.nilpotent

    def test_two_aff_two_abelian(self):
        from hermlie.salamon import parse_salamon

        L = parse_salamon("(0,21,0,43,0,0)")
        fp = al.structure_invariants(L)
        assert fp.derived_series[0] == 2
        assert fp.derived_center_dim == 0

    def test_abelian(self):
        fp = al.structure_invariants(al.abelian(6))
        assert fp.derived_series == (0,)
        assert fp.center_dim == 6
        assert fp.unimodular and fp.nilpotent

    def test_requires_validated(self):
        bad = al.make_algebra(3, [(1, 2, 1, 1), (1, 3, 2, 1)])
        with pytest.raises(NotValidatedError):
            al.structure_invariants(bad)

    def test_conjugation_invariance(self, cx_type_I, h3):
        rng = random.Random(7)
        for L in (cx_type_I, h3):
            fp = al.structure_invariants(L)
            trials = 0
            while trials < 50:
                p = la.mat(
                    [
                        [Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(L.dim)]
                        for _ in range(L.dim)
                    ]
                )
                if la.det(p) == 0:
                    continue
                trials += 1
                conj = al.change_basis(L, p)
                assert al.structure_invariants(conj) == fp


def reference_change_basis(L, p):
    """The Fraction form of ``change_basis``: P^-1 [P e_i, P e_j] for each
    pair, with P^-1 from the reduced echelon form of [P | I] and rational
    brackets."""
    n = L.dim
    reduced, pivots = la.rref([list(r) + list(unit_vec(n, i + 1)) for i, r in enumerate(p)])
    if len(reduced) < n or pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    p_inv = tuple(tuple(row[n:]) for row in reduced)
    cols = la.transpose(p)
    table = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = la.mat_vec(p_inv, L.bracket(cols[i - 1], cols[j - 1]))
            if not la.is_zero_vec(v):
                table[(i, j)] = v
    return al.LieAlgebra(n, table)


def _center_reference(L):
    """The Fraction nullspace ``center`` solved before it moved onto the
    bracket numerators: one equation per (j, k), built from ``bracket_basis``."""
    n = L.dim
    eqs = []
    for j in range(1, n + 1):
        cols = [bracket_basis(L, i, j) for i in range(1, n + 1)]
        for k in range(n):
            eqs.append(tuple(col[k] for col in cols))
    return al.Subspace.span(n, nullspace(tuple(eqs)))


def _center_cases(group):
    from hermlie.catalog import witness_lists
    from hermlie.generators import _typeII_params
    from hermlie.normal_forms import KahlerNormalForm, kahler_normal_form, skt_typeII_normal_form
    from hermlie.salamon import parse_salamon
    from hermlie.verify import _random_kahler_params

    if group == "catalog":
        yield from (e.algebra for e in witness_lists())
    elif group == "normal-forms":
        rng = random.Random(5)
        for pure_type in ("I", "II", "III"):
            for _ in range(4):
                yield kahler_normal_form(_random_kahler_params(pure_type, rng))[0]
        betas = ((Fraction(1), *[Fraction(0)] * 5),)
        yield kahler_normal_form(KahlerNormalForm("II", 1, 0, 3, ((),), betas, ()))[0]
        for dim in (4, 6, 8):
            for _ in range(4):
                yield skt_typeII_normal_form(_typeII_params(dim, rng))[0]
    elif group == "shears":
        for dim in (4, 6, 8, 10):
            for profile in ("typeI", "typeIII"):
                for seed in range(3):
                    yield build_shear(random_complex_shear(seed, profile, dim)[0])
    else:  # an Abelian factor makes the centre nontrivial
        aff, h3 = parse_salamon("(0,21)"), parse_salamon("(0,0,21)")
        for pieces in ((aff, al.abelian(2)), (h3, aff, al.abelian(1)), (aff, aff, al.abelian(3)), (al.abelian(4),)):
            yield al.direct_sum(*pieces)


class TestCenter:
    @pytest.mark.parametrize("group", ["catalog", "normal-forms", "shears", "direct-sums"])
    def test_equals_the_fraction_nullspace(self, group):
        """The same canonical subspace, not just the same dimension."""
        cases = list(_center_cases(group))
        for L in cases:
            z = al.center(L)
            assert z == _center_reference(L) and z.ints == _center_reference(L).ints
            assert all(la.is_zero_vec(L.bracket(x, y)) for x in z.basis() for y in la.identity_matrix(L.dim))
        if group == "direct-sums":
            assert [al.center(L).dim for L in cases] == [2, 2, 3, 4]


class TestChangeBasis:
    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_matches_the_fraction_reference(self, dim):
        """Dense invertible, non-orthogonal P on a generated shear, a random
        Jacobi-violating table and the abelian algebra."""
        rng = random.Random(f"change-basis/{dim}")
        algebras = [build_shear(random_complex_shear(dim, "typeI", dim)[0]),
                    random_table(rng, dim, 2 * dim), al.abelian(dim)]
        for L in algebras:
            for _ in range(3):
                p = la.mat([[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dim)] for _ in range(dim)])
                if la.det(p) == 0:
                    continue
                assert la.mat_mul(la.transpose(p), p) != la.identity_matrix(dim)
                got = al.change_basis(L, p)
                assert got == reference_change_basis(L, p)

    def test_singular_basis_raises(self, h3):
        p = la.mat([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        with pytest.raises(ZeroDivisionError):
            reference_change_basis(h3, p)
        with pytest.raises(ZeroDivisionError):
            al.change_basis(h3, p)


class TestSolvabilityAndUnimodularity:
    def test_h3(self, h3):
        assert al.is_two_step_solvable(h3) and al.is_unimodular(h3)

    def test_aff(self, aff):
        assert al.is_two_step_solvable(aff) and not al.is_unimodular(aff)

    def test_type_III_case(self, cx_type_III):
        assert al.is_two_step_solvable(cx_type_III) and not al.is_unimodular(cx_type_III)

    def test_abelian_counts(self):
        assert al.is_two_step_solvable(al.abelian(2))

    def test_not_two_step(self):
        # sl2: [e1,e2]=e3, [e3,e1]=2e1, [e3,e2]=-2e2
        sl2 = al.make_algebra(3, [(1, 2, 3, 1), (3, 1, 1, 2), (3, 2, 2, -2)])
        assert sl2.validated and not al.is_two_step_solvable(sl2)


def test_trace_form_matches_bracket_traces():
    """t_i = tr ad(e_i) = sum_k [e_i, e_k]_k, read off ``trace_ints`` over
    ``L.ints.den`` and summed on Fractions from ``bracket_basis``, on
    generated shears of every profile at d4-d10."""
    from hermlie.errors import DimensionMismatchError
    from hermlie.generators import PROFILES, random_complex_shear
    from hermlie.shear import build_shear

    seen, nonzero = set(), 0
    for dim in (4, 6, 8, 10):
        for profile in PROFILES:
            for seed in range(2):
                try:
                    data, _, _ = random_complex_shear(seed, profile, dim)
                except (DimensionMismatchError, ValueError):  # some profiles exist only at d4-d6
                    continue
                L = build_shear(data)
                t = core.fractions(al.trace_ints(L), L.ints.den)
                for i in range(1, dim + 1):
                    assert t[i - 1] == sum((bracket_basis(L, i, k)[k - 1] for k in range(1, dim + 1)), Q(0))
                assert al.is_unimodular(L) == (not any(t))
                seen.add((profile, dim))
                nonzero += any(t)
    assert {p for p, _ in seen} == set(PROFILES) and {d for _, d in seen} == {4, 6, 8, 10}
    assert nonzero > 0


class TestSubspaceCalculus:
    def test_derived_of_counterexample(self, cx_type_I):
        assert al.image_of_bracket(cx_type_I) == al.Subspace.span(
            6, [e(6, 2), e(6, 5)]
        )

    def test_intersect_self(self):
        s = al.Subspace.span(4, [(1, 2, 0, 0), (0, 0, 1, 1)])
        assert al.intersect(s, s) == s

    def test_orthogonal_complement(self):
        s = al.Subspace.span(2, [e(2, 1)])
        assert al.orthogonal_complement(s, la.identity_matrix(2)) == al.Subspace.span(
            2, [e(2, 2)]
        )

    def test_sum_and_intersection_dims(self):
        a = al.Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        b = al.Subspace.span(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
        assert al.subspace_sum(a, b).dim == 3
        assert al.intersect(a, b) == al.Subspace.span(4, [(0, 1, 0, 0)])


class TestDirectSum:
    def test_aff_plus_r4(self, aff):
        L = al.direct_sum(aff, al.abelian(4))
        assert L.dim == 6 and al.image_of_bracket(L).dim == 1

    def test_abelian_sum(self):
        assert al.direct_sum(al.abelian(2), al.abelian(4)) == al.abelian(6)

    def test_counterexample_assembly(self, aff, h3, cx_type_I):
        assert al.direct_sum(aff, h3, al.abelian(1)) == cx_type_I

    def test_derived_dims_add(self, aff, h3):
        rng = random.Random(3)
        for _ in range(20):
            pieces = rng.sample([aff, h3, al.abelian(2), aff], 2)
            total = al.direct_sum(*pieces)
            assert al.image_of_bracket(total).dim == sum(
                al.image_of_bracket(p).dim for p in pieces
            )


class TestDifferentialSquaresToZero:
    def test_dd_iff_jacobi(self):
        rng = random.Random(11)
        checked = 0
        valid_seen = 0
        while checked < 500:
            dim = rng.randint(3, 6)
            L = random_table(rng, dim, rng.randint(1, 4))
            dd_zero = all(
                fm.ce_differential(L, fm.ce_differential(L, fm.basis_form(dim, i))).is_zero()
                for i in range(1, dim + 1)
            )
            assert dd_zero == (L.jacobi_residual() == 0)
            valid_seen += int(dd_zero)
            checked += 1
        # the sample must exercise both directions
        assert 0 < valid_seen < checked
