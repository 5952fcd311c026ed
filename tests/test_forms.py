import random
from fractions import Fraction
from itertools import combinations

from hermlie import algebra as al
from hermlie import forms as fm
from hermlie import linalg as la

from conftest import scale_vec, unit_vec

Q = Fraction


def e(n, i):
    return unit_vec(n, i)


def wedge_bruteforce(a, b, vectors):
    """Shuffle-sum evaluation of (a ^ b), independent of fm.wedge."""
    p, q = a.degree, b.degree
    assert len(vectors) == p + q
    total = Q(0)
    for left in combinations(range(p + q), p):
        right = tuple(t for t in range(p + q) if t not in left)
        perm = left + right
        sign = 1
        perm_list = list(perm)
        for i in range(len(perm_list)):
            for j in range(i + 1, len(perm_list)):
                if perm_list[i] > perm_list[j]:
                    sign = -sign
        total += (
            sign
            * fm.evaluate(a, [vectors[t] for t in left])
            * fm.evaluate(b, [vectors[t] for t in right])
        )
    return total


class TestWedgeAndEvaluate:
    def test_e1_wedge_e2(self):
        w = fm.wedge(fm.basis_form(2, 1), fm.basis_form(2, 2))
        assert fm.evaluate(w, [e(2, 1), e(2, 2)]) == 1

    def test_repeated_indices_vanish(self):
        f = fm.form_from_terms(6, 2, [((1, 2), 1)])
        assert fm.wedge(f, f).is_zero()

    def test_wedge_graded_commutative(self):
        a = fm.form_from_terms(5, 1, [((1,), 2), ((3,), 1)])
        b = fm.form_from_terms(5, 2, [((2, 4), 1), ((1, 5), -1)])
        assert fm.wedge(a, b) == fm.wedge(b, a)  # odd*even commutes
        c = fm.form_from_terms(5, 1, [((2,), 1)])
        assert fm.wedge(a, c) == fm.wedge(c, a).scale(-1)

    def test_wedge_associative(self):
        a = fm.form_from_terms(6, 1, [((1,), 1), ((4,), -2)])
        b = fm.form_from_terms(6, 1, [((2,), 1)])
        c = fm.form_from_terms(6, 2, [((3, 5), 1), ((4, 6), 1)])
        assert fm.wedge(fm.wedge(a, b), c) == fm.wedge(a, fm.wedge(b, c))

    def test_against_bruteforce_shuffles(self):
        rng = random.Random(5)
        for _ in range(60):
            dim = rng.randint(3, 6)
            p = rng.randint(1, 2)
            q = rng.randint(1, min(3 - p + 1, 2))
            a = fm.form_from_terms(
                dim, p,
                [(tuple(rng.sample(range(1, dim + 1), p)), Q(rng.randint(-2, 2))) for _ in range(2)],
            )
            b = fm.form_from_terms(
                dim, q,
                [(tuple(rng.sample(range(1, dim + 1), q)), Q(rng.randint(-2, 2))) for _ in range(2)],
            )
            vectors = [
                la.vec([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(p + q)
            ]
            assert fm.evaluate(fm.wedge(a, b), vectors) == wedge_bruteforce(a, b, vectors)

    def test_evaluate_alternating(self):
        f = fm.form_from_terms(4, 2, [((1, 2), 1), ((3, 4), 2)])
        u, v = la.vec([1, 2, 3, 4]), la.vec([0, 1, 1, 0])
        assert fm.evaluate(f, [u, v]) == -fm.evaluate(f, [v, u])


class TestCEDifferential:
    def test_type_I_sigma(self, cx_type_I):
        sigma = fm.form_from_terms(6, 2, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1)])
        assert fm.ce_differential(cx_type_I, sigma) == fm.basis_form(6, 3, 4, 6).scale(-1)

    def test_type_III_sigma(self, cx_type_III):
        sigma = fm.form_from_terms(6, 2, [((1, 2), 1), ((3, 5), 1), ((4, 6), 1)])
        expected = fm.wedge(
            fm.form_from_terms(6, 2, [((1, 2), 1)]),
            fm.basis_form(6, 5) - fm.basis_form(6, 6),
        ).scale(2)
        assert fm.ce_differential(cx_type_III, sigma) == expected

    def test_abelian_differential_vanishes(self):
        L = al.abelian(6)
        f = fm.form_from_terms(6, 2, [((1, 5), 3), ((2, 4), -1)])
        assert fm.ce_differential(L, f).is_zero()

    def test_sigma_hat_squared_closed(self, cx_type_I):
        sh = fm.form_from_terms(
            6, 2, [((1, 2), 2), ((1, 5), -1), ((2, 6), -1), ((3, 4), 1), ((5, 6), 1)]
        )
        assert fm.ce_differential(cx_type_I, fm.wedge(sh, sh)).is_zero()

    def test_one_form_convention(self, aff):
        # de^2 = e^2 ^ e^1 for [e1, e2] = e2
        d = fm.ce_differential(aff, fm.basis_form(2, 2))
        assert d == fm.form_from_terms(2, 2, [((1, 2), -1)])


class TestJPullback:
    def test_type_I_three_form(self, j_std6):
        assert fm.j_pullback(j_std6.matrix, fm.basis_form(6, 3, 4, 6)) == fm.basis_form(6, 3, 4, 5)

    def test_fundamental_form_invariant(self, cx_type_III, j_type_III, g_identity6):
        from hermlie.hermitian import fundamental_form

        sigma = fundamental_form(cx_type_III, g_identity6, j_type_III)
        assert fm.j_pullback(j_type_III.matrix, sigma) == sigma

    def test_type_III_pullback(self, j_type_III):
        f = fm.wedge(
            fm.form_from_terms(6, 2, [((1, 2), 1)]),
            fm.basis_form(6, 5) - fm.basis_form(6, 6),
        )
        expected = fm.wedge(
            fm.form_from_terms(6, 2, [((1, 2), 1)]),
            fm.basis_form(6, 3) - fm.basis_form(6, 4),
        )
        assert fm.j_pullback(j_type_III.matrix, f) == expected

    def test_involution_up_to_degree_sign(self, j_std6):
        rng = random.Random(2)
        for degree in (1, 2, 3, 4):
            f = fm.form_from_terms(
                6, degree,
                [(tuple(sorted(rng.sample(range(1, 7), degree))), Q(rng.randint(-3, 3)))
                 for _ in range(3)],
            )
            twice = fm.j_pullback(j_std6.matrix, fm.j_pullback(j_std6.matrix, f))
            assert twice == (f if degree % 2 == 0 else f.scale(-1))


class TestVectorValuedTwoForm:
    def test_bilinear_antisymmetric(self):
        target = al.Subspace.span(4, [e(4, 1)])
        w = fm.VectorValuedTwoForm(4, target, {(2, 3): e(4, 1)})
        x, y = la.vec([0, 1, 1, 0]), la.vec([0, 2, -1, 0])
        assert w(x, y) == scale_vec(-3, e(4, 1))
        assert w(y, x) == scale_vec(3, e(4, 1))

    def test_image_detection(self):
        target = al.Subspace.span(4, [e(4, 1)])
        w = fm.VectorValuedTwoForm(4, target, {(2, 3): e(4, 4)})
        assert not image_in_target(w)
        assert image_in_target(fm.VectorValuedTwoForm(4, target, {(2, 3): e(4, 1)}))


def image_in_target(w) -> bool:
    """Whether every value of the two-form lies in its target subspace."""
    return all(w.target.contains(v) for v in w.values.values())
