import random
from fractions import Fraction
from itertools import combinations

import pytest

from hermlie import algebra as al
from hermlie import core
from hermlie import forms as fm
from hermlie import linalg as la
from hermlie.errors import (
    DimensionMismatchError,
    IncompatibleMetricError,
    InvalidMetricError,
    NotAComplexStructureError,
    NotIntegrableError,
    NotJInvariantError,
    PreconditionViolatedError,
)
from hermlie.catalog import witness_lists
from hermlie.generators import FIXED_DIMS, PROFILES, random_complex_shear, random_compatible_metric
from hermlie.hermitian import (
    KINDS,
    ComplexStructure,
    Metric,
    balanced_inverse_form,
    balanced_structural,
    classify_metric,
    condition_forms,
    condition_kernel,
    coordinates,
    fingerprint_distinguish,
    fundamental_form,
    hermitian_decomposition,
    is_integrable,
    j_adapted_split,
    kahler_from_skt_and_balanced_typeII,
    metric_at,
    normalize_skt_typeII,
    packed_kernel,
    unitary_basis,
    validate_complex_structure,
)
from hermlie.salamon import parse_salamon
from hermlie.search import check_certificate, metric_parameterization, search_metric
from hermlie.shear import build_shear, pre_shear_from_bracket, shear_condition

from conftest import BUILDABLE, commuting_change, nijenhuis, nullspace, scale_vec, unit_vec

Q = Fraction


def e(n, i):
    return unit_vec(n, i)


# A 4x4 J or metric against the 6-dimensional (0,21,0,0,43,0), and one
# unknown kind: each entry point, as a call on that algebra, and its error
G6, J6, G4, J4 = Metric.identity(6), ComplexStructure.standard(6), Metric.identity(4), ComplexStructure.standard(4)
FULL6 = al.Subspace.full(6)
REFUSALS = {
    "hermitian_decomposition-J": (lambda L: hermitian_decomposition(L, G6, J4), DimensionMismatchError),
    "hermitian_decomposition-g": (lambda L: hermitian_decomposition(L, G4, J6), DimensionMismatchError),
    "j_adapted_split-J": (lambda L: j_adapted_split(FULL6, G6, J4), DimensionMismatchError),
    "j_adapted_split-g": (lambda L: j_adapted_split(FULL6, G4, J6), DimensionMismatchError),
    "unitary_basis-J": (lambda L: unitary_basis(FULL6, G6, J4), DimensionMismatchError),
    "unitary_basis-g": (lambda L: unitary_basis(FULL6, G4, J6), DimensionMismatchError),
    "fundamental_form": (lambda L: fundamental_form(L, G4, J4), DimensionMismatchError),
    "balanced_structural": (lambda L: balanced_structural(L, G4, J4), DimensionMismatchError),
    "classify_metric": (lambda L: classify_metric(L, G4, J4), DimensionMismatchError),
    "search_metric": (lambda L: search_metric(L, J4, "kahler"), DimensionMismatchError),
    "condition_kernel": (lambda L: condition_kernel(L, J4, "kahler"), DimensionMismatchError),
    "metric_parameterization": (lambda L: metric_parameterization(L, J4), DimensionMismatchError),
    "check_certificate": (lambda L: check_certificate(L, J4, "kahler", G6.matrix), DimensionMismatchError),
    "shear_condition-g": (lambda L: shear_condition(pre_shear_from_bracket(L), G4, J6, "skt"), DimensionMismatchError),
    "shear_condition-kind": (lambda L: shear_condition(pre_shear_from_bracket(L), G6, J6, "hermitian"), ValueError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_wrong_size_or_kind_is_refused(cx_type_I, call, error):
    """A J or metric of the wrong size is a DimensionMismatchError at every
    entry point: not an IndexError, not the J^2 != -1 error, and never a
    result.  An unknown kind is a ValueError."""
    with pytest.raises(error):
        call(cx_type_I)


@pytest.mark.parametrize("gain", [1, 3, 4, 7, 8])
def test_packed_kernel_fills_its_width(gain):
    """On diag(1, 0) and diag(0, 1) the map gain (X_00 - X_11) reaches its
    bound, gain times the largest |entry|, so each digit of the packed
    output needs every bit of the width: one bit fewer reads the wrong
    kernel or overflows the slots.  The kernel is spanned by I."""
    basis = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    assert packed_kernel(basis, lambda x: [gain * (x[0][0] - x[1][1])], gain) == (((1, 0), (0, 1)),)


class TestCoordinates:
    """``coordinates`` and ``metric_at`` are inverse to each other: g for
    Kahler and SKT, H = g^-1 for balanced."""

    def test_round_trip(self):
        rng = random.Random(3)
        J = ComplexStructure.from_pairs(6, [(1, 2), (3, 5), (4, 6)])
        for _ in range(3):
            g = random_compatible_metric(6, J, rng)
            for kind in KINDS:
                rows, den = coordinates(g, kind)
                x = la.mat(core.fractions(row, den) for row in rows)
                if kind == "balanced":
                    assert la.mat_mul(x, g.matrix) == la.identity_matrix(6)
                else:
                    assert x == g.matrix, kind
                assert metric_at(x, kind) == g, kind

    def test_indefinite_coordinates_are_refused_before_inversion(self):
        for kind in KINDS:
            with pytest.raises(InvalidMetricError):
                metric_at([[1, 0], [0, 0]], kind)
        with pytest.raises(ValueError, match="unknown condition kind"):
            coordinates(G6, "hermitian")


class TestComplexStructure:
    def test_square_check(self):
        with pytest.raises(NotAComplexStructureError):
            ComplexStructure(la.identity_matrix(2))

    def test_nijenhuis_vanishes_on_examples(self, cx_type_I, cx_type_III, j_std6, j_type_III):
        assert validate_complex_structure(cx_type_I, j_std6).integrable
        assert validate_complex_structure(cx_type_III, j_type_III).integrable

    def test_abelian_any_j_integrable(self):
        L = al.abelian(4)
        j = ComplexStructure.from_pairs(4, [(1, 3), (2, 4)])
        assert is_integrable(L, j)

    def test_nonintegrable_reported(self, cx_type_III, j_std6):
        report = validate_complex_structure(cx_type_III, j_std6)
        assert not report.integrable and report.failing_pairs
        x, y = report.failing_pairs[0]
        assert not la.is_zero_vec(nijenhuis(cx_type_III, j_std6, e(6, x), e(6, y)))

    def test_each_structure_gets_its_own_verdict(self):
        """``is_integrable`` keeps its verdict on L per J: an integrable J
        and a densely conjugated one that is not keep their own answers on
        one algebra, in either order, and a J rebuilt from the same matrix
        reads the same entry."""
        data, _, J = random_complex_shear(0, "typeI", 6)
        L = build_shear(data)
        rng = random.Random(5)
        while la.det(p := la.mat([[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)])) == 0:
            pass
        K = ComplexStructure(la.mat_mul(la.mat_mul(p, J.matrix), la.inverse(p)))
        assert validate_complex_structure(L, J).integrable and not validate_complex_structure(L, K).integrable
        for order in ((J, K), (K, J)):
            M = al.LieAlgebra(L.dim, L.table)
            assert [is_integrable(M, S) for S in order * 2] == [S is J for S in order * 2]
            assert is_integrable(M, ComplexStructure(J.matrix)) and not is_integrable(M, ComplexStructure(K.matrix))
        with pytest.raises(NotIntegrableError):
            classify_metric(L, random_compatible_metric(6, K, rng), K)


class TestMetric:
    def test_positive_definite_enforced(self):
        with pytest.raises(InvalidMetricError):
            Metric([[1, 0], [0, -1]])
        with pytest.raises(InvalidMetricError):
            Metric([[0, 1], [1, 0]])

    def test_compatibility(self, j_std6, g_identity6):
        assert g_identity6.compatible_with(j_std6)


class TestFrameMetric:
    FRAME = [(1, 0, 0, 0, 0, -1), (0, 1, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
             (0, 0, 0, 0, -1, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 2, 0)]

    def test_gram_of_frame_metric_is_the_given_gram(self, j_std6):
        gram = random_compatible_metric(6, j_std6, random.Random(4)).matrix
        assert Metric.from_frame(self.FRAME, gram).gram(self.FRAME) == gram
        assert Metric.from_orthonormal_frame(self.FRAME).gram(self.FRAME) == la.identity_matrix(6)

    def test_block_metric_grams(self, j_std6):
        from hermlie.hermitian import _block_metric

        rng = random.Random(5)
        gram_a = random_compatible_metric(2, ComplexStructure.standard(2), rng).matrix
        gram_b = random_compatible_metric(4, ComplexStructure.standard(4), rng).matrix
        g = _block_metric(self.FRAME[:2], self.FRAME[2:], gram_a, gram_b)
        assert g.gram(self.FRAME[:2]) == gram_a and g.gram(self.FRAME[2:]) == gram_b
        assert all(g.pair(u, v) == 0 for u in self.FRAME[:2] for v in self.FRAME[2:])


class TestFundamentalForm:
    def test_identity_standard(self, cx_type_I, j_std6, g_identity6):
        sigma = fundamental_form(cx_type_I, g_identity6, j_std6)
        assert sigma == fm.form_from_terms(6, 2, [((1, 2), 1), ((3, 4), 1), ((5, 6), 1)])

    def test_type_III_tilted(self, cx_type_III, j_type_III, ghat_type_III):
        sigma = fundamental_form(cx_type_III, ghat_type_III, j_type_III)
        assert sigma == fm.form_from_terms(
            6, 2, [((1, 2), 1), ((3, 5), 1), ((4, 6), 2), ((3, 6), -1), ((4, 5), -1)]
        )

    def test_alternating(self, cx_type_I, j_std6, ghat_type_I):
        sigma = fundamental_form(cx_type_I, ghat_type_I, j_std6)
        x = la.vec([1, -2, 3, 0, 1, 1])
        assert fm.evaluate(sigma, [x, x]) == 0

    def test_incompatible_rejected(self, cx_type_I, j_std6):
        g = Metric([[2 if i == j == 0 else (1 if i == j else 0) for j in range(6)] for i in range(6)])
        with pytest.raises(IncompatibleMetricError):
            fundamental_form(cx_type_I, g, j_std6)


class TestClassifyMetric:
    def test_type_I_both_metrics(self, cx_type_I, j_std6, g_identity6, ghat_type_I):
        assert classify_metric(cx_type_I, g_identity6, j_std6).as_dict() == {
            "kahler": False, "balanced": False, "skt": True,
        }
        assert classify_metric(cx_type_I, ghat_type_I, j_std6).as_dict() == {
            "kahler": False, "balanced": True, "skt": False,
        }

    def test_abelian_all_true(self):
        L = al.abelian(6)
        J = ComplexStructure.standard(6)
        rng = random.Random(0)
        for _ in range(5):
            g = random_compatible_metric(6, J, rng)
            assert classify_metric(L, g, J).as_dict() == {
                "kahler": True, "balanced": True, "skt": True,
            }

    def test_dimension_two_all_true(self, aff):
        """sigma^0 = 1 is closed, so balanced needs no special case at n = 1."""
        v = classify_metric(aff, Metric.identity(2), ComplexStructure.standard(2))
        assert v.as_dict() == {"kahler": True, "balanced": True, "skt": True}

    def test_requires_integrable(self, cx_type_III, j_std6, g_identity6):
        with pytest.raises(NotIntegrableError, match="not integrable.*Nijenhuis"):
            classify_metric(cx_type_III, g_identity6, j_std6)

    def test_equals_the_condition_forms(self):
        """The early-exit verdicts are the zero tests of the whole
        ``condition_forms``: on every catalog witness, on two generated
        instances of each buildable profile at d4-d10, and on one
        ``commuting_change`` conjugate of each, which keeps the verdicts."""
        rng = random.Random("early-exit")
        cases = [(e.name, e.algebra, w.metric, e.J) for e in witness_lists() for w in e.witnesses]
        for dim, profile in BUILDABLE:
            for seed in (0, 1):
                data, g, J = random_complex_shear(seed, profile, dim)
                cases.append((f"{profile}/d{dim}/{seed}", build_shear(data), g, J))
        seen = set()
        for label, L, g, J in cases:
            p = commuting_change(J, rng)
            moved = Metric(la.mat_mul(la.transpose(p), la.mat_mul(g.matrix, p)))
            verdicts = classify_metric(L, g, J).as_dict()
            for M, h in ((L, g), (al.change_basis(L, p), moved)):
                forms = condition_forms(M, h, J)
                assert classify_metric(M, h, J).as_dict() == verdicts == {k: not forms[k][0] for k in KINDS}, label
            seen.add(tuple(verdicts.values()))
        assert {L.dim for _, L, _, _ in cases} == {4, 6, 8, 10}
        # Kahler fails with balanced and SKT each both ways, and all three hold
        assert {(False, True, False), (False, False, True), (False, False, False), (True, True, True)} <= seen


def _block(a, b):
    """The block-diagonal rational matrix diag(a, b)."""
    na, nb = len(a), len(b)
    return la.mat([*(list(r) + [0] * nb for r in a), *([0] * na + list(r) for r in b)])


@pytest.mark.parametrize("flat", [2, 4])
def test_balanced_witnesses_stay_balanced_beside_a_flat_factor(flat):
    """Each balanced, non-Kahler catalog witness, summed with an Abelian
    R^2 or R^4 under the block J and block metric, is balanced and not
    Kahler by every route: at d8 and d10 the zero test of
    d sigma ^ sigma^(n-2) runs through every output coefficient."""
    witnesses = [(e, w) for e in witness_lists() for w in e.witnesses if w.expected["balanced"] and not w.expected["kahler"]]
    assert witnesses
    for entry, w in witnesses:
        L = al.direct_sum(entry.algebra, al.abelian(flat))
        J = ComplexStructure(_block(entry.J.matrix, ComplexStructure.standard(flat).matrix))
        g = Metric(_block(w.metric.matrix, la.identity_matrix(flat)))
        data = pre_shear_from_bracket(L)
        forms = condition_forms(L, g, J)
        label = f"{entry.name}/{w.label} + R^{flat}"
        assert L.dim == 6 + flat, label
        assert classify_metric(L, g, J).as_dict() == {**w.expected, "balanced": True, "kahler": False}, label
        assert not forms["balanced"][0] and forms["kahler"][0], label
        assert shear_condition(data, g, J, "balanced") and not shear_condition(data, g, J, "kahler"), label
        assert balanced_structural(L, g, J).balanced, label


class TestDecomposition:
    def test_type_I_case(self, cx_type_I, j_std6, g_identity6):
        dec = hermitian_decomposition(cx_type_I, g_identity6, j_std6)
        assert (dec.s, dec.r, dec.ell, dec.pure_type) == (0, 2, 1, "I")
        assert dec.derg == al.Subspace.span(6, [e(6, 2), e(6, 5)])

    def test_type_III_case(self, cx_type_III, j_type_III, g_identity6):
        dec = hermitian_decomposition(cx_type_III, g_identity6, j_type_III)
        assert (dec.s, dec.r, dec.ell, dec.pure_type) == (1, 2, 0, "III")

    def test_codim2_family_type_II(self, j_std6, g_identity6):
        L = parse_salamon("(25,-15,46,-36,0,0)")
        dec = hermitian_decomposition(L, g_identity6, j_std6)
        assert (dec.s, dec.r, dec.ell, dec.pure_type) == (2, 0, 1, "II")

    def test_dims_metric_independent(self, cx_type_I, cx_type_III, j_std6, j_type_III):
        rng = random.Random(9)
        for L, J in ((cx_type_I, j_std6), (cx_type_III, j_type_III)):
            base = hermitian_decomposition(L, Metric.identity(6), J)
            for _ in range(10):
                g = random_compatible_metric(6, J, rng)
                dec = hermitian_decomposition(L, g, J)
                assert (dec.s, dec.r, dec.ell) == (base.s, base.r, base.ell)

    def test_abelian_tag_none(self):
        dec = hermitian_decomposition(
            al.abelian(4), Metric.identity(4), ComplexStructure.standard(4)
        )
        assert dec.pure_type == "none"

    def test_tag_consistency(self):
        # priority I > II > III when several summands vanish (e.g. aff_R)
        aff = parse_salamon("(0,21)")
        dec = hermitian_decomposition(aff, Metric.identity(2), ComplexStructure.standard(2))
        assert dec.pure_type == "I" and dec.ell == 0

    def test_orthogonality(self, cx_type_I, j_std6):
        rng = random.Random(4)
        g = random_compatible_metric(6, j_std6, rng)
        dec = hermitian_decomposition(cx_type_I, g, j_std6)
        for u in dec.derg_J.basis():
            for v in dec.V_r.basis():
                assert g.pair(u, v) == 0
        for u in dec.V_J.basis():
            for v in al.subspace_sum(dec.derg_J, dec.V_r).basis():
                assert g.pair(u, v) == 0
        assert 2 * dec.s + 2 * dec.r + 2 * dec.ell == 6


class TestUnitaryBasis:
    def test_trivial_pair(self):
        s = al.Subspace.span(2, [e(2, 1), e(2, 2)])
        ub = unitary_basis(s, Metric.identity(2), ComplexStructure.standard(2))
        assert ub.vectors == (e(2, 1), e(2, 2)) and ub.norms_sq == (1, 1)

    def test_scaled_pairs(self):
        s = al.Subspace.span(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        j = ComplexStructure.standard(4)
        ub = unitary_basis(s, Metric.identity(4), j)
        (v, jv, nsq), = list(ub.pairs())
        assert nsq == 2 and jv == j.apply(v)

    def test_vr_of_counterexample(self, cx_type_I, j_std6, g_identity6):
        dec = hermitian_decomposition(cx_type_I, g_identity6, j_std6)
        ub = unitary_basis(dec.V_r, g_identity6, j_std6)
        assert len(ub.vectors) == 4
        for v, jv, nsq in ub.pairs():
            assert jv == j_std6.apply(v)
            assert g_identity6.pair(v, v) == nsq and g_identity6.pair(v, jv) == 0
        span = al.Subspace.span(6, ub.vectors)
        assert span == dec.V_r

    def test_requires_j_invariant(self, j_std6, g_identity6):
        with pytest.raises(NotJInvariantError):
            unitary_basis(al.Subspace.span(6, [e(6, 1)]), g_identity6, j_std6)


class TestBalancedStructural:
    def test_counterexample_tilted_true(self, cx_type_I, j_std6, ghat_type_I):
        assert balanced_structural(cx_type_I, ghat_type_I, j_std6).balanced

    def test_counterexample_standard_false(self, cx_type_I, j_std6, g_identity6):
        report = balanced_structural(cx_type_I, g_identity6, j_std6)
        assert not report.balanced
        # tr ad(e1) = 1 enters through the V_r pairing condition
        assert not report.trace_vr_matches

    def test_unimodular_c_zero_path(self, j_std6, g_identity6):
        L = parse_salamon("(25,-15,46,-36,0,0)")
        report = balanced_structural(L, g_identity6, j_std6)
        assert report.balanced and la.is_zero_vec(report.C)

    def test_matches_direct(self, cx_type_I, cx_type_III, j_std6, j_type_III):
        rng = random.Random(21)
        for L, J in ((cx_type_I, j_std6), (cx_type_III, j_type_III)):
            for _ in range(10):
                g = random_compatible_metric(6, J, rng)
                assert (
                    balanced_structural(L, g, J).balanced
                    == classify_metric(L, g, J).balanced
                )


def _inverse_contraction(g, J):
    """iota(-H J^T) vol for H = g^-1 on the KForm operators, as a reference.

    iota(e_b) iota(e_a) vol = s e^rest for a < b, where vol = s e^a ^ e^b ^ e^rest.
    """
    n = g.dim
    p = la.mat_scale(-1, la.mat_mul(la.inverse(g.matrix), la.transpose(J.matrix)))
    terms = []
    for a, b in combinations(range(1, n + 1), 2):
        rest = tuple(i for i in range(1, n + 1) if i not in (a, b))
        s = fm.form_from_terms(n, n, [((a, b, *rest), 1)]).coeff(*range(1, n + 1))
        terms.append((rest, s * p[a - 1][b - 1]))
    return fm.form_from_terms(n, n - 2, terms)


def _generated_instances():
    for dim in (4, 6, 8, 10):
        for profile in PROFILES:
            if dim not in FIXED_DIMS.get(profile, (dim,)):
                continue
            for seed in range(2):
                data, g, J = random_complex_shear(seed, profile, dim)
                yield f"{profile}/d{dim}/{seed}", build_shear(data), g, J


def _catalog_instances():
    for entry in witness_lists():
        for w in entry.witnesses:
            yield f"{entry.name}/{w.label}", entry.algebra, w.metric, entry.J


class TestBalancedInverseForm:
    """The balanced search's map on H = g^-1 against sigma^(n-1) on KForms."""

    @pytest.mark.parametrize(
        "source", [_generated_instances, _catalog_instances], ids=["generated", "catalog"]
    )
    def test_sigma_power_is_a_multiple_of_the_inverse_contraction(self, source):
        balanced = 0
        for label, L, g, J in source():
            n = L.dim
            power = fm.form_power(fundamental_form(L, g, J), n // 2 - 1)
            contraction = _inverse_contraction(g, J)
            key = next(iter(contraction.coeffs))
            c = power.coeff(*key) / contraction.coeff(*key)
            assert c and power == contraction.scale(c), label
            nums, den = balanced_inverse_form(L, J, *core.clear_matrix(la.inverse(g.matrix)))
            h_form = fm.KForm.from_ints(n, n - 1, nums, den)
            assert h_form.scale(c) == fm.ce_differential(L, power), label
            verdict = classify_metric(L, g, J).balanced
            assert h_form.is_zero() == verdict, label
            balanced += verdict
        if source is _catalog_instances:
            assert balanced == 25  # every balanced-true catalog witness is checked


class TestFingerprintDistinguish:
    def test_counterexample_vs_affine_sums(self, cx_type_I, aff):
        for r in (1, 2, 3):
            blocks = [aff] * r
            if 6 - 2 * r:
                blocks.append(al.abelian(6 - 2 * r))
            assert fingerprint_distinguish(cx_type_I, al.direct_sum(*blocks)) == "distinct"

    def test_self_inconclusive(self, cx_type_I):
        assert fingerprint_distinguish(cx_type_I, cx_type_I) == "inconclusive"

    def test_three_affine(self, cx_type_I, aff):
        assert fingerprint_distinguish(cx_type_I, al.direct_sum(aff, aff, aff)) == "distinct"


class TestNormalizeAndPipeline:
    def test_already_split_unchanged(self, j_std6, g_identity6):
        L = parse_salamon("(25,-15,46,-36,0,0)")
        g2, v_tilde = normalize_skt_typeII(L, j_std6, g_identity6)
        assert g2.matrix == g_identity6.matrix
        assert v_tilde == al.Subspace.span(6, [e(6, 5), e(6, 6)])

    def test_pipeline_identity_case(self, j_std6, g_identity6):
        L = parse_salamon("(25,-15,46,-36,0,0)")
        out = kahler_from_skt_and_balanced_typeII(L, j_std6, g_identity6, g_identity6)
        assert classify_metric(L, out, j_std6).kahler

    def test_normalize_moves_complement_when_z_nonzero(self, g_identity6):
        from hermlie.normal_forms import Cq, TypeIINormalForm, skt_typeII_normal_form

        params = TypeIINormalForm(1, 1, 1, alphas=((Q(1), Q(0)),), zs=(Cq(1, 1),))
        L, g, J = skt_typeII_normal_form(params)
        assert classify_metric(L, g, J).skt
        g2, v_tilde = normalize_skt_typeII(L, J, g)
        # the bracket on the new complement must avoid [g, derg] entirely
        d1 = al.bracket_of_subspaces(L, al.Subspace.full(4), al.image_of_bracket(L))
        for u in v_tilde.basis():
            for v in v_tilde.basis():
                br = L.bracket(u, v)
                proj = [g2.pair(br, w) for w in d1.basis()]
                assert all(c == 0 for c in proj)
        assert classify_metric(L, g2, J).skt
        assert v_tilde != al.orthogonal_complement(
            al.image_of_bracket(L), g.matrix
        )

    def test_non_unimodular_guard(self, j_std6, g_identity6):
        L = parse_salamon("(15,25,0,0,0,0)")
        with pytest.raises(PreconditionViolatedError) as err:
            kahler_from_skt_and_balanced_typeII(L, j_std6, g_identity6, g_identity6)
        assert err.value.hypothesis == "unimodular"

    def test_wrong_type_guard(self, cx_type_I, j_std6, g_identity6, ghat_type_I):
        with pytest.raises(PreconditionViolatedError):
            kahler_from_skt_and_balanced_typeII(cx_type_I, j_std6, g_identity6, ghat_type_I)


class TestUnitaryEndomorphismProperty:
    """Commuting form-compatible pairs with the linear relation are unitary."""

    @staticmethod
    def _in_sp(a, sigma):
        n = len(a)
        for i in range(n):
            for j in range(n):
                lhs = sum(sigma[k][j] * a[k][i] for k in range(n))
                rhs = sum(sigma[i][k] * a[k][j] for k in range(n))
                if lhs + rhs != 0:
                    return False
        return True

    @staticmethod
    def _is_unitary(a, j):
        n = len(a)
        aj = la.mat_mul(a, j)
        ja = la.mat_mul(j, a)
        if aj != ja:
            return False
        return la.transpose(a) == la.mat_scale(-1, a)

    def test_solutions_are_unitary(self):
        n = 4
        j = ComplexStructure.standard(n)
        sigma = la.mat_mul(la.transpose(j.matrix), la.identity_matrix(n))
        # linear system: both in sp(sigma), plus A1 + J A1 J + J A2 - A2 J = 0
        unknowns = 2 * n * n
        rows = []

        def entry_index(which, i, k):
            return which * n * n + i * n + k

        def add_rows(equations):
            rows.extend(equations)

        # sp condition: sigma A + A^T sigma = 0 entrywise, for each matrix
        for which in range(2):
            for i in range(n):
                for k in range(n):
                    row = [Q(0)] * unknowns
                    for t in range(n):
                        row[entry_index(which, t, k)] += sigma[i][t]
                        row[entry_index(which, t, i)] += sigma[t][k]
                    add_rows([tuple(row)])
        # linear relation
        jm = j.matrix
        for i in range(n):
            for k in range(n):
                row = [Q(0)] * unknowns
                row[entry_index(0, i, k)] += 1
                for p in range(n):
                    for q in range(n):
                        row[entry_index(0, p, q)] += jm[i][p] * jm[q][k]
                for p in range(n):
                    row[entry_index(1, p, k)] += jm[i][p]
                    row[entry_index(1, i, p)] -= jm[p][k]
                add_rows([tuple(row)])

        kernel = nullspace(tuple(rows))
        assert kernel, "linear system has no solutions at all"

        def in_kernel(a1, a2):
            flat = [c for row in a1 for c in row] + [c for row in a2 for c in row]
            return all(sum(a * b for a, b in zip(r, flat, strict=True)) == 0 for r in rows)

        rng = random.Random(31)
        # unitary commuting pairs satisfy the hypotheses outright ...
        engineered = 0
        for _ in range(30):
            def u2_block(a, b):
                j2 = ((Q(0), Q(-1)), (Q(1), Q(0)))
                z2 = ((Q(0), Q(0)), (Q(0), Q(0)))
                top = tuple(scale_vec(a, r) for r in j2)
                bot = tuple(scale_vec(b, r) for r in j2)
                return la.mat(
                    [tuple(top[i]) + tuple(z2[0]) for i in range(2)]
                    + [tuple(z2[0]) + tuple(bot[i]) for i in range(2)]
                )

            a1 = u2_block(Q(rng.randint(-2, 2), rng.randint(1, 2)), Q(rng.randint(-2, 2)))
            a2 = u2_block(Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2), rng.randint(1, 2)))
            assert in_kernel(a1, a2), "unitary commuting pair fails the hypotheses"
            assert la.mat_mul(a1, a2) == la.mat_mul(a2, a1)
            assert self._is_unitary(a1, jm) and self._is_unitary(a2, jm)
            engineered += 1
        assert engineered == 30

        # ... and any generic solution passing the commutation filter must
        # come out unitary as well
        for _ in range(300):
            coeffs = [Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in kernel]
            flat = [Q(0)] * unknowns
            for c, v in zip(coeffs, kernel):
                flat = [a + c * b for a, b in zip(flat, v)]
            a1 = la.mat([flat[i * n : (i + 1) * n] for i in range(n)])
            a2 = la.mat([flat[n * n + i * n : n * n + (i + 1) * n] for i in range(n)])
            assert self._in_sp(a1, sigma) and self._in_sp(a2, sigma)
            if la.mat_mul(a1, a2) != la.mat_mul(a2, a1):
                continue
            assert self._is_unitary(a1, jm) and self._is_unitary(a2, jm)

    def test_unitary_pairs_satisfy_hypotheses(self):
        # genuinely unitary commuting endomorphisms pass the filter
        n = 4
        j = ComplexStructure.standard(n)
        jm = j.matrix
        sigma = la.mat_mul(la.transpose(jm), la.identity_matrix(n))
        a1 = jm  # J itself is unitary
        a2 = la.mat_scale(Q(1, 2), jm)
        assert self._in_sp(a1, sigma) and self._in_sp(a2, sigma)
        relation = la.mat_add(
            la.mat_add(a1, la.mat_mul(jm, la.mat_mul(a1, jm))),
            la.mat_add(la.mat_mul(jm, a2), la.mat_scale(-1, la.mat_mul(a2, jm))),
        )
        assert la.is_zero_matrix(relation)
        assert self._is_unitary(a1, jm) and self._is_unitary(a2, jm)
