from fractions import Fraction

import pytest

from hermlie import algebra as al
from hermlie import forms as fm
from hermlie.errors import ParameterConstraintViolatedError
from hermlie.hermitian import (
    Metric,
    classify_metric,
    fingerprint_distinguish,
    hermitian_decomposition,
    is_integrable,
)
from hermlie.normal_forms import (
    Cq,
    KahlerNormalForm,
    SixDNonPureData,
    TypeIINormalForm,
    kahler_normal_form,
    skt_6d_nonpure_normal_form,
    skt_typeII_normal_form,
)
from hermlie.salamon import parse_salamon

Q = Fraction


class TestKahlerNormalForm:
    def test_type_I_affine(self, aff):
        L, g, J = kahler_normal_form(KahlerNormalForm("I", 0, 1, 0, lambdas=(Q(1),)))
        assert classify_metric(L, g, J).kahler
        assert fingerprint_distinguish(L, aff) == "inconclusive"
        assert al.image_of_bracket(L).dim == 1

    def test_type_II_reproduces_listed_algebra(self):
        params = KahlerNormalForm(
            "II", 1, 0, 2, alphas=((),), betas=((Q(1), Q(0), Q(0), Q(0)),), lambdas=()
        )
        L, g, J = kahler_normal_form(params)
        assert L == parse_salamon("(-23,13,0,0,0,0)")
        assert classify_metric(L, g, J).kahler

    def test_type_III_small(self):
        params = KahlerNormalForm("III", 1, 1, 0, alphas=((Q(1),),), betas=((),), lambdas=(Q(1),))
        L, g, J = kahler_normal_form(params)
        assert L.dim == 4 and classify_metric(L, g, J).kahler

    @pytest.mark.parametrize(
        "params",
        [
            KahlerNormalForm("I", 0, 1, 0, lambdas=(Q(0),)),
            KahlerNormalForm("II", 1, 0, 1, alphas=((),), betas=((Q(0), Q(0)),), lambdas=()),
            KahlerNormalForm("III", 1, 1, 0, alphas=((Q(0),),), betas=((),), lambdas=(Q(1),)),
            KahlerNormalForm("III", 1, 1, 0, alphas=((Q(1),),), betas=((),), lambdas=(Q(0),)),
            KahlerNormalForm("I", 1, 1, 0, alphas=((Q(1),),), betas=((),), lambdas=(Q(1),)),
        ],
    )
    def test_constraint_guards(self, params):
        with pytest.raises(ParameterConstraintViolatedError):
            kahler_normal_form(params)

    def test_general_type_with_all_parts(self):
        params = KahlerNormalForm(
            "general", 1, 1, 1,
            alphas=((Q(2),),), betas=((Q(1), Q(0)),), lambdas=(Q(-1),),
        )
        L, g, J = kahler_normal_form(params)
        assert classify_metric(L, g, J).kahler
        dec = hermitian_decomposition(L, g, J)
        assert dec.pure_type == "mixed"


class TestTypeIISKTNormalForm:
    def test_rank_two_codimension_two(self):
        params = TypeIINormalForm(
            2, 1, 2, alphas=((Q(-1), Q(0)), (Q(0), Q(-1))), zs=(Cq(0), Cq(0))
        )
        L, g, J = skt_typeII_normal_form(params)
        assert L == parse_salamon("(25,-15,46,-36,0,0)")
        assert classify_metric(L, g, J).skt

    @pytest.mark.parametrize("lam", [Q(1, 4), Q(1, 2), Q(1)])
    def test_rank_one_family(self, lam):
        params = TypeIINormalForm(
            2, 1, 2, alphas=((Q(-1), Q(0)), (-lam, Q(0))), zs=(Cq(0), Cq(0))
        )
        L, g, J = skt_typeII_normal_form(params)
        assert L == parse_salamon("(25,-15,l.45,-l.35,0,0)", {"l": lam})
        assert classify_metric(L, g, J).skt

    def test_matched_pair_and_perturbation(self):
        u12 = fm.form_from_terms(4, 2, [((1, 2), 1)])
        u34 = fm.form_from_terms(4, 2, [((3, 4), 1)])
        psi_re = fm.form_from_terms(4, 2, [((1, 3), 1), ((2, 4), -1)])
        psi_im = fm.form_from_terms(4, 2, [((1, 4), 1), ((2, 3), 1)])
        # phi = (2 u12 + u34) + i u12 has total volume 4, matching psi
        phi = (u12.scale(2) + u34, u12)
        params = TypeIINormalForm(1, 2, 0, phis=(phi,), psis=((psi_re, psi_im),))
        L, g, J = skt_typeII_normal_form(params)
        assert classify_metric(L, g, J).skt

        bad_phi = (u12.scale(2) + u34.scale(2), u12)
        bad = TypeIINormalForm(1, 2, 0, phis=(bad_phi,), psis=((psi_re, psi_im),))
        with pytest.raises(ParameterConstraintViolatedError) as err:
            skt_typeII_normal_form(bad)
        assert err.value.constraint == "sum constraint"
        L2, g2, J2 = skt_typeII_normal_form(bad, _validate=False)
        assert not classify_metric(L2, g2, J2).skt

    def test_psi_must_be_of_type_20(self):
        """conj(psi), of type (0,2), and an invariant (1,1) form are rejected."""
        u12 = fm.form_from_terms(4, 2, [((1, 2), 1)])
        psi_re = fm.form_from_terms(4, 2, [((1, 3), 1), ((2, 4), -1)])
        psi_im = fm.form_from_terms(4, 2, [((1, 4), 1), ((2, 3), 1)])
        for bad_psi in ((psi_re, psi_im.scale(-1)), (u12, fm.zero_form(4, 2))):
            bad = TypeIINormalForm(1, 2, 0, phis=((u12, u12),), psis=(bad_psi,))
            with pytest.raises(ParameterConstraintViolatedError) as err:
                skt_typeII_normal_form(bad)
            assert err.value.constraint == "psi type"

    def test_dependent_parts_rejected(self):
        # real and imaginary parts proportional: the bracket image is a
        # real line, so the derived algebra is not complex
        u12 = fm.form_from_terms(4, 2, [((1, 2), 1)])
        z4 = fm.zero_form(4, 2)
        bad = TypeIINormalForm(1, 2, 0, phis=((u12, u12.scale(2)),), psis=((z4, z4),))
        with pytest.raises(ParameterConstraintViolatedError) as err:
            skt_typeII_normal_form(bad)
        assert err.value.constraint == "independence constraint"

    def test_nonzero_z_still_skt(self):
        params = TypeIINormalForm(
            1, 1, 1, alphas=((Q(1), Q(0)),), zs=(Cq(Q(1), Q(-1, 2)),)
        )
        L, g, J = skt_typeII_normal_form(params)
        v = classify_metric(L, g, J)
        assert v.skt
        dec = hermitian_decomposition(L, g, J)
        assert dec.pure_type == "II"

    def test_wrong_form_types_rejected(self):
        u13 = fm.form_from_terms(4, 2, [((1, 3), 1)])  # not J-invariant
        z4 = fm.zero_form(4, 2)
        with pytest.raises(ParameterConstraintViolatedError) as err:
            skt_typeII_normal_form(TypeIINormalForm(1, 2, 0, phis=((u13, z4),), psis=((z4, z4),)))
        assert err.value.constraint == "phi type"


class TestSixDNonPure:
    def test_basic_valid(self):
        d = SixDNonPureData(b=(Q(1), Q(0), Q(0), Q(0)), deltas=(1, 0, 0), z=(Cq(Q(-1, 2)), Cq(0), Cq(0)))
        L, J = skt_6d_nonpure_normal_form(d)
        assert L.validated and is_integrable(L, J)
        dec = hermitian_decomposition(L, Metric.identity(6), J)
        assert (dec.s, dec.r, dec.ell) == (1, 1, 1) and dec.pure_type == "mixed"
        # the torsion verdict for the standard metric is reported, not asserted
        assert classify_metric(L, Metric.identity(6), J).skt in (True, False)

    @pytest.mark.parametrize("a", [Q(1, 2), Q(1), Q(2)])
    def test_almost_abelian_family(self, a):
        d = SixDNonPureData(b=(a, Q(0), Q(0), Q(0)), z=(Cq(0, 1), Cq(0), Cq(0)))
        L, J = skt_6d_nonpure_normal_form(d)
        assert L == parse_salamon("(-24,14,a.34,0,0,0)", {"a": a})
        assert classify_metric(L, Metric.identity(6), J).kahler

    def test_second_family_presentation(self):
        d = SixDNonPureData(b=(Q(1), Q(0), Q(0), Q(0)), z=(Cq(0, 1), Cq(0, 1), Cq(0)))
        L, J = skt_6d_nonpure_normal_form(d)
        assert classify_metric(L, Metric.identity(6), J).kahler
        # same algebra as the listed string, up to basis change: the
        # necessary invariants agree
        assert fingerprint_distinguish(L, parse_salamon("(-25,15,34,0,0,0)")) == "inconclusive"

    def test_quadratic_constraint_guard(self):
        with pytest.raises(ParameterConstraintViolatedError) as err:
            skt_6d_nonpure_normal_form(
                SixDNonPureData(b=(Q(1), Q(1), Q(0), Q(0)), z=(Cq(0, 1), Cq(0), Cq(0)))
            )
        assert err.value.constraint == "quadratic constraint"

    def test_z0_vanishing_guards(self):
        # z0 = 0 with some b nonzero among the first three
        with pytest.raises(ParameterConstraintViolatedError):
            skt_6d_nonpure_normal_form(SixDNonPureData(b=(Q(1), Q(0), Q(0), Q(0))))
        # z0 = 0 with b = (0,0,0,1): constraints hold but the table has a
        # totally real derived algebra, so the non-pure check rejects it
        with pytest.raises(ParameterConstraintViolatedError) as err:
            skt_6d_nonpure_normal_form(SixDNonPureData(b=(Q(0), Q(0), Q(0), Q(1))))
        assert err.value.constraint == "non-pure decomposition"

    def test_real_part_constraint(self):
        with pytest.raises(ParameterConstraintViolatedError) as err:
            skt_6d_nonpure_normal_form(
                SixDNonPureData(b=(Q(1), Q(0), Q(0), Q(0)), deltas=(1, 0, 0), z=(Cq(1), Cq(0), Cq(0)))
            )
        assert err.value.constraint == "real part constraint"

    def test_nontrivial_w_with_jacobi(self):
        # w aligned with (b - z) keeps the closure conditions linear-solvable
        b0 = Q(1)
        z0 = Cq(0, 1)
        u = Cq(Q(1, 2), Q(1))
        w0 = (Cq(b0) - z0) * u
        d = SixDNonPureData(
            b=(b0, Q(0), Q(0), Q(0)), z=(z0, Cq(0), Cq(0)),
            w=(w0, Cq(0), Cq(0), Cq(0), Cq(0), Cq(0)),
        )
        L, J = skt_6d_nonpure_normal_form(d)
        assert L.validated and is_integrable(L, J)
