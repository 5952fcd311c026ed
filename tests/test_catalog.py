from fractions import Fraction

import pytest

from hermlie import algebra as al
from hermlie.catalog import named_algebra, verify_catalog, witness_lists
from hermlie.errors import (
    ConstraintViolatedError,
    JacobiFailedError,
    SalamonSyntaxError,
    UnboundParameterError,
    UnknownNameError,
)
from hermlie.salamon import parse_salamon, render_salamon

Q = Fraction


class TestParser:
    def test_affine(self, aff):
        assert parse_salamon("(0,21)") == aff

    def test_counterexample_string(self, cx_type_III):
        assert parse_salamon("(-15+16,-25+26,2.(35+46),2.(36+45),0,0)") == cx_type_III

    def test_parameter_binding(self):
        assert parse_salamon("(0,l.21+31,-21+l.31)", {"l": 0}) == parse_salamon("(0,31,-21)")

    def test_fraction_literals(self):
        L = parse_salamon("(25,-15,1/2.45,-1/2.35,0,0)")
        assert L == parse_salamon("(25,-15,l.45,-l.35,0,0)", {"l": Q(1, 2)})

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError):
            parse_salamon("(0,l.21)")

    def test_jacobi_rejection(self):
        with pytest.raises(JacobiFailedError):
            parse_salamon("(21,31,0)")

    @pytest.mark.parametrize(
        "bad", ["(0,2", "(0,21x)", "(0,11)", "(0,90)", "0,21)", "(0,21))", "(0,+21)", "(0,1/0.21)", "(0,1/00.21)"]
    )
    def test_syntax_errors_carry_position(self, bad):
        with pytest.raises(SalamonSyntaxError) as err:
            parse_salamon(bad)
        assert err.value.position >= 0

    @pytest.mark.parametrize(
        "bad,position,message",
        [
            ("(0,\u00b21)", 3, "expected a term"),  # a superscript as the pair's first digit
            ("(0,2\u00b9)", 4, "expected the second index digit"),
            ("(0,21,\u00b3.12,0)", 6, "expected a term"),  # and as a coefficient
            ("(0,21,1/\u00b3.12,0)", 8, "missing or zero denominator"),
        ],
    )
    def test_only_ascii_digits(self, bad, position, message):
        """str.isdigit takes superscript digits, which int() does not read:
        they are a syntax error at their position, not a bare ValueError."""
        with pytest.raises(SalamonSyntaxError, match=message) as err:
            parse_salamon(bad)
        assert err.value.position == position

    def test_whitespace_tolerated(self):
        assert parse_salamon("( 0 , 21 )").dim == 2


class TestRenderer:
    def test_abelian(self):
        assert render_salamon(al.abelian(3)) == "(0,0,0)"

    def test_affine(self, aff):
        assert render_salamon(aff) == "(0,21)"

    def test_heisenberg(self, h3):
        assert render_salamon(h3) == "(0,0,21)"

    def test_no_rendering_above_max_dim(self):
        from hermlie.errors import DimensionMismatchError
        from hermlie.salamon import MAX_DIM

        assert render_salamon(al.abelian(MAX_DIM)) == "(" + ",".join("0" * MAX_DIM) + ")"
        with pytest.raises(DimensionMismatchError):
            render_salamon(al.abelian(MAX_DIM + 1))

    def test_round_trip_table_and_witness_strings(self):
        strings = [
            ("(0,21)", {}),
            ("(0,0,21)", {}),
            ("(0,lambda.21+31,-21+lambda.31)", {"lambda": Q(1, 2)}),
            ("(0,21,mu.31,lambda.41)", {"mu": 1, "lambda": Q(1, 2)}),
            ("(0,mu.21,lambda.31+41,-31+lambda.41)", {"mu": 2, "lambda": Q(1, 3)}),
            ("(0,alpha.21+31,-21+alpha.31,beta.41+gamma.51,-gamma.41+alpha.51)",
             {"alpha": 0, "beta": 1, "gamma": Q(1, 2)}),
            ("(alpha.15+beta.16,gamma.25+delta.26,35,46,0,0)",
             {"alpha": 1, "beta": -1, "gamma": 1, "delta": 1}),
            ("(alpha.15+beta.16,26,gamma.35-45,gamma.45+35,0,0)",
             {"alpha": 1, "beta": 2, "gamma": 0}),
            ("(-15+16,-25+26,2.(35+46),2.(36+45),0,0)", {}),
            ("(-23,13,0,0,0,0)", {}),
            ("(-25,15,-46,36,0,0)", {}),
            ("(25,-15,46,-36,0,0)", {}),
            ("(-25-c.26,15+c.16,a1.35,a2.46,0,0)", {"c": 1, "a1": Q(1, 2), "a2": 2}),
            ("(-26,16,-c.46,c.36,a.56,0)", {"c": 1, "a": Q(1, 2)}),
            ("(-24,14,a.34,0,0,0)", {"a": Q(1, 2)}),
            ("(-25,15,34,0,0,0)", {}),
        ]
        for text, bindings in strings:
            L = parse_salamon(text, bindings)
            assert parse_salamon(render_salamon(L)) == L, text

    def test_round_trip_on_random_generated_algebras(self):
        from hermlie.generators import random_complex_shear
        from hermlie.shear import build_shear

        for seed in range(6):
            L = build_shear(random_complex_shear(seed, "typeI", 6)[0])
            assert parse_salamon(render_salamon(L)) == L


class TestNamedFamilies:
    def test_known_names(self):
        """The unknown-name error lists the known families."""
        with pytest.raises(UnknownNameError) as exc:
            named_algebra("no_such_family")
        known = str(exc.value).split("; known: ")[1].split(", ")
        assert set(known) >= {"aff_R", "h_3", "N_{6,1}", "g_{5,17}"}

    def test_r3_prime_at_zero(self):
        assert named_algebra("r'_{3,lambda}", {"lambda": 0}) == parse_salamon("(0,31,-21)")

    def test_unicode_and_superscript_names(self):
        assert named_algebra("r'_{3,λ}", {"lambda": 1}).dim == 3
        got = named_algebra(
            "N_{6,1}^{α,β,γ,δ}",
            {"alpha": 1, "beta": 1, "gamma": 1, "delta": 0},
        )
        assert got.dim == 6

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            named_algebra("so_3", {})

    def test_constraint_rows(self):
        with pytest.raises(ConstraintViolatedError):
            named_algebra("r_{4,mu,lambda}", {"mu": 1, "lambda": 2})
        with pytest.raises(ConstraintViolatedError):
            named_algebra("N_{6,1}", {"alpha": Q(-1, 2), "beta": Q(-1, 2), "gamma": 0, "delta": 0})
        with pytest.raises(ConstraintViolatedError):
            named_algebra("g_{5,17}", {"alpha": 0, "beta": 0, "gamma": 0})
        with pytest.raises(ConstraintViolatedError):
            named_algebra("r'_{4,mu,lambda}", {"mu": -1, "lambda": 1})
        with pytest.raises(ConstraintViolatedError):
            named_algebra("g_{6,11}", {"alpha": 0, "beta": 1, "gamma": 1, "delta": 1})
        with pytest.raises(ConstraintViolatedError):
            named_algebra("N_{6,14}", {"alpha": 0, "beta": 1, "gamma": 1})

    def test_valid_instances_parse(self):
        assert named_algebra("r_{4,mu,lambda}", {"mu": 1, "lambda": Q(1, 2)}).dim == 4
        assert named_algebra("g_{5,17}", {"alpha": 0, "beta": 0, "gamma": Q(1, 2)}).dim == 5
        assert named_algebra("g_{6,11}", {"alpha": 1, "beta": 0, "gamma": 0, "delta": 1}).dim == 6
        assert named_algebra("N_{6,14}", {"alpha": 1, "beta": 1, "gamma": 0}).dim == 6

    def test_missing_parameters(self):
        with pytest.raises(ConstraintViolatedError):
            named_algebra("r'_{3,lambda}", {})


class TestWitnessLists:
    def test_all_verdicts_reproduce(self):
        rows = verify_catalog()
        assert rows and all(ok for _, _, ok in rows)

    def test_expected_families_present(self):
        names = [e.name for e in witness_lists()]
        assert any("aff_R + h_3 + R" in n for n in names)
        assert any("N_{6,1}-type" in n for n in names)
        assert any("codimension-two" in n for n in names)
        assert sum("r'" in n or "aff" in n or "R^6" in n or "g_{" in n or "N_{" in n for n in names) >= 11

    def test_counterexample_entry_verdicts(self):
        entry = next(e for e in witness_lists() if "aff_R + h_3" in e.name)
        by_label = {w.label: w.expected for w in entry.witnesses}
        assert by_label["standard"] == {"kahler": False, "balanced": False, "skt": True}
        assert by_label["tilted frame"] == {"kahler": False, "balanced": True, "skt": False}
        assert "affine blocks" in entry.notes

    def test_kahler_entries_have_true_witness(self):
        for e in witness_lists():
            if "codimension-two" in e.name:
                assert any(w.expected["skt"] for w in e.witnesses)

    def test_round_trip_every_entry(self):
        for e in witness_lists():
            assert parse_salamon(render_salamon(e.algebra)) == e.algebra

    def test_cross_reference_between_presentations(self):
        from hermlie.hermitian import fingerprint_distinguish

        padded = al.direct_sum(parse_salamon("(0,31,-21)"), al.abelian(3))
        six = parse_salamon("(-23,13,0,0,0,0)")
        assert fingerprint_distinguish(padded, six) == "inconclusive"
