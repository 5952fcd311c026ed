import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hermlie import algebra as al
from hermlie import core
from hermlie.errors import IncompatibleMetricError, NotIntegrableError
from hermlie.generators import random_complex_shear
from hermlie.forms import ce_differential, form_power, j_pullback
from hermlie.hermitian import (
    ComplexStructure,
    Metric,
    balanced_inverse_form,
    classify_metric,
    fundamental_form,
)
from hermlie.salamon import parse_salamon
from hermlie.search import (
    SearchConfig,
    _Problem,
    metric_parameterization,
    residual,
    search_metric,
)
from hermlie.shear import build_shear

Q = Fraction


def identity_float(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


class TestMetricParameterization:
    def test_dimension_two(self):
        p = metric_parameterization(al.abelian(2), ComplexStructure.standard(2))
        assert len(p.basis) == 1

    def test_dimension_four(self):
        p = metric_parameterization(al.abelian(4), ComplexStructure.standard(4))
        assert len(p.basis) == 4

    def test_dimension_six_nonstandard_pairing(self):
        J = ComplexStructure.from_pairs(6, [(1, 2), (3, 5), (4, 6)])
        p = metric_parameterization(al.abelian(6), J)
        assert len(p.basis) == 9
        jt = al.linalg.transpose(J.matrix)
        for b in p.basis:
            assert al.linalg.mat_mul(jt, al.linalg.mat_mul(b, J.matrix)) == b

    @staticmethod
    def _reference(J):
        p = metric_parameterization(al.abelian(J.dim), J)
        s = None
        for c, b in zip(p.reference, p.basis):
            term = al.linalg.mat_scale(c, b)
            s = term if s is None else al.linalg.mat_add(s, term)
        return s

    def test_reference_is_identity(self):
        assert self._reference(ComplexStructure.standard(4)) == al.linalg.identity_matrix(4)

    def test_reference_for_a_non_orthogonal_j(self):
        """(I + J^T J) / 2 is compatible and definite when the identity is not."""
        la = al.linalg
        J = ComplexStructure(la.mat([[1, -2, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]))
        s = self._reference(J)
        assert s == la.mat([["3/2", "-3/2", 0, 0], ["-3/2", 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        Metric(s).sigma_ints(J)  # definite and compatible


def _kform_residual(L, J, s, kind):
    """The residual on the public KForm operators, as a reference."""
    sigma = fundamental_form(L, Metric(s), J)
    form = {
        "kahler": lambda: ce_differential(L, sigma),
        "balanced": lambda: ce_differential(L, form_power(sigma, L.dim // 2 - 1)),
        "skt": lambda: ce_differential(L, j_pullback(J.matrix, ce_differential(L, sigma))),
    }[kind]()
    return float(sum(c * c for c in form.coeffs.values()))


class TestResidual:
    def test_counterexample_values(self, cx_type_I, j_std6):
        i6 = identity_float(6)
        assert residual(cx_type_I, j_std6, i6, "skt") == 0.0
        assert residual(cx_type_I, j_std6, i6, "balanced") > 0
        assert residual(cx_type_I, j_std6, i6, "kahler") > 0

    def test_abelian_zero(self, j_std6):
        assert residual(al.abelian(6), j_std6, identity_float(6), "balanced") == 0.0

    def test_incompatible_rejected(self, cx_type_I, j_std6):
        s = identity_float(6)
        s[0][0] = 2.0
        with pytest.raises(IncompatibleMetricError):
            residual(cx_type_I, j_std6, s, "kahler")

    def test_agrees_with_exact_verdicts(self):
        """Zero residual exactly iff the exact condition holds (200 cases).

        ``residual`` and ``classify_metric`` share ``condition_form``, so this
        checks their plumbing, not the map; the independent checks of the map
        are the KForm reference in ``test_float_map_matches_exact_residual``
        and the shear-data oracle (``test_core``, verify-paper criterion 3)."""
        rng = random.Random(99)
        checked = 0
        seed = 0
        while checked < 200:
            profile = ("typeI", "typeII", "typeIII", "mixed")[checked % 4]
            dim = 6 if profile == "mixed" else (4, 6)[checked % 2]
            data, g, J = random_complex_shear(seed, profile, dim)
            seed += 1
            L = build_shear(data)
            v = classify_metric(L, g, J)
            s_float = [[float(c) for c in row] for row in g.matrix]
            for kind in ("kahler", "balanced", "skt"):
                r = residual(L, J, s_float, kind)
                assert (r == 0.0) == v[kind], (profile, seed, kind)
            checked += 1


    @pytest.mark.parametrize("kind", ["kahler", "balanced", "skt"])
    def test_float_map_matches_exact_residual(self, kind):
        """The search's float condition map is the exact one, rounded; the
        basis change gives J and the brackets denominators other than 1.

        Balanced searches the inverse metric H, so its exact map is
        ``balanced_inverse_form``; that map is tied to the KForm route by
        ``test_hermitian``'s proportionality test."""
        data, _, j0 = random_complex_shear(0, "typeIII", 6)
        la = al.linalg
        # a rotation by (3/5, 4/5) in the (e1, e3) plane: orthogonal, so the
        # identity stays a compatible metric
        p = [[int(i == j) for j in range(6)] for i in range(6)]
        p[0][0], p[0][2], p[2][0], p[2][2] = Q(3, 5), Q(-4, 5), Q(4, 5), Q(3, 5)
        p = la.mat(p)
        L = al.change_basis(build_shear(data), p)
        J = ComplexStructure(la.mat_mul(la.inverse(p), la.mat_mul(j0.matrix, p)))
        assert L.ints.den > 1 and J.ints[1] > 1
        problem = _Problem(L, J, kind)
        rng = np.random.default_rng(3)
        reference = np.array([float(c) for c in problem.param.reference])
        for _ in range(5):
            x = reference + 0.05 * rng.standard_normal(problem.m)
            s = [
                [sum(Q(c) * b[i][j] for c, b in zip(x, problem.param.basis)) for j in range(6)]
                for i in range(6)
            ]
            if kind == "balanced":
                out, den = balanced_inverse_form(L, J, *core.clear_matrix(s))
                exact = float(Q(sum(c * c for c in out.values()), den * den))
            else:
                exact = residual(L, J, s, kind)
                assert exact == _kform_residual(L, J, s, kind)
            assert exact > 0
            assert problem.evaluate(x[None, :], 0.0).res[0] == pytest.approx(exact, rel=1e-9)


class TestSearch:
    def test_kahler_witness_found_and_certified(self, j_std6):
        L = parse_salamon("(25,-15,46,-36,0,0)")
        result = search_metric(L, j_std6, "kahler")
        assert result.status == "found"
        assert result.residual < 1e-9
        assert result.exact_verified
        assert classify_metric(L, Metric(result.exact_metric), j_std6).kahler

    def test_skt_witness_on_counterexample(self, cx_type_I, j_std6):
        result = search_metric(cx_type_I, j_std6, "skt")
        assert result.status == "found" and result.exact_verified

    def test_inconclusive_on_nonexistent(self, cx_type_I, j_std6):
        config = SearchConfig(seeds=(0, 1), max_iterations=300)
        result = search_metric(cx_type_I, j_std6, "kahler", config)
        assert result.status == "not_found"

    def test_determinism(self, cx_type_I, j_std6):
        a = search_metric(cx_type_I, j_std6, "skt")
        b = search_metric(cx_type_I, j_std6, "skt")
        assert a == b

    def test_iterates_stay_positive_definite(self, cx_type_I, j_std6):
        # every reported metric, found or best-effort, is positive definite
        for kind in ("kahler", "balanced", "skt"):
            result = search_metric(
                cx_type_I, j_std6, kind, SearchConfig(seeds=(0,), max_iterations=200)
            )
            if result.metric is not None:
                eigs = np.linalg.eigvalsh(np.array(result.metric))
                assert eigs[0] > 0

    def test_requires_integrable(self, cx_type_III, j_std6):
        with pytest.raises(NotIntegrableError):
            search_metric(cx_type_III, j_std6, "kahler")

    def test_no_runtime_warning_on_infeasible_kahler(self, cx_type_III, j_type_III):
        """Descent towards the cone's boundary stays clear of inf - inf and log(0)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = search_metric(
                cx_type_III, j_type_III, "kahler", SearchConfig(seeds=(0, 1, 2, 3))
            )
        assert result.status == "not_found"


GRADIENT_ALGEBRAS = {
    "typeIII-d4": lambda: build_shear(random_complex_shear(0, "typeIII", 4)[0]),
    "typeI-d6": lambda: parse_salamon("(0,21,0,0,43,0)"),
    "typeI-d8": lambda: build_shear(random_complex_shear(0, "typeI", 8)[0]),
}


@pytest.mark.parametrize("mu", [0.0, 1e-2])
@pytest.mark.parametrize(
    "algebra,kind",
    [
        ("typeIII-d4", "kahler"),
        ("typeI-d6", "kahler"),
        ("typeI-d6", "skt"),
        ("typeI-d6", "balanced"),
        ("typeI-d8", "balanced"),
    ],
)
def test_gradient_matches_central_differences(algebra, kind, mu):
    """The analytic gradient tracks central differences of the objective."""
    L = GRADIENT_ALGEBRAS[algebra]()
    problem = _Problem(L, ComplexStructure.standard(L.dim), kind)
    rng = np.random.default_rng(5)
    reference = np.array([float(c) for c in problem.param.reference])
    for _ in range(5):
        x = reference + 0.1 * rng.standard_normal(problem.m)
        exact = problem.gradient(problem.evaluate(x[None, :], mu).row(0), mu)
        steps = 1e-6 * np.maximum(1.0, np.abs(x))
        shifts = np.diag(steps)
        f = problem.evaluate(np.concatenate([x + shifts, x - shifts]), mu).f
        assert np.all(np.isfinite(f))
        fd = (f[: problem.m] - f[problem.m :]) / (2 * steps)
        denom = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(fd - exact) / denom) < 1e-5
