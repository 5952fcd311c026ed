import functools
import hashlib
import itertools
import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hermlie import algebra as al
from hermlie import core
from hermlie.catalog import witness_lists
from hermlie.documents import load_algebra, load_complex_structure, load_shear_data
from hermlie.errors import IncompatibleMetricError, InvalidMetricError, NotIntegrableError, UnsupportedDimensionError
from hermlie.generators import PROFILES, random_compatible_metric, random_complex_shear, random_unitary
from hermlie.forms import ce_differential, form_from_terms, form_power, j_pullback
from hermlie.hermitian import (
    KINDS,
    ComplexStructure,
    Metric,
    balanced_inverse_form,
    classify_metric,
    condition_form,
    condition_kernel,
    coordinate_basis,
    fundamental_form,
    is_integrable,
    kernel_span,
    sigma_of,
    squared_norm,
)
from hermlie.salamon import parse_salamon
from hermlie.search import (
    SearchConfig,
    _derivatives,
    _solve,
    _trace_slice,
    check_certificate,
    metric_parameterization,
    search_metric,
)
from hermlie.shear import _shear_map, build_shear, pre_shear_from_bracket, shear_kernel
from hermlie import search as search_module

from conftest import commuting_change, nullspace

Q = Fraction


def solve(L, J, kind, config=None):
    """The solver alone on the search's kernel, past the projection and the
    faces, which decide every search these tests make."""
    return _solve(L, J, kind, condition_kernel(L, J, kind), config)


def identity_float(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def residual(L, J, s, kind):
    """The squared norm of ``condition_form`` (d(sigma^(n-1)) for balanced)
    on the metric whose entries ``s`` are read exactly, as ``Metric`` reads
    them: 0.0 precisely when the condition holds."""
    return squared_norm(condition_form(L, J, *Metric(s).sigma_ints(J), kind))


class TestMetricParameterization:
    def test_dimension_two(self):
        assert len(metric_parameterization(al.abelian(2), ComplexStructure.standard(2))) == 1

    def test_dimension_four(self):
        assert len(metric_parameterization(al.abelian(4), ComplexStructure.standard(4))) == 4

    def test_dimension_six_nonstandard_pairing(self):
        J = ComplexStructure.from_pairs(6, [(1, 2), (3, 5), (4, 6)])
        basis = metric_parameterization(al.abelian(6), J)
        assert len(basis) == 9
        jt = al.linalg.transpose(J.matrix)
        for b in basis:
            assert al.linalg.mat_mul(jt, al.linalg.mat_mul(b, J.matrix)) == b


class TestCoordinateBasis:
    """J keeps its compatible basis and its transpose's, so the kernels of
    both routes and the certificate check build each basis once per J."""

    def test_each_kind_reads_a_kept_basis(self):
        J = ComplexStructure.from_pairs(6, [(1, 2), (3, 5), (4, 6)])
        for kind in KINDS:
            assert coordinate_basis(J, kind) is coordinate_basis(J, kind), kind
        assert coordinate_basis(J, "kahler") is coordinate_basis(J, "skt") is J.compatible_basis
        assert J.transpose is J.transpose
        assert J.transpose.matrix == al.linalg.transpose(J.matrix)
        assert coordinate_basis(J, "balanced") is J.transpose.compatible_basis
        with pytest.raises(ValueError):
            coordinate_basis(J, "hermitian")

    @staticmethod
    def _count_bases(monkeypatch):
        """The matrix of each J whose compatible basis is built from now on."""
        built, build = [], ComplexStructure.compatible_basis.func

        def counted(J):
            built.append(J.matrix)
            return build(J)

        prop = functools.cached_property(counted)
        prop.__set_name__(ComplexStructure, "compatible_basis")
        monkeypatch.setattr(ComplexStructure, "compatible_basis", prop)
        return built

    def test_certificate_check_builds_one_basis(self, cx_type_I, monkeypatch):
        y = search_metric(cx_type_I, ComplexStructure.standard(6), "kahler").certificate
        built = self._count_bases(monkeypatch)
        assert check_certificate(cx_type_I, ComplexStructure.standard(6), "kahler", y)
        assert len(built) == 1

    def test_both_routes_build_two_bases_per_instance(self, monkeypatch):
        """Every kernel of both routes, as criterion 3 takes them, from one
        basis of J and one of J^T."""
        data, _, J = random_complex_shear(0, "typeI", 6)
        L = build_shear(data)
        built = self._count_bases(monkeypatch)
        for kind in KINDS:
            assert kernel_span(shear_kernel(data, J, kind)) == kernel_span(condition_kernel(L, J, kind)), kind
        assert built == [J.matrix, J.transpose.matrix]


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
        are the KForm reference in ``test_matches_the_kform_route``
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
    def test_kernel_is_exact_zero_on_kform_route(self, kind):
        """Every matrix of the search's exact kernel satisfies the condition
        on the public KForm operators; the basis change gives J and the
        brackets denominators other than 1.

        Balanced is linear in H = G^-1, so there the kernel matrices move a
        known balanced H0 and sigma^(n-1) of each (H0 + eps M)^-1 is closed."""
        la = al.linalg
        L, J, tilted = _rotated_type_III()
        kernel = condition_kernel(L, J, kind)
        assert kernel
        for m in kernel:
            if kind == "balanced":
                h0 = la.inverse(tilted.matrix)
                eps = Q(1, 2 * max(abs(c) for row in m for c in row))
                while True:
                    try:
                        g = Metric(la.inverse(la.mat_add(h0, la.mat_scale(eps, m))))
                        break
                    except InvalidMetricError:
                        eps /= 2
                sigma = fundamental_form(L, g, J)
                assert ce_differential(L, form_power(sigma, 2)).is_zero()
                continue
            sigma = _sigma_form(J, m)
            d = ce_differential(L, sigma)
            if kind == "kahler":
                assert d.is_zero()
            else:
                assert ce_differential(L, j_pullback(J.matrix, d)).is_zero()


    @pytest.mark.parametrize("kind", ["kahler", "balanced", "skt"])
    def test_matches_the_kform_route(self, kind):
        """``residual`` equals the squared norm of the condition on the
        public KForm operators, on metrics with denominators other than 1."""
        L, J, _ = _rotated_type_III()
        rng = random.Random(3)
        for _ in range(5):
            s = random_compatible_metric(6, J, rng).matrix
            exact = residual(L, J, s, kind)
            assert exact > 0 and exact == _kform_residual(L, J, s, kind)


def _rotated_type_III():
    """The type III counterexample with its J and its balanced tilted
    metric, after a rotation by (3/5, 4/5) in the (e1, e3) plane, which
    gives J and the brackets denominators other than 1."""
    la = al.linalg
    L0 = parse_salamon("(-15+16,-25+26,2.(35+46),2.(36+45),0,0)")
    j0 = ComplexStructure.from_pairs(6, [(1, 2), (3, 5), (4, 6)])
    frame = [
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1),
    ]
    tilted = Metric.from_orthonormal_frame(frame)  # balanced for j0
    p = [[int(i == j) for j in range(6)] for i in range(6)]
    p[0][0], p[0][2], p[2][0], p[2][2] = Q(3, 5), Q(-4, 5), Q(4, 5), Q(3, 5)
    p = la.mat(p)
    L = al.change_basis(L0, p)
    J = ComplexStructure(la.mat_mul(la.inverse(p), la.mat_mul(j0.matrix, p)))
    assert L.ints.den > 1 and J.ints[1] > 1
    return L, J, Metric(la.mat_mul(la.transpose(p), la.mat_mul(tilted.matrix, p)))


def _sigma_form(J, s):
    """sigma(x, y) = s(Jx, y) for any symmetric s, as a KForm."""
    la = al.linalg
    m = la.mat_mul(la.transpose(J.matrix), la.mat(s))
    n = len(m)
    return form_from_terms(n, 2, [((a + 1, b + 1), m[a][b]) for a in range(n) for b in range(a + 1, n)])


def _compatible_space(J):
    """A basis of {S symmetric : J^T S J = S} from a Fraction nullspace of its own."""
    la = al.linalg
    jm, n = J.matrix, J.dim
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    rows = [
        [
            jm[i][a] * jm[j][b] + (jm[j][a] * jm[i][b] if i != j else 0) - ((i, j) == (a, b))
            for i, j in slots
        ]
        for a, b in slots
    ]
    basis = []
    for sol in nullspace(rows):
        s = [[Q(0)] * n for _ in range(n)]
        for (i, j), c in zip(slots, sol):
            s[i][j] = s[j][i] = c
        basis.append(s)
    return basis


def recheck_none(L, J, kind, Y):
    """An exact check of a non-existence certificate that shares nothing with
    the solver: Y is symmetric, nonzero, has no negative principal minor,
    and is orthogonal to a kernel computed here on the KForm route (on the
    linear H-map ``balanced_inverse_form`` for balanced)."""
    la = al.linalg
    Y = la.mat(Y)
    n = len(Y)
    assert Y == la.transpose(Y) and not la.is_zero_matrix(Y)
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            assert la.det([[Y[i][j] for j in idx] for i in idx]) >= 0, idx
    if kind == "balanced":
        space = _compatible_space(ComplexStructure(la.transpose(J.matrix)))
        images = []
        for h in space:
            nums, den = balanced_inverse_form(L, J, *core.clear_matrix(h))
            images.append({k: Q(c, den) for k, c in nums.items()})
    else:
        space = _compatible_space(J)
        images = []
        for s in space:
            d = ce_differential(L, _sigma_form(J, s))
            if kind == "skt":
                d = ce_differential(L, j_pullback(J.matrix, d))
            images.append(d.coeffs)
    keys = sorted(set().union(*images))
    if keys:
        combos = nullspace([[img.get(key, 0) for img in images] for key in keys])
    else:
        combos = la.identity_matrix(len(space))
    for c in combos:
        x = [[sum(ci * s[i][j] for ci, s in zip(c, space)) for j in range(n)] for i in range(n)]
        assert sum(Y[i][j] * x[i][j] for i in range(n) for j in range(n)) == 0


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

    def test_certified_none_on_nonexistent(self, cx_type_I, j_std6):
        result = search_metric(cx_type_I, j_std6, "kahler", SearchConfig(seeds=(0, 1)))
        assert result.status == "none" and result.metric is None
        recheck_none(cx_type_I, j_std6, "kahler", result.certificate)

    def test_inconclusive_when_capped(self, cx_type_I, j_std6, monkeypatch):
        """Too few Newton steps to conclude: not_found, no certificate."""
        monkeypatch.setattr(search_module, "MAX_ITERATIONS", 3)
        result = solve(cx_type_I, j_std6, "kahler", SearchConfig(seeds=(0, 1)))
        assert result.status == "not_found" and result.certificate is None
        assert result.iterations == 6

    def test_no_further_seed_after_phase_one_concludes(self, cx_type_I, j_std6):
        """A Phase I that concludes with s >= 0 ends the solver's search:
        every seed follows the same central path, so a further seed would
        fail the same way."""
        one = solve(cx_type_I, j_std6, "kahler", SearchConfig(seeds=(0,)))
        four = solve(cx_type_I, j_std6, "kahler", SearchConfig(seeds=(0, 1, 2, 3)))
        assert one.status == four.status == "not_found"
        assert four.iterations == one.iterations < search_module.MAX_ITERATIONS

    def test_definite_start_takes_no_phase_one_step(self, cx_type_I, j_std6, monkeypatch):
        """These starts are already definite, so Phase I ends before its
        first Newton step: every step is a centring step on the slice's
        len(kernel) - 1 directions, none on the system augmented by s."""
        sizes = []
        step = search_module._newton_step

        def counted(base, dirs, u, cost):
            sizes.append(len(dirs))
            return step(base, dirs, u, cost)

        monkeypatch.setattr(search_module, "_newton_step", counted)
        for kind in ("skt", "balanced"):
            sizes.clear()
            result = solve(cx_type_I, j_std6, kind)
            assert result.status == "found" and result.exact_verified
            assert sizes == [len(condition_kernel(cx_type_I, j_std6, kind)) - 1] * result.iterations

    def test_one_step_from_a_definite_start_finds(self, j_std6, monkeypatch):
        """With a single Newton step the two-r3 Kahler search still finds and
        certifies its witness: the definite start needs no Phase-I step."""
        L = parse_salamon("(25,-15,46,-36,0,0)")
        monkeypatch.setattr(search_module, "MAX_ITERATIONS", 1)
        result = solve(L, j_std6, "kahler", SearchConfig(seeds=(0,)))
        assert result.status == "found" and result.exact_verified and result.iterations == 1

    @pytest.mark.parametrize("algebra,J", [("cx_type_I", "j_std6"), ("cx_type_III", "j_type_III")])
    def test_infeasible_phase_one_keeps_its_steps(self, algebra, J, request):
        """No start is definite where no metric exists: Phase I runs its
        whole central path, 79 Newton steps, and the solver, which only
        finds, ends not_found."""
        L, J = request.getfixturevalue(algebra), request.getfixturevalue(J)
        result = solve(L, J, "kahler")
        assert result.status == "not_found" and result.iterations == 79 and result.certificate is None

    def test_hopf_surface_is_certified(self):
        """su(2) + R carries no Kahler and no balanced metric (in dimension 4
        they agree); its kernels are one matrix each, so the solver's Phase I
        moves s alone, to not_found."""
        L = parse_salamon("(-23,-31,12,0)")
        J = ComplexStructure.standard(4)
        for kind in ("kahler", "balanced"):
            assert len(condition_kernel(L, J, kind)) == 1
            result = search_metric(L, J, kind)
            assert result.status == "none", kind
            recheck_none(L, J, kind, result.certificate)
            assert solve(L, J, kind).status == "not_found", kind
        assert search_metric(L, J, "skt").exact_verified

    def test_empty_kernel_is_certified_by_the_identity(self, cx_type_I, j_std6, monkeypatch):
        """With no kernel matrix, or only traceless ones, the projection of I
        is 0, so Y = I is the whole certificate."""
        monkeypatch.setattr(search_module, "condition_kernel", lambda *args: ())
        result = search_metric(cx_type_I, j_std6, "kahler")
        assert result.status == "none" and result.iterations == 0 and result.route == "projection"
        assert result.certificate == al.linalg.identity_matrix(6)

    def test_determinism(self, cx_type_I, j_std6):
        a = search_metric(cx_type_I, j_std6, "skt")
        b = search_metric(cx_type_I, j_std6, "skt")
        assert a == b

    def test_iterates_stay_positive_definite(self, cx_type_I, j_std6, monkeypatch):
        # every reported metric is positive definite
        monkeypatch.setattr(search_module, "MAX_ITERATIONS", 200)
        for kind in ("kahler", "balanced", "skt"):
            result = solve(cx_type_I, j_std6, kind, SearchConfig(seeds=(0,)))
            if result.metric is not None:
                eigs = np.linalg.eigvalsh(np.array(result.metric))
                assert eigs[0] > 0

    def test_requires_integrable(self, cx_type_III, j_std6):
        with pytest.raises(NotIntegrableError, match="not integrable.*Nijenhuis"):
            search_metric(cx_type_III, j_std6, "kahler")

    def test_no_runtime_warning_on_infeasible_kahler(self, cx_type_III, j_type_III):
        """Phase I towards the cone's boundary stays clear of log(0) and 1/0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(cx_type_III, j_type_III, "kahler", SearchConfig(seeds=(0, 1, 2, 3)))
        assert result.status == "not_found"


class TestSearchConfig:
    def test_seeds_are_a_nonempty_tuple_of_integers(self):
        with pytest.raises(ValueError, match=r"^seeds must not be empty$"):
            SearchConfig(seeds=())
        for seeds in ([0], (True,)):
            with pytest.raises(TypeError) as exc:
                SearchConfig(seeds=seeds)
            assert str(exc.value) == f"seeds must be a list of integers, got {seeds!r}"


class TestCertificateCheck:
    def _certificate(self, cx_type_I, j_std6):
        return search_metric(cx_type_I, j_std6, "kahler").certificate

    def test_accepts_the_search_certificate(self, cx_type_I, j_std6):
        assert check_certificate(cx_type_I, j_std6, "kahler", self._certificate(cx_type_I, j_std6))

    def test_rejects_broken_certificates(self, cx_type_I, j_std6):
        la = al.linalg
        y = self._certificate(cx_type_I, j_std6)
        n = len(y)
        zero = la.mat([[0] * n for _ in range(n)])
        unsymmetric = [list(row) for row in y]
        unsymmetric[0][1] += 1
        # of the wrong size: each is orthogonal to a truncated flattening
        small = [[0, 0], [0, 1]]
        large = [[int(i == j == n) for j in range(n + 1)] for i in range(n + 1)]
        # an entry that is not a finite rational is read as no certificate
        unreadable = [[[entry, *y[0][1:]], *y[1:]] for entry in (math.nan, math.inf, None)]
        for bad in (zero, la.mat_scale(-1, y), unsymmetric, la.identity_matrix(n), small, large, *unreadable):
            assert not check_certificate(cx_type_I, j_std6, "kahler", bad), bad

    def test_reads_float_entries_exactly(self, cx_type_I, j_std6):
        """A float copy of the certificate is read exactly and passes.  With
        0.5 added at (0, 0) it stays symmetric and semidefinite, but the
        kernel matrix -(e_0 e_0^T + e_1 e_1^T) now pairs with it to -0.5."""
        y = [[float(c) for c in row] for row in self._certificate(cx_type_I, j_std6)]
        assert check_certificate(cx_type_I, j_std6, "kahler", y)
        y[0][0] += 0.5
        assert not check_certificate(cx_type_I, j_std6, "kahler", y)

    def test_requires_integrable(self):
        """On (0,21,0,0,43,0) J e_1 = e_3, J e_2 = e_4, J e_5 = e_6 is not
        integrable.  Each Y below is the none certificate of its kind on
        that J's kernel, and it is refused: no kernel is formed for a J
        that is not integrable."""
        L = parse_salamon("(0,21,0,0,43,0)")
        J = ComplexStructure.from_pairs(6, [(1, 3), (2, 4), (5, 6)])
        diagonals = {"kahler": (0, 1, 0, 1, 1, 1), "balanced": (1, 0, 1, 0, 0, 0), "skt": (0, 1, 0, 1, 1, 1)}
        for kind, diagonal in diagonals.items():
            y = [[Q(c if a == b else 0) for b, c in enumerate(diagonal)] for a in range(6)]
            with pytest.raises(NotIntegrableError, match="not integrable.*Nijenhuis"):
                check_certificate(L, J, kind, y)
            with pytest.raises(NotIntegrableError):
                condition_kernel(L, J, kind)

    @pytest.mark.parametrize("y", [[[0, 1], [1, 0]], [[1, 0], [4, 1]]], ids=["zero-minor", "unsymmetric"])
    def test_rejects_an_indefinite_form_with_no_kernel(self, y):
        """With no kernel matrix only Y's form can reject it: [[0, 1], [1, 0]]
        is indefinite although its first leading minor is 0, and the minors
        of [[1, 0], [4, 1]] are 1 and 1 but its symmetric part is
        indefinite."""
        assert not search_module._certifies((), y)

    def test_witness_outside_the_kernel_is_not_verified(self, j_std6):
        """I is a definite compatible metric on (0,21,0,0,43,0), which has no
        Kahler metric, so its condition form does not vanish."""
        L = parse_salamon("(0,21,0,0,43,0)")
        eye = al.linalg.identity_matrix(6)
        assert search_module._witness(L, j_std6, "kahler", eye) == (eye, False)

    @staticmethod
    def _check_second_route(L, J, kind, monkeypatch):
        """On a two-step solvable algebra the certificate of a ``none`` must
        also be orthogonal to the shear route's kernel: one extra shear kernel
        matrix that Y does not annihilate, here the identity, rejects it."""
        result = search_metric(L, J, kind)
        assert result.status == "none" and al.is_two_step_solvable(L)
        calls = []

        def extra(data, J, kind):
            calls.append(kind)
            return shear_kernel(data, J, kind) + (al.linalg.identity_matrix(L.dim),)

        monkeypatch.setattr(search_module, "shear_kernel", extra)
        assert not check_certificate(L, J, kind, result.certificate)
        assert calls == [kind]
        monkeypatch.setattr(search_module, "shear_kernel", shear_kernel)
        assert check_certificate(L, J, kind, result.certificate)

    def test_shear_kernel_is_a_second_route(self, cx_type_I, j_std6, monkeypatch):
        self._check_second_route(cx_type_I, j_std6, "kahler", monkeypatch)

    def test_balanced_none_has_a_second_route(self, monkeypatch):
        """A generated type I shear in dimension 4 that has no balanced metric."""
        data, _, J = random_complex_shear(1, "typeI", 4)
        self._check_second_route(build_shear(data), J, "balanced", monkeypatch)

    def test_every_kernel_matrix_is_checked(self, j_std6):
        """On r'_{3,0} + r'_{3,0}, for each Kahler kernel matrix M a rank-one
        semidefinite Y is orthogonal to every other kernel matrix but not
        to M, and the check rejects it: a check that skipped M would not."""
        L = parse_salamon("(-25,15,-46,36,0,0)")
        kernel = condition_kernel(L, j_std6, "kahler")
        assert len(kernel) == 3
        for skip, missed in enumerate(kernel):
            others = [m for i, m in enumerate(kernel) if i != skip]
            v = next(
                v for v in itertools.product(range(-1, 2), repeat=6)
                if _quadratic(missed, v) and not any(_quadratic(m, v) for m in others)
            )
            y = al.linalg.mat([[a * b for b in v] for a in v])
            assert not check_certificate(L, j_std6, "kahler", y), skip


def _quadratic(m, v):
    return sum(v[a] * m[a][b] * v[b] for a in range(len(v)) for b in range(len(v)))


GRADIENT_ALGEBRAS = {
    "typeIII-d4": lambda: build_shear(random_complex_shear(0, "typeIII", 4)[0]),
    "typeI-d6": lambda: parse_salamon("(0,21,0,0,43,0)"),
    "typeI-d8": lambda: build_shear(random_complex_shear(0, "typeI", 8)[0]),
}


@pytest.mark.parametrize("t", [0.0, 1e-2])
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
def test_gradient_matches_central_differences(algebra, kind, t):
    """The Newton gradient and Hessian of the Phase-I barrier
    t s - log det(X(z) + s I) on the trace-n slice of the kernel track
    central differences of the objective and of the gradient."""
    L = GRADIENT_ALGEBRAS[algebra]()
    n = L.dim
    kernel = condition_kernel(L, ComplexStructure.standard(n), kind)
    base, dirs = _trace_slice(kernel, n)
    dirs = np.concatenate([dirs, np.eye(n)[None]])
    m = len(dirs)
    cost = np.append(np.zeros(m - 1), t)

    def objective(u):
        return cost @ u - np.linalg.slogdet(base + np.tensordot(u, dirs, 1))[1]

    rng = np.random.default_rng(5)
    for _ in range(5):
        u = 0.1 * rng.standard_normal(m)
        u[-1] = 1.0 - min(0.0, np.linalg.eigvalsh(base + np.tensordot(u[:-1], dirs[:-1], 1))[0])
        grad, hess = _derivatives(base, dirs, u, cost)
        h = 1e-5
        shifts = h * np.eye(m)
        fd = np.array([(objective(u + e) - objective(u - e)) / (2 * h) for e in shifts])
        assert np.max(np.abs(fd - grad)) < 1e-6 * max(1.0, np.abs(grad).max())
        def gradient(x):
            return _derivatives(base, dirs, x, cost)[0]

        fd2 = np.array([(gradient(u + e) - gradient(u - e)) / (2 * h) for e in shifts])
        assert np.max(np.abs(fd2 - hess)) < 1e-5 * max(1.0, np.abs(hess).max())


DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
SEARCH_CASES = (  # the metric-search benchmark cases
    ("(25,-15,46,-36,0,0)", ((1, 2), (3, 4), (5, 6)), "kahler", True),
    ("(0,21,0,0,43,0)", ((1, 2), (3, 4), (5, 6)), "skt", True),
    ("(0,21,0,0,43,0)", ((1, 2), (3, 4), (5, 6)), "balanced", True),
    ("(-15+16,-25+26,2.(35+46),2.(36+45),0,0)", ((1, 2), (3, 5), (4, 6)), "skt", True),
    ("(-15+16,-25+26,2.(35+46),2.(36+45),0,0)", ((1, 2), (3, 5), (4, 6)), "balanced", True),
    ("(0,21,0,0,43,0)", ((1, 2), (3, 4), (5, 6)), "kahler", False),
    ("(-15+16,-25+26,2.(35+46),2.(36+45),0,0)", ((1, 2), (3, 5), (4, 6)), "kahler", False),
)


def _check_outcome(L, J, kind, result):
    """A found witness passes classify_metric; a none passes the re-check."""
    if result.status == "found":
        assert result.exact_verified
        assert classify_metric(L, Metric(result.exact_metric), J)[kind]
    elif result.status == "none":
        recheck_none(L, J, kind, result.certificate)


@functools.cache
def pinned_searches():
    """The 100 pinned searches as (L, J, kind, search_metric's result, the
    solver's result on the same kernel and config)."""
    cases = []
    for conjugation in range(4):
        rng = random.Random(f"test-search/{conjugation}")
        for salamon, pairs, kind, _ in SEARCH_CASES:
            L = parse_salamon(salamon)
            if conjugation:
                L = al.change_basis(L, random_unitary(6, rng, pairs=list(pairs)))
            J = ComplexStructure.from_pairs(6, pairs)
            cases.append((L, J, kind, SearchConfig(seeds=tuple(range(4)))))
    for profile, dim, seed in itertools.product(("typeI", "typeIII"), (4, 6, 8, 10), range(3)):
        data, _, J = random_complex_shear(seed, profile, dim)
        L = build_shear(data)
        cases += [(L, J, kind, None) for kind in KINDS]
    return [(L, J, kind, search_metric(L, J, kind, c), solve(L, J, kind, c)) for L, J, kind, c in cases]


class TestFeasibility:
    def test_never_none_on_a_catalog_witness(self):
        """Every kind some stored witness satisfies is found, never refuted."""
        for entry in witness_lists():
            kinds = {kind for w in entry.witnesses for kind in KINDS if w.expected[kind]}
            for kind in sorted(kinds):
                result = search_metric(entry.algebra, entry.J, kind)
                assert result.status == "found", (entry.name, kind, result.status)
                _check_outcome(entry.algebra, entry.J, kind, result)

    @pytest.mark.parametrize("conjugation", [0, 1, 2, 3])
    def test_search_cases(self, conjugation):
        rng = random.Random(f"test-search/{conjugation}")
        for salamon, pairs, kind, feasible in SEARCH_CASES:
            L = parse_salamon(salamon)
            J = ComplexStructure.from_pairs(6, pairs)
            if conjugation:
                L = al.change_basis(L, random_unitary(6, rng, pairs=list(pairs)))
            result = search_metric(L, J, kind, SearchConfig(seeds=tuple(range(4))))
            assert result.status == ("found" if feasible else "none"), (salamon, kind)
            _check_outcome(L, J, kind, result)

    def test_exact_outputs_are_pinned(self):
        """The exact fields of 100 searches: the benchmark cases in four bases
        and generated typeI and typeIII shears at d4-d10, every kind.  The
        solver's were recorded when it stopped certifying, and
        ``search_metric``'s when the projection came first.  A change to any
        witness, certificate or the seed that concluded shows."""

        def digest(results):
            fields = [repr((r.status, r.seed, r.exact_metric, r.certificate, r.exact_verified)) for r in results]
            return hashlib.sha256("\n".join(fields).encode()).hexdigest()

        searches = pinned_searches()
        assert digest(solved for *_, solved in searches) == (
            "c535b1708a2a0957069507693bfbc5ad471714a5c96319b9b31af4a79a452929"
        )
        assert digest(result for *_, result, _ in searches) == (
            "9bfad71c83cd8227ebf3c7f9a303d9ecbcd8c6640266a15b396f89ce00502be6"
        )

    def test_projection_decides_and_the_solver_agrees(self):
        """On the pinned searches and every catalog entry and kind, the
        projection decides, and the solver's answer is a second opinion:
        wherever the projection finds, the solver finds or ends not_found,
        and wherever the projection certifies none, the solver, which only
        finds, ends not_found.  Every witness passes classify_metric and
        every certificate passes check_certificate."""
        searches = pinned_searches() + [
            (e.algebra, e.J, kind, search_metric(e.algebra, e.J, kind), solve(e.algebra, e.J, kind))
            for e in witness_lists()
            for kind in KINDS
        ]
        for L, J, kind, result, solved in searches:
            assert result.route == "projection" and solved.route == "solver", kind
            assert result.iterations == 0 and result.seed is None
            assert solved.certificate is None, kind
            if result.status == "found":
                assert solved.status in ("found", "not_found"), kind
                assert result.exact_verified and classify_metric(L, Metric(result.exact_metric), J)[kind]
            else:
                assert result.status == "none" and solved.status == "not_found", kind
                assert check_certificate(L, J, kind, result.certificate), kind

    def test_outcomes_follow_a_change_of_basis(self):
        """For P = (A - JAJ) / 2, which commutes with J, a found witness G
        maps to P^T G P on change_basis(L, P) and passes classify_metric
        there.  A none certificate Y maps to P^-1 Y P^-T for Kahler and SKT,
        and to P^T Y P for balanced, whose kernel lives in H = G^-1; it
        passes check_certificate there.  The search in the new basis ends with
        the same status, which may come from the solver there."""
        la = al.linalg
        rng = random.Random("search-basis-change")
        cases = [(parse_salamon(s), ComplexStructure.from_pairs(6, pairs), kind) for s, pairs, kind, _ in SEARCH_CASES]
        for seed in range(6):
            data, _, J = random_complex_shear(seed, "typeI", 8)
            cases += [(build_shear(data), J, kind) for kind in KINDS]
        outcomes = set()
        for L, J, kind in cases:
            result = search_metric(L, J, kind, SearchConfig(seeds=tuple(range(4))))
            outcomes.add((result.status, kind))
            p = commuting_change(J, rng)
            moved, pt = al.change_basis(L, p), la.transpose(p)
            assert search_metric(moved, J, kind, SearchConfig(seeds=tuple(range(4)))).status == result.status, kind
            if result.status == "found":
                g = la.mat_mul(pt, la.mat_mul(la.mat(result.exact_metric), p))
                assert classify_metric(moved, Metric(g), J)[kind], kind
            elif result.status == "none":
                y = la.mat(result.certificate)
                if kind == "balanced":
                    y = la.mat_mul(pt, la.mat_mul(y, p))
                else:
                    q = la.inverse(p)
                    y = la.mat_mul(q, la.mat_mul(y, la.transpose(q)))
                assert check_certificate(moved, J, kind, y), kind
        assert {("found", kind) for kind in KINDS} | {("none", "kahler"), ("none", "balanced")} <= outcomes

    @pytest.mark.parametrize("dim,seed", [(8, 3), (10, 0)])
    def test_generated_shears_above_six(self, dim, seed):
        """typeI shears at d8 and d10 with a certified Kahler none, and the
        other kinds found; the stored metric's kinds are never refuted."""
        data, g, J = random_complex_shear(seed, "typeI", dim)
        L = build_shear(data)
        stored = classify_metric(L, g, J)
        for kind in KINDS:
            result = search_metric(L, J, kind)
            assert result.status == ("none" if kind == "kahler" else "found"), kind
            assert not (stored[kind] and result.status == "none")
            _check_outcome(L, J, kind, result)

    @pytest.mark.parametrize("dim", [8, 10])
    def test_projection_coordinates_on_wide_rows(self, dim):
        """On typeI and typeIII shears at d8 and d10 moved by a non-unitary P
        commuting with J, where the kernel entries are large, the Gram solve's
        coefficients of vec(I) on every kind's flattened kernel are exactly
        those read off the whole coordinate map, over the same least common
        denominator."""
        la = al.linalg
        rng = random.Random(f"wide-rows-{dim}")
        eye = [int(a == b) for a in range(dim) for b in range(dim)]
        for profile in ("typeI", "typeIII"):
            data, _, J = random_complex_shear(0, profile, dim)
            L = al.change_basis(build_shear(data), commuting_change(J, rng))
            for kind in KINDS:
                flat = [[c for row in m for c in row] for m in condition_kernel(L, J, kind)]
                cs, den = la.projection_coordinates(flat, eye)
                assert (cs, den) == core.clear(la.mat_vec(la.coordinate_map(flat), eye)), (profile, kind)

    def test_wide_rows_kahler_none_is_certified_by_a_face(self):
        """typeI d10 seed 0, moved as in the wide-rows case, has no Kahler
        metric.  I - P is not semidefinite there, and the face [L, L]
        certifies it exactly, ahead of the solver."""
        data, _, J = random_complex_shear(0, "typeI", 10)
        L = al.change_basis(build_shear(data), commuting_change(J, random.Random("wide-rows-10")))
        result = search_metric(L, J, "kahler")
        assert (result.status, result.route, result.iterations, result.seed) == ("none", "projection", 0, None)
        assert check_certificate(L, J, "kahler", result.certificate)

    @pytest.mark.parametrize("name", ["counterexample_type_I", "counterexample_shear"])
    def test_demo_counterexamples(self, name):
        doc = json.loads((DEMO_DATA / f"{name}.json").read_text())
        L = build_shear(load_shear_data(doc)[0]) if "omega" in doc else load_algebra(doc)
        J = load_complex_structure(json.loads((DEMO_DATA / "standard_J.json").read_text()), 6)
        for kind in KINDS:
            result = search_metric(L, J, kind)
            assert result.status == ("none" if kind == "kahler" else "found"), kind
            _check_outcome(L, J, kind, result)


def reference_basis(J):
    """The compatible basis entry by entry: dj^2 E + J^T E J on every slot."""
    j, dj = J.ints
    n = len(j)
    slots = [(a, b) for a in range(n) for b in range(a, n)]
    images = [
        [dj * dj * ((p, q) == (a, b)) + j[a][p] * j[b][q] + (a != b) * j[b][p] * j[a][q] for p, q in slots]
        for a, b in slots
    ]
    return tuple(
        tuple(tuple(row[slots.index((min(a, b), max(a, b)))] for b in range(n)) for a in range(n))
        for row in al.linalg.echelon(images)
    )


def reference_kernel(basis, outputs):
    """The kernel of a linear map evaluated once per basis matrix: ``outputs``
    gives each matrix's nonzero values as {key: int}, and each key is one
    row of the system, in key order (the row order fixes the kernel's signs)."""
    values = [outputs(b) for b in basis]
    keys = sorted(set().union(*values))
    rows = [[v.get(key, 0) for v in values] for key in keys]
    n = len(basis[0])
    out = []
    for x in al.linalg.kernel(rows, len(basis))[0]:
        flat = [sum(c * b[r][t] for c, b in zip(x, basis)) for r in range(n) for t in range(n)]
        d = math.gcd(*flat)
        out.append(tuple(tuple(c // d for c in flat[r * n : (r + 1) * n]) for r in range(n)))
    return tuple(out)


def reference_condition_kernel(L, J, kind):
    if kind == "balanced":
        basis = reference_basis(ComplexStructure(al.linalg.transpose(J.matrix)))
        return reference_kernel(basis, lambda b: balanced_inverse_form(L, J, b, 1)[0])
    return reference_kernel(reference_basis(J), lambda b: condition_form(L, J, *sigma_of(J, b, 1), kind)[0])


def reference_shear_kernel(data, J, kind):
    """The shear map evaluated on one basis matrix at a time: the metrics G
    for Kahler and SKT, the inverse metrics H, compatible with J^T, for
    balanced."""
    equations = _shear_map(data, J, kind)
    basis = reference_basis(ComplexStructure(al.linalg.transpose(J.matrix)) if kind == "balanced" else J)
    return reference_kernel(basis, lambda b: {i: v for i, v in enumerate(equations(b)) if v})


def _packing_instances():
    """Every buildable profile at d4-d10, seeds 0-1; the catalog; and a typeI
    d10 shear conjugated once more, whose numerators are the largest."""
    out = []
    for dim in (4, 6, 8, 10):
        for profile in PROFILES:
            for seed in range(2):
                try:
                    data, _, J = random_complex_shear(seed, profile, dim)
                except UnsupportedDimensionError:
                    break
                out.append((f"{profile}-d{dim}-{seed}", build_shear(data), J))
    out += [(entry.name, entry.algebra, entry.J) for entry in witness_lists()]
    data, _, J = random_complex_shear(0, "typeI", 10)  # J is the standard pairing
    out.append(("typeI-d10-conjugated", al.change_basis(build_shear(data), random_unitary(10, random.Random(13))), J))
    return out


class TestPackedKernel:
    """The packed evaluation of each condition map gives exactly the kernel
    of its evaluation on one basis matrix at a time."""

    @pytest.mark.parametrize("case", _packing_instances(), ids=lambda case: case[0])
    def test_equals_the_per_matrix_evaluation(self, case):
        _, L, J = case
        assert J.compatible_basis == reference_basis(J)
        for kind in KINDS:
            assert condition_kernel(L, J, kind) == reference_condition_kernel(L, J, kind), kind
        if al.is_two_step_solvable(L) and is_integrable(L, J):
            data = pre_shear_from_bracket(L)
            for kind in KINDS:
                assert shear_kernel(data, J, kind) == reference_shear_kernel(data, J, kind), kind
