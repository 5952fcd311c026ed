import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hermlie import algebra as al
from hermlie import core
from hermlie import hermitian as hermitian_module
from hermlie import linalg as la
from hermlie.errors import (
    IncompatibleMetricError,
    InvalidPreShearError,
    JacobiFailedError,
    NotComplexShearDataError,
    UnsupportedDimensionError,
)
from hermlie.catalog import witness_lists
from hermlie.forms import VectorValuedTwoForm
from hermlie.generators import FIXED_DIMS, PROFILES, random_compatible_metric, random_complex_shear
from hermlie.hermitian import (
    KINDS,
    ComplexStructure,
    Metric,
    balanced_inverse_form,
    balanced_structural,
    classify_metric,
    condition_kernel,
    coordinate_basis,
    is_integrable,
    j_adapted_split,
    kernel_span,
    sigma_of,
    validate_complex_structure,
)
from hermlie.normal_forms import KahlerNormalForm, kahler_normal_form
from hermlie.search import check_certificate, search_metric
from hermlie.shear import (
    OperatorIdentityReport,
    PreShearData,
    ShearOperators,
    build_shear,
    check_complex_shear,
    pre_shear_from_bracket,
    shear_condition,
    shear_kernel,
    shear_operators,
    _shear_map,
)

from conftest import commuting_change, nijenhuis, scale_vec, unit_vec

Q = Fraction


def e(n, i):
    return unit_vec(n, i)


def zero_data(dim):
    a = al.Subspace.zero(dim)
    return PreShearData(dim, a, VectorValuedTwoForm(dim, a, {}))


def reference_shear_operators(data, g, J):
    """``shear_operators`` with one exact solve per value, as a reference:
    every operator column, f and h, J on a_J and the a_r-parts are solved for
    separately, and commutation is tested over ordered pairs."""
    data = data.normalized()
    n = data.dim
    omega = data.omega
    a_J, a_r, U_r, U_J = j_adapted_split(data.a, g, J)
    aj_basis, ar_basis = a_J.basis(), a_r.basis()
    a_basis = aj_basis + ar_basis
    nj, nr = len(aj_basis), len(ar_basis)

    def solve_in(basis, v):
        c = la.solve(la.matrix_from_columns(basis), v) if basis else ()
        assert c is not None and la.combination(c, basis, n) == v
        return c

    def endo_matrix(value_of):
        cols = [solve_in(a_basis, value_of(u)) for u in a_basis]
        return la.matrix_from_columns(cols) if cols else ()

    A, K, G, H, F = {}, {}, {}, {}, {}
    for idx, x in enumerate(ar_basis):
        jx = J.apply(x)
        m = A[idx] = endo_matrix(lambda u: omega(jx, u))
        K[idx] = tuple(tuple(m[i][j] for j in range(nj)) for i in range(nj))
        G[idx] = tuple(tuple(m[nj + i][j] for j in range(nj)) for i in range(nr))
        H[idx] = tuple(tuple(m[i][nj + j] for j in range(nr)) for i in range(nj))
        F[idx] = tuple(tuple(m[nj + i][nj + j] for j in range(nr)) for i in range(nr))
    f_map, h_map = {}, {}
    for i, x in enumerate(ar_basis):
        for j, y in enumerate(ar_basis):
            val = omega(J.apply(x), y)
            h_map[(i, j)] = la.combination(solve_in(a_basis, val)[:nj], aj_basis, n)
            f_map[(i, j)] = la.sub_vec(val, h_map[(i, j)])
    B = {idx: endo_matrix(lambda u: omega(z, u)) for idx, z in enumerate(U_J.basis())}
    ops = ShearOperators(a_J, a_r, U_r, U_J, a_basis, A, K, G, H, F, f_map, h_map, B)

    j_on_aj = la.matrix_from_columns([solve_in(aj_basis, J.apply(u)) for u in aj_basis]) if nj else ()
    k_ok = all(la.mat_mul(j_on_aj, k) == la.mat_mul(k, j_on_aj) for k in K.values())
    jj_in = jj_match = True
    for i, x in enumerate(ar_basis):
        for j, y in enumerate(ar_basis):
            val = omega(J.apply(x), J.apply(y))
            jj_in = jj_in and a_J.contains(val)
            jj_match = jj_match and val == J.apply(la.sub_vec(h_map[(i, j)], h_map[(j, i)]))
    operators = [*A.values(), *B.values()]
    comm_ok = all(
        la.mat_mul(m1, m2) == la.mat_mul(m2, m1)
        for group in (operators, list(K.values()))
        for m1 in group
        for m2 in group
    )

    def ar_part(v):
        return la.combination(solve_in(a_basis, v)[nj:], ar_basis, n)

    omr_ok = all(
        ar_part(omega(J.apply(z), J.apply(x))) == ar_part(omega(z, x))
        for z in U_J.basis()
        for x in ar_basis
    )
    report = OperatorIdentityReport(
        all(la.is_zero_matrix(m) for m in G.values()),
        k_ok,
        all(f_map[(i, j)] == f_map[(j, i)] for i in range(nr) for j in range(nr)),
        jj_in,
        jj_match,
        comm_ok,
        omr_ok,
    )
    return ops, report


def _perm_sign(perm):
    sign = 1
    for i, j in combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


_SIGNED_PERMS = tuple((perm, _perm_sign(perm)) for perm in permutations(range(4)))


def reference_skt(data, g, J):
    """The torsion condition as the full alternation over S_4 of
    g(w(J a, J b), w(c, d)) + 2 g(w(J w(a, b), J c), d) on every basis
    4-subset, with mirrored tables for unsorted pairs, as a reference for
    the split form of ``_shear_map``: its values on the 4-subsets in
    ``combinations`` order, over the numerators of g, w and J."""
    n2 = data.dim
    w = data.omega.ints
    (jm, _), (gm, _) = J.ints, g.ints
    ob = w.on_basis
    j_units = [list(c) for c in zip(*jm)]
    g_ob, jj = {}, {}
    for x, y in combinations(range(n2), 2):
        g_ob[(x, y)] = core.mat_vec(gm, ob[(x, y)])
        g_ob[(y, x)] = [-c for c in g_ob[(x, y)]]
        jj[(x, y)] = w(j_units[x], j_units[y])
        jj[(y, x)] = [-c for c in jj[(x, y)]]
    gwj = []
    for z in range(n2):
        cols = [[-c for c in w(j_units[z], [int(t == m) for t in range(n2)])] for m in range(n2)]
        gwj.append(core.mat_mul(core.mat_mul(gm, list(zip(*cols))), jm))
    g_tv = {}
    for x, y in combinations(range(n2), 2):
        for z in range(n2):
            g_tv[(x, y, z)] = core.mat_vec(gwj[z], ob[(x, y)])
            g_tv[(y, x, z)] = [-c for c in g_tv[(x, y, z)]]

    def term(a, b, c, d):
        return core.dot(jj[(a, b)], g_ob[(c, d)]) + 2 * g_tv[(a, b, c)][d]

    return [
        sum(sign * term(*(quad[p] for p in perm)) for perm, sign in _SIGNED_PERMS)
        for quad in combinations(range(n2), 4)
    ]


class TestPreShearValidation:
    def test_zero_form_valid(self):
        assert zero_data(4).pre_shear.valid

    def test_counterexample_reconstruction_valid(self, cx_type_I):
        data = pre_shear_from_bracket(cx_type_I)
        assert data.pre_shear.valid
        assert data.a == al.Subspace.span(6, [e(6, 2), e(6, 5)])

    def test_violation_listed(self):
        a = al.Subspace.span(4, [e(4, 1), e(4, 2)])
        w = VectorValuedTwoForm(4, a, {(1, 2): e(4, 1)})
        report = PreShearData(4, a, w).pre_shear
        assert not report.valid and report.restriction_violations

    def test_image_violation_listed(self):
        a = al.Subspace.span(4, [e(4, 1)])
        w = VectorValuedTwoForm(4, a, {(2, 3): e(4, 4)})
        report = PreShearData(4, a, w).pre_shear
        assert not report.valid and report.image_violations == ((2, 3),)


class TestCheckComplexShear:
    def test_zero_form(self):
        rep = check_complex_shear(zero_data(4), ComplexStructure.standard(4))
        assert rep.jacobi_ok and rep.integrable_ok

    def test_type_I_case(self, cx_type_I, j_std6):
        rep = check_complex_shear(pre_shear_from_bracket(cx_type_I), j_std6)
        assert rep.jacobi_ok and rep.integrable_ok

    def test_invalid_pre_shear_raises(self):
        a = al.Subspace.span(4, [e(4, 1)])
        w = VectorValuedTwoForm(4, a, {(2, 3): e(4, 4)})
        with pytest.raises(InvalidPreShearError):
            check_complex_shear(PreShearData(4, a, w), ComplexStructure.standard(4))

    def test_equations_match_built_algebra(self):
        """jacobi_ok/integrable_ok agree with the direct oracles, both ways."""
        rng = random.Random(23)
        J = ComplexStructure.standard(4)
        jacobi_false = integrable_false = both_true = 0
        for _ in range(500):
            # random pre-shear data on coordinates: a is the last k slots,
            # values land in a, and pairs inside a carry no form
            k = rng.randint(1, 2)
            a = al.Subspace.span(4, [e(4, 4 - t) for t in range(k)])
            values = {}
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    if i > 4 - k:
                        continue  # both arguments inside a
                    if rng.random() < 0.5:
                        v = [0] * 4
                        for t in range(k):
                            v[3 - t] = rng.randint(-2, 2)
                        if any(v):
                            values[(i, j)] = la.vec(v)
            data = PreShearData(4, a, VectorValuedTwoForm(4, a, values))
            rep = check_complex_shear(data, J)
            table = {p: la.neg_vec(v) for p, v in data.omega.values.items()}
            L = al.LieAlgebra(4, table)
            assert rep.jacobi_ok == (L.jacobi_residual() == 0)
            nij_zero = all(
                la.is_zero_vec(nijenhuis(L, J, e(4, i), e(4, j)))
                for i in range(1, 5)
                for j in range(i + 1, 5)
            )
            assert rep.integrable_ok == nij_zero
            jacobi_false += int(not rep.jacobi_ok)
            integrable_false += int(not rep.integrable_ok)
            both_true += int(rep.jacobi_ok and rep.integrable_ok)
        # the sample has to hit every case for the equivalence to mean much
        assert jacobi_false and integrable_false and both_true


def _complex_shear_cases():
    """(label, data, J): every buildable profile at d4-d10 on seeds 0-1 with
    its own J, the standard J where that differs, and a densely conjugated
    J, each also on the data with one value doubled, which may break
    closure or leave the data no longer pre-shear."""
    for dim in (4, 6, 8, 10):
        for profile in PROFILES:
            if dim not in FIXED_DIMS.get(profile, (dim,)):
                continue
            for seed in range(2):
                data, _, J = random_complex_shear(seed, profile, dim)
                rng = random.Random(f"complex-shear/{profile}/{dim}/{seed}")
                while la.det(p := la.mat([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])) == 0:
                    pass
                structures = [J, ComplexStructure(la.mat_mul(la.mat_mul(p, J.matrix), la.inverse(p)))]
                if ComplexStructure.standard(dim) != J:
                    structures.append(ComplexStructure.standard(dim))
                first, *_ = data.omega.values
                doubled = {pair: scale_vec(2 if pair == first else 1, v) for pair, v in data.omega.values.items()}
                for k, J in enumerate(structures):
                    for name, values in (("data", data.omega.values), ("doubled", doubled)):
                        # fresh data each time: nothing is memoised yet
                        fresh = PreShearData(dim, data.a, VectorValuedTwoForm(dim, data.a, values))
                        yield f"{profile}/d{dim}/{seed}/J{k}/{name}", fresh, J


def _jacobi_reference(L):
    """The largest |coordinate| of the Fraction Jacobi sums over ``L.bracket``
    on every triple: zero exactly when the Jacobi identity holds."""
    n, worst = L.dim, Q(0)
    for i, j, k in combinations(range(1, n + 1), 3):
        x, y, z = e(n, i), e(n, j), e(n, k)
        terms = (L.bracket(L.bracket(x, y), z), L.bracket(L.bracket(y, z), x), L.bracket(L.bracket(z, x), y))
        worst = max(worst, *(abs(sum(c)) for c in zip(*terms)))
    return worst


def _extremal_jacobi_table(n, top, den=1):
    """A bracket table on Q^n (n >= 4) with entries in {0, +-top} / den whose
    Jacobi sum on (e_1, e_2, e_3) reaches 3 (n - 1) top^2 / den^2 on e_4:
    with A, B, C = [e_1, e_2], [e_2, e_3], [e_3, e_1] the coordinate is
    sum_m A_m [e_m, e_3]_4 + B_m [e_m, e_1]_4 + C_m [e_m, e_2]_4, whose
    3 (n - 1) products are all signed +top^2 here."""
    m = Q(top, den)
    a, b, c = [m] * n, [m] * n, [m] * n
    a[0], a[2], b[0], b[1], c[1], c[2] = -m, 0, 0, -m, 0, -m
    table = {(1, 2): a, (2, 3): b, (1, 3): [-x for x in c]}
    for t in range(4, n + 1):  # [e_t, e_s]_4 = top for s = 1, 2, 3
        for s in (1, 2, 3):
            table[(s, t)] = [-m if r == 3 else 0 for r in range(n)]
    return al.LieAlgebra(n, table)


def _nonclosing_table(draw, dim):
    """A random table on Q^dim: values with numerators up to 2^40 and small
    denominators, so packed slots carry and borrow."""
    entry = st.fractions(min_value=-(2**40), max_value=2**40, max_denominator=9)
    table = {}
    for _ in range(draw(st.integers(1, 2 * dim))):
        i = draw(st.integers(1, dim - 1))
        table[(i, draw(st.integers(i + 1, dim)))] = draw(st.lists(entry, min_size=dim, max_size=dim))
    return al.LieAlgebra(dim, table)


def _conjugated_j(draw, dim):
    """P J_std P^-1 for a random invertible int matrix P: dense and, on a
    random table, almost never integrable."""
    while True:
        p = la.mat(draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=dim, max_size=dim)))
        if la.det(p):
            return ComplexStructure(la.mat_mul(la.mat_mul(p, ComplexStructure.standard(dim).matrix), la.inverse(p)))


GATE_DRAWS = settings(max_examples=24, deadline=None, derandomize=True, database=None)


class TestPackedGates:
    """The packed Jacobi and Nijenhuis tests off the happy path, d4-d10,
    against the unpacked Fraction references."""

    @GATE_DRAWS
    @given(st.sampled_from((4, 6, 8, 10)), st.data())
    def test_jacobi_matches_the_reference(self, dim, data):
        L = _nonclosing_table(data.draw, dim)
        residual = _jacobi_reference(L)
        assert L.jacobi_residual() == residual
        assert L.validated == (residual == 0)

    @GATE_DRAWS
    @given(st.sampled_from((4, 6, 8, 10)), st.data())
    def test_nijenhuis_matches_the_reference(self, dim, data):
        L = _nonclosing_table(data.draw, dim)
        J = _conjugated_j(data.draw, dim) if data.draw(st.booleans()) else ComplexStructure.standard(dim)
        failing = tuple(
            (i, j) for i, j in combinations(range(1, dim + 1), 2) if any(nijenhuis(L, J, e(dim, i), e(dim, j)))
        )
        report = validate_complex_structure(L, J)
        assert report.failing_pairs == failing
        assert report.integrable == (not failing) == is_integrable(L, J)

    @pytest.mark.parametrize("n, top, den", [(4, 1, 1), (6, 3, 1), (8, 1, 7), (10, 1, 1), (4, 2**20, 7), (10, 2**20, 1)])
    def test_jacobi_packing_fills_its_width(self, n, top, den):
        """The Jacobi sum on e_4 reaches 3 (n - 1) top^2, which needs the
        top bit of a slot below its sign bit: one bit fewer misreads it."""
        L = _extremal_jacobi_table(n, top, den)
        width, _ = core.jacobi_sums(L.ints)
        assert 3 * (n - 1) * top * top >= 1 << width - 2
        assert L.jacobi_residual() == _jacobi_reference(L) == Q(3 * (n - 1) * top * top, den * den)
        assert not L.validated

    @pytest.mark.parametrize("top", [1, 2**20])
    def test_nijenhuis_packing_fills_its_width(self, top):
        """For the standard J the bound (S^2 + 2 R S + dJ^2) M is 4 top, and
        N(e_1, e_3) = (4 top, -1, 0, 0) reaches it: a width one bit short
        packs that as 4 top - 2^(width - 1) = 0 and misses the pair."""
        m = Q(top)
        table = {(1, 3): (-m, 0, 0, 0), (1, 4): (0, m, 0, 0), (2, 3): (0, m, 0, 0), (2, 4): (m, -1, 0, 0)}
        L, J = al.LieAlgebra(4, table), ComplexStructure.standard(4)
        assert nijenhuis(L, J, e(4, 1), e(4, 3)) == (4 * m, -1, 0, 0)
        failing = tuple((i, j) for i, j in combinations(range(1, 5), 2) if any(nijenhuis(L, J, e(4, i), e(4, j))))
        assert (1, 3) in failing
        assert validate_complex_structure(L, J).failing_pairs == failing


class TestComplexShearOnTheBuiltAlgebra:
    def test_matches_the_fraction_references(self, monkeypatch):
        """``check_complex_shear`` reads Jacobi and integrability off the one
        algebra ``build_shear`` returns, and both agree with Fraction
        references; ``validate_complex_structure`` fails exactly on the
        basis pairs where the Fraction Nijenhuis tensor is nonzero."""
        built = []
        from_ints = al.LieAlgebra.from_ints

        def counted(b):
            built.append(from_ints(b))
            return built[-1]

        monkeypatch.setattr(al.LieAlgebra, "from_ints", staticmethod(counted))
        seen = {"jacobi_ok": set(), "integrable_ok": set()}
        for label, data, J in _complex_shear_cases():
            n = data.dim
            if not data.pre_shear.valid:
                with pytest.raises(InvalidPreShearError):
                    check_complex_shear(data, J)
                with pytest.raises(InvalidPreShearError):
                    build_shear(data)
                continue
            del built[:]
            rep = check_complex_shear(data, J)
            L = al.LieAlgebra(n, {pair: la.neg_vec(v) for pair, v in data.omega.values.items()})
            failing = tuple(
                (i, j) for i, j in combinations(range(1, n + 1), 2) if any(nijenhuis(L, J, e(n, i), e(n, j)))
            )
            assert rep.jacobi_ok == (_jacobi_reference(L) == 0), label
            assert rep.integrable_ok == (not failing), label
            assert validate_complex_structure(L, J).failing_pairs == failing, label
            assert is_integrable(L, J) == validate_complex_structure(L, J).integrable, label
            assert L.validated == (L.jacobi_residual() == 0), label
            if rep.jacobi_ok:
                assert build_shear(data) is built[0], label
            else:
                with pytest.raises(JacobiFailedError):
                    build_shear(data)
            assert len(built) == 1, label
            seen["jacobi_ok"].add(rep.jacobi_ok)
            seen["integrable_ok"].add(rep.integrable_ok)
        assert seen == {"jacobi_ok": {True, False}, "integrable_ok": {True, False}}

    def test_data_from_a_bracket_builds_that_algebra(self, cx_type_I, j_std6):
        data = pre_shear_from_bracket(cx_type_I)
        assert check_complex_shear(data, j_std6).valid
        assert build_shear(data) is cx_type_I

    @pytest.mark.parametrize("dim", [6, 8])
    def test_every_verdict_shares_one_nijenhuis_run(self, monkeypatch, dim):
        """Integrability is decided once per (L, J): the complex-shear check,
        the direct verdicts, the shear conditions, the search and its
        certificate, and a J rebuilt from the same matrix, all on one
        generated (data, L, J), run ``validate_complex_structure`` once."""
        runs = []

        def counted(L, J):
            runs.append(J)
            return validate_complex_structure(L, J)

        monkeypatch.setattr(hermitian_module, "validate_complex_structure", counted)
        data, g, J = random_complex_shear(0, "typeI", dim)
        L = build_shear(data)
        assert check_complex_shear(data, J).valid
        verdicts = classify_metric(L, g, J)
        assert [shear_condition(data, g, J, kind) for kind in KINDS] == [verdicts[kind] for kind in KINDS]
        result = search_metric(L, J, "kahler")
        Y = result.certificate if result.certificate is not None else la.identity_matrix(dim)
        assert check_certificate(L, J, "kahler", Y) == (result.status == "none")
        assert classify_metric(L, g, ComplexStructure(J.matrix)) == verdicts
        assert len(runs) == 1

    def test_every_verdict_shares_one_sigma(self, monkeypatch):
        """J^T g is formed once per (g, J): the direct verdicts, the shear
        conditions, the structural verdict and a J rebuilt from the same
        matrix, all on one metric, call ``sigma_of`` once; another metric
        of the same matrix forms its own."""
        data, g, J = random_complex_shear(0, "typeI", 6)
        L, g = build_shear(data), Metric(g.matrix)
        calls = []

        def counted(*args):
            calls.append(args)
            return sigma_of(*args)

        monkeypatch.setattr(hermitian_module, "sigma_of", counted)
        verdicts = classify_metric(L, g, J)
        assert [shear_condition(data, g, J, kind) for kind in KINDS] == [verdicts[kind] for kind in KINDS]
        assert balanced_structural(L, g, J).balanced == verdicts.balanced
        assert classify_metric(L, g, ComplexStructure(J.matrix)) == verdicts
        assert len(calls) == 1
        assert classify_metric(L, Metric(g.matrix), J) == verdicts
        assert len(calls) == 2


class TestBuildShear:
    def test_zero_gives_abelian(self):
        assert build_shear(zero_data(4)) == al.abelian(4)

    def test_counterexample_roundtrip(self, cx_type_I):
        assert build_shear(pre_shear_from_bracket(cx_type_I)) == cx_type_I

    def test_jacobi_failure_raises(self):
        # valid pre-shear data whose quadratic closure fails:
        # w(w(e2,e3), e4) = w(e1, e4) = e2 is the cyclic obstruction
        a = al.Subspace.span(4, [e(4, 1), e(4, 2)])
        w = VectorValuedTwoForm(4, a, {(1, 4): e(4, 2), (2, 3): e(4, 1)})
        data = PreShearData(4, a, w)
        assert data.pre_shear.valid
        with pytest.raises(JacobiFailedError):
            build_shear(data)

    def test_algebras_are_built_from_the_negated_int_table(self):
        """Data of a form w builds [x, y] = -w(x, y), and data read off a
        bracket has w = -[., .]: each is built from the other's int table
        negated, and its Fraction table, formed when read, is the negated
        table of a Fraction-built reference."""
        for seed in range(3):
            data, _, _ = random_complex_shear(seed, "typeIII", 6)
            L = build_shear(data)  # the generator's Fraction-built algebra
            values = data.omega.values  # formed from L's int table
            assert values == {pair: la.neg_vec(v) for pair, v in L.table.items()}
            fresh = PreShearData(6, data.a, VectorValuedTwoForm(6, data.a, values))
            assert fresh.algebra.table == L.table and fresh.algebra == L
            _assert_fresh_table(fresh.algebra.ints, 6, L.table)

    def test_outputs_two_step_solvable(self):
        for seed in range(5):
            data, _, _ = random_complex_shear(seed, "typeI", 6)
            assert al.is_two_step_solvable(build_shear(data))


def _assert_fresh_table(b, dim, table):
    fresh = core.Bilinear(dim, table)
    assert (b.den, b.terms, b.column, b.de) == (fresh.den, fresh.terms, fresh.column, fresh.de)


class TestSharedBracketTable:
    """A bracket table and its shear two-form share one cleared table: each
    negates the other's numerators over the same denominator, and the result
    is exactly the table a fresh ``core.Bilinear`` clears from Fractions."""

    @staticmethod
    def _check(data):
        n = data.dim
        _assert_fresh_table(data.omega.ints, n, data.omega.values)
        _assert_fresh_table(data.algebra.ints, n, data.algebra.table)
        # the algebra of data given only by its form
        fresh = PreShearData(n, data.a, VectorValuedTwoForm(n, data.a, data.omega.values))
        _assert_fresh_table(fresh.algebra.ints, n, fresh.algebra.table)
        assert fresh.algebra.table == data.algebra.table

    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_generated_instances(self, dim):
        checked = 0
        for profile in PROFILES:
            for seed in range(2):
                try:
                    data, _, _ = random_complex_shear(seed, profile, dim)
                except UnsupportedDimensionError:
                    break
                self._check(data)
                checked += 1
        assert checked

    def test_catalog(self):
        for entry in witness_lists():
            self._check(pre_shear_from_bracket(entry.algebra))


class TestShearCondition:
    def test_zero_all_true(self):
        data = zero_data(4)
        J = ComplexStructure.standard(4)
        g = Metric.identity(4)
        for kind in ("kahler", "balanced", "skt"):
            assert shear_condition(data, g, J, kind)

    def test_counterexample_verdicts(self, cx_type_I, j_std6, g_identity6):
        data = pre_shear_from_bracket(cx_type_I)
        assert shear_condition(data, g_identity6, j_std6, "skt")
        assert not shear_condition(data, g_identity6, j_std6, "balanced")
        assert not shear_condition(data, g_identity6, j_std6, "kahler")

    def test_not_complex_data_rejected(self):
        a = al.Subspace.span(4, [e(4, 1), e(4, 2)])
        w = VectorValuedTwoForm(4, a, {(1, 4): e(4, 2), (2, 3): e(4, 1)})
        with pytest.raises(NotComplexShearDataError):
            shear_condition(
                PreShearData(4, a, w), Metric.identity(4), ComplexStructure.standard(4), "skt"
            )

    def test_metric_not_j_invariant_rejected(self, cx_type_I, j_std6):
        """A g that is not J-invariant is a bad metric, not bad shear data."""
        g = Metric([[2 if i == j == 0 else int(i == j) for j in range(6)] for i in range(6)])
        for kind in ("kahler", "balanced", "skt"):
            with pytest.raises(IncompatibleMetricError, match="metric is not compatible with J"):
                shear_condition(pre_shear_from_bracket(cx_type_I), g, j_std6, kind)

    def test_oracle_equivalence_sample(self):
        for profile in PROFILES:
            dims = (6,) if profile == "mixed" else (4, 6)
            for dim in dims:
                for seed in range(4):
                    data, g, J = random_complex_shear(seed, profile, dim)
                    v = classify_metric(build_shear(data), g, J)
                    for kind in ("kahler", "balanced", "skt"):
                        assert shear_condition(data, g, J, kind) == v[kind]

    # closed normal forms are SKT, so the whole 4-subset loop runs on them
    CLOSED_FORMS = {
        8: (
            KahlerNormalForm("I", 0, 2, 2, lambdas=(Q(1), Q(-3, 2))),
            KahlerNormalForm("II", 2, 0, 2, ((), ()), ((Q(1), 0, Q(2), Q(-1)), (0, Q(1, 2), Q(1), Q(1)))),
            KahlerNormalForm("III", 1, 3, 0, ((Q(1), Q(-2), Q(1, 2)),), ((),), (Q(1), Q(2), Q(-1))),
        ),
        10: (
            KahlerNormalForm("I", 0, 3, 2, lambdas=(Q(1), Q(-3, 2), Q(2))),
            KahlerNormalForm("II", 2, 0, 3, ((), ()), ((Q(1), 0, Q(2), Q(-1), 0, Q(1)), (0, Q(1, 2), Q(1), Q(1), Q(-2), 0))),
            KahlerNormalForm("III", 2, 3, 0, ((Q(1), Q(-2), Q(1, 2)), (Q(2), Q(1), Q(-1))), ((), ()), (Q(1), Q(2), Q(-1))),
        ),
    }

    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_split_form_matches_the_permutation_sum(self, dim):
        """The signed sum over pair splits is a quarter of the 24-term
        alternation on every basis 4-subset, value for value, and so decides
        SKT as it does, on every profile the generator builds, each with its
        own and an independent metric, and on closed normal forms; both
        verdicts occur.  Flipping the sign of one split, or leaving alt
        unalternated, breaks it."""
        instances = []
        for profile in PROFILES:
            for seed in range(3):
                try:
                    data, g, J = random_complex_shear(seed, profile, dim)
                except UnsupportedDimensionError:
                    break
                instances.append((data, g, J))
        for params in self.CLOSED_FORMS.get(dim, ()):
            L, g, J = kahler_normal_form(params)
            instances.append((pre_shear_from_bracket(L), g, J))
        verdicts = set()
        for k, (data, g, J) in enumerate(instances):
            other = random_compatible_metric(dim, J, random.Random(f"skt-split-{dim}-{k}"))
            for metric in (g, other):
                values = reference_skt(data, metric, J)
                assert [4 * v for v in _shear_map(data, J, "skt")(metric.ints[0])] == values, (dim, k)
                verdict = shear_condition(data, metric, J, "skt")
                assert verdict == (not any(values)), (dim, k)
                verdicts.add(verdict)
        assert verdicts == {True, False}


def _coordinates(g, kind):
    """The int numerators of g, or of H = g^-1 for balanced: the coordinates
    of each kind's kernel."""
    return core.clear_matrix(la.inverse(g.matrix) if kind == "balanced" else g.matrix)[0]


class TestShearKernel:
    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_spans_the_direct_kernel(self, dim):
        """On every profile the generator builds and on the closed normal
        forms, the shear route's kernel spans exactly the direct route's, and
        the verdict at g is membership of g (of H = g^-1 for balanced) in it:
        one map gives both."""
        instances = []
        for profile in PROFILES:
            for seed in range(2):
                try:
                    data, g, J = random_complex_shear(seed, profile, dim)
                except UnsupportedDimensionError:
                    break
                instances.append((data, g, J, build_shear(data)))
        for params in TestShearCondition.CLOSED_FORMS.get(dim, ()):
            L, g, J = kahler_normal_form(params)
            instances.append((pre_shear_from_bracket(L), g, J, L))
        for k, (data, g, J, L) in enumerate(instances):
            for kind in KINDS:
                kernel = shear_kernel(data, J, kind)
                assert kernel and kernel_span(kernel) == kernel_span(condition_kernel(L, J, kind)), (dim, k, kind)
                member = len(kernel_span([*kernel, _coordinates(g, kind)])) == len(kernel)
                assert shear_condition(data, g, J, kind) == member, (dim, k, kind)

    def test_spans_the_direct_kernel_on_the_catalog(self):
        checked = 0
        for entry in witness_lists():
            L, J = entry.algebra, entry.J
            if al.is_two_step_solvable(L) and is_integrable(L, J):
                data = pre_shear_from_bracket(L)
                for kind in KINDS:
                    assert kernel_span(shear_kernel(data, J, kind)) == kernel_span(condition_kernel(L, J, kind)), entry.name
                checked += 1
        assert checked >= 10

    def test_matrices_are_primitive_and_compatible(self, cx_type_I, j_std6):
        """G-matrices satisfy J^T M J = M; balanced's H-matrices J M J^T = M."""
        jm = j_std6.matrix
        for kind in KINDS:
            for m in shear_kernel(pre_shear_from_bracket(cx_type_I), j_std6, kind):
                assert all(isinstance(c, int) for row in m for c in row)
                assert gcd(*(c for row in m for c in row)) == 1
                if kind == "balanced":
                    assert la.mat_mul(jm, la.mat_mul(m, la.transpose(jm))) == la.mat(m)
                else:
                    assert la.mat_mul(la.transpose(jm), la.mat_mul(m, jm)) == la.mat(m)

    def test_unknown_kind_is_rejected(self, cx_type_I, j_std6):
        with pytest.raises(ValueError, match="unknown condition kind"):
            shear_kernel(pre_shear_from_bracket(cx_type_I), j_std6, "hyperkahler")


def _shear_instances(dims, seeds):
    """(name, data, g, J) for every profile the generator builds at ``dims``."""
    out = []
    for dim in dims:
        for profile in PROFILES:
            for seed in seeds:
                try:
                    data, g, J = random_complex_shear(seed, profile, dim)
                except UnsupportedDimensionError:
                    break
                out.append((f"{profile}-d{dim}-{seed}", data, g, J))
    return out


class TestBalancedBoundary:
    """The balanced shear map is the direct route's d iota(-H J^T) vol read
    as a vector: Koszul's identity, basis matrix by basis matrix."""

    @staticmethod
    def _ratios(data, L, J):
        """(-1)^k times output k of the balanced shear map over the
        coefficient of ``balanced_inverse_form`` on the basis subset that
        omits k, for every H of the J^T-compatible basis; the zero patterns
        must agree."""
        n, full = L.dim, (1 << L.dim) - 1
        boundary = _shear_map(data, J, "balanced")
        ratios = set()
        for h in coordinate_basis(J, "balanced"):
            out = boundary(h)
            form, _ = balanced_inverse_form(L, J, h, 1)
            assert set(form) <= {full ^ (1 << k) for k in range(n)}
            for k in range(n):
                coefficient = form.get(full ^ (1 << k), 0)
                assert (out[k] == 0) == (coefficient == 0), k
                if coefficient:
                    ratios.add(Q((-1) ** k * out[k], coefficient))
        return ratios

    def test_catalog(self):
        checked = 0
        for entry in witness_lists():
            ratios = self._ratios(pre_shear_from_bracket(entry.algebra), entry.algebra, entry.J)
            assert len(ratios) <= 1, entry.name
            checked += len(ratios)
        assert checked >= 10

    @pytest.mark.parametrize("dim", [6, 8, 10])
    def test_generated(self, dim):
        checked = 0
        for name, data, _, J in _shear_instances((dim,), range(2)):
            ratios = self._ratios(data, build_shear(data), J)
            assert len(ratios) <= 1, name
            checked += len(ratios)
        assert checked >= 3

    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_gl_conjugated(self, dim):
        """In the basis Q e_i for a random integer Q, J is no longer
        orthogonal, so J^T and -J differ: the identity and the balanced
        kernel spans hold there as well."""
        rng = random.Random(f"gl-{dim}")
        checked = 0
        for name, data, _, J in _shear_instances((dim,), range(2)):
            while True:
                q = la.mat([[rng.randint(-1, 1) + 2 * (i == j) for j in range(dim)] for i in range(dim)])
                if la.det(q):
                    break
            jq = ComplexStructure(la.mat_mul(la.inverse(q), la.mat_mul(J.matrix, q)))
            assert la.transpose(jq.matrix) != la.mat_scale(-1, jq.matrix)
            L = al.change_basis(build_shear(data), q)
            moved = pre_shear_from_bracket(L)
            ratios = self._ratios(moved, L, jq)
            assert len(ratios) <= 1, name
            checked += len(ratios)
            balanced = shear_kernel(moved, jq, "balanced")
            assert kernel_span(balanced) == kernel_span(condition_kernel(L, jq, "balanced")), name
        assert checked >= 3


class TestBasisChange:
    """(L, J, g) -> (P^-1 L P, J, P^T g P) for P commuting with J keeps every
    verdict of both routes, the structural balanced verdict and every kernel
    dimension of both routes, and the balanced shear kernel still spans the
    direct route's.  The closed normal forms give true verdicts at d8 and
    d10, where the generated metrics give none."""

    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_shear_route_is_invariant(self, dim):
        rng = random.Random(f"basis-change-{dim}")
        instances = _shear_instances((dim,), range(2))
        for params in TestShearCondition.CLOSED_FORMS.get(dim, ()):
            L, g, J = kahler_normal_form(params)
            instances.append((f"closed-{params.pure_type}-d{dim}", pre_shear_from_bracket(L), g, J))
        verdicts = set()
        for name, data, g, J in instances:
            p = commuting_change(J, rng)
            L0 = build_shear(data)
            L = al.change_basis(L0, p)
            moved = pre_shear_from_bracket(L)
            other = random_compatible_metric(dim, J, rng)
            for metric in (g, other):
                pulled = Metric(la.mat_mul(la.transpose(p), la.mat_mul(metric.matrix, p)))
                direct = classify_metric(L0, metric, J)
                assert classify_metric(L, pulled, J) == direct, name
                structural = balanced_structural(L0, metric, J).balanced
                assert balanced_structural(L, pulled, J).balanced == structural == direct["balanced"], name
                for kind in KINDS:
                    verdict = shear_condition(data, metric, J, kind)
                    assert shear_condition(moved, pulled, J, kind) == verdict, (name, kind)
                    verdicts.add(verdict)
            for kind in KINDS:
                kernel = shear_kernel(moved, J, kind)
                assert len(kernel) == len(shear_kernel(data, J, kind)), (name, kind)
                direct = condition_kernel(L, J, kind)
                assert len(direct) == len(condition_kernel(L0, J, kind)), (name, kind)
                if kind == "balanced":
                    assert kernel_span(kernel) == kernel_span(direct), name
        assert verdicts == {True, False}


class TestShearOperators:
    def test_zero_data_clean(self):
        data = zero_data(4)
        ops, report = shear_operators(data, Metric.identity(4), ComplexStructure.standard(4))
        assert report.clean
        assert ops.a_J.dim == 0 and ops.a_r.dim == 0

    def test_oversized_a_is_shrunk_to_the_image(self, cx_type_I, j_std6, g_identity6):
        base = pre_shear_from_bracket(cx_type_I)
        bigger = al.subspace_sum(base.a, al.Subspace.span(6, [e(6, 6)]))
        data = PreShearData(6, bigger, VectorValuedTwoForm(6, bigger, base.omega.values))
        assert data.pre_shear.valid
        ops, report = shear_operators(data, g_identity6, j_std6)
        assert report.clean
        assert al.subspace_sum(ops.a_J, ops.a_r) == base.a

    def test_normal_form_recovers_scalars(self):
        # [JX, Y_j] = alpha_j(X) JY_j shows up as K_X(Y_j) = -alpha_j(X) JY_j
        alpha = Q(3, 2)
        lam = Q(2)
        params = KahlerNormalForm(
            "III", 1, 1, 0, alphas=((alpha,),), betas=((),), lambdas=(lam,)
        )
        L, g, J = kahler_normal_form(params)
        ops, report = shear_operators(pre_shear_from_bracket(L), g, J)
        assert report.clean
        assert ops.a_J == al.Subspace.span(4, [e(4, 1), e(4, 2)])
        (k_matrix,) = ops.K.values()
        # a_J basis is (Y1, JY1): K_X sends Y1 -> -alpha JY1, JY1 -> alpha Y1
        assert k_matrix == ((Q(0), alpha), (-alpha, Q(0)))
        (f_val,) = [v for k, v in ops.f.items() if k == (0, 0)]
        assert f_val == scale_vec(-lam, e(4, 3))

    def test_identities_hold_on_random_data(self):
        cells = [(6, profile, range(4)) for profile in ("typeI", "typeII", "typeIII", "mixed")]
        cells += [(dim, profile, range(2)) for dim in (8, 10) for profile in ("typeI", "typeIII")]
        for dim, profile, seeds in cells:
            for seed in seeds:
                data, g, J = random_complex_shear(seed, profile, dim)
                _, report = shear_operators(data, g, J)
                assert report.clean, (dim, profile, seed, report)

    @pytest.mark.parametrize("dim", [4, 6, 8, 10])
    def test_matches_the_per_vector_reference(self, dim):
        """One coordinate map per splitting gives the operators and the report
        of one solve per value, on every profile the generator builds."""
        for profile in PROFILES:
            for seed in range(2):
                try:
                    data, g, J = random_complex_shear(seed, profile, dim)
                except UnsupportedDimensionError:
                    continue
                assert shear_operators(data, g, J) == reference_shear_operators(data, g, J), (profile, seed)


class TestKahlerShearConsequences:
    def test_closed_shear_data_consequences(self):
        """Closed shears: no form on U_J x U_J or Ja_r x Ja_r, and h = 0."""
        rng = random.Random(6)
        for seed in range(10):
            pure_type = ("I", "II", "III")[seed % 3]
            from hermlie.verify import _random_kahler_params

            params = _random_kahler_params(pure_type, rng)
            L, g, J = kahler_normal_form(params)
            data = pre_shear_from_bracket(L).normalized()
            assert shear_condition(data, g, J, "kahler")
            ops, report = shear_operators(data, g, J)
            assert report.clean
            omega = data.omega
            for z1 in ops.U_J.basis():
                for z2 in ops.U_J.basis():
                    assert la.is_zero_vec(omega(z1, z2))
            for x1 in ops.a_r.basis():
                for x2 in ops.a_r.basis():
                    assert la.is_zero_vec(omega(J.apply(x1), J.apply(x2)))
            assert all(la.is_zero_vec(v) for v in ops.h.values())
