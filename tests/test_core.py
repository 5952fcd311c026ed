"""The integer operator core against naive Fraction references, at dims 8 and 10.

Each reference below works on Fractions directly, in the most literal way:
brackets term by term, the differential from its defining sum, pullbacks
and wedges by permutation sums, and elimination by textbook Gauss-Jordan.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hermlie import core
from hermlie import forms as fm
from hermlie import linalg as la
from hermlie.algebra import LieAlgebra
from hermlie.catalog import witness_lists
from hermlie.errors import IncompatibleMetricError
from hermlie.generators import random_complex_shear
from hermlie.hermitian import Metric, classify_metric, fundamental_form
from hermlie.shear import build_shear, shear_condition

from conftest import BUILDABLE

Q = Fraction
KINDS = ("kahler", "balanced", "skt")
CELLS = [(dim, profile, seed) for dim in (8, 10) for profile in ("typeI", "typeIII") for seed in (0, 1)]


@lru_cache(maxsize=None)
def instance(dim, profile, seed):
    data, g, J = random_complex_shear(seed, profile, dim)
    return data, g, J, build_shear(data)


cells = st.sampled_from(CELLS)
small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def vectors(n):
    return st.lists(small, min_size=n, max_size=n)


def sparse_forms(n, degree, terms=4):
    monomials = st.lists(st.integers(1, n), min_size=degree, max_size=degree, unique=True)
    return st.lists(st.tuples(monomials, small), min_size=1, max_size=terms).map(
        lambda items: fm.form_from_terms(n, degree, items)
    )


# --- naive references ------------------------------------------------------


def perm_sign(seq):
    sign = 1
    for a, b in combinations(range(len(seq)), 2):
        if seq[a] > seq[b]:
            sign = -sign
    return sign


def naive_bracket(table, n, x, y):
    out = [Q(0)] * n
    for (i, j), v in table.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        for k in range(n):
            out[k] += c * v[k]
    return tuple(out)


def form_value(form, indices):
    """form(e_{i1}, .., e_{ik}) for arbitrary indices."""
    if len(set(indices)) < len(indices):
        return Q(0)
    return perm_sign(indices) * form.coeffs.get(tuple(sorted(indices)), Q(0))


def naive_d(L, form):
    """d a(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i, X_j], X_0..^i..^j..X_k)."""
    n, k = L.dim, form.degree
    out = {}
    for idx in combinations(range(1, n + 1), k + 1):
        total = Q(0)
        for a, b in combinations(range(k + 1), 2):
            br = L.table.get((idx[a], idx[b]), (Q(0),) * n)
            rest = tuple(idx[t] for t in range(k + 1) if t not in (a, b))
            for m in range(1, n + 1):
                if br[m - 1]:
                    total += (-1) ** (a + b) * br[m - 1] * form_value(form, (m,) + rest)
        out[idx] = total
    return fm.KForm(n, k + 1, out)


def naive_det(m):
    k = len(m)
    total = Q(0)
    for perm in permutations(range(k)):
        term = Q(perm_sign(perm))
        for r in range(k):
            term *= m[r][perm[r]]
        total += term
    return total


def naive_pullback(j, form):
    """(J^* b)(e_C) = b(J e_c1, .., J e_ck) = sum_R b_R det J[R, C]."""
    n, k = form.dim, form.degree
    out = {}
    for cols in combinations(range(1, n + 1), k):
        out[cols] = sum(
            (c * naive_det([[j[r - 1][s - 1] for s in cols] for r in rows])
             for rows, c in form.coeffs.items()),
            Q(0),
        )
    return fm.KForm(n, k, out)


def naive_wedge(a, b):
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            if set(ia) & set(ib):
                continue
            key = tuple(sorted(ia + ib))
            out[key] = out.get(key, Q(0)) + perm_sign(ia + ib) * ca * cb
    return fm.KForm(a.dim, a.degree + b.degree, out)


def naive_rref(rows):
    """Textbook Gauss-Jordan on Fractions: (nonzero rows, pivot columns)."""
    work = [[Q(x) for x in r] for r in rows]
    if not work:
        return (), ()
    pivots, r = [], 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def naive_gauss_det(m):
    work = [[Q(x) for x in r] for r in m]
    n, result = len(work), Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            result = -result
        result *= work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return result


# --- the core against the references ---------------------------------------


@settings(max_examples=12, deadline=None)
@given(cells, st.data())
def test_bracket_and_shear_form(cell, data):
    shear, _, _, L = instance(*cell)
    n = L.dim
    x, y = data.draw(vectors(n)), data.draw(vectors(n))
    assert L.bracket(x, y) == naive_bracket(L.table, n, x, y)
    assert shear.omega(x, y) == naive_bracket(shear.omega.values, n, x, y)


@settings(max_examples=12, deadline=None)
@given(cells, st.integers(1, 3), st.data())
def test_ce_differential(cell, degree, data):
    _, _, _, L = instance(*cell)
    form = data.draw(sparse_forms(L.dim, degree))
    assert fm.ce_differential(L, form) == naive_d(L, form)


def test_ce_differential_of_sigma():
    for cell in CELLS[::2]:
        _, g, J, L = instance(*cell)
        sigma = fundamental_form(L, g, J)
        assert fm.ce_differential(L, sigma) == naive_d(L, sigma)


@settings(max_examples=12, deadline=None)
@given(cells, st.integers(1, 3), st.data())
def test_j_pullback(cell, degree, data):
    _, _, J, L = instance(*cell)
    form = data.draw(sparse_forms(L.dim, degree, terms=3))
    assert fm.j_pullback(J.matrix, form) == naive_pullback(J.matrix, form)


@settings(max_examples=12, deadline=None)
@given(cells, st.integers(1, 3), st.integers(1, 3), st.data())
def test_wedge(cell, p, q, data):
    n = cell[0]
    a = data.draw(sparse_forms(n, p))
    b = data.draw(sparse_forms(n, q))
    assert fm.wedge(a, b) == naive_wedge(a, b)


def assert_powers(form, top):
    """core.power against repeated naive wedges for k = 0..top, and past
    the top degree."""
    nums, den = form.ints
    power = fm.KForm(form.dim, 0, {(): 1})
    for k in range(top + 1):
        assert fm.KForm.from_ints(form.dim, form.degree * k, core.power(nums, k), den**k) == power
        power = naive_wedge(power, form)
    assert power.is_zero() and core.power(nums, top + 1) == {}


def test_form_power_is_repeated_wedge():
    """Every power of the dense sigma of each buildable profile at d4-d10."""
    for dim, profile in BUILDABLE:
        _, g, J = random_complex_shear(0, profile, dim)
        assert_powers(fm.KForm.from_ints(dim, 2, *g.sigma_ints(J)), dim // 2)


def test_power_of_sparse_sigma_and_higher_degrees():
    for entry in witness_lists()[::5]:
        for witness in entry.witnesses:
            assert_powers(fundamental_form(entry.algebra, witness.metric, entry.J), 3)
    _, g, J, L = instance(8, "typeIII", 1)
    sigma = fundamental_form(L, g, J)
    four = naive_wedge(sigma, sigma) + fm.form_from_terms(8, 4, [((1, 2, 5, 7), 3), ((3, 4, 6, 8), -1)])
    assert_powers(four, 2)
    three = fm.ce_differential(L, sigma)
    assert not three.is_zero()
    assert_powers(three, 1)


def test_wedge_on_both_enumerations():
    """A dense high-degree b is looked up on the free slots of each term of
    a; a sparse b is scanned term by term."""
    _, g, J, L = instance(10, "typeIII", 0)
    sigma = fundamental_form(L, g, J)
    dense = [fm.ce_differential(L, sigma), sigma, fm.form_power(sigma, 3), fm.form_power(sigma, 4)]
    sparse = [fm.form_from_terms(10, 3, [((1, 4, 9), 2), ((2, 3, 10), -5)]), fm.basis_form(10, 6, 7)]
    for a in dense + sparse:
        for b in dense + sparse:
            assert fm.wedge(a, b) == naive_wedge(a, b)


@pytest.mark.parametrize("cell", CELLS[::2])
def test_compatible_with_is_the_literal_invariance(cell):
    _, g, J, _ = instance(*cell)
    n = g.dim

    def add(a, b):
        return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]

    for a in range(n):
        unit = [[Q(int(p == q == a)) for q in range(n)] for p in range(n)]
        pulled = la.mat_mul(la.transpose(J.matrix), la.mat_mul(unit, J.matrix))
        # adding unit alone breaks J-invariance, adding unit + J^T unit J keeps it
        for bump in (unit, add(unit, pulled)):
            metric = Metric(add(g.matrix, bump))
            literal = la.mat_mul(la.transpose(J.matrix), la.mat_mul(metric.matrix, J.matrix))
            assert metric.compatible_with(J) == (literal == metric.matrix) == (bump is not unit)
            if bump is unit:
                with pytest.raises(IncompatibleMetricError):
                    metric.sigma_ints(J)


@pytest.mark.parametrize("cell", CELLS[::2])
def test_dd_vanishes_iff_jacobi(cell):
    _, _, _, L = instance(*cell)
    n = L.dim

    def dd_zero(alg):
        return all(
            fm.ce_differential(alg, fm.ce_differential(alg, fm.basis_form(n, m))).is_zero()
            for m in range(1, n + 1)
        )

    assert L.jacobi_residual() == 0 and dd_zero(L)
    # double one bracket at a time: the Jacobi sums and d o d agree on
    # every perturbed table, and at least one of them breaks the identity
    residuals = []
    for pair in list(L.table)[:4]:
        table = dict(L.table)
        table[pair] = tuple(2 * c for c in table[pair])
        broken = LieAlgebra(n, table)
        residuals.append(broken.jacobi_residual())
        assert (residuals[-1] == 0) == dd_zero(broken)
    assert any(residuals)


@pytest.mark.parametrize("cell", CELLS)
def test_shear_route_agrees_with_classify_metric(cell):
    data, g, J, L = instance(*cell)
    direct = classify_metric(L, g, J)
    for kind in KINDS:
        assert shear_condition(data, g, J, kind) == direct[kind]


# --- the early-exit zero test of d -------------------------------------------


@settings(max_examples=40, deadline=None)
@given(cells, st.integers(0, 10), st.data())
def test_is_closed_is_the_zero_test_of_d(cell, degree, data):
    """On forms of every degree ``core.is_closed`` reads the whole
    differential's zero test, and every exact form is closed."""
    _, _, _, L = instance(*cell)
    nums, _ = data.draw(sparse_forms(L.dim, min(degree, L.dim))).ints
    d = core.differential(L.ints, nums)
    assert core.is_closed(L.ints, nums) == (not d)
    assert core.is_closed(L.ints, d)


def test_exact_forms_are_closed_on_every_validated_algebra():
    """d o d = 0: on every catalog algebra and every buildable generated one,
    d of a dense form of each degree passes ``core.is_closed``, while the
    dense forms themselves are not all closed."""
    rng = Random(0)
    algebras = [entry.algebra for entry in witness_lists()]
    algebras += [build_shear(random_complex_shear(0, profile, dim)[0]) for dim, profile in BUILDABLE]
    for L in algebras:
        b = L.ints
        assert L.validated
        closed = []
        for degree in range(L.dim + 1):
            form = {m: rng.randint(-3, 3) or 1 for m in core._subsets((1 << L.dim) - 1, degree)}
            d = core.differential(b, form)
            assert core.is_closed(b, d), (L, degree)
            closed.append(core.is_closed(b, form))
            assert closed[-1] == (not d), (L, degree)
        assert not all(closed) or not L.table, L


# --- Bareiss elimination -----------------------------------------------------


def matrices(max_rows=10, max_cols=12):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.one_of(st.just(Q(0)), small), min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    )


def square_matrices(max_n=10):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.one_of(st.just(Q(0)), small), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_matches_gauss_jordan(m):
    assert la.rref(m) == naive_rref(m)


@settings(max_examples=25, deadline=None)
@given(square_matrices())
def test_det_matches_gaussian_elimination(m):
    assert la.det(m) == naive_gauss_det(m)
    # the minors Metric's definiteness test reads: those of the numerators
    # over one den, up to the first zero one, where elimination stops
    rows, den = core.clear_matrix(m)
    pivots = list(la.minor_pivots(rows))
    naive = [naive_gauss_det([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m))]
    assert [Q(p, den ** (k + 1)) for k, p in enumerate(pivots)] == naive[: len(pivots)]
    assert len(pivots) == len(m) or pivots[-1] == 0


@settings(max_examples=20, deadline=None)
@given(matrices())
def test_rref_and_det_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    reduced, pivots = la.rref(m)
    s_reduced, s_pivots = sympy.Matrix(m).rref()
    assert pivots == tuple(s_pivots)
    assert [list(r) for r in reduced] == [
        [Q(int(c.p), int(c.q)) for c in s_reduced.row(i)] for i in range(len(pivots))
    ]
    square = [row[: len(m)] for row in m] if len(m) <= len(m[0]) else None
    if square is not None:
        assert la.det(square) == Q(str(sympy.Matrix(square).det()))


@pytest.mark.parametrize("width", [2, 3, 8, 31, 64, 65, 200])
@pytest.mark.parametrize("count", [1, 2, 3, 9])
def test_unpack_round_trip(width, count):
    """Digits at +-(2^(width-1) - 1) and 0 in every slot pack into one int
    and come back; anything above the top slot is refused."""
    top = (1 << width - 1) - 1
    values = (-top, 0, top)
    patterns = list(product(values, repeat=count)) if count <= 3 else [
        [values[(i + shift) % 3] for i in range(count)] for shift in range(3)
    ] + [[v] * count for v in values]
    for digits in patterns:
        packed = sum(d << width * i for i, d in enumerate(digits))
        assert core.unpack(packed, width, count) == list(digits)
    for over in ((top + 1) << width * (count - 1), -(top + 2) << width * (count - 1), 1 << width * count):
        with pytest.raises(AssertionError):
            core.unpack(over, width, count)
