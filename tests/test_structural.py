"""The structural balanced route against a Fraction reference, at dims 4-10.

The reference below is the route written directly on Fractions: spans by
textbook Gauss-Jordan, intersections and orthogonal complements from
kernels, complex Gram-Schmidt by rational projections, and C summed term by
term.  The package runs the same route on int numerators, so every
subspace, unitary basis, C and flag must come out equal.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from hermlie import algebra as al
from hermlie import core, hermitian
from hermlie.catalog import witness_lists
from hermlie.errors import IncompatibleMetricError, NotJInvariantError, NotTwoStepSolvableError
from hermlie.generators import random_complex_shear
from hermlie.hermitian import (
    BalancedReport,
    ComplexStructure,
    HermitianDecomposition,
    Metric,
    UnitaryBasis,
    balanced_structural,
    classify_metric,
    condition_kernel,
    hermitian_decomposition,
    kernel_span,
    unitary_basis,
)
from hermlie.shear import build_shear, pre_shear_from_bracket, shear_condition, shear_kernel

from conftest import bracket_basis

Q = Fraction
KINDS = ("kahler", "balanced", "skt")
# every (dim, profile) the generator builds
CELLS = (
    [(4, p) for p in ("nilpotent", "typeI", "typeII", "typeIII")]
    + [(6, p) for p in ("nilpotent", "typeI", "typeII", "typeIII", "mixed")]
    + [(dim, p) for dim in (8, 10) for p in ("typeI", "typeIII")]
)


@lru_cache(maxsize=None)
def instance(dim, profile, seed):
    data, g, J = random_complex_shear(seed, profile, dim)
    return data, g, J, build_shear(data)


def balanced_witnesses():
    return [
        (f"{e.name}/{k}", e.algebra, w.metric, e.J)
        for e in witness_lists()
        for k, w in enumerate(e.witnesses)
        if w.expected["balanced"]
    ]


# --- the Fraction reference ------------------------------------------------


def naive_rref(rows):
    """Textbook Gauss-Jordan on Fractions: the nonzero reduced rows."""
    work = [[Q(x) for x in r] for r in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
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
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def nullspace(rows, ncols):
    reduced = naive_rref(rows)
    pivots = [next(k for k, c in enumerate(row) if c) for row in reduced]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Q(0)] * ncols
        x[fc] = Q(1)
        for row, pc in zip(reduced, pivots):
            x[pc] = -row[fc]
        basis.append(x)
    return basis


def mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), Q(0)) for row in m)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Q(0))


def pair(G, x, y):
    return dot(x, mat_vec(G, y))


def combination(coeffs, vectors, n):
    out = [Q(0)] * n
    for c, v in zip(coeffs, vectors):
        out = [a + c * b for a, b in zip(out, v)]
    return out


def intersect(a, b, n):
    if not a or not b:
        return ()
    m = [[r[c] for r in a] + [-r[c] for r in b] for c in range(n)]
    return naive_rref([combination(x[: len(a)], a, n) for x in nullspace(m, len(a) + len(b))])


def complement(s, G, n, within=None):
    if within is None:
        within = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    if not within or not s:
        return tuple(tuple(r) for r in within)
    eqs = [[pair(G, v, w) for w in within] for v in s]
    return naive_rref([combination(x, within, n) for x in nullspace(eqs, len(within))])


def j_image(Jm, rows):
    return naive_rref([mat_vec(Jm, v) for v in rows])


def ref_decomposition(L, g, J):
    n, G, Jm = L.dim, g.matrix, J.matrix
    derg = naive_rref(list(L.table.values()))
    ja = j_image(Jm, derg)
    derg_J = intersect(derg, ja, n)
    derg_r = complement(derg_J, G, n, within=derg)
    V_r = naive_rref(list(derg_r) + list(j_image(Jm, derg_r)))
    V_J = complement(naive_rref(list(derg) + list(ja)), G, n)
    s, r, ell = len(derg_J) // 2, len(derg_r), len(V_J) // 2
    if not derg:
        tag = "none"
    elif s == 0:
        tag = "I"
    elif r == 0:
        tag = "II"
    elif ell == 0:
        tag = "III"
    else:
        tag = "mixed"
    spaces = (al.Subspace.span(n, rows) for rows in (derg, derg_J, derg_r, V_r, V_J))
    return HermitianDecomposition(*spaces, s, r, ell, tag)


def ref_unitary(rows, g, J, order=None):
    G, Jm = g.matrix, J.matrix
    pool = [rows[i] for i in order] if order is not None else list(rows)
    vectors, norms = [], []
    while True:
        pool = [v for v in pool if any(v)]
        if not pool:
            return UnitaryBasis(tuple(vectors), tuple(norms))
        v = tuple(pool[0])
        jv = mat_vec(Jm, v)
        nsq = pair(G, v, v)
        vectors += [v, jv]
        norms += [nsq, nsq]
        rest = []
        for w in pool[1:]:
            w = [a - pair(G, w, v) / nsq * b for a, b in zip(w, v)]
            w = [a - pair(G, w, jv) / nsq * b for a, b in zip(w, jv)]
            rest.append(w)
        pool = rest


def bracket(L, x, y):
    out = [Q(0)] * L.dim
    for (i, j), v in L.table.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def ref_balanced(L, g, J, order_vr=None, order_vj=None):
    n, G, Jm = L.dim, g.matrix, J.matrix
    dec = ref_decomposition(L, g, J)
    c = [Q(0)] * n
    for space, order in ((dec.V_r, order_vr), (dec.V_J, order_vj)):
        for v, jv, nsq in ref_unitary(space.rows, g, J, order).pairs():
            c = [a + b / nsq for a, b in zip(c, bracket(L, v, jv))]
    t = [sum((bracket_basis(L, i, k)[k - 1] for k in range(1, n + 1)), Q(0)) for i in range(1, n + 1)]
    trace_vj = all(dot(t, z) == 0 for z in dec.V_J.rows)
    c_orth = all(pair(G, c, y) == 0 for y in dec.derg_J.rows)
    jc = mat_vec(Jm, c)
    trace_vr = all(dot(t, x) == -pair(G, jc, x) for x in dec.V_r.rows)
    verdict = not any(c) if not any(t) else trace_vj and c_orth and trace_vr
    return BalancedReport(verdict, tuple(c), trace_vj, c_orth, trace_vr)


# --- the route against the reference ---------------------------------------


def check_against_reference(L, g, J, rng):
    dec = hermitian_decomposition(L, g, J)
    assert dec == ref_decomposition(L, g, J)
    order_vr = list(range(dec.V_r.dim))
    order_vj = list(range(dec.V_J.dim))
    rng.shuffle(order_vr)
    rng.shuffle(order_vj)
    for space, order in ((dec.V_r, None), (dec.V_J, None), (dec.V_r, order_vr), (dec.V_J, order_vj)):
        assert unitary_basis(space, g, J, order=order) == ref_unitary(space.rows, g, J, order)
    report = balanced_structural(L, g, J)
    assert report == ref_balanced(L, g, J)
    shuffled = balanced_structural(L, g, J, order_vr=order_vr, order_vj=order_vj)
    assert shuffled == ref_balanced(L, g, J, order_vr, order_vj) == report
    return report


@pytest.mark.parametrize("dim,profile", CELLS)
def test_generated_shears_match_reference(dim, profile):
    rng = random.Random(f"{dim}/{profile}")
    for seed in (0, 1):
        _, g, J, L = instance(dim, profile, seed)
        check_against_reference(L, g, J, rng)


def test_balanced_witnesses_match_reference():
    """The generated shears carry no balanced metric; the catalog's do."""
    rng = random.Random(5)
    witnesses = balanced_witnesses()
    for name, L, g, J in witnesses:
        report = check_against_reference(L, g, J, rng)
        assert report.balanced, name
    assert len(witnesses) >= 25


class TestErrors:
    def test_not_two_step_solvable(self):
        # sl2 + R: the derived algebra sl2 is not Abelian
        L = al.make_algebra(4, [(1, 2, 3, 1), (3, 1, 1, 2), (3, 2, 2, -2)])
        with pytest.raises(NotTwoStepSolvableError):
            balanced_structural(L, Metric.identity(4), ComplexStructure.standard(4))

    def test_incompatible_metric(self, cx_type_I, j_std6):
        g = Metric([[2 if i == j == 0 else int(i == j) for j in range(6)] for i in range(6)])
        with pytest.raises(IncompatibleMetricError):
            balanced_structural(cx_type_I, g, j_std6)

    @pytest.mark.parametrize("vectors", [[(1, 0, 0, 0, 0, 0)], [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]])
    def test_not_j_invariant(self, j_std6, g_identity6, vectors):
        S = al.Subspace.span(6, vectors)
        with pytest.raises(NotJInvariantError):
            unitary_basis(S, g_identity6, j_std6)


def test_routes_share_no_differential(monkeypatch):
    """The shear-data and structural routes answer with the direct route's
    operator disabled, and agree with it, the shear kernels included."""
    cells = [(6, p, seed) for p in ("nilpotent", "typeI", "typeII", "typeIII", "mixed") for seed in (0, 1)]
    cells += [(8, p, 0) for p in ("typeI", "typeIII")]
    cases = [(L, g, J, data) for data, g, J, L in (instance(*cell) for cell in cells)]
    cases += [
        (L, g, J, pre_shear_from_bracket(L))
        for _, L, g, J in balanced_witnesses()
        if L.dim == 6 and al.is_two_step_solvable(L)
    ]
    expected = [classify_metric(L, g, J) for L, g, J, _ in cases]
    assert any(v.balanced for v in expected) and not all(v.balanced for v in expected)
    kernels = [{kind: kernel_span(condition_kernel(L, J, kind)) for kind in KINDS} for L, _, J, _ in cases]

    def direct_route(*args, **kwargs):
        raise AssertionError("the direct route's operator was called")

    monkeypatch.setattr(core, "differential", direct_route)
    monkeypatch.setattr(hermitian, "condition_form", direct_route)
    with pytest.raises(AssertionError, match="direct route"):
        classify_metric(*cases[0][:3])
    for (L, g, J, data), direct in zip(cases, expected):
        assert balanced_structural(L, g, J).balanced == direct.balanced
        for kind in KINDS:
            assert shear_condition(data, g, J, kind) == direct[kind]
    for (L, g, J, data), direct in zip(cases, kernels):
        for kind, expected_span in direct.items():
            assert kernel_span(shear_kernel(data, J, kind)) == expected_span
