"""Hermitian structures on rational Lie algebras.

Covers compatible metrics and complex structures, the three metric
conditions by direct differential computation, the orthogonal decomposition
of the algebra induced by the derived algebra, and the metric
splicing/normalisation procedures used to combine special metrics into a
closed fundamental form.

Conventions: sigma = g(J., .); Kahler means d sigma = 0, balanced means
d(sigma^{n-1}) = 0 in dimension 2n, and the torsion condition checked is
d(J^* d sigma) = 0 where J^* pulls back arguments with no extra sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import core, linalg
from .algebra import (
    LieAlgebra,
    Subspace,
    bracket_of_subspaces,
    image_of_bracket,
    intersect,
    is_two_step_solvable,
    is_unimodular,
    orthogonal_complement,
    structure_invariants,
    subspace_sum,
)
from .errors import (
    DimensionMismatchError,
    IncompatibleMetricError,
    InvalidMetricError,
    NotAComplexStructureError,
    NotIntegrableError,
    NotJInvariantError,
    NotPureTypeIIError,
    NotSKTError,
    NotTwoStepSolvableError,
    NotValidatedError,
    PreconditionViolatedError,
)
from .forms import KForm
from .linalg import ONE, ZERO, Matrix, Vector


@dataclass(frozen=True)
class ComplexStructure:
    """A rational endomorphism with J^2 = -id."""

    matrix: Matrix

    def __post_init__(self):
        m = linalg.mat(self.matrix)
        object.__setattr__(self, "matrix", m)
        n = len(m)
        if n % 2 or any(len(r) != n for r in m):
            raise NotAComplexStructureError("J must be square of even size")
        rows, den = core.clear_matrix(m)
        minus = -den * den
        square = core.mat_mul(rows, rows)
        if any(c != (minus if i == j else 0) for i, row in enumerate(square) for j, c in enumerate(row)):
            raise NotAComplexStructureError("J^2 != -identity")
        object.__setattr__(self, "ints", (rows, den))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, v: Sequence) -> Vector:
        rows, den = self.ints
        if len(v) != len(rows):
            raise DimensionMismatchError("vector and J dimensions differ")
        nums, dv = core.clear(linalg.vec(v))
        return core.fractions(core.mat_vec(rows, nums), den * dv)

    @staticmethod
    def standard(dim: int) -> "ComplexStructure":
        """J e_{2i-1} = e_{2i} on consecutive pairs."""
        return ComplexStructure.from_pairs(dim, [(i, i + 1) for i in range(1, dim, 2)])

    @staticmethod
    def from_pairs(dim: int, pairs: Sequence[tuple[int, int]]) -> "ComplexStructure":
        """Build J from pairs (a, b) meaning J e_a = e_b (so J e_b = -e_a)."""
        cols = [linalg.zero_vec(dim)] * dim
        for a, b in pairs:
            cols[a - 1] = linalg.unit_vec(dim, b)
            cols[b - 1] = linalg.scale_vec(-1, linalg.unit_vec(dim, a))
        return ComplexStructure(linalg.matrix_from_columns(cols))


@dataclass(frozen=True)
class Metric:
    """A symmetric positive definite rational bilinear form."""

    matrix: Matrix

    def __post_init__(self):
        m = linalg.mat(self.matrix)
        object.__setattr__(self, "matrix", m)
        n = len(m)
        if any(len(r) != n for r in m):
            raise InvalidMetricError("metric matrix must be square")
        if m != linalg.transpose(m):
            raise InvalidMetricError("metric matrix must be symmetric")
        if any(minor <= 0 for minor in linalg.leading_principal_minors(m)):
            raise InvalidMetricError("metric matrix is not positive definite")
        object.__setattr__(self, "ints", core.clear_matrix(m))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def pair(self, x: Sequence, y: Sequence) -> Fraction:
        rows, den = self.ints
        if len(x) != len(rows) or len(y) != len(rows):
            raise DimensionMismatchError("vector and metric dimensions differ")
        (xs, dx), (ys, dy) = core.clear(linalg.vec(x)), core.clear(linalg.vec(y))
        return Fraction(core.dot(xs, core.mat_vec(rows, ys)), den * dx * dy)

    def compatible_with(self, J: ComplexStructure) -> bool:
        """J^T g J = g, compared on numerators: (dJ^2 dg) J^T g J vs dJ^2 (dg g)."""
        if J.dim != self.dim:
            raise DimensionMismatchError("metric and J dimensions differ")
        (j, dj), (g, _) = J.ints, self.ints
        jt_g_j = core.mat_mul(core.mat_mul(list(zip(*j)), g), j)
        scale = dj * dj
        return all(a == scale * b for ra, rb in zip(jt_g_j, g) for a, b in zip(ra, rb))

    def sigma_ints(self, J: ComplexStructure) -> tuple[dict[int, int], int]:
        """sigma = g(J., .) = J^T g on core bitmasks, over dJ * dg."""
        if not self.compatible_with(J):
            raise IncompatibleMetricError("metric is not J-invariant")
        return sigma_of(J, *self.ints)

    @staticmethod
    def identity(dim: int) -> "Metric":
        return Metric(linalg.identity_matrix(dim))

    @staticmethod
    def from_orthonormal_frame(vectors: Sequence[Sequence]) -> "Metric":
        """The metric for which the given frame is orthonormal."""
        b = linalg.matrix_from_columns([linalg.vec(v) for v in vectors])
        b_inv = linalg.inverse(b)
        return Metric(linalg.mat_mul(linalg.transpose(b_inv), b_inv))


def sigma_of(J: ComplexStructure, g: Sequence[Sequence[int]], dg: int) -> tuple[dict[int, int], int]:
    """The two-form J^T g of any J-invariant symmetric g, given as numerators
    over dg, on core bitmasks over dJ * dg; g need not be definite."""
    j, dj = J.ints
    m = core.mat_mul(list(zip(*j)), g)
    n = len(m)
    form = {(1 << a) | (1 << b): m[a][b] for a in range(n) for b in range(a + 1, n) if m[a][b]}
    return form, dj * dg


def nijenhuis(L: LieAlgebra, J: ComplexStructure, x: Sequence, y: Sequence) -> Vector:
    """N(x,y) = [Jx,Jy] - J[Jx,y] - J[x,Jy] - [x,y]."""
    jx, jy = J.apply(x), J.apply(y)
    out = L.bracket(jx, jy)
    out = linalg.sub_vec(out, J.apply(L.bracket(jx, y)))
    out = linalg.sub_vec(out, J.apply(L.bracket(x, jy)))
    return linalg.sub_vec(out, L.bracket(x, y))


@dataclass(frozen=True)
class ComplexStructureReport:
    integrable: bool
    failing_pairs: tuple[tuple[int, int], ...]


def validate_complex_structure(L: LieAlgebra, J: ComplexStructure) -> ComplexStructureReport:
    """Nijenhuis tensor on basis pairs, on numerators over dJ^2 * den(L):
    B(J e_i, J e_j) - J B(J e_i, e_j) - J B(e_i, J e_j) - dJ^2 B(e_i, e_j)."""
    if J.dim != L.dim:
        raise DimensionMismatchError("J and algebra dimensions differ")
    b = L.ints
    rows, dj = J.ints
    n = L.dim
    cols = [list(c) for c in zip(*rows)]  # J e_i
    # left[i][j] = B(J e_i, e_j); B(J e_i, J e_j) = sum_k (J e_j)_k left[i][k]
    left = [[b.with_basis(cols[i], j) for j in range(n)] for i in range(n)]
    left_t = [list(zip(*row)) for row in left]
    plain = b.on_basis()
    scale = dj * dj
    failing = []
    for i in range(n):
        for j in range(i + 1, n):
            mixed = [x - y for x, y in zip(left[i][j], left[j][i])]
            out = core.mat_vec(rows, mixed)
            jj = core.mat_vec(left_t[i], cols[j])
            if any(p - q - scale * r for p, q, r in zip(jj, out, plain[(i, j)])):
                failing.append((i + 1, j + 1))
    return ComplexStructureReport(not failing, tuple(failing))


def is_integrable(L: LieAlgebra, J: ComplexStructure) -> bool:
    return validate_complex_structure(L, J).integrable


def fundamental_form(L: LieAlgebra, g: Metric, J: ComplexStructure) -> KForm:
    """sigma = g(J., .) as a 2-form."""
    nums, den = g.sigma_ints(J)
    return KForm.from_ints(L.dim, 2, nums, den)


@dataclass(frozen=True)
class MetricVerdicts:
    kahler: bool
    balanced: bool
    skt: bool

    def __getitem__(self, kind: str) -> bool:
        return {"kahler": self.kahler, "balanced": self.balanced, "skt": self.skt}[kind]

    def as_dict(self) -> dict[str, bool]:
        return {"kahler": self.kahler, "balanced": self.balanced, "skt": self.skt}


def classify_metric(
    L: LieAlgebra,
    g: Metric,
    J: ComplexStructure,
    allow_nonintegrable: bool = False,
) -> MetricVerdicts:
    """Exact verdicts for the three closedness conditions of sigma."""
    L.require_validated()
    if J.dim != L.dim:
        raise DimensionMismatchError("J and algebra dimensions differ")
    if not allow_nonintegrable and not is_integrable(L, J):
        raise NotIntegrableError("Nijenhuis tensor does not vanish; pass allow_nonintegrable to force")
    # zero tests on numerators: sigma over dJ dg, d adds den(L), J^* adds dJ^3
    sigma, _ = g.sigma_ints(J)
    b = L.ints
    n = L.dim // 2
    dsigma = core.differential(b, sigma)
    kahler = not dsigma
    balanced = n < 2 or not core.differential(b, core.power(sigma, n - 1))
    skt = not core.differential(b, core.pullback(J.ints[0], dsigma))
    return MetricVerdicts(kahler, balanced, skt)


@dataclass(frozen=True)
class HermitianDecomposition:
    """g = derg_J + V_r + V_J, orthogonal and J-invariant."""

    derg: Subspace
    derg_J: Subspace
    derg_r: Subspace
    V_r: Subspace
    V_J: Subspace
    s: int
    r: int
    ell: int
    pure_type: str  # one of "I", "II", "III", "mixed", "none"


def _j_image(J: ComplexStructure, s: Subspace) -> Subspace:
    return Subspace.span(s.ambient_dim, [J.apply(v) for v in s.basis()])


def hermitian_decomposition(L: LieAlgebra, g: Metric, J: ComplexStructure) -> HermitianDecomposition:
    derg = image_of_bracket(L)
    derg_J = intersect(derg, _j_image(J, derg))
    derg_r = orthogonal_complement(derg_J, g.matrix, within=derg)
    V_r = subspace_sum(derg_r, _j_image(J, derg_r))
    V_J = orthogonal_complement(subspace_sum(derg, _j_image(J, derg)), g.matrix)
    s, r, ell = derg_J.dim // 2, derg_r.dim, V_J.dim // 2
    if derg.dim == 0:
        tag = "none"
    elif s == 0:
        tag = "I"
    elif r == 0:
        tag = "II"
    elif ell == 0:
        tag = "III"
    else:
        tag = "mixed"
    return HermitianDecomposition(derg, derg_J, derg_r, V_r, V_J, s, r, ell, tag)


@dataclass(frozen=True)
class UnitaryBasis:
    """Orthogonal J-paired vectors v, Jv with exact square norms.

    Vectors are not normalised (rational norms need not have rational
    square roots); ``norms_sq[k]`` is g(v_k, v_k).  Criteria evaluated on
    these bases divide by the square norms instead of normalising.
    """

    vectors: tuple[Vector, ...]
    norms_sq: tuple[Fraction, ...]

    def pairs(self):
        for i in range(0, len(self.vectors), 2):
            yield self.vectors[i], self.vectors[i + 1], self.norms_sq[i]


def unitary_basis(S: Subspace, g: Metric, J: ComplexStructure, order: Sequence[int] | None = None) -> UnitaryBasis:
    """Complex Gram-Schmidt on a J-invariant subspace.

    ``order`` optionally permutes the starting basis, which produces a
    different (equally valid) unitary basis; structural criteria must not
    depend on this choice.
    """
    for v in S.basis():
        if not S.contains(J.apply(v)):
            raise NotJInvariantError("subspace is not J-invariant")
    if S.dim % 2:
        raise NotJInvariantError("J-invariant subspace must have even dimension")
    pool = list(S.basis())
    if order is not None:
        pool = [pool[i] for i in order]
    vectors: list[Vector] = []
    norms: list[Fraction] = []
    remaining = pool
    while True:
        remaining = [v for v in remaining if not linalg.is_zero_vec(v)]
        if not remaining:
            break
        v = remaining[0]
        jv = J.apply(v)
        nsq = g.pair(v, v)
        vectors.extend([v, jv])
        norms.extend([nsq, nsq])
        reduced = []
        for w in remaining[1:]:
            w = linalg.sub_vec(w, linalg.scale_vec(g.pair(w, v) / nsq, v))
            w = linalg.sub_vec(w, linalg.scale_vec(g.pair(w, jv) / nsq, jv))
            reduced.append(w)
        remaining = reduced
    # the projected pool spans the orthogonal complement of the picked
    # complex lines inside S at every step, so the count always comes out
    assert len(vectors) == S.dim
    return UnitaryBasis(tuple(vectors), tuple(norms))


@dataclass(frozen=True)
class BalancedReport:
    balanced: bool
    C: Vector
    trace_vj_vanishes: bool
    c_orthogonal_to_derg_J: bool
    trace_vr_matches: bool


def balanced_structural(
    L: LieAlgebra,
    g: Metric,
    J: ComplexStructure,
    order_vr: Sequence[int] | None = None,
    order_vj: Sequence[int] | None = None,
) -> BalancedReport:
    """Balanced verdict from traces and the canonical commutator element.

    The element C sums [v, Jv]/|v|^2 over unitary pairs of V_r and V_J; the
    structure is balanced iff tr ad vanishes on V_J, C is orthogonal to
    derg_J and tr(ad X) = -sigma(C, X) on V_r.  For unimodular algebras all
    three collapse to C = 0.
    """
    if not is_two_step_solvable(L):
        raise NotTwoStepSolvableError("structural criterion requires a two-step solvable algebra")
    if not g.compatible_with(J):
        raise IncompatibleMetricError("metric is not J-invariant")
    dec = hermitian_decomposition(L, g, J)
    sigma = fundamental_form(L, g, J)

    c = linalg.zero_vec(L.dim)
    for space, order in ((dec.V_r, order_vr), (dec.V_J, order_vj)):
        for v, jv, nsq in unitary_basis(space, g, J, order=order).pairs():
            c = linalg.add_vec(c, linalg.scale_vec(1 / nsq, L.bracket(v, jv)))

    def tr(m: Matrix) -> Fraction:
        return sum((m[k][k] for k in range(L.dim)), ZERO)

    trace_vj = all(tr(L.ad(z)) == 0 for z in dec.V_J.basis())
    c_orth = all(g.pair(c, y) == 0 for y in dec.derg_J.basis())
    sigma_matrix = linalg.mat_mul(linalg.transpose(J.matrix), g.matrix)

    def sigma_pair(x: Sequence, y: Sequence) -> Fraction:
        return linalg.dot(linalg.vec(x), linalg.mat_vec(sigma_matrix, linalg.vec(y)))

    trace_vr = all(tr(L.ad(x)) == -sigma_pair(c, x) for x in dec.V_r.basis())

    if is_unimodular(L):
        verdict = linalg.is_zero_vec(c)
    else:
        verdict = trace_vj and c_orth and trace_vr
    return BalancedReport(verdict, c, trace_vj, c_orth, trace_vr)


def fingerprint_distinguish(L1: LieAlgebra, L2: LieAlgebra) -> str:
    """'distinct' when a structural invariant separates the algebras.

    Never claims isomorphism: equal fingerprints return 'inconclusive'.
    """
    return "distinct" if structure_invariants(L1) != structure_invariants(L2) else "inconclusive"


def _block_metric(
    basis_a: Sequence[Vector],
    basis_b: Sequence[Vector],
    gram_a: Matrix,
    gram_b: Matrix,
) -> Metric:
    """Metric with the two bases spanning orthogonal blocks with given Grams."""
    b = linalg.matrix_from_columns(list(basis_a) + list(basis_b))
    na, nb = len(basis_a), len(basis_b)
    gram = [[ZERO] * (na + nb) for _ in range(na + nb)]
    for i in range(na):
        for j in range(na):
            gram[i][j] = gram_a[i][j]
    for i in range(nb):
        for j in range(nb):
            gram[na + i][na + j] = gram_b[i][j]
    b_inv = linalg.inverse(b)
    return Metric(
        linalg.mat_mul(
            linalg.transpose(b_inv), linalg.mat_mul(linalg.mat(gram), b_inv)
        )
    )


def splice_metric(
    L: LieAlgebra,
    J: ComplexStructure,
    g_inner: Metric,
    g_outer: Metric,
    S: Subspace,
) -> Metric:
    """Combine two compatible metrics across a J-invariant subspace.

    The result restricts to g_inner on S, to g_outer on the g_outer
    orthogonal complement of S, and makes the two orthogonal.
    """
    for v in S.basis():
        if not S.contains(J.apply(v)):
            raise NotJInvariantError("splice subspace must be J-invariant")
    if not (g_inner.compatible_with(J) and g_outer.compatible_with(J)):
        raise IncompatibleMetricError("both metrics must be compatible with J")
    t = orthogonal_complement(S, g_outer.matrix)
    sb, tb = S.basis(), t.basis()
    gram_s = linalg.mat([[g_inner.pair(u, v) for v in sb] for u in sb])
    gram_t = linalg.mat([[g_outer.pair(u, v) for v in tb] for u in tb])
    out = _block_metric(sb, tb, gram_s, gram_t)
    assert out.compatible_with(J)
    return out


def normalize_skt_typeII(
    L: LieAlgebra, J: ComplexStructure, g: Metric
) -> tuple[Metric, Subspace]:
    """Move the complement of the derived algebra so its self-brackets split off.

    Returns a compatible metric g~ and the new complement V~ such that
    derg = [V~, derg] + [V~, V~] is a g~-orthogonal direct sum and g~ keeps
    the torsion condition (only g|derg and the choice of complement enter
    it for complex derived algebras).

    The correction Z -> Z + r(Z) is found by solving the rational linear
    system expressing that the [V~, V~] brackets have no component along
    [g, derg]; a solution exists whenever the input satisfies the
    structural hypotheses.
    """
    verdicts = classify_metric(L, g, J)
    if not verdicts.skt:
        raise NotSKTError("input metric does not satisfy the torsion condition")
    dec = hermitian_decomposition(L, g, J)
    if dec.pure_type != "II":
        raise NotPureTypeIIError("derived algebra must be complex (pure type II)")

    derg, v_j = dec.derg, dec.V_J
    d1 = bracket_of_subspaces(L, Subspace.full(L.dim), derg)
    d2 = orthogonal_complement(d1, g.matrix, within=derg)

    vj_pairs = [(v, jv) for v, jv, _ in unitary_basis(v_j, g, J).pairs()]
    flat = []
    for v, jv in vj_pairs:
        flat.extend([v, jv])
    derg_basis = derg.basis()
    nd = len(derg_basis)
    ell = len(vj_pairs)
    # unknowns: coefficients of r(v_c) in the derg basis, complex-linearly
    # extended by r(Jv_c) = J r(v_c).
    nunk = ell * nd

    def r_of(index: int, coeffs: Sequence[Fraction]) -> Vector:
        # index runs over `flat`; odd entries are J-partners
        c, is_j = divmod(index, 2)
        v = linalg.combination(coeffs[c * nd: (c + 1) * nd], derg_basis, L.dim)
        return J.apply(v) if is_j else v

    eqs: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    d1_basis = d1.basis()

    def d1_coordinates(v: Vector) -> Vector:
        # component of v along d1 in the splitting derg = d1 + d2
        coords = linalg.coordinates_in(d1_basis + d2.basis(), v)
        assert coords is not None
        return coords[: len(d1_basis)]

    for p in range(len(flat)):
        for q in range(p + 1, len(flat)):
            base = d1_coordinates(L.bracket(flat[p], flat[q]))
            # coefficient of each unknown in the d1-component of
            # [r(P), Q] + [P, r(Q)] = -ad(Q) r(P) + ad(P) r(Q)
            row_block = []
            for u in range(nunk):
                unit = [ZERO] * nunk
                unit[u] = ONE
                contrib = linalg.sub_vec(
                    L.bracket(r_of(p, unit), flat[q]), L.bracket(r_of(q, unit), flat[p])
                )
                row_block.append(d1_coordinates(contrib))
            for k in range(len(d1_basis)):
                eqs.append([row_block[u][k] for u in range(nunk)])
                rhs.append(-base[k])

    if nunk == 0 or not eqs:
        sol = (ZERO,) * nunk
    else:
        sol = linalg.solve(linalg.mat(eqs), rhs)
        if sol is None:
            raise NotSKTError("no complement correction exists; input is not of the expected form")

    new_basis = []
    for idx in range(len(flat)):
        new_basis.append(linalg.add_vec(flat[idx], r_of(idx, sol)))
    v_tilde = Subspace.span(L.dim, new_basis)

    gram_d = linalg.mat([[g.pair(u, v) for v in derg_basis] for u in derg_basis])
    gram_v = linalg.mat([[g.pair(u, v) for v in flat] for u in flat])
    g_new = _block_metric(derg_basis, new_basis, gram_d, gram_v)
    assert g_new.compatible_with(J)
    return g_new, v_tilde


def kahler_from_skt_and_balanced_typeII(
    L: LieAlgebra, J: ComplexStructure, g_skt: Metric, g_bal: Metric
) -> Metric:
    """Combine a torsion-free-able pair of special metrics into a Kahler one.

    For a unimodular two-step solvable algebra whose derived algebra is
    complex, an SKT metric and a balanced metric can be merged: normalise
    the SKT metric, carry the balanced complement over, and splice.  The
    output satisfies d sigma = 0 exactly.
    """
    if not L.validated:
        raise PreconditionViolatedError("validated", "structure constants violate Jacobi")
    if not is_two_step_solvable(L):
        raise PreconditionViolatedError("two-step solvable")
    if not is_unimodular(L):
        raise PreconditionViolatedError("unimodular")
    dec = hermitian_decomposition(L, g_skt, J)
    if dec.pure_type != "II":
        raise PreconditionViolatedError("pure type II", f"decomposition has type {dec.pure_type}")
    if not classify_metric(L, g_skt, J).skt:
        raise PreconditionViolatedError("skt metric", "first metric fails the torsion condition")
    if not classify_metric(L, g_bal, J).balanced:
        raise PreconditionViolatedError("balanced metric", "second metric is not balanced")

    g_tilde, v_tilde = normalize_skt_typeII(L, J, g_skt)
    derg = dec.derg
    v_hat = orthogonal_complement(derg, g_bal.matrix)

    # R maps v_tilde to v_hat along derg: R(z) = z + r(z) with r into derg.
    vh_basis = v_hat.basis()
    derg_basis = derg.basis()
    images = []
    for z in v_tilde.basis():
        coords = linalg.coordinates_in(vh_basis + derg_basis, z)
        assert coords is not None
        images.append(linalg.combination(coords[: len(vh_basis)], vh_basis, L.dim))

    vt_basis = v_tilde.basis()
    gram_d = linalg.mat([[g_tilde.pair(u, v) for v in derg_basis] for u in derg_basis])
    gram_v = linalg.mat(
        [[g_bal.pair(ru, rv) for rv in images] for ru in images]
    )
    out = _block_metric(derg_basis, vt_basis, gram_d, gram_v)
    assert out.compatible_with(J)
    return out
