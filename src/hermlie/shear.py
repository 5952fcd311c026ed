"""Two-step solvable algebras from shear data on an Abelian base.

A pair (a, w) with a a subspace of R^{2n} and w an a-valued two-form
vanishing on a x a determines the bracket [x, y] = -w(x, y).  The produced
algebra is two-step solvable with derived algebra im(w), and every
two-step solvable algebra with a complex structure arises this way.

The three metric conditions have equivalent formulations directly on the
data; they are implemented here independently of the differential
computation so the two routes can be checked against each other:

  complex:   the built algebra satisfies Jacobi and J is integrable on it
  Kahler:    tau = Alt(sigma(w(.,.),.)) = 0
  balanced:  sum_{a<b} P_ab w(e_a, e_b) + P chi = 0, P = H J^T, chi_a = tr w(e_a, .)
  torsion:   Alt(g(w(J.,J.), w(.,.)) + 2 g(w(J w(.,.), J.), .)) = 0

Balanced is d iota(-H J^T) vol = 0 for H = g^-1 (Michelsohn, Acta Math.
149, 1982); Koszul's duality of Lie algebra homology and cohomology (Bull.
SMF 78, 1950) turns that (2n-1)-form into the vector above, up to a nonzero
factor.  P is skew, as H is compatible with J^T.  Each equation is one map,
linear in the numerators of X, g for Kahler and torsion and H for balanced
(``hermitian.coordinates``), to its values on the basis subsets.  At X of g
it gives the verdict (``shear_condition``); run once on the compatible basis
of X packed into one int matrix (``hermitian.packed_kernel``) it gives the
shear route's own exact kernel (``shear_kernel``), whose span must equal
that of the direct route's ``hermitian.condition_kernel``.

Both torsion terms are antisymmetric in their first two slots and the
first also in its last two, so, as for a wedge of two-forms, the
alternation on a basis 4-subset is four times a signed sum over its six
splits into sorted pairs A = (a, b), B = (c, d):

  sum sign(A, B) (g(w(Ja,Jb), w(c,d)) + g(w(J w(a,b), Jc), d) - g(w(J w(a,b), Jd), c))

Both terms read one table, g w(J e_x, J e_y); that needs g symmetric, as every
``Metric`` and every matrix of ``ComplexStructure.compatible_basis`` is.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import combinations
from typing import Sequence

from . import core, linalg
from .algebra import LieAlgebra, Subspace, image_of_bracket, in_span, span_ints
from .errors import (
    IncompatibleMetricError,
    InvalidPreShearError,
    JacobiFailedError,
    NotComplexShearDataError,
)
from .forms import VectorValuedTwoForm
from .hermitian import (
    ComplexStructure, Metric, coordinate_basis, coordinates, is_integrable, j_adapted_split, packed_kernel, require_dim
)
from .linalg import Matrix, Vector


@dataclass(frozen=True)
class PreShearData:
    """A subspace together with a compatible vector-valued two-form."""

    dim: int
    a: Subspace
    omega: VectorValuedTwoForm

    def normalized(self) -> "PreShearData":
        """Shrink `a` to the image of the form (the derived algebra)."""
        img = Subspace(self.dim, self.image_ints)
        return PreShearData(self.dim, img, VectorValuedTwoForm.from_ints(img, self.omega.ints))

    @cached_property
    def image_ints(self) -> tuple[tuple[int, ...], ...]:
        """Primitive echelon basis of im(w), which is the derived algebra of
        the algebra the data builds (``algebra.span_ints``)."""
        return span_ints(self.omega.ints)

    @cached_property
    def algebra(self) -> LieAlgebra:
        """The algebra [x, y] = -w(x, y), not validated, built from w's
        integer table negated; its Fraction table is formed only when read,
        and its derived algebra is the data's ``image_ints``, as -w spans
        what w spans."""
        L = LieAlgebra.from_ints(self.omega.ints.negated())
        L.derived_ints = self.image_ints
        return L

    @cached_property
    def pre_shear(self) -> PreShearReport:
        """The check of w|_(a x a) = 0 and im(w) inside a.  im(w) lies in a
        when the rows of ``image_ints`` do; only when one does not is every
        value tested, to list the offending pairs."""
        w, basis = self.omega.ints, self.a.ints
        image_bad = []
        if not all(in_span(basis, row) for row in self.image_ints):
            image_bad = [(i + 1, j + 1) for i, j, _ in w.terms if not in_span(basis, w.on_basis[(i, j)])]
        restriction_bad = [
            (p + 1, q + 1) for p, q in combinations(range(len(basis)), 2) if any(w(basis[p], basis[q]))
        ]
        return PreShearReport(
            not image_bad and not restriction_bad,
            tuple(image_bad),
            tuple(restriction_bad),
        )


@dataclass(frozen=True)
class PreShearReport:
    valid: bool
    image_violations: tuple[tuple[int, int], ...]
    restriction_violations: tuple[tuple[int, int], ...]


def pre_shear_from_bracket(L: LieAlgebra) -> PreShearData:
    """Reconstruct (a, w) = (derg, -bracket); the algebra it builds is L."""
    img = image_of_bracket(L)
    data = PreShearData(L.dim, img, VectorValuedTwoForm.from_ints(img, L.ints.negated()))
    object.__setattr__(data, "algebra", L)
    object.__setattr__(data, "image_ints", L.derived_ints)
    return data


@dataclass(frozen=True)
class ComplexShearReport:
    jacobi_ok: bool
    integrable_ok: bool

    @property
    def valid(self) -> bool:
        return self.jacobi_ok and self.integrable_ok


def check_complex_shear(data: PreShearData, J: ComplexStructure) -> ComplexShearReport:
    """Jacobi and the integrability of J on the algebra the data builds: two
    cached facts of that algebra, the second decided once per (L, J) by
    ``hermitian.is_integrable``."""
    require_dim(data.dim, J)
    if not data.pre_shear.valid:
        raise InvalidPreShearError("not pre-shear data: form does not vanish on a or leaves a")
    L = data.algebra
    return ComplexShearReport(L.validated, is_integrable(L, J))


def build_shear(data: PreShearData) -> LieAlgebra:
    """The algebra [x, y] = -w(x, y); requires the quadratic closure condition."""
    if not data.pre_shear.valid:
        raise InvalidPreShearError("not pre-shear data")
    L = data.algebra
    if not L.validated:
        raise JacobiFailedError(
            f"shear data does not close: Jacobi residual {L.jacobi_residual()}"
        )
    return L


def _require_complex(data: PreShearData, J: ComplexStructure) -> None:
    rep = check_complex_shear(data, J)
    if not rep.valid:
        raise NotComplexShearDataError(
            f"shear data equations fail (jacobi_ok={rep.jacobi_ok}, integrable_ok={rep.integrable_ok})"
        )


def _shear_map(data: PreShearData, J: ComplexStructure, kind: str):
    """The Kahler (tau), balanced or torsion equations as one map to their
    values on the basis 3-subsets (``combinations`` order), on the basis or
    on the basis 4-subsets, ints linear in its argument: the numerators of
    the symmetric X of ``hermitian.coordinates``, g for Kahler and torsion
    and H = g^-1 for balanced.  What does not depend on X is built once."""
    n2 = data.dim
    w = data.omega.ints
    ob = w.on_basis  # (x, y) -> w(e_x, e_y), 0-indexed
    jm, _ = J.ints
    if kind == "kahler":
        triples = list(combinations(range(n2), 3))
        jw = cache(lambda a, b: core.mat_vec(jm, ob[(a, b)]))  # J w(e_a, e_b) for nonzero w, formed when first read

        def tau(gm):
            # tau(e_i, e_j, e_k) = sigma(w(e_i, e_j), e_k) + cyclic; sigma(x, e_k) = g_k . J x, as g is symmetric
            for i, j, k in triples:
                splits = ((i, j, k, 1), (j, k, i, 1), (i, k, j, -1))  # w(e_k, e_i) = -w(e_i, e_k)
                yield sum(s * core.dot(gm[c], jw(a, b)) for a, b, c, s in splits if a in w.column[b])

        return tau
    if kind == "balanced":
        chi = [sum(ob[(a, c)][c] for c in range(n2) if c != a) for a in range(n2)]  # tr w(e_a, .)
        jt_chi = core.mat_vec(list(zip(*jm)), chi)  # P chi = H J^T chi

        def boundary(h):
            out = core.mat_vec(h, jt_chi)
            for a, b, nums in w.terms:  # sum_{a<b} P_ab w(e_a, e_b), P_ab = H_a . J_b
                c = core.dot(h[a], jm[b])
                for k, v in nums:
                    out[k] += c * v
            return out

        return boundary
    # the split form, both terms over dg dw^2 dJ^2
    j_units = [list(c) for c in zip(*jm)]  # J e_t
    pairs = list(combinations(range(n2), 2))
    jj = {(x, y): w(j_units[x], j_units[y]) for x, y in pairs}  # w(J e_x, J e_y)
    quads = list(combinations(range(n2), 4))

    def torsion(gm):
        gjj = {pair: core.mat_vec(gm, v) for pair, v in jj.items()}  # g w(J e_x, J e_y)
        rows = [[[0] * n2] * n2 for _ in range(n2)]  # rows[c][x] = g w(J e_c, J e_x)
        for (c, x), v in gjj.items():
            rows[c][x], rows[x][c] = v, [-t for t in v]
        # g(w(Ja, Jb), w(c, d)) = gjj[A] . w(c, d) as g is symmetric, and
        # alt[(x, y)] . w(a, b) = g(w(J w(a, b), J e_x), e_y) - (x <-> y), so
        # left[A] . right[B], right[B] = ob[B] + alt[B], is a split's two terms
        left = {pair: gjj[pair] + ob[pair] for pair in pairs}
        right = {(x, y): ob[(x, y)] + [r[x][y] - r[y][x] for r in rows] for x, y in pairs}
        for quad in quads:
            total = 0
            for (p, q), (r, s), sign in _SPLITS:
                total += sign * core.dot(left[(quad[p], quad[q])], right[(quad[r], quad[s])])
            yield total

    return torsion


# the splits of four sorted positions into two sorted pairs, with the sign
# of the permutation that lists the first pair, then the second
_SPLITS = (
    ((0, 1), (2, 3), 1),
    ((0, 2), (1, 3), -1),
    ((0, 3), (1, 2), 1),
    ((1, 2), (0, 3), 1),
    ((1, 3), (0, 2), -1),
    ((2, 3), (0, 1), 1),
)


def shear_condition(data: PreShearData, g: Metric, J: ComplexStructure, kind: str) -> bool:
    """Evaluate the metric condition directly on the shear data, exactly.

    ``kind`` is one of "kahler", "balanced", "skt".  The flat structure
    (g, J) may be any compatible pair; it is the one transported to the
    sheared algebra.  Each kind holds when its ``_shear_map`` vanishes at the
    ``hermitian.coordinates`` of g: g itself, or H = g^-1 for balanced.
    """
    _require_complex(data, J)
    if not g.compatible_with(J):
        raise IncompatibleMetricError("metric is not compatible with J")
    x, _ = coordinates(g, kind)  # the zero test ignores the denominator
    return not any(_shear_map(data, J, kind)(x))


def shear_kernel(data: PreShearData, J: ComplexStructure, kind: str) -> tuple:
    """Primitive int matrices spanning exactly the compatible symmetric X on
    which the shear equations of ``kind`` vanish, in the coordinates and
    format of ``hermitian.condition_kernel`` (``hermitian.coordinate_basis``):
    ``_shear_map`` run once on the packed basis, and its kernel."""
    _require_complex(data, J)
    # Gains, with N = dim, M the largest numerator of J and w (at least 1) and
    # X standing for max |X|, as sums of products.  Kahler: J w(e_i, e_j) <= N M^2
    # and tau sums three dot products of it with rows of X, so tau <= 3 N^2 M^2 X.
    # Balanced: P = X J^T <= N M X and chi_a <= N M, so a value is at most
    # C(N, 2) M (N M X) + N (N M X) (N M) <= 2 N^3 M^2 X.
    # Torsion: w(J e_x, J e_y) <= N^2 M^3, so g w(J e_x, J e_y) <= N^3 M^3 X and
    # alt <= 2 N^3 M^3 X; each of the six splits adds N M (N^3 M^3 X) +
    # N M (2 N^3 M^3 X) = 3 N^4 M^4 X, so a value is at most 18 N^4 M^4 X.
    n, m = data.dim, core.height(J.ints[0], data.omega.ints)
    gains = {"kahler": 3 * n**2 * m**2, "balanced": 2 * n**3 * m**2, "skt": 18 * n**4 * m**4}
    return packed_kernel(coordinate_basis(J, kind), _shear_map(data, J, kind), gains[kind])


@dataclass(frozen=True)
class ShearOperators:
    a_J: Subspace
    a_r: Subspace
    U_r: Subspace
    U_J: Subspace
    a_basis: tuple[Vector, ...]  # basis of a_J followed by basis of a_r
    A: dict  # a_r basis index -> full matrix of w(JX, .)|_a
    K: dict  # block End(a_J)
    G: dict  # block Hom(a_J, a_r)
    H: dict  # block Hom(a_r, a_J)
    F: dict  # block End(a_r)
    f: dict  # (i, j) -> vector in ambient coordinates
    h: dict
    B: dict  # U_J basis index -> matrix of w(Z, .)|_a


@dataclass(frozen=True)
class OperatorIdentityReport:
    g_blocks_vanish: bool
    k_commutes_with_j: bool
    f_symmetric: bool
    omega_jj_in_a_J: bool
    omega_jj_matches_h: bool
    commutators_vanish: bool
    omega_r_j_invariant: bool

    @property
    def clean(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self))


def shear_operators(
    data: PreShearData, g: Metric, J: ComplexStructure
) -> tuple[ShearOperators, OperatorIdentityReport]:
    """Operator decomposition of the data and the identities it must satisfy.

    `a` is first shrunk to the image of the form.  For X in a_r the map
    w(JX, .)|_a splits into blocks K, G, H, F along a = a_J + a_r; the
    report records the identities these blocks satisfy for any valid data:
    vanishing G, complex K, symmetric f, the J-pair formula for w on
    J a_r x J a_r, commuting A and B operators, and J-invariance of the
    a_r-part of w on U_J x a_r pairs.
    """
    _require_complex(data, J)
    data = data.normalized()
    n = data.dim
    omega, a = data.omega, data.a
    a_J, a_r, U_r, U_J = j_adapted_split(a, g, J)

    aj_basis, ar_basis = a_J.basis(), a_r.basis()
    a_basis = aj_basis + ar_basis
    nj, nr = len(aj_basis), len(ar_basis)
    to_a = linalg.coordinate_map(a_basis)

    def coords(values: Sequence[Vector]) -> Matrix:
        # the columns are the coordinates of `values` in a_basis
        assert all(a.contains(v) for v in values), "operator value left the subspace a"
        return linalg.mat_mul(to_a, linalg.matrix_from_columns(values))

    def block(m: Matrix, rows: range, cols: range) -> Matrix:
        return tuple(tuple(m[i][j] for j in cols) for i in rows)

    on_j, on_r = range(nj), range(nj, nj + nr)
    j_ar = [J.apply(x) for x in ar_basis]
    A, K, G, H, F, f_map, h_map = {}, {}, {}, {}, {}, {}, {}
    for i, jx in enumerate(j_ar):
        m = A[i] = coords([omega(jx, u) for u in a_basis])
        K[i], G[i] = block(m, on_j, on_j), block(m, on_r, on_j)
        H[i], F[i] = block(m, on_j, on_r), block(m, on_r, on_r)
        # w(JX_i, X_j) is column nj + j of A_i: h and f are its a_J and a_r parts
        for j in range(nr):
            h_map[(i, j)] = linalg.combination([row[j] for row in H[i]], aj_basis, n)
            f_map[(i, j)] = linalg.combination([row[j] for row in F[i]], ar_basis, n)

    uj_basis = U_J.basis()
    B = {idx: coords([omega(z, u) for u in a_basis]) for idx, z in enumerate(uj_basis)}

    ops = ShearOperators(a_J, a_r, U_r, U_J, a_basis, A, K, G, H, F, f_map, h_map, B)

    # identities every valid datum satisfies
    g_ok = all(linalg.is_zero_matrix(m) for m in G.values())
    j_on_aj = coords([J.apply(u) for u in aj_basis])[:nj]
    k_ok = all(linalg.mat_mul(j_on_aj, k) == linalg.mat_mul(k, j_on_aj) for k in K.values())
    f_ok = all(f_map[(i, j)] == f_map[(j, i)] for i in range(nr) for j in range(nr))

    jj_in = True
    jj_match = True
    for i, jx in enumerate(j_ar):
        for j, jy in enumerate(j_ar):
            val = omega(jx, jy)
            if not a_J.contains(val):
                jj_in = False
            if val != J.apply(linalg.sub_vec(h_map[(i, j)], h_map[(j, i)])):
                jj_match = False

    def commute(m1: Matrix, m2: Matrix) -> bool:
        return linalg.mat_mul(m1, m2) == linalg.mat_mul(m2, m1)

    comm_ok = all(
        commute(m1, m2) for m1, m2 in combinations([*A.values(), *B.values()], 2)
    ) and all(commute(k1, k2) for k1, k2 in combinations(K.values(), 2))
    # the a_r-part of w(JZ, JX) against that of w(Z, X), column nj + j of B_Z
    omr_ok = all(
        coords([omega(J.apply(z), jx) for jx in j_ar])[nj:] == block(B[idx], on_r, on_r)
        for idx, z in enumerate(uj_basis)
    )

    report = OperatorIdentityReport(g_ok, k_ok, f_ok, jj_in, jj_match, comm_ok, omr_ok)
    return ops, report
