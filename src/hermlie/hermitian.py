"""Hermitian structures on rational Lie algebras.

Covers compatible metrics and complex structures, the three metric
conditions by direct differential computation, the orthogonal decomposition
of the algebra induced by the derived algebra, and the normalisation
procedures used to combine special metrics into a closed fundamental form.

Conventions: sigma = g(J., .); Kahler means d sigma = 0, balanced means
d(sigma^{n-1}) = 0 in dimension 2n, and the torsion condition checked is
d(J^* d sigma) = 0 where J^* pulls back arguments with no extra sign.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import Callable, Sequence

from . import core, linalg
from .algebra import (
    LieAlgebra,
    Subspace,
    bracket_of_subspaces,
    complement_ints,
    in_span,
    intersect_ints,
    is_two_step_solvable,
    is_unimodular,
    orthogonal_complement,
    structure_invariants,
    trace_ints,
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

    @cached_property
    def transpose(self) -> "ComplexStructure":
        """J^T, validated once: the complex structure the inverse metrics
        H = g^-1 of J's compatible metrics are compatible with."""
        return ComplexStructure(linalg.transpose(self.matrix))

    @cached_property
    def compatible_basis(self) -> tuple:
        """Primitive int basis of {S symmetric : J^T S J = S}.  As J^2 = -1,
        S -> (S + J^T S J) / 2 projects the symmetric matrices onto the
        compatible ones; the basis is the echelon form of the images of the
        unit symmetric matrices, on their upper triangles."""
        j, dj = self.ints
        n = len(j)
        slots = [(a, b) for a in range(n) for b in range(a, n)]
        # dj^2 E + J^T E J for E = e_a e_a^T, or e_a e_b^T + e_b e_a^T: on the
        # slot (p, q), the outer product ja[p] ja[q], or ja[p] jb[q] + jb[p] ja[q]
        images = []
        for i, (a, b) in enumerate(slots):
            ja, jb = j[a], j[b]
            if a == b:
                row = [ja[p] * ja[q] for p, q in slots]
            else:
                row = [ja[p] * jb[q] + jb[p] * ja[q] for p, q in slots]
            row[i] += dj * dj
            images.append(row)
        index = {slot: i for i, slot in enumerate(slots)}
        at = [[index[min(a, b), max(a, b)] for b in range(n)] for a in range(n)]
        return tuple(tuple(tuple(row[i] for i in line) for line in at) for row in linalg.echelon(images))

    @staticmethod
    def standard(dim: int) -> "ComplexStructure":
        """J e_{2i-1} = e_{2i} on consecutive pairs."""
        return ComplexStructure.from_pairs(dim, [(i, i + 1) for i in range(1, dim, 2)])

    @staticmethod
    def from_pairs(dim: int, pairs: Sequence[tuple[int, int]]) -> "ComplexStructure":
        """Build J from pairs (a, b) meaning J e_a = e_b (so J e_b = -e_a)."""
        rows = [[ZERO] * dim for _ in range(dim)]
        for a, b in pairs:
            rows[b - 1][a - 1], rows[a - 1][b - 1] = ONE, -ONE
        return ComplexStructure(tuple(map(tuple, rows)))


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
        rows, den = core.clear_matrix(m)
        # the minors of the numerators are those of m times powers of den > 0
        if any(minor <= 0 for minor in linalg.minor_pivots(rows)):
            raise InvalidMetricError("metric matrix is not positive definite")
        object.__setattr__(self, "ints", (rows, den))
        object.__setattr__(self, "sigmas", {})  # by J's numerators: ``sigma``

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def pair(self, x: Sequence, y: Sequence) -> Fraction:
        rows, den = self.ints
        if len(x) != len(rows) or len(y) != len(rows):
            raise DimensionMismatchError("vector and metric dimensions differ")
        (xs, dx), (ys, dy) = core.clear(linalg.vec(x)), core.clear(linalg.vec(y))
        return Fraction(core.dot(xs, core.mat_vec(rows, ys)), den * dx * dy)

    def gram(self, vectors: Sequence[Sequence]) -> Matrix:
        """The Gram matrix g(u, v) of ``vectors``."""
        return linalg.mat([[self.pair(u, v) for v in vectors] for u in vectors])

    def sigma(self, J: ComplexStructure) -> tuple[dict[int, int], int] | None:
        """``sigma_of(J, g)``, formed once per J: the result is kept on g under
        J's numerators, so that the compatibility test and sigma share one
        J^T g.  Read only by every caller."""
        rows, dj = J.ints
        key = (tuple(map(tuple, rows)), dj)
        if key not in self.sigmas:
            self.sigmas[key] = sigma_of(J, *self.ints)
        return self.sigmas[key]

    def compatible_with(self, J: ComplexStructure) -> bool:
        """J^T g J = g, which as J^2 = -1 holds exactly when J^T g is skew."""
        return self.sigma(J) is not None

    def sigma_ints(self, J: ComplexStructure) -> tuple[dict[int, int], int]:
        """sigma = g(J., .) = J^T g on core bitmasks, over dJ * dg."""
        if (sigma := self.sigma(J)) is None:
            raise IncompatibleMetricError("metric is not J-invariant")
        return sigma

    @staticmethod
    def identity(dim: int) -> "Metric":
        return Metric(linalg.identity_matrix(dim))

    @staticmethod
    def from_frame(vectors: Sequence[Sequence], gram: Matrix) -> "Metric":
        """The metric whose Gram matrix on the given frame is ``gram``: B^-T G B^-1."""
        b_inv = linalg.inverse(linalg.matrix_from_columns([linalg.vec(v) for v in vectors]))
        return Metric(linalg.mat_mul(linalg.transpose(b_inv), linalg.mat_mul(linalg.mat(gram), b_inv)))

    @staticmethod
    def from_orthonormal_frame(vectors: Sequence[Sequence]) -> "Metric":
        """The metric for which the given frame is orthonormal."""
        return Metric.from_frame(vectors, linalg.identity_matrix(len(vectors)))


def require_dim(n: int, *structures) -> None:
    """DimensionMismatchError unless every J and metric given acts on Q^n."""
    if any(x.dim != n for x in structures):
        raise DimensionMismatchError(f"J, metric and space dimensions differ from {n}")


def sigma_of(J: ComplexStructure, g: Sequence[Sequence[int]], dg: int) -> tuple[dict[int, int], int] | None:
    """The two-form J^T g of a symmetric g with numerators over dg, on core bitmasks
    over dJ * dg, or None when g is not J-invariant; g need not be definite."""
    require_dim(len(g), J)
    j, dj = J.ints
    m = core.mat_mul(list(zip(*j)), g)
    if not core.is_skew(m):
        return None
    n = len(m)
    form = {(1 << a) | (1 << b): m[a][b] for a in range(n) for b in range(a + 1, n) if m[a][b]}
    return form, dj * dg


def packed_kernel(basis: Sequence, evaluate: Callable, gain: int) -> tuple:
    """Primitive int matrices spanning the combinations sum x_i X_i of the
    int ``basis`` matrices X_i on which the linear map ``evaluate`` vanishes.

    ``evaluate`` takes an int matrix to its outputs, in a fixed order, by
    + and * with int constants only, and ``gain`` bounds each output per
    unit of the largest |entry| of its input.  So the map runs once, on
    P = sum_i X_i 2^(W i) (Kronecker substitution): its outputs are
    sum_i f(X_i) 2^(W i) exactly, and as each |f(X_i)| < 2^(W-1) the
    balanced base-2^W digits of every nonzero output are that output's row
    of the kernel system.
    """
    n, k = len(basis[0]), len(basis)
    columns = list(zip(*([c for row in b for c in row] for b in basis)))  # entry -> its value in each X_i
    width = (gain * max(max(map(abs, col)) for col in columns)).bit_length() + 1
    flat = core.mat_vec(columns, [1 << width * i for i in range(k)])
    rows = [core.unpack(v, width, k) for v in evaluate([flat[r * n : (r + 1) * n] for r in range(n)]) if v]
    out = []
    for x in linalg.kernel(rows, k)[0]:
        flat = core.mat_vec(columns, x)
        d = gcd(*flat)
        out.append(tuple(tuple(c // d for c in flat[i * n : (i + 1) * n]) for i in range(n)))
    return tuple(out)


def kernel_span(matrices: Sequence) -> list:
    """Echelon form of the flattened matrices: equal exactly for equal spans."""
    return linalg.echelon([c for row in m for c in row] for m in matrices)


@dataclass(frozen=True)
class ComplexStructureReport:
    integrable: bool
    failing_pairs: tuple[tuple[int, int], ...]


def validate_complex_structure(L: LieAlgebra, J: ComplexStructure) -> ComplexStructureReport:
    """Nijenhuis tensor on basis pairs, on numerators over dJ^2 * den(L):
    B(J e_i, J e_j) - J B(J e_i, e_j) - J B(e_i, J e_j) - dJ^2 B(e_i, e_j).

    Each B(e_a, e_c) and J B(e_a, e_c) is packed once into one int at width
    W (Kronecker substitution, as in ``packed_kernel``), so each pair's value
    is one int.  With S and R the largest column and row sums of |J|, and M
    the largest |bracket numerator|, a coordinate is at most
    (S^2 + 2 R S + dJ^2) M < 2^W, so the int is zero exactly when the value
    is; nothing is read back, so no sign bit is needed.
    """
    require_dim(L.dim, J)
    n, b = L.dim, L.ints
    rows, dj = J.ints
    jcols = [[(a, rows[a][i]) for a in range(n) if rows[a][i]] for i in range(n)]  # J e_i, sparse
    col_sum = max(sum(abs(x) for _, x in col) for col in jcols)
    row_sum = max(sum(map(abs, row)) for row in rows)
    width = ((col_sum * col_sum + 2 * row_sum * col_sum + dj * dj) * b.top).bit_length()
    pj = [sum(x << width * t for t, x in col) for col in jcols]  # J e_k, packed
    pb = [[0] * n for _ in range(n)]  # B(e_a, e_c)
    pjb = [[0] * n for _ in range(n)]  # J B(e_a, e_c)
    for a, c, nums in b.terms:
        v, jv = sum(x << width * t for t, x in nums), sum(x * pj[t] for t, x in nums)
        pb[a][c], pb[c][a], pjb[a][c], pjb[c][a] = v, -v, jv, -jv

    def at_j(col, m):  # row i of J^T m, from the entries of J e_i
        (a, x), *rest = col
        out = [x * v for v in m[a]]
        for a, x in rest:
            out = [u + x * v for u, v in zip(out, m[a])]
        return out

    q = [at_j(col, pb) for col in jcols]  # B(J e_i, e_c)
    r = [at_j(col, pjb) for col in jcols]  # J B(J e_i, e_c)
    scale = dj * dj
    # B(J e_i, J e_j) = sum_c J_cj B(J e_i, e_c), and J B(e_i, J e_j) = -J B(J e_j, e_i)
    failing = tuple(
        (i + 1, j + 1)
        for i, j in combinations(range(n), 2)
        if sum([x * q[i][c] for c, x in jcols[j]]) - r[i][j] + r[j][i] - scale * pb[i][j]
    )
    return ComplexStructureReport(not failing, failing)


def is_integrable(L: LieAlgebra, J: ComplexStructure) -> bool:
    """Whether the Nijenhuis tensor of J vanishes on L, decided once per
    (L, J): the verdict is kept on L under J's numerators, so that
    ``check_complex_shear``, ``classify_metric``, the search, its
    certificate and the normal forms share one ``validate_complex_structure``
    run, which itself keeps nothing."""
    rows, dj = J.ints
    key = (tuple(map(tuple, rows)), dj)
    if key not in L.integrability:
        L.integrability[key] = validate_complex_structure(L, J).integrable
    return L.integrability[key]


def require_integrable(L: LieAlgebra, J: ComplexStructure) -> None:
    """The gate before every exact verdict: L satisfies Jacobi, J acts on
    L, and J is integrable on L."""
    L.require_validated()
    require_dim(L.dim, J)
    if not is_integrable(L, J):
        raise NotIntegrableError("J is not integrable on this algebra: its Nijenhuis tensor does not vanish")


def fundamental_form(L: LieAlgebra, g: Metric, J: ComplexStructure) -> KForm:
    """sigma = g(J., .) as a 2-form."""
    require_dim(L.dim, g, J)
    nums, den = g.sigma_ints(J)
    return KForm.from_ints(L.dim, 2, nums, den)


KINDS = ("kahler", "balanced", "skt")


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown condition kind: {kind}")


def coordinate_basis(J: ComplexStructure, kind: str) -> tuple:
    """``ComplexStructure.compatible_basis`` of the coordinates X the maps of
    ``kind`` are linear in: G for Kahler and SKT, H = G^-1 (compatible with
    J^T) for balanced.  J keeps both bases, so each is built once per J."""
    _require_kind(kind)
    return (J.transpose if kind == "balanced" else J).compatible_basis


def coordinates(g: Metric, kind: str) -> tuple[list[list[int]], int]:
    """The coordinates X of the metric g for ``kind``, as exact int
    numerators over a denominator: g itself, or H = g^-1 for balanced."""
    _require_kind(kind)
    rows, den = g.ints
    if kind == "balanced":  # g H = I is rows H = den I, over the elimination's denominator
        return linalg.solve_ints(rows, [[den * (a == b) for b in range(len(rows))] for a in range(len(rows))])
    return rows, den


def metric_at(x: Sequence[Sequence], kind: str) -> Metric:
    """The metric whose ``coordinates`` for ``kind`` are the rational matrix
    x.  ``Metric`` checks x definite (InvalidMetricError) before x is
    inverted for balanced, and the inverse of a definite x is definite."""
    _require_kind(kind)
    m = Metric(x)
    return Metric(linalg.inverse(m.matrix)) if kind == "balanced" else m


def condition_form(
    L: LieAlgebra, J: ComplexStructure, sigma: dict[int, int], den: int, kind: str
) -> tuple[dict[int, int], int]:
    """The form that vanishes exactly when ``kind`` holds for the two-form
    with core numerators ``sigma`` over ``den``, as core numerators over the
    returned denominator: d sigma, d(sigma^(n-1)) or d J* d sigma.

    The metric-condition map: ``classify_metric`` tests it for zero, its
    ``squared_norm`` is a residual and the Kahler and SKT searches take its
    exact kernel; the balanced search takes ``balanced_inverse_form``'s.
    """
    _require_kind(kind)
    b = L.ints
    if kind == "kahler":
        return core.differential(b, sigma), den * b.den
    if kind == "balanced":
        n = L.dim // 2
        return core.differential(b, core.power(sigma, n - 1)), den ** (n - 1) * b.den
    return _torsion_form(L, J, *condition_form(L, J, sigma, den, "kahler"))


def _torsion_form(L: LieAlgebra, J: ComplexStructure, dsigma: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """d J* d sigma from the numerators ``dsigma`` of d sigma over ``den``."""
    rows, dj = J.ints
    return core.differential(L.ints, core.pullback(rows, dsigma)), den * L.ints.den * dj**3


def balanced_inverse_form(
    L: LieAlgebra, J: ComplexStructure, h: Sequence[Sequence[int]], dh: int
) -> tuple[dict[int, int], int]:
    """d(iota(-H J^T) vol) for the inverse metric H = G^-1 with numerators h
    over dh, as core numerators over the returned denominator.

    sigma^(n-1) is a nonzero multiple of iota(Sigma^-1) vol, Sigma = J^T G,
    and Sigma^-1 = -H J^T, so this form is linear in H and vanishes exactly
    when the metric is balanced (Michelsohn, Acta Math. 149, 1982).  Here
    iota(P) vol = sum_{a<b} P_ab iota(e_b) iota(e_a) vol, and for 0-indexed
    a < b that term is (-1)^(a+b+1) P_ab times vol with e^a, e^b left out.
    """
    rows, dj = J.ints
    full = (1 << L.dim) - 1
    form = {}
    for a, b in combinations(range(L.dim), 2):
        # -(H J^T)_ab = -h[a] . J[b]: the two minus signs cancel at even a + b
        c = core.dot(h[a], rows[b])
        if c:
            form[full ^ (1 << a) ^ (1 << b)] = -c if (a + b) & 1 else c
    return core.differential(L.ints, form), dh * dj * L.ints.den


def condition_kernel(L: LieAlgebra, J: ComplexStructure, kind: str) -> tuple:
    """Primitive int matrices spanning exactly the compatible symmetric X on
    which the condition map of ``kind`` vanishes: the metrics G for Kahler
    and SKT, the inverse metrics H (compatible with J^T) for balanced.  The
    map runs once, on ``coordinate_basis`` packed into one int matrix
    (``packed_kernel``).  Like every exact verdict, it needs L validated and
    J integrable on it (``require_integrable``)."""
    _require_kind(kind)
    require_integrable(L, J)
    # Gains, with N = dim, M the largest numerator of J and the bracket (at
    # least 1) and X standing for max |X|.  J^T X and -H J^T have entries at
    # most N M X.  d of a k-form with coefficients at most c sums, on each
    # (k+1)-subset, at most C(k+1, 2) N bracket numerators times coefficients
    # (a pair in the subset, an index put back outside the rest), so it is at
    # most C(k+1, 2) N M c; J* of a 3-form sums at most C(N, 3) <= N^3 / 6
    # coefficients times 3 x 3 minors of J, so it is at most N^3 M^3 c:
    #   kahler    d(J^T X)             <= 3N M (N M X)               = 3 N^2 M^2 X
    #   balanced  d iota(-H J^T) vol   <= C(N-1, 2) N M (N M X)      <= N^4 M^2 X
    #   skt       d J* d(J^T X)        <= 6N M N^3 M^3 (3 N^2 M^2 X) = 18 N^6 M^6 X
    n, m = L.dim, core.height(J.ints[0], L.ints)
    gains = {"kahler": 3 * n**2 * m**2, "balanced": n**4 * m**2, "skt": 18 * n**6 * m**6}

    def outputs(p):
        if kind == "balanced":
            return [v for _, v in sorted(balanced_inverse_form(L, J, p, 1)[0].items())]
        return [v for _, v in sorted(condition_form(L, J, *sigma_of(J, p, 1), kind)[0].items())]

    return packed_kernel(coordinate_basis(J, kind), outputs, gains[kind])


@dataclass(frozen=True)
class MetricVerdicts:
    kahler: bool
    balanced: bool
    skt: bool

    def __getitem__(self, kind: str) -> bool:
        return self.as_dict()[kind]

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def condition_forms(L: LieAlgebra, g: Metric, J: ComplexStructure) -> dict[str, tuple[dict[int, int], int]]:
    """The ``condition_form`` of each kind for sigma = g(J., .), by kind.
    When d sigma = 0 it stands for all three: Kahler implies the other two,
    whose forms are then exactly zero and are not computed."""
    require_integrable(L, J)
    sigma, den = g.sigma_ints(J)
    kahler = condition_form(L, J, sigma, den, "kahler")
    if not kahler[0]:
        return dict.fromkeys(KINDS, kahler)
    balanced = condition_form(L, J, sigma, den, "balanced")
    return {"kahler": kahler, "balanced": balanced, "skt": _torsion_form(L, J, *kahler)}


def squared_norm(form: tuple[dict[int, int], int]) -> float:
    """The squared coefficient norm of core numerators over a denominator, rounded once."""
    return float(Fraction(sum(c * c for c in form[0].values()), form[1] * form[1]))


def classify_metric(L: LieAlgebra, g: Metric, J: ComplexStructure) -> MetricVerdicts:
    """Exact verdicts for the three closedness conditions of sigma: the
    ``condition_forms`` tested for zero, each stopping at its first nonzero
    coefficient.  d sigma is formed whole, as the other two read it:
    d(sigma^(n-1)) = (n-1) d sigma ^ sigma^(n-2) is tested by
    ``core.wedge_vanishes`` (d sigma != 0 needs dim >= 4, so n >= 2), and
    d J* d sigma by ``core.is_closed``."""
    require_integrable(L, J)
    sigma, _ = g.sigma_ints(J)
    b = L.ints
    dsigma = core.differential(b, sigma)
    if not dsigma:
        return MetricVerdicts(True, True, True)
    balanced = core.wedge_vanishes(dsigma, core.power(sigma, L.dim // 2 - 2))
    return MetricVerdicts(False, balanced, core.is_closed(b, core.pullback(J.ints[0], dsigma)))


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


def _split_ints(
    a: Sequence[Sequence[int]], g: Sequence[Sequence[int]], jrows: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``j_adapted_split`` on primitive echelon int bases, given the
    numerators of g and J (scalings change neither spans nor g-orthogonality)."""
    ja = [core.mat_vec(jrows, v) for v in a]
    a_J = intersect_ints(a, ja)
    a_r = complement_ints(a_J, g, a)
    U_r = linalg.echelon([*a_r, *(core.mat_vec(jrows, v) for v in a_r)])
    U_J = complement_ints(linalg.echelon([*a, *ja]), g)
    return a_J, a_r, U_r, U_J


def j_adapted_split(
    a: Subspace, g: Metric, J: ComplexStructure
) -> tuple[Subspace, Subspace, Subspace, Subspace]:
    """The J-adapted splitting of a subspace a of the algebra.

    Returns (a_J, a_r, U_r, U_J): a_J = a & Ja, its g-orthogonal complement
    a_r inside a, U_r = a_r + J a_r, and U_J the g-orthogonal complement of
    a + Ja.  The four are orthogonal and a_J, U_r, U_J are J-invariant.
    """
    require_dim(a.ambient_dim, g, J)
    parts = _split_ints(a.ints, g.ints[0], J.ints[0])
    return tuple(Subspace(a.ambient_dim, p) for p in parts)


def hermitian_decomposition(L: LieAlgebra, g: Metric, J: ComplexStructure) -> HermitianDecomposition:
    require_dim(L.dim, g, J)
    parts = _split_ints(L.derived_ints, g.ints[0], J.ints[0])
    derg, derg_J, derg_r, V_r, V_J = (Subspace(L.dim, p) for p in (L.derived_ints, *parts))
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


def _require_j_invariant(basis: Sequence[Sequence[int]], J: ComplexStructure, message: str) -> None:
    jrows = J.ints[0]
    if not all(in_span(basis, core.mat_vec(jrows, v)) for v in basis):
        raise NotJInvariantError(message)


def _unitary_ints(
    basis: Sequence[Sequence[int]], g: Metric, J: ComplexStructure, order: Sequence[int] | None
) -> list[tuple[Sequence[int], list[int], int, int, int]]:
    """Complex Gram-Schmidt on the primitive echelon basis of a J-invariant
    subspace, fraction-free.

    Returns (v, jv, nsq, num, den) per complex line: jv = dJ J v and
    nsq = dg g(v, v) on numerators, and (num / den) v is the vector that
    Gram-Schmidt on the reduced echelon rows picks.  Each step projects the
    rest of the pool by w <- dJ^2 nsq w - dJ^2 (w^T g v) v - (w^T g jv) jv,
    which is dJ^2 nsq times the rational projection, and divides by the gcd;
    the scale num / den records both factors.
    """
    _require_j_invariant(basis, J, "subspace is not J-invariant")
    if len(basis) % 2:
        raise NotJInvariantError("J-invariant subspace must have even dimension")
    (jrows, dj), (gm, _) = J.ints, g.ints
    dj2 = dj * dj
    # the echelon row is v over its pivot entry, the first nonzero one
    pool = [(v, 1, next(c for c in v if c)) for v in basis]
    if order is not None:
        pool = [pool[i] for i in order]
    out = []
    while True:
        pool = [item for item in pool if any(item[0])]
        if not pool:
            break
        (v, num, den), rest = pool[0], pool[1:]
        jv = core.mat_vec(jrows, v)
        gv, gjv = core.mat_vec(gm, v), core.mat_vec(gm, jv)
        nsq = core.dot(v, gv)
        out.append((v, jv, nsq, num, den))
        step = dj2 * nsq
        pool = []
        for w, wn, wd in rest:
            a, b = dj2 * core.dot(w, gv), core.dot(w, gjv)
            w = [step * x - a * y - b * z for x, y, z in zip(w, v, jv)]
            d = gcd(*w) or 1
            pool.append(([x // d for x in w], wn * d, wd * step))
    # the projected pool spans the orthogonal complement of the picked
    # complex lines inside S at every step, so the count always comes out
    assert 2 * len(out) == len(basis)
    return out


def unitary_basis(S: Subspace, g: Metric, J: ComplexStructure, order: Sequence[int] | None = None) -> UnitaryBasis:
    """Complex Gram-Schmidt on a J-invariant subspace.

    ``order`` optionally permutes the starting basis, which produces a
    different (equally valid) unitary basis; structural criteria must not
    depend on this choice.
    """
    require_dim(S.ambient_dim, g, J)
    dj, dg = J.ints[1], g.ints[1]
    vectors: list[Vector] = []
    norms: list[Fraction] = []
    for v, jv, nsq, num, den in _unitary_ints(S.ints, g, J, order):
        vectors += [core.fractions([num * x for x in v], den), core.fractions([num * x for x in jv], den * dj)]
        norms += [Fraction(num * num * nsq, den * den * dg)] * 2
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
    three collapse to C = 0.  Everything runs on numerators: the bracket
    over den(L), J over dJ, g over dg; only C leaves as Fractions.
    """
    require_dim(L.dim, g, J)
    if not is_two_step_solvable(L):
        raise NotTwoStepSolvableError("structural criterion requires a two-step solvable algebra")
    if not g.compatible_with(J):
        raise IncompatibleMetricError("metric is not J-invariant")
    w = L.ints
    (jrows, dj), (gm, dg) = J.ints, g.ints
    derg_J, _, V_r, V_J = _split_ints(L.derived_ints, gm, jrows)

    # [v, Jv] / g(v, v) = dg w(v, jv) / (den(L) dJ nsq); sum the w(v, jv) / nsq
    # over the running denominator ``den``
    num, den = [0] * L.dim, 1
    for space, order in ((V_r, order_vr), (V_J, order_vj)):
        for v, jv, nsq, _, _ in _unitary_ints(space, g, J, order):
            num = [x * nsq + y * den for x, y in zip(num, w(v, jv))]
            den *= nsq
    c_num, c_den = [dg * x for x in num], den * w.den * dj

    t = trace_ints(L)  # tr ad(x) = t . x / den(L)
    trace_vj = not any(core.dot(t, z) for z in V_J)
    c_orth = not any(core.dot(c_num, core.mat_vec(gm, y)) for y in derg_J)
    # sigma(C, x) = g(JC, x) = (gm jrows c_num) . x / (dg dJ c_den)
    gjc = core.mat_vec(gm, core.mat_vec(jrows, c_num))
    trace_vr = all(core.dot(t, x) * dg * dj * c_den == -w.den * core.dot(gjc, x) for x in V_r)

    if not any(t):  # unimodular
        verdict = not any(c_num)
    else:
        verdict = trace_vj and c_orth and trace_vr
    return BalancedReport(verdict, core.fractions(c_num, c_den), trace_vj, c_orth, trace_vr)


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
    na, nb = len(basis_a), len(basis_b)
    gram = [list(row) + [ZERO] * nb for row in gram_a] + [[ZERO] * na + list(row) for row in gram_b]
    return Metric.from_frame(list(basis_a) + list(basis_b), gram)


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

    flat = [x for v, jv, _ in unitary_basis(v_j, g, J).pairs() for x in (v, jv)]
    derg_basis = derg.basis()
    nd = len(derg_basis)
    # unknowns: coefficients of r(v_c) in the derg basis, complex-linearly
    # extended by r(Jv_c) = J r(v_c); flat[index] takes the unknowns of
    # block index // 2 on units[index % 2], the d_k or the J d_k
    nunk = len(flat) // 2 * nd
    units = (derg_basis, [J.apply(v) for v in derg_basis])
    # the d1-component of a vector of derg = d1 + d2
    to_d1 = linalg.coordinate_map(d1.basis() + d2.basis())[: d1.dim]
    eqs: list[Vector] = []
    rhs: list[Fraction] = []
    for p, q in combinations(range(len(flat)), 2):
        rhs.extend(-c for c in linalg.mat_vec(to_d1, L.bracket(flat[p], flat[q])))
        # coefficient of each unknown in the d1-component of
        # [r(P), Q] + [P, r(Q)]; only the unknowns of P's and Q's blocks enter
        contribs = [linalg.zero_vec(L.dim)] * nunk
        for k in range(nd):
            contribs[p // 2 * nd + k] = L.bracket(units[p % 2][k], flat[q])
            u = q // 2 * nd + k
            contribs[u] = linalg.add_vec(contribs[u], L.bracket(flat[p], units[q % 2][k]))
        eqs.extend(linalg.mat_mul(to_d1, linalg.matrix_from_columns(contribs)))

    if nunk == 0 or not eqs:
        sol = (ZERO,) * nunk
    else:
        sol = linalg.solve(linalg.mat(eqs), rhs)
        if sol is None:
            raise NotSKTError("no complement correction exists; input is not of the expected form")

    new_basis = [
        linalg.add_vec(x, linalg.combination(sol[i // 2 * nd: (i // 2 + 1) * nd], units[i % 2], L.dim))
        for i, x in enumerate(flat)
    ]
    v_tilde = Subspace.span(L.dim, new_basis)

    g_new = _block_metric(derg_basis, new_basis, g.gram(derg_basis), g.gram(flat))
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
    to_vh = linalg.coordinate_map(vh_basis + derg_basis)[: len(vh_basis)]
    images = [linalg.combination(linalg.mat_vec(to_vh, z), vh_basis, L.dim) for z in v_tilde.basis()]

    out = _block_metric(derg_basis, v_tilde.basis(), g_tilde.gram(derg_basis), g_bal.gram(images))
    assert out.compatible_with(J)
    return out
