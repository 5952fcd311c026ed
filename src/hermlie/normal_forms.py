"""Constructors realising the structure theorems for special metrics.

Each constructor takes exact rational parameters, validates the theorem's
parameter constraints, and emits an algebra in an adapted orthonormal
J-paired basis.  Complex scalars are pairs of rationals; a complex
coefficient c on a vector Y in a complex line expands as
Re(c) Y + Im(c) JY.  Every constructor emits its brackets as structure
constants (i, j, k, c) to ``make_algebra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from . import linalg
from .algebra import LieAlgebra, make_algebra
from .errors import ParameterConstraintViolatedError
from .forms import KForm, j_pullback, wedge
from .hermitian import (
    ComplexStructure,
    Metric,
    hermitian_decomposition,
    is_integrable,
)
from .linalg import ZERO


@dataclass(frozen=True)
class Cq:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = ZERO
    im: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other: "Cq") -> "Cq":
        return Cq(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Cq") -> "Cq":
        return Cq(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Cq") -> "Cq":
        return Cq(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, c) -> "Cq":
        c = Fraction(c)
        return Cq(c * self.re, c * self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


CZERO = Cq()


def _on_line(i: int, j: int, k: int, c: Cq) -> list[tuple]:
    """[e_i, e_j] = c Y_k as structure constants, with Y_k = e_{2k-1} and
    JY_k = e_{2k}."""
    return [(i, j, 2 * k - 1, c.re), (i, j, 2 * k, c.im)]


ComplexTwoForm = tuple[KForm, KForm]  # (real part, imaginary part)


def _is_type_11(form: ComplexTwoForm, J: ComplexStructure) -> bool:
    return all(j_pullback(J.matrix, part) == part for part in form)


def _is_type_20(form: ComplexTwoForm, J: ComplexStructure) -> bool:
    # form(J., .) = i form on the coefficient matrices M, form(x, y) = x^T M y:
    # J^T Re = -Im and J^T Im = Re
    idx = range(1, form[0].dim + 1)
    re, im = (tuple(tuple(part.coeff(p, q) for q in idx) for p in idx) for part in form)
    jt = linalg.transpose(J.matrix)
    return linalg.mat_mul(jt, re) == tuple(map(linalg.neg_vec, im)) and linalg.mat_mul(jt, im) == re


def _cform_coeff(form: ComplexTwoForm, t: int, u: int) -> Cq:
    return Cq(form[0].coeff(t, u), form[1].coeff(t, u))


def _cform_self_wedge_conjugate(form: ComplexTwoForm) -> KForm:
    # phi ^ conj(phi) = re^re + im^im: real since two-forms commute
    re, im = form
    return wedge(re, re) + wedge(im, im)


@dataclass(frozen=True)
class KahlerNormalForm:
    """Bracket data [JX,Y_j] = a_j(X) JY_j, [Z,Y_j] = b_j(Z) JY_j, [JX_k,X_k] = l_k X_k."""

    pure_type: str  # "I", "II", "III" or "general"
    s: int
    r: int
    ell: int
    alphas: tuple[tuple[Fraction, ...], ...] = ()  # s rows of length r
    betas: tuple[tuple[Fraction, ...], ...] = ()  # s rows of length 2*ell
    lambdas: tuple[Fraction, ...] = ()  # length r


def kahler_normal_form(
    params: KahlerNormalForm,
) -> tuple[LieAlgebra, Metric, ComplexStructure]:
    """Build the closed-fundamental-form families, by pure type.

    Basis order: Y_1, JY_1, .., Y_s, JY_s, X_1..X_r, JX_1..JX_r, then
    J-paired vectors spanning the complement.  The standard metric is the
    identity on this basis and the output satisfies d sigma = 0.
    """
    s, r, ell = params.s, params.r, params.ell
    t = params.pure_type
    alphas = tuple(tuple(Fraction(c) for c in row) for row in params.alphas)
    betas = tuple(tuple(Fraction(c) for c in row) for row in params.betas)
    lambdas = tuple(Fraction(c) for c in params.lambdas)

    def fail(constraint, msg=""):
        raise ParameterConstraintViolatedError(constraint, msg)

    if t not in ("I", "II", "III", "general"):
        fail("pure_type", f"unknown pure type {t!r}")
    if s < 0 or r < 0 or ell < 0 or s + r + ell == 0:
        fail("dimensions")
    if t == "I" and (s != 0 or r == 0):
        fail("type I shape", "type I requires s = 0 and r >= 1")
    if t == "II" and (r != 0 or s == 0 or ell == 0):
        fail("type II shape", "type II requires r = 0 and s, ell >= 1")
    if t == "III" and (ell != 0 or s == 0 or r == 0):
        fail("type III shape", "type III requires ell = 0 and s, r >= 1")
    if t == "general" and (s == 0 or r == 0):
        fail("general shape", "general form requires s, r >= 1")
    if len(lambdas) != r or any(c == 0 for c in lambdas):
        fail("nonzero lambdas", "each lambda_k must be a nonzero rational")
    if len(alphas) != s or any(len(row) != r for row in alphas):
        fail("alpha shape")
    if len(betas) != s or any(len(row) != 2 * ell for row in betas):
        fail("beta shape")
    if t in ("III", "general") and any(all(c == 0 for c in row) for row in alphas):
        fail("nonzero alphas", "each alpha_j must be a nonzero one-form")
    if t == "II" and any(all(c == 0 for c in row) for row in betas):
        fail("nonzero betas", "each beta_j must be a nonzero one-form")

    dim = 2 * s + 2 * r + 2 * ell
    y_slot = lambda j: 2 * j - 1  # Y_j
    x_slot = lambda k: 2 * s + k
    jx_slot = lambda k: 2 * s + r + k
    z_slot = lambda i: 2 * s + 2 * r + i

    constants = []
    for j in range(1, s + 1):
        y, jy = y_slot(j), y_slot(j) + 1
        for k in range(1, r + 1):
            a = alphas[j - 1][k - 1]
            if a:
                constants.append((jx_slot(k), y, jy, a))
                constants.append((jx_slot(k), jy, y, -a))
        for i in range(1, 2 * ell + 1):
            b = betas[j - 1][i - 1]
            if b:
                constants.append((z_slot(i), y, jy, b))
                constants.append((z_slot(i), jy, y, -b))
    for k in range(1, r + 1):
        constants.append((jx_slot(k), x_slot(k), x_slot(k), lambdas[k - 1]))

    L = make_algebra(dim, constants)
    pairs = [(y_slot(j), y_slot(j) + 1) for j in range(1, s + 1)]
    pairs += [(x_slot(k), jx_slot(k)) for k in range(1, r + 1)]
    pairs += [(z_slot(2 * i - 1), z_slot(2 * i)) for i in range(1, ell + 1)]
    J = ComplexStructure.from_pairs(dim, pairs)
    return L, Metric.identity(dim), J


@dataclass(frozen=True)
class TypeIINormalForm:
    """Data for the complex-derived-algebra torsion-free-torsion family.

    One-forms and two-forms live on the complement's local coordinates
    (dimension 2*ell with the standard pairing).  For j <= m the bracket of
    the complement with the j-th complex line is a rotation scaled by
    alpha_j; the remaining lines are hit by [Z, W] through the invariant
    pair (phi_k, psi_k), subject to sum(phi^conj(phi) - psi^conj(psi)) = 0
    and complex-linear independence of the sums phi_k + psi_k.
    """

    s: int
    ell: int
    m: int
    alphas: tuple[tuple[Fraction, ...], ...] = ()  # m local one-forms
    zs: tuple[Cq, ...] = ()  # m complex scalars
    phis: tuple[ComplexTwoForm, ...] = ()  # s - m invariant forms
    psis: tuple[ComplexTwoForm, ...] = ()  # s - m holomorphic forms


def skt_typeII_normal_form(
    params: TypeIINormalForm, _validate: bool = True
) -> tuple[LieAlgebra, Metric, ComplexStructure]:
    s, ell, m = params.s, params.ell, params.m

    def fail(constraint, msg=""):
        raise ParameterConstraintViolatedError(constraint, msg)

    if s < 1 or ell < 1 or not 0 <= m <= s:
        fail("shape", "need s >= 1, ell >= 1 and 0 <= m <= s")
    if len(params.alphas) != m or len(params.zs) != m:
        fail("alpha/z count")
    if len(params.phis) != s - m or len(params.psis) != s - m:
        fail("phi/psi count")
    alphas = tuple(tuple(Fraction(c) for c in row) for row in params.alphas)
    if any(len(row) != 2 * ell for row in alphas):
        fail("alpha shape")
    J_loc = ComplexStructure.standard(2 * ell)
    for row in alphas:
        if all(c == 0 for c in row):
            fail("nonzero alphas", "each alpha_j must be nonzero")
    for phi in params.phis:
        if phi[0].dim != 2 * ell or not _is_type_11(phi, J_loc):
            fail("phi type", "phi_k must be an invariant (1,1) form on the complement")
    for psi in params.psis:
        if psi[0].dim != 2 * ell or not _is_type_20(psi, J_loc):
            fail("psi type", "psi_k must be a (2,0) form on the complement")

    if _validate:
        total = None
        for phi, psi in zip(params.phis, params.psis):
            piece = _cform_self_wedge_conjugate(phi) - _cform_self_wedge_conjugate(psi)
            total = piece if total is None else total + piece
        if total is not None and not total.is_zero():
            fail(
                "sum constraint",
                "sum of phi^conj(phi) - psi^conj(psi) must vanish",
            )
        # Independence of the phi_k + psi_k: the real and imaginary parts
        # must be jointly independent as real two-forms.  This is what
        # makes the bracket image the full complex span of the remaining
        # lines; mere complex independence admits degenerations whose
        # derived algebra is a real line (and whose type is not II).
        rows = []
        for phi, psi in zip(params.phis, params.psis):
            rows.append((phi[0] + psi[0]).coefficient_vector())
            rows.append((phi[1] + psi[1]).coefficient_vector())
        if rows and linalg.rank(rows) != len(rows):
            fail(
                "independence constraint",
                "real and imaginary parts of the forms phi_k + psi_k must be "
                "jointly linearly independent",
            )

    dim = 2 * s + 2 * ell
    z = lambda t: 2 * s + t  # local index t in 1..2*ell
    local_pairs = list(combinations(range(1, 2 * ell + 1), 2))
    jt = linalg.transpose(J_loc.matrix)
    constants = []
    for j, (row, zj) in enumerate(zip(alphas, params.zs), 1):
        # [Z_t, Y_j] = alpha_j(Z_t) JY_j, and [Z_t, Z_u] is z_j times
        # (alpha_j ^ alpha_j o J)(Z_t, Z_u) on the j-th line
        for t, a in enumerate(row, 1):
            constants += [(z(t), 2 * j - 1, 2 * j, a), (z(t), 2 * j, 2 * j - 1, -a)]
        ja = linalg.mat_vec(jt, row)
        for t, u in local_pairs:
            wedge = row[t - 1] * ja[u - 1] - row[u - 1] * ja[t - 1]
            constants += _on_line(z(t), z(u), j, zj.scale(wedge))
    for k, (phi, psi) in enumerate(zip(params.phis, params.psis), m + 1):
        # [Z_t, Z_u] is (phi_k + psi_k)(Z_t, Z_u) on the k-th line
        for t, u in local_pairs:
            constants += _on_line(z(t), z(u), k, _cform_coeff(phi, t, u) + _cform_coeff(psi, t, u))
    return make_algebra(dim, constants), Metric.identity(dim), ComplexStructure.standard(dim)


@dataclass(frozen=True)
class SixDNonPureData:
    """Parameters of the six-dimensional non-pure bracket table.

    Constraints: b nonzero with b0*b3 + b1^2 + b2^2 = 0; Re(z_i) =
    -delta_i b_i / 2 for the given delta flags; z0 = 0 forces
    b0 = b1 = b2 = 0.  The basis is (Y, JY, X, JX, Z, JZ).
    """

    b: tuple[Fraction, Fraction, Fraction, Fraction]
    deltas: tuple[int, int, int] = (0, 0, 0)
    z: tuple[Cq, Cq, Cq] = (CZERO, CZERO, CZERO)
    w: tuple[Cq, Cq, Cq, Cq, Cq, Cq] = (CZERO,) * 6


# [u, v] carries w_t on the Y-line, for (u, v) = W_PAIRS[t]
W_PAIRS = ((4, 3), (5, 3), (6, 3), (5, 4), (6, 4), (5, 6))


def sixd_nonpure_table(params: SixDNonPureData) -> LieAlgebra:
    """The raw bracket table, with no constraint validation (test hook)."""
    b = tuple(Fraction(c) for c in params.b)
    constants = []
    # complex action on the Y-line: [u, Y] = c Y, [u, JY] = (i c) Y
    for u, c in zip((4, 5, 6), params.z):
        constants += _on_line(u, 1, 1, c) + _on_line(u, 2, 1, Cq(0, 1) * c)
    for (u, v), bc, wc in zip(W_PAIRS, (b[0], b[1], b[2], -b[2], b[1], b[3]), params.w):
        constants += [(u, v, 3, bc), *_on_line(u, v, 1, wc)]
    return make_algebra(6, constants)


def skt_6d_nonpure_normal_form(
    params: SixDNonPureData,
) -> tuple[LieAlgebra, ComplexStructure]:
    """Validate the parameter constraints and build the non-pure table.

    The structural constraints are checked first, then the built table has
    to close (Jacobi), be integrable for the standard pairing, and have the
    non-pure decomposition (s, r, ell) = (1, 1, 1).  No metric is returned:
    whether the standard metric satisfies the torsion condition is checked
    by the caller, not asserted here.
    """
    b = tuple(Fraction(c) for c in params.b)

    def fail(constraint, msg=""):
        raise ParameterConstraintViolatedError(constraint, msg)

    if len(b) != 4 or all(c == 0 for c in b):
        fail("b nonzero", "(b0, b1, b2, b3) must be nonzero")
    if b[0] * b[3] + b[1] ** 2 + b[2] ** 2 != 0:
        fail("quadratic constraint", "b0*b3 + b1^2 + b2^2 must vanish")
    if any(d not in (0, 1) for d in params.deltas):
        fail("delta flags", "each delta_i must be 0 or 1")
    for i in range(3):
        if params.z[i].re != -Fraction(params.deltas[i]) * b[i] / 2:
            fail("real part constraint", f"Re(z{i}) must equal -delta_{i} b_{i} / 2")
    if params.z[0].is_zero() and any(c != 0 for c in b[:3]):
        fail("z0 vanishing constraint", "z0 = 0 forces b0 = b1 = b2 = 0")

    L = sixd_nonpure_table(params)
    if not L.validated:
        fail("Jacobi closure", "bracket table does not close for these parameters")
    J = ComplexStructure.standard(6)
    if not is_integrable(L, J):
        fail("integrability", "standard pairing is not integrable for these parameters")
    dec = hermitian_decomposition(L, Metric.identity(6), J)
    if (dec.s, dec.r, dec.ell) != (1, 1, 1):
        fail(
            "non-pure decomposition",
            f"expected (s, r, ell) = (1, 1, 1), got {(dec.s, dec.r, dec.ell)}",
        )
    return L, J
