"""Exact feasibility search for a compatible special metric.

Each kind is linear in its own coordinates: Kahler and SKT in the metrics
G (``hermitian.condition_form``), balanced in the inverse metrics H = G^-1,
which are compatible with J^T (``hermitian.balanced_inverse_form``).  So the
special metrics are the definite matrices of the exact rational kernel K of
that map (``hermitian.condition_kernel``, which runs the map once, on the
compatible basis packed into one int matrix), and the search decides whether
K meets the positive definite cone.  Each step runs when the one before it
does not decide:
1. ``found`` when P, the exact projection of I onto span(K) in the pairing
   tr(A B), is definite;
2. ``none`` when a face certifies.  A face is a subspace V of L, or of L*
   for balanced, built from L and J alone; with int basis rows B,
   Z = I_r - (the projection of I_r onto the span of the B M B^T, M in K)
   gives Y = B^T Z B, orthogonal to K, and the first Y that is nonzero and
   semidefinite is the certificate.  The faces are L, whose Y is I - P,
   then [L, L], [L, L] & J[L, L] and the centre for Kahler and SKT, and
   ann [L, L] and ann([L, L] & J[L, L]) for balanced;
3. the solver, which only looks for a witness.  Phase I minimises s
   subject to X + sI > 0, X in K, tr X = n, by damped Newton steps on
   t s - log det(X + sI), t growing eightfold per centring (Boyd and
   Vandenberghe, *Convex Optimization*, 11.4); a definite start ends it
   before its first step.  ``found``: once s < 0, the analytic centre of
   the slice is snapped to rationals in K.  Otherwise ``not_found``, which
   is inconclusive.
A witness is certified by its kind's ``condition_form`` (d sigma^(n-1) for
balanced).  A nonzero semidefinite Y with tr(Y M) = 0 for every kernel
matrix M proves that no compatible metric of the kind exists, since
tr(Y X) > 0 for X > 0; ``check_certificate`` re-checks one.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import core, linalg
from .algebra import LieAlgebra, center, intersect_ints, is_two_step_solvable
from .errors import InvalidMetricError
from .hermitian import (
    KINDS,
    ComplexStructure,
    condition_form,
    condition_kernel,
    coordinate_basis,
    metric_at,
    require_dim,
)
from .shear import pre_shear_from_bracket, shear_kernel


def metric_parameterization(L: LieAlgebra, J: ComplexStructure) -> tuple:
    """``ComplexStructure.compatible_basis`` of a J of the algebra's dimension."""
    require_dim(L.dim, J)
    return coordinate_basis(J, "kahler")


def _semidefinite(y) -> bool:
    """Whether the symmetric int matrix ``y`` is positive semidefinite: with
    B an echelon basis of its range, exactly when B y B^T is definite, by
    its leading principal minors."""
    b = linalg.echelon(y)
    return all(minor > 0 for minor in linalg.minor_pivots(core.mat_mul(core.mat_mul(b, y), list(zip(*b)))))


def _certifies(kernel, Y) -> bool:
    """Whether ``Y`` is a nonzero symmetric positive semidefinite matrix
    orthogonal to every kernel matrix, so that no X > 0 lies in K."""
    rows, _ = core.clear_matrix(Y)
    flat = [c for row in rows for c in row]
    if rows != [list(col) for col in zip(*rows)] or not any(flat):
        return False
    if any(core.dot(flat, [c for row in m for c in row]) for m in kernel):
        return False
    return _semidefinite(rows)


def check_certificate(L: LieAlgebra, J: ComplexStructure, kind: str, Y) -> bool:
    """Whether the rational matrix ``Y`` proves that no metric compatible
    with J satisfies ``kind``, checked exactly on a fresh kernel and, on a
    two-step solvable L, also on the shear route's kernel.  The fresh kernel
    needs J integrable, as every exact verdict does (NotIntegrableError).
    Float entries are read exactly, as ``Metric`` reads them; an entry that
    is not a finite rational, such as NaN, inf or None, does not certify."""
    if len(Y) != L.dim or any(len(row) != L.dim for row in Y):
        return False
    kernel = condition_kernel(L, J, kind)
    if is_two_step_solvable(L):
        kernel += shear_kernel(pre_shear_from_bracket(L), J, kind)
    try:
        exact = linalg.mat(Y)
    except (TypeError, ValueError, OverflowError):
        return False
    return _certifies(kernel, exact)


@dataclass(frozen=True)
class SearchConfig:
    seeds: tuple = tuple(range(16))

    def __post_init__(self):
        # perfbench/metric_search.py sets fewer Phase-I starts: a nonempty tuple of integers
        if not isinstance(self.seeds, tuple) or not all(
            isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in self.seeds
        ):
            raise TypeError(f"seeds must be a list of integers, got {self.seeds!r}")
        if not self.seeds:
            raise ValueError("seeds must not be empty")


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "none" | "not_found"
    kind: str
    metric: tuple | None  # the float witness of a "found"
    residual: float  # 0.0 if found; tr(I_r - P) on the certifying face if none; else the last Phase-I s, clipped at 0
    iterations: int  # Newton steps over the seeds run: centring steps only from a definite start; 0 by projection
    seed: int | None
    exact_metric: tuple | None = None
    exact_verified: bool = False
    certificate: tuple | None = None  # the exact Y of a "none"
    route: str = "solver"  # "projection" for every none and the projection's found, else "solver"

    def summary(self) -> dict:
        keys = ("status", "kind", "route", "residual", "iterations", "seed", "exact_verified")
        return {key: getattr(self, key) for key in keys}


START_SPREAD = 0.1  # seed jitter of the Phase-I start, per orthonormal direction
FOUND_MARGIN = 1e-6  # s below -FOUND_MARGIN is a definite point of K
MAX_ITERATIONS = 500  # Newton steps per seed
TOLERANCE = 1e-9  # the duality gap n / t at which Phase I stops


def _unit(matrices) -> tuple[np.ndarray, list[int]]:
    """The int ``matrices`` as floats scaled into [-1, 1] by powers of two,
    and those powers."""
    scales = [1 << max(abs(c) for row in m for c in row).bit_length() for m in matrices]
    return np.array(matrices, dtype=float) / np.array(scales, dtype=float)[:, None, None], scales


def _trace_slice(kernel, n: int):
    """The trace-n slice of span(kernel) as base + sum_j z_j dirs_j, with
    orthonormal traceless directions; the base point is the projection of
    the identity onto the span, scaled to trace n."""
    ortho = np.linalg.qr(_unit(kernel)[0].reshape(len(kernel), -1).T)[0]
    # rotate the orthonormal basis so that its first matrix carries the trace
    rotation = np.linalg.qr(np.column_stack([ortho.T @ np.eye(n).ravel(), np.eye(len(kernel))]))[0]
    dirs = (ortho @ rotation).T.reshape(-1, n, n)
    return dirs[0] * (n / np.trace(dirs[0])), dirs[1:]


def _derivatives(base, dirs, u, cost):
    """The gradient cost_i - tr(Z^-1 E_i) and Hessian tr(Z^-1 E_i Z^-1 E_j)
    of cost . u - log det Z, Z = base + sum_i u_i dirs_i, from one
    eigendecomposition of Z."""
    w, v = np.linalg.eigh(base + np.tensordot(u, dirs, 1))
    scaled = (v.T @ dirs @ v) / np.sqrt(np.outer(w, w))  # Z^-1/2 E_i Z^-1/2, rotated
    flat = scaled.reshape(len(dirs), -1)
    return cost - np.trace(scaled, axis1=1, axis2=2), flat @ flat.T


def _newton_step(base, dirs, u, cost):
    """One damped Newton step on cost . u - log det(base + sum u_i dirs_i):
    the new point and the squared decrement at the old one.  For this
    self-concordant objective a damping of 1 / (1 + decrement) stays inside
    the cone, so there is no line search; below a decrement of 1/4 the full
    step is taken."""
    grad, hess = _derivatives(base, dirs, u, cost)
    step = -np.linalg.solve(hess, grad)
    decrement2 = float(-grad @ step)
    return u + step / (1.0 if decrement2 < 1 / 16 else 1.0 + decrement2**0.5), decrement2


def _snap(matrices, target):
    """A rational combination of the int ``matrices`` near the float
    ``target``, as Fractions.  The coordinates are fitted by least squares
    and rounded on ``_unit(matrices)``, under a denominator bound that keeps
    the rounding's move, at most the sum of their Frobenius norms over twice
    the bound, below the fit's least eigenvalue; None for a non-definite fit."""
    unit, scales = _unit(matrices)
    flat = unit.reshape(len(matrices), -1)
    coords = np.linalg.lstsq(flat.T, target.ravel(), rcond=None)[0]
    margin = np.linalg.eigvalsh(np.tensordot(coords, unit, 1))[0]
    if margin <= 0:
        return None
    bound = int(2 * np.sqrt(np.square(flat).sum(axis=1)).sum() / margin) + 1
    cs, dc = core.clear([Fraction(float(c)).limit_denominator(bound) / d for c, d in zip(coords, scales)])
    n = len(target)
    flat = core.combine(cs, [[c for row in m for c in row] for m in matrices])
    return tuple(core.fractions(flat[i * n : (i + 1) * n], dc) for i in range(n))


def _project_identity(rows, r: int) -> tuple[list[int], int]:
    """The projection of I_r onto the span of the independent flat int
    ``rows``, flattened, as int numerators over a denominator; 0 when there
    are none.  Its coordinates are ``linalg.projection_coordinates``."""
    if not rows:
        return [0] * (r * r), 1
    cs, dc = linalg.projection_coordinates(rows, [int(a == b) for a in range(r) for b in range(r)])
    return core.combine(cs, rows), dc


def _faces(L, J, kind, kernel, projection):
    """Int basis rows B of the subspaces a certificate's range is tried in,
    in order, each with the projection of I_r onto the span of the
    B M B^T, M in K; the first face, L, has B = I and is given
    ``projection``, I's own onto span(K).  Each face is built from L and J
    alone, so it moves with any change of basis.  A Kahler or SKT Y pairs
    with metrics, so its range is taken in L; a balanced Y pairs with
    H = g^-1, so in L*, by annihilators."""
    n = L.dim
    yield [[int(a == b) for b in range(n)] for a in range(n)], projection
    derived = L.derived_ints
    stable = intersect_ints(derived, [core.mat_vec(J.ints[0], v) for v in derived])
    if kind == "balanced":
        faces = (linalg.echelon(linalg.kernel(b, n)[0]) for b in (derived, stable))
    else:
        faces = (derived, stable, center(L).ints)
    for b in faces:
        if b:
            bt = list(zip(*b))
            rows = linalg.echelon([c for row in core.mat_mul(core.mat_mul(b, m), bt) for c in row] for m in kernel)
            yield b, _project_identity(rows, len(b))


def _face_certificate(L, J, kind, kernel, projection):
    """The first face's Y = B^T (I_r - P) B that ``_certifies``, as
    ``_primitive`` gives it, and tr(I_r - P), or None: P is the projection
    of I_r onto the span of the B M B^T, so tr(Y M) = tr((I_r - P) B M B^T)
    = 0 for M in K.  B has independent rows, so Y is semidefinite exactly
    when the r x r matrix I_r - P is, which is tested first."""
    for b, (p, d) in _faces(L, J, kind, kernel, projection):
        r = len(b)
        z = [[d * (a == c) - p[a * r + c] for c in range(r)] for a in range(r)]
        if not _semidefinite(z):
            continue
        y = core.mat_mul(core.mat_mul(list(zip(*b)), z), b)
        if _certifies(kernel, y):
            return _primitive(y), float(Fraction(sum(z[a][a] for a in range(r)), d))  # tr Z = |I_r - P|^2
    return None


def _primitive(y) -> tuple:
    """The nonzero int matrix ``y`` over the gcd of its entries, as Fractions."""
    d = gcd(*(c for row in y for c in row))
    return tuple(tuple(Fraction(c // d) for c in row) for row in y)


def _witness(L, J, kind, x):
    """The exact metric whose coordinates for ``kind`` are the rational
    matrix ``x``, or None when x is None or not definite, and whether
    ``condition_form`` of ``kind`` vanishes on its sigma, for balanced
    independently of the H-map."""
    if x is None:
        return None, False
    try:
        exact = metric_at(x, kind)
    except InvalidMetricError:
        return None, False
    return exact.matrix, not condition_form(L, J, *exact.sigma_ints(J), kind)[0]


def search_metric(
    L: LieAlgebra, J: ComplexStructure, kind: str, config: SearchConfig | None = None
) -> SearchResult:
    """Decide whether a metric compatible with J satisfies ``kind``: the
    projection, then the faces, then the solver.  ``found`` carries
    the exact metric, ``none`` the exact Y in ``certificate``, and ``route``
    the step that decided."""
    if kind not in KINDS:
        raise ValueError(f"unknown condition kind: {kind}")
    return search_kernel(L, J, kind, condition_kernel(L, J, kind), config)


def search_kernel(
    L: LieAlgebra, J: ComplexStructure, kind: str, kernel, config: SearchConfig | None = None
) -> SearchResult:
    """``search_metric`` on the caller's ``kernel = condition_kernel(L, J, kind)``, L validated and J integrable.
    No K_i of nonzero trace gives P = 0 and Y = I."""
    n = L.dim
    p, dc = _project_identity([[c for row in m for c in row] for m in kernel], n)
    exact, verified = _witness(L, J, kind, [core.fractions(p[a * n : (a + 1) * n], dc) for a in range(n)])
    if exact is not None:
        floats = tuple(tuple(map(float, row)) for row in exact)
        return SearchResult("found", kind, floats, 0.0, 0, None, exact, verified, route="projection")
    if (face := _face_certificate(L, J, kind, kernel, (p, dc))) is not None:
        certificate, distance = face
        return SearchResult("none", kind, None, distance, 0, None, certificate=certificate, route="projection")
    return _solve(L, J, kind, kernel, config)


def _solve(L, J, kind, kernel, config: SearchConfig | None = None) -> SearchResult:
    """The solver on ``kernel``, which must hold a matrix of nonzero trace;
    it only looks for a witness.  Seeds jitter the Phase-I start, and a
    further seed runs only when the previous one used up ``MAX_ITERATIONS``
    Newton steps, since Phase I follows the same central path from any
    start; ``not_found`` means that no seed reached s < 0."""
    config = config or SearchConfig()
    n = L.dim
    base, dirs = _trace_slice(kernel, n)
    phase_one = np.concatenate([dirs, np.eye(n)[None]])
    total, s = 0, float(n)
    for seed in config.seeds:
        rng = random.Random(seed)
        z = np.array([rng.gauss(0.0, START_SPREAD) for _ in dirs])
        least = np.linalg.eigvalsh(base + np.tensordot(z, dirs, 1))[0]
        # a definite start is a point of K with s = -least < 0 already
        u = np.append(z, -least if least > FOUND_MARGIN else 1.0 - min(0.0, least))
        t = 1.0
        for _ in range(MAX_ITERATIONS):
            s = float(u[-1])
            if s < -FOUND_MARGIN:
                break
            total += 1
            new, decrement2 = _newton_step(base, phase_one, u, np.append(np.zeros(len(dirs)), t))
            centred = decrement2 < 1e-10
            if centred and n / t < TOLERANCE:
                break
            t, u = (8.0 * t, u) if centred else (t, new)
        else:
            continue
        if s >= -FOUND_MARGIN:
            break  # Phase I concluded with s >= 0
        z = u[:-1]
        for _ in range(MAX_ITERATIONS if len(dirs) else 0):
            total += 1
            z, decrement2 = _newton_step(base, dirs, z, np.zeros(len(dirs)))
            if decrement2 < 1e-12:
                break
        centre = base + np.tensordot(z, dirs, 1)
        exact, verified = _witness(L, J, kind, _snap(kernel, centre))
        if kind == "balanced":
            centre = np.linalg.inv(centre)
        metric = tuple(map(tuple, ((centre + centre.T) / 2).tolist()))
        return SearchResult("found", kind, metric, 0.0, total, seed, exact, verified)
    return SearchResult("not_found", kind, None, max(s, 0.0), total, None)
