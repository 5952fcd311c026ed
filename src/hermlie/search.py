"""Numerical feasibility search over the cone of compatible metrics.

Multi-start projected gradient descent minimises the squared norm of a
linear condition map plus a log-det barrier keeping the iterates positive
definite.  Every kind is linear in its own coordinates, so there is one
path: Kahler and SKT search the compatible metrics G with
``hermitian.condition_form``; balanced searches the inverse metrics
H = G^-1 with ``hermitian.balanced_inverse_form``, whose norm is its
reported residual, and so runs in every even dimension.  The gradient is
analytic, and each iterate costs one batched eigendecomposition of its
Armijo backtracking candidates, which yields their objective, definiteness
and the barrier gradient alike.  Successful runs finish with a
continued-fraction rationalisation pass and exact verification by
``classify_metric``, on sigma^(n-1) for balanced, so a "found" witness can
be upgraded to a proof; "not found" is only ever reported as inconclusive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import core, linalg
from .algebra import LieAlgebra
from .errors import InvalidMetricError, NotAComplexStructureError, NotIntegrableError
from .hermitian import (
    KINDS,
    ComplexStructure,
    Metric,
    balanced_inverse_form,
    classify_metric,
    condition_form,
    is_integrable,
    sigma_of,
)
from .linalg import ZERO


@dataclass(frozen=True)
class MetricParameterization:
    """Rational basis of {S symmetric : J^T S J = S}, with a definite reference."""

    basis: tuple  # exact symmetric matrices
    reference: tuple  # coefficients of (I + J^T J) / 2 in `basis`


def metric_parameterization(L: LieAlgebra, J: ComplexStructure) -> MetricParameterization:
    if J.dim != L.dim:
        raise NotAComplexStructureError("J does not match the algebra's dimension")
    n = L.dim
    # unknowns: upper-triangle entries of S
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    index = {slot: k for k, slot in enumerate(slots)}
    jm = J.matrix
    rows = []
    for a in range(n):
        for b in range(a, n):
            # (J^T S J - S)[a][b] = sum_{p,q} J[p][a] S[p][q] J[q][b] - S[a][b]
            row = [ZERO] * len(slots)
            for p in range(n):
                if jm[p][a] == 0:
                    continue
                for q in range(n):
                    if jm[q][b] == 0:
                        continue
                    i, j = (p, q) if p <= q else (q, p)
                    row[index[(i, j)]] += jm[p][a] * jm[q][b]
            row[index[(a, b)]] -= 1
            rows.append(tuple(row))
    kernel = linalg.nullspace(tuple(rows))
    basis = tuple(
        tuple(tuple(sol[index[min(i, j), max(i, j)]] for j in range(n)) for i in range(n))
        for sol in kernel
    )
    # compatible and definite for every J, and the identity for an orthogonal J
    ref = linalg.mat_add(linalg.identity_matrix(n), linalg.mat_mul(linalg.transpose(jm), jm))
    coeffs = linalg.solve(linalg.matrix_from_columns(kernel), [ref[i][j] / 2 for i, j in slots])
    assert coeffs is not None, "the reference is not in the compatible cone's span"
    return MetricParameterization(basis, coeffs)


def residual(L: LieAlgebra, J: ComplexStructure, S, kind: str) -> float:
    """Squared coefficient norm of ``condition_form``, computed exactly; for
    balanced that is d(sigma^(n-1)), not the balanced search's H-map.

    ``S`` may be a float or rational matrix; float entries are converted
    exactly, so the result is exactly 0.0 precisely when the condition
    holds for the rational metric the floats denote.
    """
    metric = Metric(tuple(tuple(Fraction(x) for x in row) for row in S))
    out, den = condition_form(L, J, *metric.sigma_ints(J), kind)
    return float(Fraction(sum(c * c for c in out.values()), den * den))


@dataclass(frozen=True)
class SearchConfig:
    seeds: tuple = tuple(range(16))
    max_iterations: int = 5000
    tolerance: float = 1e-9
    barrier_schedule: tuple = (1e-2, 1e-4, 1e-6, 0.0)
    initial_step: float = 0.25
    start_spread: float = 0.2
    stall_iterations: int = 250
    # residuals are homogeneous in the metric, so iterates are held on the
    # trace = dim slice and a witness must clear a definiteness margin;
    # otherwise descent fakes a zero by sliding to a semidefinite point of
    # the condition's kernel (those exist even when no witness does).
    min_eig_floor: float = 1e-3

    def __post_init__(self):
        # overrides come from documents: each must have its default's shape
        for f in fields(self):
            value, default = getattr(self, f.name), f.default
            many = isinstance(default, tuple)
            kind = numbers.Integral if isinstance(default[0] if many else default, int) else numbers.Real
            items = value if many else (value,)
            if (many and not isinstance(value, tuple)) or not all(
                isinstance(x, kind) and not isinstance(x, bool) for x in items
            ):
                what = "a list of " if many else ""
                noun = "integers" if kind is numbers.Integral else "numbers"
                raise TypeError(f"{f.name} must be {what}{noun}, got {value!r}")


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "not_found"
    kind: str
    metric: tuple | None
    residual: float
    iterations: int
    seed: int | None
    exact_metric: tuple | None = None
    exact_verified: bool = False

    def summary(self) -> dict:
        return {
            "status": self.status,
            "kind": self.kind,
            "residual": self.residual,
            "iterations": self.iterations,
            "seed": self.seed,
            "exact_verified": self.exact_verified,
        }


def _float_matrix(columns: list) -> np.ndarray:
    """Columns of core numerators over a denominator as floats, one row per
    form coefficient that some column uses (int / int rounds correctly)."""
    masks = sorted(set().union(*(nums for nums, _ in columns)))
    return np.array([[nums.get(k, 0) / den for nums, den in columns] for k in masks]).reshape(
        len(masks), len(columns)
    )


class _Batch(NamedTuple):
    """One evaluation of the objective; row i describes the i-th coefficient vector."""

    f: np.ndarray  # residual - mu * log det S, +inf off the positive definite cone
    res: np.ndarray  # squared norm of the condition values
    v: np.ndarray  # condition values
    w: np.ndarray  # ascending eigenvalues of S
    u: np.ndarray | None  # eigenvectors of S, only computed when mu > 0

    def row(self, i: int) -> "_Batch":
        return _Batch(*(None if a is None else a[i] for a in self))


class _Problem:
    """Float image of the exact condition map for one (algebra, J, kind) search.

    The condition values are ``linear @ x`` for coefficients x on a basis of
    the searched matrices: the metrics G for Kahler and SKT, and for balanced
    the inverse metrics H, which are the metrics compatible with J^T.  The
    barrier, the trace slice and the eigenvalue floor act on those matrices.
    """

    def __init__(self, L: LieAlgebra, J: ComplexStructure, kind: str):
        self.L, self.J, self.kind = L, J, kind
        self.inverse = kind == "balanced"
        self.param = metric_parameterization(
            L, ComplexStructure(linalg.transpose(J.matrix)) if self.inverse else J
        )
        basis = self.param.basis
        self.dim, self.m = L.dim, len(basis)
        self.basis_flat = np.array([[float(c) for row in b for c in row] for b in basis])
        ints = [core.clear_matrix(b) for b in basis]
        if self.inverse:
            columns = [balanced_inverse_form(L, J, *b) for b in ints]
        else:
            columns = [condition_form(L, J, *sigma_of(J, *b), kind) for b in ints]
        self.linear = _float_matrix(columns)

    def matrices(self, xs: np.ndarray) -> np.ndarray:
        return (xs @ self.basis_flat).reshape(len(xs), self.dim, self.dim)

    def metric(self, x: np.ndarray) -> tuple:
        """The float metric G at coefficients ``x``, inverting H for balanced."""
        s = self.matrices(x[None, :])[0]
        if self.inverse:
            s = np.linalg.inv(s)
            s = (s + s.T) / 2
        return tuple(map(tuple, s.tolist()))

    def evaluate(self, xs: np.ndarray, mu: float) -> _Batch:
        """The objective on each row of ``xs``, from one batched decomposition.

        This is the one test of positive definiteness: a row whose least
        eigenvalue is not positive gets objective +inf.
        """
        mats = self.matrices(xs)
        if mu:
            w, u = np.linalg.eigh(mats)
        else:
            w, u = np.linalg.eigvalsh(mats), None
        v = xs @ self.linear.T
        res = (v * v).sum(axis=1)
        definite = w[:, 0] > 0
        f = res
        if mu:
            f = res - mu * np.log(np.where(definite[:, None], w, 1.0)).sum(axis=1)
        return _Batch(np.where(definite, f, np.inf), res, v, w, u)

    def gradient(self, point: _Batch, mu: float) -> np.ndarray:
        """Gradient of the objective at a definite point from its evaluation:
        2 (dv/dx)^T v for the residual, -mu tr(S^-1 B_p) for the barrier."""
        grad = 2.0 * (point.v @ self.linear)
        if mu:
            inverse = (point.u / point.w) @ point.u.T
            grad -= mu * (self.basis_flat @ inverse.ravel())
        return grad


def _rationalize(problem: _Problem, x: np.ndarray):
    """Snap coefficients to small rationals and verify exactly.

    Each candidate is one int combination of the basis numerators; a
    denominator that snaps to the previous candidate's coefficients is
    skipped, since that candidate has already failed.
    """
    n = problem.dim
    basis, bden = core.clear_matrix([[c for row in b for c in row] for b in problem.param.basis])
    last = None
    for den in (1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 96, 480, 4096, 1 << 16, 1 << 24):
        coeffs = [Fraction(float(c)).limit_denominator(den) for c in x]
        if coeffs == last:
            continue
        last = coeffs
        cs, dc = core.clear(coeffs)
        flat = core.combine(cs, basis)
        s = tuple(core.fractions(flat[i * n : (i + 1) * n], dc * bden) for i in range(n))
        try:
            metric = Metric(s)
            if problem.inverse:  # H is definite, so G = H^-1 is too
                metric = Metric(linalg.inverse(s))
        except InvalidMetricError:  # not positive definite
            continue
        # certified on sigma^(n-1), independently of the balanced H-map
        verdict = classify_metric(problem.L, metric, problem.J, allow_nonintegrable=True)
        if verdict[problem.kind]:
            return metric.matrix, True
    return None, False


def search_metric(
    L: LieAlgebra, J: ComplexStructure, kind: str, config: SearchConfig | None = None
) -> SearchResult:
    """Multi-start barrier gradient descent for a compatible special metric.

    Deterministic in the config's seed list; seeds run in order and the
    first success wins.  A successful run reports the float witness plus,
    when the rationalisation pass lands, an exact certified metric.
    not_found means only that the budget was exhausted.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown condition kind: {kind}")
    L.require_validated()
    if not is_integrable(L, J):
        raise NotIntegrableError("J is not integrable on this algebra")
    config = config or SearchConfig()
    problem = _Problem(L, J, kind)
    x_ref = np.array([float(c) for c in problem.param.reference])
    trace_vec = problem.basis_flat[:, :: L.dim + 1].sum(axis=1)
    steps = config.initial_step * 0.5 ** np.arange(40)  # the backtracking sequence
    total_iters = 0
    best = (math.inf, None, None)  # residual, x, seed

    def normalized(xs: np.ndarray) -> np.ndarray:
        """Each row scaled onto the trace = dim slice; rows of trace <= 0 left alone."""
        t = xs @ trace_vec
        return xs * (L.dim / np.where(t > 0, t, L.dim))[:, None]

    def succeeded(point: _Batch) -> bool:
        return point.res <= config.tolerance and point.w[0] > config.min_eig_floor

    for seed in config.seeds:
        rng = np.random.default_rng(seed)
        start = x_ref + config.start_spread * rng.standard_normal(problem.m)
        x = normalized(start[None, :])[0]
        point = problem.evaluate(x[None, :], 0.0).row(0)
        if point.f == math.inf:
            x = x_ref.copy()
            point = problem.evaluate(x[None, :], 0.0).row(0)
        phases = max(1, len(config.barrier_schedule))
        per_phase = max(1, config.max_iterations // phases)
        stall = 0
        last = math.inf
        done = False
        for mu in config.barrier_schedule:
            if done:
                break
            point = problem.evaluate(x[None, :], mu).row(0)
            for _ in range(per_phase):
                total_iters += 1
                if point.f == math.inf:
                    break
                grad = problem.gradient(point, mu)
                gnorm2 = float(grad @ grad)
                if gnorm2 == 0.0:
                    break
                # Armijo backtracking, four halvings per batched evaluation
                improved = False
                for block in range(0, len(steps), 4):
                    trial = steps[block : block + 4]
                    xs = normalized(x - trial[:, None] * grad)
                    batch = problem.evaluate(xs, mu)
                    passed = np.flatnonzero(batch.f < point.f - 1e-4 * trial * gnorm2)
                    if passed.size:
                        x, point = xs[passed[0]], batch.row(passed[0])
                        improved = True
                        break
                if succeeded(point):
                    done = True
                    break
                if not improved:
                    break
                if abs(last - point.res) < 1e-16:
                    stall += 1
                    if stall >= config.stall_iterations:
                        done = True
                        break
                else:
                    stall = 0
                last = point.res
        res = float(point.res)
        if res < best[0] and point.f < math.inf:
            best = (res, x.copy(), seed)
        if succeeded(point):
            exact, verified = _rationalize(problem, x)
            return SearchResult(
                "found",
                kind,
                problem.metric(x),
                res,
                total_iters,
                seed,
                exact_metric=exact,
                exact_verified=verified,
            )
    res, x, seed = best
    metric = None if x is None else problem.metric(x)
    return SearchResult("not_found", kind, metric, res, total_iters, seed)
