"""Numerical feasibility search over the cone of compatible metrics.

The compatible symmetric forms make up an n^2-dimensional rational vector
space for a 2n-dimensional algebra; the search runs multi-start projected
gradient descent on its coefficients, minimising the squared coefficient
norm of the relevant closed-form condition plus a log-det barrier keeping
the iterates positive definite.  Successful runs finish with a
continued-fraction rationalisation pass followed by exact verification, so
a "found" witness can be upgraded to a proof; "not found" is only ever
reported as inconclusive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import linalg
from .algebra import LieAlgebra
from .errors import (
    IncompatibleMetricError,
    NotAComplexStructureError,
    NotIntegrableError,
)
from .forms import KForm, ce_differential, form_power, j_pullback, wedge
from .hermitian import ComplexStructure, Metric, classify_metric, is_integrable
from .linalg import ZERO

KINDS = ("kahler", "balanced", "skt")


@dataclass(frozen=True)
class MetricParameterization:
    """Rational basis of {S symmetric : J^T S J = S}, with identity reference."""

    dim: int
    basis: tuple  # exact symmetric matrices
    reference: tuple  # coefficients of the identity in `basis`


def metric_parameterization(L: LieAlgebra, J: ComplexStructure) -> MetricParameterization:
    if J.dim != L.dim:
        raise NotAComplexStructureError("J does not match the algebra's dimension")
    n = L.dim
    # unknowns: upper-triangle entries of S
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    index = {slot: k for k, slot in enumerate(slots)}

    def entry(sol, i, j):
        return sol[index[(i, j)]] if i <= j else sol[index[(j, i)]]

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
    basis = []
    for sol in linalg.nullspace(tuple(rows)):
        m = tuple(tuple(entry(sol, i, j) for j in range(n)) for i in range(n))
        basis.append(m)
    ident = linalg.identity_matrix(n)
    coeffs = _coefficients_of(basis, ident, slots, index)
    return MetricParameterization(n, tuple(basis), coeffs)


def _coefficients_of(basis, target, slots, index):
    cols = [tuple(m[i][j] for (i, j) in slots) for m in basis]
    rhs = tuple(target[i][j] for (i, j) in slots)
    sol = linalg.solve(linalg.matrix_from_columns(cols), rhs)
    assert sol is not None, "identity is not in the compatible cone's span"
    return sol


def _condition_form(L: LieAlgebra, J: ComplexStructure, sigma: KForm, kind: str) -> KForm:
    n = L.dim // 2
    if kind == "kahler":
        return ce_differential(L, sigma)
    if kind == "balanced":
        if n < 2:
            return ce_differential(L, KForm(L.dim, 0, {(): Fraction(0)}))
        return ce_differential(L, form_power(sigma, n - 1))
    if kind == "skt":
        return ce_differential(L, j_pullback(J.matrix, ce_differential(L, sigma)))
    raise ValueError(f"unknown condition kind: {kind}")


def residual(L: LieAlgebra, J: ComplexStructure, S, kind: str) -> float:
    """Squared coefficient norm of the condition form, computed exactly.

    ``S`` may be a float or rational matrix; float entries are converted
    exactly, so the result is exactly 0.0 precisely when the condition
    holds for the rational metric the floats denote.
    """
    s_exact = tuple(tuple(Fraction(x) for x in row) for row in S)
    metric = Metric(s_exact)
    if not metric.compatible_with(J):
        raise IncompatibleMetricError("S is not compatible with J")
    sigma_m = linalg.mat_mul(linalg.transpose(J.matrix), s_exact)
    sigma = KForm(
        L.dim,
        2,
        {
            (i, j): sigma_m[i - 1][j - 1]
            for i, j in combinations(range(1, L.dim + 1), 2)
            if sigma_m[i - 1][j - 1]
        },
    )
    out = _condition_form(L, J, sigma, kind)
    total = sum((c * c for c in out.coeffs.values()), ZERO)
    return float(total)


@dataclass(frozen=True)
class SearchConfig:
    seeds: tuple = tuple(range(16))
    max_iterations: int = 5000
    tolerance: float = 1e-9
    barrier_schedule: tuple = (1e-2, 1e-4, 1e-6, 0.0)
    initial_step: float = 0.25
    fd_step: float = 1e-6
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


class _Problem:
    """Float-precision linear algebra for one (algebra, J, kind) search."""

    def __init__(self, L: LieAlgebra, J: ComplexStructure, kind: str):
        self.L, self.J, self.kind = L, J, kind
        self.param = metric_parameterization(L, J)
        d = L.dim
        self.n2 = d
        self.m = len(self.param.basis)
        self.basis_arr = np.array(
            [[[float(c) for c in row] for row in b] for b in self.param.basis]
        )
        pairs = list(combinations(range(1, d + 1), 2))
        self.sigma_map = np.zeros((len(pairs), self.m))
        jt = linalg.transpose(J.matrix)
        for p, b in enumerate(self.param.basis):
            sm = linalg.mat_mul(jt, b)
            for row_i, (i, j) in enumerate(pairs):
                self.sigma_map[row_i, p] = float(sm[i - 1][j - 1])
        self.d2 = self._d_matrix(2)
        n = d // 2
        if kind == "kahler" or (kind == "balanced" and n == 2):
            self.linear = self.d2 @ self.sigma_map
            self.mode = "linear"
        elif kind == "skt":
            p3 = self._pullback_matrix(3)
            d3 = self._d_matrix(3)
            self.linear = d3 @ p3 @ self.d2 @ self.sigma_map
            self.mode = "linear"
        elif kind == "balanced" and n >= 3:
            assert n == 3, "balanced search implemented for dimensions up to 6"
            self.wedge_t = self._wedge_tensor()
            self.d4 = self._d_matrix(4)
            self.mode = "quadratic"
        else:  # dim 2: every compatible metric satisfies everything
            self.linear = np.zeros((1, self.m))
            self.mode = "linear"

    def _basis_kforms(self, k):
        return list(combinations(range(1, self.n2 + 1), k))

    def _d_matrix(self, k):
        rows = self._basis_kforms(k + 1)
        cols = self._basis_kforms(k)
        out = np.zeros((len(rows), len(cols)))
        row_index = {idx: i for i, idx in enumerate(rows)}
        for c, idx in enumerate(cols):
            df = ce_differential(self.L, KForm(self.n2, k, {idx: Fraction(1)}))
            for ridx, val in df.coeffs.items():
                out[row_index[ridx], c] = float(val)
        return out

    def _pullback_matrix(self, k):
        idxs = self._basis_kforms(k)
        out = np.zeros((len(idxs), len(idxs)))
        row_index = {idx: i for i, idx in enumerate(idxs)}
        for c, idx in enumerate(idxs):
            pf = j_pullback(self.J.matrix, KForm(self.n2, k, {idx: Fraction(1)}))
            for ridx, val in pf.coeffs.items():
                out[row_index[ridx], c] = float(val)
        return out

    def _wedge_tensor(self):
        pairs = self._basis_kforms(2)
        quads = self._basis_kforms(4)
        qindex = {idx: i for i, idx in enumerate(quads)}
        t = np.zeros((len(quads), len(pairs), len(pairs)))
        for a, ia in enumerate(pairs):
            fa = KForm(self.n2, 2, {ia: Fraction(1)})
            for b, ib in enumerate(pairs):
                w = wedge(fa, KForm(self.n2, 2, {ib: Fraction(1)}))
                for ridx, val in w.coeffs.items():
                    t[qindex[ridx], a, b] += float(val)
        return t

    def matrices(self, xs: np.ndarray) -> np.ndarray:
        return np.einsum("bp,pij->bij", xs, self.basis_arr)

    def residuals(self, xs: np.ndarray) -> np.ndarray:
        if self.mode == "linear":
            v = xs @ self.linear.T
            return np.einsum("bi,bi->b", v, v)
        sig = xs @ self.sigma_map.T
        v4 = np.einsum("kac,ba,bc->bk", self.wedge_t, sig, sig)
        v5 = v4 @ self.d4.T
        return np.einsum("bi,bi->b", v5, v5)

    def min_eigs(self, xs: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrices(xs))[:, 0]

    def objective(self, xs: np.ndarray, mu: float) -> np.ndarray:
        res = self.residuals(xs)
        if mu == 0.0:
            eigs = self.min_eigs(xs)
            return np.where(eigs > 0, res, np.inf)
        mats = self.matrices(xs)
        eigs = np.linalg.eigvalsh(mats)
        bad = eigs[:, 0] <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            logdet = np.sum(np.log(np.where(eigs > 0, eigs, 1.0)), axis=1)
        out = res - mu * logdet
        out[bad] = np.inf
        return out


def _fd_gradient(problem: _Problem, x: np.ndarray, mu: float, h: float) -> np.ndarray:
    m = len(x)
    steps = h * np.maximum(1.0, np.abs(x))
    xs = np.repeat(x[None, :], 2 * m, axis=0)
    for p in range(m):
        xs[2 * p, p] += steps[p]
        xs[2 * p + 1, p] -= steps[p]
    vals = problem.objective(xs, mu)
    grad = (vals[0::2] - vals[1::2]) / (2 * steps)
    return np.where(np.isfinite(grad), grad, 0.0)


def analytic_gradient(L: LieAlgebra, J: ComplexStructure, kind: str, x: np.ndarray) -> np.ndarray:
    """Gradient of the pure residual for the linear kinds (test cross-check)."""
    problem = _Problem(L, J, kind)
    if problem.mode != "linear":
        raise ValueError("analytic gradient implemented for the linear kinds")
    a = problem.linear
    return 2.0 * (a.T @ (a @ np.asarray(x, dtype=float)))


def _rationalize(problem: _Problem, x: np.ndarray):
    """Snap coefficients to small rationals and verify exactly."""
    for den in (1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 96, 480, 4096, 1 << 16, 1 << 24):
        coeffs = [Fraction(float(c)).limit_denominator(den) for c in x]
        s = None
        for c, b in zip(coeffs, problem.param.basis):
            term = linalg.mat_scale(c, b)
            s = term if s is None else linalg.mat_add(s, term)
        if any(m <= 0 for m in linalg.leading_principal_minors(s)):
            continue
        metric = Metric(s)
        verdict = classify_metric(problem.L, metric, problem.J, allow_nonintegrable=True)
        if verdict[problem.kind]:
            return s, True
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
    trace_vec = np.array([sum(float(b[i][i]) for i in range(L.dim)) for b in problem.param.basis])
    total_iters = 0
    best = (math.inf, None, None)  # residual, x, seed

    def normalized(x: np.ndarray) -> np.ndarray:
        t = float(trace_vec @ x)
        return x * (L.dim / t) if t > 0 else x

    def succeeded(x: np.ndarray, res: float) -> bool:
        return res <= config.tolerance and problem.min_eigs(x[None, :])[0] > config.min_eig_floor

    for seed in config.seeds:
        rng = np.random.default_rng(seed)
        x = normalized(x_ref + config.start_spread * rng.standard_normal(problem.m))
        if problem.min_eigs(x[None, :])[0] <= 0:
            x = x_ref.copy()
        phases = max(1, len(config.barrier_schedule))
        per_phase = max(1, config.max_iterations // phases)
        stall = 0
        last = math.inf
        done = False
        for mu in config.barrier_schedule:
            if done:
                break
            for _ in range(per_phase):
                total_iters += 1
                grad = _fd_gradient(problem, x, mu, config.fd_step)
                gnorm2 = float(grad @ grad)
                fx = float(problem.objective(x[None, :], mu)[0])
                if gnorm2 == 0.0:
                    break
                step = config.initial_step
                improved = False
                for _ in range(40):
                    xn = normalized(x - step * grad)
                    fn = float(problem.objective(xn[None, :], mu)[0])
                    if fn < fx - 1e-4 * step * gnorm2:
                        x = xn
                        improved = True
                        break
                    step *= 0.5
                res = float(problem.residuals(x[None, :])[0])
                if succeeded(x, res):
                    done = True
                    break
                if not improved:
                    break
                if abs(last - res) < 1e-16:
                    stall += 1
                    if stall >= config.stall_iterations:
                        done = True
                        break
                else:
                    stall = 0
                last = res
        res = float(problem.residuals(x[None, :])[0])
        if res < best[0] and problem.min_eigs(x[None, :])[0] > 0:
            best = (res, x.copy(), seed)
        if succeeded(x, res):
            exact, verified = _rationalize(problem, x)
            return SearchResult(
                "found",
                kind,
                tuple(map(tuple, problem.matrices(x[None, :])[0].tolist())),
                res,
                total_iters,
                seed,
                exact_metric=exact,
                exact_verified=verified,
            )
    res, x, seed = best
    metric = None
    if x is not None:
        metric = tuple(map(tuple, problem.matrices(x[None, :])[0].tolist()))
    return SearchResult("not_found", kind, metric, res, total_iters, seed)
