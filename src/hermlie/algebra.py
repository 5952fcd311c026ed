"""Lie algebras over the rationals: structure constants, brackets, subspace
calculus, and basis-independent structural invariants.

Basis vectors are 1-indexed e_1..e_n to match the usual differential-list
notation.  All arithmetic is exact; nothing in this module touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from fractions import Fraction
from typing import Iterable, Sequence

from . import core, linalg
from .errors import (
    DimensionMismatchError,
    DuplicateEntryError,
    IndexOutOfRangeError,
    NotValidatedError,
)
from .linalg import ZERO, Matrix, Vector


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, stored by its primitive reduced-echelon basis
    (``linalg.echelon``): int rows, each with a positive pivot.

    The canonical representative makes equality and containment O(1)-ish
    dictionary work; two spans are equal iff their rows coincide.  The
    calculus below runs on ``ints``; ``rows`` is the reduced Fraction view.
    """

    ambient_dim: int
    ints: tuple[tuple[int, ...], ...]

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vectors = [linalg.vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        return Subspace(ambient_dim, linalg.echelon(core.clear(v)[0] for v in vectors))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        identity = tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim))
        return Subspace(ambient_dim, identity)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.ints)

    @cached_property
    def rows(self) -> tuple[Vector, ...]:
        """The reduced echelon basis: each primitive row over its pivot, its first nonzero entry."""
        return tuple(core.fractions(r, next(c for c in r if c)) for r in self.ints)

    def basis(self) -> tuple[Vector, ...]:
        return self.rows

    def contains(self, v: Sequence) -> bool:
        v = linalg.vec(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        return in_span(self.ints, core.clear(v)[0])


def in_span(basis: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether the int vector ``v`` lies in the span of a primitive echelon basis.

    Subtracting row r clears v at r's pivot and leaves the other pivots
    alone, since echelon rows vanish at each other's pivots.
    """
    for row in basis:
        p = next(k for k, c in enumerate(row) if c)
        c = v[p]
        if c:
            q = row[p]
            v = [q * x - c * y for x, y in zip(v, row)]
    return not any(v)


def intersect_ints(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Echelon basis of a & b from int bases of the same ambient space, via
    the kernel of [A^T | -B^T]."""
    if not a or not b:
        return ()
    m = [[r[c] for r in a] + [-r[c] for r in b] for c in range(len(a[0]))]
    kern, _ = linalg.kernel(m, len(a) + len(b))
    return linalg.echelon(core.combine(x[: len(a)], a) for x in kern)


def complement_ints(
    s: Sequence[Sequence[int]], g: Sequence[Sequence[int]], within: Sequence[Sequence[int]] | None = None
) -> tuple[tuple[int, ...], ...]:
    """Echelon basis of {w in span(within) : w^T g s = 0 for every row s},
    for the numerators ``g`` of a positive definite metric; ``within`` is an
    echelon basis and defaults to the whole space."""
    if within is None:
        within = [[int(i == j) for j in range(len(g))] for i in range(len(g))]
    if not s or not within:
        return tuple(map(tuple, within))
    # unknowns are coefficients of `within`'s rows
    gs = [core.mat_vec(g, r) for r in s]
    eqs = [[core.dot(w, x) for w in within] for x in gs]
    return linalg.echelon(core.combine(x, within) for x in linalg.kernel(eqs, len(within))[0])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return Subspace(a.ambient_dim, linalg.echelon([*a.ints, *b.ints]))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces via the kernel of [A^T | -B^T]."""
    _check_same_ambient(a, b)
    return Subspace(a.ambient_dim, intersect_ints(a.ints, b.ints))


def orthogonal_complement(s: Subspace, metric_matrix: Matrix, within: Subspace | None = None) -> Subspace:
    """{w in `within` : g(w, s) = 0 for all s}, with g positive definite."""
    if within is None:
        within = Subspace.full(s.ambient_dim)
    _check_same_ambient(s, within)
    if not within.ints or not s.ints:
        return within
    g, _ = core.clear_matrix(metric_matrix)
    return Subspace(s.ambient_dim, complement_ints(s.ints, g, within.ints))


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


@dataclass(frozen=True)
class Fingerprint:
    """Basis-independent necessary invariants for distinguishing algebras."""

    dim: int
    derived_series: tuple[int, ...]
    lower_central_series: tuple[int, ...]
    center_dim: int
    derived_center_dim: int
    unimodular: bool
    nilpotent: bool


class LieAlgebra:
    """A finite-dimensional real Lie algebra with rational structure constants.

    The bracket table is stored sparsely: ``table[(i, j)]`` with i < j holds
    the vector [e_i, e_j]; antisymmetry supplies the rest.  An algebra built
    ``from_ints`` forms its table only when something reads it.
    """

    def __init__(self, dim: int, table: dict[tuple[int, int], Vector]):
        self.dim = dim
        self.table = {
            pair: linalg.vec(v) for pair, v in sorted(table.items()) if not linalg.is_zero_vec(v)
        }
        for (i, j), v in self.table.items():
            if not (1 <= i < j <= dim) or len(v) != dim:
                raise IndexOutOfRangeError(f"bad table entry for pair ({i}, {j})")
        self.integrability: dict[tuple, bool] = {}  # by J's numerators: ``hermitian.is_integrable``

    @staticmethod
    def from_ints(b: core.Bilinear) -> "LieAlgebra":
        """The algebra whose bracket numerators are ``b``, whose entries are
        already in range, without clearing or checking a table again."""
        L = LieAlgebra.__new__(LieAlgebra)
        L.dim, L.ints, L.integrability = b.dim, b, {}
        return L

    @cached_property
    def table(self) -> dict[tuple[int, int], Vector]:
        """The bracket table of an algebra built ``from_ints``."""
        return self.ints.table()

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.table == other.table
        )

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.table)})"

    @cached_property
    def ints(self) -> core.Bilinear:
        """The bracket table as integer numerators over one denominator."""
        return core.Bilinear(self.dim, self.table)

    @cached_property
    def derived_ints(self) -> tuple[tuple[int, ...], ...]:
        """Primitive echelon basis of the derived algebra, from the bracket
        numerators (``linalg.echelon``); callers must not modify it."""
        rows = []
        for _, _, nums in self.ints.terms:
            row = [0] * self.dim
            for k, c in nums:
                row[k] = c
            rows.append(row)
        return linalg.echelon(rows)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        return self.ints.rational(x, y)

    def jacobi_residual(self) -> Fraction:
        """Max-abs coordinate of the cyclic sum over all basis triples."""
        worst = max((abs(c) for s in core.jacobi_sums(self.ints) for c in s), default=0)
        return Fraction(worst, self.ints.den**2)

    @cached_property
    def validated(self) -> bool:
        """Whether the Jacobi identity holds: ``jacobi_residual() == 0``."""
        return not any(any(s) for s in core.jacobi_sums(self.ints))

    def require_validated(self):
        if not self.validated:
            raise NotValidatedError(
                f"Jacobi identity fails with residual {self.jacobi_residual()}"
            )

    @cached_property
    def fingerprint(self) -> Fingerprint:
        """The invariants ``structure_invariants`` reports; meaningful only
        once the Jacobi identity holds."""
        derived = []
        current = Subspace.full(self.dim)
        while True:
            nxt = bracket_of_subspaces(self, current, current)
            derived.append(nxt.dim)
            if nxt.dim == current.dim or nxt.dim == 0:
                break
            current = nxt

        lower = []
        current = bracket_of_subspaces(self, Subspace.full(self.dim), Subspace.full(self.dim))
        lower.append(current.dim)
        while current.dim:
            nxt = bracket_of_subspaces(self, Subspace.full(self.dim), current)
            if nxt.dim == current.dim:
                break
            current = nxt
            lower.append(current.dim)

        z = center(self)
        return Fingerprint(
            dim=self.dim,
            derived_series=tuple(derived),
            lower_central_series=tuple(lower),
            center_dim=z.dim,
            derived_center_dim=intersect(image_of_bracket(self), z).dim,
            unimodular=is_unimodular(self),
            nilpotent=(lower[-1] == 0),
        )

    def structure_constants(self):
        """Iterate (i, j, k, c) over the stored i < j entries."""
        for (i, j), v in self.table.items():
            for k, c in enumerate(v, start=1):
                if c:
                    yield (i, j, k, c)


def make_algebra(dim: int, constants: Iterable[tuple[int, int, int, object]]) -> LieAlgebra:
    """Build an algebra from a list of (i, j, k, c) meaning [e_i,e_j] = c e_k + ...

    Entries with i > j are folded in by antisymmetry; duplicates after
    normalisation are rejected rather than summed.
    """
    if dim < 1:
        raise IndexOutOfRangeError("dimension must be at least 1")
    seen = set()
    rows: dict[tuple[int, int], list[Fraction]] = {}
    for i, j, k, c in constants:
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise IndexOutOfRangeError(f"index out of range in entry ({i}, {j}, {k})")
        if i == j:
            raise IndexOutOfRangeError(f"bracket pair indices must differ, got ({i}, {i})")
        c = Fraction(c)
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        if (i, j, k) in seen:
            raise DuplicateEntryError(f"duplicate structure constant for ({i}, {j}, {k})")
        seen.add((i, j, k))
        row = rows.setdefault((i, j), [ZERO] * dim)
        row[k - 1] = sign * c
    return LieAlgebra(dim, {pair: tuple(v) for pair, v in rows.items()})


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, {})


def direct_sum(*algebras: LieAlgebra) -> LieAlgebra:
    """Block direct sum, concatenating the bases in order."""
    for a in algebras:
        a.require_validated()
    dim = sum(a.dim for a in algebras)
    table = {}
    offset = 0
    for a in algebras:
        for (i, j), v in a.table.items():
            padded = (ZERO,) * offset + v + (ZERO,) * (dim - offset - a.dim)
            table[(i + offset, j + offset)] = padded
        offset += a.dim
    return LieAlgebra(dim, table)


def image_of_bracket(L: LieAlgebra) -> Subspace:
    """The derived algebra g' = span of all [e_i, e_j]."""
    return Subspace(L.dim, L.derived_ints)


def bracket_of_subspaces(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    w = L.ints
    return Subspace(L.dim, linalg.echelon(w(u, v) for u in a.ints for v in b.ints))


def center(L: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}, on the bracket numerators: the row for
    (j, k) holds the coordinate k of [e_i, e_j] at i."""
    n, eqs = L.dim, {}
    for j, column in enumerate(L.ints.column):
        for i, nums in column.items():
            for k, c in nums:
                eqs.setdefault((j, k), [0] * n)[i] = c
    return Subspace(n, linalg.echelon(linalg.kernel(eqs.values(), n)[0]))


def trace_ints(L: LieAlgebra) -> list[int]:
    """The numerators over ``L.ints.den`` of the vector t with tr ad(x) =
    t . x, read off the bracket numerators: t_i = sum_k [e_i, e_k]_k."""
    b = L.ints
    t = [0] * L.dim
    for i, j, nums in b.terms:
        for k, c in nums:
            # [e_i, e_j] = c e_k / den enters tr ad(e_i) when k = j and,
            # as [e_j, e_i] = -c e_k / den, tr ad(e_j) when k = i
            if k == j:
                t[i] += c
            elif k == i:
                t[j] -= c
    return t


def is_unimodular(L: LieAlgebra) -> bool:
    L.require_validated()
    return not any(trace_ints(L))


def is_two_step_solvable(L: LieAlgebra) -> bool:
    """True iff the derived algebra is Abelian (the Abelian case included)."""
    L.require_validated()
    w, derg = L.ints, L.derived_ints
    return not any(any(w(x, y)) for x, y in combinations(derg, 2))


def structure_invariants(L: LieAlgebra) -> Fingerprint:
    L.require_validated()
    return L.fingerprint


def change_basis(L: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Structure constants in the basis f_i = P e_i (P invertible).  With
    P = R / d, P^-1 [P e_i, P e_j] is R^-1 [R e_i, R e_j] / d: one
    elimination (``linalg.solve_ints``) for every pair, on numerators."""
    n, b = L.dim, L.ints
    rows, d = core.clear_matrix(p)
    cols = list(zip(*rows))
    pairs = list(combinations(range(n), 2))
    brackets = [b(cols[i], cols[j]) for i, j in pairs]
    x, den = linalg.solve_ints(rows, [[v[k] for v in brackets] for k in range(n)])
    den *= b.den * d
    return LieAlgebra(n, {(i + 1, j + 1): core.fractions(v, den) for (i, j), v in zip(pairs, zip(*x))})
