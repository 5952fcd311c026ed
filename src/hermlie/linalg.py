"""Exact linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction``, matrices are tuples of row
tuples.  Everything here is pure.  Products and eliminations clear each
row's denominators once and run on Python ints (``hermlie.core``):
``rref``, ``solve``, ``inverse`` and ``det`` are fraction-free Bareiss
eliminations (E. H. Bareiss, Math. Comp. 22, 1968), and the canonical
Fraction results are formed only at the end.
``echelon``, ``kernel``, ``solve_ints`` and ``minor_pivots`` (the leading
principal minors) are the same eliminations on int rows, for callers that
stay on numerators; ``coordinate_map`` maps a basis's span to coordinates in
it, and ``projection_coordinates`` gives one target's projection coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from . import core

Q = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]


def vec(entries: Iterable) -> Vector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def add_vec(u: Sequence, v: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub_vec(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def neg_vec(u: Sequence) -> Vector:
    return tuple(-a for a in u)


def combination(coeffs: Sequence, vectors: Sequence[Sequence], dim: int) -> Vector:
    """sum_i coeffs[i] vectors[i] in Q^dim."""
    if not vectors:
        return zero_vec(dim)
    cs, dc = core.clear(coeffs)
    rows, dv = core.clear_matrix(vectors)
    return core.fractions(core.combine(cs, rows), dc * dv)


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Matrix, v: Sequence) -> Vector:
    if not m:
        return ()
    if len(v) != len(m[0]):
        raise ValueError("matrix and vector sizes differ")
    mi, dm = core.clear_matrix(m)
    vi, dv = core.clear(v)
    return core.fractions(core.mat_vec(mi, vi), dm * dv)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return tuple(() for _ in a)
    if len(a[0]) != len(b):
        raise ValueError("matrix sizes differ")
    ai, da = core.clear_matrix(a)
    bi, db = core.clear_matrix(b)
    den = da * db
    return tuple(core.fractions(row, den) for row in core.mat_mul(ai, bi))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(add_vec(r, s) for r, s in zip(a, b, strict=True))


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in r) for r in a)


def matrix_from_columns(cols: Sequence[Sequence]) -> Matrix:
    return transpose(tuple(vec(c) for c in cols))


def is_zero_matrix(m: Matrix) -> bool:
    return all(is_zero_vec(r) for r in m)


def _bareiss(work: list[list[int]]) -> tuple[int, list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an int matrix, in place.

    Returns (den, pivots, sign): the first len(pivots) rows divided by den
    are the reduced echelon rows and the rest are zero; for a nonsingular
    square matrix, sign * den is its determinant.  Every update
    (p a_ik - a_ij a_rk) / prev divides exactly, because every entry is a
    minor of the input.
    """
    nrows = len(work)
    pivots: list[int] = []
    prev, sign = 1, 1
    for col in range(len(work[0]) if work else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            sign = -sign
        prow = work[r]
        p = prow[col]
        for i, row in enumerate(work):
            f = row[col]
            if i != r and (f or p != prev):
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        prev = p
        pivots.append(col)
    return prev, pivots, sign


def rref(rows: Iterable[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.

    Returns the canonical nonzero rows and the pivot column indices; the
    result is a canonical representative of the row space.  Each row is
    scaled by its own common denominator first, which keeps the row space.
    """
    work = [core.clear(vec(r))[0] for r in rows]
    if not work:
        return (), ()
    den, pivots, _ = _bareiss(work)
    return tuple(core.fractions(row, den) for row in work[: len(pivots)]), tuple(pivots)


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows)[0])


def echelon(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Primitive reduced-echelon basis of the row space of int rows.

    Each row is a reduced echelon row scaled to coprime int entries with a
    positive pivot, its first nonzero entry; rows come in pivot order.
    """
    work = [list(r) for r in rows]
    _, pivots, _ = _bareiss(work)
    return tuple(_primitive(row) for row in work[: len(pivots)])


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """``row`` divided by the gcd of its entries, first nonzero entry positive."""
    d = gcd(*row)
    if next(c for c in row if c) < 0:
        d = -d
    return tuple(c // d for c in row)


def kernel(rows: Iterable[Sequence[int]], ncols: int) -> tuple[list[list[int]], int]:
    """Basis of {x : M x = 0} for an int matrix with ``ncols`` columns, in
    reduced echelon convention: one int vector per free column, all over
    the returned denominator."""
    work = [list(r) for r in rows]
    den, pivots, _ = _bareiss(work)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [0] * ncols
        x[fc] = den
        for row, pc in zip(work, pivots):
            x[pc] = -row[fc]
        basis.append(x)
    return basis, den


def solve(m: Matrix, b: Sequence) -> Vector | None:
    """One exact solution of M x = b, or None if inconsistent."""
    rows = [list(r) + [bb] for r, bb in zip(m, vec(b), strict=True)]
    reduced, pivots = rref(rows)
    ncols = len(m[0]) if m else 0
    x = [ZERO] * ncols
    for row, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
        x[pc] = row[ncols]
    return tuple(x)


def det(m: Matrix) -> Fraction:
    work, scale = [], 1
    for r in m:
        nums, den = core.clear(vec(r))
        work.append(nums)
        scale *= den
    den, pivots, sign = _bareiss(work)
    return Fraction(sign * den, scale) if len(pivots) == len(m) else ZERO


def inverse(m: Matrix) -> Matrix:
    rows = [core.clear(vec(r)) for r in m]  # m X = I is A X = diag(d) for rows A_i = d_i m_i
    x, den = solve_ints([r for r, _ in rows], [[d * (i == j) for j in range(len(m))] for i, (_, d) in enumerate(rows)])
    return tuple(core.fractions(row, den) for row in x)


def solve_ints(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """X with A X = B for a nonsingular square int matrix A and an int
    matrix B, as int numerators over the returned denominator: one
    fraction-free elimination of [A | B]."""
    n = len(a)
    work = [list(r) + list(s) for r, s in zip(a, b, strict=True)]
    den, pivots, _ = _bareiss(work)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in work], den


def minor_pivots(rows: Sequence[Sequence[int]]) -> Iterator[int]:
    """The leading principal minors of a square int matrix, in order, as the
    pivots of one Bareiss elimination without row swaps.

    Elimination without swaps cannot pass a zero pivot, so the minors stop
    after the first zero one.  ``rows`` is left as it is.
    """
    work = [list(r) for r in rows]
    n = len(work)
    prev = 1
    for k in range(n):
        prow = work[k]
        p = prow[k]
        yield p
        if not p:
            return
        for i in range(k + 1, n):
            row = work[i]
            f = row[k]
            if f or p != prev:
                for j in range(k + 1, n):
                    row[j] = (p * row[j] - f * prow[j]) // prev
        prev = p


def coordinate_map(vectors: Sequence[Sequence]) -> Matrix:
    """The exact left inverse (B^T B)^-1 B^T of the independent ``vectors``,
    the columns of B: it sends each vector of their span to its coordinates
    in them.  One elimination of [V V^T | V] on the numerators V of B^T."""
    rows, den = core.clear_matrix(vectors)
    x, d = solve_ints(core.mat_mul(rows, list(zip(*rows))), rows)
    return tuple(core.fractions([den * c for c in row], d) for row in x)


def projection_coordinates(rows: Sequence[Sequence[int]], target: Sequence[int]) -> tuple[list[int], int]:
    """The coordinates (V V^T)^-1 V t, in the independent int ``rows`` V, of the int ``target`` t's projection
    onto their span, as numerators over their least common denominator: one elimination of [V V^T | V t]."""
    x, den = solve_ints(core.mat_mul(rows, list(zip(*rows))), [[core.dot(v, target)] for v in rows])
    g = gcd(den, *(c for c, in x))
    return [c // g for c, in x], den // g
