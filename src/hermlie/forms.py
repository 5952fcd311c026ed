"""Alternating forms on Q^n and the Chevalley-Eilenberg differential.

A k-form stores coefficients on strictly increasing index tuples in the
determinant convention: (e^1 ^ e^2)(e_1, e_2) = 1.  The differential of a
left-invariant form is determined by the bracket alone, via

    d a(X_0,..,X_k) = sum_{i<j} (-1)^{i+j} a([X_i,X_j], X_0,..,^i,..,^j,..,X_k)

which on 1-forms gives de^i(e_j, e_k) = -e^i([e_j, e_k]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import core, linalg
from .algebra import LieAlgebra, Subspace
from .errors import DimensionMismatchError, IndexOutOfRangeError
from .linalg import ZERO, Matrix, Vector


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the permutation sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


@dataclass(frozen=True)
class KForm:
    dim: int
    degree: int
    coeffs: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, c in self.coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            if len(idx) != self.degree:
                raise DimensionMismatchError(f"index tuple {idx} has wrong length")
            if any(not 1 <= i <= self.dim for i in idx):
                raise IndexOutOfRangeError(f"index tuple {idx} out of range")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise IndexOutOfRangeError(f"index tuple {idx} is not increasing")
            clean[tuple(idx)] = c
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    @staticmethod
    def from_ints(dim: int, degree: int, nums: Mapping[int, int], den: int) -> "KForm":
        """The form with coefficient nums[mask] / den on each core bitmask."""
        form = object.__new__(KForm)
        object.__setattr__(form, "dim", dim)
        object.__setattr__(form, "degree", degree)
        coeffs = sorted((core.indices(m), Fraction(c, den)) for m, c in nums.items() if c)
        object.__setattr__(form, "coeffs", dict(coeffs))
        return form

    @cached_property
    def ints(self) -> tuple[dict[int, int], int]:
        """Numerators on core bitmasks over one common denominator."""
        nums, den = core.clear(list(self.coeffs.values()))
        return {core.mask_of(idx): c for idx, c in zip(self.coeffs, nums)}, den

    def __eq__(self, other):
        return (
            isinstance(other, KForm)
            and (self.dim, self.degree) == (other.dim, other.degree)
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "KForm") -> "KForm":
        self._check_like(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, ZERO) + c
        return KForm(self.dim, self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(-1)

    def __neg__(self) -> "KForm":
        return self.scale(-1)

    def scale(self, c) -> "KForm":
        c = Fraction(c)
        return KForm(self.dim, self.degree, {idx: c * v for idx, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, *indices: int) -> Fraction:
        idx, sign = _sort_with_sign(indices)
        if sign == 0:
            return ZERO
        return sign * self.coeffs.get(idx, ZERO)

    def coefficient_vector(self) -> tuple[Fraction, ...]:
        """Coefficients on all increasing tuples, in lexicographic order."""
        return tuple(
            self.coeffs.get(idx, ZERO)
            for idx in combinations(range(1, self.dim + 1), self.degree)
        )

    def _check_like(self, other: "KForm"):
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise DimensionMismatchError("forms live on different spaces or degrees")

    def __repr__(self):
        if not self.coeffs:
            return f"KForm({self.dim}, {self.degree}, 0)"
        parts = [f"{c}*e^{''.join(map(str, idx))}" for idx, c in self.coeffs.items()]
        return f"KForm({self.dim}, {self.degree}, {' + '.join(parts)})"


def zero_form(dim: int, degree: int) -> KForm:
    return KForm(dim, degree, {})


def basis_form(dim: int, *indices: int) -> KForm:
    """e^{i1} ^ ... ^ e^{ik} for arbitrary (possibly unsorted) indices."""
    idx, sign = _sort_with_sign(indices)
    if sign == 0:
        return zero_form(dim, len(indices))
    return KForm(dim, len(indices), {idx: Fraction(sign)})


def form_from_terms(dim: int, degree: int, terms: Iterable[tuple[Sequence[int], object]]) -> KForm:
    acc: dict[tuple[int, ...], Fraction] = {}
    for indices, c in terms:
        idx, sign = _sort_with_sign(indices)
        if sign == 0:
            continue
        acc[idx] = acc.get(idx, ZERO) + sign * Fraction(c)
    return KForm(dim, degree, acc)


def wedge(a: KForm, b: KForm) -> KForm:
    if a.dim != b.dim:
        raise DimensionMismatchError("wedge factors live on different spaces")
    (na, da), (nb, db) = a.ints, b.ints
    return KForm.from_ints(a.dim, a.degree + b.degree, core.wedge(na, nb), da * db)


def form_power(a: KForm, k: int) -> KForm:
    if a.degree * k > a.dim:
        return zero_form(a.dim, a.degree * k)
    nums, den = a.ints
    return KForm.from_ints(a.dim, a.degree * k, core.power(nums, k), den**k)


def evaluate(form: KForm, vectors: Sequence[Sequence]) -> Fraction:
    """Alternating multilinear evaluation, via k x k minors."""
    if len(vectors) != form.degree:
        raise DimensionMismatchError(
            f"degree {form.degree} form applied to {len(vectors)} vectors"
        )
    vecs = [linalg.vec(v) for v in vectors]
    for v in vecs:
        if len(v) != form.dim:
            raise DimensionMismatchError("vector length does not match the form's space")
    if form.degree == 0:
        return form.coeffs.get((), ZERO)
    total = ZERO
    for idx, c in form.coeffs.items():
        minor = tuple(tuple(v[i - 1] for v in vecs) for i in idx)
        total += c * linalg.det(minor)
    return total


def ce_differential(L: LieAlgebra, form: KForm) -> KForm:
    """Exterior derivative of a left-invariant form, from the bracket table."""
    if form.dim != L.dim:
        raise DimensionMismatchError("form and algebra dimensions differ")
    nums, den = form.ints
    return KForm.from_ints(L.dim, form.degree + 1, core.differential(L.ints, nums), den * L.ints.den)


def j_pullback(j_matrix: Matrix, form: KForm) -> KForm:
    """(J^* b)(x_1,..,x_k) = b(J x_1,..,J x_k), with no extra sign factor."""
    if form.degree == 0:
        return form
    if len(j_matrix) != form.dim:
        raise DimensionMismatchError("endomorphism and form dimensions differ")
    rows, dj = core.clear_matrix(j_matrix)
    nums, den = form.ints
    return KForm.from_ints(form.dim, form.degree, core.pullback(rows, nums), den * dj**form.degree)


class VectorValuedTwoForm:
    """An alternating bilinear map on Q^n with values in a target subspace.

    ``values[(i, j)]`` with i < j holds the vector w(e_i, e_j); this mirrors
    a bracket table, which is exactly how shear two-forms arise.  A form
    built ``from_ints`` forms its values only when something reads them.
    """

    def __init__(self, dim: int, target: Subspace, values: dict[tuple[int, int], Sequence]):
        if target.ambient_dim != dim:
            raise DimensionMismatchError("target subspace has the wrong ambient dimension")
        self.dim = dim
        self.target = target
        self.values = {}
        for (i, j), v in sorted(values.items()):
            if not (1 <= i < j <= dim):
                raise IndexOutOfRangeError(f"bad pair ({i}, {j})")
            v = linalg.vec(v)
            if len(v) != dim:
                raise DimensionMismatchError("value vector has the wrong length")
            if not linalg.is_zero_vec(v):
                self.values[(i, j)] = v

    @staticmethod
    def from_ints(target: Subspace, b: core.Bilinear) -> "VectorValuedTwoForm":
        """The form whose numerators are ``b``, into a ``target`` of b's dimension."""
        form = VectorValuedTwoForm.__new__(VectorValuedTwoForm)
        form.dim, form.target, form.ints = b.dim, target, b
        return form

    @cached_property
    def values(self) -> dict[tuple[int, int], Vector]:
        """The values of a form built ``from_ints``."""
        return self.ints.table()

    def __eq__(self, other):
        return (
            isinstance(other, VectorValuedTwoForm)
            and (self.dim, self.target, self.values) == (other.dim, other.target, other.values)
        )

    @cached_property
    def ints(self) -> core.Bilinear:
        """The values as integer numerators over one denominator."""
        return core.Bilinear(self.dim, self.values)

    def __call__(self, x: Sequence, y: Sequence) -> Vector:
        return self.ints.rational(x, y)

    def image(self) -> Subspace:
        return Subspace.span(self.dim, list(self.values.values()))
