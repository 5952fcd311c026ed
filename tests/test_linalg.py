from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermlie import core, linalg as la

from conftest import nullspace

Q = Fraction

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def square_matrices(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(la.mat)


@given(square_matrices(3))
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank(m):
    rows, pivots = la.rref(m)
    again, pivots2 = la.rref(rows)
    assert rows == again and pivots == pivots2
    assert len(rows) == la.rank(m) <= 3


@given(square_matrices(3))
@settings(max_examples=60, deadline=None)
def test_nullspace_solves(m):
    for v in nullspace(m):
        assert la.is_zero_vec(la.mat_vec(m, v))
    assert la.rank(m) + len(nullspace(m)) == 3


@given(square_matrices(3), st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_solve_consistency(m, b):
    b = la.vec(b)
    x = la.solve(m, b)
    if x is not None:
        assert la.mat_vec(m, x) == b


@given(square_matrices(3))
@settings(max_examples=60, deadline=None)
def test_det_and_inverse(m):
    d = la.det(m)
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            la.inverse(m)
    else:
        inv = la.inverse(m)
        assert la.mat_mul(m, inv) == la.identity_matrix(3)
        assert la.det(inv) == 1 / d


def test_leading_principal_minors():
    assert list(la.minor_pivots([[2, 1], [1, 2]])) == [2, 3]
    # elimination without row swaps stops at the first zero minor
    assert list(la.minor_pivots([[0, 1], [1, 0]])) == [0]


def coordinates_in(vectors, target):
    """Coefficients expressing ``target`` in the independent ``vectors``, or
    None: the coordinate map's image, kept if it recombines to ``target``."""
    coords = la.mat_vec(la.coordinate_map(vectors), target)
    return coords if la.combination(coords, vectors, len(target)) == la.vec(target) else None


def test_coordinates_in():
    basis = [la.vec([1, 0, 1]), la.vec([0, 1, 0])]
    assert coordinates_in(basis, la.vec([2, 3, 2])) == (Q(2), Q(3))
    assert coordinates_in(basis, la.vec([0, 0, 1])) is None
    assert coordinates_in([], la.vec([0, 0])) == ()
    assert coordinates_in([], la.vec([1, 0])) is None


def test_coordinate_map():
    """A left inverse of a non-orthogonal basis; dependent vectors have none."""
    basis = [la.vec([1, 2, 0, 1]), la.vec([0, 1, "1/3", 0]), la.vec([2, 0, 0, -1])]
    m = la.coordinate_map(basis)
    assert la.mat_mul(m, la.matrix_from_columns(basis)) == la.identity_matrix(3)
    assert la.coordinate_map([]) == ()
    with pytest.raises(ZeroDivisionError):
        la.coordinate_map([la.vec([1, 2]), la.vec([2, 4])])


int_rows = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(-9, 9), min_size=5, max_size=5), min_size=k, max_size=k)
)
int_vectors = st.lists(st.integers(-9, 9), min_size=5, max_size=5)


@given(int_rows, int_vectors, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_projection_coordinates(rows, target, coeffs):
    """The Gram solve gives the coordinate map's image of any target, over
    its least common denominator, and of a target in the rows' span the
    coordinates it was combined from."""
    if la.rank(rows) < len(rows):
        with pytest.raises(ZeroDivisionError):
            la.projection_coordinates(rows, target)
        return
    coeffs = coeffs[: len(rows)]
    spanned = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(5)]
    for t in (target, spanned):
        cs, den = la.projection_coordinates(rows, t)
        assert (cs, den) == core.clear(la.mat_vec(la.coordinate_map(rows), t))
    assert la.vec(Q(c, den) for c in cs) == la.vec(coeffs)


def test_projection_coordinates_without_independent_rows():
    """No rows give no coordinates; dependent rows give none, as for the coordinate map."""
    assert la.projection_coordinates([], [1, 2]) == ([], 1)
    with pytest.raises(ZeroDivisionError):
        la.projection_coordinates([[1, 2], [2, 4]], [1, 0])
