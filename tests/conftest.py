import random
from fractions import Fraction

import pytest

from hermlie import algebra as al
from hermlie import core
from hermlie import linalg as la
from hermlie.generators import FIXED_DIMS, PROFILES
from hermlie.hermitian import ComplexStructure, Metric
from hermlie.salamon import parse_salamon

Q = Fraction
# every generator profile at every dimension from 4 to 10 that it exists in
BUILDABLE = [
    (dim, profile) for dim in (4, 6, 8, 10) for profile in PROFILES
    if dim in FIXED_DIMS.get(profile, (dim,))
]


@pytest.fixture(scope="session")
def aff():
    return parse_salamon("(0,21)")


@pytest.fixture(scope="session")
def h3():
    return parse_salamon("(0,0,21)")


@pytest.fixture(scope="session")
def cx_type_I():
    """aff + heis3 + R: [e1,e2] = e2, [e3,e4] = e5."""
    return parse_salamon("(0,21,0,0,43,0)")


@pytest.fixture(scope="session")
def cx_type_III():
    return parse_salamon("(-15+16,-25+26,2.(35+46),2.(36+45),0,0)")


@pytest.fixture(scope="session")
def j_std6():
    return ComplexStructure.standard(6)


@pytest.fixture(scope="session")
def j_type_III():
    return ComplexStructure.from_pairs(6, [(1, 2), (3, 5), (4, 6)])


@pytest.fixture(scope="session")
def g_identity6():
    return Metric.identity(6)


@pytest.fixture(scope="session")
def ghat_type_I():
    frame = [
        (1, 0, 0, 0, 0, -1),
        (0, 1, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
    ]
    return Metric.from_orthonormal_frame(frame)


@pytest.fixture(scope="session")
def ghat_type_III():
    frame = [
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 1, 1, 0, 0),
        (0, 0, 0, 0, 1, 1),
    ]
    return Metric.from_orthonormal_frame(frame)


def unit_vec(n, i):
    """Standard basis vector e_i, 1-indexed."""
    return tuple(Q(int(j == i - 1)) for j in range(n))


def scale_vec(c, u):
    c = Q(c)
    return tuple(c * a for a in u)


def random_table(rng: random.Random, dim: int, entries: int):
    """A random (usually Jacobi-violating) sparse bracket table."""
    seen = set()
    constants = []
    for _ in range(entries):
        i = rng.randint(1, dim - 1)
        j = rng.randint(i + 1, dim)
        k = rng.randint(1, dim)
        if (i, j, k) in seen:
            continue
        seen.add((i, j, k))
        constants.append((i, j, k, Q(rng.randint(-2, 2), rng.randint(1, 2))))
    return al.make_algebra(dim, constants)


def nijenhuis(L, J, x, y):
    """N(x,y) = [Jx,Jy] - J[Jx,y] - J[x,Jy] - [x,y] in Fractions: the
    reference for the integer loop of ``validate_complex_structure``."""
    jx, jy = J.apply(x), J.apply(y)
    out = L.bracket(jx, jy)
    out = la.sub_vec(out, J.apply(L.bracket(jx, y)))
    out = la.sub_vec(out, J.apply(L.bracket(x, jy)))
    return la.sub_vec(out, L.bracket(x, y))


def bracket_basis(L, i, j):
    """[e_i, e_j] for 1-indexed i, j, read off the stored table: the
    Fraction reference for the bracket numerators."""
    if i == j:
        return la.zero_vec(L.dim)
    if i < j:
        return L.table.get((i, j), la.zero_vec(L.dim))
    return la.neg_vec(L.table.get((j, i), la.zero_vec(L.dim)))


def nullspace(m):
    """Basis of {x : M x = 0} for a rational matrix, in reduced echelon
    convention, as Fractions: ``linalg.kernel`` on the cleared rows."""
    m = [la.vec(r) for r in m]
    ncols = len(m[0]) if m else 0
    basis, den = la.kernel([core.clear(r)[0] for r in m], ncols)
    return tuple(core.fractions(x, den) for x in basis)


def commuting_part(J, a):
    """P = (A - J A J) / 2, which commutes with J, for an int matrix A."""
    a = la.mat(a)
    jaj = la.mat_mul(J.matrix, la.mat_mul(a, J.matrix))
    return la.mat_scale(Q(1, 2), la.mat_add(a, la.mat_scale(-1, jaj)))


def commuting_change(J, rng):
    """An invertible ``commuting_part`` of an int A drawn from rng; not
    unitary in general."""
    n = J.dim
    while True:
        p = commuting_part(J, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if la.det(p):
            return p
