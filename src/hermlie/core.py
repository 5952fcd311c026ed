"""Integer-numerator operator core behind the exact verdicts.

Every rational input of a verdict -- a bracket table, J, a metric, a form --
is cleared once to Python int numerators over one common denominator.  The
operations below multiply numerators only; the denominator of a result is
the product of the input denominators, which the caller tracks when it
needs the value back as a ``Fraction``.  Every verdict is a zero test of
such a homogeneous expression, so the zero tests run on ints alone and no
gcd is taken until a value leaves the core.

Forms are dicts from bitmasks (bit i - 1 set for index i) to numerators;
vectors and matrices are lists of ints, 0-indexed.  Wedges look up the free
slots of each term, and powers are a Pfaffian recursion (``power``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import comb, factorial, lcm
from operator import mul, or_
from typing import Iterator, Sequence

from .errors import DimensionMismatchError


ZERO = Fraction(0)


def clear(values: Sequence) -> tuple[list[int], int]:
    """Numerators of rational ``values`` over their least common denominator."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def clear_matrix(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    den = lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """The rationals nums / den, leaving the core."""
    return tuple(Fraction(c, den) if c else ZERO for c in nums)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in m]


def combine(coeffs: Sequence[int], vectors: Sequence[Sequence[int]]) -> list[int]:
    """sum_i coeffs[i] vectors[i]; ``vectors`` must not be empty."""
    return mat_vec(list(zip(*vectors)), coeffs)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def is_skew(m: Sequence[Sequence[int]]) -> bool:
    return all(m[a][b] == -m[b][a] for a in range(len(m)) for b in range(a, len(m)))


def height(rows: Sequence[Sequence[int]], b: "Bilinear") -> int:
    """max(1, |entries of rows|, |numerators of b|)."""
    return max(1, *(abs(c) for row in rows for c in row), *(abs(c) for _, _, nums in b.terms for _, c in nums))


def unpack(value: int, width: int, count: int) -> list[int]:
    """The digits d_0, .., d_(count-1) of value = sum_i d_i 2^(width i), each
    |d_i| < 2^(width-1): a Kronecker-substituted value read back.  Adding
    2^(width-1) to every digit makes them all nonnegative, so they are the
    plain base-2^width digits of the sum, and nothing may be left above the
    top slot."""
    half, mask = 1 << width - 1, (1 << width) - 1
    shifted = value + half * (((1 << width * count) - 1) // mask)
    assert not shifted >> width * count, "a packed value overflows its slots"
    return [(shifted >> width * i & mask) - half for i in range(count)]


class Bilinear:
    """An alternating bilinear map on Q^n as a sparse table of numerators.

    Built from ``{(i, j): vector}`` with 1-indexed i < j, the shape of both
    a bracket table and a shear two-form.  ``terms`` holds
    ``(i, j, ((k, c), ...))`` with 0-indexed i < j: w(e_i, e_j) has
    coordinate c / den on e_k.  ``column[k]`` maps a to the same sparse form
    of w(e_a, e_k), signs included, and ``de[k]`` lists the terms
    ``(mask, _above_parity(mask), -c)`` of de^k = -sum_{a<b} c_ab^k e^a ^ e^b.
    """

    def __init__(self, dim: int, table: dict):
        den = lcm(*[c.denominator for v in table.values() for c in v])
        terms = []
        for (i, j), v in table.items():
            nums = tuple((k, c.numerator * (den // c.denominator)) for k, c in enumerate(v) if c)
            if nums:
                terms.append((i - 1, j - 1, nums))
        self._index(dim, den, terms)

    def _index(self, dim: int, den: int, terms: list) -> None:
        self.dim, self.den, self.terms = dim, den, terms
        self.column = [{} for _ in range(dim)]
        self.de = [[] for _ in range(dim)]
        for i, j, nums in terms:
            self.column[j][i] = nums
            self.column[i][j] = tuple((k, -c) for k, c in nums)
            for k, c in nums:
                pair = (1 << i) | (1 << j)
                self.de[k].append((pair, _above_parity(pair), -c))

    def table(self) -> dict[tuple[int, int], tuple]:
        """``{(i, j): w(e_i, e_j)}`` with 1-indexed i < j, as Fractions: the
        table the map was built from, without its zero vectors."""
        return {(i + 1, j + 1): fractions(self.on_basis[(i, j)], self.den) for i, j, _ in sorted(self.terms)}

    def negated(self) -> "Bilinear":
        """-w over the same denominator, without clearing a table again."""
        out = Bilinear.__new__(Bilinear)
        out._index(self.dim, self.den, [(i, j, tuple((k, -c) for k, c in nums)) for i, j, nums in self.terms])
        return out

    def __call__(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """Numerators of w(x, y) over den * den(x) * den(y)."""
        out = [0] * self.dim
        for i, j, nums in self.terms:
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, v in nums:
                    out[k] += c * v
        return out

    def with_basis(self, x: Sequence[int], k: int) -> list[int]:
        """Numerators of w(x, e_k) over den * den(x); k is 0-indexed."""
        out = [0] * self.dim
        for a, nums in self.column[k].items():
            xa = x[a]
            if xa:
                for m, v in nums:
                    out[m] += xa * v
        return out

    @cached_property
    def on_basis(self) -> dict[tuple[int, int], list[int]]:
        """Numerators of w(e_i, e_j) over den, for every pair i != j; read
        only by every caller."""
        out = {}
        for i in range(self.dim):
            for j in range(self.dim):
                if i != j:
                    value = out[(i, j)] = [0] * self.dim
                    for k, c in self.column[j].get(i, ()):
                        value[k] = c
        return out

    def rational(self, x: Sequence, y: Sequence) -> tuple:
        """w(x, y) for rational vectors, as Fractions."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError("arguments must match the bilinear map's dimension")
        xs, dx = clear(x)
        ys, dy = clear(y)
        return fractions(self(xs, ys), self.den * dx * dy)


# --- exterior algebra on bitmasks ------------------------------------------


@lru_cache(maxsize=1 << 12)
def bits(mask: int) -> tuple[int, ...]:
    """The 0-indexed set bits of ``mask``, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def mask_of(indices: Sequence[int]) -> int:
    """Bitmask of strictly increasing 1-indexed ``indices``."""
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


@lru_cache(maxsize=1 << 12)
def indices(mask: int) -> tuple[int, ...]:
    """The 1-indexed tuple of ``mask``."""
    return tuple(i + 1 for i in bits(mask))


@lru_cache(maxsize=1 << 12)
def _subsets(free: int, size: int) -> tuple[int, ...]:
    """The masks of the ``size``-subsets of the set bits of ``free``."""
    return tuple(sum(1 << i for i in combo) for combo in combinations(bits(free), size))


@lru_cache(maxsize=1 << 12)
def _above_parity(mask: int) -> int:
    """Bit y set when an odd number of bits of ``mask`` lie above y, so that
    e^a ^ e^b sorts with sign (-1)^popcount(b & _above_parity(a))."""
    return sum(1 << y for y in range(mask.bit_length()) if (mask >> y + 1).bit_count() & 1)


def _wedge(a: dict[int, int], b: dict[int, int], lowest: bool) -> dict[int, int]:
    """sum sign a_P b_R e^(P | R) over disjoint terms, with ``lowest`` only
    where P holds the lowest index.  Each P meets the fewer of the terms of b
    and the deg(b)-subsets of the slots it leaves free, looked up in b."""
    out: dict[int, int] = {}
    size, support = next(iter(b), 0).bit_count(), reduce(or_, b, 0)
    for ma, ca in a.items():
        taken = ma | ((ma & -ma) - 1) if lowest else ma
        free, parity = support & ~taken, _above_parity(ma)
        if comb(free.bit_count(), size) < len(b):
            items = [(mb, b[mb]) for mb in _subsets(free, size) if mb in b]
        else:
            items = [(mb, cb) for mb, cb in b.items() if not mb & taken]
        for mb, cb in items:
            key, v = ma | mb, ca * cb
            out[key] = out.get(key, 0) + (-v if (mb & parity).bit_count() & 1 else v)
    return {k: v for k, v in out.items() if v}


def wedge(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Numerators over den(a) * den(b)."""
    return _wedge(a, b, False)


def power(a: dict[int, int], k: int) -> dict[int, int]:
    """a^k with the empty wedge {0: 1}; numerators over den(a)**k.

    For even degree a^k = k! sum_I F(I) e^I, where F(I) sums sign a_P F(I - P)
    over the terms P holding the lowest index of I, so each set of k disjoint
    terms is counted once; for a two-form F(I) = Pf(a_I).
    """
    if 0 in a:  # a number, with no lowest index to recurse on
        return {0: a[0] ** k}
    if k > 1 and any(m.bit_count() & 1 for m in a):  # a ^ a = 0 at odd degree
        return {}
    f = {m: c for m, c in a.items() if c} if k else {0: 1}
    for _ in range(k - 1):
        f = _wedge(a, f, True)
    return {m: factorial(k) * c for m, c in f.items()}


def pullback(rows: Sequence[Sequence[int]], form: dict[int, int]) -> dict[int, int]:
    """(J^* b)(x_1, .., x_k) = b(J x_1, .., J x_k), numerators over den(b) * den(J)**k.

    ``rows`` is the numerator matrix of J; J^* e^i is its i-th row.  The form
    is split by lowest index, b = sum_i e^i ^ b_i, so that
    J^* b = sum_i J^* e^i ^ J^* b_i.
    """
    groups: dict[int, dict[int, int]] = {}
    for mask, c in form.items():
        if not mask:
            return dict(form)
        low = mask & -mask
        groups.setdefault(low, {})[mask ^ low] = c
    out: dict[int, int] = {}
    for low, rest in groups.items():
        tail = pullback(rows, rest)
        row = rows[low.bit_length() - 1]
        for j, r in enumerate(row):
            if not r:
                continue
            bit = 1 << j
            below = bit - 1
            for mask, c in tail.items():
                if mask & bit:
                    continue
                key = mask | bit
                term = r * c
                out[key] = out.get(key, 0) + (-term if (mask & below).bit_count() & 1 else term)
    return {k: v for k, v in out.items() if v}


# --- the Lie algebra operators: Jacobi sums and the differential -----------


def jacobi_sums(b: Bilinear) -> Iterator[list[int]]:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] for i < j < k, in
    lexicographic order, as numerators over den**2."""
    n, column = b.dim, b.column
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                out = [0] * n
                # [e_x, e_y] = column[y][x]; each term is [[e_x, e_y], e_z]
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c in column[y].get(x, ()):
                        for t, v in column[z].get(m, ()):
                            out[t] += c * v
                yield out


def differential(b: Bilinear, form: dict[int, int]) -> dict[int, int]:
    """d of a left-invariant form, numerators over den(form) * b.den.

    Leibniz on basis monomials: d(e^I) = sum_t (-1)^t de^{I_t} ^ e^{I - I_t}.
    """
    de = b.de
    out: dict[int, int] = {}
    for mask, c in form.items():
        for t, m in enumerate(bits(mask)):
            rest = mask ^ (1 << m)
            for pair, parity, v in de[m]:
                if rest & pair:
                    continue
                flips = t + (rest & parity).bit_count()
                key = rest | pair
                out[key] = out.get(key, 0) + (-c * v if flips & 1 else c * v)
    return {k: v for k, v in out.items() if v}


def is_closed(b: Bilinear, form: dict[int, int]) -> bool:
    """Whether ``differential(b, form)`` is zero, one output coefficient at a
    time, stopping at the first nonzero one.

    On basis vectors, d a(e_0, .., e_k) = sum_{p<q} (-1)^(p+q)
    a([e_p, e_q], e_0, .., ^p, .., ^q, .., e_k), and a(e_t, e_R) is the
    coefficient of a on R + t, signed by the count of R below t.  A closed
    form pays for every output, so a sparse form or bracket, whose whole
    ``differential`` costs less, is tested by that instead.
    """
    if not form:
        return True
    n, k = b.dim, next(iter(form)).bit_count()
    # Leibniz reads about len(form) k T / n entries of the de^m, which hold
    # T in all; every output together has C(n, k+1) C(k+1, 2) pairs
    if len(form) * k * sum(map(len, b.de)) < n * comb(n, k + 1) * comb(k + 1, 2):
        return not differential(b, form)
    column = b.column
    for out in _subsets((1 << n) - 1, k + 1):
        total = 0
        for (p, x), (q, y) in combinations(enumerate(bits(out)), 2):
            nums = column[y].get(x)  # [e_x, e_y]
            if not nums:
                continue
            rest, acc = out ^ (1 << x) ^ (1 << y), 0
            for t, c in nums:
                bit = 1 << t
                if not rest & bit and (a := form.get(rest | bit)):
                    acc += -c * a if (rest & (bit - 1)).bit_count() & 1 else c * a
            total += -acc if (p + q) & 1 else acc
        if total:
            return False
    return True
