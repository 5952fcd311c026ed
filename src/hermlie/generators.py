"""Seeded generators of valid shear data, metrics and bases for testing.

Valid data is built constructively from the normal-form families (the
closure condition is quadratic, so rejection sampling is hopeless) and then
moved to general position by a rational unitary change of basis and an
independent random compatible metric.  Everything is deterministic in the
seed.

The unitary, the basis change, the metric and the mixed family's sampling
run on ``core``'s int numerators, never on Fraction matrix products;
Fractions are formed only for their results.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from . import core, linalg
from .algebra import LieAlgebra, change_basis, direct_sum, make_algebra, abelian
from .errors import ParameterConstraintViolatedError, UnsupportedDimensionError
from .forms import form_from_terms, zero_form
from .hermitian import ComplexStructure, Metric
from .linalg import ONE, ZERO, Matrix
from .normal_forms import (
    Cq,
    KahlerNormalForm,
    SixDNonPureData,
    TypeIINormalForm,
    W_PAIRS,
    kahler_normal_form,
    skt_6d_nonpure_normal_form,
    skt_typeII_normal_form,
    sixd_nonpure_table,
)
from .shear import PreShearData, check_complex_shear, pre_shear_from_bracket

PROFILES = ("nilpotent", "typeI", "typeII", "typeIII", "mixed")
# the profiles built from fixed-size normal forms, and the dimensions they exist in
FIXED_DIMS = {"nilpotent": (4, 6), "typeII": (4, 6), "mixed": (6,)}


def rand_fraction(rng: random.Random, lo: int = -3, hi: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_nonzero_fraction(rng: random.Random, lo: int = -3, hi: int = 3, den: int = 3) -> Fraction:
    while True:
        f = rand_fraction(rng, lo, hi, den)
        if f:
            return f


def _pairs_of(J: ComplexStructure) -> list[tuple[int, int]]:
    """Complex coordinate pairs (a, b) with J e_a = e_b, for pairing-type J."""
    pairs = []
    cols = linalg.transpose(J.matrix)
    for a in range(1, J.dim + 1):
        col = cols[a - 1]
        plus = [i + 1 for i, c in enumerate(col) if c == 1]
        if len(plus) == 1 and plus[0] > a:
            pairs.append((a, plus[0]))
    assert len(pairs) == J.dim // 2, "J is not a basis pairing"
    return pairs


def random_unitary(dim: int, rng: random.Random, pairs=None) -> Matrix:
    """A rational orthogonal matrix commuting with the pairing J.

    Built from complex rotations with rational cosine/sine (parametrised
    points on the circle) and rational phases from Pythagorean triples.
    Each step (x, y, r), x^2 + y^2 = r^2, rotates the rows of its planes in
    one int matrix by (x, -y; y, x) and scales the rest and the denominator by r.
    """
    if pairs is None:
        pairs = [(i, i + 1) for i in range(1, dim, 2)]
    m, den = [[int(i == j) for j in range(dim)] for i in range(dim)], 1
    npairs = len(pairs)
    for _ in range(dim + 2):
        kind = rng.choice(["rotation", "phase"] if npairs > 1 else ["phase"])
        if kind == "rotation":
            p, q = rng.sample(range(npairs), 2)
            t = rand_fraction(rng)
            u, v = t.numerator, t.denominator
            x, y, r = v * v - u * u, 2 * u * v, v * v + u * u
            # real and imaginary slots move together
            planes = [(pairs[p][slot] - 1, pairs[q][slot] - 1) for slot in range(2)]
        else:
            p = rng.randrange(npairs)
            mm = rng.randint(1, 3)
            kk = rng.randint(0, mm)
            x, y, r = mm * mm - kk * kk, 2 * mm * kk, mm * mm + kk * kk
            planes = [(pairs[p][0] - 1, pairs[p][1] - 1)]
        moved = {}
        for i, j in planes:
            moved[i] = [x * a - y * b for a, b in zip(m[i], m[j])]
            moved[j] = [y * a + x * b for a, b in zip(m[i], m[j])]
        m = [moved[i] if i in moved else [r * c for c in row] for i, row in enumerate(m)]
        den *= r
    return tuple(core.fractions(row, den) for row in m)


def random_compatible_metric(dim: int, J: ComplexStructure, rng: random.Random) -> Metric:
    """A random rational positive definite metric with J^T S J = S: the
    J-average of A^T A + I, with A drawn over the denominator 2, so that
    4 (A^T A + I) is an int matrix."""
    # 2 a for a = rand_fraction(rng, -1, 1, 2), with the same two draws
    a = [[rng.randint(-1, 1) * (2 // rng.randint(1, 2)) for _ in range(dim)] for _ in range(dim)]
    s0 = [[c + 4 * (i == j) for j, c in enumerate(row)] for i, row in enumerate(core.mat_mul(list(zip(*a)), a))]
    rows, dj = J.ints
    js = core.mat_mul(list(zip(*rows)), core.mat_mul(s0, rows))
    den = 8 * dj * dj
    return Metric(tuple(core.fractions([dj * dj * x + y for x, y in zip(r, t)], den) for r, t in zip(s0, js)))


def _random_11_form(ell: int, rng: random.Random):
    """Random real invariant two-form on 2*ell local coordinates (ell = 2)."""
    x, y, z, w = (rand_fraction(rng, -2, 2, 2) for _ in range(4))
    return form_from_terms(
        4,
        2,
        [((1, 2), x), ((3, 4), y), ((1, 3), z), ((2, 4), z), ((1, 4), w), ((2, 3), -w)],
    )


def _volume_coefficient(form) -> Fraction:
    """c with form ^ form = c * u^{1234} on four local coordinates: twice
    the Pfaffian of the form's coefficients."""
    a = [form.coeffs.get(pair, ZERO) for pair in ((1, 2), (3, 4), (1, 3), (2, 4), (1, 4), (2, 3))]
    return 2 * (a[0] * a[1] - a[2] * a[3] + a[4] * a[5])


# the (2,0)-form psi0 = (u13 - u24) + i (u14 + u23) on four local coordinates
PSI0_RE = form_from_terms(4, 2, [((1, 3), 1), ((2, 4), -1)])
PSI0_IM = form_from_terms(4, 2, [((1, 4), 1), ((2, 3), 1)])


def _typeII_params(dim: int, rng: random.Random) -> TypeIINormalForm:
    if dim == 4:
        s, ell = 1, 1
    elif dim == 8:
        s, ell = 2, 2
    else:
        s, ell = rng.choice([(2, 1), (1, 2)])
    # a two-dimensional complement carries no room for invariant forms
    # with jointly independent real and imaginary parts
    max_free = 0 if ell == 1 else s
    m_min = max(0, s - max_free)
    m = rng.randint(m_min, s)
    alphas, zs = [], []
    for _ in range(m):
        row = [rand_fraction(rng, -2, 2, 2) for _ in range(2 * ell)]
        if all(c == 0 for c in row):
            row[rng.randrange(2 * ell)] = ONE
        alphas.append(tuple(row))
        zs.append(Cq(rand_fraction(rng, -2, 2, 2), rand_fraction(rng, -2, 2, 2)))
    phis, psis = [], []
    free = s - m
    if free:
        # draw all but the last freely, then balance the volume budget with
        # a final form whose real and imaginary parts stay independent
        budget = ZERO
        zero4 = zero_form(4, 2)
        for _ in range(free - 1):
            re, im = _random_11_form(2, rng), _random_11_form(2, rng)
            c = Cq(rand_fraction(rng, -1, 1, 2), rand_fraction(rng, -1, 1, 2))
            psi_re = PSI0_RE.scale(c.re) - PSI0_IM.scale(c.im)
            psi_im = PSI0_RE.scale(c.im) + PSI0_IM.scale(c.re)
            phis.append((re, im))
            psis.append((psi_re, psi_im))
            budget += (
                _volume_coefficient(re)
                + _volume_coefficient(im)
                - _volume_coefficient(psi_re)
                - _volume_coefficient(psi_im)
            )
        for x in (ONE, Fraction(2), Fraction(3)):
            # re = x u12 + y u34 has volume 2xy; im = u13 + u24 has -2
            y = (2 - budget) / (2 * x)
            re = form_from_terms(4, 2, [((1, 2), x), ((3, 4), y)])
            im = form_from_terms(4, 2, [((1, 3), 1), ((2, 4), 1)])
            trial = TypeIINormalForm(
                s, ell, m,
                alphas=tuple(alphas), zs=tuple(zs),
                phis=tuple(phis) + ((re, im),), psis=tuple(psis) + ((zero4, zero4),),
            )
            try:
                skt_typeII_normal_form(trial)
                return trial
            except ParameterConstraintViolatedError:
                continue
        raise AssertionError("could not balance the invariant-form budget")
    return TypeIINormalForm(
        s, ell, m, alphas=tuple(alphas), zs=tuple(zs), phis=tuple(phis), psis=tuple(psis)
    )


def _typeI_block_algebra(dim: int, rng: random.Random) -> LieAlgebra:
    """Sums of scaled affine blocks, a Heisenberg block, and abelian padding."""
    blocks = []
    remaining = dim
    # at least one nonabelian block
    use_h3 = dim >= 4 and rng.random() < 0.4
    if use_h3:
        blocks.append(make_algebra(4, [(1, 2, 3, 1)]))
        remaining -= 4
    naff = rng.randint(0 if use_h3 else 1, remaining // 2)
    for _ in range(naff):
        lam = rand_nonzero_fraction(rng)
        blocks.append(make_algebra(2, [(1, 2, 1, -lam)]))  # [JX, X] = lam X
        remaining -= 2
    if remaining:
        blocks.append(abelian(remaining))
    rng.shuffle(blocks)
    return direct_sum(*blocks)


def _typeIII_algebra(dim: int, rng: random.Random) -> tuple[LieAlgebra, ComplexStructure]:
    if dim == 4 and rng.random() < 0.5:
        # [JX, Y] = z Y, [JX, X] = b X on (Y, JY, X, JX)
        z = Cq(rand_fraction(rng, -2, 2, 2), rand_fraction(rng, -2, 2, 2))
        if z.is_zero():
            z = Cq(0, 1)
        b = rand_nonzero_fraction(rng)
        L = make_algebra(
            4, [(4, 1, 1, z.re), (4, 1, 2, z.im), (4, 2, 1, -z.im), (4, 2, 2, z.re), (4, 3, 3, b)]
        )
        return L, ComplexStructure.standard(4)
    if dim == 6 and rng.random() < 0.5:
        a = rand_fraction(rng, -2, 2, 2)
        b = rand_fraction(rng, -2, 2, 2)
        if a == 0 and b == 0:
            a = ONE
        c = rand_nonzero_fraction(rng)
        L = make_algebra(
            6,
            [
                (1, 5, 1, -a), (1, 6, 1, -b), (2, 5, 2, -a), (2, 6, 2, -b),
                (3, 5, 3, -c), (4, 5, 4, -c), (3, 6, 4, -c), (4, 6, 3, -c),
            ],
        )
        return L, ComplexStructure.from_pairs(6, [(1, 2), (3, 5), (4, 6)])
    r = dim // 2 - 1
    alpha = [rand_fraction(rng, -2, 2, 2) for _ in range(r)]
    if not any(alpha):
        alpha[0] = ONE
    lambdas = tuple(rand_nonzero_fraction(rng) for _ in range(r))
    L, _, J = kahler_normal_form(KahlerNormalForm("III", 1, r, 0, (tuple(alpha),), ((),), lambdas))
    return L, J


def _mixed_params(rng: random.Random) -> SixDNonPureData:
    # base family: b = (b0, 0, 0, 0) with z0 on the allowed vertical line
    b0 = rand_nonzero_fraction(rng)
    delta0 = rng.randint(0, 1)
    z0 = Cq(-Fraction(delta0) * b0 / 2, rand_fraction(rng, -2, 2, 2))
    if z0.is_zero():
        z0 = Cq(z0.re, ONE)
    z1 = Cq(0, rand_fraction(rng, -2, 2, 2))
    z2 = Cq(0, rand_fraction(rng, -2, 2, 2))
    base = SixDNonPureData(
        b=(b0, ZERO, ZERO, ZERO), deltas=(delta0, 0, 0), z=(z0, z1, z2)
    )
    if rng.random() < 0.5:
        return base
    # sample w from the kernel of the (linear) closure conditions.  The table
    # is affine in w: Re w_c and Im w_c add to the Y and JY coordinates of
    # [u, v] = W_PAIRS[c].  Column t holds the Jacobi sums of the base table
    # with the t-th of (Re w_0, Im w_0, Re w_1, ..) set to 1, over den ** 2
    b = sixd_nonpure_table(base).ints
    table = {(i + 1, j + 1): b.on_basis[(i, j)] for i, j, _ in b.terms}
    cols = []
    for t in range(12):
        u, v = W_PAIRS[t // 2]
        pair = (min(u, v), max(u, v))
        shifted = {**table, pair: list(table.get(pair, [0] * 6))}
        shifted[pair][t % 2] += b.den if u < v else -b.den
        cols.append([c for s in core.jacobi_sums(core.Bilinear(6, shifted)) for c in s])
    kernel, den = linalg.kernel(list(zip(*cols)), 12)
    if not kernel:
        return base
    cs, dc = core.clear([rand_fraction(rng, -2, 2, 2) for _ in kernel])
    wre = core.fractions(core.combine(cs, kernel), dc * den)
    w = tuple(Cq(wre[2 * t], wre[2 * t + 1]) for t in range(6))
    try:
        skt_6d_nonpure_normal_form(SixDNonPureData(base.b, base.deltas, base.z, w))
    except ParameterConstraintViolatedError:
        return base
    return SixDNonPureData(base.b, base.deltas, base.z, w)


def random_complex_shear(
    seed: int, profile: str, dim: int = 6
) -> tuple[PreShearData, Metric, ComplexStructure]:
    """Deterministic valid complex shear data with a compatible metric.

    Profiles pick the construction family; the result is conjugated by a
    random unitary matrix and paired with an independent random compatible
    metric, and always satisfies the closure and integrability equations.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    if dim % 2 or dim < 4:
        raise UnsupportedDimensionError("dimension must be even and at least 4")
    if dim not in FIXED_DIMS.get(profile, (dim,)):
        dims = " and ".join(map(str, FIXED_DIMS[profile]))
        raise UnsupportedDimensionError(f"the {profile} profile exists only in dimension {dims}")
    rng = random.Random((seed, profile, dim).__repr__())

    if profile == "nilpotent":
        s, ell = (1, 1) if dim == 4 else (1, 2)
        params = _typeII_params_nilpotent(s, ell, rng)
        # two-dimensional complements only carry degenerate central data,
        # which the type II constructor rightly rejects; build it anyway
        L, _, J = skt_typeII_normal_form(params, _validate=(ell != 1))
    elif profile == "typeI":
        L, J = _typeI_block_algebra(dim, rng), ComplexStructure.standard(dim)
    elif profile == "typeII":
        L, _, J = skt_typeII_normal_form(_typeII_params(dim, rng))
    elif profile == "typeIII":
        L, J = _typeIII_algebra(dim, rng)
    else:
        Lj = skt_6d_nonpure_normal_form(_mixed_params(rng))
        L, J = Lj

    q = random_unitary(dim, rng, pairs=_pairs_of(J))
    L = change_basis(L, q)
    data = pre_shear_from_bracket(L)
    g = random_compatible_metric(dim, J, rng)
    report = check_complex_shear(data, J)
    assert report.valid, f"generator produced invalid data for {profile}/{dim}/{seed}"
    return data, g, J


def _typeII_params_nilpotent(s: int, ell: int, rng: random.Random) -> TypeIINormalForm:
    """m = 0 data: the derived algebra is central, so the shear is nilpotent."""
    if ell == 1:
        c = Cq(rand_fraction(rng, -2, 2, 2), rand_fraction(rng, -2, 2, 2))
        if c.is_zero():
            c = Cq(1)
        phis = ((form_from_terms(2, 2, [((1, 2), c.re)]),
                 form_from_terms(2, 2, [((1, 2), c.im)])),)
        psis = ((zero_form(2, 2), zero_form(2, 2)),)
        return TypeIINormalForm(s, ell, 0, phis=phis, psis=psis)
    return _typeII_params_forced_m0(s, ell, rng)


def _typeII_params_forced_m0(s: int, ell: int, rng: random.Random) -> TypeIINormalForm:
    assert (s, ell) == (1, 2)
    zero4 = zero_form(4, 2)
    for _ in range(8):
        re = _random_11_form(2, rng)
        im = _random_11_form(2, rng)
        budget = _volume_coefficient(re) + _volume_coefficient(im)
        # psi ^ conj(psi) for c*psi0 has volume coefficient 4|c|^2
        # so we need budget = 4 (cre^2 + cim^2): representable as a sum of
        # two rational squares only sometimes; retry on failure
        target = budget / 4
        if target < 0:
            continue
        # try target = x^2 with rational x
        num, den = target.numerator, target.denominator
        root_num = _isqrt_exact(num * den)
        if root_num is None:
            continue
        x = Fraction(root_num, den)
        c = Cq(x, 0)
        psi_re = PSI0_RE.scale(c.re)
        psi_im = PSI0_IM.scale(c.re)
        params = TypeIINormalForm(
            s, ell, 0, phis=((re, im),), psis=((psi_re, psi_im),)
        )
        try:
            skt_typeII_normal_form(params)
            return params
        except ParameterConstraintViolatedError:
            continue
    # fallback: independent parts, each with zero self-wedge
    re = form_from_terms(4, 2, [((1, 2), 1)])
    im = form_from_terms(4, 2, [((3, 4), 1)])
    assert _volume_coefficient(re) + _volume_coefficient(im) == 0
    return TypeIINormalForm(s, ell, 0, phis=((re, im),), psis=((zero4, zero4),))


def _isqrt_exact(n: int) -> int | None:
    root = isqrt(n) if n >= 0 else -1
    return root if root >= 0 and root * root == n else None
