"""The reproducibility harness: every acceptance criterion as a function.

Each criterion returns a details dict and raises AssertionError with a
description on failure; the runner times them and produces one line per
criterion.  All expected values are exact; the search criterion also
bounds its Newton steps and its wall time.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import algebra as al
from . import linalg
from .algebra import Subspace, bracket_of_subspaces, intersect
from .catalog import verify_catalog, witness_lists
from .documents import matrix_doc
from .errors import InvalidMetricError, ParameterConstraintViolatedError
from .forms import basis_form, ce_differential, form_from_terms, j_pullback, wedge
from .generators import (
    PROFILES,
    _typeII_params,
    rand_fraction,
    rand_nonzero_fraction,
    random_complex_shear,
)
from .hermitian import (
    KINDS,
    ComplexStructure,
    Metric,
    balanced_structural,
    classify_metric,
    condition_kernel,
    coordinates,
    fingerprint_distinguish,
    fundamental_form,
    hermitian_decomposition,
    kahler_from_skt_and_balanced_typeII,
    kernel_span,
    metric_at,
    normalize_skt_typeII,
)
from .normal_forms import (
    KahlerNormalForm,
    TypeIINormalForm,
    kahler_normal_form,
    skt_typeII_normal_form,
)
from .salamon import parse_salamon
from .search import MAX_ITERATIONS, _solve, check_certificate, search_kernel, search_metric
from .shear import build_shear, shear_condition, shear_kernel

Q = Fraction

# the size of each randomised criterion
ORACLE_SEEDS_PER_CELL = 56  # criterion 3: seeds per (profile, dimension)
STRUCTURAL_INSTANCES = 200  # criterion 4
KAHLER_DRAWS_PER_TYPE = 100  # criterion 5: per pure type
TYPEII_DRAWS = 100  # criterion 6: built, and again perturbed
PIPELINE_DRAWS = 5  # criterion 8: per algebra
SPECIAL_PAIR_DRAWS = 500  # criterion 10


def _counterexample(name: str):
    """(L, J, standard metric, tilted metric) of a catalog counterexample."""
    entry = next(e for e in witness_lists() if e.name == name)
    standard, tilted = (w.metric for w in entry.witnesses)
    return entry.algebra, entry.J, standard, tilted


def _searched_for(L, J) -> dict:
    """The search certifies that no Kahler metric is compatible with J and
    finds certified SKT and balanced ones; the certificate is re-checked
    exactly here, on a fresh kernel, whatever the search reported."""
    kahler = search_metric(L, J, "kahler")
    assert kahler.status == "none", f"Kahler search: {kahler.status}, not a certified none"
    assert check_certificate(L, J, "kahler", kahler.certificate), "certificate fails the exact check"
    for kind in ("skt", "balanced"):
        result = search_metric(L, J, kind)
        assert result.status == "found" and result.exact_verified, f"{kind} search: {result.status}"
    return {"no_kahler_certificate": matrix_doc(kahler.certificate)}


def criterion_counterexample_type_I() -> dict:
    """Type I structure with both special metrics and no closed form."""
    L, J, g_std, g_tilt = _counterexample("aff_R + h_3 + R")
    sigma = fundamental_form(L, g_std, J)
    dsigma = ce_differential(L, sigma)
    assert dsigma == basis_form(6, 3, 4, 6).scale(-1), "d sigma differs from -e^346"
    assert ce_differential(L, j_pullback(J.matrix, dsigma)).is_zero(), "torsion condition fails"
    v_std = classify_metric(L, g_std, J)
    assert v_std.as_dict() == {"kahler": False, "balanced": False, "skt": True}
    sigma_hat = fundamental_form(L, g_tilt, J)
    assert ce_differential(L, wedge(sigma_hat, sigma_hat)).is_zero(), "d(sigma^2) != 0"
    v_tilt = classify_metric(L, g_tilt, J)
    assert v_tilt.as_dict() == {"kahler": False, "balanced": True, "skt": False}
    aff = parse_salamon("(0,21)")
    for r in (1, 2, 3):
        blocks = [aff] * r
        if 6 - 2 * r:
            blocks.append(al.abelian(6 - 2 * r))
        other = al.direct_sum(*blocks)
        assert fingerprint_distinguish(L, other) == "distinct", f"not separated from {r} affine blocks"
    return {"standard": v_std.as_dict(), "tilted": v_tilt.as_dict(), **_searched_for(L, J)}


def criterion_counterexample_type_III() -> dict:
    """Type III structure with both special metrics and no closed form."""
    L, J, g_std, g_tilt = _counterexample("N_{6,1}-type counterexample")
    v_std = classify_metric(L, g_std, J)
    assert v_std.skt and not v_std.kahler, "standard metric verdicts wrong"
    v_tilt = classify_metric(L, g_tilt, J)
    assert v_tilt.balanced and not v_tilt.kahler, "tilted metric verdicts wrong"
    dec = hermitian_decomposition(L, g_std, J)
    assert dec.pure_type == "III" and dec.s == 1, f"decomposition {dec.s, dec.r, dec.ell}"
    return {
        "standard": v_std.as_dict(),
        "tilted": v_tilt.as_dict(),
        "decomposition": [dec.s, dec.r, dec.ell],
        **_searched_for(L, J),
    }


def criterion_oracle_equivalence() -> dict:
    """The shear-data equations equal the direct route: their kernels of
    every kind have equal echelon forms, so equal spans, and all three
    verdicts agree on the generated metric and, on seeds 0-13 of each cell,
    on a metric drawn from the exact balanced kernel.  The generated metrics
    are never balanced; drawing on 14 seeds per cell gives both verdicts."""
    rng, kernel_dims, verdicts = random.Random("oracle"), Counter(), Counter()
    dims = {p: (6,) if p == "mixed" else (4, 6) for p in PROFILES}
    cells = [(p, dim, seed) for p in PROFILES for dim in dims[p] for seed in range(ORACLE_SEEDS_PER_CELL)]
    for profile, dim, seed in cells:
        data, g, J = random_complex_shear(seed, profile, dim)
        L, where = build_shear(data), f"{profile}/{dim}/seed {seed}"
        kernels = {kind: condition_kernel(L, J, kind) for kind in KINDS}
        for kind, kernel in kernels.items():
            assert kernel_span(shear_kernel(data, J, kind)) == kernel_span(kernel), f"kernel mismatch: {where}/{kind}"
            kernel_dims[f"{kind} {len(kernel)}"] += 1
        source = _kernel_source(L, J, "balanced", kernels["balanced"]) if seed < 14 else None
        for metric in (g,) if source is None else (g, _kernel_metric(source, rng)):
            v = classify_metric(L, metric, J)
            for kind in KINDS:
                got = shear_condition(data, metric, J, kind)
                assert got == v[kind], f"oracle mismatch: {where}/{kind}: data equation {got}, differential {v[kind]}"
            verdicts["+".join(kind for kind in KINDS if v[kind]) or "none"] += 1
    assert len(cells) >= 500 and {"balanced" in key for key in verdicts} == {True, False}, verdicts
    return {"instances": len(cells), "kernel_dims": dict(sorted(kernel_dims.items())),
            "verdicts": dict(sorted(verdicts.items()))}


def criterion_balanced_structural() -> dict:
    """Trace/commutator criterion agrees with d(sigma^{n-1}) = 0."""
    rng = random.Random("balanced-structural")
    profiles = [p for p in PROFILES]
    checked = 0
    balanced_seen = 0
    seed = 0
    balanced_pool = [
        (e.algebra, w.metric, e.J)
        for e in witness_lists()
        for w in e.witnesses
        if w.expected["balanced"]
    ]

    def check(L, g, J):
        nonlocal checked, balanced_seen
        direct = classify_metric(L, g, J).balanced
        report = balanced_structural(L, g, J)
        assert report.balanced == direct, f"structural criterion mismatch at instance {checked}"
        # basis independence: a different unitary basis must not change it
        dec = hermitian_decomposition(L, g, J)
        order_vr = list(range(dec.V_r.dim))
        order_vj = list(range(dec.V_J.dim))
        rng.shuffle(order_vr)
        rng.shuffle(order_vj)
        report2 = balanced_structural(L, g, J, order_vr=order_vr, order_vj=order_vj)
        # C and all three flags, not only the verdict: none depends on the basis
        assert report2 == report, f"basis dependence at instance {checked}"
        balanced_seen += int(direct)
        checked += 1

    while checked < STRUCTURAL_INSTANCES:
        if checked % 4 == 3:
            L, g, J = balanced_pool[checked % len(balanced_pool)]
            check(L, g, J)
            continue
        profile = profiles[checked % len(profiles)]
        dim = 6 if profile == "mixed" else (4, 6)[checked % 2]
        data, g, J = random_complex_shear(seed, profile, dim)
        seed += 1
        check(build_shear(data), g, J)
    assert balanced_seen > 0, "no balanced instance was exercised"
    return {"instances": checked, "balanced_instances": balanced_seen}


def _random_kahler_params(pure_type: str, rng: random.Random) -> KahlerNormalForm:
    if pure_type == "I":
        r = rng.randint(1, 3)
        ell = rng.randint(0, 3 - r)
        s = 0
    elif pure_type == "II":
        s = rng.randint(1, 2)
        ell = rng.randint(1, 3 - s)
        r = 0
    else:
        s = rng.randint(1, 2)
        r = rng.randint(1, 3 - s)
        ell = 0
    alphas = []
    betas = []
    for _ in range(s):
        row = [rand_nonzero_fraction(rng) if pure_type != "II" else Fraction(0) for _ in range(r)]
        alphas.append(tuple(row))
        brow = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(2 * ell)]
        if pure_type == "II" and all(c == 0 for c in brow):
            brow[0] = Fraction(1)
        betas.append(tuple(brow))
    lambdas = tuple(rand_nonzero_fraction(rng) for _ in range(r))
    return KahlerNormalForm(pure_type, s, r, ell, tuple(alphas), tuple(betas), lambdas)


def criterion_kahler_normal_forms() -> dict:
    """Constructor outputs close the fundamental form; guards reject zeros."""
    counts = {}
    for pure_type in ("I", "II", "III"):
        rng = random.Random(f"kahler-{pure_type}")
        for i in range(KAHLER_DRAWS_PER_TYPE):
            params = _random_kahler_params(pure_type, rng)
            L, g, J = kahler_normal_form(params)
            assert classify_metric(L, g, J).kahler, f"not closed: {pure_type} draw {i}"
            dec = hermitian_decomposition(L, g, J)
            assert dec.pure_type == pure_type
        counts[pure_type] = KAHLER_DRAWS_PER_TYPE
        # dropping a nonvanishing constraint must be rejected
        params = _random_kahler_params(pure_type, rng)
        if pure_type == "I":
            broken = KahlerNormalForm("I", 0, params.r, params.ell, (), (), (Fraction(0),) + params.lambdas[1:])
        elif pure_type == "II":
            zero_beta = ((Fraction(0),) * (2 * params.ell),) + params.betas[1:]
            broken = KahlerNormalForm("II", params.s, 0, params.ell, params.alphas, zero_beta, ())
        else:
            zero_alpha = ((Fraction(0),) * params.r,) + params.alphas[1:]
            broken = KahlerNormalForm("III", params.s, params.r, 0, zero_alpha, params.betas, params.lambdas)
        try:
            kahler_normal_form(broken)
            raise AssertionError(f"zero constraint accepted for type {pure_type}")
        except ParameterConstraintViolatedError:
            pass
    return counts


def criterion_typeII_skt() -> dict:
    """Type II torsion family: construction, perturbation, normalisation."""
    rng = random.Random("typeII-skt")
    built = 0
    perturbed = 0
    normalized = 0
    nondegenerate = 0  # draws where both [g, derg] and [V~, V~] are nonzero
    i = 0
    while built < TYPEII_DRAWS:
        dim = (4, 6, 8)[i % 3]
        params = _typeII_params(dim, random.Random(f"params-{i}"))
        i += 1
        L, g, J = skt_typeII_normal_form(params)
        assert classify_metric(L, g, J).skt, f"constructor output not SKT at draw {i}"
        built += 1

        g2, v_tilde = normalize_skt_typeII(L, J, g)
        d1 = bracket_of_subspaces(L, Subspace.full(L.dim), al.image_of_bracket(L))
        d2 = bracket_of_subspaces(L, v_tilde, v_tilde)
        derg = al.image_of_bracket(L)
        assert al.subspace_sum(d1, d2) == derg, "splitting does not span"
        assert intersect(d1, d2).dim == 0, "splitting is not direct"
        for u in d1.basis():
            for v in d2.basis():
                assert g2.pair(u, v) == 0, "splitting is not orthogonal"
        assert classify_metric(L, g2, J).skt, "normalised metric lost the torsion condition"
        normalized += 1
        nondegenerate += bool(d1.dim and d2.dim)
    assert nondegenerate, "no draw splits derg into two nonzero parts"

    zero4 = form_from_terms(4, 2, [])
    while perturbed < TYPEII_DRAWS:
        prng = random.Random(f"perturb-{perturbed}")
        # valid base on a four-dimensional complement: u^{12} and u^{34}
        # each have vanishing self-wedge, so the sum constraint holds
        x = abs(rand_nonzero_fraction(prng))
        y = abs(rand_nonzero_fraction(prng))
        params = TypeIINormalForm(
            1, 2, 0,
            phis=((form_from_terms(4, 2, [((1, 2), x)]),
                   form_from_terms(4, 2, [((3, 4), y)])),),
            psis=((zero4, zero4),),
        )
        L, g, J = skt_typeII_normal_form(params)
        assert classify_metric(L, g, J).skt
        # one bump of the invariant form gives it nonzero volume budget
        bump = form_from_terms(4, 2, [((3, 4), rand_nonzero_fraction(prng))])
        bad_phi = (params.phis[0][0] + bump, params.phis[0][1])
        bad = TypeIINormalForm(
            params.s, params.ell, params.m, params.alphas, params.zs,
            (bad_phi,), params.psis,
        )
        try:
            skt_typeII_normal_form(bad)
            raise AssertionError("perturbed constraint accepted")
        except ParameterConstraintViolatedError:
            pass
        L2, g2, J2 = skt_typeII_normal_form(bad, _validate=False)
        assert not classify_metric(L2, g2, J2).skt, f"perturbation kept SKT at draw {perturbed}"
        perturbed += 1
    return {"constructed": built, "perturbed": perturbed, "normalized": normalized,
            "nondegenerate_splittings": nondegenerate}


def criterion_six_dimensional_lists() -> dict:
    """Every catalog verdict reproduces exactly."""
    rows = verify_catalog()
    bad = [r for r in rows if not r[2]]
    assert not bad, f"catalog witnesses failed: {bad}"
    names = {e.name for e in witness_lists()}
    assert "2r'_{3,0} (codimension-two presentation)" in names
    return {"witness_rows": len(rows)}


def _kernel_source(L, J, kind: str, kernel):
    """The exact ``kernel = condition_kernel(L, J, kind)`` with a certified definite
    point of it, from the search, or None when the search certifies no witness."""
    found = search_kernel(L, J, kind, kernel)
    if not found.exact_verified:
        assert found.status != "found", f"{kind} search: uncertified witness"
        return None
    rows, den = coordinates(Metric(found.exact_metric), kind)
    return kind, linalg.mat_scale(Fraction(1, den), rows), kernel


def _kernel_metric(source, rng: random.Random) -> Metric:
    """A metric satisfying the source's kind: the metric at a random
    definite rational point of its kernel near the certified one, the move
    shrunk until ``metric_at`` finds the point definite."""
    kind, centre, kernel = source
    n = len(centre)
    coeffs = [rand_fraction(rng, -2, 2, 4) for _ in kernel]
    move = [[sum(c * m[a][b] for c, m in zip(coeffs, kernel)) for b in range(n)] for a in range(n)]
    step = Fraction(1, 2 * max(abs(c) for m in kernel for row in m for c in row))
    while True:
        try:
            return metric_at(linalg.mat_add(centre, linalg.mat_scale(step, move)), kind)
        except InvalidMetricError:
            step /= 2


def criterion_compatibility_pipeline() -> dict:
    """Merging verified special metrics yields a closed fundamental form.

    The SKT and balanced metrics are random definite points of the exact
    kernels of their conditions."""
    rng = random.Random("pipeline")
    outputs = 0
    for salamon in ("(25,-15,46,-36,0,0)", "(25,-15,45,-35,0,0)"):
        L = parse_salamon(salamon)
        J = ComplexStructure.standard(6)
        skt, balanced = (_kernel_source(L, J, kind, condition_kernel(L, J, kind)) for kind in ("skt", "balanced"))
        for _ in range(PIPELINE_DRAWS):
            g_skt, g_bal = _kernel_metric(skt, rng), _kernel_metric(balanced, rng)
            assert classify_metric(L, g_skt, J).skt, "kernel draw lost the torsion condition"
            assert classify_metric(L, g_bal, J).balanced, "kernel draw lost balancedness"
            g_out = kahler_from_skt_and_balanced_typeII(L, J, g_skt, g_bal)
            assert classify_metric(L, g_out, J).kahler, "pipeline output is not closed"
            outputs += 1
    return {"outputs": outputs}


def criterion_metric_search() -> dict:
    """Witness search succeeds within budget and certifies exactly, both as
    decided (by the projection) and by the numerical solver alone."""
    J = ComplexStructure.standard(6)
    results = {}
    for name, salamon, kind in (
        ("two-r3-kahler", "(25,-15,46,-36,0,0)", "kahler"),
        ("counterexample-skt", "(0,21,0,0,43,0)", "skt"),
    ):
        L = parse_salamon(salamon)
        t0 = time.time()
        result = search_metric(L, J, kind)
        solved = _solve(L, J, kind, condition_kernel(L, J, kind))
        elapsed = time.time() - t0
        for found in (result, solved):
            assert found.status == "found", f"{name}: no witness found by the {found.route}"
            assert found.residual == 0.0
            # a definite start takes no Phase-I step: these are centring steps only
            assert found.iterations <= MAX_ITERATIONS
            assert found.exact_verified, f"{name}: the {found.route}'s witness failed exact verification"
        assert elapsed < 10.0, f"{name}: took {elapsed:.1f}s"
        results[name] = {"residual": result.residual}
    return results


def criterion_special_pair_is_closed() -> dict:
    """No metric is simultaneously balanced and SKT without being closed.

    Every draw is SKT: a random definite point of the entry's exact SKT
    kernel, so each draw tests whether balanced forces closed.  Entries
    with no SKT metric are counted."""
    rng = random.Random("special-pair")
    sources = [(e, _kernel_source(e.algebra, e.J, "skt", condition_kernel(e.algebra, e.J, "skt")))
               for e in witness_lists()]
    with_skt = [(e, source) for e, source in sources if source is not None]
    verdicts = Counter()
    for i in range(SPECIAL_PAIR_DRAWS):
        entry, source = with_skt[i % len(with_skt)]
        v = classify_metric(entry.algebra, _kernel_metric(source, rng), entry.J)
        assert v.skt, f"a draw from the SKT kernel of {entry.name} is not SKT: {v}"
        assert v.kahler == (v.balanced and v.skt), (
            f"closedness equivalence fails on {entry.name}: {v}"
        )
        verdicts["+".join(kind for kind in KINDS if v[kind])] += 1
    return {"instances": SPECIAL_PAIR_DRAWS, "entries": len(with_skt),
            "entries_without_skt": len(sources) - len(with_skt),
            "verdicts": dict(sorted(verdicts.items()))}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    details: str


CRITERIA = (
    (1, "type I counterexample reproduction", criterion_counterexample_type_I),
    (2, "type III counterexample reproduction", criterion_counterexample_type_III),
    (3, "shear-data oracle equivalence", criterion_oracle_equivalence),
    (4, "structural balanced criterion", criterion_balanced_structural),
    (5, "closed-form normal forms", criterion_kahler_normal_forms),
    (6, "type II torsion family", criterion_typeII_skt),
    (7, "six-dimensional witness lists", criterion_six_dimensional_lists),
    (8, "special-metric merge pipeline", criterion_compatibility_pipeline),
    (9, "numerical witness search", criterion_metric_search),
    (10, "balanced + SKT forces closed", criterion_special_pair_is_closed),
)


def run_criteria(out=print) -> list[CriterionResult]:
    results = []
    for number, name, fn in CRITERIA:
        t0 = time.time()
        try:
            details = fn()
            passed, text = True, repr(details)
        except AssertionError as exc:
            passed, text = False, str(exc)
        elapsed = time.time() - t0
        results.append(CriterionResult(number, name, passed, elapsed, text))
        status = "PASS" if passed else "FAIL"
        out(f"[{status}] criterion {number:2d} ({elapsed:6.2f}s) {name}: {text}")
    return results
