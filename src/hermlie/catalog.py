"""Named low-dimensional families and the six-dimensional witness lists.

``named_algebra`` builds the standard named families from their
differential strings, enforcing each family's parameter constraints.
``witness_lists`` returns the six-dimensional catalog: every entry carries
an algebra, a complex structure, and witness metrics with expected
verdicts that must reproduce exactly under the direct checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .algebra import LieAlgebra
from .errors import ConstraintViolatedError, UnknownNameError
from .hermitian import ComplexStructure, Metric, classify_metric
from .salamon import parse_salamon

Q = Fraction

_GREEK = {
    "α": "alpha",
    "β": "beta",
    "γ": "gamma",
    "δ": "delta",
    "λ": "lambda",
    "μ": "mu",
}


def _canonical_name(name: str) -> str:
    out = name.strip()
    for uni, ascii_name in _GREEK.items():
        out = out.replace(uni, ascii_name)
    if "^" in out:
        out = out.split("^", 1)[0]
    return out.replace(" ", "")


@dataclass(frozen=True)
class _Family:
    differentials: str
    parameter_names: tuple[str, ...]
    constraints: tuple[tuple[str, object], ...]  # (description, predicate)


def _fam(differentials, names, *constraints):
    return _Family(differentials, tuple(names), tuple(constraints))


_FAMILIES: dict[str, _Family] = {
    "aff_R": _fam("(0,21)", ()),
    "h_3": _fam("(0,0,21)", ()),
    "r'_{3,lambda}": _fam(
        "(0,lambda.21+31,-21+lambda.31)",
        ("lambda",),
        ("lambda >= 0", lambda p: p["lambda"] >= 0),
    ),
    "r_{4,mu,lambda}": _fam(
        "(0,21,mu.31,lambda.41)",
        ("mu", "lambda"),
        ("0 < |lambda| <= |mu| <= 1", lambda p: 0 < abs(p["lambda"]) <= abs(p["mu"]) <= 1),
    ),
    "r'_{4,mu,lambda}": _fam(
        "(0,mu.21,lambda.31+41,-31+lambda.41)",
        ("mu", "lambda"),
        ("mu > 0", lambda p: p["mu"] > 0),
    ),
    "g_{5,17}": _fam(
        "(0,alpha.21+31,-21+alpha.31,beta.41+gamma.51,-gamma.41+alpha.51)",
        ("alpha", "beta", "gamma"),
        ("alpha >= 0", lambda p: p["alpha"] >= 0),
        ("gamma != 0", lambda p: p["gamma"] != 0),
    ),
    "g_{6,11}": _fam(
        "(0,alpha.21,beta.31+41,-31+beta.41,gamma.51+delta.61,-delta.51+gamma.61)",
        ("alpha", "beta", "gamma", "delta"),
        ("alpha*delta != 0", lambda p: p["alpha"] * p["delta"] != 0),
    ),
    "N_{6,1}": _fam(
        "(alpha.15+beta.16,gamma.25+delta.26,35,46,0,0)",
        ("alpha", "beta", "gamma", "delta"),
        ("alpha*beta != 0", lambda p: p["alpha"] * p["beta"] != 0),
        ("(gamma, delta) != (0, 0)", lambda p: (p["gamma"], p["delta"]) != (0, 0)),
    ),
    "N_{6,14}": _fam(
        "(alpha.15+beta.16,26,gamma.35-45,gamma.45+35,0,0)",
        ("alpha", "beta", "gamma"),
        ("alpha*beta != 0", lambda p: p["alpha"] * p["beta"] != 0),
    ),
}

_ALIASES = {
    "affR": "aff_R",
    "aff": "aff_R",
    "h3": "h_3",
    "r'_3,lambda": "r'_{3,lambda}",
    "r_4,mu,lambda": "r_{4,mu,lambda}",
    "r'_4,mu,lambda": "r'_{4,mu,lambda}",
    "g_5,17": "g_{5,17}",
    "g_6,11": "g_{6,11}",
    "N_6,1": "N_{6,1}",
    "N_6,14": "N_{6,14}",
}


def named_algebra(name: str, params: dict | None = None) -> LieAlgebra:
    """Instantiate a named family at rational parameter values."""
    canonical = _canonical_name(name)
    canonical = _ALIASES.get(canonical, canonical)
    if canonical not in _FAMILIES:
        raise UnknownNameError(f"unknown family {name!r}; known: {', '.join(_FAMILIES)}")
    fam = _FAMILIES[canonical]
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    missing = [n for n in fam.parameter_names if n not in params]
    if missing:
        raise ConstraintViolatedError(
            "missing parameters", f"family {canonical} needs {', '.join(missing)}"
        )
    for description, predicate in fam.constraints:
        if not predicate(params):
            raise ConstraintViolatedError(description)
    return parse_salamon(fam.differentials, params)


@dataclass(frozen=True)
class Witness:
    label: str
    metric: Metric
    expected: dict  # {"kahler": bool, "balanced": bool, "skt": bool}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    salamon: str
    params: dict
    algebra: LieAlgebra
    J: ComplexStructure
    witnesses: tuple[Witness, ...]
    citation: str
    notes: str = ""


def _entry(name, salamon, J_pairs, witnesses, citation, params=None, notes=""):
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    algebra = parse_salamon(salamon, params)
    J = ComplexStructure.from_pairs(algebra.dim, J_pairs)
    return CatalogEntry(name, salamon, params, algebra, J, tuple(witnesses), citation, notes)


def _verdicts(kahler, balanced, skt):
    return {"kahler": kahler, "balanced": balanced, "skt": skt}


_J_STD = [(1, 2), (3, 4), (5, 6)]
_J_III = [(1, 2), (3, 5), (4, 6)]


def _identity_witness(expected):
    return Witness("standard", Metric.identity(6), expected)


@cache
def witness_lists() -> tuple[CatalogEntry, ...]:
    """The six-dimensional catalog with explicit verdict witnesses, built
    once per process; callers share the entries and must not mutate them."""
    entries: list[CatalogEntry] = []
    all_true = _verdicts(True, True, True)

    # --- two-step solvable algebras carrying a closed fundamental form ---
    entries.append(
        _entry(
            "r'_{3,0} + R^3",
            "(-23,13,0,0,0,0)",
            _J_STD,
            [_identity_witness(all_true)],
            "pure type II normal form with a one-complex-line derived algebra",
            notes=(
                "Same algebra as the three-dimensional family r'_{3,lambda} at "
                "lambda = 0, i.e. (0,31,-21), padded by R^3; the two "
                "presentations differ by a basis permutation and are kept "
                "side by side rather than canonicalised."
            ),
        )
    )
    entries.append(
        _entry(
            "r'_{3,0} + r'_{3,0}",
            "(-25,15,-46,36,0,0)",
            _J_STD,
            [_identity_witness(all_true)],
            "pure type II normal form, two complex lines, rank-two action",
        )
    )
    for lam in (Q(1, 4), Q(1, 2), Q(1)):
        entries.append(
            _entry(
                f"g_{{5,17}}^{{0,0,{lam}}} + R",
                "(-25,15,-l.45,l.35,0,0)",
                _J_STD,
                [_identity_witness(all_true)],
                "pure type II normal form, two complex lines, rank-one action",
                params={"l": lam},
            )
        )
    for a1, a2, c in ((Q(1, 2), Q(1), Q(1)), (Q(1), Q(2), Q(1)), (Q(2), Q(1, 2), Q(1))):
        entries.append(
            _entry(
                f"N_{{6,14}}^{{a,b,0}} sample (a1={a1}, a2={a2}, c={c})",
                "(-25-c.26,15+c.16,a1.35,a2.46,0,0)",
                _J_III,
                [_identity_witness(all_true)],
                "pure type III normal form with a two-dimensional complex part",
                params={"a1": a1, "a2": a2, "c": c},
            )
        )
    for a, c in ((Q(1, 2), Q(1)), (Q(1), Q(1)), (Q(2), Q(1))):
        entries.append(
            _entry(
                f"g_{{6,11}}^{{a,0,0,d}} sample (a={a}, c={c})",
                "(-26,16,-c.46,c.36,a.56,0)",
                _J_STD,
                [_identity_witness(all_true)],
                "pure type III normal form with a four-dimensional complex part",
                params={"a": a, "c": c},
            )
        )
    for a in (Q(1, 2), Q(1), Q(2)):
        entries.append(
            _entry(
                f"r'_{{4,{a},0}} + R^2",
                "(-24,14,a.34,0,0,0)",
                _J_STD,
                [_identity_witness(all_true)],
                "non-pure almost Abelian family with closed fundamental form",
                params={"a": a},
            )
        )
    entries.append(
        _entry(
            "r'_{3,0} + aff_R + R",
            "(-25,15,34,0,0,0)",
            _J_STD,
            [_identity_witness(all_true)],
            "second non-pure family with closed fundamental form",
            notes=(
                "Arises from the non-pure bracket table only through a basis "
                "change: in this presentation the rotation acts from the "
                "complement rather than from J(derg_r), so it is stored by "
                "its differential string."
            ),
        )
    )
    entries.append(
        _entry(
            "3 aff_R",
            "(0,21,0,43,0,65)",
            _J_STD,
            [_identity_witness(all_true)],
            "pure type I: three affine blocks",
        )
    )
    entries.append(
        _entry(
            "2 aff_R + R^2",
            "(0,21,0,43,0,0)",
            _J_STD,
            [_identity_witness(all_true)],
            "pure type I: two affine blocks",
        )
    )
    entries.append(
        _entry(
            "aff_R + R^4",
            "(0,21,0,0,0,0)",
            _J_STD,
            [_identity_witness(all_true)],
            "pure type I: one affine block",
        )
    )
    entries.append(
        _entry(
            "R^6",
            "(0,0,0,0,0,0)",
            _J_STD,
            [_identity_witness(all_true)],
            "the Abelian algebra",
        )
    )

    # --- codimension-two complex-derived-algebra torsion families ---
    entries.append(
        _entry(
            "2r'_{3,0} (codimension-two presentation)",
            "(25,-15,46,-36,0,0)",
            _J_STD,
            [_identity_witness(all_true)],
            "codimension-two family, rank-two coefficient matrix",
        )
    )
    for lam in (Q(1, 4), Q(1, 2), Q(1)):
        entries.append(
            _entry(
                f"g_{{5,17}}^{{0,0,{lam}}} + R (codimension-two presentation)",
                "(25,-15,l.45,-l.35,0,0)",
                _J_STD,
                [_identity_witness(all_true)],
                "codimension-two family, rank-one coefficient matrix",
                params={"l": lam},
            )
        )

    # --- the two non-unimodular counterexample structures ---
    frame_43 = [
        (1, 0, 0, 0, 0, -1),
        (0, 1, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
    ]
    entries.append(
        _entry(
            "aff_R + h_3 + R",
            "(0,21,0,0,43,0)",
            _J_STD,
            [
                Witness("standard", Metric.identity(6), _verdicts(False, False, True)),
                Witness(
                    "tilted frame",
                    Metric.from_orthonormal_frame(frame_43),
                    _verdicts(False, True, False),
                ),
            ],
            "non-unimodular pure type I structure carrying both special "
            "metrics but no closed fundamental form",
            notes=(
                "Structural invariants separate this algebra from every sum "
                "of affine blocks and an Abelian factor, so no compatible "
                "metric has closed fundamental form."
            ),
        )
    )
    frame_419 = [
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 1, 1, 0, 0),
        (0, 0, 0, 0, 1, 1),
    ]
    entries.append(
        _entry(
            "N_{6,1}-type counterexample",
            "(-15+16,-25+26,2.(35+46),2.(36+45),0,0)",
            _J_III,
            [
                Witness("standard", Metric.identity(6), _verdicts(False, False, True)),
                Witness(
                    "tilted frame",
                    Metric.from_orthonormal_frame(frame_419),
                    _verdicts(False, True, False),
                ),
            ],
            "non-unimodular pure type III structure carrying both special "
            "metrics but no closed fundamental form",
            notes=(
                "The family name N_{6,1} requires (gamma, delta) != (0, 0), "
                "which this instance violates at gamma = delta = 0; the "
                "catalog therefore stores it by its differential string and "
                "flags the naming discrepancy instead of resolving it."
            ),
        )
    )
    return tuple(entries)


def verify_catalog(entries=None) -> list[tuple[str, str, bool]]:
    """Recompute every stored verdict; returns (entry, witness, ok) rows."""
    rows = []
    for entry in entries if entries is not None else witness_lists():
        for witness in entry.witnesses:
            got = classify_metric(entry.algebra, witness.metric, entry.J).as_dict()
            rows.append((entry.name, witness.label, got == witness.expected))
    return rows
