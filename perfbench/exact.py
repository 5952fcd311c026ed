"""The exact-verdict operation shared by generated-shears and sparse-catalog.

Every verdict is computed three ways: the direct differential route
(``classify_metric``), the shear-data route (``shear_condition``) and, for
balanced, the structural route (``balanced_structural``).  After the timed
operation, the traced run also takes ``classify_metric`` apart into its
public pieces so that each layer gets its own span; those pieces must
reproduce the same verdicts.
"""

from __future__ import annotations

from hermlie import linalg
from hermlie.algebra import LieAlgebra
from hermlie.forms import ce_differential, form_power, j_pullback
from hermlie.hermitian import (
    balanced_structural,
    classify_metric,
    fundamental_form,
    hermitian_decomposition,
    validate_complex_structure,
)
from hermlie.shear import check_complex_shear, shear_condition

from harness import SPLIT, median

KINDS = ("kahler", "balanced", "skt")

# Per-layer stems measured at each dimension, in span names.
DIM_STEMS = (
    "algebra.jacobi_ms",
    "hermitian.nijenhuis_ms",
    "hermitian.fundamental_form_ms",
    "hermitian.classify_ms",
    "forms.d2_ms",
    "forms.d3_ms",
    "forms.dtop_ms",
    "forms.j_pullback_ms",
    "forms.form_power_ms",
    "shear.build_ms",
    "shear.check_complex_ms",
    "shear.condition_ms.kahler",
    "shear.condition_ms.balanced",
    "shear.condition_ms.skt",
    "hermitian.balanced_structural_ms",
    "hermitian.decomposition_ms",
    "linalg.rref_ms",
)


def split_verdicts(tr, dim: int, L: LieAlgebra, g, J) -> dict:
    """``classify_metric`` done call by call, one span per public call, all
    under one ``SPLIT`` span."""
    with tr.span(SPLIT):
        with tr.span("algebra.jacobi_ms", dim):
            LieAlgebra(L.dim, L.table).jacobi_residual()  # fresh object: no memo
        with tr.span("hermitian.nijenhuis_ms", dim):
            validate_complex_structure(L, J)
        with tr.span("hermitian.fundamental_form_ms", dim):
            sigma = fundamental_form(L, g, J)
        with tr.span("forms.d2_ms", dim):
            dsigma = ce_differential(L, sigma)
        with tr.span("forms.j_pullback_ms", dim):
            jdsigma = j_pullback(J.matrix, dsigma)
        with tr.span("forms.d3_ms", dim):
            torsion = ce_differential(L, jdsigma)
        with tr.span("forms.form_power_ms", dim):
            power = form_power(sigma, L.dim // 2 - 1)
        with tr.span("forms.dtop_ms", dim):
            dpower = ce_differential(L, power)
        with tr.span("hermitian.decomposition_ms", dim):
            hermitian_decomposition(L, g, J)
        with tr.span("linalg.rref_ms", dim):
            linalg.rref(list(L.table.values()))
    return {"kahler": dsigma.is_zero(), "balanced": dpower.is_zero(), "skt": torsion.is_zero()}


def route_verdicts(tr, dim: int, L: LieAlgebra, data, g, J) -> dict:
    """All routes for one (L, J, g); comparisons are left to ``problems``."""
    with tr.span("shear.check_complex_ms", dim):
        complex_ok = check_complex_shear(data, J).valid
    with tr.span("hermitian.classify_ms", dim):
        direct = classify_metric(L, g, J).as_dict()
    shear = {}
    for kind in KINDS:
        with tr.span(f"shear.condition_ms.{kind}", dim):
            shear[kind] = shear_condition(data, g, J, kind)
    with tr.span("hermitian.balanced_structural_ms", dim):
        structural = balanced_structural(L, g, J).balanced
    return {"complex_ok": complex_ok, "direct": direct, "shear": shear, "structural": structural}


def route_mismatch(v: dict) -> bool:
    return v["direct"] != v["shear"] or v["structural"] != v["direct"]["balanced"]


def layer_times(tr, dims) -> dict:
    """Median milliseconds of every per-dimension span, as metrics."""
    return {
        f"{stem}.d{dim}": (median(tr.durations(stem, dim)) * 1000, "ms")
        for stem in DIM_STEMS + ("generators.gen_ms",)
        for dim in dims
    }


def problems(v: dict, expected: dict | None = None) -> list[str]:
    """Disagreements between the routes, and with a known verdict."""
    out = []
    if not v["complex_ok"]:
        out.append("shear data fails the complex-shear equations")
    if v["direct"] != v["shear"]:
        out.append(f"direct {v['direct']} != shear {v['shear']}")
    if v["structural"] != v["direct"]["balanced"]:
        out.append(f"structural balanced {v['structural']} != direct {v['direct']['balanced']}")
    if "split" in v and v["split"] != v["direct"]:
        out.append(f"split path {v['split']} != classify_metric {v['direct']}")
    for kind, want in (expected or {}).items():
        if v["direct"][kind] != want:
            out.append(f"{kind} is {v['direct'][kind]}, known verdict {want}")
    return out


def den_digits(*tables) -> int:
    """Digits of the largest denominator among the given rational entries."""
    worst = 1
    for table in tables:
        for row in table:
            for c in row:
                worst = max(worst, c.denominator)
    return len(str(worst))
