"""Workload generated-shears: dense random complex shears, one per operation.

``generators.random_complex_shear`` conjugates each instance by a rational
unitary matrix, so denominators reach about 10^15 and every (L, J, g) is
different: no work is shared between operations, and Fraction/gcd work in
forms, linalg and shear dominates.  Inputs are kept as plain tables and
matrices; each operation builds fresh objects, so memoised Jacobi residuals
and complex-shear checks never carry over from one operation to the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from hermlie.errors import HermlieError
from hermlie.forms import VectorValuedTwoForm
from hermlie.algebra import Subspace
from hermlie.generators import PROFILES, random_complex_shear
from hermlie.hermitian import ComplexStructure, Metric
from hermlie.shear import PreShearData, build_shear

import exact
from harness import OpRecord, median, spread_evenly, verdict_metrics

CELLS = (
    tuple((4, p) for p in PROFILES if p != "mixed")
    + tuple((6, p) for p in PROFILES)
    + ((8, "typeI"), (8, "typeIII"), (10, "typeI"), (10, "typeIII"))
)
# These profiles always build a six-dimensional algebra, whatever ``dim``
# asks for; they are attempted at set-up so the defect stays visible.
DEFECT_CELLS = ((8, "nilpotent"), (8, "typeII"), (10, "nilpotent"), (10, "typeII"))
DIMS = (4, 6, 8, 10)
# Instances of each cell in one round.  One operation at dimension 10 costs
# about fifty at dimension 4, so these counts keep any one dimension from
# taking most of a round's time on this tree; the cost of a dimension-10
# instance also varies most, so the mix keeps it from deciding the whole
# figure.  Dimension 6 takes the largest share because its median is gated:
# its instances' costs vary by up to four times, so it needs many samples.
PER_ROUND = {4: 10, 6: 8, 8: 3, 10: 1}
# One round in the order it runs; a run ends part-way through a round.
SCHEDULE = spread_evenly({cell: PER_ROUND[cell[0]] for cell in CELLS})


@dataclass(frozen=True)
class Instance:
    label: str
    dim: int
    a: tuple  # basis vectors of the subspace a
    omega: dict  # (i, j) -> vector
    g: tuple
    J: tuple


@dataclass
class State:
    instances: list
    failed_cells: list
    den_digits: dict


def _round(seed: int, rnd: int, tr) -> list:
    out = []
    for (dim, profile), k in SCHEDULE:
        gen_seed = seed * 1000 + rnd * 100 + k
        with tr.span("generators.gen_ms", dim):
            data, g, J = random_complex_shear(gen_seed, profile, dim)
        out.append(
            Instance(f"{profile}/d{dim}/{gen_seed}", dim, data.a.basis(),
                     dict(data.omega.values), g.matrix, J.matrix)
        )
    return out


def setup(seed: int, part: int, tr, workdir) -> State:
    """Round ``part`` of the run's instances; the run uses every part."""
    instances = _round(seed, part, tr)
    failed = []
    for dim, profile in DEFECT_CELLS:
        try:
            random_complex_shear(seed * 1000, profile, dim)
        except HermlieError as exc:
            failed.append(f"{profile}/d{dim}: {type(exc).__name__}")
    digits = {
        dim: max(
            exact.den_digits(list(i.omega.values()), i.g, i.J)
            for i in instances
            if i.dim == dim
        )
        for dim in DIMS
    }
    return State(instances, failed, digits)


def join(states: list) -> State:
    return State(
        [inst for st in states for inst in st.instances],
        states[0].failed_cells,
        {dim: max(st.den_digits[dim] for st in states) for dim in DIMS},
    )


def operations(state: State) -> list:
    return state.instances


def run(state: State, inst: Instance, tr) -> OpRecord:
    dim = inst.dim
    t0 = time.perf_counter()
    a = Subspace.span(dim, inst.a)
    data = PreShearData(dim, a, VectorValuedTwoForm(dim, a, inst.omega))
    J = ComplexStructure(inst.J)
    g = Metric(inst.g)
    with tr.span("shear.build_ms", dim):
        L = build_shear(data)
    v = exact.route_verdicts(tr, dim, L, data, g, J)
    seconds = time.perf_counter() - t0
    if tr.enabled:
        v["split"] = exact.split_verdicts(tr, dim, L, g, J)
    bad = exact.problems(v)
    return OpRecord(
        "verdict",
        inst.label,
        dim,
        seconds,
        failed=bool(bad),
        note="; ".join(bad),
        extra={"route_mismatch": exact.route_mismatch(v)},
    )


def end_to_end(records: list) -> dict:
    mix = {f"{profile}/d{dim}": PER_ROUND[dim] for dim, profile in CELLS}
    out = verdict_metrics(records, records, "operations", mix,
                          lambda r: r.label.rsplit("/", 1)[0])
    d10 = [r.seconds * 1000 for r in records if r.dim == 10]
    out["verdict_ms_p50.d10"] = (median(d10), "ms", f"{len(d10)} operations")
    return out


def per_layer(state: State, records: list, first_pass: list, tr) -> dict:
    out = exact.layer_times(tr, DIMS)
    for dim in DIMS:
        out[f"linalg.den_digits.d{dim}"] = (state.den_digits[dim], "digits")
    out["shear.route_mismatches"] = (sum(r.extra.get("route_mismatch", False) for r in first_pass), "count")
    out["generators.failed"] = (len(state.failed_cells), "count")
    return out


def notes(state: State) -> list[str]:
    return [f"generator cells that fail at set-up: {', '.join(state.failed_cells) or 'none'}"]
