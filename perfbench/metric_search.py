"""Workload metric-search: ``search_metric`` on seven fixed cases.

This work is numpy-bound and per-iterate; the exact core appears only in
the parameterisation and in certification.  It is the target of batching
the search and of exact feasibility; the other two workloads never call it.

A seed other than 0 conjugates each case by ``generators.random_unitary``
for its J pairs, a fresh unitary for every search, so the search sees the
same structure in other bases.  The basis moves the iteration count of one
search by up to four times, so a run must hold many conjugations for its
figures to be steady across seeds.  That is why each search uses the first
``STARTS`` of the default sixteen starting points (a not-found search then
takes about two seconds instead of up to ten), and why a pass runs the cheap
cases more often than the dear ones, so that the few searches of the
dearest cases, whose time varies most with the basis, do not decide a run's
figures.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass

from hermlie.algebra import LieAlgebra, change_basis
from hermlie.generators import random_unitary
from hermlie.hermitian import ComplexStructure, Metric, classify_metric
from hermlie.salamon import parse_salamon
from hermlie.search import SearchConfig, metric_parameterization, search_metric

from harness import SPLIT, OpRecord, median, spread_evenly, verdict_metrics

TWO_R3 = "(25,-15,46,-36,0,0)"
TYPE_I = "(0,21,0,0,43,0)"
TYPE_III = "(-15+16,-25+26,2.(35+46),2.(36+45),0,0)"
STD_PAIRS = ((1, 2), (3, 4), (5, 6))
III_PAIRS = ((1, 2), (3, 5), (4, 6))
STARTS = 4  # starting points per search

# (case, salamon, J pairs, kind, feasible, searches per pass).  The counts
# are about inversely proportional to a search's time on this tree, except
# that the two dearest cases, whose time varies most with the basis, run
# once a pass and take about a seventh of its time each.
CASES = (
    ("two-r3.kahler", TWO_R3, STD_PAIRS, "kahler", True, 16),
    ("typeI.skt", TYPE_I, STD_PAIRS, "skt", True, 16),
    ("typeI.balanced", TYPE_I, STD_PAIRS, "balanced", True, 6),
    ("typeIII.skt", TYPE_III, III_PAIRS, "skt", True, 4),
    ("typeIII.balanced", TYPE_III, III_PAIRS, "balanced", True, 1),
    ("typeI.kahler", TYPE_I, STD_PAIRS, "kahler", False, 1),
    ("typeIII.kahler", TYPE_III, III_PAIRS, "kahler", False, 4),
)
# One pass in the order it runs; a run ends part-way through a pass.
SCHEDULE = spread_evenly({case[0]: case[5] for case in CASES})


@dataclass(frozen=True)
class Case:
    label: str
    kind: str
    feasible: bool
    table: dict
    J: tuple


@dataclass
class State:
    cases: list
    config: SearchConfig


def setup(seed: int, part: int, tr, workdir) -> State:
    """One pass of searches, with this part's own conjugations."""
    rng = random.Random(f"metric-search/{seed}/{part}")
    parsed = {}
    for name, salamon, pairs, kind, feasible, _ in CASES:
        with tr.span("salamon.parse_ms"):
            L = parse_salamon(salamon)
        parsed[name] = (L, ComplexStructure.from_pairs(L.dim, pairs), pairs, kind, feasible)
    cases = []
    for name, _ in SCHEDULE:
        L, J, pairs, kind, feasible = parsed[name]
        if seed:
            L = change_basis(L, random_unitary(L.dim, rng, pairs=list(pairs)))
        cases.append(Case(name, kind, feasible, dict(L.table), J.matrix))
    return State(cases, SearchConfig(seeds=tuple(range(STARTS))))


def join(states: list) -> State:
    return State([case for st in states for case in st.cases], states[0].config)


def operations(state: State) -> list:
    return state.cases


def run(state: State, case: Case, tr) -> OpRecord:
    t0 = time.perf_counter()
    L = LieAlgebra(6, case.table)
    J = ComplexStructure(case.J)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tr.span("search.metric_s", 6):
            result = search_metric(L, J, case.kind, state.config)
    certified = None
    if result.exact_metric is not None:
        with tr.span("hermitian.classify_ms", 6):
            certified = classify_metric(L, Metric(result.exact_metric), J)[case.kind]
    seconds = time.perf_counter() - t0
    if tr.enabled:
        with tr.span(SPLIT), tr.span("search.parameterization_ms", 6):
            metric_parameterization(L, J)
    bad = []
    if result.status == "found" and not case.feasible:
        bad.append("found a witness on an infeasible case")
    if certified is False:
        bad.append("certified metric fails classify_metric")
    runtime = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return OpRecord(
        "search", case.label, 6, seconds, failed=bool(bad), note="; ".join(bad),
        extra={
            "found": result.status == "found",
            "feasible": case.feasible,
            "certified": bool(certified),
            "iterations": result.iterations,
            "warnings": runtime,
        },
    )


def end_to_end(records: list) -> dict:
    mix = {case[0]: case[5] for case in CASES}
    out = verdict_metrics(records, records, "searches", mix, lambda r: r.label)
    searches = [r for r in records if r.kind == "search"]
    found = [r for r in searches if r.extra["found"]]
    not_found = [r.seconds for r in searches if not r.extra["found"]]
    feasible = [r for r in searches if r.extra["feasible"]]
    out["search_found_s_p50"] = (median(r.seconds for r in found), "s", f"{len(found)} found")
    out["search_not_found_s_p50"] = (median(not_found), "s", f"{len(not_found)} not found")
    out["found_share"] = (sum(r.extra["found"] for r in feasible) / max(1, len(feasible)), "share")
    out["certified_share"] = (
        sum(r.extra["certified"] for r in found) / max(1, len(found)), "share")
    return out


def per_layer(state: State, records: list, first_pass: list, tr) -> dict:
    out = {}
    for case in CASES:
        searches = [r for r in first_pass if r.kind == "search" and r.label == case[0]]
        out[f"search.iterations.{case[0]}"] = (
            sum(r.extra["iterations"] for r in searches), "count")
        out[f"search.runtime_warnings.{case[0]}"] = (
            sum(r.extra["warnings"] for r in searches), "count")
    iterations = sum(r.extra.get("iterations", 0) for r in records)
    busy = sum(tr.durations("search.metric_s"))
    out["search.ms_per_iteration"] = (busy * 1000 / max(1, iterations), "ms")
    out["search.parameterization_ms"] = (median(tr.durations("search.parameterization_ms")) * 1000, "ms")
    out["salamon.parse_ms"] = (median(tr.durations("salamon.parse_ms")) * 1000, "ms")
    out["hermitian.classify_ms.d6"] = (median(tr.durations("hermitian.classify_ms", 6)) * 1000, "ms")
    return out


def notes(state: State) -> list[str]:
    return []
