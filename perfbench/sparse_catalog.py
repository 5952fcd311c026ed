"""Workload sparse-catalog: catalog entries, normal forms and CLI documents.

Structure constants are small and sparse and many metrics share one
(L, J): the 25 six-dimensional ``catalog.witness_lists()`` entries each come
with their stored witnesses and seeded ``random_compatible_metric`` draws,
next to Kahler normal forms by pure type and type II SKT normal forms.  One
operation in three is an in-process ``cli.main`` call on a document the
benchmark writes from a catalog entry or from ``demos/data``.  Per-call
overhead, validation and document parsing dominate, so an arithmetic-kernel
gain should barely move this workload, while a per-(L, J) set-up cost shows
up here as a gain.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from hermlie import cli
from hermlie.algebra import LieAlgebra
from hermlie.catalog import verify_catalog, witness_lists
from hermlie.documents import load_algebra, load_shear_data
from hermlie.generators import random_compatible_metric
from hermlie.hermitian import ComplexStructure, Metric
from hermlie.normal_forms import (
    Cq,
    KahlerNormalForm,
    TypeIINormalForm,
    kahler_normal_form,
    skt_typeII_normal_form,
)
from hermlie.salamon import parse_salamon
from hermlie.shear import build_shear, pre_shear_from_bracket

import exact
from harness import SPLIT, OpRecord, median, tail, verdict_metrics

DRAWS = 4  # random compatible metrics per catalog entry
NORMAL_FORM_DIMS = (4, 6, 8, 10)
DEMO_ALGEBRAS = ("two_r3", "rank_one_family", "counterexample_type_I")
# load_algebra rejects a document carrying both keys, which is what
# documents.algebra_doc emits; the round trip reports this as a known defect.
ROUNDTRIP_DEFECT = 'exactly one of "salamon" or "constants"'
DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "data"


@dataclass(frozen=True)
class VerdictItem:
    label: str
    dim: int
    salamon: str | None  # parsed per operation when set
    params: dict
    table: dict | None  # bracket table when there is no salamon string
    J: tuple
    g: tuple
    expected: dict | None  # stored or known verdicts, None for random draws


@dataclass(frozen=True)
class CliItem:
    label: str
    command: str  # describe, check, shear or roundtrip
    argv: tuple
    expected_code: int
    algebra_doc: str | None = None  # read back by the traced run


@dataclass
class State:
    workdir: Path
    catalog_ok: bool
    ops: list
    den_digits: dict
    digests: dict = field(default_factory=dict)

    @property
    def setup_problems(self) -> list[str]:
        return [] if self.catalog_ok else ["catalog.verify_catalog: a stored verdict does not reproduce"]


def _q(x) -> str:
    return str(Fraction(x))


def _matrix(m) -> list:
    return [[_q(c) for c in row] for row in m]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _shear_doc(L: LieAlgebra, J, metric) -> dict:
    data = pre_shear_from_bracket(L)
    return {
        "schema": 1,
        "dim": L.dim,
        "a": _matrix(data.a.basis()),
        "omega": [
            {"i": i, "j": j, "value": [_q(c) for c in v]}
            for (i, j), v in sorted(data.omega.values.items())
        ],
        "J": _matrix(J),
        "metric": _matrix(metric),
    }


def _rand_q(rng: random.Random, lo=-2, hi=2, den=2, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if f or not nonzero:
            return f


def _nonzero_row(rng: random.Random, length: int) -> tuple:
    row = [_rand_q(rng) for _ in range(length)]
    if length and not any(row):
        row[rng.randrange(length)] = Fraction(1)
    return tuple(row)


def _kahler_params(pure_type: str, n: int, rng: random.Random) -> KahlerNormalForm:
    """Random parameters of complex dimension n = s + r + ell."""
    if pure_type == "I":
        s, r = 0, rng.randint(1, n)
        ell = n - r
    elif pure_type == "II":
        r, s = 0, rng.randint(1, n - 1)
        ell = n - s
    else:
        ell, s = 0, rng.randint(1, n - 1)
        r = n - s
    if pure_type == "III":
        alphas = tuple(_nonzero_row(rng, r) for _ in range(s))
    else:
        alphas = tuple(tuple(_rand_q(rng) for _ in range(r)) for _ in range(s))
    if pure_type == "II":
        betas = tuple(_nonzero_row(rng, 2 * ell) for _ in range(s))
    else:
        betas = tuple(tuple(_rand_q(rng) for _ in range(2 * ell)) for _ in range(s))
    lambdas = tuple(_rand_q(rng, nonzero=True) for _ in range(r))
    return KahlerNormalForm(pure_type, s, r, ell, alphas, betas, lambdas)


def _normal_forms(rng: random.Random) -> list:
    items = []
    for dim in NORMAL_FORM_DIMS:
        for pure_type in ("I", "II", "III"):
            L, g, J = kahler_normal_form(_kahler_params(pure_type, dim // 2, rng))
            items.append(
                VerdictItem(f"kahler-{pure_type}/d{dim}", dim, None, {}, dict(L.table),
                            J.matrix, g.matrix, {"kahler": True, "balanced": True, "skt": True})
            )
        ell = dim // 2 - 1
        params = TypeIINormalForm(
            1, ell, 1,
            alphas=(_nonzero_row(rng, 2 * ell),),
            zs=(Cq(_rand_q(rng), _rand_q(rng)),),
        )
        L, g, J = skt_typeII_normal_form(params)
        items.append(
            VerdictItem(f"skt-II/d{dim}", dim, None, {}, dict(L.table), J.matrix, g.matrix,
                        {"skt": True})
        )
    return items


def _stored_verdict(entries, L: LieAlgebra, J: tuple, g: tuple) -> dict | None:
    """The catalog's stored verdict for this (L, J, g), if it has one."""
    for e in entries:
        if e.algebra == L and e.J.matrix == J:
            for w in e.witnesses:
                if w.metric.matrix == g:
                    return w.expected
    return None


def _cli_items(entries, workdir: Path, demo_dir: Path) -> list:
    items = []
    kinds = exact.KINDS
    for i, e in enumerate(entries):
        w = e.witnesses[i % len(e.witnesses)]
        kind = kinds[i % 3]
        alg = _write(workdir / f"algebra-{i}.json",
                     {"schema": 1, "dim": 6, "salamon": e.salamon,
                      "params": {k: _q(v) for k, v in e.params.items()}})
        st = _write(workdir / f"structure-{i}.json",
                    {"schema": 1, "J": _matrix(e.J.matrix), "metric": _matrix(w.metric.matrix)})
        sh = _write(workdir / f"shear-{i}.json", _shear_doc(e.algebra, e.J.matrix, w.metric.matrix))
        code = 0 if w.expected[kind] else 1
        items.append(CliItem(f"describe/{i}", "describe", ("describe", alg), 0, alg))
        items.append(CliItem(f"check-{kind}/{i}", "check",
                             ("check", alg, st, "--condition", kind), code, alg))
        items.append(CliItem(f"shear-{kind}/{i}", "shear",
                             ("shear", sh, "--kind", kind, "--cross-check"), code))
        if i % 5 == 0:
            items.append(CliItem(f"roundtrip/{i}", "roundtrip", ("shear", sh, "--kind", "build"),
                                 0, alg))
    structure = json.loads((demo_dir / "standard_structure.json").read_text(encoding="utf-8"))
    st = _write(workdir / "demo-standard_structure.json", structure)
    J = tuple(tuple(Fraction(c) for c in row) for row in structure["J"])
    g = tuple(tuple(Fraction(c) for c in row) for row in structure["metric"])
    for name in DEMO_ALGEBRAS:
        doc = json.loads((demo_dir / f"{name}.json").read_text(encoding="utf-8"))
        alg = _write(workdir / f"demo-{name}.json", doc)
        stored = _stored_verdict(entries, load_algebra(doc), J, g)
        items.append(CliItem(f"describe/{name}", "describe", ("describe", alg), 0, alg))
        if stored is not None:
            items.append(CliItem(f"check-all/{name}", "check", ("check", alg, st),
                                 0 if all(stored.values()) else 1, alg))
    doc = json.loads((demo_dir / "counterexample_shear.json").read_text(encoding="utf-8"))
    sh = _write(workdir / "demo-counterexample_shear.json", doc)
    data, dg, dJ = load_shear_data(doc)
    stored = _stored_verdict(entries, build_shear(data), dJ.matrix, dg.matrix)
    if stored is not None:
        for kind in kinds:
            items.append(CliItem(f"shear-{kind}/counterexample_shear", "shear",
                                 ("shear", sh, "--kind", kind, "--cross-check"),
                                 0 if stored[kind] else 1))
    return items


def setup(seed: int, part: int, tr, workdir: Path) -> State:
    """The catalog and its CLI documents, with this part's own random
    metrics and normal forms; the run uses every part."""
    with tr.span("catalog.witness_lists_ms"):
        entries = witness_lists()
    with tr.span("catalog.verify_s"):
        rows = verify_catalog(entries)
    rng = random.Random(f"sparse-catalog/{seed}/{part}")
    items = []
    tables = {}  # dim -> bracket tables, for the denominator digits
    for e in entries:
        tables.setdefault(6, []).append(list(e.algebra.table.values()))
        for w in e.witnesses:
            items.append(VerdictItem(f"{e.name}/{w.label}", 6, e.salamon, dict(e.params), None,
                                     e.J.matrix, w.metric.matrix, w.expected))
        for k in range(DRAWS):
            with tr.span("generators.gen_ms", 6):
                g = random_compatible_metric(6, e.J, rng)
            items.append(VerdictItem(f"{e.name}/draw{k}", 6, e.salamon, dict(e.params), None,
                                     e.J.matrix, g.matrix, None))
    items += _normal_forms(rng)
    for item in items:
        if item.table is not None:
            tables.setdefault(item.dim, []).append(list(item.table.values()))
    digits = {
        dim: exact.den_digits(*tables[dim], *(i.g for i in items if i.dim == dim))
        for dim in NORMAL_FORM_DIMS
    }
    rng.shuffle(items)
    cli_items = _cli_items(entries, workdir, DEMO_DIR)
    # two verdict operations, then one CLI call, until both lists are covered
    triples = max((len(items) + 1) // 2, len(cli_items))
    ops = []
    for t in range(triples):
        ops += [items[(2 * t) % len(items)], items[(2 * t + 1) % len(items)],
                cli_items[t % len(cli_items)]]
    return State(workdir, all(ok for _, _, ok in rows), ops, digits)


def join(states: list) -> State:
    return State(
        states[0].workdir,
        all(st.catalog_ok for st in states),
        [op for st in states for op in st.ops],
        {dim: max(st.den_digits[dim] for st in states) for dim in NORMAL_FORM_DIMS},
    )


def operations(state: State) -> list:
    return state.ops


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _run_verdict(item: VerdictItem, tr) -> OpRecord:
    dim = item.dim
    t0 = time.perf_counter()
    if item.salamon is not None:
        with tr.span("salamon.parse_ms"):
            L = parse_salamon(item.salamon, item.params)
    else:
        L = LieAlgebra(dim, item.table)
    J = ComplexStructure(item.J)
    g = Metric(item.g)
    with tr.span("shear.from_bracket_ms", dim):
        data = pre_shear_from_bracket(L)
    v = exact.route_verdicts(tr, dim, L, data, g, J)
    seconds = time.perf_counter() - t0
    if tr.enabled:
        v["split"] = exact.split_verdicts(tr, dim, L, g, J)
    bad = exact.problems(v, item.expected)
    d = v["direct"]
    if item.expected is None and d["kahler"] != (d["balanced"] and d["skt"]):
        bad.append(f"kahler {d['kahler']} but balanced and skt is {d['balanced'] and d['skt']}")
    return OpRecord("verdict", item.label, dim, seconds, failed=bool(bad), note="; ".join(bad),
                    extra={"route_mismatch": exact.route_mismatch(v)})


def _run_cli(state: State, item: CliItem, tr) -> OpRecord:
    stem = "shear" if item.command == "roundtrip" else item.command
    t0 = time.perf_counter()
    with tr.span(f"cli.ms.{stem}"):
        code, out, err = _cli(item.argv)
    seconds = time.perf_counter() - t0
    bad, defect = [], False
    if code != item.expected_code:
        bad.append(f"exit {code}, stored verdict gives {item.expected_code}: {err.strip()}")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    if state.digests.setdefault(item.label, digest) != digest:
        bad.append("report bytes differ from the first call")
    if item.command == "roundtrip" and not bad:
        back = state.workdir / f"{item.label.replace('/', '-')}.json"
        back.write_text(json.dumps(json.loads(out)["algebra"]), encoding="utf-8")
        t1 = time.perf_counter()
        with tr.span("cli.ms.describe"):
            code, out, err = _cli(("describe", str(back)))
        seconds += time.perf_counter() - t1
        original = state.digests.get(f"describe/{item.label.split('/')[1]}")
        if code == 2 and ROUNDTRIP_DEFECT in err:
            defect = True
        elif code != 0 or hashlib.sha256(out.encode("utf-8")).hexdigest() != original:
            bad.append(f"emitted algebra reads back as exit {code}: {err.strip()}")
    if tr.enabled and item.algebra_doc is not None:
        with open(item.algebra_doc, encoding="utf-8") as fh:
            doc = json.load(fh)
        with tr.span(SPLIT), tr.span("documents.load_ms"):
            load_algebra(doc)
    return OpRecord("cli", item.label, 6, seconds, failed=bool(bad), known_defect=defect,
                    note="; ".join(bad) or ("round trip rejected: " + ROUNDTRIP_DEFECT if defect else ""))


def run(state: State, op, tr) -> OpRecord:
    if isinstance(op, CliItem):
        return _run_cli(state, op, tr)
    return _run_verdict(op, tr)


def end_to_end(records: list) -> dict:
    out = verdict_metrics(records, [r for r in records if r.kind == "verdict"], "operations",
                          {"verdict": 2, "cli": 1}, lambda r: r.kind)
    calls = [r.seconds * 1000 for r in records if r.kind == "cli"]
    p, value, n = tail(calls)
    out["cli_ms_p50"] = (median(calls), "ms", f"{n} calls")
    out["cli_ms_tail"] = (value, "ms", f"p{p:g} of {n} calls")
    return out


def per_layer(state: State, records: list, first_pass: list, tr) -> dict:
    out = exact.layer_times(tr, NORMAL_FORM_DIMS)
    for dim in NORMAL_FORM_DIMS:
        out[f"linalg.den_digits.d{dim}"] = (state.den_digits[dim], "digits")
    out["shear.route_mismatches"] = (
        sum(r.extra.get("route_mismatch", False) for r in first_pass), "count")
    for name in ("salamon.parse_ms", "documents.load_ms", "catalog.witness_lists_ms",
                 "cli.ms.describe", "cli.ms.check", "cli.ms.shear"):
        out[name] = (median(tr.durations(name)) * 1000, "ms")
    out["catalog.verify_s"] = (median(tr.durations("catalog.verify_s")), "s")
    return out


def notes(state: State) -> list[str]:
    out = [f"catalog.verify_catalog reproduces every stored verdict: {state.catalog_ok}"]
    out.append("cli report sha256 " + json.dumps(state.digests, sort_keys=True))
    return out
