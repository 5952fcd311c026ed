"""Command line interface.

Subcommands: describe, check, shear, search, catalog, verify-paper.
Exit codes follow one contract everywhere: 0 when the requested conditions
hold, 1 when a condition was checked and is false, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import algebra as al
from .catalog import verify_catalog, witness_lists
from .documents import (
    SCHEMA,
    DocumentError,
    algebra_doc,
    dump_report,
    fraction_str,
    load_algebra,
    load_complex_structure,
    load_metric,
    load_shear_data,
    matrix_doc,
)
from .errors import HermlieError
from .hermitian import KINDS, Metric, classify_metric, condition_forms, hermitian_decomposition, squared_norm
from .salamon import MAX_DIM, render_salamon
from .search import search_metric
from .shear import build_shear, check_complex_shear, shear_condition, validate_pre_shear
from .verify import run_criteria

PASS, FAIL, INVALID = 0, 1, 2


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DocumentError(f"no such file: {path}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
        raise DocumentError(f"{path}: invalid JSON: {exc}") from None


def _emit(report: dict) -> None:
    sys.stdout.write(dump_report(report))


def cmd_describe(args) -> int:
    L = load_algebra(_read_json(args.algebra))
    fp = al.structure_invariants(L)
    report = {
        "schema": SCHEMA,
        "dim": L.dim,
        "fingerprint": {k: v for k, v in vars(fp).items() if k != "dim"},
        "two_step_solvable": al.is_two_step_solvable(L),
        "citations": ["structural invariants are exact and basis independent"],
    }
    if L.dim <= MAX_DIM:
        report["salamon"] = render_salamon(L)
    _emit(report)
    return PASS


def cmd_check(args) -> int:
    L = load_algebra(_read_json(args.algebra))
    structure = _read_json(args.structure)
    J = load_complex_structure(structure, L.dim)
    g = load_metric(structure, L.dim)
    forms = condition_forms(L, g, J)
    verdicts = {kind: not nums for kind, (nums, _) in forms.items()}
    dec = hermitian_decomposition(L, g, J)
    report = {
        "schema": SCHEMA,
        "verdicts": verdicts,
        "decomposition": {"s": dec.s, "r": dec.r, "l": dec.ell, "pure_type": dec.pure_type},
        "residuals": {kind: squared_norm(form) for kind, form in forms.items()},
        "citations": [
            "kahler: d sigma = 0",
            "balanced: d sigma^(n-1) = 0",
            "skt: d J* d sigma = 0",
        ],
    }
    _emit(report)
    requested = KINDS if args.condition == "all" else (args.condition,)
    return PASS if all(verdicts[k] for k in requested) else FAIL


def cmd_shear(args) -> int:
    data, g, J = load_shear_data(_read_json(args.data))
    report = {"schema": SCHEMA, "pre_shear_valid": validate_pre_shear(data).valid}
    if not report["pre_shear_valid"]:
        raise DocumentError("document does not describe pre-shear data")
    code = PASS
    if args.kind == "build":
        L = build_shear(data)
        report["algebra"] = algebra_doc(L)
        report["two_step_solvable"] = al.is_two_step_solvable(L)
    else:
        if J is None:
            raise DocumentError('condition checks need a "J" entry in the document')
        g = g or Metric.identity(data.dim)
        cs = check_complex_shear(data, J)
        report["complex_shear"] = {"jacobi_ok": cs.jacobi_ok, "integrable_ok": cs.integrable_ok}
        verdict = shear_condition(data, g, J, args.kind)
        report["verdicts"] = {args.kind: verdict}
        code = PASS if verdict else FAIL
        if args.cross_check:
            direct = classify_metric(build_shear(data), g, J)[args.kind]
            report["cross_check"] = {"direct": direct, "agreement": direct == verdict}
            if not report["cross_check"]["agreement"]:
                code = FAIL
    report["citations"] = ["conditions evaluated on the shear data, exactly"]
    _emit(report)
    return code


def cmd_search(args) -> int:
    L = load_algebra(_read_json(args.algebra))
    J = load_complex_structure(_read_json(args.j_file), L.dim)
    result = search_metric(L, J, args.target)
    report = {
        "schema": SCHEMA,
        "search": result.summary(),
        "citations": [
            "a found witness is evidence, certified when exact_verified; none is certified: "
            "certificate_exact is a nonzero positive semidefinite Y with tr(Y X) = 0 for "
            "every compatible X in the condition's kernel (X = G^-1 for balanced), so no "
            "such X is definite; not_found is inconclusive"
        ],
    }
    if result.metric is not None:
        report["metric_float"] = [[float(c) for c in row] for row in result.metric]
    if result.exact_metric is not None:
        report["metric_exact"] = matrix_doc(result.exact_metric)
    if result.certificate is not None:
        report["certificate_exact"] = matrix_doc(result.certificate)
    _emit(report)
    return PASS if result.status == "found" else FAIL


def cmd_catalog(args) -> int:
    entries = witness_lists()
    rows = verify_catalog(entries) if args.verify else None
    report = {
        "schema": SCHEMA,
        "entries": [
            {
                "name": e.name,
                "salamon": e.salamon,
                "params": {k: fraction_str(v) for k, v in e.params.items()},
                "witnesses": [
                    {"label": w.label, "expected": w.expected} for w in e.witnesses
                ],
                "citation": e.citation,
                "notes": e.notes,
            }
            for e in entries
        ],
        "citations": ["stored verdicts reproduce under the exact checks"],
    }
    if rows is not None:
        report["verification"] = [
            {"entry": name, "witness": label, "ok": ok} for name, label, ok in rows
        ]
    _emit(report)
    if rows is not None and not all(ok for _, _, ok in rows):
        return FAIL
    return PASS


def cmd_verify_paper(args) -> int:
    sink = (lambda line: None) if args.json else print
    results = run_criteria(out=sink)
    ok = all(r.passed for r in results)
    if args.json:
        report = {
            "schema": SCHEMA,
            "criteria": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "seconds": round(r.seconds, 3),
                    "details": r.details,
                }
                for r in results
            ],
            "all_passed": ok,
        }
        _emit(report)
    else:
        failing = [r.number for r in results if not r.passed]
        print("all criteria passed" if ok else f"failing criteria: {failing}")
    return PASS if ok else FAIL


@functools.cache  # one per process: it holds only constants and the cmd_* functions
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermlie",
        description="Exact checks and searches for Kahler, balanced and SKT "
        "structures on two-step solvable Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="structural invariants of an algebra")
    p.add_argument("algebra", help="AlgebraDocument JSON file")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("check", help="exact metric condition verdicts")
    p.add_argument("algebra")
    p.add_argument("structure", help='JSON with "J" and "metric" matrices')
    p.add_argument("--condition", choices=list(KINDS) + ["all"], default="all")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("shear", help="evaluate shear data or build its algebra")
    p.add_argument("data", help="shear data JSON file")
    p.add_argument("--kind", choices=list(KINDS) + ["build"], required=True)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(fn=cmd_shear)

    p = sub.add_parser("search", help="numerical witness search")
    p.add_argument("algebra")
    p.add_argument("j_file", help='JSON with a "J" matrix')
    p.add_argument("--target", choices=KINDS, required=True)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("catalog", help="list the six-dimensional witness entries")
    p.add_argument("--verify", action="store_true", help="recompute every stored verdict")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("verify-paper", help="run the acceptance criteria")
    p.add_argument("--json", action="store_true", help="machine readable summary")
    p.set_defaults(fn=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HermlieError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
