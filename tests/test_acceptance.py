"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The criteria functions live in hermlie.verify, which also backs the
``hermlie verify-paper`` command; every tolerance is pinned there.  Wall
clock limits are asserted where the criterion states one.
"""

import time

from hermlie import verify


def _run(number, name, fn, budget=None):
    t0 = time.time()
    try:
        details = fn()
    except AssertionError as exc:
        print(f"[FAIL] criterion {number}: {name}: {exc}")
        raise
    elapsed = time.time() - t0
    print(f"[PASS] criterion {number} ({elapsed:.2f}s): {name}: {details}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    return details


def test_criterion_01_counterexample_type_I():
    _run(1, "type I counterexample reproduction", verify.criterion_counterexample_type_I, budget=1.0)


def test_criterion_02_counterexample_type_III():
    _run(2, "type III counterexample reproduction", verify.criterion_counterexample_type_III, budget=1.0)


def test_criterion_03_oracle_equivalence():
    details = _run(3, "shear-data oracle equivalence", verify.criterion_oracle_equivalence, budget=60.0)
    assert details["instances"] >= 500


def test_criterion_04_balanced_structural():
    details = _run(4, "structural balanced criterion", verify.criterion_balanced_structural, budget=30.0)
    assert details["instances"] >= 200


def test_criterion_05_kahler_normal_forms():
    details = _run(5, "closed-form normal forms", verify.criterion_kahler_normal_forms)
    assert all(v >= 100 for v in details.values())


def test_criterion_06_typeII_skt():
    details = _run(6, "type II torsion family", verify.criterion_typeII_skt)
    assert details["constructed"] >= 100
    assert details["perturbed"] >= 100
    assert details["normalized"] >= 100


def test_criterion_07_six_dimensional_lists():
    _run(7, "six-dimensional witness lists", verify.criterion_six_dimensional_lists)


def test_criterion_08_compatibility_pipeline():
    details = _run(8, "special-metric merge pipeline", verify.criterion_compatibility_pipeline)
    assert details["outputs"] >= 10


def test_criterion_09_metric_search():
    # the criterion itself asserts the 10 s limit on each search
    details = _run(9, "numerical witness search", verify.criterion_metric_search)
    for entry in details.values():
        assert entry["residual"] < 1e-9


def test_criterion_09_details_repeat():
    """The details hold no wall time, so ``verify-paper --json`` repeats."""
    first, second = (verify.run_criteria([9], out=lambda line: None)[0] for _ in range(2))
    assert first.passed and first.details == second.details


def test_criterion_10_special_pair_forces_closed():
    details = _run(10, "balanced + SKT forces closed", verify.criterion_special_pair_is_closed, budget=60.0)
    assert details["instances"] >= 500


def test_full_suite_under_budget():
    """The whole harness finishes comfortably within five minutes."""
    t0 = time.time()
    results = verify.run_criteria(out=lambda line: None)
    elapsed = time.time() - t0
    assert all(r.passed for r in results), [r.number for r in results if not r.passed]
    assert elapsed < 300, f"verify-paper took {elapsed:.0f}s"
