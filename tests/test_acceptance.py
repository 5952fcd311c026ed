"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The criteria functions live in hermlie.verify, which also backs the
``hermlie verify-paper`` command; every tolerance is pinned there.  The
harness runs once per module, as ``verify-paper`` runs it, and each test
reads its criterion's result.  Wall clock limits are asserted where the
criterion states one.
"""

import ast
import time

import pytest

from hermlie import verify


@pytest.fixture(scope="module")
def harness():
    """Each criterion's result by number, and the wall time of the whole pass."""
    t0 = time.time()
    results = verify.run_criteria(out=lambda line: None)
    return {r.number: r for r in results}, time.time() - t0


def _run(harness, number, budget=None):
    r = harness[0][number]
    print(f"[{'PASS' if r.passed else 'FAIL'}] criterion {number} ({r.seconds:.2f}s): {r.name}: {r.details}")
    assert r.passed, f"criterion {number}: {r.details}"
    if budget is not None:
        assert r.seconds < budget, f"criterion {number} exceeded {budget}s ({r.seconds:.1f}s)"
    return ast.literal_eval(r.details)


def test_criterion_01_counterexample_type_I(harness):
    _run(harness, 1, budget=1.0)


def test_criterion_02_counterexample_type_III(harness):
    _run(harness, 2, budget=1.0)


def test_criterion_03_oracle_equivalence(harness):
    details = _run(harness, 3, budget=60.0)
    assert details["instances"] >= 500


def test_criterion_04_balanced_structural(harness):
    details = _run(harness, 4, budget=30.0)
    assert details["instances"] >= 200


def test_criterion_05_kahler_normal_forms(harness):
    details = _run(harness, 5)
    assert all(v >= 100 for v in details.values())


def test_criterion_06_typeII_skt(harness):
    details = _run(harness, 6)
    assert details["constructed"] >= 100
    assert details["perturbed"] >= 100
    assert details["normalized"] >= 100


def test_criterion_07_six_dimensional_lists(harness):
    _run(harness, 7)


def test_criterion_08_compatibility_pipeline(harness):
    details = _run(harness, 8)
    assert details["outputs"] >= 10


def test_criterion_09_metric_search(harness):
    # the criterion itself asserts the 10 s limit on each search
    details = _run(harness, 9)
    for entry in details.values():
        assert entry["residual"] < 1e-9


def test_criterion_09_details_repeat(harness, monkeypatch):
    """The details hold no wall time, so ``verify-paper --json`` repeats."""
    monkeypatch.setattr(verify, "CRITERIA", tuple(c for c in verify.CRITERIA if c[0] == 9))
    first, second = harness[0][9], verify.run_criteria(out=lambda line: None)[0]
    assert first.passed and first.details == second.details


def test_criterion_10_special_pair_forces_closed(harness):
    details = _run(harness, 10, budget=60.0)
    assert details["instances"] >= 500


def test_full_suite_under_budget(harness):
    """The whole harness finishes comfortably within five minutes."""
    results, elapsed = harness
    assert sorted(results) == [number for number, _, _ in verify.CRITERIA]
    assert all(r.passed for r in results.values()), [n for n, r in results.items() if not r.passed]
    assert elapsed < 300, f"verify-paper took {elapsed:.0f}s"
