"""Every verdict and kernel dimension survives a change of basis.

For an invertible rational P that commutes with J, P is an isomorphism from
(P^-1 [P., P.], J, P^T g P) onto (L, J, g), so every exact answer about the
pair must come out the same in both bases, the status of every search
included.  P = (A - JAJ)/2 is not unitary, so the Frobenius geometry of the
kernels moves and the two routes see new numbers.  Hypothesis draws the
instance (a profile, a seed and a dimension from 4 to 8) and the int entries
of A; every catalog entry is drawn against with its witness metrics.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from hermlie import algebra as al
from hermlie import linalg as la
from hermlie.catalog import witness_lists
from hermlie.generators import FIXED_DIMS, PROFILES, random_complex_shear
from hermlie.hermitian import KINDS, Metric, balanced_structural, classify_metric, condition_kernel
from hermlie.search import search_metric
from hermlie.shear import build_shear, pre_shear_from_bracket, shear_condition, shear_kernel

from conftest import commuting_part

# every profile at every dimension from 4 to 8 that it exists in
CELLS = [(profile, dim) for profile in PROFILES for dim in (4, 6, 8) if dim in FIXED_DIMS.get(profile, (dim,))]
CATALOG = witness_lists()
# derandomized, so that the suite runs the same draws every time
DRAWS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
CATALOG_DRAWS = settings(max_examples=4, deadline=None, derandomize=True, database=None)


def _change(data, J):
    """P = (A - JAJ) / 2 for a drawn int A, assumed invertible."""
    row = st.lists(st.integers(-3, 3), min_size=J.dim, max_size=J.dim)
    p = commuting_part(J, data.draw(st.lists(row, min_size=J.dim, max_size=J.dim)))
    assume(la.det(p))
    return p


def _invariants(L, J, metrics):
    """Per metric the three direct verdicts, the structural balanced verdict
    and the three shear verdicts; per kind the dimensions of the direct and
    of the shear kernel, and the status of the search, which must decide,
    every none by the faces."""
    data = pre_shear_from_bracket(L)
    verdicts = [
        (
            classify_metric(L, g, J).as_dict(),
            balanced_structural(L, g, J).balanced,
            {kind: shear_condition(data, g, J, kind) for kind in KINDS},
        )
        for g in metrics
    ]
    dims = {kind: (len(condition_kernel(L, J, kind)), len(shear_kernel(data, J, kind))) for kind in KINDS}
    results = {kind: search_metric(L, J, kind) for kind in KINDS}
    statuses = {kind: result.status for kind, result in results.items()}
    assert "not_found" not in statuses.values(), statuses
    for kind, result in results.items():
        if result.status == "none":  # the faces certify ahead of the solver
            assert (result.route, result.iterations, result.seed) == ("projection", 0, None), (kind, result)
    return verdicts, dims, statuses


def _assert_invariant(L, J, metrics, p):
    pulled = [Metric(la.mat_mul(la.transpose(p), la.mat_mul(g.matrix, p))) for g in metrics]
    assert _invariants(al.change_basis(L, p), J, pulled) == _invariants(L, J, metrics)


@DRAWS
@given(st.sampled_from(CELLS), st.integers(0, 1000), st.data())
def test_generated_instance(cell, seed, data):
    profile, dim = cell
    shear, g, J = random_complex_shear(seed, profile, dim)
    _assert_invariant(build_shear(shear), J, [g], _change(data, J))


@pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
@CATALOG_DRAWS
@given(data=st.data())
def test_catalog_entry(entry, data):
    metrics = [w.metric for w in entry.witnesses]
    _assert_invariant(entry.algebra, entry.J, metrics, _change(data, entry.J))
