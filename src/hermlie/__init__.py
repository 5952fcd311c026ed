"""Exact decision procedures for Kahler, balanced and SKT structures on
two-step solvable Lie algebras, plus a compatible-metric feasibility search.

The core layers:

* :mod:`hermlie.algebra`, :mod:`hermlie.forms` -- rational Lie algebras,
  alternating forms, the invariant-form differential;
* :mod:`hermlie.core` -- the integer operator core: every exact verdict
  is a zero test on int numerators over common denominators;
* :mod:`hermlie.hermitian` -- metric condition verdicts, the orthogonal
  decomposition, the structural balanced criterion;
* :mod:`hermlie.shear` -- the Abelian-base shear construction and the
  condition equations directly on shear data;
* :mod:`hermlie.normal_forms`, :mod:`hermlie.catalog` -- constructors for
  the classified families and the six-dimensional witness lists;
* :mod:`hermlie.search` -- the feasibility search: exact certification of
  found witnesses and exact certificates of non-existence;
* :mod:`hermlie.verify` -- the reproducibility harness behind
  ``hermlie verify-paper``.
"""

from .algebra import (
    Fingerprint,
    LieAlgebra,
    Subspace,
    abelian,
    direct_sum,
    image_of_bracket,
    intersect,
    is_two_step_solvable,
    is_unimodular,
    make_algebra,
    orthogonal_complement,
    structure_invariants,
    subspace_sum,
)
from .catalog import CatalogEntry, named_algebra, witness_lists
from .forms import KForm, VectorValuedTwoForm, ce_differential, evaluate, j_pullback, wedge
from .hermitian import (
    ComplexStructure,
    HermitianDecomposition,
    Metric,
    MetricVerdicts,
    UnitaryBasis,
    balanced_structural,
    classify_metric,
    condition_kernel,
    fingerprint_distinguish,
    fundamental_form,
    hermitian_decomposition,
    kahler_from_skt_and_balanced_typeII,
    normalize_skt_typeII,
    unitary_basis,
    validate_complex_structure,
)
from .normal_forms import (
    Cq,
    KahlerNormalForm,
    SixDNonPureData,
    TypeIINormalForm,
    kahler_normal_form,
    skt_6d_nonpure_normal_form,
    skt_typeII_normal_form,
)
from .salamon import parse_salamon, render_salamon
from .search import (
    SearchConfig,
    SearchResult,
    check_certificate,
    metric_parameterization,
    search_metric,
)
from .shear import (
    PreShearData,
    build_shear,
    check_complex_shear,
    pre_shear_from_bracket,
    shear_condition,
    shear_kernel,
    shear_operators,
    validate_pre_shear,
)

__version__ = "0.1.0"
