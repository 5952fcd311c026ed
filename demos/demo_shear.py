"""Two routes to every verdict.

Any two-step solvable algebra arises from a subspace a of R^{2n} and an
a-valued two-form w vanishing on a x a, via [x, y] = -w(x, y).  The three
metric conditions then have closed-form equations directly on (a, w), and
those must agree with the differential computation on the built algebra.
This demo reconstructs shear data from a bracket table, checks the
equations, and cross-validates the oracles on seeded random data.
"""

from hermlie import (
    ComplexStructure,
    Metric,
    build_shear,
    check_complex_shear,
    classify_metric,
    parse_salamon,
    pre_shear_from_bracket,
    shear_condition,
    shear_operators,
)
from hermlie.generators import PROFILES, random_complex_shear

L = parse_salamon("(0,21,0,0,43,0)")
J = ComplexStructure.standard(6)
g = Metric.identity(6)

data = pre_shear_from_bracket(L)
print("pre-shear data valid:", data.pre_shear.valid)
print("closure + integrability:", check_complex_shear(data, J))
print("rebuilt algebra equals the original:", build_shear(data) == L)

print("\ncondition oracles on the data:")
for kind in ("kahler", "balanced", "skt"):
    print(f"  {kind:9s}", shear_condition(data, g, J, kind))

ops, report = shear_operators(data, g, J)
print("\noperator identity report clean:", report.clean)
print("a_J, a_r, U_J dims:", ops.a_J.dim, ops.a_r.dim, ops.U_J.dim)

print("\ncross-validating on seeded random data:")
mismatches = 0
checked = 0
for profile in PROFILES:
    dims = (6,) if profile == "mixed" else (4, 6)
    for dim in dims:
        for seed in range(3):
            d, gg, jj = random_complex_shear(seed, profile, dim)
            v = classify_metric(build_shear(d), gg, jj)
            for kind in ("kahler", "balanced", "skt"):
                checked += 1
                if shear_condition(d, gg, jj, kind) != v[kind]:
                    mismatches += 1
print(f"checked {checked} verdicts, {mismatches} mismatches")
