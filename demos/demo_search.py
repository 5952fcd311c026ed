"""Exact feasibility search: certified witnesses and certified non-existence.

For each kind the special metrics are the definite matrices of one exact
rational subspace K, so the search decides whether K meets the positive
definite cone.  It first projects I onto K exactly: a definite projection P
is the witness, certified with the exact checks, and otherwise a positive
semidefinite I - P, which is orthogonal to K, proves that no compatible
metric of that kind exists for this J.  Only when neither holds does the
numerical solver run.  Each line names the route that decided.
"""

import time

from hermlie import (
    ComplexStructure,
    Metric,
    check_certificate,
    classify_metric,
    parse_salamon,
    search_metric,
)

J = ComplexStructure.standard(6)

for label, salamon, kind in (
    ("closed form on the rank-two family", "(25,-15,46,-36,0,0)", "kahler"),
    ("torsion metric on the counterexample", "(0,21,0,0,43,0)", "skt"),
    ("balanced metric on the counterexample", "(0,21,0,0,43,0)", "balanced"),
):
    L = parse_salamon(salamon)
    t0 = time.time()
    result = search_metric(L, J, kind)
    print(f"{label}: {result.status} in {time.time()-t0:.3f}s by the {result.route}, "
          f"seed {result.seed}, {result.iterations} Newton steps")
    if result.exact_verified:
        g = Metric(result.exact_metric)
        print("  exact certificate:", classify_metric(L, g, J))

L = parse_salamon("(0,21,0,0,43,0)")
t0 = time.time()
result = search_metric(L, J, "kahler")
print(f"closed form on the counterexample: {result.status} in {time.time()-t0:.3f}s by the {result.route}")
if result.status == "none":
    print("  no Kahler metric is compatible with this J; the certificate Y:")
    for row in result.certificate:
        print("   ", " ".join(f"{str(c):>4}" for c in row))
    print("  re-checked exactly:", check_certificate(L, J, "kahler", result.certificate))
