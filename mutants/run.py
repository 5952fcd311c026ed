"""Mutation runner for the exact checks.

Each mutant below is one textual edit of a file under ``src/``.  For each,
the runner copies ``src/``, ``tests/``, ``demos/`` and ``pyproject.toml`` to
a temporary directory, applies the edit there (the old text must occur
exactly once), runs ``pytest -x -q -p no:cacheprovider`` on the copy and
prints ``killed`` when the suite fails, ``survived`` when it passes, and
``equivalent`` when it passes on a mutant listed as unable to change any
verdict or report.  The unmutated copy runs first and must pass.  The
repository itself is never written.

Run from anywhere, with the Python that runs the test suite:

    python3 mutants/run.py

It exits 1 when a mutant that is not equivalent survives.  Standard library
only; a full pass runs the suite once per surviving mutant, so it takes
several minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
TIMEOUT = 1800  # seconds; a suite that hangs under a mutant has caught it


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str  # what the check guards, or why the edit cannot change an output
    equivalent: bool = False


HERMITIAN, SEARCH, LINALG = "src/hermlie/hermitian.py", "src/hermlie/search.py", "src/hermlie/linalg.py"
CORE, SHEAR = "src/hermlie/core.py", "src/hermlie/shear.py"

MUTANTS = (
    Mutant(
        "coordinates-balanced-without-den", HERMITIAN,
        "[[den * (a == b) for b in range(len(rows))]", "[[int(a == b) for b in range(len(rows))]",
        "g H = I over g's denominator: without it H is off by that factor, so balanced coordinates are wrong",
    ),
    Mutant(
        "require-dim-all", HERMITIAN,
        "if any(x.dim != n for x in structures):", "if all(x.dim != n for x in structures):",
        "one structure of the wrong size among several must be refused",
    ),
    Mutant(
        "projection-coordinates-without-gcd", LINALG,
        "    g = gcd(den, *(c for c, in x))\n", "    g = 1\n",
        "the coordinates leave in lowest terms; unreduced, the witness and certificate entries change",
    ),
    Mutant(
        "check-certificate-without-shape", SEARCH,
        "    if len(Y) != L.dim or any(len(row) != L.dim for row in Y):\n        return False\n", "",
        "a Y of the wrong size is orthogonal to a truncated flattening of every kernel matrix",
    ),
    Mutant(
        "check-certificate-without-shear-kernel", SEARCH,
        "        kernel += shear_kernel(pre_shear_from_bracket(L), J, kind)\n", "        pass\n",
        "the shear route's kernel is the certificate's second, independent check",
    ),
    Mutant(
        "metric-at-without-balanced-inverse", HERMITIAN,
        'return Metric(linalg.inverse(m.matrix)) if kind == "balanced" else m', "return m",
        "balanced coordinates are H = g^-1, so the metric is their inverse",
    ),
    Mutant(
        "certifies-zero-minor", SEARCH,
        "all(minor > 0 for minor in", "all(minor >= 0 for minor in",
        "[[0, 1], [1, 0]] is indefinite although its first leading minor is 0",
    ),
    Mutant(
        "certifies-without-symmetry", SEARCH,
        "    if rows != [list(col) for col in zip(*rows)] or not any(flat):", "    if not any(flat):",
        "the minors of [[1, 0], [4, 1]] are 1 and 1 but its symmetric part is indefinite",
    ),
    Mutant(
        "certifies-without-orthogonality", SEARCH,
        "    if any(core.dot(flat, [c for row in m for c in row]) for m in kernel):\n        return False\n", "",
        "a semidefinite Y certifies only when it is orthogonal to every kernel matrix",
    ),
    Mutant(
        "witness-always-verified", SEARCH,
        "return exact.matrix, not condition_form(L, J, *exact.sigma_ints(J), kind)[0]", "return exact.matrix, True",
        "a definite X outside the kernel is not a witness",
    ),
    Mutant(
        "packed-kernel-width-one-bit-short", HERMITIAN,
        "for col in columns)).bit_length() + 1", "for col in columns)).bit_length()",
        "outputs at the gain bound carry into the next slot without the sign bit",
    ),
    Mutant(
        "minor-pivots-skip-on-zero-multiplier", LINALG,
        "            if f or p != prev:\n", "            if f:\n",
        "a row with a zero multiplier still divides by the previous pivot unless p equals it",
    ),
    Mutant(
        "kahler-shear-cyclic-sign", SHEAR,
        "(j, k, i, 1), (i, k, j, -1))", "(j, k, i, -1), (i, k, j, -1))",
        "tau is the cyclic sum of sigma(w(e_i, e_j), e_k); the shear route must agree with the direct one",
    ),
    Mutant(
        "skt-shear-split-sign", SHEAR,
        "    ((0, 2), (1, 3), -1),\n", "    ((0, 2), (1, 3), 1),\n",
        "each split carries the sign of its permutation; the shear route must agree with the direct one",
    ),
    Mutant(
        "balanced-shear-hj", SHEAR,
        "c = core.dot(h[a], jm[b])", "c = sum(h[a][t] * jm[t][b] for t in range(n2))",
        "P = H J^T pairs the rows of H with the rows of J, not with its columns",
    ),
    Mutant(
        "kahler-normal-form-zero-lambda", "src/hermlie/normal_forms.py",
        "    if len(lambdas) != r or any(c == 0 for c in lambdas):", "    if len(lambdas) != r:",
        "a zero lambda_k must be refused as a parameter constraint",
    ),
    Mutant(
        "require-integrable-without-integrability", HERMITIAN,
        "    if not is_integrable(L, J):\n        raise NotIntegrableError(",
        "    if False:\n        raise NotIntegrableError(",
        "every exact verdict and every search needs a J whose Nijenhuis tensor vanishes",
    ),
    Mutant(
        "is-integrable-key-without-den", HERMITIAN,
        "    key = (tuple(map(tuple, rows)), dj)\n    if key not in L.integrability",
        "    key = tuple(map(tuple, rows))\n    if key not in L.integrability",
        "J^2 = -I makes rows^2 = -dJ^2 I, so J's numerators fix its denominator dJ > 0",
        equivalent=True,
    ),
    Mutant(
        "sigma-key-without-den", HERMITIAN,
        "        key = (tuple(map(tuple, rows)), dj)\n        if key not in self.sigmas",
        "        key = tuple(map(tuple, rows))\n        if key not in self.sigmas",
        "as for is_integrable: J^2 = -I fixes dJ > 0 from J's numerators",
        equivalent=True,
    ),
    Mutant(
        "is-closed-without-pair-parity", CORE,
        "            total += -acc if (p + q) & 1 else acc\n", "            total += acc\n",
        "each pair [e_p, e_q] of d a(e_0, .., e_k) enters with the sign (-1)^(p+q)",
    ),
    Mutant(
        "is-closed-early-return-inverted", CORE,
        "            total += -acc if (p + q) & 1 else acc\n        if total:\n",
        "            total += -acc if (p + q) & 1 else acc\n        if not total:\n",
        "the zero test stops at the first nonzero output coefficient, not at the first zero one",
    ),
    Mutant(
        "shear-algebra-without-negation", SHEAR,
        "LieAlgebra.from_ints(self.omega.ints.negated())", "LieAlgebra.from_ints(self.omega.ints)",
        "shear data builds [x, y] = -w(x, y); no verdict sees the sign, as d, Jacobi and Nijenhuis "
        "vanish together for w and -w, but the algebra's table does",
    ),
    Mutant(
        "jacobi-width-one-bit-short", CORE,
        "width = (3 * n * b.top * b.top).bit_length() + 1", "width = (3 * n * b.top * b.top).bit_length()",
        "jacobi_residual reads the packed sums back, and a coordinate near 3 n M^2 needs the sign bit",
    ),
    Mutant(
        "nijenhuis-width-one-bit-short", HERMITIAN,
        "+ dj * dj) * b.top).bit_length()\n", "+ dj * dj) * b.top).bit_length() - 1\n",
        "a Nijenhuis coordinate at its bound 4M for the standard J fills the width, and the next slot can cancel it",
    ),
    Mutant(
        "wedge-vanishes-without-sign-parity", CORE,
        "total += -ca * cb if (mb & _above_parity(ma)).bit_count() & 1 else ca * cb", "total += ca * cb",
        "each split of an output mask enters the wedge with the sign that sorts it",
    ),
    Mutant(
        "classify-balanced-power-n-minus-1", HERMITIAN,
        "core.power(sigma, L.dim // 2 - 2)", "core.power(sigma, L.dim // 2 - 1)",
        "d(sigma^(n-1)) is d sigma ^ sigma^(n-2); one degree more is a form above the top degree, always zero",
    ),
    Mutant(
        "pre-shear-image-fast-path-accepts", SHEAR,
        "        if not all(in_span(basis, row) for row in self.image_ints):\n", "        if False:\n",
        "im(w) inside a is tested on the echelon rows of im(w); skipping it accepts data whose values leave a",
    ),
    Mutant(
        "bilinear-pair-check-allows-i-equal-j", CORE,
        "            if not 1 <= i < j <= dim:\n", "            if not 1 <= i <= j <= dim:\n",
        "a pair (i, i) names no bracket; a table holding one must be refused, not read as w(e_i, e_i)",
    ),
    Mutant(
        "bilinear-terms-unsorted", CORE,
        "        for (i, j), v in sorted(table.items()):\n", "        for (i, j), v in table.items():\n",
        "the terms, and so every Fraction table read back, follow the pairs' order, not the caller's dict",
    ),
    Mutant(
        "fraction-exponent-guard-tenfold", "src/hermlie/documents.py",
        "if exponent and abs(int(exponent[1])) > limit + len(value):",
        "if exponent and abs(int(exponent[1])) > 10 * (limit + len(value)):",
        "cost only: a longer expansion still fails the digit limit after it, and "
        "test_oversized_rational bounds each expansion below 7 exponent digits and 1 s",
        equivalent=True,
    ),
)


def _mutated(mutant: Mutant) -> str:
    """The mutant's file as the edit leaves it; the old text must occur once."""
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def _passes(mutant: Mutant | None) -> bool:
    """Whether the suite passes on a fresh copy with ``mutant`` applied:
    False on pytest's exit code 1 (a test failed), 2 (collection failed)
    or a timeout."""
    with tempfile.TemporaryDirectory(prefix="hermlie-mutant-") as tmp:
        dest = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, dest / name)
        if mutant is not None:
            (dest / mutant.file).write_text(_mutated(mutant), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        env = dict(os.environ, PYTHONPATH=str(dest / "src"))
        try:
            proc = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return False
    if proc.returncode not in (0, 1, 2):
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode == 0


def main() -> int:
    for mutant in MUTANTS:  # every edit must apply before anything runs
        _mutated(mutant)
    if not _passes(None):
        print("the unmutated copy fails its tests; no mutant can be judged")
        return 2
    open_survivors = 0
    for mutant in MUTANTS:
        t0 = time.monotonic()
        outcome = "killed" if not _passes(mutant) else "equivalent" if mutant.equivalent else "survived"
        open_survivors += outcome == "survived"
        print(f"{outcome:<10} {mutant.name} ({time.monotonic() - t0:.0f} s): {mutant.reason}", flush=True)
    print(f"{len(MUTANTS)} mutants, {open_survivors} surviving that are not equivalent")
    return 1 if open_survivors else 0


if __name__ == "__main__":
    sys.exit(main())
