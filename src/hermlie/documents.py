"""JSON document schemas for the command-line interface.

Rationals travel as "p/q" strings so nothing is ever rounded; reports are
serialised with sorted keys and fixed separators, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import linalg
from .algebra import LieAlgebra, Subspace, make_algebra
from .errors import HermlieError
from .forms import VectorValuedTwoForm
from .hermitian import ComplexStructure, Metric
from .salamon import parse_salamon
from .shear import PreShearData

SCHEMA = 1


class DocumentError(HermlieError):
    """Malformed or inconsistent input document."""


def _fraction(value) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {value!r}: {exc}") from None
    raise DocumentError(f"rationals must be strings or integers, got {value!r}")


def _fraction_matrix(rows, what: str):
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{what} must be a nonempty list of rows")
    return tuple(tuple(_fraction(c) for c in row) for row in rows)


def _fraction_vector(row, what: str):
    if not isinstance(row, list):
        raise DocumentError(f"{what} must be a list")
    return tuple(_fraction(c) for c in row)


def _document(doc, what: str) -> None:
    """Check that ``doc`` is a JSON object whose "schema", when present, is ours."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    schema = doc.get("schema", SCHEMA)
    if type(schema) is not int or schema != SCHEMA:
        raise DocumentError(f'"schema" must be {SCHEMA}, got {schema!r}')


def _field(doc: dict, key: str, kind: type, default=None):
    """``doc[key]``, which must be a JSON value of type ``kind`` (bool is not int)."""
    value = doc.get(key, default)
    if type(value) is not kind:
        noun = {int: "an integer", str: "a string", list: "a list", dict: "a JSON object"}[kind]
        raise DocumentError(f'"{key}" must be {noun}, got {value!r}')
    return value


def load_algebra(doc: dict) -> LieAlgebra:
    """AlgebraDocument: {"dim", "salamon" and/or "constants", "params"}.

    A document may carry both notations, as ``algebra_doc`` writes them;
    they must then describe the same algebra.
    """
    _document(doc, "algebra")
    if "salamon" not in doc and "constants" not in doc:
        raise DocumentError('one of "salamon" or "constants" must be present')
    params = {k: _fraction(v) for k, v in _field(doc, "params", dict, {}).items()}
    dim = _field(doc, "dim", int) if "dim" in doc else None
    try:
        parsed = []
        if "salamon" in doc:
            parsed.append(parse_salamon(_field(doc, "salamon", str), params))
        if "constants" in doc:
            if dim is None:
                raise DocumentError('"constants" need an integer "dim"')
            constants = [
                (int(i), int(j), int(k), _fraction(c)) for i, j, k, c in doc["constants"]
            ]
            L = make_algebra(dim, constants)
            if not L.validated:
                raise DocumentError(
                    f"structure constants violate Jacobi (residual {L.jacobi_residual()})"
                )
            parsed.append(L)
    except HermlieError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise DocumentError(f"bad algebra document: {exc}") from None
    L = parsed[0]
    if any(other != L for other in parsed[1:]):
        raise DocumentError('"salamon" and "constants" describe different algebras')
    if dim is not None and dim != L.dim:
        raise DocumentError(f'"dim" is {doc["dim"]} but the algebra has dimension {L.dim}')
    return L


def load_complex_structure(doc: dict, dim: int) -> ComplexStructure:
    _document(doc, "structure")
    if "J" not in doc:
        raise DocumentError('structure document needs a "J" matrix')
    m = _fraction_matrix(doc["J"], '"J"')
    if len(m) != dim:
        raise DocumentError(f'"J" must be {dim}x{dim}')
    return ComplexStructure(m)


def load_metric(doc: dict, dim: int) -> Metric:
    _document(doc, "structure")
    if "metric" not in doc:
        raise DocumentError('structure document needs a "metric" matrix')
    m = _fraction_matrix(doc["metric"], '"metric"')
    if len(m) != dim:
        raise DocumentError(f'"metric" must be {dim}x{dim}')
    return Metric(m)


def load_shear_data(doc: dict):
    """ShearDataDocument: {"dim", "a", "omega", "J"?, "metric"?}."""
    _document(doc, "shear")
    if "dim" not in doc:
        raise DocumentError('shear document needs an integer "dim"')
    dim = _field(doc, "dim", int)
    if dim < 1:
        raise DocumentError(f'"dim" must be positive, got {dim}')
    a = Subspace.span(dim, [_fraction_vector(v, '"a" vector') for v in _field(doc, "a", list, [])])
    values = {}
    for item in _field(doc, "omega", list, []):
        try:
            i, j = int(item["i"]), int(item["j"])
            v = _fraction_vector(item["value"], '"omega" value')
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"bad omega entry: {exc}") from None
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        values[(i, j)] = linalg.scale_vec(sign, v)
    data = PreShearData(dim, a, VectorValuedTwoForm(dim, a, values))
    J = load_complex_structure(doc, dim) if "J" in doc else None
    g = load_metric(doc, dim) if "metric" in doc else None
    return data, g, J


def fraction_str(x: Fraction) -> str:
    return str(Fraction(x))


def matrix_doc(m) -> list:
    return [[fraction_str(c) for c in row] for row in m]


def algebra_doc(L: LieAlgebra) -> dict:
    """The algebra as a document ``load_algebra`` reads back.

    ``salamon`` is left out above dimension 9, where its index pairs would
    need multi-digit indices and stop being unambiguous.
    """
    from .salamon import render_salamon

    doc = {
        "schema": SCHEMA,
        "dim": L.dim,
        "constants": [
            [i, j, k, fraction_str(c)] for (i, j, k, c) in L.structure_constants()
        ],
    }
    if L.dim <= 9:
        doc["salamon"] = render_salamon(L)
    return doc


def dump_report(doc: dict) -> str:
    """Canonical serialisation: sorted keys, fixed separators, newline."""
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
