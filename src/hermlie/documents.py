"""JSON document schemas for the command-line interface.

Rationals travel as "p/q" strings so nothing is ever rounded; reports are
serialised with sorted keys and fixed separators, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .algebra import LieAlgebra, Subspace, make_algebra
from .errors import HermlieError
from .forms import VectorValuedTwoForm
from .hermitian import ComplexStructure, Metric
from .salamon import MAX_DIM, MAX_DOCUMENT_DIM, parse_salamon, render_salamon
from .shear import PreShearData

SCHEMA = 1


class DocumentError(HermlieError):
    """Malformed or inconsistent input document."""


# the exponent of a decimal literal such as "1.5e-3", as ``Fraction`` reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _fraction(value) -> Fraction:
    """A rational from a JSON string or integer (a bool is neither) whose
    numerator and denominator Python will write in decimal."""
    if type(value) not in (str, int):
        raise DocumentError(f"rationals must be strings or integers, got {value!r}")
    plain = type(value) is str and len(value) <= 20 and value.isascii() and value.removeprefix("-").isdigit()
    if plain or type(value) is int and -10**20 < value < 10**20:
        return Fraction(int(value))  # a short plain integer skips Fraction's parser and the digit limit
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(value) if limit and type(value) is str else None
    try:
        # 10^e with |e| past the limit by more than the literal's length takes a
        # nonzero mantissa past the limit: decide before Fraction expands it
        if exponent and abs(int(exponent[1])) > limit + len(value):
            if Fraction(value[: exponent.start()]):
                raise ValueError(f"more than {limit} digits")
            return Fraction(0)
        x = Fraction(value)
        # without an exponent, numerator and denominator have at most as many digits as
        # the literal has characters: a decimal's 10^k has k + 1, its point and k decimals
        if limit and (exponent or type(value) is int or len(value) > limit):
            str(x)  # a ValueError past the digit limit
    except (ValueError, ZeroDivisionError) as exc:
        # an int gets here only past the digit limit, where repr would raise too
        shown = repr(value) if type(value) is str else "integer"
        raise DocumentError(f"bad rational {shown}: {exc}") from None
    return x


def _index(value, what: str) -> int:
    if type(value) is not int:
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    return value


def _fraction_matrix(rows, what: str):
    if not isinstance(rows, list) or not rows:
        raise DocumentError(f"{what} must be a nonempty list of rows")
    return tuple(_fraction_vector(row, f"{what} row") for row in rows)


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


def _dim(doc: dict) -> int:
    """``doc["dim"]``, checked against the document limit before anything is built."""
    dim = _field(doc, "dim", int)
    if not 1 <= dim <= MAX_DOCUMENT_DIM:
        raise DocumentError(f'"dim" must be between 1 and {MAX_DOCUMENT_DIM}, got {dim}')
    return dim


def load_algebra(doc: dict) -> LieAlgebra:
    """AlgebraDocument: {"dim", "salamon" and/or "constants", "params"}.

    A document may carry both notations, as ``algebra_doc`` writes them;
    they must then describe the same algebra.
    """
    _document(doc, "algebra")
    if "salamon" not in doc and "constants" not in doc:
        raise DocumentError('one of "salamon" or "constants" must be present')
    params = {k: _fraction(v) for k, v in _field(doc, "params", dict, {}).items()}
    dim = _dim(doc) if "dim" in doc else None
    try:
        parsed = []
        if "salamon" in doc:
            parsed.append(parse_salamon(_field(doc, "salamon", str), params))
        if "constants" in doc:
            if dim is None:
                raise DocumentError('"constants" need an integer "dim"')
            constants = []
            for entry in _field(doc, "constants", list):
                if not isinstance(entry, list) or len(entry) != 4:
                    raise DocumentError(f"a constants entry must be a list [i, j, k, c], got {entry!r}")
                *ijk, c = entry
                constants.append((*(_index(x, "a constants index") for x in ijk), _fraction(c)))
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


def _structure_matrix(doc: dict, dim: int, key: str):
    """The rows of the matrix ``doc[key]`` of a structure document, ``dim`` of them."""
    _document(doc, "structure")
    if key not in doc:
        raise DocumentError(f'structure document needs a "{key}" matrix')
    m = _fraction_matrix(doc[key], f'"{key}"')
    if len(m) != dim:
        raise DocumentError(f'"{key}" must be {dim}x{dim}')
    return m


def load_complex_structure(doc: dict, dim: int) -> ComplexStructure:
    return ComplexStructure(_structure_matrix(doc, dim, "J"))


def load_metric(doc: dict, dim: int) -> Metric:
    return Metric(_structure_matrix(doc, dim, "metric"))


def load_shear_data(doc: dict):
    """ShearDataDocument: {"dim", "a", "omega", "J"?, "metric"?}."""
    _document(doc, "shear")
    if "dim" not in doc:
        raise DocumentError('shear document needs an integer "dim"')
    dim = _dim(doc)
    a = Subspace.span(dim, [_fraction_vector(v, '"a" vector') for v in _field(doc, "a", list, [])])
    values = {}
    for item in _field(doc, "omega", list, []):
        if not isinstance(item, dict) or not {"i", "j", "value"} <= item.keys():
            raise DocumentError(f'an omega entry must be an object with "i", "j" and "value", got {item!r}')
        i, j = _index(item["i"], 'omega "i"'), _index(item["j"], 'omega "j"')
        v = _fraction_vector(item["value"], '"omega" value')
        if i > j:
            i, j, v = j, i, tuple(-c for c in v)
        if (i, j) in values:
            raise DocumentError(f"omega pair ({i}, {j}) is given twice")
        values[(i, j)] = v
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

    ``salamon`` is left out above ``salamon.MAX_DIM``, where its index
    pairs would need multi-digit indices and stop being unambiguous.
    """
    doc = {
        "schema": SCHEMA,
        "dim": L.dim,
        "constants": [
            [i, j, k, fraction_str(c)] for (i, j, k, c) in L.structure_constants()
        ],
    }
    if L.dim <= MAX_DIM:
        doc["salamon"] = render_salamon(L)
    return doc


def dump_report(doc: dict) -> str:
    """Canonical serialisation: sorted keys, fixed separators, newline."""
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
