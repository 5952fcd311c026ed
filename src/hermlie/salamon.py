"""Parser and renderer for the differential-list notation.

An algebra is written as the tuple of differentials of a dual basis, e.g.
"(0,21)" for the algebra with de^2 = e^2 ^ e^1, equivalently
[e_1, e_2] = e_2.  Index pairs are single digits (dimensions up to 9),
"21" denotes e^2 ^ e^1, coefficients are rational literals or bound
parameter names, and a coefficient may distribute over a parenthesised
group: "2.(35+46)".

Grammar:

    text  := '(' entry {',' entry} ')'
    entry := '0' | ['-'] term {('+'|'-') term}
    term  := [coeff '.'] pair | coeff '.(' pair {('+'|'-') pair} ')'
    coeff := rational literal | parameter name
    pair  := digit digit        (digits are ASCII 0-9)
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LieAlgebra, make_algebra
from .errors import (
    DimensionMismatchError,
    JacobiFailedError,
    SalamonSyntaxError,
    UnboundParameterError,
)
from .linalg import ZERO

# index pairs are two single digits, so the notation stops at dimension 9
MAX_DIM = 9
# documents stop here in any notation: twice the largest dimension in use,
# where the exact checks still answer within a second
MAX_DOCUMENT_DIM = 32
# ASCII only: str.isdigit also takes superscripts, which int() cannot read
DIGITS = frozenset("0123456789")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def expect(self, char: str):
        c = self.peek()
        if c != char:
            raise SalamonSyntaxError(f"expected {char!r}, found {c or 'end of input'!r}", self.pos)
        self.pos += 1

    def error(self, message: str):
        raise SalamonSyntaxError(message, self.pos)


def _parse_coeff(sc: _Scanner, bindings: dict) -> Fraction:
    """A rational literal or a bound parameter name; ``_parse_entry`` calls
    it only at a digit, a letter or an underscore."""
    if sc.peek() in DIGITS:
        num = ""
        while sc.peek() in DIGITS:
            num += sc.take()
        if sc.peek() == "/":
            sc.take()
            den = ""
            while sc.peek() in DIGITS:
                den += sc.take()
            if not den.strip("0"):
                sc.error("missing or zero denominator")
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    name = ""
    while sc.peek().isalnum() or sc.peek() == "_":
        name += sc.take()
    if name not in bindings:
        raise UnboundParameterError(f"parameter {name!r} is not bound")
    return Fraction(bindings[name])


def _parse_pair(sc: _Scanner, dim: int) -> tuple[int, int]:
    a = sc.peek()
    if a not in DIGITS or a == "0":
        sc.error("expected an index pair of nonzero digits")
    sc.take()
    b = sc.peek()
    if b not in DIGITS or b == "0":
        sc.error("expected the second index digit")
    sc.take()
    i, j = int(a), int(b)
    if i == j:
        sc.error(f"repeated index in pair {i}{j}")
    if i > dim or j > dim:
        sc.error(f"index out of range in pair {i}{j}")
    return i, j


def _parse_entry(sc: _Scanner, dim: int, bindings: dict) -> dict[tuple[int, int], Fraction]:
    """One differential as a map (i < j) -> coefficient of e^i ^ e^j."""
    acc: dict[tuple[int, int], Fraction] = {}

    def add(i: int, j: int, c: Fraction):
        if i > j:
            i, j, c = j, i, -c
        acc[(i, j)] = acc.get((i, j), ZERO) + c

    if sc.peek() == "0":
        nxt = sc.pos
        sc.take()
        if sc.peek() not in (",", ")"):
            sc.pos = nxt
            sc.error("a zero entry must stand alone")
        return acc

    sign = Fraction(1)
    if sc.peek() == "-":
        sc.take()
        sign = Fraction(-1)
    while True:
        # term: [coeff '.'] pair-or-group
        c = sc.peek()
        if c in DIGITS and sc.pos + 1 < len(sc.text) and not _looks_like_coeff(sc):
            coeff = Fraction(1)
        elif c in DIGITS or c.isalpha() or c == "_":
            coeff = _parse_coeff(sc, bindings)
            sc.expect(".")
        else:
            sc.error("expected a term")
        if sc.peek() == "(":
            sc.take()
            gsign = Fraction(1)
            if sc.peek() == "-":
                sc.take()
                gsign = Fraction(-1)
            while True:
                i, j = _parse_pair(sc, dim)
                add(i, j, sign * coeff * gsign)
                nxt = sc.peek()
                if nxt == "+":
                    sc.take()
                    gsign = Fraction(1)
                elif nxt == "-":
                    sc.take()
                    gsign = Fraction(-1)
                elif nxt == ")":
                    sc.take()
                    break
                else:
                    sc.error("expected '+', '-' or ')' in a group")
        else:
            i, j = _parse_pair(sc, dim)
            add(i, j, sign * coeff)
        nxt = sc.peek()
        if nxt == "+":
            sc.take()
            sign = Fraction(1)
        elif nxt == "-":
            sc.take()
            sign = Fraction(-1)
        else:
            return acc


def _looks_like_coeff(sc: _Scanner) -> bool:
    """Disambiguate '21' (a pair) from '2.(..)' or '2.13' (a coefficient)."""
    pos = sc.pos
    while pos < len(sc.text) and sc.text[pos] in DIGITS:
        pos += 1
    if pos < len(sc.text) and sc.text[pos] == "/":
        return True
    return pos < len(sc.text) and sc.text[pos] == "."


def parse_salamon(text: str, bindings: dict | None = None) -> LieAlgebra:
    """Parse a differential list into a validated Lie algebra.

    The convention de^i(e_j, e_k) = -e^i([e_j, e_k]) converts entries into
    structure constants; the result is checked against the Jacobi identity
    and rejected if the notation denotes no Lie algebra.
    """
    bindings = dict(bindings or {})
    sc = _Scanner(text)
    sc.expect("(")
    entries = []
    while True:
        entries.append(_parse_entry(sc, MAX_DIM, bindings))
        nxt = sc.peek()
        if nxt == ",":
            sc.take()
            continue
        if nxt == ")":
            sc.take()
            break
        sc.error("expected ',' or ')' after an entry")
    if sc.peek():
        sc.error("trailing input after the closing parenthesis")
    dim = len(entries)
    if dim > MAX_DIM:
        raise SalamonSyntaxError(f"at most {MAX_DIM} entries are supported", 0)
    constants = []
    for i, entry in enumerate(entries, start=1):
        for (a, b), c in entry.items():
            if a > dim or b > dim:
                raise SalamonSyntaxError(f"index pair {a}{b} exceeds dimension {dim}", 0)
            if c:
                # de^i = c e^a ^ e^b contributes [e_a, e_b] = -c e_i
                constants.append((a, b, i, -c))
    L = make_algebra(dim, constants)
    if not L.validated:
        raise JacobiFailedError(
            f"notation denotes no Lie algebra: Jacobi residual {L.jacobi_residual()}"
        )
    return L


def render_salamon(L: LieAlgebra) -> str:
    """Deterministic rendering; parse(render(L)) always reproduces L.

    Negative coefficients are absorbed by flipping the index pair, so the
    affine algebra renders as "(0,21)" rather than "(0,-12)".  Algebras
    above ``MAX_DIM`` have no rendering and raise DimensionMismatchError.
    """
    L.require_validated()
    if L.dim > MAX_DIM:
        raise DimensionMismatchError(f"Salamon notation covers dimensions up to {MAX_DIM}, not {L.dim}")
    entries = []
    for i in range(L.dim):
        terms = []
        for (a, b), v in L.table.items():  # a < b, in order
            c = -v[i]  # de^(i+1) coefficient on e^{ab}
            if not c:
                continue
            if c < 0:
                pair, c = f"{b}{a}", -c
            else:
                pair = f"{a}{b}"
            coeff = "" if c == 1 else f"{c}."
            terms.append(f"{coeff}{pair}")
        entries.append("+".join(terms) if terms else "0")
    return "(" + ",".join(entries) + ")"
