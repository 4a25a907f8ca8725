"""Parse and print compact structure-equation tuples.

The text "(0,-12,-λ13,0)" describes a 4-dimensional algebra whose k-th
entry is the literal expansion of d(e^k) in the e^i ^ e^j basis; the
brackets then carry the opposite sign, c^k_{ij} = -(tuple coefficient),
because d(alpha)(X, Y) = -alpha([X, Y]) on 1-forms.

Coefficients are expressions over rational literals and named
parameters ("-(1+α)", "δ/2"); parameters are bound to exact rationals
at parse time, never carried symbolically.  Index pairs are the final
two digits of a term for dimensions up to 9; larger dimensions must
use the bracketed form "[10][12]".

Parsing builds the bracket table and checks the Jacobi identity on it;
printing reads the same table, grouping its sorted pairs by k.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import InputError
from .algebra import MAX_DIM, LieAlgebra
from .exterior import check_jacobi


class NotationError(InputError):
    """Malformed structure-equation text or inconsistent bindings."""


@dataclass(frozen=True)
class StructureEquationSource:
    """Tuple text plus exact rational values for its parameters."""

    text: str
    parameters: dict = field(default_factory=dict)


_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
_PLAIN_PAIR_RE = re.compile(r"(?<![\d.])([1-9])([1-9])\s*$")
_BRACKET_PAIR_RE = re.compile(r"\[(\d+)\]\[(\d+)\]\s*$")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            tokens.append(("num", Fraction(m.group())))
            i = m.end()
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise NotationError(f"unexpected character {ch!r} in coefficient {text!r}")
    return tokens


class _CoeffParser:
    """Recursive descent over +, -, *, /, parentheses and juxtaposition."""

    def __init__(self, text, parameters):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.parameters = parameters

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise NotationError(f"trailing tokens in coefficient {self.text!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "/"):
                op = self.take()[0]
                rhs = self.factor()
                if op == "/":
                    if rhs == 0:
                        raise NotationError(f"division by zero in {self.text!r}")
                    value = value / rhs
                else:
                    value = value * rhs
            elif kind in ("num", "name", "("):
                value = value * self.factor()  # juxtaposition
            else:
                return value

    def factor(self):
        kind, payload = self.take()
        if kind == "num":
            return payload
        if kind == "name":
            return self.lookup(payload)
        if kind == "(":
            value = self.expr()
            if self.take()[0] != ")":
                raise NotationError(f"unbalanced parentheses in {self.text!r}")
            return value
        if kind in ("+", "-"):
            inner = self.factor()
            return inner if kind == "+" else -inner
        raise NotationError(f"malformed coefficient {self.text!r}")

    def lookup(self, run):
        if run in self.parameters:
            return Fraction(self.parameters[run])
        if all(ch in self.parameters for ch in run):
            value = Fraction(1)
            for ch in run:
                value *= Fraction(self.parameters[ch])
            return value
        raise NotationError(f"unbound parameter {run!r}")


def _split_top_level(text, separators):
    """Split at top-level separator characters, tracking () and []."""
    parts = []
    depth = 0
    start = 0
    for pos, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise NotationError(f"unbalanced brackets in {text!r}")
        elif ch in separators and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    if depth != 0:
        raise NotationError(f"unbalanced brackets in {text!r}")
    parts.append(text[start:])
    return parts


def _split_terms(entry):
    """Split one tuple entry at top-level signs, keeping each sign."""
    terms = []
    depth = 0
    start = 0
    prev = ""
    for pos, ch in enumerate(entry):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch in "+-" and depth == 0 and pos > start and prev not in "+-*/(":
            terms.append(entry[start:pos])
            start = pos
        if not ch.isspace():
            prev = ch
    terms.append(entry[start:])
    return [t for t in terms if t.strip()]


def _parse_term(term, dim, parameters):
    """One signed term -> ((i, j), Fraction) with i < j."""
    m = _BRACKET_PAIR_RE.search(term)
    if m:
        i, j = int(m.group(1)), int(m.group(2))
        coeff_text = term[: m.start()]
    else:
        if dim >= 10:
            raise NotationError(
                f"term {term.strip()!r}: dimensions above 9 need bracketed indices like [10][12]"
            )
        m = _PLAIN_PAIR_RE.search(term)
        if not m:
            raise NotationError(
                f"term {term.strip()!r} has no index pair; a numeric coefficient "
                "must be separated from the pair by a space or '*'"
            )
        i, j = int(m.group(1)), int(m.group(2))
        coeff_text = term[: m.start()]
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise NotationError(f"index pair {i}{j} out of range for dimension {dim}")
    if i == j:
        raise NotationError(f"repeated index in pair {i}{j}")
    stripped = coeff_text.strip()
    if len(stripped) > 1 and stripped.endswith("*"):
        # separator star between coefficient and pair, as in "2*24"
        stripped = stripped[:-1]
    if stripped in ("", "+"):
        coeff = Fraction(1)
    elif stripped == "-":
        coeff = Fraction(-1)
    else:
        coeff = _CoeffParser(stripped, parameters).parse()
    if i > j:
        i, j = j, i
        coeff = -coeff
    return (i, j), coeff


def parse_structure_equations(src, parameters=None):
    """Build a LieAlgebra from structure-equation text.

    src is a StructureEquationSource or a bare string (with parameters
    passed separately).  The Jacobi identity is verified; a violation is
    reported with a witness triple of basis indices.
    """
    if isinstance(src, StructureEquationSource):
        text, parameters = src.text, dict(src.parameters)
    else:
        text, parameters = src, dict(parameters or {})
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    entries = _split_top_level(body, ",")
    dim = len(entries)
    if dim < 1:
        raise NotationError("empty structure-equation tuple")
    if dim > MAX_DIM:
        raise NotationError(f"tuple has {dim} entries, more than MAX_DIM = {MAX_DIM}")

    differentials = []
    for k, entry in enumerate(entries, start=1):
        entry = entry.strip()
        if not entry:
            raise NotationError(f"entry {k} is empty; write 0 for a closed e^{k}")
        coeffs = {}
        if entry != "0":
            for term in _split_terms(entry):
                pair, coeff = _parse_term(term, dim, parameters)
                coeffs[pair] = coeffs.get(pair, Fraction(0)) + coeff
        differentials.append({p: c for p, c in coeffs.items() if c})

    brackets = {}
    for k, coeffs in enumerate(differentials, start=1):
        for (i, j), c in coeffs.items():
            brackets.setdefault((i, j), {})[k] = -c
    g = LieAlgebra(dim, brackets)
    ok, witness = check_jacobi(g)
    if not ok:
        raise NotationError(
            f"Jacobi identity fails on basis triple {witness}; not a Lie algebra"
        )
    return g


def _format_coeff(c, pair_text, plain_pair):
    """Signed term text; separates a non-unit coefficient from a plain pair."""
    if c == 1:
        return "+" + pair_text
    if c == -1:
        return "-" + pair_text
    mag = -c if c < 0 else c
    sep = " " if plain_pair else ""
    return ("-" if c < 0 else "+") + str(mag) + sep + pair_text


def format_structure_equations(g):
    """Normalized tuple text; parse(format(g)) == g.

    Entry k lists the terms -c^k_ij e^ij of d(e^k) in sorted pair order.
    """
    plain = g.dim <= 9
    terms = {}
    for (i, j), coeffs in sorted(g.brackets.items()):
        pair_text = f"{i}{j}" if plain else f"[{i}][{j}]"
        for k, c in coeffs.items():
            terms.setdefault(k, []).append(_format_coeff(-c, pair_text, plain))
    entries = ("".join(terms[k]).removeprefix("+") if k in terms else "0"
               for k in range(1, g.dim + 1))
    return "(" + ",".join(entries) + ")"
