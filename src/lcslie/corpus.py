"""On-disk corpus of algebras with expected verdicts.

One record per line, in space-separated key=value tokens; values with
spaces are quoted.  Lines starting with '#' (and blank lines) are
skipped.  Keys:

  name    record identifier (required)
  dim     dimension, must match the tuple arity (required)
  eq      structure-equation tuple, e.g. "(0,-12,13,0)" (required)
  params  comma-separated bindings "λ=-1/3,δ=1"
  omega   C(n,2) comma-separated rationals over index pairs in
          lexicographic order (12,13,14,23,24,34 for n = 4)
  theta   n comma-separated rationals over e^1..e^n
  kind    expected classification: symplectic | first | second
  unimodular  yes | no
  extn    expected unimodular-extension dimension (exact rational),
          or "none" when no single value satisfies the trace condition
  ideal   comma-separated basis indices of a coordinate ideal on which
          the structure decomposes, or "none" when the coordinate
          search is expected to fail
  group   free grouping tag
  note    free text

Every verdict comes from `recompute`: `lcslie regress` compares a
record's verdicts with it, scripts/build_corpus.py writes what it
returns, and the packaged corpus is its fixed point.
"""

import os
import shlex
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from itertools import combinations

from . import InputError
from .exterior import KForm, is_unimodular, one_form
from .notation import StructureEquationSource, parse_structure_equations

ENV_CORPUS = "LCSLIE_CORPUS"

_KNOWN_KEYS = (
    "name",
    "dim",
    "eq",
    "params",
    "omega",
    "theta",
    "kind",
    "unimodular",
    "extn",
    "ideal",
    "group",
    "note",
)

VERDICT_FIELDS = ("unimodular", "kind", "extn", "ideal")


class CorpusError(InputError):
    """Malformed corpus record; the message carries the line number when parsing."""


class RecomputeError(ValueError):
    """A step of recompute raised or a cross-check disagreed: "<step>: <reason>"."""


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: StructureEquationSource
    dim: int
    omega: tuple = None  # C(n,2) Fractions, lex pair order
    theta: tuple = None  # n Fractions
    kind: str = None
    unimodular: bool = None
    extn: object = None  # None (unchecked) | "none" | Fraction
    ideal: object = None  # None (unchecked) | "none" | tuple of indices
    group: str = None
    note: str = None

    def algebra(self):
        g = parse_structure_equations(self.source)
        if g.dim != self.dim:
            raise CorpusError(f"declared dim {self.dim} but tuple has arity {g.dim}")
        return g

    def omega_form(self):
        if self.omega is None:
            return None
        pairs = list(combinations(range(1, self.dim + 1), 2))
        return KForm(self.dim, 2, dict(zip(pairs, self.omega)))

    def theta_form(self):
        if self.theta is None:
            return None
        return one_form(self.dim, self.theta)


def _at(lineno):
    return "" if lineno is None else f"line {lineno}: "


def parse_rational_list(text, expected, what, lineno=None):
    """Exactly `expected` comma-separated rationals; errors name `what` and the line."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise CorpusError(f"{_at(lineno)}{what} needs {expected} entries, got {len(parts)}")
    return tuple(_rational(p, what, lineno) for p in parts)


def _rational(token, what, lineno):
    try:
        return Fraction(token)
    except ValueError as exc:
        raise CorpusError(f"{_at(lineno)}bad rational in {what}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise CorpusError(
            f"{_at(lineno)}bad rational in {what}: {token!r} has a zero denominator"
        ) from exc


def parse_params(text, lineno=None):
    """Comma-separated bindings "a=-1/3,b=2" to a dict of Fractions."""
    params = {}
    for binding in text.split(","):
        binding = binding.strip()
        if not binding:
            continue
        if "=" not in binding:
            raise CorpusError(f"{_at(lineno)}parameter binding {binding!r} lacks '='")
        key, _, value = binding.partition("=")
        try:
            params[key.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise CorpusError(f"{_at(lineno)}bad parameter value {value!r}") from exc
    return params


def parse_entry(line, lineno=0):
    try:
        tokens = shlex.split(line, comments=True)
    except ValueError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from exc
    fields = {}
    for token in tokens:
        if "=" not in token:
            raise CorpusError(f"line {lineno}: token {token!r} is not key=value")
        key, _, value = token.partition("=")
        if key not in _KNOWN_KEYS:
            raise CorpusError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise CorpusError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value
    for required in ("name", "dim", "eq"):
        if required not in fields:
            raise CorpusError(f"line {lineno}: missing required key {required!r}")
    try:
        dim = int(fields["dim"])
    except ValueError as exc:
        raise CorpusError(f"line {lineno}: dim is not an integer") from exc
    params = parse_params(fields.get("params", ""), lineno)
    source = StructureEquationSource(fields["eq"], params)

    omega = theta = None
    if "omega" in fields:
        omega = parse_rational_list(fields["omega"], dim * (dim - 1) // 2, "omega", lineno)
    if "theta" in fields:
        theta = parse_rational_list(fields["theta"], dim, "theta", lineno)

    kind = fields.get("kind")
    if kind is not None and kind not in ("symplectic", "first", "second"):
        raise CorpusError(f"line {lineno}: kind must be symplectic/first/second")
    unimodular = None
    if "unimodular" in fields:
        if fields["unimodular"] not in ("yes", "no"):
            raise CorpusError(f"line {lineno}: unimodular must be yes or no")
        unimodular = fields["unimodular"] == "yes"
    extn = fields.get("extn")
    if extn is not None and extn != "none":
        try:
            extn = Fraction(extn)
        except (ValueError, ZeroDivisionError) as exc:
            raise CorpusError(f"line {lineno}: bad extn value {extn!r}") from exc
    ideal = fields.get("ideal")
    if ideal is not None and ideal != "none":
        try:
            ideal = tuple(int(p) for p in ideal.split(","))
        except ValueError as exc:
            raise CorpusError(f"line {lineno}: bad ideal indices {ideal!r}") from exc
        if any(not (1 <= i <= dim) for i in ideal):
            raise CorpusError(f"line {lineno}: ideal indices out of range")
    if (kind is not None or ideal is not None) and (omega is None or theta is None):
        raise CorpusError(f"line {lineno}: kind/ideal need both omega and theta")
    for key, value in (("extn", extn), ("ideal", ideal)):
        if value is not None and not any(theta or ()):
            raise CorpusError(f"line {lineno}: {key} needs a nonzero theta")

    return CorpusEntry(
        name=fields["name"],
        source=source,
        dim=dim,
        omega=omega,
        theta=theta,
        kind=kind,
        unimodular=unimodular,
        extn=extn,
        ideal=ideal,
        group=fields.get("group"),
        note=fields.get("note"),
    )


def recompute(entry):
    """`entry` with every verdict that its eq, omega and theta determine.

    unimodular always.  For a pair, the kind, cross-checked against the
    Lee form recovered from omega, the two exactness routes and, on a
    unimodular algebra, exact <=> first kind.  For theta != 0, extn, and
    for a twisted pair the coordinate ideal that the search finds and
    decompose splits, round trip compared.  Undetermined verdicts are None.
    A failed step or cross-check raises RecomputeError("<step>: <reason>").
    """
    from . import construct, lcs, novikov  # here, so that reading a corpus loads none of them

    verdicts = dict.fromkeys(VERDICT_FIELDS)
    step = "parse"
    try:
        g = entry.algebra()
        verdicts["unimodular"] = is_unimodular(g)
        omega, theta = entry.omega_form(), entry.theta_form()
        structure = None
        if omega is not None and theta is not None:
            step = "check_lcs"
            structure = lcs.LCSStructure(g, omega, theta)
            step = "classify"
            kind = structure.verdict.kind
            verdicts["kind"] = str(kind)
            step = "recover_lee_form"  # theta is verified: compare it with the one candidate
            if lcs.lee_form_candidate(g, omega) != theta:
                raise RuntimeError("does not reproduce the recorded theta")
            step = "exactness"
            exact = structure.primitive is not None
            if exact != novikov.is_exact_class(g, theta, omega):
                raise RuntimeError("primitive search and rank computation disagree")
            if verdicts["unimodular"] and exact != (kind is lcs.Kind.FIRST_KIND):
                raise RuntimeError("does not match the kind on a unimodular algebra")
        if theta is not None and not theta.is_zero():
            step = "extn"
            extn = construct.unimodular_extension_dim(g, theta)
            verdicts["extn"] = "none" if extn is None else extn
            if structure is not None:
                step = "ideal search"
                found = construct.find_nondegenerate_abelian_ideal(structure)
                verdicts["ideal"] = "none" if found is None else tuple(u.index(1) + 1 for u in found)
                if found is not None:
                    step = f"decompose on ideal {verdicts['ideal']}"
                    construct.decompose(structure, found)
    except (ValueError, RuntimeError) as exc:
        raise RecomputeError(f"{step}: {exc}") from exc
    return replace(entry, **verdicts)


def read_lines(path):
    """The lines of a UTF-8 text file; one that is not UTF-8 is a CorpusError naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.readlines()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{exc} in {path}") from exc


def load_corpus(path):
    entries = []
    seen = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        entry = parse_entry(stripped, lineno)
        if entry.name in seen:
            raise CorpusError(f"line {lineno}: duplicate record name {entry.name!r}")
        seen.add(entry.name)
        entries.append(entry)
    return entries


def _quote(value):
    return shlex.quote(str(value))


def format_entry(entry):
    parts = [f"name={_quote(entry.name)}", f"dim={entry.dim}", f"eq={_quote(entry.source.text)}"]
    if entry.source.parameters:
        binding = ",".join(f"{k}={v}" for k, v in sorted(entry.source.parameters.items()))
        parts.append(f"params={_quote(binding)}")
    if entry.omega is not None:
        parts.append("omega=" + ",".join(str(c) for c in entry.omega))
    if entry.theta is not None:
        parts.append("theta=" + ",".join(str(c) for c in entry.theta))
    if entry.kind is not None:
        parts.append(f"kind={entry.kind}")
    if entry.unimodular is not None:
        parts.append("unimodular=" + ("yes" if entry.unimodular else "no"))
    if entry.extn is not None:
        parts.append(f"extn={entry.extn}")
    if entry.ideal is not None:
        value = entry.ideal if entry.ideal == "none" else ",".join(map(str, entry.ideal))
        parts.append(f"ideal={value}")
    if entry.group is not None:
        parts.append(f"group={_quote(entry.group)}")
    if entry.note is not None:
        parts.append(f"note={_quote(entry.note)}")
    return " ".join(parts)


def save_corpus(entries, path):
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(format_entry(entry) + "\n")


def default_corpus_path():
    """$LCSLIE_CORPUS when set, else the packaged corpus."""
    env = os.environ.get(ENV_CORPUS)
    if env:
        return env
    return str(resources.files("lcslie").joinpath("data/corpus.txt"))
