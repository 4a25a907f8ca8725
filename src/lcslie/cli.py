"""Command-line front end.

Subcommands:

  check       verify a locally conformal symplectic pair and classify it
  cohomology  untwisted and twisted Betti numbers
  extend      build a central-type extension from a representation file
  lattice     certified lattice data for the solvmanifold family
  regress     recompute every expected verdict in a corpus file

The positional target of `check` and `cohomology` is either a corpus
file or an inline structure tuple such as "(0,-12,13,0)".  Every
subcommand accepts --json for machine-readable output: sorted-key JSON
with a 2-space indent, byte-stable for identical inputs and flags, and
written by one writer, `_json`, whose text equals
json.dumps(obj, sort_keys=True, indent=2).  `regress` falls back to
$LCSLIE_CORPUS and then to the packaged corpus when no file is given.

Every report goes through one emitter, `_emit`: the JSON payload under
--json, else the text lines, which are built only then.  `check`,
`cohomology` and `regress` run their records in file order under one
failure policy, `_attempt`: a record whose computation raises ValueError
or RuntimeError is reported by name with that reason, the run goes on,
and the exit status is 1.  In text a failed record reads
"<name>: failed (<reason>)" under `check` and `cohomology`, and
"<name>: FAIL" with one "  - <step>: <reason>" line under `regress`.

Each subcommand imports only the modules it runs: at module level this
file imports nothing of lcslie beyond the package itself, which loads no
submodule, and each `cmd_*` (or the helper it calls) imports its library
modules and reads their functions off the module at call time, so a patch
of a module attribute is seen.  `lattice` loads `lcslie.lattice` alone.
Unparseable input (CorpusError, NotationError) is caught as their base,
`lcslie.InputError`.

Exit status: 0 on success, 1 when a verification fails, 2 on bad usage
or unparseable input, 141 when the reader closed stdout early.
"""

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from . import InputError


class UsageError(Exception):
    pass


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x):
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(obj, newline="\n"):
    """The text of json.dumps(obj, sort_keys=True, indent=2); dict keys must be str.

    `newline` is the line break and indent of obj's own level.  Scalars
    inside a container are formatted in place, without a recursive call.
    A module-level function rather than a self-calling closure: a closure
    that names itself is a reference cycle, which keeps every call's parts
    alive until the cyclic collector runs.
    """
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = newline + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            scalar = _JSON_SCALARS.get(type(value))
            parts.append(encode_basestring_ascii(key) + ": "
                         + (scalar(value) if scalar is not None else _json(value, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if type(obj) is list or type(obj) is tuple:
        if not obj:
            return "[]"
        parts = []
        for value in obj:
            scalar = _JSON_SCALARS.get(type(value))
            parts.append(scalar(value) if scalar is not None else _json(value, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, payload, render):
    """Print payload as JSON under --json, else the lines that render() yields.

    render is called only without --json, so that no text is built for a
    JSON report.
    """
    if args.json:
        print(_json(payload))
    else:
        for line in render():
            print(line)


def _attempt(compute, *args):
    """(compute(*args), None), or (None, reason) when it raised ValueError or RuntimeError.

    The one failure policy of the per-record commands: a record that fails
    is reported by name with the reason, and the run goes on.
    """
    try:
        return compute(*args), None
    except (ValueError, RuntimeError) as exc:
        return None, str(exc)


def _format_vector(coeffs):
    """The text "e1 - 1/2 e3" of the str(Fraction) coefficients ["1", "0", "-1/2"]."""
    terms = [f"e{i}" if c == "1" else f"-e{i}" if c == "-1" else f"{c} e{i}"
             for i, c in enumerate(coeffs, start=1) if c != "0"]
    return " + ".join(terms).replace(" + -", " - ") or "0"


def _load_targets(args, need_forms):
    """Resolve the check/cohomology target to (entry, algebra) pairs, --omega/--theta applied."""
    from dataclasses import replace

    from . import corpus, notation

    target = args.target
    if target.lstrip().startswith("("):
        if args.name is not None:
            raise UsageError("--name applies only to a corpus file")
        params = corpus.parse_params(getattr(args, "params", None) or "")
        source = notation.StructureEquationSource(target, params)
        g = notation.parse_structure_equations(source)
        targets = [(corpus.CorpusEntry(name="inline", source=source, dim=g.dim), g)]
    else:
        if getattr(args, "params", None):
            raise UsageError("--params applies only to an inline tuple target")
        entries = corpus.load_corpus(target)
        if args.name is not None:
            entries = [e for e in entries if e.name == args.name]
            if not entries:
                raise UsageError(f"no record named {args.name!r} in {target}")
        targets = [(entry, entry.algebra()) for entry in entries]
    resolved = []
    for entry, g in targets:
        if getattr(args, "omega", None) is not None:
            if len(targets) > 1:
                raise UsageError("--omega needs a single record (use --name)")
            omega = corpus.parse_rational_list(args.omega, g.dim * (g.dim - 1) // 2, "--omega")
            entry = replace(entry, omega=omega)
        if getattr(args, "theta", None) is not None:
            if len(targets) > 1:
                raise UsageError("--theta needs a single record (use --name)")
            entry = replace(entry, theta=corpus.parse_rational_list(args.theta, g.dim, "--theta"))
        resolved.append((entry, g))
    if need_forms and len(resolved) == 1:
        entry, _g = resolved[0]
        if entry.omega is None or entry.theta is None:
            raise UsageError(f"record {entry.name!r} carries no omega/theta; pass --omega/--theta")
    return resolved


def _check_record(entry, g):
    """Check report of a record with omega and theta; LCSStructure refusing them is a verdict."""
    from . import exterior, lcs

    try:
        structure = lcs.LCSStructure(g, entry.omega_form(), entry.theta_form())
    except ValueError as exc:
        failure = str(exc).removeprefix("not an LCS structure: ")
        return {"name": entry.name, "lcs": False, "failure": failure}
    verdict = structure.verdict
    return {
        "name": entry.name,
        "lcs": True,
        "kind": str(verdict.kind),
        "exact": structure.primitive is not None,
        "unimodular": exterior.is_unimodular(g),
        "automorphism_basis": [[str(c) for c in vec] for vec in verdict.automorphism_basis],
    }


def cmd_check(args):
    reports = []
    for entry, g in _load_targets(args, need_forms=True):
        if entry.omega is None or entry.theta is None:
            reports.append({"name": entry.name, "skipped": "no omega/theta recorded"})
            continue
        report, reason = _attempt(_check_record, entry, g)
        reports.append(report if reason is None else {"name": entry.name, "failure": reason})

    def render():
        for report in reports:
            name = report["name"]
            if "skipped" in report:
                yield f"{name}: skipped ({report['skipped']})"
            elif "lcs" not in report:
                yield f"{name}: failed ({report['failure']})"
            elif not report["lcs"]:
                yield f"{name}: LCS: no ({report['failure']})"
            else:
                yield (f"{name}: LCS: yes, kind: {report['kind']}, "
                       f"exact: {'yes' if report['exact'] else 'no'}, "
                       f"unimodular: {'yes' if report['unimodular'] else 'no'}")
                basis = ", ".join(_format_vector(vec) for vec in report["automorphism_basis"])
                yield "  g_omega basis: " + (basis or "(trivial)")

    _emit(args, {"records": reports}, render)
    return 1 if any("failure" in report for report in reports) else 0


def cmd_cohomology(args):
    from fractions import Fraction

    from . import exterior, novikov

    reports = []
    for entry, g in _load_targets(args, need_forms=False):
        theta = entry.theta if entry.theta is not None else (Fraction(0),) * g.dim
        rep, reason = _attempt(novikov.cohomology, g, exterior.one_form(g.dim, theta))
        reports.append({"name": entry.name, "failure": reason} if reason is not None else
                       {"name": entry.name, "theta": [str(c) for c in theta],
                        "betti": list(rep.betti), "twisted_betti": list(rep.twisted_betti)})

    def render():
        for report in reports:
            if "failure" in report:
                yield f"{report['name']}: failed ({report['failure']})"
                continue
            yield f"{report['name']}:"
            yield "  betti: " + ",".join(str(b) for b in report["betti"])
            yield (f"  twisted (theta = {_format_vector(report['theta'])}): "
                   + ",".join(str(b) for b in report["twisted_betti"]))

    _emit(args, {"records": reports}, render)
    return 1 if any("failure" in report for report in reports) else 0


def _parse_rep_file(path, hdim):
    """Representation file: vdim=..., optional omega0=..., mat1..mat{hdim}.

    Each matrix is ';'-separated rows of ','-separated rationals; the
    shorthand "0" is the zero matrix.
    """
    from fractions import Fraction
    from itertools import combinations

    from . import construct, corpus, exterior, lcs
    from .algebra import MAX_DIM

    fields = {}
    for lineno, line in enumerate(corpus.read_lines(path), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in fields:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    if "vdim" not in fields:
        raise UsageError(f"{path}: missing vdim")
    try:
        vdim = int(fields.pop("vdim"))
    except ValueError as exc:
        raise UsageError(f"{path}: vdim is not an integer") from exc
    if vdim <= 0 or vdim % 2:
        raise UsageError(f"{path}: vdim must be a positive even integer")
    if vdim > MAX_DIM - hdim:
        raise UsageError(f"{path}: vdim must be at most MAX_DIM - {hdim} = {MAX_DIM - hdim}")

    if "omega0" in fields:
        coeffs = corpus.parse_rational_list(fields.pop("omega0"), vdim * (vdim - 1) // 2, "omega0")
        pairs = combinations(range(1, vdim + 1), 2)
        gram = lcs.gram_matrix(exterior.KForm(vdim, 2, dict(zip(pairs, coeffs))))
        try:
            space = construct.SymplecticSpace(vdim, gram)
        except ValueError as exc:
            raise UsageError(f"{path}: omega0: {exc}") from exc
    else:
        space = construct.standard_symplectic(vdim)

    mats = []
    for i in range(1, hdim + 1):
        key = f"mat{i}"
        if key not in fields:
            raise UsageError(f"{path}: missing {key} (need mat1..mat{hdim})")
        text = fields.pop(key)
        if text == "0":
            mats.append(tuple(tuple(Fraction(0) for _ in range(vdim)) for _ in range(vdim)))
            continue
        rows = [r.strip() for r in text.split(";")]
        if len(rows) != vdim:
            raise UsageError(f"{path}: {key} needs {vdim} rows, got {len(rows)}")
        mats.append(tuple(corpus.parse_rational_list(row, vdim, f"{key} row") for row in rows))
    if fields:
        raise UsageError(f"{path}: unknown keys {sorted(fields)}")
    return space, mats


def cmd_extend(args):
    from fractions import Fraction
    from itertools import combinations

    from . import construct, corpus, exterior, lcs, notation

    entries = corpus.load_corpus(args.target)
    matches = [e for e in entries if e.name == args.name]
    if not matches:
        raise UsageError(f"no record named {args.name!r} in {args.target}")
    entry = matches[0]
    if entry.omega is None or entry.theta is None:
        raise UsageError(f"record {args.name!r} carries no omega/theta")
    theta = entry.theta_form()
    if args.check_unimodular and theta.is_zero():
        raise UsageError("--check-unimodular needs a nonzero theta: theta = 0 never "
                         "extends to a twisted unimodular product")
    h = entry.algebra()
    space, mats = _parse_rep_file(args.rep_file, h.dim)
    rep = construct.Representation(h, space, tuple(mats))
    try:
        extended = construct.extend(lcs.LCSStructure(h, entry.omega_form(), theta), rep)
    except construct.PreconditionError as exc:
        raise ValueError(f"representation is not compatible: {exc.reason}") from exc
    g = extended.algebra
    unimodular = exterior.is_unimodular(g)

    record = corpus.CorpusEntry(
        name=f"{entry.name}-ext",
        source=notation.StructureEquationSource(notation.format_structure_equations(g), {}),
        dim=g.dim,
        omega=tuple(extended.omega.coeffs.get(pair, Fraction(0))
                    for pair in combinations(range(1, g.dim + 1), 2)),
        theta=tuple(exterior.form_to_vector(extended.theta)),
        kind=str(extended.verdict.kind),
        unimodular=unimodular,
        note=f"extension of {entry.name} by a {space.dim}-dimensional representation",
    )

    check_report = None
    if args.check_unimodular:
        expected_n = construct.unimodular_extension_dim(h, theta)
        actual_n = Fraction(space.dim, 2)
        predicted = expected_n == actual_n
        if predicted != unimodular:
            raise RuntimeError(
                f"trace condition predicts unimodular={predicted} "
                f"but the extension has unimodular={unimodular}"
            )
        check_report = {
            "n": str(actual_n),
            "required_n": "none" if expected_n is None else str(expected_n),
            "unimodular": unimodular,
        }

    payload = {
        "record": corpus.format_entry(record),
        "name": record.name,
        "dim": g.dim,
        "unimodular": unimodular,
        "kind": record.kind,
    }
    if check_report is not None:
        payload["unimodular_check"] = check_report

    def render():
        yield payload["record"]
        if check_report is not None:
            yield (f"# unimodular check: ok (n = {check_report['n']}, "
                   f"trace condition needs n = {check_report['required_n']})")

    _emit(args, payload, render)
    return 0


def _parse_range(text):
    sep = ":" if ":" in text else ".."
    parts = text.split(sep)
    if len(parts) != 2:
        raise UsageError("range must look like A:B")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError("range bounds must be integers") from exc
    if lo > hi:
        raise UsageError("empty range")
    return lo, hi


def cmd_lattice(args):
    from . import lattice

    if args.m is None and args.range is None:
        raise UsageError("pass --m M or --range A:B")
    if args.m is not None and args.range is not None:
        raise UsageError("--m and --range are mutually exclusive")
    if args.distinguish and args.range is None:
        raise UsageError("--distinguish needs --range")
    if args.m is not None:
        ms = [args.m]
    else:
        lo, hi = _parse_range(args.range)
        ms = list(range(lo, hi + 1))
    try:
        certs = [lattice.build_certificate(m) for m in ms]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    payload = {
        "certificates": [
            {"m": c.m, "t_m": c.t_m, "char_poly": list(lattice.family_char_poly(c.m))}
            for c in certs
        ]
    }
    if args.distinguish:
        payload["distinguish"] = [
            {"m": a.m, "n": b.m, "distinct": lattice.distinguish_solvmanifolds(a, b)}
            for i, a in enumerate(certs) for b in certs[i:]
        ]
    pairs = payload.get("distinguish", ())

    def render():
        for cert in certs:
            yield lattice.certificate_report(cert)
        for pair in pairs:
            verdict = "distinct spectra" if pair["distinct"] else "indistinguishable"
            marker = "" if pair["distinct"] == (pair["m"] != pair["n"]) else "  <-- UNEXPECTED"
            yield f"distinguish m={pair['m']} n={pair['n']}: {verdict}{marker}"

    _emit(args, payload, render)
    return 1 if any(pair["distinct"] != (pair["m"] != pair["n"]) for pair in pairs) else 0


def cmd_regress(args):
    from . import corpus

    path = args.target if args.target is not None else corpus.default_corpus_path()
    records = []
    for entry in corpus.load_corpus(path):
        computed, reason = _attempt(corpus.recompute, entry)
        notes = []
        if reason is not None:
            failures = [reason]
        else:
            failures = [
                f"{field}: expected {getattr(entry, field)}, computed {getattr(computed, field)}"
                for field in corpus.VERDICT_FIELDS
                if getattr(entry, field) not in (None, getattr(computed, field))
            ]
            if entry.ideal == computed.ideal == "none":
                notes.append("no decomposable coordinate ideal (as recorded)")
        records.append({"name": entry.name, "ok": not failures,
                        "failures": failures, "notes": notes})
    failed = sum(not record["ok"] for record in records)

    def render():
        if not records:  # --json reports the empty run as data
            yield f"warning: corpus {path} is empty"
            return
        for record in records:
            if record["failures"]:
                yield f"{record['name']}: FAIL"
                yield from (f"  - {failure}" for failure in record["failures"])
            elif record["notes"]:
                yield f"{record['name']}: ok ({'; '.join(record['notes'])})"
            else:
                yield f"{record['name']}: ok"
        yield f"{len(records)} records checked, {failed} failures"

    summary = {"checked": len(records), "failed": failed}
    _emit(args, {"records": records, "summary": summary}, render)
    return 1 if failed else 0


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by every later main()."""
    parser = argparse.ArgumentParser(
        prog="lcslie",
        description="Locally conformal symplectic structures on Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify and classify an LCS pair")
    p_check.add_argument("target", help="corpus file or inline tuple like '(0,-12,13,0)'")
    p_check.add_argument("--name", help="record name inside a corpus file")
    p_check.add_argument("--params", help="parameter bindings for an inline tuple, e.g. 'a=-1/3'")
    p_check.add_argument("--omega", help="C(n,2) rationals over lexicographic index pairs")
    p_check.add_argument("--theta", help="n rationals over e^1..e^n")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_coh = sub.add_parser("cohomology", help="Betti numbers, plain and twisted")
    p_coh.add_argument("target", help="corpus file or inline tuple")
    p_coh.add_argument("--name", help="record name inside a corpus file")
    p_coh.add_argument("--params", help="parameter bindings for an inline tuple")
    p_coh.add_argument("--theta", help="n rationals; defaults to the record's theta, else 0")
    p_coh.add_argument("--json", action="store_true")
    p_coh.set_defaults(func=cmd_cohomology)

    p_ext = sub.add_parser("extend", help="extend a record by a representation file")
    p_ext.add_argument("target", help="corpus file")
    p_ext.add_argument("--name", required=True, help="record to extend")
    p_ext.add_argument("--rep-file", required=True, help="vdim/omega0/mat1..matk file")
    p_ext.add_argument("--check-unimodular", action="store_true",
                       help="cross-check the trace condition against the built algebra")
    p_ext.add_argument("--json", action="store_true")
    p_ext.set_defaults(func=cmd_extend)

    p_lat = sub.add_parser("lattice", help="lattice certificates for the solvmanifold family")
    p_lat.add_argument("--m", type=int, help="single family parameter (integer > 2)")
    p_lat.add_argument("--range", help="inclusive parameter range A:B")
    p_lat.add_argument("--distinguish", action="store_true",
                       help="compare spectra pairwise over the range")
    p_lat.add_argument("--json", action="store_true")
    p_lat.set_defaults(func=cmd_lattice)

    p_reg = sub.add_parser("regress", help="recompute all recorded verdicts")
    p_reg.add_argument("target", nargs="?",
                       help="corpus file (default: $LCSLIE_CORPUS or the packaged corpus)")
    p_reg.add_argument("--json", action="store_true")
    p_reg.set_defaults(func=cmd_regress)

    return parser


# 128 + SIGPIPE, the status a shell reports for a writer killed by a closed pipe
EXIT_BROKEN_PIPE = 141


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here rather than at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone (`lcslie regress | head -1`), which is no error of
        # the input; point stdout at devnull so that the flush at exit cannot
        # raise again, as the Python signal docs recommend
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (UsageError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
