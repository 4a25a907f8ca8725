"""Command-line front end.

Subcommands:

  check       verify a locally conformal symplectic pair and classify it
  cohomology  untwisted and twisted Betti numbers
  extend      build a central-type extension from a representation file
  lattice     certified lattice data for the solvmanifold family
  regress     recompute every expected verdict in a corpus file

The positional target of `check` and `cohomology` is either a corpus
file or an inline structure tuple such as "(0,-12,13,0)".  Every
subcommand accepts --json for machine-readable output; reports are
deterministic for identical inputs and flags.  `regress` falls back to
$LCSLIE_CORPUS and then to the packaged corpus when no file is given.

`regress` runs its records in file order; a record whose checks raise
is reported as a failed record naming the step, and the run goes on.

Exit status: 0 on success, 1 when a verification fails, 2 on bad usage
or unparseable input.
"""

import argparse
import functools
import json
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from . import construct, corpus, lattice, novikov
from .algebra import MAX_DIM
from .corpus import CorpusEntry, CorpusError, parse_params, parse_rational_list
from .exterior import KForm, is_unimodular, one_form
from .lcs import LCSStructure, gram_matrix
from .notation import NotationError, StructureEquationSource, format_structure_equations, parse_structure_equations


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _format_vector(coeffs):
    parts = []
    for i, c in enumerate(coeffs, start=1):
        if not c:
            continue
        if c == 1:
            parts.append(f"e{i}")
        elif c == -1:
            parts.append(f"-e{i}")
        else:
            parts.append(f"{c} e{i}")
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def _pair_coefficients(form):
    pairs = combinations(range(1, form.dim + 1), 2)
    return tuple(form.coeffs.get(pair, Fraction(0)) for pair in pairs)


def _one_form_coefficients(form):
    return tuple(form.coeffs.get((i,), Fraction(0)) for i in range(1, form.dim + 1))


def _load_targets(args, need_forms):
    """Resolve the check/cohomology target to (entry, algebra) pairs, --omega/--theta applied."""
    target = args.target
    if target.lstrip().startswith("("):
        if args.name is not None:
            raise UsageError("--name applies only to a corpus file")
        source = StructureEquationSource(target, parse_params(getattr(args, "params", None) or ""))
        g = parse_structure_equations(source)
        targets = [(CorpusEntry(name="inline", source=source, dim=g.dim), g)]
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
            omega = parse_rational_list(args.omega, g.dim * (g.dim - 1) // 2, "--omega")
            entry = replace(entry, omega=omega)
        if getattr(args, "theta", None) is not None:
            if len(targets) > 1:
                raise UsageError("--theta needs a single record (use --name)")
            entry = replace(entry, theta=parse_rational_list(args.theta, g.dim, "--theta"))
        resolved.append((entry, g))
    if need_forms and len(resolved) == 1:
        entry, _g = resolved[0]
        if entry.omega is None or entry.theta is None:
            raise UsageError(f"record {entry.name!r} carries no omega/theta; pass --omega/--theta")
    return resolved


def cmd_check(args):
    reports = []
    failed = False
    for entry, g in _load_targets(args, need_forms=True):
        if entry.omega is None or entry.theta is None:
            reports.append({"name": entry.name, "skipped": "no omega/theta recorded"})
            continue
        try:
            structure = LCSStructure(g, entry.omega_form(), entry.theta_form())
        except ValueError as exc:
            failure = str(exc).removeprefix("not an LCS structure: ")
            reports.append({"name": entry.name, "lcs": False, "failure": failure})
            failed = True
            continue
        verdict = structure.verdict
        reports.append({
            "name": entry.name,
            "lcs": True,
            "kind": str(verdict.kind),
            "exact": structure.primitive is not None,
            "unimodular": is_unimodular(g),
            "automorphism_basis": [[str(c) for c in vec] for vec in verdict.automorphism_basis],
            "_basis_text": [_format_vector(vec) for vec in verdict.automorphism_basis],
        })
    if args.json:
        for report in reports:
            report.pop("_basis_text", None)
        print(json.dumps({"records": reports}, sort_keys=True, indent=2))
    else:
        for report in reports:
            if "skipped" in report:
                print(f"{report['name']}: skipped ({report['skipped']})")
            elif not report["lcs"]:
                print(f"{report['name']}: LCS: no ({report['failure']})")
            else:
                print(
                    f"{report['name']}: LCS: yes, kind: {report['kind']}, "
                    f"exact: {'yes' if report['exact'] else 'no'}, "
                    f"unimodular: {'yes' if report['unimodular'] else 'no'}"
                )
                basis = report["_basis_text"]
                print("  g_omega basis: " + ("(trivial)" if not basis else ", ".join(basis)))
    return 1 if failed else 0


def cmd_cohomology(args):
    reports = []
    for entry, g in _load_targets(args, need_forms=False):
        theta = entry.theta if entry.theta is not None else (Fraction(0),) * g.dim
        reports.append((entry.name, theta, novikov.cohomology(g, one_form(g.dim, theta))))
    if args.json:
        payload = [
            {
                "name": name,
                "theta": [str(c) for c in theta],
                "betti": list(rep.betti),
                "twisted_betti": list(rep.twisted_betti),
            }
            for name, theta, rep in reports
        ]
        print(json.dumps({"records": payload}, sort_keys=True, indent=2))
    else:
        for name, theta, rep in reports:
            print(f"{name}:")
            print("  betti: " + ",".join(str(b) for b in rep.betti))
            print(f"  twisted (theta = {_format_vector(theta)}): "
                  + ",".join(str(b) for b in rep.twisted_betti))
    return 0


def _parse_rep_file(path, hdim):
    """Representation file: vdim=..., optional omega0=..., mat1..mat{hdim}.

    Each matrix is ';'-separated rows of ','-separated rationals; the
    shorthand "0" is the zero matrix.
    """
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
        coeffs = parse_rational_list(fields.pop("omega0"), vdim * (vdim - 1) // 2, "omega0")
        pairs = combinations(range(1, vdim + 1), 2)
        gram = gram_matrix(KForm(vdim, 2, dict(zip(pairs, coeffs))))
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
        mats.append(tuple(parse_rational_list(row, vdim, f"{key} row") for row in rows))
    if fields:
        raise UsageError(f"{path}: unknown keys {sorted(fields)}")
    return space, mats


def cmd_extend(args):
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
        extended = construct.extend(LCSStructure(h, entry.omega_form(), theta), rep)
    except construct.PreconditionError as exc:
        raise VerificationFailure(f"representation is not compatible: {exc.reason}") from exc
    g = extended.algebra
    unimodular = is_unimodular(g)

    record = CorpusEntry(
        name=f"{entry.name}-ext",
        source=StructureEquationSource(format_structure_equations(g), {}),
        dim=g.dim,
        omega=_pair_coefficients(extended.omega),
        theta=_one_form_coefficients(extended.theta),
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
            raise VerificationFailure(
                f"trace condition predicts unimodular={predicted} "
                f"but the extension has unimodular={unimodular}"
            )
        check_report = {
            "n": str(actual_n),
            "required_n": "none" if expected_n is None else str(expected_n),
            "unimodular": unimodular,
        }

    if args.json:
        payload = {
            "record": corpus.format_entry(record),
            "name": record.name,
            "dim": g.dim,
            "unimodular": unimodular,
            "kind": record.kind,
        }
        if check_report is not None:
            payload["unimodular_check"] = check_report
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(corpus.format_entry(record))
        if check_report is not None:
            required = check_report["required_n"]
            print(
                f"# unimodular check: ok (n = {check_report['n']}, "
                f"trace condition needs n = {required})"
            )
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

    failed = False
    pairs = []
    if args.distinguish:
        for i, a in enumerate(certs):
            for b in certs[i:]:
                distinct = lattice.distinguish_solvmanifolds(a, b)
                pairs.append((a.m, b.m, distinct))
                if distinct != (a.m != b.m):
                    failed = True

    if args.json:
        payload = {
            "certificates": [
                {
                    "m": c.m,
                    "t_m": c.t_m,
                    "char_poly": list(lattice.family_char_poly(c.m)),
                }
                for c in certs
            ]
        }
        if args.distinguish:
            payload["distinguish"] = [
                {"m": a, "n": b, "distinct": distinct} for a, b, distinct in pairs
            ]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for cert in certs:
            print(lattice.certificate_report(cert))
        for a, b, distinct in pairs:
            verdict = "distinct spectra" if distinct else "indistinguishable"
            marker = "" if distinct == (a != b) else "  <-- UNEXPECTED"
            print(f"distinguish m={a} n={b}: {verdict}{marker}")
    return 1 if failed else 0


def _regress_entry(entry):
    """(name, failures, notes): recompute the record, then compare each verdict it carries."""
    try:
        computed = corpus.recompute(entry)
    except corpus.RecomputeError as exc:  # fails this record, naming the step; the run goes on
        return entry.name, [str(exc)], []
    failures = [
        f"{field}: expected {getattr(entry, field)}, computed {getattr(computed, field)}"
        for field in corpus.VERDICT_FIELDS
        if getattr(entry, field) not in (None, getattr(computed, field))
    ]
    notes = []
    if entry.ideal == computed.ideal == "none":
        notes.append("no decomposable coordinate ideal (as recorded)")
    return entry.name, failures, notes


def cmd_regress(args):
    path = args.target if args.target is not None else corpus.default_corpus_path()
    entries = corpus.load_corpus(path)
    if not entries and not args.json:  # --json reports the empty run as data
        print(f"warning: corpus {path} is empty")
        return 0
    results = [_regress_entry(entry) for entry in entries]

    failed = sum(1 for _, failures, _ in results if failures)
    if args.json:
        payload = {
            "records": [
                {"name": name, "ok": not failures, "failures": failures, "notes": notes}
                for name, failures, notes in results
            ],
            "summary": {"checked": len(results), "failed": failed},
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for name, failures, notes in results:
            if failures:
                print(f"{name}: FAIL")
                for failure in failures:
                    print(f"  - {failure}")
            elif notes:
                print(f"{name}: ok ({'; '.join(notes)})")
            else:
                print(f"{name}: ok")
        print(f"{len(results)} records checked, {failed} failures")
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
                       help=f"corpus file (default: ${corpus.ENV_CORPUS} or the packaged corpus)")
    p_reg.add_argument("--json", action="store_true")
    p_reg.set_defaults(func=cmd_regress)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CorpusError, NotationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationFailure, ValueError, RuntimeError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
