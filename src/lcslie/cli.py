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
import json
import sys
from fractions import Fraction
from itertools import combinations

from . import construct, corpus, lattice, lcs, novikov
from .corpus import CorpusEntry, CorpusError, parse_params, parse_rational_list
from .exterior import KForm, is_unimodular, one_form
from .lcs import Kind, LCSStructure
from .notation import NotationError, StructureEquationSource, format_structure_equations, parse_structure_equations


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _format_vector(coeffs, labels):
    parts = []
    for c, label in zip(coeffs, labels):
        if not c:
            continue
        if c == 1:
            parts.append(label)
        elif c == -1:
            parts.append("-" + label)
        else:
            parts.append(f"{c} {label}")
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
    """Resolve the check/cohomology target to (entry, algebra, omega, theta) tuples."""
    target = args.target
    if target.lstrip().startswith("("):
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
        omega = entry.omega
        theta = entry.theta
        if getattr(args, "omega", None) is not None:
            if len(targets) > 1:
                raise UsageError("--omega needs a single record (use --name)")
            omega = parse_rational_list(args.omega, g.dim * (g.dim - 1) // 2, "--omega")
        if getattr(args, "theta", None) is not None:
            if len(targets) > 1:
                raise UsageError("--theta needs a single record (use --name)")
            theta = parse_rational_list(args.theta, g.dim, "--theta")
        resolved.append((entry, g, omega, theta))
    if need_forms and len(resolved) == 1:
        entry, _g, omega, theta = resolved[0]
        if omega is None or theta is None:
            raise UsageError(f"record {entry.name!r} carries no omega/theta; pass --omega/--theta")
    return resolved


def cmd_check(args):
    resolved = _load_targets(args, need_forms=True)
    reports = []
    failed = False
    for entry, g, omega_c, theta_c in resolved:
        if omega_c is None or theta_c is None:
            reports.append({"name": entry.name, "skipped": "no omega/theta recorded"})
            continue
        pairs = list(combinations(range(1, g.dim + 1), 2))
        omega = KForm(g.dim, 2, dict(zip(pairs, omega_c)))
        theta = one_form(g.dim, theta_c)
        try:
            structure = LCSStructure(g, omega, theta)
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
            "_basis_text": [_format_vector(vec, g.labels) for vec in verdict.automorphism_basis],
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
    resolved = _load_targets(args, need_forms=False)
    reports = []
    for entry, g, _omega, theta_c in resolved:
        theta = one_form(g.dim, theta_c) if theta_c is not None else one_form(g.dim, [0] * g.dim)
        report = novikov.cohomology(g, theta)
        reports.append((entry.name, theta_c, report))
    if args.json:
        payload = []
        for name, theta_c, rep in reports:
            dim = len(rep.betti) - 1
            payload.append({
                "name": name,
                "theta": [str(c) for c in (theta_c if theta_c is not None else [0] * dim)],
                "betti": list(rep.betti),
                "twisted_betti": list(rep.twisted_betti),
            })
        print(json.dumps({"records": payload}, sort_keys=True, indent=2))
    else:
        for name, theta_c, rep in reports:
            dim = len(rep.betti) - 1
            theta_text = _format_vector(theta_c or [0] * dim, [f"e{i}" for i in range(1, dim + 1)])
            print(f"{name}:")
            print("  betti: " + ",".join(str(b) for b in rep.betti))
            print(f"  twisted (theta = {theta_text}): " + ",".join(str(b) for b in rep.twisted_betti))
    return 0


def _parse_rep_file(path, hdim):
    """Representation file: vdim=..., optional omega0=..., mat1..mat{hdim}.

    Each matrix is ';'-separated rows of ','-separated rationals; the
    shorthand "0" is the zero matrix.
    """
    fields = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
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

    if "omega0" in fields:
        coeffs = parse_rational_list(fields.pop("omega0"), vdim * (vdim - 1) // 2, "omega0")
        pairs = list(combinations(range(1, vdim + 1), 2))
        gram = [[Fraction(0)] * vdim for _ in range(vdim)]
        for (i, j), c in zip(pairs, coeffs):
            gram[i - 1][j - 1] = c
            gram[j - 1][i - 1] = -c
        space = construct.SymplecticSpace(vdim, tuple(tuple(row) for row in gram))
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
    h = entry.algebra()
    theta = entry.theta_form()
    space, mats = _parse_rep_file(args.rep_file, h.dim)
    try:
        rep = construct.Representation(h, space, tuple(mats))
    except ValueError as exc:
        raise VerificationFailure(f"representation check failed: {exc}") from exc
    try:
        result = construct.extend(LCSStructure(h, entry.omega_form(), theta), rep)
    except construct.PreconditionError as exc:
        raise VerificationFailure(f"representation is not compatible: {exc.reason}") from exc
    g = result.algebra

    record = CorpusEntry(
        name=f"{entry.name}-ext",
        source=StructureEquationSource(format_structure_equations(g), {}),
        dim=g.dim,
        omega=_pair_coefficients(result.structure.omega),
        theta=_one_form_coefficients(result.structure.theta),
        kind=str(Kind.SECOND_KIND) if any(entry.theta) else str(Kind.SYMPLECTIC),
        unimodular=result.unimodular,
        note=f"extension of {entry.name} by a {space.dim}-dimensional representation",
    )

    check_report = None
    if args.check_unimodular:
        expected_n = construct.unimodular_extension_dim(h, theta)
        actual_n = Fraction(space.dim, 2)
        predicted = expected_n == actual_n
        if predicted != result.unimodular:
            raise VerificationFailure(
                f"trace condition predicts unimodular={predicted} "
                f"but the extension has unimodular={result.unimodular}"
            )
        check_report = {
            "n": str(actual_n),
            "required_n": "none" if expected_n is None else str(expected_n),
            "unimodular": result.unimodular,
        }

    if args.json:
        payload = {
            "record": corpus.format_entry(record),
            "name": record.name,
            "dim": g.dim,
            "unimodular": result.unimodular,
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
        certs = [lattice.build_certificate(m, tol=args.tol) for m in ms]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    failed = False
    pairs = []
    if args.distinguish:
        for i, a in enumerate(certs):
            for b in certs[i:]:
                distinct = lattice.distinguish_solvmanifolds(a, b, tol=args.tol)
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
                    "residual": c.residual,
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
    """(name, failures, notes) for one record.

    A step that raises ValueError or RuntimeError ends the record as a
    failure naming the step, so that one bad record cannot abort the run.
    """
    failures = []
    notes = []
    step = "parse"
    try:
        g = entry.algebra()
        if g.dim != entry.dim:
            return entry.name, [f"declared dim {entry.dim} but tuple has arity {g.dim}"], notes

        if entry.unimodular is not None:
            actual = is_unimodular(g)
            if actual != entry.unimodular:
                failures.append(f"unimodular: expected {entry.unimodular}, computed {actual}")

        omega = entry.omega_form()
        theta = entry.theta_form()

        structure = None
        if omega is not None and theta is not None:
            try:
                structure = LCSStructure(g, omega, theta)
            except ValueError as exc:
                failures.append(f"check_lcs: {exc}")

        if structure is not None:
            step = "classify"
            verdict = structure.verdict
            if entry.kind is not None and str(verdict.kind) != entry.kind:
                failures.append(f"kind: expected {entry.kind}, computed {verdict.kind}")
            step = "recover_lee_form"
            if lcs.recover_lee_form(g, omega) != theta:
                failures.append("recover_lee_form does not reproduce the recorded theta")
            step = "exactness"
            exact = structure.primitive is not None
            if exact != novikov.is_exact_class(g, theta, omega):
                failures.append("exactness: primitive search and rank computation disagree")
            if is_unimodular(g) and exact != (verdict.kind is Kind.FIRST_KIND):
                failures.append("exactness does not match the kind on a unimodular algebra")

        if entry.extn is not None:
            step = "extn"
            if theta is None:
                failures.append("extn recorded but no theta")
            else:
                value = construct.unimodular_extension_dim(g, theta)
                expected = None if entry.extn == "none" else entry.extn
                if value != expected:
                    failures.append(f"extn: expected {entry.extn}, computed {value}")

        if entry.ideal is not None and structure is not None and not failures:
            if entry.ideal == "none":
                step = "ideal search"
                if construct.find_nondegenerate_abelian_ideal(structure) is not None:
                    failures.append("expected the coordinate-ideal search to fail, but it found one")
                else:
                    notes.append("no decomposable coordinate ideal (as recorded)")
            else:
                step = f"decompose on ideal {entry.ideal}"
                u_basis = [g.basis_vector(i) for i in entry.ideal]
                construct.decompose(structure, u_basis)
                step = "ideal search"
                if construct.find_nondegenerate_abelian_ideal(structure) != u_basis:
                    failures.append(f"ideal search did not return the recorded ideal {entry.ideal}")
    except (ValueError, RuntimeError) as exc:
        failures.append(f"{step}: {exc}")
    return entry.name, failures, notes


def cmd_regress(args):
    path = args.target if args.target is not None else corpus.default_corpus_path()
    entries = corpus.load_corpus(path)
    if not entries:
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


def _build_parser():
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
    p_lat.add_argument("--tol", type=float, default=lattice.DEFAULT_TOL,
                       help=f"numerical tolerance (default {lattice.DEFAULT_TOL})")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, NotationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
