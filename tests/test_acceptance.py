"""Acceptance gate: eight end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
each test prints exactly one `[acceptance N] PASS/FAIL` line and then
asserts that nothing failed.
"""

import random
from fractions import Fraction
from math import comb

from lcslie import linalg
from lcslie.algebra import LieAlgebra, center
from lcslie.construct import (
    Representation,
    SymplecticSpace,
    decompose,
    extend,
    find_nondegenerate_abelian_ideal,
    standard_symplectic,
    unimodular_extension_dim,
)
from lcslie.exterior import KForm, differential_matrix, is_unimodular, one_form
from lcslie.lattice import build_certificate, distinguish_solvmanifolds
from lcslie.lcs import Kind, LCSStructure, recover_lee_form
from lcslie.notation import format_structure_equations, parse_structure_equations
from lcslie.novikov import cohomology

R2P = "(0,0,-13+24,-14-23)"


def _verdict(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    tail = "" if not failures else f" [{len(failures)} problem(s): {failures[:3]}]"
    print(f"[acceptance {num}] {status}: {label}{tail}")
    assert not failures, failures


def test_acceptance_1_unimodular_family_verdicts(shipped):
    failures = []
    entries = [e for e in shipped if e.group == "unimodular4"]
    if len(entries) != 12:
        failures.append(f"expected 12 records, found {len(entries)}")
    for entry in entries:
        g = entry.algebra()
        try:
            structure = LCSStructure(g, entry.omega_form(), entry.theta_form())
        except ValueError as exc:
            failures.append(f"{entry.name}: {exc}")
            continue
        if structure.verdict.kind is not Kind.SECOND_KIND:
            failures.append(f"{entry.name}: not of the second kind")
        if not is_unimodular(g):
            failures.append(f"{entry.name}: not unimodular")
        if structure.primitive is not None:
            failures.append(f"{entry.name}: unexpectedly exact")
    _verdict(1, "12 unimodular structures verified, second kind, non-exact", failures)


def test_acceptance_2_lee_form_recovery_and_trace_condition(shipped):
    failures = []
    entries = [e for e in shipped if e.group == "extendable4"]
    if len(entries) != 20:
        failures.append(f"expected 20 records, found {len(entries)}")
    for entry in entries:
        g = entry.algebra()
        omega, theta = entry.omega_form(), entry.theta_form()
        if recover_lee_form(g, omega) != theta:
            failures.append(f"{entry.name}: Lee form recovery mismatch")
        computed = unimodular_extension_dim(g, theta)
        if computed != entry.extn:
            failures.append(f"{entry.name}: extension dim {computed} != {entry.extn}")
    _verdict(2, "Lee forms recovered and trace ratios match on 20 records", failures)


def test_acceptance_3_worked_extension_end_to_end():
    failures = []
    h = parse_structure_equations(R2P)
    omega = KForm(4, 2, {(1, 3): 1, (2, 4): Fraction(-1, 2)})
    theta = one_form(4, [1, 0, 0, 0])
    zero = [[Fraction(0)] * 4 for _ in range(4)]
    mat1 = [[Fraction(0)] * 4 for _ in range(4)]
    mat1[1][1] = mat1[2][2] = Fraction(-1)
    rep = Representation(h, standard_symplectic(4), [mat1, zero, zero, zero])
    result = extend(LCSStructure(h, omega, theta), rep)
    g = result.algebra

    if format_structure_equations(g) != "(0,0,-13+24,-14-23,0,16,17,0)":
        failures.append(f"unexpected tuple {format_structure_equations(g)}")
    if not result.unimodular:
        failures.append("extension is not unimodular")
    if result.structure.verdict.kind is not Kind.SECOND_KIND:
        failures.append("extension is not of the second kind")
    if result.structure.primitive is not None:
        failures.append("extension is unexpectedly exact")
    report = cohomology(g, result.structure.theta)
    if tuple(report.betti) != (1, 4, 6, 4, 2, 4, 6, 4, 1):
        failures.append(f"betti {report.betti}")
    if tuple(report.twisted_betti) != (0, 2, 8, 12, 8, 2, 0, 0, 0):
        failures.append(f"twisted betti {report.twisted_betti}")

    # Lee-form selection on the base algebra: only multiples of e^1 work,
    # and the scale fixes the dimension of a unimodular extension
    cases = [
        ([1, 0, 0, 0], Fraction(2)),
        ([Fraction(2, 3), 0, 0, 0], Fraction(3)),
        ([-2, 0, 0, 0], Fraction(-1)),
        ([0, 1, 0, 0], None),
        ([1, 1, 0, 0], None),
    ]
    for coeffs, expected in cases:
        got = unimodular_extension_dim(h, one_form(4, coeffs))
        if got != expected:
            failures.append(f"trace ratio for theta={coeffs}: {got} != {expected}")
    _verdict(3, "worked 8-dimensional extension rebuilt and cross-checked", failures)


def test_acceptance_4_central_extensions_at_the_critical_parameter():
    failures = []
    for n in (1, 2, 3):
        lam = Fraction(-1, n + 1)
        h = parse_structure_equations("(0,-12,-λ13,0)", {"λ": lam})
        omega_h = KForm(4, 2, {(1, 2): 1, (3, 4): 1})
        theta = one_form(4, [-lam, 0, 0, 0])
        gram = linalg.zeros(2 * n, 2 * n)
        for i in range(n):
            gram[i][n + i] = Fraction(1)
            gram[n + i][i] = Fraction(-1)
        space = SymplecticSpace(2 * n, gram)
        mat1 = linalg.zeros(2 * n, 2 * n)
        for i in range(n):
            mat1[i][i] = lam
        zero = linalg.zeros(2 * n, 2 * n)
        rep = Representation(h, space, [mat1, zero, zero, zero])
        result = extend(LCSStructure(h, omega_h, theta), rep)
        if not result.unimodular:
            failures.append(f"n={n}: extension is not unimodular")
        z = center(result.algebra)
        if len(z) != n + 1:
            failures.append(f"n={n}: center has dimension {len(z)}, wanted {n + 1}")
            continue
        expected_members = [result.algebra.basis_vector(4)] + [
            result.algebra.basis_vector(4 + n + i) for i in range(1, n + 1)
        ]
        for vec in expected_members:
            if not linalg.in_span(z, vec):
                failures.append(f"n={n}: expected central vector {vec} missing")
    _verdict(4, "unimodular extensions with centers of dimension n+1 for n=1,2,3", failures)


def test_acceptance_5_eight_dimensional_cohomology(by_name):
    failures = []
    entry = by_name["gprime"]
    g = entry.algebra()
    theta = entry.theta_form()
    report = cohomology(g, theta)
    if tuple(report.betti) != (1, 4, 10, 20, 26, 20, 10, 4, 1):
        failures.append(f"betti {report.betti}")
    if tuple(report.twisted_betti) != (0, 2, 8, 14, 16, 14, 8, 2, 0):
        failures.append(f"twisted betti {report.twisted_betti}")
    # independent recomputation from raw ranks
    ranks = [linalg.rank(differential_matrix(g, k, theta)) for k in range(9)]
    for k in range(9):
        cocycles = comb(8, k) - ranks[k]
        boundaries = ranks[k - 1] if k > 0 else 0
        if report.twisted_betti[k] != cocycles - boundaries:
            failures.append(f"rank cross-check fails at degree {k}")
    _verdict(5, "twisted and untwisted Betti vectors in dimension 8", failures)


def test_acceptance_6_decompositions_across_the_family(shipped):
    failures = []
    searched_none = 0
    for entry in shipped:
        if entry.group != "unimodular4":
            continue
        g = entry.algebra()
        structure = LCSStructure(g, entry.omega_form(), entry.theta_form())
        if entry.ideal == "none":
            if find_nondegenerate_abelian_ideal(structure) is not None:
                failures.append(f"{entry.name}: unexpected decomposable ideal")
            searched_none += 1
            continue
        u_basis = [g.basis_vector(i) for i in entry.ideal]
        try:
            base, rep = decompose(structure, u_basis)
        except Exception as exc:
            failures.append(f"{entry.name}: decompose failed: {exc}")
            continue
        if base.algebra.dim + rep.space.dim != g.dim:
            failures.append(f"{entry.name}: dimensions do not add up")
        if find_nondegenerate_abelian_ideal(structure) != u_basis:
            failures.append(f"{entry.name}: search missed the recorded ideal")
    if searched_none != 1:
        failures.append(f"expected exactly 1 non-decomposable record, saw {searched_none}")
    _verdict(6, "recorded ideals decompose and rebuild; one record has none", failures)


def test_acceptance_7_lattice_certificates_and_distinction():
    failures = []
    certs = {m: build_certificate(m) for m in range(3, 11)}
    for m, cert in certs.items():
        if cert.residual >= 1e-9:
            failures.append(f"m={m}: residual {cert.residual:.3e}")
    for m in range(3, 11):
        for n in range(3, 11):
            if distinguish_solvmanifolds(certs[m], certs[n]) != (m != n):
                failures.append(f"distinguish({m},{n}) wrong")
    _verdict(7, "certificates for m=3..10 within 1e-9 and pairwise distinction", failures)


def test_acceptance_8_randomized_laws_and_the_exactness_dichotomy(shipped):
    failures = []
    rng = random.Random(20260818)
    for trial in range(200):
        dim = rng.randint(3, 6)
        action = [
            [rng.randint(-3, 3) for _ in range(dim - 1)] for _ in range(dim - 1)
        ]
        brackets = {}
        for i in range(1, dim):
            column = [Fraction(-action[r][i - 1]) for r in range(dim - 1)]
            if any(column):
                brackets[(i, dim)] = column + [Fraction(0)]
        g = LieAlgebra(dim, brackets)
        if parse_structure_equations(format_structure_equations(g)) != g:
            failures.append(f"trial {trial}: notation round trip")
            break
        c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        if rng.random() < 0.5:
            c = -c
        theta = one_form(dim, [0] * (dim - 1) + [c])
        for k in range(dim):
            first = differential_matrix(g, k, theta)
            second = differential_matrix(g, k + 1, theta)
            product = linalg.mat_mul(second, first)
            if product != linalg.zeros(len(product), len(product[0])):
                failures.append(f"trial {trial}: twisted differential squared != 0")
                break

    # exact <=> first kind on the unimodular part of the corpus
    for entry in shipped:
        if not entry.unimodular or entry.omega is None or entry.theta is None:
            continue
        structure = LCSStructure(entry.algebra(), entry.omega_form(), entry.theta_form())
        if structure.theta.is_zero():
            continue
        exact = structure.primitive is not None
        first = structure.verdict.kind is Kind.FIRST_KIND
        if exact != first:
            failures.append(f"{entry.name}: exact={exact} but first-kind={first}")
    _verdict(8, "200 random algebras obey the laws; exactness matches the kind", failures)
