"""Verification, classification, exactness, Lee-form recovery."""

from fractions import Fraction

import pytest

from lcslie import linalg
from lcslie.exterior import KForm, basis_form, ce_differential, one_form, wedge
from lcslie.lcs import (
    Kind,
    LCSStructure,
    automorphism_algebra,
    check_lcs,
    gram_matrix,
    recover_lee_form,
)
from lcslie.notation import parse_structure_equations

RR31 = "(0,-12,13,0)"


def entry_forms(entry):
    return entry.algebra(), entry.omega_form(), entry.theta_form()


def entry_structure(entry):
    return LCSStructure(*entry_forms(entry))


def test_corpus_records_verify(shipped):
    for entry in shipped:
        if entry.omega is None or entry.theta is None:
            continue
        g, omega, theta = entry_forms(entry)
        result = check_lcs(g, omega, theta)
        assert result, (entry.name, result.failure)
        if entry.kind is not None:
            assert str(LCSStructure(g, omega, theta).verdict.kind) == entry.kind, entry.name


def test_check_reports_first_failure():
    g = parse_structure_equations(RR31)
    theta = one_form(4, [1, 0, 0, 0])
    degenerate = basis_form(4, (1, 2))
    result = check_lcs(g, degenerate, theta)
    assert not result and result.failure == "omega is degenerate"
    # the witness is a kernel vector of the Gram matrix
    assert linalg.mat_vec(gram_matrix(degenerate), result.witness) == [Fraction(0)] * 4

    not_closed = one_form(4, [0, 1, 0, 0])
    result = check_lcs(g, KForm(4, 2, {(1, 2): 1, (3, 4): 1}), not_closed)
    assert not result and result.failure == "theta is not closed"

    wrong_scale = one_form(4, [2, 0, 0, 0])
    result = check_lcs(g, KForm(4, 2, {(1, 2): 1, (3, 4): 1}), wrong_scale)
    assert not result and result.failure == "d(omega) != theta ^ omega"
    assert result.witness == ce_differential(
        g, KForm(4, 2, {(1, 2): 1, (3, 4): 1})
    ) - wedge(wrong_scale, KForm(4, 2, {(1, 2): 1, (3, 4): 1}))


def test_odd_dimension_rejected():
    g = parse_structure_equations("(0,-12,0)")
    with pytest.raises(ValueError, match="even dimension"):
        check_lcs(g, KForm(3, 2, {(1, 2): 1}), one_form(3, [0, 0, 0]))


def test_automorphism_algebra_defining_property(shipped):
    for entry in shipped:
        if entry.omega is None or entry.dim > 4:
            continue
        g, omega, _theta = entry_forms(entry)
        basis = automorphism_algebra(g, omega)
        for x in basis:
            for j in range(1, g.dim + 1):
                for k in range(j + 1, g.dim + 1):
                    ej, ek = g.basis_vector(j), g.basis_vector(k)
                    lie = omega.evaluate(g.bracket(x, ej), ek) + omega.evaluate(
                        ej, g.bracket(x, ek)
                    )
                    assert lie == 0, entry.name


def test_automorphism_algebra_of_rr31():
    g = parse_structure_equations(RR31)
    omega = KForm(4, 2, {(1, 2): 1, (3, 4): 1})
    basis = automorphism_algebra(g, omega)
    e2, e4 = g.basis_vector(2), g.basis_vector(4)
    assert len(basis) == 2
    assert linalg.in_span(basis, e2) and linalg.in_span(basis, e4)


def test_classification_trichotomy(by_name):
    for name, kind in [("abelian4", Kind.SYMPLECTIC), ("heis4", Kind.FIRST_KIND), ("rr3-1", Kind.SECOND_KIND)]:
        structure = entry_structure(by_name[name])
        verdict = structure.verdict
        assert verdict.kind is kind
        assert str(verdict.kind) == by_name[name].kind
        assert verdict.lee_values == [
            structure.theta.evaluate(x) for x in verdict.automorphism_basis
        ]
        assert structure.verdict is verdict  # cached, not recomputed


def test_classify_requires_lcs():
    g = parse_structure_equations(RR31)
    with pytest.raises(ValueError, match="not an LCS structure"):
        LCSStructure(g, basis_form(4, (1, 2)), one_form(4, [1, 0, 0, 0]))


def test_exactness_produces_a_primitive(by_name):
    for name in ["heis4", "d4pd-p", "r2r2"]:
        g, omega, theta = entry_forms(by_name[name])
        eta = LCSStructure(g, omega, theta).primitive
        assert eta is not None, name
        assert ce_differential(g, eta) - wedge(theta, eta) == omega, name


def test_non_exact_on_second_kind_unimodular(by_name):
    for name in ["rr3-1", "d4-a", "ext42"]:
        assert entry_structure(by_name[name]).primitive is None, name


def test_lcs_structure_holder():
    g = parse_structure_equations(RR31)
    omega = KForm(4, 2, {(1, 2): 1, (3, 4): 1})
    theta = one_form(4, [1, 0, 0, 0])
    structure = LCSStructure(g, omega, theta)
    assert structure.omega == omega
    with pytest.raises(ValueError, match="not an LCS structure"):
        LCSStructure(g, omega, one_form(4, [2, 0, 0, 0]))


def test_recover_lee_form_from_corpus(shipped):
    for entry in shipped:
        if entry.omega is None or entry.theta is None:
            continue
        g, omega, theta = entry_forms(entry)
        assert recover_lee_form(g, omega) == theta, entry.name


def test_recover_rejects_degenerate_omega():
    g = parse_structure_equations(RR31)
    with pytest.raises(ValueError, match="degenerate"):
        recover_lee_form(g, basis_form(4, (1, 2)))


def test_recover_not_unique_in_dimension_two():
    g = parse_structure_equations("(0,-12)")
    with pytest.raises(ValueError, match="not unique"):
        recover_lee_form(g, basis_form(2, (1, 2)))


def test_recover_returns_none_when_unsolvable():
    # on this 6-dimensional product no 1-form satisfies d(omega) = theta ^ omega
    g = parse_structure_equations("(0,0,-12,0,0,-45)")
    omega = KForm(
        6,
        2,
        {
            (1, 5): -1, (1, 6): -1, (2, 3): 1, (2, 4): -1, (2, 6): 1,
            (3, 4): -1, (3, 5): 1, (4, 5): -1, (4, 6): -1,
        },
    )
    assert linalg.det(gram_matrix(omega)) != 0
    assert recover_lee_form(g, omega) is None


def test_symplectic_structure_recovers_zero():
    g = parse_structure_equations(RR31)
    omega = KForm(4, 2, {(1, 4): 1, (2, 3): 1})
    recovered = recover_lee_form(g, omega)
    assert recovered == one_form(4, [0, 0, 0, 0])
    assert LCSStructure(g, omega, recovered).verdict.kind is Kind.SYMPLECTIC
