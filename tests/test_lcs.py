"""Verification, classification, exactness, Lee-form recovery."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from lcslie import linalg
from lcslie.construct import Representation, extend, standard_symplectic
from lcslie.exterior import KForm, basis_form, ce_differential, one_form
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


def test_check_reports_first_failure(wedge, mat_vec):
    g = parse_structure_equations(RR31)
    theta = one_form(4, [1, 0, 0, 0])
    degenerate = basis_form(4, (1, 2))
    result = check_lcs(g, degenerate, theta)
    assert not result and result.failure == "omega is degenerate"
    # the witness is a kernel vector of the Gram matrix
    assert mat_vec(gram_matrix(degenerate), result.witness) == [Fraction(0)] * 4

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


def test_automorphism_algebra_defining_property(shipped, evaluate):
    for entry in shipped:
        if entry.omega is None or entry.dim > 4:
            continue
        g, omega, _theta = entry_forms(entry)
        basis = automorphism_algebra(g, omega)
        for x in basis:
            for j in range(1, g.dim + 1):
                for k in range(j + 1, g.dim + 1):
                    ej, ek = g.basis_vector(j), g.basis_vector(k)
                    lie = evaluate(omega, g.bracket(x, ej), ek) + evaluate(
                        omega, ej, g.bracket(x, ek)
                    )
                    assert lie == 0, entry.name


def test_automorphism_algebra_of_rr31():
    g = parse_structure_equations(RR31)
    omega = KForm(4, 2, {(1, 2): 1, (3, 4): 1})
    basis = automorphism_algebra(g, omega)
    e2, e4 = g.basis_vector(2), g.basis_vector(4)
    assert len(basis) == 2
    assert len(linalg.rref(basis + [e2, e4])) == 2


def test_automorphism_algebra_rejects_a_basis_that_is_not_bracket_closed(by_name, monkeypatch):
    # on heis4, [e1, e2] = e3 lies outside the span of e1 and e2
    g, omega, _theta = entry_forms(by_name["heis4"])
    monkeypatch.setattr(linalg, "nullspace", lambda a: [g.basis_vector(1), g.basis_vector(2)])
    with pytest.raises(RuntimeError, match="^automorphism space is not bracket-closed$"):
        automorphism_algebra(g, omega)


def test_classification_trichotomy(by_name, evaluate):
    for name, kind in [("abelian4", Kind.SYMPLECTIC), ("heis4", Kind.FIRST_KIND), ("rr3-1", Kind.SECOND_KIND)]:
        structure = entry_structure(by_name[name])
        verdict = structure.verdict
        assert verdict.kind is kind
        assert str(verdict.kind) == by_name[name].kind
        assert verdict.lee_values == [
            evaluate(structure.theta, x) for x in verdict.automorphism_basis
        ]
        assert structure.verdict is verdict  # cached, not recomputed


def test_classify_requires_lcs():
    g = parse_structure_equations(RR31)
    with pytest.raises(ValueError, match="not an LCS structure"):
        LCSStructure(g, basis_form(4, (1, 2)), one_form(4, [1, 0, 0, 0]))


def test_exactness_produces_a_primitive(by_name, wedge):
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
    with pytest.raises(ValueError, match="^omega is degenerate"):
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
    assert not linalg.nullspace(gram_matrix(omega))
    assert recover_lee_form(g, omega) is None


def test_symplectic_structure_recovers_zero():
    g = parse_structure_equations(RR31)
    omega = KForm(4, 2, {(1, 4): 1, (2, 3): 1})
    recovered = recover_lee_form(g, omega)
    assert recovered == one_form(4, [0, 0, 0, 0])
    assert LCSStructure(g, omega, recovered).verdict.kind is Kind.SYMPLECTIC


@pytest.fixture(scope="module")
def lcs_pool(shipped):
    """Two lists of (g, omega, theta).  The first holds the corpus structures
    and the scalar extensions of the dim-4 ones by pi = -theta/2 * Id on R^2
    and R^4 (dims 6 and 8).  The second holds edge cases: two dim-2
    algebras, and h3 + R^3, on which every candidate theta is closed (no
    3-form d(omega) has a term with e^6), so d(omega) = theta ^ omega alone
    decides solvability."""
    pool = []
    for entry in shipped:
        if entry.omega is None or entry.theta is None:
            continue
        structure = entry_structure(entry)
        pool.append((structure.algebra, structure.omega, structure.theta))
        if entry.dim != 4 or structure.theta.is_zero():
            continue
        for vdim in (2, 4):
            space = standard_symplectic(vdim)
            mats = [[[-structure.theta.coefficient((i,)) / 2 * (a == b) for b in range(vdim)]
                     for a in range(vdim)] for i in range(1, 5)]
            product = extend(structure, Representation(structure.algebra, space, mats))
            pool.append((product.algebra, product.omega, product.theta))
    edge = [(parse_structure_equations(text), basis_form(2, (1, 2)), one_form(2, [0, 0]))
            for text in ("(0,-12)", "(0,0)")]
    edge.append((parse_structure_equations("(0,0,0,0,0,-12)"),
                 KForm(6, 2, {(1, 6): 1, (2, 3): 1, (4, 5): 1}), one_form(6, [0] * 6)))
    return pool, edge


@st.composite
def omegas(draw, pool):
    """(g, omega) with omega drawn from a pool structure (g, omega_0, theta):
    omega_0 + d_theta(eta), which is LCS with Lee form theta unless it
    degenerates; a random 2-form, mostly unsolvable; or a random 2-form
    that omits e^n, so degenerate."""
    structures, edge = pool
    g, omega0, theta = draw(st.one_of(st.sampled_from(structures), st.sampled_from(edge)))
    n = g.dim
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    mode = draw(st.sampled_from(("perturbed", "random", "degenerate")))
    if mode == "perturbed":
        eta = one_form(n, draw(st.lists(small, min_size=n, max_size=n)))
        return g, omega0 + ce_differential(g, eta, theta)
    pairs = list(combinations(range(1, n + 1 if mode == "random" else n), 2))
    values = draw(st.lists(small, min_size=len(pairs), max_size=len(pairs)))
    return g, KForm(n, 2, dict(zip(pairs, values)))


def outcome(function, *args):
    """The return value, or the message of the ValueError raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_recover_lee_form_agrees_with_the_twist_solve(lcs_pool, twist_lee_form, data):
    g, omega = data.draw(omegas(lcs_pool))
    assert outcome(recover_lee_form, g, omega) == outcome(twist_lee_form, g, omega)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_automorphism_algebra_agrees_with_the_covector_system(
    lcs_pool, covector_automorphisms, data
):
    g, omega = data.draw(omegas(lcs_pool))
    assert automorphism_algebra(g, omega) == covector_automorphisms(g, omega)
