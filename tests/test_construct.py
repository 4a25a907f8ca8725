"""Semidirect extensions and their converse decomposition."""

import random
from fractions import Fraction

import pytest

from lcslie import linalg
from lcslie.construct import (
    PreconditionError,
    Representation,
    SymplecticSpace,
    check_decompose_preconditions,
    decompose,
    extend,
    find_nondegenerate_abelian_ideal,
    is_lcs_representation,
    standard_symplectic,
    symmetric_skew_split,
    unimodular_extension_dim,
)
from lcslie.exterior import KForm, is_unimodular, one_form
from lcslie.lcs import Kind, LCSStructure, recover_lee_form
from lcslie.notation import format_structure_equations, parse_structure_equations

R2P = "(0,0,-13+24,-14-23)"


def diag(space_dim, entries):
    return [
        [Fraction(entries[i]) if i == j else Fraction(0) for j in range(space_dim)]
        for i in range(space_dim)
    ]


def example_extension_input():
    """The 4-dimensional algebra acting on R^4 by diag(0,-1,-1,0)."""
    h = parse_structure_equations(R2P)
    omega = KForm(4, 2, {(1, 3): 1, (2, 4): Fraction(-1, 2)})
    theta = one_form(4, [1, 0, 0, 0])
    space = standard_symplectic(4)
    zero = diag(4, [0, 0, 0, 0])
    rep = Representation(h, space, [diag(4, [0, -1, -1, 0]), zero, zero, zero])
    return h, omega, theta, rep


def structure_of(entry):
    return LCSStructure(entry.algebra(), entry.omega_form(), entry.theta_form())


def test_standard_symplectic_gram():
    space = standard_symplectic(4)
    expected = linalg.zeros(4, 4)
    expected[0][1] = Fraction(1)
    expected[1][0] = Fraction(-1)
    expected[2][3] = Fraction(1)
    expected[3][2] = Fraction(-1)
    assert space.gram == expected


def test_symplectic_space_validation():
    with pytest.raises(ValueError, match="even"):
        SymplecticSpace(3, linalg.zeros(3, 3))
    with pytest.raises(ValueError, match="skew"):
        SymplecticSpace(2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        SymplecticSpace(2, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="shape"):
        SymplecticSpace(2, [[0, 1]])


def test_symmetric_skew_split_identities():
    rng = random.Random(77)
    space = standard_symplectic(4)
    omega = space.gram
    omega_inv = linalg.inv(omega)
    for _ in range(15):
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        s, r = symmetric_skew_split(space, a)
        assert linalg.mat_add(s, r) == a
        conj_s = linalg.mat_mul(omega_inv, linalg.mat_mul(linalg.transpose(s), omega))
        conj_r = linalg.mat_mul(omega_inv, linalg.mat_mul(linalg.transpose(r), omega))
        assert conj_s == s
        assert conj_r == linalg.mat_scale(Fraction(-1), r)
        # r is in sp(V, omega_0): omega(r x, y) + omega(x, r y) = 0
        lie = linalg.mat_add(
            linalg.mat_mul(linalg.transpose(r), omega), linalg.mat_mul(omega, r)
        )
        assert lie == linalg.zeros(4, 4)


def test_representation_validates_homomorphism():
    h = parse_structure_equations("(0,-12,13,0)")
    space = standard_symplectic(2)
    good = [diag(2, [1, -1]), diag(2, [0, 0]), diag(2, [0, 0]), diag(2, [0, 0])]
    Representation(h, space, good)
    # pi(e1) must commute with pi(e2) up to pi([e1,e2]) = pi(e2); the
    # diagonal pair below gives [pi(e1), pi(e2)] = 0 != pi(e2)
    bad = [diag(2, [1, -1]), diag(2, [1, 1]), diag(2, [0, 0]), diag(2, [0, 0])]
    with pytest.raises(ValueError, match="not a representation"):
        Representation(h, space, bad)
    with pytest.raises(ValueError, match="one matrix per basis vector"):
        Representation(h, space, good[:2])


def test_is_lcs_representation_checks_symmetric_part():
    h, _omega, theta, rep = example_extension_input()
    assert is_lcs_representation(rep, theta)
    # doubling theta halves the required symmetric part, so the check fails
    wrong = is_lcs_representation(rep, one_form(4, [2, 0, 0, 0]))
    assert not wrong
    assert "symmetric part of pi(e1)" in wrong.failure
    assert wrong.witness[0] == 1


def test_extend_reproduces_the_worked_example():
    h, omega, theta, rep = example_extension_input()
    result = extend(LCSStructure(h, omega, theta), rep)
    g = result.algebra
    assert g.dim == 8
    assert format_structure_equations(g) == "(0,0,-13+24,-14-23,0,16,17,0)"
    assert result.unimodular and is_unimodular(g)
    omega_ext = result.structure.omega
    theta_ext = result.structure.theta
    assert omega_ext == KForm(
        8, 2, {(1, 3): 1, (2, 4): Fraction(-1, 2), (5, 6): 1, (7, 8): 1}
    )
    assert theta_ext == one_form(8, [1, 0, 0, 0, 0, 0, 0, 0])
    assert result.structure.verdict.kind is Kind.SECOND_KIND
    assert result.structure.primitive is None
    assert recover_lee_form(g, omega_ext) == theta_ext


def test_extend_rejects_bad_input():
    h, omega, theta, rep = example_extension_input()
    # a pair that is not LCS is refused before extend can be called
    with pytest.raises(ValueError, match="not an LCS structure"):
        LCSStructure(h, KForm(4, 2, {(1, 3): 1}), theta)
    # the identity is a valid homomorphism image for e1 but has
    # symmetric part Id, not -theta(e1)/2 * Id = -Id/2
    bad_rep = Representation(
        h, rep.space, [diag(4, [1, 1, 1, 1])] + [diag(4, [0, 0, 0, 0])] * 3
    )
    with pytest.raises(PreconditionError, match="symmetric part"):
        extend(LCSStructure(h, omega, theta), bad_rep)
    other = parse_structure_equations("(0,-12,13,0)")
    with pytest.raises(PreconditionError, match="does not act"):
        extend(
            LCSStructure(other, KForm(4, 2, {(1, 2): 1, (3, 4): 1}), one_form(4, [1, 0, 0, 0])),
            rep,
        )


def test_unimodular_extension_dim_trace_condition():
    h = parse_structure_equations(R2P)
    # trace(ad_{e1}) = 2, trace(ad_{e2}) = 0
    assert unimodular_extension_dim(h, one_form(4, [1, 0, 0, 0])) == 2
    assert unimodular_extension_dim(h, one_form(4, [Fraction(2, 3), 0, 0, 0])) == 3
    assert unimodular_extension_dim(h, one_form(4, [-2, 0, 0, 0])) == -1
    # theta(e2) != 0 forces n = 0 from e2, contradicting e1
    assert unimodular_extension_dim(h, one_form(4, [1, 1, 0, 0])) is None
    # theta(e1) = 0 while trace(ad_{e1}) != 0: no n works
    assert unimodular_extension_dim(h, one_form(4, [0, 1, 0, 0])) is None
    with pytest.raises(ValueError, match="theta = 0"):
        unimodular_extension_dim(h, one_form(4, [0, 0, 0, 0]))


def test_unimodular_extension_dim_matches_corpus(shipped):
    for entry in shipped:
        if entry.extn is None or entry.theta is None:
            continue
        expected = None if entry.extn == "none" else entry.extn
        g = entry.algebra()
        assert unimodular_extension_dim(g, entry.theta_form()) == expected, entry.name


def test_decompose_splits_rr31(by_name):
    structure = structure_of(by_name["rr3-1"])
    g = structure.algebra
    u_basis = [g.basis_vector(3), g.basis_vector(4)]
    base, rep = decompose(structure, u_basis)
    assert base.algebra.dim == 2
    assert format_structure_equations(base.algebra) == "(0,-12)"
    assert base.omega == KForm(2, 2, {(1, 2): 1})
    assert base.theta == one_form(2, [1, 0])
    assert rep.mats[0] == [[Fraction(-1), 0], [0, 0]]
    assert rep.mats[1] == linalg.zeros(2, 2)
    assert rep.space.gram == [[0, Fraction(1)], [Fraction(-1), 0]]


def test_decompose_round_trips_every_recorded_ideal(shipped):
    for entry in shipped:
        if not isinstance(entry.ideal, tuple):
            continue
        structure = structure_of(entry)
        g = structure.algebra
        u_basis = [g.basis_vector(i) for i in entry.ideal]
        # decompose raises if the rebuilt product differs from g
        base, rep = decompose(structure, u_basis)
        assert base.algebra.dim + rep.space.dim == g.dim, entry.name


def test_decompose_precondition_failures(by_name):
    rr31 = structure_of(by_name["rr3-1"])
    g = rr31.algebra
    with pytest.raises(PreconditionError, match="empty ideal"):
        check_decompose_preconditions(rr31, [])
    with pytest.raises(PreconditionError, match="linearly dependent"):
        check_decompose_preconditions(rr31, [g.basis_vector(3), g.basis_vector(3)])
    with pytest.raises(PreconditionError, match="not an ideal"):
        check_decompose_preconditions(rr31, [g.basis_vector(1), g.basis_vector(2)])
    with pytest.raises(PreconditionError, match="degenerates"):
        check_decompose_preconditions(rr31, [g.basis_vector(2), g.basis_vector(4)])

    heis4 = structure_of(by_name["heis4"])
    gh = heis4.algebra
    with pytest.raises(PreconditionError, match="not contained in ker"):
        check_decompose_preconditions(heis4, [gh.basis_vector(3), gh.basis_vector(4)])
    with pytest.raises(PreconditionError, match="not abelian"):
        check_decompose_preconditions(heis4, [gh.basis_vector(i) for i in (1, 2, 3, 4)])


def test_ideal_search(by_name):
    rr31 = structure_of(by_name["rr3-1"])
    g = rr31.algebra
    found = find_nondegenerate_abelian_ideal(rr31)
    assert found == [g.basis_vector(3), g.basis_vector(4)]

    assert find_nondegenerate_abelian_ideal(structure_of(by_name["d4-a"])) is None

    # extra candidates are tried after the coordinate subspaces
    r2r2 = structure_of(by_name["r2r2"])
    gr = r2r2.algebra
    extra = [[gr.basis_vector(2), gr.basis_vector(4)]]
    assert find_nondegenerate_abelian_ideal(r2r2, extra_candidates=extra) is None


def test_ideal_search_requires_twisted_structure(by_name):
    with pytest.raises(ValueError, match="theta = 0"):
        find_nondegenerate_abelian_ideal(structure_of(by_name["abelian4"]))
