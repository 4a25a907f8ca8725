"""Structure-equation text: parsing, sign convention, formatting."""

from fractions import Fraction

import pytest

from lcslie.algebra import LieAlgebra
from lcslie.notation import (
    NotationError,
    StructureEquationSource,
    format_structure_equations,
    parse_structure_equations,
)


def frac_vec(*entries):
    return [Fraction(x) for x in entries]


def test_sign_convention():
    # entry k is the literal expansion of d(e^k); brackets carry the
    # opposite sign because d(a)(X, Y) = -a([X, Y])
    g = parse_structure_equations("(0,-12,13,0)")
    assert g.dim == 4
    assert g.basis_bracket(1, 2) == frac_vec(0, 1, 0, 0)
    assert g.basis_bracket(1, 3) == frac_vec(0, 0, -1, 0)
    assert g.basis_bracket(2, 3) == frac_vec(0, 0, 0, 0)
    assert g.basis_bracket(2, 1) == frac_vec(0, -1, 0, 0)


def test_bracket_table_is_sparse():
    # the parser stores {k: c^k_ij} with 1-based k and no zeros
    g = parse_structure_equations("(0,-12,13,0)")
    assert g.brackets == {(1, 2): {2: 1}, (1, 3): {3: -1}}
    # dense coordinate lists and {k: c} dicts build the same table
    dense = LieAlgebra(4, {(1, 2): [0, 1, 0, 0], (1, 3): [0, 0, -1, 0], (2, 3): [0] * 4})
    assert dense.brackets == g.brackets
    assert LieAlgebra(4, {(1, 2): {2: 1, 4: 0}, (1, 3): {3: -1}}) == g
    with pytest.raises(ValueError, match="out of range"):
        LieAlgebra(4, {(1, 2): {5: 1}})
    with pytest.raises(ValueError, match="length 3"):
        LieAlgebra(4, {(1, 2): [0, 1, 0]})


def test_parameters_bound_at_parse_time():
    src = StructureEquationSource("(0,-12,-λ13,0)", {"λ": Fraction(-1, 3)})
    g = parse_structure_equations(src)
    assert g.basis_bracket(1, 3) == frac_vec(0, 0, Fraction(-1, 3), 0)
    # a bare string with a separate parameter dict behaves the same
    same = parse_structure_equations("(0,-12,-λ13,0)", {"λ": Fraction(-1, 3)})
    assert same == g


def test_unbound_parameter():
    with pytest.raises(NotationError, match="unbound parameter"):
        parse_structure_equations("(0,-12,-λ13,0)")


def test_coefficient_expressions():
    g = parse_structure_equations("(λ14,(1-λ)24,-12+34,0)", {"λ": Fraction(3)})
    assert g.basis_bracket(1, 4) == frac_vec(-3, 0, 0, 0)
    assert g.basis_bracket(2, 4) == frac_vec(0, 2, 0, 0)
    assert g.basis_bracket(1, 2) == frac_vec(0, 0, 1, 0)
    assert g.basis_bracket(3, 4) == frac_vec(0, 0, -1, 0)


def test_fraction_coefficient_with_space_separator():
    g = parse_structure_equations("(δ/2 14+24,1/2 24,-12+34,0)", {"δ": Fraction(1)})
    assert g.basis_bracket(1, 4) == frac_vec(Fraction(-1, 2), 0, 0, 0)
    assert g.basis_bracket(2, 4) == frac_vec(-1, Fraction(-1, 2), 0, 0)


def test_numeric_coefficient_needs_separator():
    # "224" cannot mean 2*e^{24}: the pair must be preceded by a
    # non-digit, so a space or '*' is required
    with pytest.raises(NotationError, match="no index pair"):
        parse_structure_equations("(0,224,0,0)")
    g = parse_structure_equations("(0,2*24,0,0)")
    assert g.basis_bracket(2, 4) == frac_vec(0, -2, 0, 0)


def test_repeated_pair_coefficients_accumulate():
    g = parse_structure_equations("(12+2*12,0)")
    assert g.basis_bracket(1, 2) == frac_vec(-3, 0)
    # accumulating to zero drops the bracket entirely
    h = parse_structure_equations("(12-12,0)")
    assert h.brackets == {}


def test_index_pair_order_flips_sign():
    g = parse_structure_equations("(21,0)")
    h = parse_structure_equations("(-12,0)")
    assert g == h


def test_bad_indices():
    with pytest.raises(NotationError, match="out of range"):
        parse_structure_equations("(0,14,0)")
    with pytest.raises(NotationError, match="repeated index"):
        parse_structure_equations("(0,11,0)")


def test_empty_entry_rejected():
    with pytest.raises(NotationError, match="entry 2 is empty"):
        parse_structure_equations("(0,,0)")


def test_unbalanced_brackets():
    with pytest.raises(NotationError, match="unbalanced"):
        parse_structure_equations("(0,(1-λ23,0)")


def test_jacobi_violation_reports_witness():
    with pytest.raises(NotationError, match=r"Jacobi identity fails on basis triple \(1, 2, 4\)"):
        parse_structure_equations("(0,-12,-12+34,0)")


def test_more_than_max_dim_entries_rejected():
    with pytest.raises(NotationError, match="tuple has 15 entries, more than MAX_DIM = 14"):
        parse_structure_equations("(" + ",".join(["0"] * 15) + ")")
    assert parse_structure_equations("(" + ",".join(["0"] * 14) + ")").dim == 14


def test_dimension_ten_needs_bracketed_pairs():
    eq = "(0,0,0,0,0,0,0,0,0,-[1][10])"
    g = parse_structure_equations(eq)
    assert g.dim == 10
    assert g.basis_bracket(1, 10)[9] == 1
    with pytest.raises(NotationError, match="bracketed indices"):
        parse_structure_equations("(0,0,0,0,0,0,0,0,0,-12)")


def test_format_round_trip_is_exact():
    for text in ["(0,-12,13,0)", "(0,0,-13+24,-14-23,0,16,17,0)", "(0,0,-12,0)"]:
        g = parse_structure_equations(text)
        assert format_structure_equations(g) == text
        assert parse_structure_equations(format_structure_equations(g)) == g


def test_format_round_trip_with_fractions():
    g = parse_structure_equations(
        "(δ/2 14+24,-14+δ/2 24,-12+δ34,0)", {"δ": Fraction(1)}
    )
    text = format_structure_equations(g)
    assert parse_structure_equations(text) == g


def test_format_round_trip_bracketed():
    eq = "(0,0,0,0,0,0,0,0,0,-[1][10])"
    g = parse_structure_equations(eq)
    text = format_structure_equations(g)
    assert "[1][10]" in text
    assert parse_structure_equations(text) == g


def test_corpus_sources_round_trip(shipped):
    for entry in shipped:
        g = entry.algebra()
        assert parse_structure_equations(format_structure_equations(g)) == g
