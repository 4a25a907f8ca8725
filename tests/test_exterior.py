"""Exterior algebra and the Chevalley-Eilenberg differential.

The oracles here avoid the implementation's own shortcuts: the wedge
product of tests/conftest.py is checked against the shuffle formula
evaluated on basis tuples, and d is checked against the direct
two-argument formula on 1-forms plus the Leibniz rule in higher degree.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lcslie import linalg
from lcslie.algebra import LieAlgebra, abelian, change_basis
from lcslie.exterior import (
    KForm,
    basis_form,
    ce_differential,
    check_jacobi,
    differential_matrix,
    differential_scale,
    form_basis,
    form_masks,
    form_to_vector,
    is_unimodular,
    mask_key,
    one_form,
    vector_to_form,
    weight_block,
)
from lcslie.lcs import gram_matrix
from lcslie.notation import parse_structure_equations


def random_form(rng, dim, degree):
    coeffs = {}
    for key in combinations(range(1, dim + 1), degree):
        c = rng.randint(-2, 2)
        if c:
            coeffs[key] = Fraction(c, rng.randint(1, 2))
    return KForm(dim, degree, coeffs)


def random_vector(rng, dim):
    return [Fraction(rng.randint(-3, 3)) for _ in range(dim)]


def shuffle_sign(left, right):
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    seq = list(left + right)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def test_wedge_matches_shuffle_formula(wedge):
    rng = random.Random(101)
    for dim, p, q in [(3, 1, 1), (4, 1, 2), (4, 2, 2), (5, 1, 3), (5, 2, 2)]:
        for _ in range(8):
            a = random_form(rng, dim, p)
            b = random_form(rng, dim, q)
            product = wedge(a, b)
            for key in combinations(range(1, dim + 1), p + q):
                expected = Fraction(0)
                for left in combinations(key, p):
                    right = tuple(i for i in key if i not in left)
                    expected += (
                        shuffle_sign(left, right)
                        * a.coefficient(left)
                        * b.coefficient(right)
                    )
                assert product.coefficient(key) == expected


def test_wedge_graded_commutative_and_associative(wedge):
    rng = random.Random(55)
    for _ in range(20):
        dim = rng.randint(3, 5)
        p, q, r = (rng.randint(1, 2) for _ in range(3))
        a, b, c = (random_form(rng, dim, d) for d in (p, q, r))
        assert wedge(a, b) == Fraction((-1) ** (p * q)) * wedge(b, a)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_overflow_is_zero(wedge):
    a = basis_form(3, (1, 2))
    b = basis_form(3, (2, 3))
    product = wedge(a, b)
    assert product.degree == 4 and product.is_zero()


def test_evaluate_determinant_convention(evaluate):
    """A 2-form is evaluated as x^T G y with its Gram matrix, which must
    agree with the determinant convention e^12(e1, e2) = 1."""

    def value(omega, x, y):
        return sum(
            (a * g * b for a, row in zip(x, gram_matrix(omega)) for g, b in zip(row, y)),
            Fraction(0),
        )

    e12 = basis_form(4, (1, 2))
    e1 = [Fraction(1), 0, 0, 0]
    e2 = [0, Fraction(1), 0, 0]
    assert value(e12, e1, e2) == evaluate(e12, e1, e2) == 1
    assert value(e12, e2, e1) == evaluate(e12, e2, e1) == -1
    assert value(e12, e1, e1) == evaluate(e12, e1, e1) == 0
    rng = random.Random(2)
    for _ in range(10):
        omega = random_form(rng, 4, 2)
        x, y = random_vector(rng, 4), random_vector(rng, 4)
        assert value(omega, x, y) == evaluate(omega, x, y) == -value(omega, y, x)
        two_x = [2 * c for c in x]
        assert value(omega, two_x, y) == 2 * value(omega, x, y)


def test_kform_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        KForm(4, 2, {(2, 1): 1})
    with pytest.raises(ValueError, match="out of range"):
        KForm(4, 2, {(1, 5): 1})
    with pytest.raises(ValueError, match="length"):
        KForm(4, 2, {(1,): 1})
    # no valid key exists above the ambient dimension, so only the zero
    # form lives there
    with pytest.raises(ValueError, match="out of range"):
        KForm(3, 4, {(1, 2, 3, 4): 1})
    assert KForm(3, 4).is_zero()
    assert KForm(4, 2, {(1, 2): 0}).is_zero()
    with pytest.raises(ValueError, match="degree mismatch"):
        basis_form(4, (1, 2)) + one_form(4, [1, 0, 0, 0])


def test_form_basis_is_colexicographic():
    assert form_basis(4, 2) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    assert form_masks(4, 2) == [0b11, 0b101, 0b110, 0b1001, 0b1010, 0b1100]
    assert [mask_key(m) for m in form_masks(4, 2)] == form_basis(4, 2)
    vec = form_to_vector(KForm(4, 2, {(2, 4): Fraction(5)}))
    assert vec == [0, 0, 0, 0, 5, 0]
    assert vector_to_form(4, 2, vec) == KForm(4, 2, {(2, 4): 5})


def test_differential_on_one_forms_is_minus_bracket_dual(evaluate):
    for eq in ["(0,-12,13,0)", "(0,0,-12,0)", "(0,0,-13+24,-14-23)"]:
        g = parse_structure_equations(eq)
        rng = random.Random(17)
        for _ in range(10):
            alpha = random_form(rng, g.dim, 1)
            da = ce_differential(g, alpha)
            for i, j in combinations(range(1, g.dim + 1), 2):
                ei, ej = g.basis_vector(i), g.basis_vector(j)
                assert evaluate(da, ei, ej) == -evaluate(alpha, g.bracket(ei, ej))


def test_differential_leibniz_rule(wedge):
    rng = random.Random(23)
    for eq in ["(0,-12,13,0)", "(14,-24,-12,0)"]:
        g = parse_structure_equations(eq)
        for _ in range(15):
            p = rng.randint(1, 2)
            a = random_form(rng, g.dim, p)
            b = random_form(rng, g.dim, rng.randint(1, 2))
            lhs = ce_differential(g, wedge(a, b))
            rhs = wedge(ce_differential(g, a), b) + Fraction((-1) ** p) * wedge(
                a, ce_differential(g, b)
            )
            assert lhs == rhs


def test_differential_squares_to_zero_all_degrees(shipped, dense):
    for entry in shipped:
        g = entry.algebra()
        for degree in range(g.dim):
            d_k = dense(differential_matrix(g, degree), comb(g.dim, degree))
            d_k1 = dense(differential_matrix(g, degree + 1), comb(g.dim, degree + 1))
            if not d_k or not d_k[0] or not d_k1 or not d_k1[0]:
                continue
            product = linalg.mat_mul(d_k1, d_k)
            assert all(all(x == 0 for x in row) for row in product), (
                entry.name,
                degree,
            )


def test_differential_matrix_matches_columnwise(dense, wedge, wedge_differential):
    g = parse_structure_equations("(0,-12,13,0)")
    theta = one_form(4, [1, 0, 0, 0])
    for degree in range(4):
        dom = form_basis(4, degree)
        cod = form_basis(4, degree + 1)
        rows = differential_matrix(g, degree, theta)
        assert all(0 <= c < len(dom) and x for row in rows for c, x in row.items())
        mat = dense(rows, len(dom))
        assert len(mat) == len(cod) and len(mat[0]) == len(dom)
        for col, key in enumerate(dom):
            a = basis_form(4, key)
            expected = wedge_differential(g, a) - wedge(theta, a)
            got = vector_to_form(4, degree + 1, [row[col] for row in mat])
            assert got == expected


def test_differential_matrix_is_L_times_the_wedge_oracle(by_name, wedge, wedge_differential):
    """Every column holds ints and is L times d_theta of its basis form by the wedge oracle.

    rr3l has d(e^3) = 1/3 e^13 (lambda = -1/3), so L = 3, and L = 6 with
    theta = e^1/2, on the default keys.  The weight block is that of a
    Heisenberg algebra [e1, e2] = e3/3 graded by ad(e4) = diag(1/2, 1/2, 1),
    with theta = -e^4, whose kept maps are nonzero.
    """
    rr3l = by_name["rr3l"].algebra()
    half = one_form(4, [Fraction(1, 2), 0, 0, 0])
    graded = LieAlgebra(4, {(1, 2): {3: Fraction(1, 3)}, (1, 4): {1: Fraction(-1, 2)},
                            (2, 4): {2: Fraction(-1, 2)}, (3, 4): {3: -1}})
    minus_e4 = one_form(4, [0, 0, 0, -1])
    block = weight_block(graded, minus_e4) + [[]]
    assert block[:5] != [form_masks(4, k) for k in range(5)]
    cases = ((rr3l, half, None), (rr3l, None, None), (graded, minus_e4, block))
    assert [differential_scale(g, t) for g, t, _ in cases] == [6, 3, 6]
    for g, t, keys in cases:
        scale = differential_scale(g, t)
        nonzero = 0
        for degree in range(4):
            dom, cod = (keys or [form_masks(4, k) for k in range(5)])[degree : degree + 2]
            rows = differential_matrix(g, degree, t, keys and (dom, cod))
            assert len(rows) == len(cod)
            assert all(type(x) is int and x and 0 <= c < len(dom) for row in rows for c, x in row.items())
            nonzero += sum(map(len, rows))
            for col, key in enumerate(dom):
                a = basis_form(4, mask_key(key))
                expected = wedge_differential(g, a) - (wedge(t, a) if t else KForm(4, degree + 1))
                got = {mask_key(cod[r]): row[col] for r, row in enumerate(rows) if col in row}
                assert KForm(4, degree + 1, got) == scale * expected, (t, degree, key)
        assert nonzero


def test_ce_differential_matches_the_wedge_antiderivation(shipped, wedge, wedge_differential, zero_form):
    rng = random.Random(29)
    for entry in shipped:
        g = entry.algebra()
        theta = entry.theta_form() or zero_form(g.dim, 1)
        for degree in range(min(g.dim, 4) + 1):
            a = random_form(rng, g.dim, degree)
            assert ce_differential(g, a) == wedge_differential(g, a), entry.name
            expected = wedge_differential(g, a) - wedge(theta, a)
            assert ce_differential(g, a, theta) == expected, entry.name


def test_twist_on_the_abelian_algebra_is_minus_the_wedge(wedge):
    # d = 0 on an abelian algebra, so d_theta(a) = -theta ^ a: recover_lee_form
    # reads the vectors e^i ^ omega off this twist term
    rng = random.Random(37)
    for dim in (2, 4, 6):
        flat = abelian(dim)
        for degree in range(dim + 1):
            a = random_form(rng, dim, degree)
            theta = random_form(rng, dim, 1)
            assert ce_differential(flat, a, theta) == -wedge(theta, a)


def test_check_jacobi_witness():
    bad = LieAlgebra(4, {(1, 2): [0, 1, 1, 0], (3, 4): [0, 0, -1, 0]})
    ok, witness = check_jacobi(bad)
    assert not ok and witness == (1, 2, 4)
    good = parse_structure_equations("(0,-12,13,0)")
    assert check_jacobi(good) == (True, None)


@st.composite
def bracket_tables(draw):
    """A random sparse table on dims 3..8, most often not a Lie algebra."""
    n = draw(st.integers(min_value=3, max_value=8))
    pairs = st.tuples(st.integers(1, n - 1), st.integers(2, n)).filter(lambda p: p[0] < p[1])
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    table = draw(st.dictionaries(
        pairs, st.dictionaries(st.integers(1, n), coeffs, min_size=1, max_size=3), min_size=2, max_size=8))
    return LieAlgebra(n, table)


@settings(max_examples=200, deadline=None)
@given(bracket_tables())
def test_check_jacobi_agrees_with_the_triple_walk(jacobi_walk, g):
    assert check_jacobi(g) == jacobi_walk(g)


def test_check_jacobi_accepts_every_corpus_algebra(shipped):
    for entry in shipped:
        assert check_jacobi(entry.algebra()) == (True, None), entry.name


def test_check_jacobi_accepts_a_dense_dim_14_algebra():
    # h3 + h3 + h3 + h3 + R^2 in the basis of a seeded unit-triangular product P = L U
    h = {(3 * b + 1, 3 * b + 2): {3 * b + 3: 1} for b in range(4)}
    rng = random.Random(14)
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(14)]
             for i in range(14)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(14)]
             for i in range(14)]
    p = [[sum(lower[i][t] * upper[t][j] for t in range(14)) for j in range(14)] for i in range(14)]
    g = change_basis(LieAlgebra(14, h), p)
    assert sum(map(len, g.brackets.values())) > 1000
    assert check_jacobi(g) == (True, None)


def test_is_unimodular_matches_corpus(shipped):
    for entry in shipped:
        if entry.unimodular is not None:
            assert is_unimodular(entry.algebra()) == entry.unimodular, entry.name


def test_zero_and_scalar_forms(wedge, zero_form):
    z = zero_form(4, 2)
    assert z.is_zero() and z.degree == 2
    scalar = KForm(4, 0, {(): Fraction(3)})
    assert scalar.coefficient(()) == 3
    assert wedge(scalar, basis_form(4, (1, 2))) == 3 * basis_form(4, (1, 2))
    g = parse_structure_equations("(0,-12,13,0)")
    assert ce_differential(g, scalar).is_zero()
    assert comb(4, 0) == len(form_basis(4, 0)) == 1
