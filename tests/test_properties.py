"""Randomized structural laws on a generated family of solvable algebras.

The generator produces almost abelian algebras: a codimension-one
abelian ideal acted on by an arbitrary integer matrix.  Jacobi holds for
every such bracket table, and c * e^n is always closed, which makes the
family a convenient unrestricted source of (algebra, Lee form) pairs.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

from lcslie import linalg
from lcslie.algebra import LieAlgebra
from lcslie.exterior import (
    KForm,
    ce_differential,
    differential_matrix,
    form_basis,
    one_form,
    wedge,
)
from lcslie.lattice import char_poly_exact
from lcslie.notation import format_structure_equations, parse_structure_equations
from lcslie.novikov import cohomology, twisted_differential

SETTINGS = settings(max_examples=40, deadline=None)

entries = st.integers(min_value=-3, max_value=3)


@st.composite
def almost_abelian(draw):
    """(algebra, closed one-form c * e^n) with an abelian wall."""
    n = draw(st.integers(min_value=3, max_value=6))
    action = draw(
        st.lists(
            st.lists(entries, min_size=n - 1, max_size=n - 1),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    brackets = {}
    for i in range(1, n):
        # [e_i, e_n] = -(column i of the action matrix)
        column = [Fraction(-action[r][i - 1]) for r in range(n - 1)]
        if any(column):
            brackets[(i, n)] = column + [Fraction(0)]
    g = LieAlgebra(n, brackets)
    c = draw(st.fractions(min_value=-3, max_value=3).filter(lambda f: f != 0))
    theta = one_form(n, [0] * (n - 1) + [c])
    return g, theta, action


def random_form(draw, dim, degree):
    basis = form_basis(dim, degree)
    coeffs = draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
    return KForm(dim, degree, dict(zip(basis, coeffs)))


@SETTINGS
@given(almost_abelian())
def test_notation_round_trip(data):
    g, _theta, _action = data
    assert parse_structure_equations(format_structure_equations(g)) == g


@SETTINGS
@given(almost_abelian())
def test_untwisted_differential_squares_to_zero(dense, data):
    g, _theta, _action = data
    for k in range(g.dim):
        first = dense(differential_matrix(g, k), comb(g.dim, k))
        second = dense(differential_matrix(g, k + 1), comb(g.dim, k + 1))
        assert linalg.mat_mul(second, first) == linalg.zeros(len(second), len(first[0]))


@SETTINGS
@given(almost_abelian())
def test_twisted_differential_squares_to_zero(dense, data):
    g, theta, _action = data
    for k in range(g.dim):
        first = dense(differential_matrix(g, k, theta), comb(g.dim, k))
        second = dense(differential_matrix(g, k + 1, theta), comb(g.dim, k + 1))
        assert linalg.mat_mul(second, first) == linalg.zeros(len(second), len(first[0]))


@st.composite
def algebra_and_forms(draw):
    g, theta, _action = draw(almost_abelian())
    p = draw(st.integers(min_value=1, max_value=g.dim - 1))
    q = draw(st.integers(min_value=1, max_value=g.dim - 1))
    return g, theta, random_form(draw, g.dim, p), random_form(draw, g.dim, q)


@SETTINGS
@given(algebra_and_forms())
def test_leibniz_rule(data):
    g, _theta, a, b = data
    lhs = ce_differential(g, wedge(a, b))
    sign = Fraction(-1) ** a.degree
    rhs = wedge(ce_differential(g, a), b) + wedge(a, ce_differential(g, b)) * sign
    assert lhs == rhs


@SETTINGS
@given(algebra_and_forms())
def test_wedge_graded_commutativity(data):
    _g, _theta, a, b = data
    sign = Fraction(-1) ** (a.degree * b.degree)
    assert wedge(a, b) == wedge(b, a) * sign


@SETTINGS
@given(algebra_and_forms())
def test_twisted_differential_is_untwisted_minus_wedge(data):
    g, theta, a, _b = data
    assert twisted_differential(g, theta, a) == ce_differential(g, a) - wedge(theta, a)


@SETTINGS
@given(almost_abelian())
def test_cayley_hamilton_on_the_action(data):
    _g, _theta, action = data
    n = len(action)
    coeffs = char_poly_exact(action)
    acc = linalg.zeros(n, n)
    for c in coeffs:
        acc = linalg.mat_mul(acc, [[Fraction(x) for x in row] for row in action])
        for i in range(n):
            acc[i][i] += Fraction(c)
    assert acc == linalg.zeros(n, n)


@SETTINGS
@given(almost_abelian())
def test_twisted_euler_characteristic_vanishes(data):
    g, theta, _action = data
    report = cohomology(g, theta)
    assert sum((-1) ** k * b for k, b in enumerate(report.betti)) == 0
    assert sum((-1) ** k * b for k, b in enumerate(report.twisted_betti)) == 0
