"""Randomized structural laws on a generated family of solvable algebras.

The generator produces almost abelian algebras: a codimension-one
abelian ideal acted on by an arbitrary integer matrix.  Jacobi holds for
every such bracket table, and c * e^n is always closed, which makes the
family a convenient unrestricted source of (algebra, Lee form) pairs.
"""

from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lcslie import linalg
from lcslie.algebra import LieAlgebra, change_basis
from lcslie.exterior import (
    KForm,
    ce_differential,
    check_jacobi,
    differential_matrix,
    form_basis,
    is_unimodular,
    one_form,
)
from lcslie.linalg import char_poly_exact
from lcslie.notation import format_structure_equations, parse_structure_equations
from lcslie.novikov import cohomology

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
def test_leibniz_rule(wedge, data):
    g, _theta, a, b = data
    lhs = ce_differential(g, wedge(a, b))
    sign = Fraction(-1) ** a.degree
    rhs = wedge(ce_differential(g, a), b) + wedge(a, ce_differential(g, b)) * sign
    assert lhs == rhs


@SETTINGS
@given(algebra_and_forms())
def test_wedge_graded_commutativity(wedge, data):
    _g, _theta, a, b = data
    sign = Fraction(-1) ** (a.degree * b.degree)
    assert wedge(a, b) == wedge(b, a) * sign


@SETTINGS
@given(algebra_and_forms())
def test_twisted_differential_is_untwisted_minus_wedge(wedge, data):
    g, theta, a, _b = data
    assert ce_differential(g, a, theta) == ce_differential(g, a) - wedge(theta, a)


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


@st.composite
def conjugated(draw):
    """An almost abelian algebra in the basis of a unit lower-triangular P.

    The table of the result is dense, unlike the generator's [e_i, e_n].
    """
    g, _theta, _action = draw(almost_abelian())
    n = g.dim
    below = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    p = [[1 if i == j else (below[i * n + j] if i > j else 0) for j in range(n)] for i in range(n)]
    return change_basis(g, p)


def vectors(n, count):
    return st.lists(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                 min_size=n, max_size=n),
        min_size=count, max_size=count,
    )


@SETTINGS
@given(conjugated(), st.data())
def test_bracket_is_the_bilinear_expansion(g, data):
    n = g.dim
    x, y = data.draw(vectors(n, 2))
    assert check_jacobi(g) == (True, None)
    expansion = [Fraction(0)] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k, c in enumerate(g.basis_bracket(i, j)):
                expansion[k] += x[i - 1] * y[j - 1] * c
    assert g.bracket(x, y) == expansion
    assert g.bracket(y, x) == [-c for c in expansion]
    assert not any(g.bracket(x, x))


@SETTINGS
@given(conjugated())
def test_unimodularity_is_the_trace_of_the_dense_adjoint(g):
    # column j of ad_{e_i} is [e_i, e_j], so its trace is the sum of [e_i, e_j]_j
    traces = [
        sum((g.bracket(g.basis_vector(i), g.basis_vector(j))[j - 1] for j in range(1, g.dim + 1)),
            Fraction(0))
        for i in range(1, g.dim + 1)
    ]
    assert g.ad_traces() == traces
    assert is_unimodular(g) == all(t == 0 for t in traces)


@SETTINGS
@given(conjugated())
def test_center_is_the_kernel_of_every_ad(center, g):
    """Against the n^3 system [x, e_j]_k = 0 written with dense brackets."""
    n = g.dim
    rows = []
    for j in range(1, n + 1):
        images = [g.bracket(g.basis_vector(i), g.basis_vector(j)) for i in range(1, n + 1)]
        rows.extend([image[k] for image in images] for k in range(n))
    assert center(g) == linalg.nullspace(rows)


@st.composite
def low_rank_matrices(draw):
    """An m x n product B C with an inner dimension k, so its rank is at most k."""
    m, n, k = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    b, c = draw(vectors(k, m)), draw(vectors(n, k))
    return [[sum((x * c[t][j] for t, x in enumerate(row)), Fraction(0)) for j in range(n)]
            for row in b]


@SETTINGS
@given(low_rank_matrices())
def test_rref_agrees_with_sympy(a):
    """The same pivot columns and the same reduced rows as Matrix.rref()."""
    expected, pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                     for row in a]).rref()
    reduced = linalg.rref(a)
    assert sorted(reduced) == list(pivots)
    for r, col in enumerate(pivots):
        assert [reduced[col].get(j, 0) for j in range(len(a[0]))] == [
            Fraction(int(x.p), int(x.q)) for x in expected.row(r)]


@SETTINGS
@given(almost_abelian(), st.randoms(use_true_random=False))
def test_change_basis_brackets_map_back_under_p(mat_vec, data, rng):
    """P [e_i, e_j]_new = [P e_i, P e_j]_old for an invertible integer P = L U,
    L unit lower and U upper triangular with diagonal entries +-1, +-2."""
    g, _theta, _action = data
    n = g.dim
    lower = [[1 if i == j else rng.randint(-2, 2) * (i > j) for j in range(n)] for i in range(n)]
    upper = [[rng.choice((-2, -1, 1, 2)) if i == j else rng.randint(-2, 2) * (i < j)
              for j in range(n)] for i in range(n)]
    p = linalg.mat_mul(lower, upper)
    h = change_basis(g, p)
    columns = linalg.transpose(p)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert mat_vec(p, h.basis_bracket(i, j)) == g.bracket(columns[i - 1],
                                                                       columns[j - 1])


@pytest.mark.parametrize("p", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 0]],  # a zero column
    [[1, 2, 1], [0, 1, 0], [3, 1, 3]],  # the first column repeated
    [[1, 0, 1], [0, 1, 1], [0, 0, 0]],  # independent but for the last column
])
def test_change_basis_rejects_a_singular_matrix(p):
    g = parse_structure_equations("(0,-12,13)")
    with pytest.raises(ValueError, match="^matrix is singular$"):
        change_basis(g, p)
