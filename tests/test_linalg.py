"""Exact linear algebra, cross-checked against sympy on random input."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lcslie import linalg


def random_matrix(rng, rows, cols, denominators=(1, 2, 3)):
    return [
        [Fraction(rng.randint(-4, 4), rng.choice(denominators)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rank_and_det_match_sympy():
    rng = random.Random(20240817)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        s = sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(a[i][j]))
        assert linalg.rank(linalg.sparse_rows(a)) == s.rank()
        if rows == cols:
            assert sympy.Rational(linalg.det(a)) == s.det()


@st.composite
def sparse_matrices(draw):
    """(rows, ncols): sparse rational matrices, often with empty rows and columns."""
    nrows = draw(st.integers(min_value=0, max_value=7))
    ncols = draw(st.integers(min_value=0, max_value=7))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    rows = []
    for _ in range(nrows):
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else set()
        rows.append({j: x for j in sorted(cols) if (x := draw(entry))})
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_and_kernel_match_sympy(dense, data):
    rows, ncols = data
    s = sympy.Matrix(len(rows), ncols, lambda i, j: sympy.Rational(rows[i].get(j, 0)))
    pivots = linalg.eliminate(rows)
    assert linalg.rank(rows) == len(pivots) == s.rank()
    assert linalg.rank_mod_prime(rows) == s.rank()
    basis = linalg.kernel(pivots, ncols)
    assert len(basis) == ncols - s.rank()
    matrix = dense(rows, ncols)
    for v in dense(basis, ncols):
        assert linalg.mat_vec(matrix, v) == [0] * len(rows)
    assert linalg.rank(basis) == len(basis)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.lists(st.integers(-3, 3), min_size=7, max_size=7))
def test_sparse_solve_agrees_with_dense_solve(dense, data, b):
    rows, ncols = data
    b = [Fraction(x) for x in b[: len(rows)]]
    matrix = dense(rows, ncols)
    x = linalg.sparse_solve(rows, ncols, b)
    if x is None:
        assert linalg.solve(matrix, b) is None
    else:
        assert linalg.mat_vec(matrix, x) == b


def test_det_of_int_matrices_is_exact():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = linalg.det(a)
        assert isinstance(d, Fraction) and sympy.Rational(d) == sympy.Matrix(a).det()
    assert linalg.det([[3, 1], [1, 1]]) == Fraction(2)


def _low_rank_matrix(rng, rows, cols, entry):
    """A rows x cols product of random factors through a space of random dimension."""
    inner = rng.randint(1, 5)
    left = [[entry() for _ in range(inner)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(inner)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


def test_small_systems_match_sympy():
    """nullspace, solve and inv against sympy on rational and int matrices up to 5 x 5.

    solve must return the solution supported on the pivot columns that
    sympy's rref of [a | b] gives, and None exactly when [a | b] has a
    pivot in the last column.
    """
    rng = random.Random(2718)
    entries = (
        lambda: rng.randint(-3, 3),
        lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )
    for trial in range(300):
        entry = entries[trial % 2]
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _low_rank_matrix(rng, rows, cols, entry) if trial % 3 else [
            [entry() for _ in range(cols)] for _ in range(rows)
        ]
        s = sympy.Matrix(a)
        got = [[sympy.Rational(x) for x in v] for v in linalg.nullspace(a)]
        assert got == [list(v) for v in s.nullspace()], a

        b = [entry() for _ in range(rows)]
        reduced, pivots = s.row_join(sympy.Matrix(b)).rref()
        if cols in pivots:
            expected = None
        else:
            expected = [sympy.Integer(0)] * cols
            for r, p in enumerate(pivots):
                expected[p] = reduced[r, cols]
        x = linalg.solve(a, b)
        assert (x if x is None else [sympy.Rational(v) for v in x]) == expected, (a, b)

        square = [row[:rows] + [entry() for _ in range(rows - cols)] for row in a]
        t = sympy.Matrix(square)
        if t.det() == 0:
            with pytest.raises(ValueError, match="singular"):
                linalg.inv(square)
        else:
            assert [[sympy.Rational(x) for x in row] for row in linalg.inv(square)] == (
                t.inv().tolist()
            ), square


def test_rank_of_empty_and_zero():
    assert linalg.rank([]) == 0
    assert linalg.rank(linalg.sparse_rows([[]])) == 0
    assert linalg.rank(linalg.sparse_rows(linalg.zeros(3, 4))) == 0
    assert linalg.rank(linalg.sparse_rows(linalg.identity(5))) == 5


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        basis = linalg.nullspace(a)
        assert len(basis) == cols - linalg.rank(linalg.sparse_rows(a))
        for v in basis:
            assert linalg.mat_vec(a, v) == [Fraction(0)] * rows
        assert linalg.rank(linalg.sparse_rows(basis)) == len(basis) if basis else True


def test_nullspace_rejects_empty_matrix():
    with pytest.raises(ValueError):
        linalg.nullspace([])


def test_solve_consistent_and_inconsistent():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.solve(a, [Fraction(3), Fraction(6)]) is not None
    assert linalg.solve(a, [Fraction(3), Fraction(7)]) is None
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(rng, rng.randint(1, 4), n)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = linalg.mat_vec(m, x)
        got = linalg.solve(m, b)
        assert got is not None
        assert linalg.mat_vec(m, got) == b


def test_inverse_round_trip_and_singular():
    rng = random.Random(9)
    done = 0
    while done < 20:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if linalg.det(a) == 0:
            continue
        done += 1
        assert linalg.mat_mul(a, linalg.inv(a)) == linalg.identity(n)
    with pytest.raises(ValueError, match="singular"):
        linalg.inv([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_det_alternating_in_rows():
    a = [[Fraction(x) for x in row] for row in [[1, 2, 3], [4, 5, 6], [7, 8, 10]]]
    swapped = [a[1], a[0], a[2]]
    assert linalg.det(swapped) == -linalg.det(a)
    assert linalg.det(a) == Fraction(-3)


def test_in_span():
    v1 = [Fraction(1), Fraction(0), Fraction(1)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    assert linalg.Span([v1, v2]).coordinates([Fraction(2), Fraction(3), Fraction(5)]) is not None
    assert linalg.Span([v1, v2]).coordinates([Fraction(0), Fraction(0), Fraction(1)]) is None
    assert linalg.Span([]).coordinates([Fraction(0), Fraction(0)]) is not None
    assert linalg.Span([]).coordinates([Fraction(1), Fraction(0)]) is None


def test_trace_and_arithmetic_helpers():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    b = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert linalg.trace(a) == 5
    assert linalg.mat_add(a, b) == [[1, 3], [4, 4]]
    assert linalg.mat_sub(a, b) == [[1, 1], [2, 4]]
    assert linalg.mat_scale(Fraction(1, 2), a) == [[Fraction(1, 2), 1], [Fraction(3, 2), 2]]
    assert linalg.transpose(a) == [[1, 3], [2, 4]]
