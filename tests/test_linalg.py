"""Exact linear algebra, cross-checked against sympy on random input."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lcslie import linalg
from lcslie.linalg import char_poly_exact


def random_matrix(rng, rows, cols, denominators=(1, 2, 3)):
    return [
        [Fraction(rng.randint(-4, 4), rng.choice(denominators)) for _ in range(cols)]
        for _ in range(rows)
    ]


def integral(rows):
    """Each sparse row times the least common denominator of its entries, as ints;
    the rank and the kernel stay the same."""
    scaled = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row.values()))
        scaled.append({j: int(x * den) for j, x in row.items()})
    return scaled


def test_rank_and_det_match_sympy(sparse):
    """The rank, and det != 0 as the library tests it: by an empty nullspace."""
    rng = random.Random(20240817)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        s = sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(a[i][j]))
        assert linalg.rank(integral(sparse(a))) == s.rank()
        if rows == cols:
            assert (not linalg.nullspace(a)) == (s.det() != 0)


@st.composite
def sparse_matrices(draw):
    """(rows, ncols): sparse integer matrices, often with empty rows and columns."""
    nrows = draw(st.integers(min_value=0, max_value=7))
    ncols = draw(st.integers(min_value=0, max_value=7))
    entry = st.integers(min_value=-4, max_value=4)
    rows = []
    for _ in range(nrows):
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)) if ncols else set()
        rows.append({j: x for j in sorted(cols) if (x := draw(entry))})
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_and_kernel_match_sympy(dense, mat_vec, data):
    rows, ncols = data
    s = sympy.Matrix(len(rows), ncols, lambda i, j: sympy.Rational(rows[i].get(j, 0)))
    pivots, sources = linalg.eliminate(rows)
    assert linalg.rank(rows) == len(pivots) == s.rank()
    assert linalg.rank_mod_prime(rows) == s.rank()
    # the input rows that became the pivots, on the pivot columns, are a nonsingular minor
    assert sources.keys() == pivots.keys()
    minor = [[rows[sources[col]].get(j, 0) for j in pivots] for col in pivots]
    assert sympy.Matrix(minor).rank() == len(pivots)
    basis = linalg.kernel(pivots, ncols)
    assert len(basis) == ncols - s.rank()
    matrix = dense(rows, ncols)
    for v in dense(basis, ncols):
        assert mat_vec(matrix, v) == [0] * len(rows)
    assert linalg.rank(basis) == len(basis)


@st.composite
def dependent_rows(draw):
    """(rows, ncols): sparse_matrices' rows plus duplicates, nonzero multiples and
    sums of drawn rows, which cancel to zero in the elimination, and empty rows."""
    rows, ncols = draw(sparse_matrices())
    multiple = st.integers(min_value=-3, max_value=3).filter(bool)
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["duplicate", "multiple", "sum", "empty"]))
        if kind == "duplicate":
            rows.append(dict(a))
        elif kind == "multiple":
            c = draw(multiple)
            rows.append({j: c * x for j, x in a.items()})
        elif kind == "sum":
            total = {j: a.get(j, 0) + b.get(j, 0) for j in a.keys() | b.keys()}
            rows.append({j: x for j, x in total.items() if x})
        else:
            rows.append({})
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=300, deadline=None)
@given(dependent_rows())
def test_integer_elimination_matches_the_fraction_oracle(fraction_eliminate, data):
    """The same pivot columns as the Fraction elimination; each pivot row is the
    primitive integer multiple of the oracle's, with a positive pivot; each kernel
    vector is an integral nonzero multiple of the oracle's, 1 at f and -row[f] at
    the pivot columns."""
    rows, ncols = data
    oracle = fraction_eliminate(rows)
    pivots, _ = linalg.eliminate(rows)
    assert list(pivots) == list(oracle)
    for col, row in pivots.items():
        assert all(type(x) is int for x in row.values())
        assert row[col] > 0 and gcd(*row.values()) == 1
        assert row == {j: row[col] * x for j, x in oracle[col].items()}
    free = [f for f in range(ncols) if f not in oracle]
    kernel = linalg.kernel(pivots, ncols)
    assert len(kernel) == len(free)
    for f, v in zip(free, kernel):
        expected = {f: Fraction(1)} | {c: -row[f] for c, row in oracle.items() if f in row}
        assert all(type(x) is int for x in v.values()) and v[f]
        assert v == {j: v[f] * x for j, x in expected.items()}


@st.composite
def dense_matrices(draw):
    """Dense matrices of ints and Fractions up to 6 x 6: square ones half the
    time, with zero rows, repeated rows, multiples and sums of drawn rows, so
    that many are singular, and entries with denominators up to 4."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.integers(min_value=-5, max_value=5),
                      st.fractions(min_value=-5, max_value=5, max_denominator=4))
    zero = st.just(0)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["drawn", "sparse", "zero", "repeat", "combination"]))
        if kind == "zero" or (not rows and kind in ("repeat", "combination")):
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            cells = st.one_of(entry, zero) if kind == "sparse" else entry
            rows.append(draw(st.lists(cells, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=400, deadline=None)
@given(dense_matrices())
def test_small_systems_match_the_fraction_gauss_jordan(fraction_gauss_jordan, a):
    """rref, nullspace and inverse equal the Fraction Gauss-Jordan, Fraction for
    Fraction, with the pivots found in the same order."""
    oracle_rref, oracle_nullspace, oracle_inverse = fraction_gauss_jordan
    reduced, expected = linalg.rref(a), oracle_rref(a)
    assert reduced == expected and list(reduced) == list(expected)
    assert all(type(x) is Fraction for row in reduced.values() for x in row.values())
    kernel = linalg.nullspace(a)
    assert kernel == oracle_nullspace(a)
    assert all(type(x) is Fraction for v in kernel for x in v)
    if len(a) == len(a[0]):
        inverse = linalg.inverse(a)
        assert inverse == oracle_inverse(a)
        assert inverse is None or all(type(x) is Fraction for row in inverse for x in row)
    assert linalg.rref(a + a) == expected  # a repeated block adds nothing


def test_sparse_solve_answers_in_fractions_on_integer_rows():
    """Pivots other than 1 make the solution non-integral; it must be exact, not float."""
    rows = [{0: 2, 1: 1}, {1: 3}, {0: 4, 1: 5}]
    x = linalg.sparse_solve(rows, 2, [1, 1, 3])
    assert x == [Fraction(1, 3), Fraction(1, 3)]
    assert all(type(v) is Fraction for v in x)
    assert all(type(v) is Fraction for v in linalg.sparse_solve([{0: 3}], 1, [0]))


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=7,
                max_size=7))
def test_sparse_solve_agrees_with_dense_solve(dense, mat_vec, data, b):
    """None exactly when sympy's rref of [rows | b] has a pivot on b."""
    rows, ncols = data
    b = b[: len(rows)]
    matrix = dense(rows, ncols)
    x = linalg.sparse_solve(rows, ncols, b)
    augmented = sympy.Matrix(len(rows), ncols + 1, lambda i, j: sympy.Rational(
        b[i] if j == ncols else matrix[i][j]))
    if x is None:
        assert ncols in augmented.rref()[1]
    else:
        assert mat_vec(matrix, x) == b


def test_det_of_int_matrices_is_exact():
    """det a = (-1)^n times the constant term of the characteristic polynomial,
    the determinant the lattice demo prints."""

    def det(a):
        return (-1) ** len(a) * char_poly_exact(a)[-1]

    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = det(a)
        assert isinstance(d, int) and d == sympy.Matrix(a).det()
    assert det([[3, 1], [1, 1]]) == 2


def _low_rank_matrix(rng, rows, cols, entry):
    """A rows x cols product of random factors through a space of random dimension."""
    inner = rng.randint(1, 5)
    left = [[entry() for _ in range(inner)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(inner)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


def test_small_systems_match_sympy():
    """nullspace against sympy on rational and int matrices up to 5 x 5."""
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


def test_rank_of_empty_and_zero(sparse):
    assert linalg.rank([]) == 0
    assert linalg.rank(sparse([[]])) == 0
    assert linalg.rank(sparse(linalg.zeros(3, 4))) == 0
    assert linalg.rank(sparse([[int(i == j) for j in range(5)] for i in range(5)])) == 5


def test_nullspace_vectors_are_in_the_kernel(sparse, mat_vec):
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        basis = linalg.nullspace(a)
        assert len(basis) == cols - linalg.rank(integral(sparse(a)))
        for v in basis:
            assert mat_vec(a, v) == [Fraction(0)] * rows
        assert linalg.rank(integral(sparse(basis))) == len(basis)


def test_nullspace_rejects_empty_matrix():
    with pytest.raises(ValueError):
        linalg.nullspace([])


def test_solve_consistent_and_inconsistent(sparse, mat_vec):
    a = [{0: 1, 1: 2}, {0: 2, 1: 4}]
    assert linalg.sparse_solve(a, 2, [Fraction(3), Fraction(6)]) is not None
    assert linalg.sparse_solve(a, 2, [Fraction(3), Fraction(7)]) is None
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        b = mat_vec(m, x)
        got = linalg.sparse_solve(sparse(m), n, b)
        assert got is not None
        assert mat_vec(m, got) == b


def test_in_span():
    # x lies in the span of independent vectors exactly when adding it keeps the rank
    v1 = [Fraction(1), Fraction(0), Fraction(1)]
    v2 = [Fraction(0), Fraction(1), Fraction(1)]
    assert linalg.rref([v1, v2]) == {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}}
    assert len(linalg.rref([v1, v2, [Fraction(2), Fraction(3), Fraction(5)]])) == 2
    assert len(linalg.rref([v1, v2, [Fraction(0), Fraction(0), Fraction(1)]])) == 3
    assert linalg.rref([[Fraction(0), Fraction(0)]]) == {}
    assert len(linalg.rref([[Fraction(1), Fraction(0)]])) == 1
    assert linalg.rref([]) == {}


def test_trace_and_arithmetic_helpers():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    b = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert linalg.trace(a) == 5
    assert linalg.mat_mul(a, b) == [[2, 1], [4, 3]]
    assert linalg.transpose(a) == [[1, 3], [2, 4]]
