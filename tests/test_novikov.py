"""Twisted cohomology: the differential, Betti vectors, exactness."""

import importlib.util
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lcslie import exterior, linalg, novikov
from lcslie.algebra import LieAlgebra
from lcslie.exterior import (
    KForm,
    basis_form,
    ce_differential,
    diagonal_weights,
    differential_matrix,
    form_basis,
    form_masks,
    one_form,
    weight_block,
)
from lcslie.lcs import LCSStructure
from lcslie.notation import parse_structure_equations
from lcslie.novikov import cohomology, is_exact_class

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# frozen reference vectors; the 8-dimensional pair has been verified
# against an independent simplicial-formula implementation
KNOWN = {
    "rr3-1": ((1, 2, 2, 2, 1), (0, 1, 2, 1, 0)),
    "heis4": ((1, 3, 4, 3, 1), (0, 0, 0, 0, 0)),
    "abelian4": ((1, 4, 6, 4, 1), (1, 4, 6, 4, 1)),
    "gprime": ((1, 4, 10, 20, 26, 20, 10, 4, 1), (0, 2, 8, 14, 16, 14, 8, 2, 0)),
    "ext42": ((1, 4, 6, 4, 2, 4, 6, 4, 1), (0, 2, 8, 12, 8, 2, 0, 0, 0)),
}


def test_known_betti_vectors(by_name):
    for name, (betti, twisted) in KNOWN.items():
        entry = by_name[name]
        g = entry.algebra()
        report = cohomology(g, entry.theta_form())
        assert report.betti == betti, name
        assert report.twisted_betti == twisted, name


def test_twisted_differential_squares_to_zero(shipped):
    for entry in shipped:
        if entry.theta is None or entry.dim > 4:
            continue
        g = entry.algebra()
        theta = entry.theta_form()
        for degree in range(g.dim):
            for key in form_basis(g.dim, degree):
                a = basis_form(g.dim, key)
                da = ce_differential(g, a, theta)
                dda = ce_differential(g, da, theta)
                assert dda.is_zero(), (entry.name, key)


def test_twisted_differential_requires_closed_theta():
    # cohomology and is_exact_class build d_theta only for a closed 1-form theta
    g = parse_structure_equations("(0,-12,13,0)")
    not_closed = one_form(4, [0, 1, 0, 0])
    with pytest.raises(ValueError, match="not closed"):
        cohomology(g, not_closed)
    with pytest.raises(ValueError, match="not closed"):
        is_exact_class(g, not_closed, basis_form(4, (1, 2)))
    with pytest.raises(ValueError, match="1-form"):
        cohomology(g, basis_form(4, (1, 2)))


def test_zero_twist_reproduces_plain_cohomology(by_name):
    g = by_name["rr3-1"].algebra()
    report = cohomology(g, one_form(4, [0, 0, 0, 0]))
    assert report.betti == report.twisted_betti == (1, 2, 2, 2, 1)


def test_rank_nullity_identity_holds_externally(shipped):
    for entry in shipped:
        if entry.theta is None or entry.dim > 4:
            continue
        g = entry.algebra()
        theta = entry.theta_form()
        report = cohomology(g, theta)
        n = g.dim
        ranks = [linalg.rank(differential_matrix(g, k, theta)) for k in range(n + 1)]
        closed = [comb(n, k) - ranks[k] for k in range(n + 1)]
        assert tuple(closed) == report.twisted_closed_dims, entry.name
        for k in range(1, n + 1):
            formula = closed[k] + closed[k - 1] - comb(n, k - 1)
            assert report.twisted_betti[k] == formula, (entry.name, k)


def test_euler_characteristic_vanishes(shipped):
    for entry in shipped:
        if entry.theta is None:
            continue
        g = entry.algebra()
        report = cohomology(g, entry.theta_form())
        assert sum((-1) ** k * b for k, b in enumerate(report.betti)) == 0
        assert sum((-1) ** k * b for k, b in enumerate(report.twisted_betti)) == 0


def test_twisted_betti_bounded_by_untwisted_total(by_name):
    report = cohomology(by_name["gprime"].algebra(), by_name["gprime"].theta_form())
    n = len(report.betti) - 1
    for k in range(n + 1):
        assert 0 <= report.twisted_betti[k] <= comb(n, k)


def test_is_exact_class_agrees_with_primitive_search(shipped):
    for entry in shipped:
        if entry.omega is None or entry.theta is None:
            continue
        g = entry.algebra()
        omega, theta = entry.omega_form(), entry.theta_form()
        eta = LCSStructure(g, omega, theta).primitive
        assert is_exact_class(g, theta, omega) == (eta is not None), entry.name


def test_is_exact_class_edge_cases(zero_form):
    g = parse_structure_equations("(0,-12,13,0)")
    theta = one_form(4, [1, 0, 0, 0])
    assert is_exact_class(g, theta, zero_form(4, 0))
    with pytest.raises(ValueError, match="no class"):
        is_exact_class(g, theta, KForm(4, 0, {(): Fraction(1)}))
    with pytest.raises(ValueError, match="no class"):
        is_exact_class(g, theta, basis_form(4, (2,)))
    # with theta = 0 a nonzero constant is closed but never exact
    zero = one_form(4, [0, 0, 0, 0])
    assert not is_exact_class(g, zero, KForm(4, 0, {(): Fraction(1)}))
    # theta itself is d_theta-exact: theta = -d_theta(1)
    assert is_exact_class(g, theta, theta)


def almost_abelian(matrix):
    """R e_1 ⋉_A R^(n-1) with [e_1, e_(j+2)] = sum_i A[i][j] e_(i+2)."""
    n = len(matrix) + 1
    brackets = {(1, j + 2): [0] + [row[j] for row in matrix] for j in range(n - 1)}
    return LieAlgebra(n, brackets)


def subset_count_betti(eigenvalues, c):
    """Betti numbers of R ⋉_A R^(n-1), A diagonal, for d_theta with theta = c e^1.

    d_theta(e^S) = -(a_S + c) e^1 ^ e^S and d_theta(e^1 ^ e^S) = 0, where a_S
    sums the eigenvalues over S, so b_k = N_k(-c) + N_(k-1)(-c) with N_k(s)
    the number of k-subsets summing to s.
    """
    n = len(eigenvalues) + 1

    def count(k, total):
        return sum(1 for s in combinations(eigenvalues, k) if sum(s) == total) if k >= 0 else 0

    return tuple(count(k, -c) + count(k - 1, -c) for k in range(n + 1))


@pytest.mark.parametrize(
    "eigenvalues",
    [(-5, -4, -3, -2, -1, -1, 1, 1, 2, 3, 4), (-5, -4, -3, -2, -1, -1, 1, 2, 2, 3, 4, 5, 7)],
    ids=["dim12", "dim14"],
)
def test_almost_abelian_cohomology_matches_subset_counts(eigenvalues):
    r = len(eigenvalues)
    g = almost_abelian([[eigenvalues[i] if i == j else 0 for j in range(r)] for i in range(r)])
    theta = one_form(r + 1, [2] + [0] * r)
    report = cohomology(g, theta)
    assert report.betti == subset_count_betti(eigenvalues, 0)
    assert report.twisted_betti == subset_count_betti(eigenvalues, 2)


def test_cohomology_matches_the_sympy_oracle_in_dim_6():
    spec = importlib.util.spec_from_file_location("build_corpus", SCRIPTS / "build_corpus.py")
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    diagonal = [[0] * 5 for _ in range(5)]
    for i, a in enumerate((-2, -1, 1, 1, 3)):
        diagonal[i][i] = a
    # P diag P^-1 with P = L L^T, L unit lower triangular: A is integral and dense
    lower = [[1 if i == j else (i - j) % 3 - 1 if i > j else 0 for j in range(5)] for i in range(5)]
    p = linalg.mat_mul(lower, linalg.transpose(lower))
    p_inv = [[Fraction(x.p, x.q) for x in row] for row in sympy.Matrix(p).inv().tolist()]
    conjugated = linalg.mat_mul(linalg.mat_mul(p, diagonal), p_inv)
    full = [form_masks(6, k) for k in range(7)]
    for matrix, graded in ((diagonal, True), (conjugated, False)):
        g = almost_abelian(matrix)
        # diagonal A makes e_1 diagonal; the dense conjugate has no diagonal element
        assert list(diagonal_weights(g)) == ([1] if graded else [])
        for c in (1, -2, Fraction(1, 2)):
            theta = [c, 0, 0, 0, 0, 0]
            for block in (weight_block(g), weight_block(g, one_form(6, theta))):
                assert (block != full) == graded
            report = cohomology(g, one_form(6, theta))
            assert (report.betti, report.twisted_betti) == build_corpus.sympy_betti(g, theta)


def test_rank_certificate_catches_a_dropped_or_invented_pivot(monkeypatch, by_name):
    g, theta = by_name["ext42"].algebra(), by_name["ext42"].theta_form()
    honest = linalg.eliminate
    # ext42 is graded, and its kept twisted block has pivots for "dropped" to drop
    keys = weight_block(g, theta) + [[]]
    assert sum(map(len, keys)) < 2**g.dim
    assert any(honest(differential_matrix(g, k, theta, keys[k : k + 2]))[0]
               for k in range(g.dim))

    def dropped(rows):  # the kernel vector of the dropped column is not in the kernel
        pivots, sources = honest(rows)
        if pivots:
            col = next(iter(pivots))
            del pivots[col], sources[col]
        return pivots, sources

    def invented(rows):  # the zero matrix gains a pivot on column 0: its minor is 0
        pivots, sources = honest(rows)
        if rows and not any(rows):
            pivots[0], sources[0] = {0: 1}, 0
        return pivots, sources

    for bad in (dropped, invented):
        monkeypatch.setattr(linalg, "eliminate", bad)
        with pytest.raises(RuntimeError, match="rank/kernel mismatch in degree"):
            cohomology(g, theta)
    monkeypatch.setattr(linalg, "eliminate", honest)
    assert cohomology(g, theta).betti == KNOWN["ext42"][0]


def test_rank_certificate_catches_a_wrong_source_row(monkeypatch, by_name):
    """The right pivots with a wrong input row behind one of them: the minor is singular."""
    g, theta = by_name["ext42"].algebra(), by_name["ext42"].theta_form()
    honest = linalg.eliminate

    def duplicate(rows):  # the second pivot reports the first one's source
        pivots, sources = honest(rows)
        if len(sources) > 1:
            first, second = list(sources)[:2]
            sources[second] = sources[first]
        return pivots, sources

    def zero_row(rows):  # the first pivot reports an empty input row as its source
        pivots, sources = honest(rows)
        empty = [i for i, row in enumerate(rows) if not row]
        if pivots and empty:
            sources[next(iter(sources))] = empty[0]
        return pivots, sources

    for bad in (duplicate, zero_row):
        monkeypatch.setattr(linalg, "eliminate", bad)
        with pytest.raises(RuntimeError, match="rank/kernel mismatch in degree"):
            cohomology(g, theta)


def test_a_minor_that_the_check_prime_divides_is_certified_exactly(monkeypatch):
    """h_3 with its bracket scaled by p = 2^61 - 1: every 1 x 1 minor of d on
    1-forms is 0 mod p, so the rank is certified by the exact rref of the minor."""
    p = linalg.RANK_CHECK_PRIME
    g = parse_structure_equations(f"(0,0,{p} 12)")
    honest, calls = linalg.rref, []

    def counted(vectors):
        calls.append(vectors)
        return honest(vectors)

    monkeypatch.setattr(linalg, "rref", counted)
    report = cohomology(g, one_form(3, [0, 0, 0]))
    assert report.betti == report.twisted_betti == (1, 2, 2, 1)
    assert [[p]] in calls


def test_a_differential_that_does_not_square_to_zero_raises(monkeypatch, by_name):
    # every map of rr3-1's kept blocks is zero, so one corrupted degree cannot break d^2 there
    g, theta = by_name["d4-a"].algebra(), by_name["d4-a"].theta_form()
    honest = novikov.differential_matrix

    def corrupted(g, degree, theta=None, keys=None):
        rows = honest(g, degree, theta, keys)
        return [{0: Fraction(1)} for _ in rows] if degree == 0 else rows

    monkeypatch.setattr(novikov, "differential_matrix", corrupted)
    with pytest.raises(RuntimeError, match="does not square to zero"):
        cohomology(g, theta)


def full_complex_report(g, theta):
    """(betti, closed_dims) of d_theta from the ranks of the full default-key matrices."""
    n = g.dim
    ranks = [linalg.rank(differential_matrix(g, k, theta)) for k in range(n + 1)]
    closed = tuple(comb(n, k) - ranks[k] for k in range(n + 1))
    return tuple(closed[k] - (ranks[k - 1] if k else 0) for k in range(n + 1)), closed


def direct_sum(g, h):
    """g + h, with h's basis after g's."""
    shift = g.dim
    brackets = dict(g.brackets)
    for (i, j), terms in h.brackets.items():
        brackets[(i + shift, j + shift)] = {k + shift: x for k, x in terms.items()}
    return LieAlgebra(g.dim + h.dim, brackets)


eigenvalues = st.sampled_from([Fraction(p, q) for p in range(-3, 4) for q in (1, 2)])


@st.composite
def graded_pairs(draw):
    """(g, theta): R ⋉_A R^r with A diagonal and rational, alone or times a second such
    factor (of dimension 1, which is R, or more), and theta a combination of the
    duals of the diagonal elements, all of which are closed here."""
    total = draw(st.integers(min_value=5, max_value=8))
    second = draw(st.sampled_from([0, 0, 1, 2, 3]))
    factors = []
    for dim in (total - second, second):
        if dim == 1:
            factors.append(LieAlgebra(1, {}))
        elif dim:
            a = draw(st.lists(eigenvalues, min_size=dim - 1, max_size=dim - 1))
            factors.append(almost_abelian([[x if i == j else 0 for j in range(dim - 1)] for i, x in enumerate(a)]))
    g = factors[0] if len(factors) == 1 else direct_sum(*factors)
    # theta(e_i) = the weight of a drawn key under every e_i keeps the twisted block nonempty
    key = draw(st.lists(st.booleans(), min_size=g.dim, max_size=g.dim))
    anywhere = draw(st.booleans())
    coeffs = [0] * g.dim
    for i, a in diagonal_weights(g).items():
        weight = -sum(x for x, chosen in zip(a, key) if chosen)
        coeffs[i - 1] = draw(st.sampled_from([0, 1, Fraction(-1, 2)])) if anywhere else weight
    return g, one_form(g.dim, coeffs)


@settings(max_examples=30, deadline=None)
@given(graded_pairs())
def test_weight_block_cohomology_matches_the_full_complex(pair):
    g, theta = pair
    assert ce_differential(g, theta).is_zero()
    weights = diagonal_weights(g)
    assert 1 in weights
    for t in (None, theta):
        # the walk yields exactly the bitmasks of the right weights, in form_basis order
        wanted = {i: t.coefficient((i,)) if t is not None else 0 for i in weights}
        expected = [
            [
                sum(1 << j - 1 for j in key)
                for key in form_basis(g.dim, k)
                if all(-sum(a[j - 1] for j in key) == wanted[i] for i, a in weights.items())
            ]
            for k in range(g.dim + 1)
        ]
        assert weight_block(g, t) == expected
    report = cohomology(g, theta)
    assert (report.betti, report.closed_dims) == full_complex_report(g, None)
    assert (report.twisted_betti, report.twisted_closed_dims) == full_complex_report(g, theta)


def test_abelian_twisted_complex_is_dropped_whole():
    g = LieAlgebra(4, {})
    theta = one_form(4, [1, 0, Fraction(-2, 3), 0])
    assert weight_block(g, theta) == [[]] * 5
    report = cohomology(g, theta)
    assert report.betti == (1, 4, 6, 4, 1)
    assert report.twisted_betti == (0, 0, 0, 0, 0)
    assert (report.twisted_betti, report.twisted_closed_dims) == full_complex_report(g, theta)


def test_a_term_outside_the_weight_block_raises(monkeypatch, by_name):
    g, theta = by_name["rr3-1"].algebra(), by_name["rr3-1"].theta_form()
    assert diagonal_weights(g)[1][1] == 1  # [e_1, e_2] = e_2, so e^2 has weight -1
    honest = exterior._expansion

    def leaking(g, theta=None):
        scale, expand = honest(g, theta)

        def leak(key):
            yield from expand(key)
            if not key:  # d(1) gains e^2, of weight -1; theta's closedness check is untouched
                yield 0b10, 1

        return scale, leak

    monkeypatch.setattr(exterior, "_expansion", leaking)
    with pytest.raises(RuntimeError, match="d_theta leaves its weight block in degree 0"):
        cohomology(g, theta)


def test_zero_theta_computes_the_plain_complex_once(monkeypatch, by_name):
    g = by_name["rr3-1"].algebra()
    calls = []
    honest = novikov._betti_vector

    def counted(g, theta):
        calls.append(theta)
        return honest(g, theta)

    monkeypatch.setattr(novikov, "_betti_vector", counted)
    report = cohomology(g, one_form(4, [0, 0, 0, 0]))
    assert calls == [None]
    assert report.twisted_betti == report.betti and report.twisted_closed_dims == report.closed_dims
