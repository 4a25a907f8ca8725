from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import pytest

from lcslie import corpus, linalg
from lcslie.algebra import abelian
from lcslie.exterior import (
    KForm, basis_form, ce_differential, form_basis, form_to_vector, interior, vector_to_form,
)
from lcslie.lcs import gram_matrix


@pytest.fixture(scope="session")
def shipped():
    """Every record in the packaged corpus."""
    return corpus.load_corpus(corpus.default_corpus_path())


@pytest.fixture(scope="session")
def by_name(shipped):
    return {entry.name: entry for entry in shipped}


def _ring_mul(x, y, m):
    """(a + b lam)(c + d lam) with lam^2 = m lam - 1."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] + m * x[1] * y[1])


def _conjugation_failures(cert):
    """Entries (i, j) where phi(t_m) P_m and P_m D_m differ in Z[lam].

    phi(t_m) = diag(lam^g) for g in (1, -1, 0, 1, -1, 0), lam^-1 = m - lam;
    written out independently of lcslie.lattice.
    """
    m = cert.m
    lam = {1: (0, 1), -1: (m, -1), 0: (1, 0)}
    failures = []
    for i, (g, row) in enumerate(zip((1, -1, 0, 1, -1, 0), cert.p_m)):
        for j in range(6):
            rhs = (0, 0)
            for k in range(6):
                term = _ring_mul(row[k], (cert.d_m[k][j], 0), m)
                rhs = (rhs[0] + term[0], rhs[1] + term[1])
            if _ring_mul(lam[g], row[j], m) != rhs:
                failures.append((i, j))
    return failures


@pytest.fixture(scope="session")
def conjugation_failures():
    return _conjugation_failures


def _cofactor_det(mat, m):
    """Determinant over Z[lam] by cofactor expansion along the first row, n! terms."""
    if not mat:
        return (1, 0)
    total = (0, 0)
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        a, b = _ring_mul(entry, _cofactor_det(minor, m), m)
        sign = -1 if j % 2 else 1
        total = (total[0] + sign * a, total[1] + sign * b)
    return total


@pytest.fixture(scope="session")
def cofactor_det():
    return _cofactor_det


def _subtract(row, c, pivot_row):
    """row -= c * pivot_row, in place."""
    for j, y in pivot_row.items():
        v = row.get(j, 0) - c * y
        if v:
            row[j] = v
        else:
            del row[j]


def _fraction_eliminate(rows):
    """Sparse Gauss-Jordan over Fractions, with eliminate's row order and pivot rule.

    Rows are taken sparsest first and reduced against the pivot rows; what
    is left becomes a pivot row, scaled to 1 on the column that occurs in
    the fewest pivot rows (leftmost on ties), and that column is cleared
    from the pivot rows holding it.  Returns {pivot column: reduced row}.
    """
    pivots = {}
    holders = {}  # non-pivot column -> pivot columns whose rows hold it
    for row in sorted(rows, key=len):
        row = {j: Fraction(x) for j, x in row.items()}
        for hit in [j for j in row if j in pivots]:
            _subtract(row, row[hit], pivots[hit])
        if not row:
            continue
        col = min(row, key=lambda j: (len(holders.get(j, ())), j))
        inv_p = 1 / row[col]
        row = {j: x * inv_p for j, x in row.items()}
        for other in holders.pop(col, ()):
            other_row = pivots[other]
            before = other_row.keys() - {col}
            _subtract(other_row, other_row[col], row)
            for j in other_row.keys() - before:
                holders.setdefault(j, set()).add(other)
            for j in before - other_row.keys():
                holders[j].discard(other)
        for j in row:
            if j != col:
                holders.setdefault(j, set()).add(col)
        pivots[col] = row
    return pivots


@pytest.fixture(scope="session")
def fraction_eliminate():
    return _fraction_eliminate


def _fraction_rref(vectors):
    """Gauss-Jordan over Fractions in the given order, with leftmost pivots:
    {pivot column: row scaled to 1 on its pivot}, the reduced row echelon form."""
    rows = {}
    for v in vectors:
        row = {j: Fraction(x) for j, x in enumerate(v) if x}
        for hit in [j for j in row if j in rows]:
            _subtract(row, row[hit], rows[hit])
        if not row:
            continue
        col = min(row)
        inv_p = 1 / row[col]
        row = {j: x * inv_p for j, x in row.items()}
        for other_row in rows.values():
            c = other_row.get(col)
            if c:
                _subtract(other_row, c, row)
        rows[col] = row
    return rows


def _fraction_nullspace(a):
    """One kernel vector per non-pivot column f of _fraction_rref, increasing:
    1 at f and -row[f] at each pivot column."""
    ncols = len(a[0])
    rows = _fraction_rref(a)
    basis = []
    for f in range(ncols):
        if f in rows:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for col, row in rows.items():
            if f in row:
                v[col] = -row[f]
        basis.append(v)
    return basis


def _fraction_inverse(a):
    """The rows of A^-1 read off _fraction_rref of [A | I], or None if singular."""
    n = len(a)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    reduced = _fraction_rref(augmented)
    if any(col >= n for col in reduced):
        return None
    return [[reduced[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)]


@pytest.fixture(scope="session")
def fraction_gauss_jordan():
    """(rref, nullspace, inverse) over Fractions, the oracle of linalg's integer rows."""
    return _fraction_rref, _fraction_nullspace, _fraction_inverse


@pytest.fixture(scope="session")
def dense():
    """The dense list-of-rows form of a sparse matrix with ncols columns."""

    def to_dense(rows, ncols):
        return [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]

    return to_dense


@pytest.fixture(scope="session")
def mat_vec():
    """The product of a dense matrix and a vector, over Fractions."""

    def product(a, v):
        return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]

    return product


@pytest.fixture(scope="session")
def sparse():
    """The sparse rows of a dense matrix."""

    def to_sparse(a):
        return [{j: x for j, x in enumerate(row) if x} for row in a]

    return to_sparse


def _zero_form(dim, degree):
    return KForm(dim, degree, {})


@pytest.fixture(scope="session")
def zero_form():
    return _zero_form


def _perm_sign(seq):
    """Sign of the permutation sorting seq, 0 if entries repeat."""
    s = list(seq)
    sign = 1
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] == s[j]:
                return 0
            if s[i] > s[j]:
                sign = -sign
    return sign


def _wedge(a, b):
    """Exterior product of monomials e^K ^ e^L = sign(K + L) e^(K u L); the
    zero form when the degree exceeds the dimension."""
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
    degree = a.degree + b.degree
    if degree > a.dim:
        return _zero_form(a.dim, degree)
    coeffs = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            sign = _perm_sign(ka + kb)
            if sign:
                key = tuple(sorted(ka + kb))
                coeffs[key] = coeffs.get(key, Fraction(0)) + sign * va * vb
    return KForm(a.dim, degree, coeffs)


@pytest.fixture(scope="session")
def wedge():
    return _wedge


def _evaluate(a, *vectors):
    """a(v_1, ..., v_k) = sum_K a_K det(v_r[K_s]), each determinant by the
    Leibniz formula, sum over permutations p of sign(p) prod_r v_r[K_p(r)]."""
    if len(vectors) != a.degree:
        raise ValueError(f"expected {a.degree} vectors, got {len(vectors)}")
    total = Fraction(0)
    for key, value in a.coeffs.items():
        for perm in permutations(range(a.degree)):
            term = _perm_sign(perm) * value
            for v, p in zip(vectors, perm):
                term *= v[key[p] - 1]
            total += term
    return total


@pytest.fixture(scope="session")
def evaluate():
    return _evaluate


def _wedge_differential(g, a):
    """d(a) by the antiderivation rule on wedge monomials,
    d(e^{i1} ^ ... ^ e^{ik}) = sum_a (-1)^(a-1) e^{i1} ^ ... ^ d(e^{ia}) ^ ... ^ e^{ik},
    with d(e^k) = -sum_{i<j} c^k_ij e^i ^ e^j read off the brackets and the
    products taken by _wedge; independent of the library's term expansion.
    """
    result = _zero_form(g.dim, a.degree + 1)
    for key, value in a.coeffs.items():
        for pos, idx in enumerate(key):
            d_idx = {ij: -terms[idx] for ij, terms in g.brackets.items() if idx in terms}
            dpart = KForm(g.dim, 2, d_idx)
            prefix = basis_form(g.dim, key[:pos]) if pos else KForm(g.dim, 0, {(): 1})
            term = _wedge(prefix, dpart)
            if key[pos + 1 :]:
                term = _wedge(term, basis_form(g.dim, key[pos + 1 :]))
            result = result + (Fraction(-1) ** pos * value) * term
    return result


@pytest.fixture(scope="session")
def wedge_differential():
    return _wedge_differential


def _center(g):
    """Basis of {x : [x, y] = 0 for all y}.

    x is central when sum_i x_i c^k_{ij} = 0 for every j and k; the rows
    of that system are read off the table in one pass.
    """
    n = g.dim
    rows = {}
    for (i, j), terms in g.brackets.items():
        for k, c in terms.items():
            rows.setdefault((j, k), [Fraction(0)] * n)[i - 1] += c
            rows.setdefault((i, k), [Fraction(0)] * n)[j - 1] -= c
    return linalg.nullspace(list(rows.values()) or [[Fraction(0)] * n])


@pytest.fixture(scope="session")
def center():
    return _center


def _jacobi_walk(g):
    """(True, None), or (False, (i, j, k)) for the first triple i < j < k in
    lexicographic order whose cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] +
    [[e_k,e_i],e_j] is nonzero; each bracket is a dense basis_bracket/bracket
    call, independent of the differential."""
    for i, j, k in combinations(range(1, g.dim + 1), 3):
        total = [Fraction(0)] * g.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in enumerate(g.bracket(g.basis_bracket(a, b), g.basis_vector(c))):
                total[m] += x
        if any(total):
            return False, (i, j, k)
    return True, None


@pytest.fixture(scope="session")
def jacobi_walk():
    return _jacobi_walk


def _covector_automorphisms(g, omega):
    """Basis of g_omega from the dense system ad_X^T G + G ad_X = 0.

    The (j, k) entry of ad_{e_i}^T G + G ad_{e_i} is omega([e_i,e_j], e_k) -
    omega([e_i,e_k], e_j), each omega(v, .) a combination of Gram rows; the
    entries with j < k form column i of a C(n,2) x n system, whose nullspace
    is returned.
    """
    n = g.dim
    gram = gram_matrix(omega)

    def covector(v):
        return [sum((c * row[k] for c, row in zip(v, gram)), Fraction(0)) for k in range(n)]

    columns = []
    for i in range(1, n + 1):
        lie = [covector(g.basis_bracket(i, j)) for j in range(1, n + 1)]
        columns.append([lie[j][k] - lie[k][j] for j, k in combinations(range(n), 2)])
    return linalg.nullspace(linalg.transpose(columns))


@pytest.fixture(scope="session")
def covector_automorphisms():
    return _covector_automorphisms


def _cartan_automorphism_system(g, omega):
    """The C(n,2) x n system of g_omega by Cartan's formula: column i holds the
    coefficients of L_{e_i} omega = i_{e_i} d(omega) + d(i_{e_i} omega) over
    form_basis(n, 2), with d(omega) taken once."""
    n = g.dim
    domega = ce_differential(g, omega)
    lie = [interior(e, domega) + ce_differential(g, interior(e, omega))
           for e in (g.basis_vector(i) for i in range(1, n + 1))]
    return [[x.coefficient(key) for x in lie] for key in form_basis(n, 2)]


@pytest.fixture(scope="session")
def cartan_automorphism_system():
    return _cartan_automorphism_system


def _twist_lee_form(g, omega):
    """theta with d(omega) = theta ^ omega by a linear solve, or None; raises like recover_lee_form.

    d vanishes on the abelian algebra, so its twist gives the columns
    d_(-e^i)(omega) = e^i ^ omega of the map theta -> theta ^ omega.  Fewer
    than n independent columns means theta is not unique; otherwise
    sparse_solve finds the solution, returned when it is closed.  Each row
    and its entry of d(omega) are scaled to clear the row's denominators,
    as sparse_solve takes integer rows.
    """
    n = g.dim
    if linalg.nullspace(gram_matrix(omega)):
        raise ValueError("omega is degenerate; the Lee form is not determined")
    three_basis = form_basis(n, 3)
    flat = abelian(n)
    columns = [form_to_vector(ce_differential(flat, omega, -basis_form(n, (i,))), three_basis)
               for i in range(1, n + 1)]
    if len(linalg.rref(columns)) != n:
        raise ValueError("theta is not unique; omega does not determine a Lee form")
    rows, b = [], []
    for row, y in zip(linalg.transpose(columns),
                      form_to_vector(ce_differential(g, omega), three_basis)):
        den = lcm(*(x.denominator for x in row))
        rows.append({i: int(x * den) for i, x in enumerate(row) if x})
        b.append(y * den)
    solution = linalg.sparse_solve(rows, n, b)
    if solution is None:
        return None
    theta = vector_to_form(n, 1, solution)
    return theta if ce_differential(g, theta).is_zero() else None


@pytest.fixture(scope="session")
def twist_lee_form():
    return _twist_lee_form
