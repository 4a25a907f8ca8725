"""Exact linear algebra over the rationals.

Two representations are used.  The Chevalley-Eilenberg differentials
are large and very sparse (often one or two nonzeros per row), so they
are sparse matrices: lists of rows, each a dict {column: entry}, with
integer entries (exterior.differential_matrix scales d_theta to clear its
denominators; rational rows are accepted and cleared row by row).  Their
ranks and kernels come from one fraction-free sparse Gauss-Jordan
elimination (eliminate), which takes the sparsest rows first and keeps
every row integral; rank_mod_prime is a separate elimination over GF(p)
that checks it, and sparse_solve reads one Fraction solution off
eliminate's integer kernel.  The small systems (Gram matrices,
automorphism algebras, a change of basis, the Lee form) are dense lists
of rows of fractions.Fraction; rref reduces them in order, with leftmost
pivots, to their reduced row echelon form, whose length is the rank,
whose kernel nullspace reads off, and from which inverse reads A^-1;
char_poly_exact gives the characteristic polynomial of a small dense matrix.
"""

from fractions import Fraction
from math import gcd, lcm


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def char_poly_exact(mat):
    """Characteristic polynomial coefficients, descending powers, monic.

    Faddeev-LeVerrier over Fractions; exact for exact input.  Integral
    coefficients come back as ints.
    """
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]
    work = zeros(n, n)
    for k in range(1, n + 1):
        for i in range(n):
            work[i][i] += coeffs[-1]
        work = mat_mul(a, work)
        coeffs.append(-trace(work) / k)
    return tuple(int(c) if c.denominator == 1 else c for c in coeffs)


# A sparse matrix is a list of rows, each a dict {column: nonzero entry};
# empty rows are kept, and the column count is carried by the caller.

# The Mersenne prime 2^61 - 1, modulus of the independent rank check.
RANK_CHECK_PRIME = (1 << 61) - 1


def sparse_transpose(rows, ncols):
    """The ncols sparse rows of the transpose."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def sparse_mul(a, b):
    """Product of sparse matrices; b's rows are indexed by a's columns."""
    out = []
    for row in a:
        acc = {}
        for j, x in row.items():
            for k, y in b[j].items():
                acc[k] = acc.get(k, 0) + x * y
        out.append({k: v for k, v in acc.items() if v})
    return out


def _subtract(row, c, pivot_row):
    """row -= c * pivot_row, in place."""
    for j, y in pivot_row.items():
        v = row.get(j, 0) - c * y
        if v:
            row[j] = v
        else:
            del row[j]


def _integral(row):
    """The row times the least positive integer that clears its denominators, as ints."""
    den = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}


def _cross(row, c, p, pivot_row):
    """row = (p * row - c * pivot_row) / gcd(p, c), in place.

    With p = pivot_row[col] and c = row[col], this clears row[col].
    """
    g = gcd(p, c)
    p, c = p // g, c // g
    if p != 1:
        for j in row:
            row[j] *= p
    _subtract(row, c, pivot_row)


def _primitive(row, col):
    """row divided by its content, signed so that row[col] > 0, in place."""
    g = gcd(*row.values())
    if row[col] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g


def eliminate(rows):
    """Fraction-free sparse Gauss-Jordan elimination over the integers.

    Rows may hold ints or Fractions; each is cleared of its denominators
    once, and the pivot rows hold ints, each divided by its content with a
    positive pivot, so they are the primitive integer multiples of the
    rational reduced rows (Bareiss, Math. Comp. 22, 1968, keeps the
    entries integral the same way).  Rows are taken sparsest first.  Each
    is reduced against the pivot rows found so far, which hold no pivot
    column but their own, by cross-multiplying with their pivots, so one
    pass leaves only non-pivot columns.  If anything is left, the row
    becomes a pivot row on the column that occurs in the fewest pivot
    rows (leftmost on ties), and that column is cleared from the pivot
    rows holding it.  Returns {pivot column: reduced row}; its length is
    the rank.
    """
    pivots = {}
    holders = {}  # non-pivot column -> pivot columns whose rows hold it
    for row in sorted(rows, key=len):
        row = _integral(row)
        for hit in [j for j in row if j in pivots]:
            pivot_row = pivots[hit]
            _cross(row, row[hit], pivot_row[hit], pivot_row)
        if not row:
            continue
        col = min(row, key=lambda j: (len(holders.get(j, ())), j))
        _primitive(row, col)
        p = row[col]
        for other in holders.pop(col, ()):
            other_row = pivots[other]
            before = other_row.keys() - {col}
            _cross(other_row, other_row[col], p, row)
            _primitive(other_row, other)
            for j in other_row.keys() - before:
                holders.setdefault(j, set()).add(other)
            for j in before - other_row.keys():
                holders[j].discard(other)
        for j in row:
            if j != col:
                holders.setdefault(j, set()).add(col)
        pivots[col] = row
    return pivots


def rank(rows):
    """Rank of a sparse matrix, by eliminate."""
    return len(eliminate(rows))


def kernel(pivots, ncols):
    """Right-kernel basis from reduced pivot rows, eliminate's or rref's.

    One sparse vector per free column f, in increasing f: s_f at f, and
    -row[f] * s_f / row[col] at each pivot column col whose reduced row
    has an entry at f, where s_f is the least common multiple of those
    rows' pivots.  It is 1 for rref's rows, whose pivots are 1, and the
    vectors of eliminate's integer rows are integral.
    """
    scale = {f: 1 for f in range(ncols) if f not in pivots}
    for col, row in pivots.items():
        for f in row:
            if f != col:
                scale[f] = lcm(scale[f], int(row[col]))
    basis = {f: {f: s} for f, s in scale.items()}
    for col, row in pivots.items():
        p = row[col]
        for f, x in row.items():
            if f != col:
                basis[f][col] = -x * (scale[f] // p)
    return list(basis.values())


def sparse_solve(rows, ncols, b):
    """One solution x (dense Fractions) of rows x = b, or None when inconsistent.

    With b as column ncols, a kernel vector v of [rows | b] with
    v[ncols] != 0 gives x = -v[:ncols] / v[ncols]; the kernel basis has
    one exactly when b lies in the column span.
    """
    augmented = [{**row, ncols: v} if v else row for row, v in zip(rows, b)]
    for v in kernel(eliminate(augmented), ncols + 1):
        if ncols in v:
            return [Fraction(-v.get(j, 0), v[ncols]) for j in range(ncols)]
    return None


def rref(vectors):
    """Reduced row echelon form of dense vectors: {pivot column: reduced row}.

    Gauss-Jordan in the given order: each vector is reduced against the
    rows found so far, and what is left becomes a row, scaled to 1 on its
    leftmost entry, which is cleared from the earlier rows.  Clearing a
    later pivot column from a row adds entries only right of that column,
    so no row holds an entry left of its pivot.  The form depends only on
    the span of the vectors, and its length is the rank.
    """
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


def inverse(a):
    """The rows of A^-1, read off the reduced [A | I]; None if a pivot lands right of column n."""
    n = len(a)
    reduced = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if any(col >= n for col in reduced):
        return None
    return [[reduced[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)]


def rank_mod_prime(rows):
    """Rank over GF(p), p = RANK_CHECK_PRIME, of the rows cleared of denominators.

    It never exceeds the rank r over the rationals, and equals it unless p
    divides every r x r minor (see Dumas and Villard, "Computing the rank
    of large sparse matrices over finite fields", CASC 2002).
    This is a separate elimination from eliminate, over another field, so
    that it can check it.
    """
    p = RANK_CHECK_PRIME
    pivots = {}
    for row in rows:
        row = {j: v for j, x in _integral(row).items() if (v := x % p)}
        while row:
            col = min(row)
            if col not in pivots:
                inv_p = pow(row[col], -1, p)
                pivots[col] = {j: x * inv_p % p for j, x in row.items()}
                break
            c = row[col]
            for j, y in pivots[col].items():
                v = (row.get(j, 0) - c * y) % p
                if v:
                    row[j] = v
                else:
                    del row[j]
    return len(pivots)


def nullspace(a):
    """Basis of the right kernel of a (ncols must be readable from a[0]), as dense vectors.

    kernel of rref's rows, one vector per non-pivot column in increasing
    order.
    """
    if not a:
        raise ValueError("cannot infer column count of an empty matrix")
    ncols = len(a[0])
    return [[Fraction(v.get(j, 0)) for j in range(ncols)] for v in kernel(rref(a), ncols)]
