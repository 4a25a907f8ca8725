"""Exact linear algebra over the rationals.

One integer core with Fraction edges.  Every elimination runs on sparse
rows of ints, dicts {column: int}, and is fraction-free: a row is
cross-multiplied against a pivot row and divided by its content
(_cross, _primitive), so no rational is formed inside.  The
Chevalley-Eilenberg differentials are large and very sparse (often one or
two nonzeros per row) and already integral (exterior.differential_matrix
scales d_theta to clear its denominators).  Their ranks and kernels come
from eliminate, which takes the sparsest rows first and reports the input
row behind each pivot, so that rank_mod_prime of that pivot minor can
certify the rank; sparse_solve reads one Fraction solution off
eliminate's integer kernel.  The small systems (Gram matrices,
automorphism algebras, a change of basis, the Lee form) are dense lists of
rows of ints and Fractions.  Each row is scaled by the least common
multiple of its denominators (clear_denominators) and _reduce brings them,
in order and with leftmost pivots, to the primitive integer multiples of
the rows of their reduced row echelon form.  rref, nullspace and inverse
read that form and make one Fraction per entry they return; inverse_rows
hands out A^-1 as integer rows over their pivots.  char_poly_exact
gives the characteristic polynomial of a small dense matrix.
"""

from fractions import Fraction
from math import gcd, lcm


_ZERO = Fraction(0)


def zeros(rows, cols):
    return [[_ZERO] * cols for _ in range(rows)]


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

# The Mersenne prime 2^61 - 1, modulus of rank_mod_prime.
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

    Rows hold ints.  The pivot rows are each divided by their content, with
    a positive pivot, so they are the primitive integer multiples of the
    rational reduced rows (Bareiss, Math. Comp. 22, 1968, keeps the
    entries integral the same way).  Rows are taken sparsest first.  Each
    is reduced against the pivot rows found so far, which hold no pivot
    column but their own, by cross-multiplying with their pivots, so one
    pass leaves only non-pivot columns.  If anything is left, the row
    becomes a pivot row on the column that occurs in the fewest pivot
    rows (leftmost on ties), and that column is cleared from the pivot
    rows holding it.  Returns {pivot column: reduced row}, whose length is
    the rank, and {pivot column: index of the input row that became it}.
    """
    pivots, sources = {}, {}
    holders = {}  # non-pivot column -> pivot columns whose rows hold it
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        row = dict(rows[i])
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
        pivots[col], sources[col] = row, i
    return pivots, sources


def rank(rows):
    """Rank of a sparse matrix, by eliminate."""
    return len(eliminate(rows)[0])


def kernel(pivots, ncols):
    """Right-kernel basis from reduced pivot rows, eliminate's, _reduce's or rref's.

    One sparse vector per free column f, in increasing f: s_f at f, and
    -row[f] * s_f / row[col] at each pivot column col whose reduced row
    has an entry at f, where s_f is the least common multiple of those
    rows' pivots.  It is 1 for rref's rows, whose pivots are 1, and the
    vectors of integer rows are integral.
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

    b holds Fractions; with D b as column ncols, D the least common
    denominator of b, a kernel vector v of [rows | D b] with v[ncols] != 0
    gives x = -v[:ncols] / (D v[ncols]); the kernel basis has one exactly
    when b lies in the column span.
    """
    den = lcm(*(y.denominator for y in b))
    augmented = [{**row, ncols: int(y * den)} if y else row for row, y in zip(rows, b)]
    for v in kernel(eliminate(augmented)[0], ncols + 1):
        if ncols in v:
            return [Fraction(-v.get(j, 0), v[ncols] * den) for j in range(ncols)]
    return None


def clear_denominators(v):
    """(D, [D x for x in v]): D the least common multiple of the denominators
    of v's entries (ints and Fractions), and the entries as ints."""
    den = lcm(*[x.denominator for x in v])
    if den == 1:
        return 1, [x.numerator for x in v]
    return den, [x.numerator * (den // x.denominator) for x in v]


def _integer_row(v):
    """The sparse integer row of a dense vector times clear_denominators' D."""
    return {j: x for j, x in enumerate(clear_denominators(v)[1]) if x}


def _reduce(rows):
    """Fraction-free Gauss-Jordan of sparse integer rows, in the given order.

    Each row is reduced against the pivot rows found so far by
    cross-multiplying with their pivots; what is left becomes a pivot row
    on its leftmost entry, divided by its content with a positive pivot,
    and that column is cleared from the earlier pivot rows the same way.
    Clearing a later pivot column from a row adds entries only right of
    that column, so no row holds an entry left of its pivot.  Returns
    {pivot column: row}: each row is the primitive integer multiple of the
    row of the reduced row echelon form with that pivot, which depends
    only on the span of the rows.  The rows are reduced in place.
    """
    pivots = {}
    for row in rows:
        for hit in [j for j in row if j in pivots]:
            pivot_row = pivots[hit]
            _cross(row, row[hit], pivot_row[hit], pivot_row)
        if not row:
            continue
        col = min(row)
        _primitive(row, col)
        p = row[col]
        for other, other_row in pivots.items():
            c = other_row.get(col)
            if c:
                _cross(other_row, c, p, row)
                _primitive(other_row, other)
        pivots[col] = row
    return pivots


def rref(vectors):
    """Reduced row echelon form of dense vectors: {pivot column: reduced row}.

    The rows of _reduce, in the order their pivots were found, each divided
    by its pivot; its length is the rank.
    """
    return {col: {j: Fraction(x, row[col]) for j, x in row.items()}
            for col, row in _reduce(map(_integer_row, vectors)).items()}


def inverse_rows(a):
    """A^-1 as integer rows over positive pivots: [(p_i, {j: x})] with row i of
    A^-1 equal to x / p_i on j, read off the reduced [A | I]; None if a pivot
    lands right of column n."""
    n = len(a)
    reduced = _reduce([_integer_row(list(row) + [int(i == j) for j in range(n)])
                       for i, row in enumerate(a)])
    if any(col >= n for col in reduced):
        return None
    return [(reduced[i][i], {j - n: x for j, x in reduced[i].items() if j >= n}) for i in range(n)]


def inverse(a):
    """The rows of A^-1 as Fractions, from inverse_rows; None if A is singular."""
    rows = inverse_rows(a)
    if rows is None:
        return None
    return [[Fraction(row[j], p) if j in row else _ZERO for j in range(len(a))] for p, row in rows]


def rank_mod_prime(rows):
    """Rank over GF(p), p = RANK_CHECK_PRIME, of sparse integer rows.

    It never exceeds the rank r over the rationals, and equals it unless p
    divides every r x r minor (see Dumas and Villard, "Computing the rank
    of large sparse matrices over finite fields", CASC 2002).  So r rows of
    rank r mod p certify an exact rank of at least r (Kaltofen, Nehring and
    Saunders, "Quadratic-time certificates in linear algebra", ISSAC 2011).
    """
    p = RANK_CHECK_PRIME
    pivots = {}
    for row in rows:
        row = {j: v for j, x in row.items() if (v := x % p)}
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

    kernel of _reduce's rows, one vector per non-pivot column f in
    increasing order, divided by its entry at f, which makes it 1 there.
    """
    if not a:
        raise ValueError("cannot infer column count of an empty matrix")
    ncols = len(a[0])
    pivots = _reduce(map(_integer_row, a))
    free = [f for f in range(ncols) if f not in pivots]
    return [[Fraction(v[j], v[f]) if j in v else _ZERO for j in range(ncols)]
            for f, v in zip(free, kernel(pivots, ncols))]
