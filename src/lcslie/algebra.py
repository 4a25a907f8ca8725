"""Lie algebras presented by structure constants on a fixed basis.

Elements are coordinate lists over the basis e_1, ..., e_n; there is no
abstract element type.  The structure constants are one sparse table:
brackets[(i, j)] = {k: c^k_ij} for i < j, holding only the nonzero
c^k_ij with 1-based k, and omitting the pairs whose bracket is zero;
antisymmetry is implicit.  Everything that reads the structure constants
(brackets, traces of ad, the structure equations) walks this table, so
the cost follows its nonzeros rather than n^3.  The one table derived
from it is d_masks, the integer differentials d(e^k) on bitmasks that
the Chevalley-Eilenberg complex, and with it the Jacobi identity
d(d(e^k)) = 0, reads.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from . import linalg

MAX_DIM = 14  # keeps every exterior power at most C(14,7) = 3432 dimensional


def _sparse_brackets(brackets, dim):
    """The table {(i, j): {k: c}} from dense coordinate lists or {k: c} dicts."""
    out = {}
    for (i, j), vec in brackets.items():
        if not (1 <= i < j <= dim):
            raise ValueError(f"bracket key ({i},{j}) out of range for dim {dim}")
        if isinstance(vec, dict):
            if any(not (1 <= k <= dim) for k in vec):
                raise ValueError(f"bracket [e{i},e{j}] has a coordinate out of range 1..{dim}")
            terms = vec.items()
        else:
            if len(vec) != dim:
                raise ValueError(f"bracket [e{i},e{j}] has length {len(vec)}, expected {dim}")
            terms = enumerate(vec, start=1)
        v = {k: x if type(x) is Fraction else Fraction(x) for k, x in terms if x}
        if v:
            out[(i, j)] = v
    return out


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """dim and the sparse table (i, j) -> {k: c^k_ij} of [e_i, e_j], i < j.

    The constructor also accepts each bracket as a dense coordinate list
    of length dim; zero coordinates and zero brackets are dropped.  The
    table is shared, not copied, by the methods that read it, so treat it
    as read-only.  The Jacobi identity is not enforced here;
    parse_structure_equations and the constructive operations run
    check_jacobi and refuse invalid input.
    """

    dim: int
    brackets: dict

    def __post_init__(self):
        if not (1 <= self.dim <= MAX_DIM):
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {self.dim}")
        object.__setattr__(self, "brackets", _sparse_brackets(self.brackets, self.dim))

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.brackets == other.brackets

    @cached_property
    def d_masks(self):
        """(L, [(bit of e^m, [(bits of e^ij, bits of the indices between i and j, L x)])]).

        d(e^m) = sum x e^ij with x = -c^m_ij, on bitmasks (bit i-1 for e^i):
        one row per m with d(e^m) != 0, in increasing m, its terms in sorted
        pair order; L is the least positive integer that makes every entry
        integral.  Read off the table once; the instance is frozen, so the
        cache cannot go stale.
        """
        scale = lcm(*(c.denominator for terms in self.brackets.values() for c in terms.values()))
        rows = {}
        for (i, j), terms in sorted(self.brackets.items()):
            pair, between = 1 << i - 1 | 1 << j - 1, (1 << j - 1) - (1 << i)
            for m, c in terms.items():
                rows.setdefault(m, []).append((pair, between, -c.numerator * (scale // c.denominator)))
        return scale, [(1 << m - 1, rows[m]) for m in sorted(rows)]

    def basis_bracket(self, i, j):
        """[e_i, e_j] as a coordinate list, any i, j in 1..dim."""
        out = [Fraction(0)] * self.dim
        for k, c in self.brackets.get((min(i, j), max(i, j)), {}).items():
            out[k - 1] = c if i < j else -c
        return out

    def bracket(self, x, y):
        """[x, y] for coordinate vectors x and y, by _bracket on the table."""
        out = [Fraction(0)] * self.dim
        for k, v in _bracket(self.brackets, x, y).items():
            out[k - 1] = v
        return out

    def ad_traces(self):
        """[tr ad_{e_1}, ..., tr ad_{e_n}], with tr ad_{e_i} = sum_j c^j_{ij}.

        The stored [e_i, e_j], i < j, adds c^j_ij to the trace for e_i and,
        as [e_j, e_i] = -[e_i, e_j], subtracts c^i_ij from that for e_j.
        """
        out = [Fraction(0)] * self.dim
        for (i, j), terms in self.brackets.items():
            if j in terms:
                out[i - 1] += terms[j]
            if i in terms:
                out[j - 1] -= terms[i]
        return out

    def basis_vector(self, i):
        v = [Fraction(0)] * self.dim
        v[i - 1] = Fraction(1)
        return v


def _bracket(table, x, y):
    """{k: coordinate k of [x, y]}, zeros included, for a table of brackets
    {(i, j): {k: c}}, i < j, and coordinate vectors x and y.

    Walks the pairs of nonzero coordinates of x and y and the stored
    terms of their brackets; ints in (table and vectors) give ints out.
    """
    ys = [(j, b) for j, b in enumerate(y, start=1) if b]
    acc = {}
    for i, a in enumerate(x, start=1):
        if not a:
            continue
        for j, b in ys:
            if i < j:
                terms, sign = table.get((i, j)), 1
            elif i > j:
                terms, sign = table.get((j, i)), -1
            else:
                continue
            if terms:
                s = a * b if sign > 0 else -(a * b)
                for k, c in terms.items():
                    acc[k] = acc.get(k, 0) + s * c
    return acc


def abelian(dim):
    return LieAlgebra(dim, {})


def change_basis(g, columns):
    """The same algebra expressed in the basis given by the matrix columns.

    The new coordinates of [b_i, b_j] are P^-1 [b_i, b_j], summed in
    integers and made a Fraction once per nonzero coordinate: with b_i = B_i /
    D_i (B_i integral), the structure constants times L (d_masks' scale) and
    row k of P^-1 = R_k / p_k (linalg.inverse_rows), coordinate k is
    R_k [B_i, B_j] / (p_k L D_i D_j), all rows R_k in one sparse product.
    """
    n = g.dim
    inverse = linalg.inverse_rows(columns)
    if inverse is None:
        raise ValueError("matrix is singular")
    scale = g.d_masks[0]
    table = {pair: {k: c.numerator * (scale // c.denominator) for k, c in terms.items()}
             for pair, terms in g.brackets.items()}
    new_basis = [linalg.clear_denominators(b) for b in linalg.transpose(columns)]
    pairs = list(combinations(range(n), 2))
    images = [{k - 1: x for k, x in _bracket(table, new_basis[i][1], new_basis[j][1]).items() if x}
              for i, j in pairs]
    inverse_columns = linalg.sparse_transpose([row for _, row in inverse], n)
    coordinates = linalg.sparse_mul(images, inverse_columns)
    brackets = {}
    for (i, j), c in zip(pairs, coordinates):
        if c:
            den = scale * new_basis[i][0] * new_basis[j][0]
            brackets[(i + 1, j + 1)] = {k + 1: Fraction(x, inverse[k][0] * den)
                                        for k, x in c.items()}
    return LieAlgebra(n, brackets)
