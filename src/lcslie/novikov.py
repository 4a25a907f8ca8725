"""Twisted (Morse-Novikov) cohomology of a Lie algebra.

For a closed 1-form theta the operator d_theta(a) = d(a) - theta ^ a
squares to zero, and its cohomology refines the untwisted Lie algebra
cohomology (theta = 0).

Only one block of the complex is assembled and ranked.  If ad_X is
diagonal in the basis, ad_X e_k = a_k e_k, the Lie derivative L_X scales
e^K by -sum_{k in K} a_k, and Cartan's formula i_X d_theta + d_theta i_X
= L_X - theta(X) makes every L_X-eigenspace of weight other than theta(X)
acyclic (Hochschild and Serre, Ann. Math. 57, 1953).  So H_theta is the
cohomology of the forms of weight theta(X) under every basis element X
with diagonal ad (exterior.weight_block); central elements count, with
all weights 0.  When no basis element has diagonal ad, or only central
ones with theta(X) = 0, the block is the whole complex and the same code
ranks all of it.  The dropped eigenspaces still enter the closed
dimensions, through the ranks an acyclic complex of their sizes has.

The degree-wise matrices are integral: exterior.differential_matrix
gives L d_theta (L the least common denominator of the structure
constants and theta), with the ranks and kernels of d_theta.  Each rank
r comes from one fraction-free elimination of the matrix, certified from
both sides whatever that elimination did (_certified_rank).
Disagreement, d_theta squaring to nonzero, or a term of d_theta leaving
its block raises.
"""

from dataclasses import dataclass
from math import comb, lcm

from . import linalg
from .exterior import ce_differential, differential_matrix, form_to_vector, weight_block


def _require_closed(g, theta):
    if theta.dim != g.dim or theta.degree != 1:
        raise ValueError("theta must be a 1-form on the algebra")
    if not ce_differential(g, theta).is_zero():
        raise ValueError("theta is not closed; the twisted differential would not square to zero")


@dataclass(frozen=True)
class CohomologyReport:
    """Betti numbers beta_0..beta_n, twisted and untwisted, with the
    dimensions of the spaces of closed forms per degree."""

    betti: tuple
    twisted_betti: tuple
    closed_dims: tuple
    twisted_closed_dims: tuple
    theta: object


def _certified_rank(matrix, ncols, k):
    """Rank r of a sparse matrix M, certified by its kernel and a pivot minor.

    linalg.kernel gives one vector per non-pivot column, nonzero there and
    elsewhere only on pivot columns, so with M v = 0 they put the rank at
    most r.  The minor on eliminate's source rows and pivot columns (a
    pivot column outside M leaves it a column short) puts it at least r if
    it has rank r mod p, or else, when p divides its determinant, by rref.
    rref alone would do but is slower (medians, Python 3.11, 2-core Xeon): 0.136
    s against 0.053 s per bench cohomology-dense op, 8.5 against 2.05 s in dim 10.
    """
    pivots, sources = linalg.eliminate(matrix)
    r = len(pivots)
    kernel = linalg.kernel(pivots, ncols)
    images = linalg.sparse_mul(kernel, linalg.sparse_transpose(matrix, ncols))
    order = {col: t for t, col in enumerate(pivots)}  # in eliminate's order, mod p fills in less
    minor = [{order[j]: x for j, x in matrix[sources[col]].items() if j in order} for col in pivots]
    if any(images) or (linalg.rank_mod_prime(minor) < r and len(linalg.rref(
            [[row.get(t, 0) for t in range(r)] for row in minor])) < r):
        raise RuntimeError(f"rank/kernel mismatch in degree {k}")
    return r


def _betti_vector(g, theta):
    """(betti, closed_dims) for d_theta, from certified ranks on its weight block.

    The dropped part of the complex is acyclic, so its rank in degree k is
    sum_{j<=k} (-1)^(k-j) (C(n, j) - |keys_j|), which is added back to give
    the closed dimensions of the whole complex.
    """
    n = g.dim
    keys = weight_block(g, theta) + [[]]
    matrices = [differential_matrix(g, k, theta, keys[k : k + 2]) for k in range(n + 1)]
    for k in range(n):
        if any(linalg.sparse_mul(matrices[k + 1], matrices[k])):
            raise RuntimeError(f"d_theta does not square to zero in degree {k}")
    ranks, dropped_rank = [], 0
    for k in range(n + 1):
        dropped_rank = comb(n, k) - len(keys[k]) - dropped_rank
        ranks.append(_certified_rank(matrices[k], len(keys[k]), k) + dropped_rank)
    closed = [comb(n, k) - ranks[k] for k in range(n + 1)]
    betti = tuple(closed[k] - (ranks[k - 1] if k else 0) for k in range(n + 1))
    return betti, tuple(closed)


def cohomology(g, theta):
    """Twisted and untwisted Betti numbers of g.

    theta = 0 gives ordinary Chevalley-Eilenberg cohomology in both
    slots, computed once.  All ranks are exact.
    """
    _require_closed(g, theta)
    betti, closed = _betti_vector(g, None)
    if theta.is_zero():
        return CohomologyReport(betti, betti, closed, closed, theta)
    twisted, twisted_closed = _betti_vector(g, theta)
    return CohomologyReport(betti, twisted, closed, twisted_closed, theta)


def is_exact_class(g, theta, a):
    """True iff [a] = 0 in H^k_theta, by a rank comparison.

    a is d_theta-exact exactly when appending its coefficient vector to
    the matrix of d_theta on (k-1)-forms leaves the rank unchanged.
    This is deliberately solver-free so it can cross-check routines that
    produce an explicit primitive.
    """
    _require_closed(g, theta)
    if not ce_differential(g, a, theta).is_zero():
        raise ValueError("a is not d_theta-closed, so it has no class")
    if a.degree == 0:
        return a.is_zero()
    matrix = differential_matrix(g, a.degree - 1, theta)
    column = comb(g.dim, a.degree - 1)
    b = form_to_vector(a)
    den = lcm(*(y.denominator for y in b))  # an integer column, of the same rank
    augmented = [{**row, column: int(y * den)} if y else row for row, y in zip(matrix, b)]
    return linalg.rank(matrix) == linalg.rank(augmented)
