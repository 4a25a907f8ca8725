"""Twisted (Morse-Novikov) cohomology of a Lie algebra.

For a closed 1-form theta the operator d_theta(a) = d(a) - theta ^ a
squares to zero, and its cohomology refines the untwisted Lie algebra
cohomology (theta = 0).  The dimension of the closed forms in each
degree is computed two independent ways, by the rank of the degree-wise
matrix and by its reduced-echelon kernel; disagreement raises.
"""

from dataclasses import dataclass
from math import comb

from . import linalg
from .exterior import ce_differential, differential_matrix, form_to_vector, wedge


def _require_closed(g, theta):
    if theta.dim != g.dim or theta.degree != 1:
        raise ValueError("theta must be a 1-form on the algebra")
    if not ce_differential(g, theta).is_zero():
        raise ValueError("theta is not closed; the twisted differential would not square to zero")


def twisted_differential(g, theta, a):
    """d_theta(a) = d(a) - theta ^ a; requires d(theta) = 0."""
    _require_closed(g, theta)
    return ce_differential(g, a) - wedge(theta, a)


@dataclass(frozen=True)
class CohomologyReport:
    """Betti numbers beta_0..beta_n, twisted and untwisted, with the
    dimensions of the spaces of closed forms per degree."""

    betti: tuple
    twisted_betti: tuple
    closed_dims: tuple
    twisted_closed_dims: tuple
    theta: object


def _betti_vector(g, theta):
    """(betti, closed_dims) for d_theta; closed dims are cross-checked two ways."""
    n = g.dim
    ranks = []
    closed = []
    for k in range(n + 1):
        matrix = differential_matrix(g, k, theta)
        r = linalg.rank(matrix)
        ranks.append(r)
        closed.append(comb(n, k) - r)
        # independent elimination: kernel dimension by reduced echelon form
        if matrix and matrix[0]:
            kernel_dim = len(linalg.nullspace(matrix))
        else:
            kernel_dim = comb(n, k)
        if kernel_dim != closed[-1]:
            raise RuntimeError(f"rank/kernel mismatch in degree {k}")
    betti = tuple(closed[k] - (ranks[k - 1] if k else 0) for k in range(n + 1))
    return betti, tuple(closed)


def cohomology(g, theta):
    """Twisted and untwisted Betti numbers of g.

    theta = 0 gives ordinary Chevalley-Eilenberg cohomology in both
    slots.  All ranks are exact.
    """
    _require_closed(g, theta)
    betti, closed = _betti_vector(g, None)
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
    da = twisted_differential(g, theta, a)
    if not da.is_zero():
        raise ValueError("a is not d_theta-closed, so it has no class")
    if a.degree == 0:
        return a.is_zero()
    matrix = differential_matrix(g, a.degree - 1, theta)
    vec = form_to_vector(a)
    augmented = [row + [v] for row, v in zip(matrix, vec)]
    return linalg.rank(matrix) == linalg.rank(augmented)
