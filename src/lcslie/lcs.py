"""Verification and classification of LCS structures.

An LCS structure is a nondegenerate 2-form omega with a closed 1-form
theta satisfying d(omega) = theta ^ omega.  theta restricted to the
subalgebra of infinitesimal automorphisms of omega is a morphism to the
reals, so it is either surjective (first kind) or identically zero
(second kind); omega is symplectic exactly when theta = 0.

Everything here is exact; there are no tolerances.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from itertools import combinations

from . import linalg
from .exterior import (
    KForm,
    ce_differential,
    differential_matrix,
    form_basis,
    form_to_vector,
    vector_to_form,
    wedge,
)


class Kind(Enum):
    SYMPLECTIC = "symplectic"
    FIRST_KIND = "first"
    SECOND_KIND = "second"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class CheckResult:
    """Outcome of check_lcs: ok, or the first failing invariant."""

    ok: bool
    failure: str = None
    witness: object = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class KindVerdict:
    kind: Kind
    automorphism_basis: list
    lee_values: list


@dataclass(frozen=True)
class LCSStructure:
    """A verified pair (omega, theta) on a Lie algebra.

    The constructor runs check_lcs, and it is the only place where a pair
    is verified: code that takes a structure trusts it.  The Gram matrix,
    the kind verdict and the primitive are computed on first use and then
    cached on the instance.
    """

    algebra: object
    omega: KForm
    theta: KForm

    def __post_init__(self):
        result = check_lcs(self.algebra, self.omega, self.theta)
        if not result:
            raise ValueError(f"not an LCS structure: {result.failure}")

    @cached_property
    def gram(self):
        """Skew matrix of omega(e_i, e_j)."""
        return gram_matrix(self.omega)

    @cached_property
    def verdict(self):
        """Symplectic, first kind, or second kind, with its evidence.

        Over the reals the Lee morphism is surjective exactly when it is
        nonzero somewhere on g_omega, so the first/second distinction
        reduces to evaluating theta on an automorphism-algebra basis.
        """
        auto = automorphism_algebra(self.algebra, self.omega)
        lee_values = [self.theta.evaluate(x) for x in auto]
        if self.theta.is_zero():
            kind = Kind.SYMPLECTIC
        elif any(lee_values):
            kind = Kind.FIRST_KIND
        else:
            kind = Kind.SECOND_KIND
        return KindVerdict(kind, auto, lee_values)

    @cached_property
    def primitive(self):
        """A 1-form eta with d(eta) - theta ^ eta = omega, or None if not exact."""
        matrix = differential_matrix(self.algebra, 1, self.theta)
        solution = linalg.solve(matrix, form_to_vector(self.omega))
        return None if solution is None else vector_to_form(self.algebra.dim, 1, solution)


def classify_kind(g, omega, theta):
    """The kind verdict of LCSStructure(g, omega, theta); raises if not LCS.

    Kept for callers of the earlier free-function API, such as the
    benchmark's tracer test; code that holds a structure reads its verdict.
    """
    return LCSStructure(g, omega, theta).verdict


def gram_matrix(omega):
    """Skew n x n matrix of omega(e_i, e_j)."""
    n = omega.dim
    gram = linalg.zeros(n, n)
    for (i, j), c in omega.coeffs.items():
        gram[i - 1][j - 1] = c
        gram[j - 1][i - 1] = -c
    return gram


def _validate_shapes(g, omega, theta):
    if g.dim % 2 != 0:
        raise ValueError("LCS structures need even dimension")
    if omega.dim != g.dim or theta.dim != g.dim:
        raise ValueError("form dimension does not match the algebra")
    if omega.degree != 2:
        raise ValueError(f"omega must be a 2-form, got degree {omega.degree}")
    if theta.degree != 1:
        raise ValueError(f"theta must be a 1-form, got degree {theta.degree}")


def check_lcs(g, omega, theta):
    """Verify dθ = 0, nondegeneracy of omega, and dω = θ ^ ω, in that order."""
    _validate_shapes(g, omega, theta)
    dtheta = ce_differential(g, theta)
    if not dtheta.is_zero():
        return CheckResult(False, "theta is not closed", dtheta)
    gram = gram_matrix(omega)
    if linalg.det(gram) == 0:
        kernel = linalg.nullspace(gram)
        return CheckResult(False, "omega is degenerate", kernel[0])
    residual = ce_differential(g, omega) - wedge(theta, omega)
    if not residual.is_zero():
        return CheckResult(False, "d(omega) != theta ^ omega", residual)
    return CheckResult(True)


def _covector(gram, v):
    """omega(v, .) as a row: the combination of Gram rows weighted by v."""
    row = [Fraction(0)] * len(gram)
    for c, gram_row in zip(v, gram):
        if c:
            row = [r + c * x for r, x in zip(row, gram_row)]
    return row


def automorphism_algebra(g, omega):
    """Exact basis of g_omega = {X : omega([X,Y],Z) + omega(Y,[X,Z]) = 0}.

    With G the Gram matrix of omega, X = sum x_i e_i lies in g_omega
    exactly when ad_X^T G + G ad_X = 0.  The (j, k) entry of
    ad_{e_i}^T G + G ad_{e_i} is omega([e_i,e_j], e_k) - omega([e_i,e_k], e_j),
    read off the brackets and G; the entries with j < k form column i
    of a C(n,2) x n system.  The result is its nullspace, checked to be
    closed under the bracket, as it must be for a subalgebra.
    """
    if omega.dim != g.dim or omega.degree != 2:
        raise ValueError("omega must be a 2-form on the algebra")
    n = g.dim
    if n < 2:
        return [g.basis_vector(i) for i in range(1, n + 1)]
    gram = gram_matrix(omega)
    columns = []
    for i in range(1, n + 1):
        lie = [_covector(gram, g.basis_bracket(i, j)) for j in range(1, n + 1)]
        columns.append([lie[j][k] - lie[k][j] for j, k in combinations(range(n), 2)])
    solutions = linalg.nullspace(linalg.transpose(columns))
    for a, x in enumerate(solutions):
        for y in solutions[a + 1 :]:
            if not linalg.in_span(solutions, g.bracket(x, y)):
                raise RuntimeError("automorphism space is not bracket-closed")
    return solutions


def recover_lee_form(g, omega):
    """Solve d(omega) = theta ^ omega for theta.

    Returns the unique solution when the system is solvable and the
    solution is closed; None when no closed solution exists.  A solution
    space of positive dimension raises, since it signals a degenerate
    omega (the nondegeneracy precondition) or an assembly bug.
    """
    if omega.dim != g.dim or omega.degree != 2:
        raise ValueError("omega must be a 2-form on the algebra")
    if linalg.det(gram_matrix(omega)) == 0:
        raise ValueError("omega is degenerate; the Lee form is not determined")
    n = g.dim
    three_basis = form_basis(n, 3)
    cols = []
    for i in range(1, n + 1):
        ei = KForm(n, 1, {(i,): Fraction(1)})
        cols.append(form_to_vector(wedge(ei, omega), three_basis))
    matrix = linalg.transpose(cols) if three_basis else []
    if not matrix or linalg.nullspace(matrix):
        raise ValueError("theta is not unique; omega does not determine a Lee form")
    rhs = form_to_vector(ce_differential(g, omega), three_basis)
    solution = linalg.solve(matrix, rhs)
    if solution is None:
        return None
    theta = vector_to_form(n, 1, solution)
    if not ce_differential(g, theta).is_zero():
        return None
    return theta
