"""Verification and classification of LCS structures.

An LCS structure is a nondegenerate 2-form omega with a closed 1-form
theta satisfying d(omega) = theta ^ omega.  theta restricted to the
subalgebra of infinitesimal automorphisms of omega is a morphism to the
reals, so it is either surjective (first kind) or identically zero
(second kind); omega is symplectic exactly when theta = 0.  In
dimension 2m >= 4, omega determines theta.  In dimension 2 every 3-form
is zero, so every closed theta fits: there recover_lee_form raises.

Everything here is exact; there are no tolerances.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction

from . import linalg
from .exterior import (
    KForm,
    ce_differential,
    differential_matrix,
    differential_scale,
    form_basis,
    form_to_vector,
    interior,
    vector_to_form,
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
        lee_values = [lee_value(self.theta, x) for x in auto]
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
        solution = linalg.sparse_solve(matrix, self.algebra.dim, form_to_vector(self.omega))
        if solution is None:
            return None
        scale = differential_scale(self.algebra, self.theta)  # matrix = L d_theta
        return vector_to_form(self.algebra.dim, 1, [scale * x for x in solution])


def classify_kind(g, omega, theta):
    """The kind verdict of LCSStructure(g, omega, theta); raises if not LCS.

    Kept for callers of the earlier free-function API, such as the
    benchmark's tracer test; code that holds a structure reads its verdict.
    """
    return LCSStructure(g, omega, theta).verdict


def lee_value(theta, x):
    """theta(x) for a coordinate vector x: the dot product with theta's coefficients."""
    return sum((c * x[i - 1] for (i,), c in theta.coeffs.items()), Fraction(0))


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
    kernel = linalg.nullspace(gram_matrix(omega))
    if kernel:
        return CheckResult(False, "omega is degenerate", kernel[0])
    residual = ce_differential(g, omega, theta)
    if not residual.is_zero():
        return CheckResult(False, "d(omega) != theta ^ omega", residual)
    return CheckResult(True)


def automorphism_algebra(g, omega):
    """Exact basis of g_omega = {X : L_X omega = 0}.

    (L_X omega)(Y, Z) = -omega([X,Y],Z) - omega(Y,[X,Z]), and by Cartan's
    formula L_X omega = i_X d(omega) + d(i_X omega), with d(omega) taken
    once; the coefficients of L_{e_i} omega form column i of a C(n,2) x n
    system.  The result is its nullspace, checked to be closed under the
    bracket, as it must be for a subalgebra.
    """
    if omega.dim != g.dim or omega.degree != 2:
        raise ValueError("omega must be a 2-form on the algebra")
    n = g.dim
    if n < 2:
        return [g.basis_vector(i) for i in range(1, n + 1)]
    domega = ce_differential(g, omega)
    basis = [g.basis_vector(i) for i in range(1, n + 1)]
    lie = [interior(e, domega) + ce_differential(g, interior(e, omega)) for e in basis]
    solutions = linalg.nullspace([[x.coefficient(key) for x in lie] for key in form_basis(n, 2)])
    brackets = [g.bracket(x, y) for a, x in enumerate(solutions) for y in solutions[a + 1 :]]
    if len(linalg.rref(solutions + brackets)) != len(solutions):
        raise RuntimeError("automorphism space is not bracket-closed")
    return solutions


def recover_lee_form(g, omega):
    """theta with d(omega) = theta ^ omega, or None when no closed theta fits.

    Raises when omega is degenerate (its Gram matrix G has no inverse) and
    in dimension 2m < 4, as the module says.  beta = theta ^ omega has
    sum_i i_{h_i} i_{e_i} beta = (2 - 2m) theta, h_i the rows of G^-1, so
    theta is read off d(omega); it is returned if closed and d_theta(omega) = 0.
    """
    if omega.dim != g.dim or omega.degree != 2:
        raise ValueError("omega must be a 2-form on the algebra")
    inverse = linalg.inverse(gram_matrix(omega))
    if inverse is None:
        raise ValueError("omega is degenerate; the Lee form is not determined")
    n = g.dim
    if n < 4:
        raise ValueError("theta is not unique; omega does not determine a Lee form")
    domega = ce_differential(g, omega)
    terms = (interior(h, interior(g.basis_vector(i), domega)) for i, h in enumerate(inverse, 1))
    theta = Fraction(1, 2 - n) * sum(terms, KForm(n, 1))
    if not ce_differential(g, theta).is_zero() or not ce_differential(g, omega, theta).is_zero():
        return None
    return theta
