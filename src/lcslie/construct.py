"""Semidirect-product construction of LCS algebras of the second kind.

Given an LCS algebra (h, omega, theta) and a representation pi of h on
a symplectic space (V, omega_0), the product h ltimes_pi V with the
block form (omega, omega_0, blocks orthogonal) and theta extended by
zero is LCS exactly when pi(X)^T Omega_0 + Omega_0 pi(X) = -theta(X)
Omega_0 for every X: the omega_0-symmetric part of pi(X) is
-theta(X)/2 times the identity.  _product assembles it without checks;
extend verifies it and returns its LCSStructure, which is always of
the second kind and never exact.  The law pi([X, Y]) = [pi(X), pi(Y)]
is checked there once, as the Jacobi identity of the product: with V
abelian, that identity holds exactly when h satisfies it and pi is a
representation.

The converse direction splits an LCS algebra along a nondegenerate
abelian ideal u contained in ker(theta).  Whether basis indices span an
abelian ideal is read off a bracket table by _block_failure: g's own
table for the coordinate candidates of find_nondegenerate_abelian_ideal,
and in decompose the table of the adapted basis (the omega-orthogonal
complement h of u, then u), written once; h, omega_0 and the action of h
on u are its blocks.  The product assembled from those pieces must equal
the adapted-basis data, which is the given, verified structure in
another basis, so decompose compares the two as data.  By the "exactly
when" above and the Jacobi identity of g, that comparison also shows
that the action is an LCS representation.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .algebra import LieAlgebra, change_basis
from .exterior import KForm, check_jacobi, form_to_vector, interior, one_form
from .lcs import CheckResult, Kind, LCSStructure, lee_value


class PreconditionError(ValueError):
    """A named precondition failure with a witness."""

    def __init__(self, reason, witness=None):
        super().__init__(reason if witness is None else f"{reason}: {witness}")
        self.reason = reason
        self.witness = witness


@dataclass(frozen=True)
class SymplecticSpace:
    """An even-dimensional space with a nondegenerate skew Gram matrix."""

    dim: int
    gram: list

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim <= 0:
            raise ValueError("symplectic spaces have positive even dimension")
        gram = [[Fraction(x) for x in row] for row in self.gram]
        if len(gram) != self.dim or any(len(row) != self.dim for row in gram):
            raise ValueError("Gram matrix shape does not match dimension")
        for i in range(self.dim):
            for j in range(self.dim):
                if gram[i][j] != -gram[j][i]:
                    raise ValueError("Gram matrix is not skew")
        if linalg.nullspace(gram):
            raise ValueError("Gram matrix is degenerate")
        object.__setattr__(self, "gram", gram)


def standard_symplectic(dim):
    """Gram of e^{12} + e^{34} + ... on consecutive index pairs."""
    gram = linalg.zeros(dim, dim)
    for a in range(0, dim, 2):
        gram[a][a + 1] = Fraction(1)
        gram[a + 1][a] = Fraction(-1)
    return SymplecticSpace(dim, gram)


@dataclass(frozen=True)
class Representation:
    """Matrices pi(e_i) on V, one per basis vector of the acting algebra.

    Only the shapes are checked here; extend checks the representation law.
    """

    acting: LieAlgebra
    space: SymplecticSpace
    mats: list

    def __post_init__(self):
        mats = [[[Fraction(x) for x in row] for row in m] for m in self.mats]
        if len(mats) != self.acting.dim:
            raise ValueError("need one matrix per basis vector of the acting algebra")
        d = self.space.dim
        if any(len(m) != d or any(len(row) != d for row in m) for m in mats):
            raise ValueError("representation matrices must match the space dimension")
        object.__setattr__(self, "mats", mats)


def is_lcs_representation(rep, theta):
    """Check pi(e_i)^T Omega_0 + Omega_0 pi(e_i) = -theta(e_i) Omega_0 for every e_i.

    Multiplied by Omega_0^-1 / 2, the identity says that the
    omega_0-symmetric part (A + Omega_0^-1 A^T Omega_0) / 2 of A = pi(e_i)
    is -theta(e_i)/2 * Id.  Returns a CheckResult whose witness, on
    failure, is the offending basis index with the residual
    A^T Omega_0 + Omega_0 A + theta(e_i) Omega_0.  For closed theta, as
    every Lee form is, nothing else can fail: the skew parts
    R_i = pi(e_i) + theta(e_i)/2 * Id satisfy [R_i, R_j] = [pi(e_i), pi(e_j)]
    = pi([e_i, e_j]), which is R([e_i, e_j]) because theta([e_i, e_j]) = 0,
    so they form a representation into sp(V, omega_0).
    """
    if theta.dim != rep.acting.dim or theta.degree != 1:
        raise ValueError("theta must be a 1-form on the acting algebra")
    gram = rep.space.gram
    d = rep.space.dim
    for i, a in enumerate(rep.mats, start=1):
        t = theta.coefficient((i,))
        m = linalg.mat_mul(gram, a)  # A^T Omega_0 = -(Omega_0 A)^T, as Omega_0 is skew
        residual = [[m[p][q] - m[q][p] + t * gram[p][q] for q in range(d)] for p in range(d)]
        if any(any(row) for row in residual):
            return CheckResult(
                False, f"symmetric part of pi(e{i}) is not -theta(e{i})/2 * Id", (i, residual)
            )
    return CheckResult(True)


def _product(structure, rep):
    """(algebra, omega, theta) of h ltimes_pi V, assembled without any check.

    The basis is the h basis followed by the V basis.  [e_i, v_a] is
    column a of pi(e_i); omega is omega on the h block, the space Gram on
    the V block and 0 across; theta is extended by zero on V.
    """
    h, omega, theta = structure.algebra, structure.omega, structure.theta
    hd, vd = h.dim, rep.space.dim
    total = hd + vd
    brackets = dict(h.brackets)
    for i, mat in enumerate(rep.mats, start=1):
        for a in range(vd):
            brackets[(i, hd + a + 1)] = {hd + r + 1: mat[r][a] for r in range(vd) if mat[r][a]}
    coeffs = dict(omega.coeffs)
    for a, b in combinations(range(vd), 2):
        coeffs[(hd + a + 1, hd + b + 1)] = rep.space.gram[a][b]
    theta_ext = one_form(total, [theta.coefficient((i,)) for i in range(1, hd + 1)] + [0] * vd)
    return LieAlgebra(total, brackets), KForm(total, 2, coeffs), theta_ext


def extend(structure, rep):
    """The block LCS structure on h ltimes_pi V, as an LCSStructure.

    The basis of the algebra is the h basis followed by the V basis.
    Raises PreconditionError when rep acts on another algebra, fails the
    LCS identity (is_lcs_representation) or is not a representation;
    the returned structure is verified as LCS and, for theta != 0,
    checked to be of the second kind and non-exact.

    The representation law is read off check_jacobi on the product.  V
    is abelian and every [e_i, v_a] lies in V, so the Jacobi sum of a
    triple with two or three vectors in V is 0, and that of (e_i, e_j,
    v_a) is (pi([e_i, e_j]) - [pi(e_i), pi(e_j)]) v_a.  A witness
    (i, j, k), i < j < k, with k > dim h therefore names a pair on which
    pi is not a homomorphism; one with k <= dim h is a failure of h
    itself.
    """
    h, theta = structure.algebra, structure.theta
    if rep.acting != h:
        raise PreconditionError("representation does not act on the given algebra")
    rep_check = is_lcs_representation(rep, theta)
    if not rep_check:
        raise PreconditionError(rep_check.failure, rep_check.witness)

    g, omega_ext, theta_ext = _product(structure, rep)
    ok, witness = check_jacobi(g)
    if not ok:
        i, j, k = witness
        if k > h.dim:
            raise PreconditionError(
                f"not a representation: pi([e{i},e{j}]) != [pi(e{i}), pi(e{j})]", witness
            )
        raise PreconditionError("acting algebra violates Jacobi", witness)
    extended = LCSStructure(g, omega_ext, theta_ext)
    if not theta.is_zero():
        if extended.verdict.kind is not Kind.SECOND_KIND:
            raise RuntimeError("extension failed to be of the second kind")
        if extended.primitive is not None:
            raise RuntimeError("extension is exact, contradicting the construction")
    return extended


def unimodular_extension_dim(h, theta):
    """The rational n with trace(ad_{e_i}) = n * theta(e_i) for all i.

    Returns None when no single n works.  Integrality and positivity are
    the caller's policy: the extension by any LCS representation on a
    2n-dimensional space is unimodular exactly for this n, which is only
    realizable when n is a positive integer.  A unimodular h gives n = 0.
    """
    if theta.is_zero():
        raise ValueError("theta = 0 never extends to a twisted unimodular product")
    n_value = None
    for i, t in enumerate(h.ad_traces(), start=1):
        c = theta.coefficient((i,))
        if c == 0:
            if t != 0:
                return None
        else:
            candidate = t / c
            if n_value is None:
                n_value = candidate
            elif n_value != candidate:
                return None
    return n_value


def _block_failure(brackets, block):
    """None if the basis indices in block span an abelian ideal, else (reason, failing key (i, j)).

    On a LieAlgebra.brackets table: the span is an ideal when every stored
    bracket that touches block has its terms in block, and abelian when
    no stored bracket has both indices in block.
    """
    for (i, j), terms in brackets.items():
        if (i in block or j in block) and not block.issuperset(terms):
            return "not an ideal", (i, j)
    for i, j in brackets:
        if i in block and j in block:
            return "ideal is not abelian", (i, j)
    return None


def decompose(structure, u_basis):
    """Split g along a nondegenerate abelian ideal u contained in ker(theta).

    Returns (base, rep): the LCS structure on the omega-orthogonal
    complement h of u and the adjoint action of h on u.  PreconditionError
    names the first failure: u empty, of the wrong length, dependent,
    omega-degenerate, not an ideal, not abelian, not in ker(theta); then
    only a non-exact structure of the second kind splits.  h is the kernel
    of the covectors i_u omega.  g, omega and theta are written once in the
    adapted basis x_1, ..., x_n (h basis, then u): omega as
    (i_{x_i} omega)(x_j) for every pair, theta as theta(x_j), and the ideal
    tests read the u block of the bracket table.  The brackets of h are the
    h block with the terms on u dropped, all zero: for x, y in h and v in
    u, d(omega) = theta ^ omega at (x, y, v) gives omega([x, y], v) = 0, as
    u is an ideal in ker(theta).  omega_0 is the u block of omega and pi(x)
    the brackets of x with u.  The product assembled from base and rep
    must equal the adapted data, the given, verified structure in another
    basis.  That comparison is the only check of pi and of the
    omega-orthogonality of h and u: the product is then LCS and satisfies
    Jacobi, so pi is an LCS representation.
    """
    g, n, vd = structure.algebra, structure.algebra.dim, len(u_basis)
    u_basis = [[Fraction(x) for x in u] for u in u_basis]
    if not u_basis:
        raise PreconditionError("empty ideal basis")
    if any(len(u) != n for u in u_basis):
        raise PreconditionError("ideal vectors must have length dim", n)
    if len(linalg.rref(u_basis)) != vd:
        raise PreconditionError("ideal basis is linearly dependent")
    u_covectors = [interior(u, structure.omega) for u in u_basis]
    gram_u = [[lee_value(c, v) for v in u_basis] for c in u_covectors]
    kernel = linalg.nullspace(gram_u)
    if kernel:
        raise PreconditionError("omega degenerates on the ideal", kernel[0])

    # omega is nondegenerate and u independent, so the kernel has dimension n - |u|
    perp = linalg.nullspace([form_to_vector(c) for c in u_covectors])
    hd, vectors = len(perp), perp + u_basis
    adapted = change_basis(g, linalg.transpose(vectors))
    failure = _block_failure(adapted.brackets, set(range(hd + 1, n + 1)))
    if failure:
        reason, (i, j) = failure  # j > hd: the pair (x, u), or positions in u if abelian fails
        raise PreconditionError(reason, (vectors[i - 1], vectors[j - 1]) if reason == "not an ideal"
                                else (i - hd, j - hd))
    theta_values = [lee_value(structure.theta, x) for x in vectors]
    for u, t in zip(u_basis, theta_values[hd:]):
        if t:
            raise PreconditionError("ideal is not contained in ker(theta)", u)
    if structure.verdict.kind is not Kind.SECOND_KIND:
        raise RuntimeError("decomposable structure failed to be of the second kind")
    if structure.primitive is not None:
        raise RuntimeError("decomposable structure is exact")

    covectors = [interior(x, structure.omega) for x in perp] + u_covectors
    omega = KForm(n, 2, {(i + 1, j + 1): lee_value(covectors[i], vectors[j])
                         for i, j in combinations(range(n), 2)})
    theta = one_form(n, theta_values)
    h = LieAlgebra(hd, {(i, j): {k: c for k, c in terms.items() if k <= hd}
                        for (i, j), terms in adapted.brackets.items() if j <= hd})
    omega_h = KForm(hd, 2, {key: c for key, c in omega.coeffs.items() if key[1] <= hd})
    base = LCSStructure(h, omega_h, one_form(hd, theta_values[:hd]))

    space = SymplecticSpace(vd, gram_u)
    mats = [linalg.transpose([adapted.basis_bracket(i, hd + a)[hd:] for a in range(1, vd + 1)])
            for i in range(1, hd + 1)]
    rep = Representation(h, space, mats)
    if _product(base, rep) != (adapted, omega, theta):
        raise RuntimeError("round trip does not reproduce g, omega and theta in the adapted basis")
    return base, rep


def find_nondegenerate_abelian_ideal(structure):
    """First coordinate subspace usable by decompose.

    Searches the even-dimensional coordinate subspaces in order of
    dimension, then of their index tuples.  Only the coordinates e_i
    with theta(e_i) = 0 enter, since any other fails the ker(theta)
    test; the rest read the bracket table and the Gram minor.  Returns
    the basis or None; None means no coordinate subspace qualifies, not
    that no such ideal exists.
    """
    g, theta, gram = structure.algebra, structure.theta, structure.gram
    if theta.is_zero():
        raise ValueError("theta = 0: the structure is symplectic, not twisted")
    free = [i for i in range(1, g.dim + 1) if not theta.coefficient((i,))]
    for size in range(2, len(free) + 1, 2):
        for indices in combinations(free, size):
            if _block_failure(g.brackets, set(indices)) is None and not linalg.nullspace(
                [[gram[i - 1][j - 1] for j in indices] for i in indices]
            ):
                return [g.basis_vector(i) for i in indices]
    return None
