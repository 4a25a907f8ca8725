"""Semidirect-product construction of LCS algebras of the second kind.

Given an LCS algebra (h, omega, theta) and a representation pi of h on
a symplectic vector space (V, omega_0), the product h ltimes_pi V
carries the block form (omega on h, omega_0 on V, blocks orthogonal)
with the Lee form extended by zero.  That pair is an LCS structure
exactly when every pi(X) has omega_0-symmetric part -theta(X)/2 times
the identity; the skew parts then form a representation into
sp(V, omega_0), and the resulting structure is always of the second
kind and never exact.

The converse direction splits an LCS algebra along a nondegenerate
abelian ideal contained in ker(theta): its omega-orthogonal complement
is a subalgebra acting on the ideal, and rebuilding the product returns
the original algebra.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .algebra import LieAlgebra, change_basis
from .exterior import KForm, adjoint, check_jacobi, is_unimodular, one_form, pullback
from .lcs import CheckResult, Kind, LCSStructure


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
        if linalg.det(gram) == 0:
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
    """Matrices pi(e_i) on V, one per basis vector of the acting algebra."""

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
        for i, j in combinations(range(1, self.acting.dim + 1), 2):
            lhs = self.matrix_for(self.acting.basis_bracket(i, j))
            rhs = linalg.mat_sub(
                linalg.mat_mul(mats[i - 1], mats[j - 1]),
                linalg.mat_mul(mats[j - 1], mats[i - 1]),
            )
            if lhs != rhs:
                raise ValueError(
                    f"not a representation: pi([e{i},e{j}]) != [pi(e{i}), pi(e{j})]"
                )

    def matrix_for(self, x):
        """pi(x) for a coordinate vector x of the acting algebra."""
        out = linalg.zeros(self.space.dim, self.space.dim)
        for c, m in zip(x, self.mats):
            if c:
                out = linalg.mat_add(out, linalg.mat_scale(c, m))
        return out


@dataclass(frozen=True)
class ExtensionResult:
    algebra: LieAlgebra
    structure: LCSStructure
    unimodular: bool


def symmetric_skew_split(space, a):
    """Unique split A = S + R with S omega_0-symmetric, R in sp(V, omega_0).

    S = (A + Omega^-1 A^T Omega) / 2 and R = (A - Omega^-1 A^T Omega) / 2.
    """
    d = space.dim
    if len(a) != d or any(len(row) != d for row in a):
        raise ValueError("matrix dimension does not match the space")
    omega_inv = linalg.inv(space.gram)
    conj = linalg.mat_mul(omega_inv, linalg.mat_mul(linalg.transpose(a), space.gram))
    half = Fraction(1, 2)
    s = linalg.mat_scale(half, linalg.mat_add(a, conj))
    r = linalg.mat_scale(half, linalg.mat_sub(a, conj))
    return s, r


def is_lcs_representation(rep, theta):
    """Check S(e_i) = -theta(e_i)/2 * Id for every basis vector.

    Returns a CheckResult whose witness, on failure, is the offending
    basis index with its symmetric part.  On success the skew parts are
    verified to form a representation into sp(V, omega_0).
    """
    if theta.dim != rep.acting.dim or theta.degree != 1:
        raise ValueError("theta must be a 1-form on the acting algebra")
    d = rep.space.dim
    skews = []
    for i in range(1, rep.acting.dim + 1):
        s, r = symmetric_skew_split(rep.space, rep.mats[i - 1])
        expected = linalg.mat_scale(
            Fraction(-1, 2) * theta.coefficient((i,)), linalg.identity(d)
        )
        if s != expected:
            return CheckResult(
                False,
                f"symmetric part of pi(e{i}) is not -theta(e{i})/2 * Id",
                (i, s),
            )
        skews.append(r)
    for i, j in combinations(range(1, rep.acting.dim + 1), 2):
        bracket_mat = linalg.zeros(d, d)
        for c, r in zip(rep.acting.basis_bracket(i, j), skews):
            if c:
                bracket_mat = linalg.mat_add(bracket_mat, linalg.mat_scale(c, r))
        commutator = linalg.mat_sub(
            linalg.mat_mul(skews[i - 1], skews[j - 1]),
            linalg.mat_mul(skews[j - 1], skews[i - 1]),
        )
        if bracket_mat != commutator:
            return CheckResult(
                False, f"skew parts fail rho([e{i},e{j}]) = [rho(e{i}), rho(e{j})]", (i, j)
            )
    return CheckResult(True)


def _block_form(h_dim, total, omega, space):
    """omega on the h block, the space Gram on the V block, cross block 0."""
    coeffs = dict(omega.coeffs)
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            c = space.gram[a][b]
            if c:
                coeffs[(h_dim + a + 1, h_dim + b + 1)] = c
    return KForm(total, 2, coeffs)


def extend(structure, rep):
    """Build h ltimes_pi V with the block LCS structure on it.

    The basis of the result is the h basis followed by the V basis.
    Raises on any precondition failure; the returned structure is
    verified as LCS and, for theta != 0, checked to be of the second kind
    and non-exact.
    """
    h, omega, theta = structure.algebra, structure.omega, structure.theta
    if rep.acting != h:
        raise PreconditionError("representation does not act on the given algebra")
    rep_check = is_lcs_representation(rep, theta)
    if not rep_check:
        raise PreconditionError(rep_check.failure, rep_check.witness)

    hd, vd = h.dim, rep.space.dim
    total = hd + vd
    brackets = {}
    for (i, j), c in h.brackets.items():
        brackets[(i, j)] = list(c) + [Fraction(0)] * vd
    for i in range(1, hd + 1):
        mat = rep.mats[i - 1]
        for a in range(vd):
            column = [mat[r][a] for r in range(vd)]
            if any(column):
                brackets[(i, hd + a + 1)] = [Fraction(0)] * hd + column
    g = LieAlgebra(total, brackets)
    ok, witness = check_jacobi(g)
    if not ok:
        raise RuntimeError(f"extension violates Jacobi on {witness}")

    omega_ext = _block_form(hd, total, omega, rep.space)
    theta_ext = one_form(total, [theta.coefficient((i,)) for i in range(1, hd + 1)] + [0] * vd)
    extended = LCSStructure(g, omega_ext, theta_ext)
    if not theta.is_zero():
        if extended.verdict.kind is not Kind.SECOND_KIND:
            raise RuntimeError("extension failed to be of the second kind")
        if extended.primitive is not None:
            raise RuntimeError("extension is exact, contradicting the construction")
    return ExtensionResult(g, extended, is_unimodular(g))


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
    for i in range(1, h.dim + 1):
        t = linalg.trace(adjoint(h, h.basis_vector(i)))
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


def _omega_on(structure, left, right):
    """Matrix of omega(l, r) for l in left and r in right, from the Gram matrix."""
    images = [linalg.mat_vec(structure.gram, r) for r in right]
    return [[sum((x * y for x, y in zip(l, image)), Fraction(0)) for image in images] for l in left]


def _span_matrix(vectors):
    return linalg.transpose(vectors)


def _coordinates_in(vectors, x):
    coords = linalg.solve(_span_matrix(vectors), x)
    if coords is None:
        raise PreconditionError("vector leaves the subspace", x)
    return coords


def check_decompose_preconditions(structure, u_basis):
    """Raise PreconditionError naming the first failed requirement on u."""
    g, theta = structure.algebra, structure.theta
    if not u_basis:
        raise PreconditionError("empty ideal basis")
    if linalg.rank(u_basis) != len(u_basis):
        raise PreconditionError("ideal basis is linearly dependent")
    for i in range(1, g.dim + 1):
        ei = g.basis_vector(i)
        for u in u_basis:
            if linalg.solve(_span_matrix(u_basis), g.bracket(ei, u)) is None:
                raise PreconditionError("not an ideal", (i, u))
    for a in range(len(u_basis)):
        for b in range(a + 1, len(u_basis)):
            if any(g.bracket(u_basis[a], u_basis[b])):
                raise PreconditionError("ideal is not abelian", (a + 1, b + 1))
    restricted = _omega_on(structure, u_basis, u_basis)
    if linalg.det(restricted) == 0:
        kernel = linalg.nullspace(restricted)
        raise PreconditionError("omega degenerates on the ideal", kernel[0])
    for u in u_basis:
        if theta.evaluate(u) != 0:
            raise PreconditionError("ideal is not contained in ker(theta)", u)


def decompose(structure, u_basis):
    """Split g along a nondegenerate abelian ideal u contained in ker(theta).

    Returns (base, rep): base is the LCS structure induced on the
    omega-orthogonal complement h of u, and rep is the adjoint action of
    h on u.  Rebuilding with extend reproduces g in the basis (complement
    basis, then u basis); the round trip is verified here against the
    change-of-basis image of the original structure.
    """
    g, omega, theta = structure.algebra, structure.omega, structure.theta
    u_basis = [[Fraction(x) for x in u] for u in u_basis]
    check_decompose_preconditions(structure, u_basis)

    perp = linalg.nullspace([linalg.mat_vec(structure.gram, u) for u in u_basis])
    if len(perp) + len(u_basis) != g.dim:
        raise RuntimeError("orthogonal complement has the wrong dimension")
    for x in perp:
        for y in perp:
            if linalg.solve(_span_matrix(perp), g.bracket(x, y)) is None:
                raise RuntimeError("orthogonal complement is not a subalgebra")

    hd = len(perp)
    h_brackets = {}
    for i in range(1, hd + 1):
        for j in range(i + 1, hd + 1):
            coords = _coordinates_in(perp, g.bracket(perp[i - 1], perp[j - 1]))
            h_brackets[(i, j)] = coords
    h = LieAlgebra(hd, h_brackets)

    omega_perp = _omega_on(structure, perp, perp)
    omega_h = KForm(
        hd, 2, {(i, j): omega_perp[i - 1][j - 1] for i, j in combinations(range(1, hd + 1), 2)}
    )
    theta_h = one_form(hd, [theta.evaluate(x) for x in perp])
    base = LCSStructure(h, omega_h, theta_h)

    space = SymplecticSpace(len(u_basis), _omega_on(structure, u_basis, u_basis))
    mats = []
    for x in perp:
        cols = [_coordinates_in(u_basis, g.bracket(x, u)) for u in u_basis]
        mats.append(linalg.transpose(cols))
    rep = Representation(h, space, mats)

    if structure.verdict.kind is not Kind.SECOND_KIND:
        raise RuntimeError("decomposable structure failed to be of the second kind")

    rebuilt = extend(base, rep)
    basis_cols = _span_matrix(perp + u_basis)
    if change_basis(g, basis_cols) != rebuilt.algebra:
        raise RuntimeError("round trip does not reproduce the algebra")
    if pullback(omega, basis_cols) != rebuilt.structure.omega:
        raise RuntimeError("round trip does not reproduce omega")
    if pullback(theta, basis_cols) != rebuilt.structure.theta:
        raise RuntimeError("round trip does not reproduce theta")
    return base, rep


def find_nondegenerate_abelian_ideal(structure, extra_candidates=()):
    """First coordinate subspace (or supplied candidate) usable by decompose.

    Searches the even-dimensional coordinate subspaces in order of
    dimension, then the extra candidates.  Returns the basis or None;
    None means the search failed, not that no such ideal exists.
    """
    g = structure.algebra
    if structure.theta.is_zero():
        raise ValueError("theta = 0: the structure is symplectic, not twisted")
    candidates = []
    for size in range(2, g.dim + 1, 2):
        for indices in combinations(range(1, g.dim + 1), size):
            candidates.append([g.basis_vector(i) for i in indices])
    candidates.extend([[Fraction(x) for x in u] for u in cand] for cand in extra_candidates)
    for cand in candidates:
        try:
            check_decompose_preconditions(structure, cand)
        except PreconditionError:
            continue
        return cand
    return None
