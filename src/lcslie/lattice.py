"""Lattice certificates for the solvable group family R ltimes_phi R^6.

The one-parameter group phi(t) = exp(t ad) of the almost abelian factor
has spectrum {e^t, e^-t, 1} with multiplicity two.  At the parameter
values t_m = arccosh(m/2), m > 2 an integer, its characteristic
polynomial x^3 - (m+1)x^2 + (m+1)x - 1 (per block) has integer
coefficients, and a Vandermonde conjugation takes phi(t_m) to the
integer block companion matrix D_m.  That conjugation, with its residual
bound, is the lattice certificate; comparing the spectra of the
certificates distinguishes the quotient manifolds pairwise.

This is the only module that uses floating point; the default tolerance
is 1e-9 throughout.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import acosh

import numpy as np
from scipy.linalg import expm

from . import linalg

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class OneParameterAction:
    """exp(t * generator) for a fixed real matrix generator."""

    generator: np.ndarray

    def evaluate(self, t):
        return expm(float(t) * self.generator)


def phi_generator():
    """ad of the expanding direction on R^6, basis (e3, e6, e5, e4, e7, e8)."""
    return np.diag([1.0, -1.0, 0.0, 1.0, -1.0, 0.0])


def psi_generator():
    """ad of the rotating direction on R^7, basis (e1, e3, e6, e5, e4, e7, e8)."""
    gen = np.zeros((7, 7))
    gen[1, 4] = -1.0
    gen[4, 1] = 1.0
    return gen


def phi_action():
    return OneParameterAction(phi_generator())


def psi_action():
    return OneParameterAction(psi_generator())


def t_parameter(m):
    if m <= 2:
        raise ValueError(f"need m > 2 (arccosh({m}/2) is zero or undefined)")
    return acosh(m / 2.0)


def family_char_poly(m):
    """Coefficients (1, -(m+1), m+1, -1) of x^3 - (m+1)x^2 + (m+1)x - 1."""
    if not isinstance(m, int):
        raise ValueError("m must be an integer")
    if m <= 2:
        raise ValueError(f"need m > 2, got {m}")
    return (1, -(m + 1), m + 1, -1)


def companion_matrix(coeffs):
    """Companion matrix of x^d + c[0] x^(d-1) + ... + c[d-1].

    Ones on the subdiagonal; the last column holds the negated
    coefficients, constant term on top.
    """
    coeffs = [int(c) for c in coeffs]
    d = len(coeffs)
    if d == 0:
        raise ValueError("need at least one non-leading coefficient")
    mat = [[0] * d for _ in range(d)]
    for i in range(1, d):
        mat[i][i - 1] = 1
    for i in range(d):
        mat[i][d - 1] = -coeffs[d - 1 - i]
    return mat


def char_poly_exact(mat):
    """Integer characteristic polynomial coefficients, descending powers.

    Faddeev-LeVerrier over Fractions; exact for exact input.
    """
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    coeffs = [Fraction(1)]
    work = [row[:] for row in linalg.zeros(n, n)]
    for k in range(1, n + 1):
        for i in range(n):
            work[i][i] += coeffs[-1]
        work = linalg.mat_mul(m, work)
        coeffs.append(-linalg.trace(work) / k)
    return tuple(int(c) if c.denominator == 1 else c for c in coeffs)


def _vandermonde_block(t_m):
    e = np.exp(t_m)
    return np.array(
        [
            [1.0, e, e * e],
            [1.0, 1.0 / e, 1.0 / (e * e)],
            [1.0, 1.0, 1.0],
        ]
    )


def _block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


@dataclass(frozen=True)
class LatticeCertificate:
    """Witness that phi(t_m) = P_m D_m P_m^-1 with D_m integer."""

    m: int
    t_m: float
    d_m: np.ndarray
    p_m: np.ndarray
    residual: float


def build_certificate(m, tol=DEFAULT_TOL):
    """Assemble and verify the certificate for one family member."""
    t_m = t_parameter(m)
    c_m = np.array(companion_matrix(family_char_poly(m)[1:]), dtype=np.int64)
    d_m = _block_diag(c_m, c_m).astype(np.int64)
    q_m = _vandermonde_block(t_m)
    p_m = _block_diag(q_m, q_m)
    if abs(np.linalg.det(p_m)) < tol:
        raise RuntimeError(f"conjugator for m={m} is numerically singular")
    phi_tm = phi_action().evaluate(t_m)
    reconstructed = p_m @ d_m @ np.linalg.inv(p_m)
    residual = float(np.max(np.abs(phi_tm - reconstructed)))
    if residual >= tol:
        raise RuntimeError(
            f"certificate residual {residual:.3e} exceeds {tol:.1e} for m={m}"
        )
    return LatticeCertificate(m, t_m, d_m, p_m, residual)


def certificate_report(cert):
    """Plain-text report: m, t_m to 15 digits, D_m rows, residual."""
    lines = [f"m = {cert.m}", f"t_m = {cert.t_m:.15g}", "D_m:"]
    for row in cert.d_m:
        lines.append("  " + " ".join(str(int(x)) for x in row))
    lines.append(f"residual = {cert.residual:.3e}")
    return "\n".join(lines)


@dataclass(frozen=True)
class ConjugacyVerdict:
    """Outcome of the integer-conjugacy test.

    candidate=True means the characteristic polynomial is within tol of
    an integer polynomial.  This is necessary for integer conjugacy, not
    sufficient in general; an explicit conjugator with its residual is
    attached when the spectrum is simple.
    """

    candidate: bool
    char_poly: tuple
    conjugator: object = None
    residual: float = None


def check_integer_conjugacy(a, tol=DEFAULT_TOL):
    """Test whether a float matrix can be conjugate to an integer one."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    poly = np.poly(a)
    rounded = np.round(poly)
    if np.max(np.abs(poly - rounded)) > tol:
        return ConjugacyVerdict(False, tuple(poly))
    int_poly = tuple(int(c) for c in rounded)
    nearest = np.round(a)
    if np.max(np.abs(a - nearest)) <= tol:
        return ConjugacyVerdict(
            True, int_poly, np.eye(len(a)), float(np.max(np.abs(a - nearest)))
        )
    eigvals, eigvecs = np.linalg.eig(a)
    distinct = all(
        abs(eigvals[i] - eigvals[j]) > tol
        for i in range(len(eigvals))
        for j in range(i + 1, len(eigvals))
    )
    if not distinct:
        return ConjugacyVerdict(True, int_poly)
    companion = np.array(companion_matrix(int_poly[1:]), dtype=float)
    vander = np.array([[lam**k for k in range(len(a))] for lam in eigvals])
    conjugator = eigvecs @ vander
    reconstructed = conjugator @ companion @ np.linalg.inv(conjugator)
    residual = float(np.max(np.abs(a - reconstructed)))
    return ConjugacyVerdict(True, int_poly, conjugator, residual)


def _spectrum(mat):
    return np.sort_complex(np.linalg.eigvals(np.asarray(mat, dtype=float)))


def _spectra_differ(s1, s2, tol):
    return bool(np.max(np.abs(s1 - s2)) > tol)


def distinguish_solvmanifolds(cert_m, cert_n, tol=DEFAULT_TOL):
    """True iff the quotients of two certificates cannot be homeomorphic.

    The integer models R_m = diag(1, D_m) of the two manifolds would be
    conjugate to each other or to an inverse if the manifolds matched,
    so differing spectra (against both R_n and R_n^-1) separate them.
    For this family the spectra are closed under inversion, and the test
    is true exactly when m != n.
    """
    r_m = _block_diag(np.eye(1), cert_m.d_m.astype(float))
    r_n = _block_diag(np.eye(1), cert_n.d_m.astype(float))
    s_m = _spectrum(r_m)
    s_n = _spectrum(r_n)
    s_n_inv = _spectrum(np.linalg.inv(r_n))
    return _spectra_differ(s_m, s_n, tol) and _spectra_differ(s_m, s_n_inv, tol)
