"""Lattice certificates for the solvable group family R ltimes_phi R^6.

The one-parameter group phi(t) = exp(t ad) of the almost abelian factor
is diag(e^t, e^-t, 1) twice over: phi(t) = diag(phi_1(t), phi_1(t)).  At
t_m = arccosh(m/2), m > 2 an integer, lambda = e^{t_m} satisfies
lambda^2 = m lambda - 1, so phi(t_m) has its entries in the ring
Z[lambda], whose elements are pairs a + b lambda.  The rows
(1, mu, mu^2), mu in {lambda, lambda^-1, 1}, are left eigenvectors of
the integer companion matrix C_m of x^3 - (m+1)x^2 + (m+1)x - 1, so the
Vandermonde block Q_m conjugates phi_1(t_m) to C_m:
phi_1(t_m) Q_m = Q_m C_m.  That identity and det Q_m != 0, checked
exactly in Z[lambda], are the lattice certificate.  They are the whole
of it: with P_m = diag(Q_m, Q_m) and D_m = diag(C_m, C_m),
phi(t_m) P_m - P_m D_m = diag(phi_1 Q_m - Q_m C_m, phi_1 Q_m - Q_m C_m)
and det P_m = (det Q_m)^2, which is nonzero iff det Q_m is, since
Z[lambda] is a subring of R and so an integral domain.  An element
a + b lambda is zero iff a = b = 0, because lambda is irrational
(m^2 - 4 is not a square for m > 2).

det Q_m comes from Bareiss's fraction-free elimination, O(n^3) ring
operations where cofactor expansion takes n! terms.  Each update
divides by the previous pivot, and the division is exact: every
intermediate entry is a minor of the input (Sylvester's identity), so
it lies in Z[lambda].  It is computed through the conjugate
lambda -> lambda^-1 = m - lambda: y conj(y) = N(y) = a^2 + m a b + b^2
for y = a + b lambda, an integer that is nonzero for y != 0, so
x / y = x conj(y) / N(y) divides two integers by N(y).

The quotient manifolds are distinguished pairwise by the integer
characteristic polynomials of their integer models and of the models'
inverses, both computed once per certificate.  No floating point enters
a verdict; t_m is reported as a float only.
"""

from functools import cached_property
from math import log, log1p, sqrt

# ad of the expanding direction on one R^3 block, basis (e3, e6, e5); the
# other block, (e4, e7, e8), repeats it.  phi_1(t) = diag(e^(t g) for g in
# PHI_GENERATOR) and phi(t) = diag(phi_1(t), phi_1(t)).
PHI_GENERATOR = (1, -1, 0)

_ZERO = (0, 0)
_ONE = (1, 0)


def _lambda_power(e, m):
    """lambda^e for e in {1, -1, 0}, as a pair; lambda^-1 = m - lambda."""
    return {1: (0, 1), -1: (m, -1), 0: _ONE}[e]


def _mul(x, y, m):
    """(a + b lambda)(c + d lambda), reduced by lambda^2 = m lambda - 1."""
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c + m * b * d)


def _divide_exactly(x, y, m):
    """x / y for a nonzero y that divides x in Z[lambda].

    The conjugate of y = a + b lambda is a + b lambda^-1 = (a + b m) - b lambda,
    and y conj(y) = N(y) = a^2 + m a b + b^2 is an integer, so
    x / y = x conj(y) / N(y).  A remainder means the caller's exactness
    invariant broke.
    """
    if y == _ONE:
        return x
    a, b = y
    norm = a * a + m * a * b + b * b
    u, v = _mul(x, (a + b * m, -b), m)
    qu, ru = divmod(u, norm)
    qv, rv = divmod(v, norm)
    if ru or rv:
        raise RuntimeError(f"inexact division in Z[lambda] for m={m}: {x} / {y}")
    return (qu, qv)


def _times_integer_matrix(p, d):
    """P D for P over Z[lambda] and D over Z, visiting only D's nonzero entries."""
    columns = [[(k, c) for k, c in enumerate(col) if c] for col in zip(*d)]
    return [
        [(sum(row[k][0] * c for k, c in col), sum(row[k][1] * c for k, c in col))
         for col in columns]
        for row in p
    ]


def _det(mat, m):
    """Determinant over Z[lambda] by Bareiss fraction-free elimination.

    Step k takes the first row at or below k with a nonzero entry in
    column k as the pivot row (a swap flips the sign) and sets
    a_ij <- (a_kk a_ij - a_ik a_kj) / p for i, j > k, where p is the
    previous pivot (1 at the first step).  By Sylvester's identity the
    new a_ij is a (k+2)-minor of the input, so the division is exact;
    _divide_exactly performs it through the norm.  The last pivot is
    the determinant up to the sign; a column with no pivot makes it zero.
    """
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, _ONE
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != _ZERO), None)
        if pivot is None:
            return _ZERO
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k, a_kk = a[k], a[k][k]
        for i in range(k + 1, n):
            row_i, a_ik = a[i], a[i][k]
            for j in range(k + 1, n):
                u, v = _mul(a_kk, row_i[j], m)
                s, t = _mul(a_ik, row_k[j], m)
                row_i[j] = _divide_exactly((u - s, v - t), prev, m)
        prev = a_kk
    return prev if sign > 0 else (-prev[0], -prev[1])


def _twice(block, zero):
    """diag(block, block) as a tuple of row tuples."""
    pad = (zero,) * len(block)
    return tuple(tuple(row) + pad for row in block) + tuple(pad + tuple(row) for row in block)


def t_parameter(m):
    """arccosh(m/2), as log(m/2) + log(1 + sqrt(1 - 4/m^2)).

    math.log reads the integer m itself, so t_m stays finite for an m too
    large to convert to a float.
    """
    if m <= 2:
        raise ValueError(f"need m > 2 (arccosh({m}/2) is zero or undefined)")
    return log(m) - log(2) + log1p(sqrt(1 - 4 / m**2))


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
    coeffs = list(coeffs)
    bad = [c for c in coeffs if not isinstance(c, int)]
    if bad:
        raise ValueError(f"companion_matrix needs integer coefficients, got {bad[0]!r}")
    d = len(coeffs)
    if d == 0:
        raise ValueError("need at least one non-leading coefficient")
    mat = [[0] * d for _ in range(d)]
    for i in range(1, d):
        mat[i][i - 1] = 1
    for i in range(d):
        mat[i][d - 1] = -coeffs[d - 1 - i]
    return mat


class LatticeCertificate:
    """Witness that phi(t_m) = P_m D_m P_m^-1 with D_m integer, held as its block.

    c_m is the integer companion matrix C_m, q_m the Vandermonde block Q_m
    of pairs (a, b) standing for a + b lambda; D_m = diag(C_m, C_m) and
    P_m = diag(Q_m, Q_m) are read off them.  Construction verifies
    phi_1(t_m) Q_m = Q_m C_m and det Q_m != 0 exactly in Z[lambda], which
    proves the same of P_m and D_m (see the module docstring), and raises
    RuntimeError when either fails.  The fields cannot be assigned or
    deleted, and certificates compare and hash by (m, c_m, q_m).  The
    class is written out rather than made a dataclass, because importing
    dataclasses (and with it inspect) costs most of this module's import.
    """

    def __init__(self, m, c_m, q_m):
        self.__dict__.update(m=m, c_m=c_m, q_m=q_m)
        lhs = [[_mul(_lambda_power(g, m), x, m) for x in row] for g, row in zip(PHI_GENERATOR, q_m)]
        if lhs != _times_integer_matrix(q_m, c_m):
            raise RuntimeError(f"phi(t_m) P_m != P_m D_m for m={m}")
        if _det(q_m, m) == _ZERO:
            raise RuntimeError(f"conjugator for m={m} is singular")

    def _key(self):
        return self.m, self.c_m, self.q_m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LatticeCertificate(m={self.m!r}, c_m={self.c_m!r}, q_m={self.q_m!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def t_m(self):
        return t_parameter(self.m)

    @cached_property
    def d_m(self):
        """D_m = diag(C_m, C_m)."""
        return _twice(self.c_m, 0)

    @cached_property
    def p_m(self):
        """P_m = diag(Q_m, Q_m)."""
        return _twice(self.q_m, _ZERO)

    @cached_property
    def model_char_poly(self):
        """Characteristic polynomial (x - 1) p_m(x)^2 of R_m = diag(1, D_m)."""
        p = family_char_poly(self.m)
        return tuple(_poly_mul([1, -1], _poly_mul(p, p)))

    @cached_property
    def inverse_char_poly(self):
        """Characteristic polynomial of R_m^-1, or None when it is not integral.

        It is the reversed model polynomial divided by its constant term.
        """
        f = self.model_char_poly
        if any(c % f[-1] for c in f):
            return None
        return tuple(c // f[-1] for c in reversed(f))


def build_certificate(m):
    """Assemble the certificate for one family member; construction verifies it."""
    c_m = tuple(map(tuple, companion_matrix(family_char_poly(m)[1:])))
    q_m = []
    for g in PHI_GENERATOR:
        mu = _lambda_power(g, m)
        q_m.append((_ONE, mu, _mul(mu, mu, m)))
    return LatticeCertificate(m, c_m, tuple(q_m))


def certificate_report(cert):
    """Plain-text report: m, t_m to 15 digits, D_m rows, what was verified."""
    lines = [f"m = {cert.m}", f"t_m = {cert.t_m:.15g}", "D_m:"]
    for row in cert.d_m:
        lines.append("  " + " ".join(str(x) for x in row))
    lines.append("phi(t_m) P_m = P_m D_m and det P_m != 0, verified exactly over Z[lambda]")
    return "\n".join(lines)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def distinguish_solvmanifolds(cert_m, cert_n):
    """True iff the quotients of two certificates cannot be homeomorphic.

    The integer models R_m = diag(1, D_m) of the two manifolds would be
    conjugate to each other or to an inverse if the manifolds matched,
    so a characteristic polynomial that differs from both that of R_n
    and that of R_n^-1 separates them.  For this family the test is true
    exactly when m != n.  Both polynomials are read off the certificate,
    which computes each once.
    """
    f_m = cert_m.model_char_poly
    return f_m != cert_n.model_char_poly and f_m != cert_n.inverse_char_poly
