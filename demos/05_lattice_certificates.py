"""
Integer conjugacy certificates for a solvmanifold family
========================================================

The one-parameter flow phi(t) = exp(t * ad) of an almost abelian factor
is diag(e^t, e^-t, 1), doubled.  At the special times t_m = arccosh(m/2)
the number lambda = e^{t_m} satisfies lambda^2 = m lambda - 1, the
characteristic polynomial per block becomes x^3 - (m+1)x^2 + (m+1)x - 1,
an integer polynomial, and a Vandermonde change of basis carries phi(t_m)
to an integer companion-block matrix D_m.  The certificate is the
identity phi(t_m) P_m = P_m D_m, checked exactly on pairs a + b lambda;
it shows that the time-t_m map preserves a lattice.  Comparing integer
characteristic polynomials then distinguishes the quotient manifolds
pairwise.
"""

import math

from lcslie.lattice import build_certificate, certificate_report, distinguish_solvmanifolds
from lcslie.linalg import char_poly_exact

# One certificate in full.
cert = build_certificate(3)
print(certificate_report(cert))
print()

# Every certificate is verified exactly when it is built, so large m is
# as sound as small m.
for m in list(range(3, 11)) + [1325, 100000]:
    c = build_certificate(m)
    print(f"m = {m}: t_m = {c.t_m:.6f}, D_m companion column {[row[2] for row in c.d_m[:3]]}")
print()

# phi(t) has the per-block characteristic polynomial
# (x - 1)(x^2 - 2cosh(t) x + 1), integral only when 2cosh(t) is an
# integer: at a generic time no integer conjugate can exist.
for label, t in (("generic time t = 1.0", 1.0), ("special time t_3", cert.t_m)):
    trace = 2 * math.cosh(t)
    print(f"{label}: 2cosh(t) = {trace:.12f}, integral: {math.isclose(trace, round(trace))}")
print()

# Distinct parameters give distinct characteristic polynomials (checked
# against both the integer model and its inverse), so the manifolds are
# pairwise non-homeomorphic; equal parameters are never separated.
print("distinguish table for m, n in 3..6 (X = distinct):")
certs = {m: build_certificate(m) for m in range(3, 7)}
for m in range(3, 7):
    row = "".join(
        " X" if distinguish_solvmanifolds(certs[m], certs[n]) else " ." for n in range(3, 7)
    )
    print(f"  m={m}:{row}")

# The integer models have determinant one, as lattice maps must: det D is
# (-1)^n times the constant term of its characteristic polynomial.
print()
print("det D_3 =", (-1) ** len(cert.d_m) * char_poly_exact(cert.d_m)[-1])
