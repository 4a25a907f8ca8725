"""
Integer conjugacy certificates for a solvmanifold family
========================================================

The one-parameter flow phi(t) = exp(t * ad) of an almost abelian factor
has spectrum {e^t, 1, e^-t}, doubled.  At the special times
t_m = arccosh(m/2) the characteristic polynomial per block becomes
x^3 - (m+1)x^2 + (m+1)x - 1, an integer polynomial, and a Vandermonde
change of basis carries phi(t_m) to an integer companion-block matrix
D_m.  That conjugation is a checkable certificate that the time-t_m map
preserves a lattice; comparing spectra then distinguishes the quotient
manifolds pairwise.
"""

import numpy as np

from lcslie.lattice import (
    build_certificate,
    certificate_report,
    check_integer_conjugacy,
    distinguish_solvmanifolds,
    phi_action,
    t_parameter,
)

# One certificate in full.
cert = build_certificate(3)
print(certificate_report(cert))
print()

# The residual stays far below the 1e-9 tolerance across the family.
for m in range(3, 11):
    c = build_certificate(m)
    print(f"m = {m}: t_m = {c.t_m:.6f}, residual = {c.residual:.2e}")
print()

# At a generic time the characteristic polynomial is not integral, so
# no integer conjugate can exist.
verdict = check_integer_conjugacy(phi_action().evaluate(1.0))
print("generic time t = 1.0 admits an integer model:", verdict.candidate)
verdict = check_integer_conjugacy(phi_action().evaluate(t_parameter(3)))
print("special time t_3 admits an integer model:", verdict.candidate)
print()

# Distinct parameters give distinct spectra (checked against both the
# integer model and its inverse), so the manifolds are pairwise
# non-homeomorphic; equal parameters are never separated.
print("distinguish table for m, n in 3..6 (X = distinct):")
certs = {m: build_certificate(m) for m in range(3, 7)}
for m in range(3, 7):
    row = "".join(
        " X" if distinguish_solvmanifolds(certs[m], certs[n]) else " ." for n in range(3, 7)
    )
    print(f"  m={m}:{row}")

# The integer models have determinant one, as lattice maps must.
print()
print("det D_3 =", round(np.linalg.det(cert.d_m.astype(float))))
