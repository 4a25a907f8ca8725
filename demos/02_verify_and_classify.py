"""
Verifying and classifying twisted symplectic pairs
==================================================

A locally conformal symplectic (LCS) structure on a Lie algebra is a
nondegenerate two-form omega together with a closed one-form theta (the
Lee form) satisfying d(omega) = theta ^ omega.  The pair is "of the
first kind" when theta is nonzero on the infinitesimal automorphisms of
omega, "of the second kind" otherwise, and plain symplectic when theta
vanishes.
"""

from lcslie.corpus import default_corpus_path, load_corpus
from lcslie.lcs import LCSStructure, check_lcs, recover_lee_form

entries = {e.name: e for e in load_corpus(default_corpus_path())}

# A solvable example of the second kind.
entry = entries["rr3-1"]
g = entry.algebra()
omega, theta = entry.omega_form(), entry.theta_form()

# Constructing the structure verifies the pair, once; everything derived
# from it afterwards (kind, primitive) is computed on demand and cached.
structure = LCSStructure(g, omega, theta)
verdict = structure.verdict
print("kind:", verdict.kind)
print("automorphism algebra dimension:", len(verdict.automorphism_basis))

# The Lee form is determined by omega: solving d(omega) = theta ^ omega
# recovers it without being told.
print("recovered Lee form equals the recorded one:",
      recover_lee_form(g, omega) == theta)

# A nilpotent example is of the first kind, and its structure is exact:
# omega = d(eta) - theta ^ eta for an explicit one-form eta.
heis = entries["heis4"]
nilpotent = LCSStructure(heis.algebra(), heis.omega_form(), heis.theta_form())
print("nilpotent example kind:", nilpotent.verdict.kind)
print("primitive eta coefficients:", dict(nilpotent.primitive.coeffs))

# Verification failures come with a reason and a witness; constructing a
# structure from such a pair raises.
bad = check_lcs(g, omega, heis.theta_form())
print("deliberately wrong Lee form:", bad.failure)
try:
    LCSStructure(g, omega, heis.theta_form())
except ValueError as exc:
    print("refused:", exc)
