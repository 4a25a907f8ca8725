"""
Building larger algebras and splitting them again
=================================================

An LCS algebra h acts on a symplectic vector space (V, omega_0) through
a representation pi whenever each pi(X) has omega_0-symmetric part
-theta(X)/2 times the identity.  The semidirect product h x V then
carries the block structure (omega on h, omega_0 on V), which is always
of the second kind and never exact.  The converse splits an algebra
along a nondegenerate abelian ideal inside ker(theta).
"""

from fractions import Fraction

from lcslie.construct import (
    Representation,
    decompose,
    extend,
    find_nondegenerate_abelian_ideal,
    standard_symplectic,
    unimodular_extension_dim,
)
from lcslie.corpus import default_corpus_path, load_corpus
from lcslie.exterior import KForm, one_form
from lcslie.lcs import LCSStructure
from lcslie.notation import format_structure_equations, parse_structure_equations

# --- forward direction -------------------------------------------------

h = parse_structure_equations("(0,0,-13+24,-14-23)")
omega = KForm(4, 2, {(1, 3): 1, (2, 4): Fraction(-1, 2)})
theta = one_form(4, [1, 0, 0, 0])

# pi(e1) = diag(0, -1, -1, 0) has symmetric part -Id/2, as theta = e^1
# requires; the other generators act trivially.
zero = [[Fraction(0)] * 4 for _ in range(4)]
mat1 = [[Fraction(0)] * 4 for _ in range(4)]
mat1[1][1] = mat1[2][2] = Fraction(-1)
rep = Representation(h, standard_symplectic(4), [mat1, zero, zero, zero])

result = extend(LCSStructure(h, omega, theta), rep)
print("extension:", format_structure_equations(result.algebra))
print("unimodular:", result.unimodular)

# The trace condition trace(ad_X) = n * theta(X) singles out the half-
# dimension n of V that makes the extension unimodular.  Scaling theta
# rescales n; off-axis Lee forms admit no n at all.
for coeffs in ([1, 0, 0, 0], [Fraction(2, 3), 0, 0, 0], [0, 1, 0, 0]):
    n = unimodular_extension_dim(h, one_form(4, coeffs))
    print(f"theta coefficients {coeffs} -> required n = {n}")

# --- converse direction ------------------------------------------------

entries = {e.name: e for e in load_corpus(default_corpus_path())}
entry = entries["rr3-1"]
structure = LCSStructure(entry.algebra(), entry.omega_form(), entry.theta_form())

# The coordinate search finds span{e3, e4}: abelian, an ideal, omega-
# nondegenerate, and annihilated by theta.
u_basis = find_nondegenerate_abelian_ideal(structure)
print("ideal found:", u_basis)

base, action = decompose(structure, u_basis)
print("base algebra:", format_structure_equations(base.algebra))
print("base omega coefficients:", dict(base.omega.coeffs))
print("action of the first base generator:", action.mats[0])
# decompose verified internally that extend() rebuilds g on the nose.
