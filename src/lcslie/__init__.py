"""Locally conformal symplectic structures on Lie algebras.

A locally conformal symplectic (LCS) structure on a Lie algebra is a
nondegenerate 2-form omega together with a closed 1-form theta (the Lee
form) satisfying d(omega) = theta ^ omega.  This package verifies such
structures, classifies them as first or second kind, builds new ones by
semidirect-product extension, computes twisted (Morse-Novikov)
cohomology, and produces lattice certificates for an associated family
of solvable Lie groups.

All computations are exact: over the rationals, and for the lattice
certificates over the rings Z[lambda] with lambda^2 = m lambda - 1.
"""

import importlib

# Each public name and the submodule it lives in.  `import lcslie` loads no
# submodule: a name is imported from its home on first access (PEP 562) and
# read off that module on every access, so a patch of the home is seen here.
_EXPORTS = {
    "algebra": ("LieAlgebra", "abelian", "change_basis"),
    "exterior": ("KForm", "basis_form", "ce_differential", "check_jacobi", "is_unimodular"),
    "notation": ("StructureEquationSource", "format_structure_equations",
                 "parse_structure_equations"),
    "lcs": ("Kind", "KindVerdict", "LCSStructure", "automorphism_algebra", "check_lcs",
            "classify_kind", "recover_lee_form"),
    "novikov": ("CohomologyReport", "cohomology", "is_exact_class"),
    "corpus": ("CorpusEntry", "load_corpus", "save_corpus"),
    "construct": ("Representation", "SymplecticSpace", "decompose", "extend",
                  "find_nondegenerate_abelian_ideal", "is_lcs_representation",
                  "unimodular_extension_dim"),
    "lattice": ("LatticeCertificate", "build_certificate", "companion_matrix",
                "distinguish_solvmanifolds", "family_char_poly"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


class InputError(ValueError):
    """Input that cannot be parsed: the base of CorpusError and NotationError.

    It lives here so that the command line can catch both by one class
    without importing the modules that raise them.
    """


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
