"""Locally conformal symplectic structures on Lie algebras.

A locally conformal symplectic (LCS) structure on a Lie algebra is a
nondegenerate 2-form omega together with a closed 1-form theta (the Lee
form) satisfying d(omega) = theta ^ omega.  This package verifies such
structures, classifies them as first or second kind, builds new ones by
semidirect-product extension, computes twisted (Morse-Novikov)
cohomology, and produces numeric lattice certificates for an associated
family of solvable Lie groups.

All algebraic computations are exact over the rationals; floating point
is confined to the lattice module.
"""

from .algebra import LieAlgebra, abelian, center, change_basis
from .exterior import (
    KForm,
    adjoint,
    basis_form,
    ce_differential,
    check_jacobi,
    is_unimodular,
    wedge,
)
from .notation import (
    StructureEquationSource,
    format_structure_equations,
    parse_structure_equations,
)
from .lcs import (
    Kind,
    KindVerdict,
    LCSStructure,
    automorphism_algebra,
    check_lcs,
    classify_kind,
    recover_lee_form,
)
from .novikov import CohomologyReport, cohomology, is_exact_class, twisted_differential
from .corpus import CorpusEntry, load_corpus, save_corpus
from .construct import (
    ExtensionResult,
    Representation,
    SymplecticSpace,
    decompose,
    extend,
    find_nondegenerate_abelian_ideal,
    is_lcs_representation,
    symmetric_skew_split,
    unimodular_extension_dim,
)
from .lattice import (
    LatticeCertificate,
    OneParameterAction,
    build_certificate,
    check_integer_conjugacy,
    companion_matrix,
    distinguish_solvmanifolds,
    family_char_poly,
)

__all__ = [
    "LieAlgebra",
    "abelian",
    "center",
    "change_basis",
    "KForm",
    "adjoint",
    "basis_form",
    "ce_differential",
    "check_jacobi",
    "is_unimodular",
    "wedge",
    "StructureEquationSource",
    "format_structure_equations",
    "parse_structure_equations",
    "Kind",
    "KindVerdict",
    "LCSStructure",
    "automorphism_algebra",
    "check_lcs",
    "classify_kind",
    "recover_lee_form",
    "CohomologyReport",
    "cohomology",
    "is_exact_class",
    "twisted_differential",
    "CorpusEntry",
    "load_corpus",
    "save_corpus",
    "ExtensionResult",
    "Representation",
    "SymplecticSpace",
    "decompose",
    "extend",
    "find_nondegenerate_abelian_ideal",
    "is_lcs_representation",
    "symmetric_skew_split",
    "unimodular_extension_dim",
    "LatticeCertificate",
    "OneParameterAction",
    "build_certificate",
    "check_integer_conjugacy",
    "companion_matrix",
    "distinguish_solvmanifolds",
    "family_char_poly",
]
