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

from .algebra import LieAlgebra, abelian, change_basis
from .exterior import (
    KForm,
    basis_form,
    ce_differential,
    check_jacobi,
    is_unimodular,
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
from .novikov import CohomologyReport, cohomology, is_exact_class
from .corpus import CorpusEntry, load_corpus, save_corpus
from .construct import (
    Representation,
    SymplecticSpace,
    decompose,
    extend,
    find_nondegenerate_abelian_ideal,
    is_lcs_representation,
    unimodular_extension_dim,
)
from .lattice import (
    LatticeCertificate,
    build_certificate,
    companion_matrix,
    distinguish_solvmanifolds,
    family_char_poly,
)

__all__ = [
    "LieAlgebra",
    "abelian",
    "change_basis",
    "KForm",
    "basis_form",
    "ce_differential",
    "check_jacobi",
    "is_unimodular",
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
    "CorpusEntry",
    "load_corpus",
    "save_corpus",
    "Representation",
    "SymplecticSpace",
    "decompose",
    "extend",
    "find_nondegenerate_abelian_ideal",
    "is_lcs_representation",
    "unimodular_extension_dim",
    "LatticeCertificate",
    "build_certificate",
    "companion_matrix",
    "distinguish_solvmanifolds",
    "family_char_poly",
]
