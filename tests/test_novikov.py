"""Twisted cohomology: the differential, Betti vectors, exactness."""

from fractions import Fraction
from math import comb

import pytest

from lcslie import linalg
from lcslie.exterior import (
    KForm,
    basis_form,
    differential_matrix,
    form_basis,
    one_form,
    zero_form,
)
from lcslie.lcs import LCSStructure
from lcslie.notation import parse_structure_equations
from lcslie.novikov import cohomology, is_exact_class, twisted_differential

# frozen reference vectors; the 8-dimensional pair has been verified
# against an independent simplicial-formula implementation
KNOWN = {
    "rr3-1": ((1, 2, 2, 2, 1), (0, 1, 2, 1, 0)),
    "heis4": ((1, 3, 4, 3, 1), (0, 0, 0, 0, 0)),
    "abelian4": ((1, 4, 6, 4, 1), (1, 4, 6, 4, 1)),
    "gprime": ((1, 4, 10, 20, 26, 20, 10, 4, 1), (0, 2, 8, 14, 16, 14, 8, 2, 0)),
    "ext42": ((1, 4, 6, 4, 2, 4, 6, 4, 1), (0, 2, 8, 12, 8, 2, 0, 0, 0)),
}


def test_known_betti_vectors(by_name):
    for name, (betti, twisted) in KNOWN.items():
        entry = by_name[name]
        g = entry.algebra()
        report = cohomology(g, entry.theta_form())
        assert report.betti == betti, name
        assert report.twisted_betti == twisted, name


def test_twisted_differential_squares_to_zero(shipped):
    for entry in shipped:
        if entry.theta is None or entry.dim > 4:
            continue
        g = entry.algebra()
        theta = entry.theta_form()
        for degree in range(g.dim):
            for key in form_basis(g.dim, degree):
                a = basis_form(g.dim, key)
                da = twisted_differential(g, theta, a)
                dda = twisted_differential(g, theta, da)
                assert dda.is_zero(), (entry.name, key)


def test_twisted_differential_requires_closed_theta():
    g = parse_structure_equations("(0,-12,13,0)")
    with pytest.raises(ValueError, match="not closed"):
        twisted_differential(g, one_form(4, [0, 1, 0, 0]), basis_form(4, (1, 2)))
    with pytest.raises(ValueError, match="1-form"):
        cohomology(g, basis_form(4, (1, 2)))


def test_zero_twist_reproduces_plain_cohomology(by_name):
    g = by_name["rr3-1"].algebra()
    report = cohomology(g, one_form(4, [0, 0, 0, 0]))
    assert report.betti == report.twisted_betti == (1, 2, 2, 2, 1)


def test_rank_nullity_identity_holds_externally(shipped):
    for entry in shipped:
        if entry.theta is None or entry.dim > 4:
            continue
        g = entry.algebra()
        theta = entry.theta_form()
        report = cohomology(g, theta)
        n = g.dim
        ranks = [linalg.rank(differential_matrix(g, k, theta)) for k in range(n + 1)]
        closed = [comb(n, k) - ranks[k] for k in range(n + 1)]
        assert tuple(closed) == report.twisted_closed_dims, entry.name
        for k in range(1, n + 1):
            formula = closed[k] + closed[k - 1] - comb(n, k - 1)
            assert report.twisted_betti[k] == formula, (entry.name, k)


def test_euler_characteristic_vanishes(shipped):
    for entry in shipped:
        if entry.theta is None:
            continue
        g = entry.algebra()
        report = cohomology(g, entry.theta_form())
        assert sum((-1) ** k * b for k, b in enumerate(report.betti)) == 0
        assert sum((-1) ** k * b for k, b in enumerate(report.twisted_betti)) == 0


def test_twisted_betti_bounded_by_untwisted_total(by_name):
    report = cohomology(by_name["gprime"].algebra(), by_name["gprime"].theta_form())
    n = len(report.betti) - 1
    for k in range(n + 1):
        assert 0 <= report.twisted_betti[k] <= comb(n, k)


def test_is_exact_class_agrees_with_primitive_search(shipped):
    for entry in shipped:
        if entry.omega is None or entry.theta is None:
            continue
        g = entry.algebra()
        omega, theta = entry.omega_form(), entry.theta_form()
        eta = LCSStructure(g, omega, theta).primitive
        assert is_exact_class(g, theta, omega) == (eta is not None), entry.name


def test_is_exact_class_edge_cases():
    g = parse_structure_equations("(0,-12,13,0)")
    theta = one_form(4, [1, 0, 0, 0])
    assert is_exact_class(g, theta, zero_form(4, 0))
    with pytest.raises(ValueError, match="no class"):
        is_exact_class(g, theta, KForm(4, 0, {(): Fraction(1)}))
    with pytest.raises(ValueError, match="no class"):
        is_exact_class(g, theta, basis_form(4, (2,)))
    # with theta = 0 a nonzero constant is closed but never exact
    zero = one_form(4, [0, 0, 0, 0])
    assert not is_exact_class(g, zero, KForm(4, 0, {(): Fraction(1)}))
    # theta itself is d_theta-exact: theta = -d_theta(1)
    assert is_exact_class(g, theta, theta)
