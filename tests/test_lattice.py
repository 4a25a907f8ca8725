"""Exact certificate construction and the pairwise distinction test."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lcslie.lattice import (
    LatticeCertificate,
    build_certificate,
    certificate_report,
    char_poly_exact,
    companion_matrix,
    distinguish_solvmanifolds,
    family_char_poly,
    t_parameter,
)


def test_t_parameter_inverts_cosh():
    for m in range(3, 11):
        assert math.isclose(math.cosh(t_parameter(m)), m / 2, rel_tol=1e-14)
    for m in list(range(3, 2000)) + [10**4, 10**5, 10**6]:
        assert math.isclose(t_parameter(m), math.acosh(m / 2), rel_tol=1e-12)
    for bad in (2, 1, 0, -5):
        with pytest.raises(ValueError, match="need m > 2"):
            t_parameter(bad)


def test_family_char_poly_coefficients():
    for m in range(3, 11):
        assert family_char_poly(m) == (1, -(m + 1), m + 1, -1)
    with pytest.raises(ValueError, match="integer"):
        family_char_poly(3.5)
    with pytest.raises(ValueError, match="need m > 2"):
        family_char_poly(2)


def test_companion_matrix_has_prescribed_char_poly():
    # x^2 - 3x + 1
    assert companion_matrix([-3, 1]) == [[0, -1], [1, 3]]
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        mat = companion_matrix(coeffs)
        assert char_poly_exact(mat) == tuple([1] + coeffs)
        oracle = np.poly(np.array(mat, dtype=float))
        assert np.allclose(oracle, np.array([1] + coeffs, dtype=float), atol=1e-8)
    with pytest.raises(ValueError, match="at least one"):
        companion_matrix([])


def test_char_poly_exact_satisfies_cayley_hamilton():
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randint(2, 5)
        mat = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        coeffs = char_poly_exact(mat)
        # Horner: p(A) over exact rationals
        acc = [[Fraction(0)] * n for _ in range(n)]
        for c in coeffs:
            nxt = [[sum(acc[i][k] * mat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            for i in range(n):
                nxt[i][i] += Fraction(c)
            acc = nxt
        assert all(x == 0 for row in acc for x in row)
        oracle = np.poly(np.array([[float(x) for x in row] for row in mat]))
        assert np.allclose(oracle, [float(c) for c in coeffs], atol=1e-6)


def test_certificates_for_the_whole_range(conjugation_failures):
    for m in list(range(3, 11)) + [1325, 8000, 10**5]:
        cert = build_certificate(m)
        assert cert.m == m
        assert math.isclose(math.cosh(cert.t_m), m / 2, rel_tol=1e-14)
        assert all(isinstance(x, int) for row in cert.d_m for x in row)
        p_m = family_char_poly(m)
        doubled = tuple(int(c) for c in np.polymul(p_m, p_m))
        assert char_poly_exact(cert.d_m) == doubled
        # the conjugation really carries the flow matrix to d_m
        assert conjugation_failures(cert) == []


def test_certificate_check_can_fail():
    right, wrong = build_certificate(5), build_certificate(6)
    with pytest.raises(RuntimeError, match="P_m != P_m D_m for m=5"):
        LatticeCertificate(5, wrong.d_m, right.p_m)
    singular = tuple(((0, 0),) * 6 for _ in range(6))
    with pytest.raises(RuntimeError, match="singular"):
        LatticeCertificate(5, right.d_m, singular)


def test_certificate_report_text():
    text = certificate_report(build_certificate(3))
    assert "m = 3" in text
    assert "D_m:" in text
    assert "verified exactly over Z[lambda]" in text


def test_distinction_is_exactly_inequality():
    certs = {m: build_certificate(m) for m in range(3, 9)}
    for m, cert_m in certs.items():
        for n, cert_n in certs.items():
            assert distinguish_solvmanifolds(cert_m, cert_n) == (m != n), (m, n)
