"""Float-certificate construction and the pairwise distinction test."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lcslie.lattice import (
    DEFAULT_TOL,
    build_certificate,
    certificate_report,
    char_poly_exact,
    check_integer_conjugacy,
    companion_matrix,
    distinguish_solvmanifolds,
    family_char_poly,
    phi_action,
    phi_generator,
    psi_action,
    psi_generator,
    t_parameter,
)


def test_t_parameter_inverts_cosh():
    for m in range(3, 11):
        assert math.isclose(math.cosh(t_parameter(m)), m / 2, rel_tol=1e-14)
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


def test_certificates_for_the_whole_range():
    for m in range(3, 11):
        cert = build_certificate(m)
        assert cert.m == m
        assert cert.residual < DEFAULT_TOL
        assert math.isclose(math.cosh(cert.t_m), m / 2, rel_tol=1e-14)
        assert cert.d_m.dtype == np.int64
        assert round(np.linalg.det(cert.d_m.astype(float))) == 1
        p_m = family_char_poly(m)
        doubled = tuple(int(c) for c in np.polymul(p_m, p_m))
        assert char_poly_exact(cert.d_m.tolist()) == doubled
        # the conjugation really carries the flow matrix to d_m
        phi_tm = phi_action().evaluate(cert.t_m)
        lhs = np.linalg.inv(cert.p_m) @ phi_tm @ cert.p_m
        assert np.max(np.abs(lhs - cert.d_m)) < 1e-8


def test_certificate_report_text():
    text = certificate_report(build_certificate(3))
    assert "m = 3" in text
    assert "D_m:" in text
    assert "residual" in text


def test_integer_conjugacy_repeated_spectrum_has_no_conjugator():
    verdict = check_integer_conjugacy(phi_action().evaluate(t_parameter(3)))
    assert verdict.candidate
    assert verdict.char_poly == (1, -8, 24, -34, 24, -8, 1)
    assert verdict.conjugator is None and verdict.residual is None


def test_integer_conjugacy_rejects_generic_time():
    verdict = check_integer_conjugacy(phi_action().evaluate(1.0))
    assert not verdict.candidate
    assert verdict.conjugator is None


def test_integer_conjugacy_near_integer_matrix():
    full_turn = psi_action().evaluate(2 * math.pi)
    verdict = check_integer_conjugacy(full_turn)
    assert verdict.candidate
    # (x - 1)^7
    assert verdict.char_poly == (1, -7, 21, -35, 35, -21, 7, -1)
    assert np.array_equal(verdict.conjugator, np.eye(7))
    assert verdict.residual < DEFAULT_TOL


def test_integer_conjugacy_simple_spectrum_builds_conjugator():
    companion = np.array(companion_matrix([-3, 1]), dtype=float)
    th = 0.3
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    a = rot @ companion @ rot.T
    verdict = check_integer_conjugacy(a)
    assert verdict.candidate
    assert verdict.char_poly == (1, -3, 1)
    assert verdict.conjugator is not None
    assert verdict.residual < DEFAULT_TOL


def test_integer_conjugacy_rejects_non_finite():
    bad = np.array([[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        check_integer_conjugacy(bad)


def test_distinction_is_exactly_inequality():
    certs = {m: build_certificate(m) for m in range(3, 9)}
    for m, cert_m in certs.items():
        for n, cert_n in certs.items():
            assert distinguish_solvmanifolds(cert_m, cert_n) == (m != n), (m, n)


def test_actions_at_time_zero():
    assert np.array_equal(phi_action().evaluate(0), np.eye(6))
    assert np.array_equal(psi_action().evaluate(0), np.eye(7))
    assert phi_generator().shape == (6, 6)
    gen = psi_generator()
    assert np.array_equal(gen, -gen.T)
