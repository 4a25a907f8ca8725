"""Exact certificate construction and the pairwise distinction test."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcslie import lattice
from lcslie.lattice import (
    LatticeCertificate,
    build_certificate,
    certificate_report,
    companion_matrix,
    distinguish_solvmanifolds,
    family_char_poly,
    t_parameter,
)
from lcslie.linalg import char_poly_exact, inverse


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


@pytest.mark.parametrize("coeffs", [[1.5, -2.7], [Fraction(1, 2)], [3, 2.0], [Fraction(4)]])
def test_companion_matrix_refuses_non_integer_coefficients(coeffs):
    # int() would truncate them: [1.5, -2.7] gave [[0, 2], [1, -1]], and
    # [1/2] gave [[0]], the companion matrix of x rather than x + 1/2
    with pytest.raises(ValueError, match="integer coefficients"):
        companion_matrix(coeffs)


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
        LatticeCertificate(5, wrong.c_m, right.q_m)
    singular = ((0, 0),) * 3
    with pytest.raises(RuntimeError, match="conjugator for m=5 is singular"):
        LatticeCertificate(5, right.c_m, (singular,) * 3)


def test_a_certificate_is_an_immutable_value():
    cert = build_certificate(5)
    assert cert == LatticeCertificate(5, cert.c_m, cert.q_m) == build_certificate(5)
    assert cert != build_certificate(6) and cert != (5, cert.c_m, cert.q_m)
    assert hash(cert) == hash(build_certificate(5))
    assert repr(cert) == f"LatticeCertificate(m=5, c_m={cert.c_m!r}, q_m={cert.q_m!r})"
    for name in ("m", "c_m", "q_m", "d_m"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(cert, name, None)
    with pytest.raises(AttributeError, match="^cannot delete field 'm'$"):
        del cert.m
    assert cert.m == 5 and cert.model_char_poly is cert.model_char_poly


def test_a_conjugating_but_singular_p_is_refused(conjugation_failures):
    # Q_5 with its third row zeroed still satisfies phi_1 Q = Q C_5 row by
    # row, and so does diag(Q, Q) for phi and D_5, so only the determinant
    # can refuse it
    right = build_certificate(5)
    q = right.q_m[:2] + (((0, 0),) * 3,)
    pad = ((0, 0),) * 3
    p = tuple(row + pad for row in q) + tuple(pad + row for row in q)
    assert conjugation_failures(SimpleNamespace(m=5, d_m=right.d_m, p_m=p)) == []
    with pytest.raises(RuntimeError, match="conjugator for m=5 is singular"):
        LatticeCertificate(5, right.c_m, q)


def test_a_certificate_checks_only_its_block(monkeypatch):
    sizes = []
    original_det, original_times = lattice._det, lattice._times_integer_matrix
    monkeypatch.setattr(lattice, "_det",
                        lambda mat, m: sizes.append(len(mat)) or original_det(mat, m))
    monkeypatch.setattr(lattice, "_times_integer_matrix",
                        lambda p, d: sizes.append(len(p)) or original_times(p, d))
    build_certificate(7)
    assert sizes == [3, 3]


def test_certificate_determinants_match_the_cofactor_oracle(cofactor_det):
    for m in (3, 4, 9, 1325, 10**5):
        cert = build_certificate(m)
        det = lattice._det(cert.q_m, m)
        assert det != (0, 0)
        assert det == cofactor_det(cert.q_m, m)
        # det P_m = (det Q_m)^2, so the block's determinant decides P_m's
        assert lattice._det(cert.p_m, m) == cofactor_det(cert.p_m, m) == lattice._mul(det, det, m)


RING = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def det_inputs(draw):
    """(m, matrix over Z[lambda], singular); the shapes force singular draws and a row swap."""
    m = draw(st.integers(3, 50))
    n = draw(st.integers(1, 6))
    mat = [[draw(RING) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(
        ["dense", "zero lead", "zero column", "repeated row", "multiple row"]))
    i, j = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
    if shape == "zero lead":
        mat[0][0] = (0, 0)
    elif shape == "zero column":
        for row in mat:
            row[j] = (0, 0)
    elif shape == "repeated row" and n > 1:
        mat[j] = list(mat[i])
    elif shape == "multiple row" and n > 1:
        q = draw(RING)
        mat[j] = [lattice._mul(q, x, m) for x in mat[i]]
    singular = shape == "zero column" or (n > 1 and shape in ("repeated row", "multiple row"))
    return m, mat, singular


@settings(max_examples=150, deadline=None)
@given(det_inputs())
def test_bareiss_determinant_agrees_with_cofactor_expansion(cofactor_det, case):
    m, mat, singular = case
    det = lattice._det(mat, m)
    assert det == cofactor_det(mat, m)
    if singular:
        assert det == (0, 0)


def test_inexact_division_raises():
    m = 5
    assert lattice._divide_exactly(lattice._mul((2, 3), (1, -4), m), (1, -4), m) == (2, 3)
    assert lattice._divide_exactly((7, -1), (1, 0), m) == (7, -1)
    # 1 / 2 and lambda / (1 + lambda) are not in Z[lambda]
    with pytest.raises(RuntimeError, match="inexact division"):
        lattice._divide_exactly((1, 0), (2, 0), m)
    with pytest.raises(RuntimeError, match="inexact division"):
        lattice._divide_exactly((0, 1), (1, 1), m)


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


def test_model_char_poly_is_computed_once(monkeypatch):
    cert = build_certificate(7)
    p = family_char_poly(7)
    expected = np.polymul([1, -1], np.polymul(p, p))
    calls = []
    original = lattice.family_char_poly
    monkeypatch.setattr(lattice, "family_char_poly", lambda m: calls.append(m) or original(m))
    assert cert.model_char_poly == tuple(int(c) for c in expected)
    assert cert.model_char_poly is cert.model_char_poly
    assert calls == [7]


def test_inverse_char_poly_is_that_of_the_inverse_model():
    for m in list(range(3, 11)) + [10**5]:
        cert = build_certificate(m)
        model = [[1] + [0] * 6] + [[0] + list(row) for row in cert.d_m]
        assert cert.inverse_char_poly == char_poly_exact(inverse(model))
        assert cert.inverse_char_poly is cert.inverse_char_poly
