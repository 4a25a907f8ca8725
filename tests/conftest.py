from fractions import Fraction

import pytest

from lcslie import corpus


@pytest.fixture(scope="session")
def shipped():
    """Every record in the packaged corpus."""
    return corpus.load_corpus(corpus.default_corpus_path())


@pytest.fixture(scope="session")
def by_name(shipped):
    return {entry.name: entry for entry in shipped}


def _ring_mul(x, y, m):
    """(a + b lam)(c + d lam) with lam^2 = m lam - 1."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] + m * x[1] * y[1])


def _conjugation_failures(cert):
    """Entries (i, j) where phi(t_m) P_m and P_m D_m differ in Z[lam].

    phi(t_m) = diag(lam^g) for g in (1, -1, 0, 1, -1, 0), lam^-1 = m - lam;
    written out independently of lcslie.lattice.
    """
    m = cert.m
    lam = {1: (0, 1), -1: (m, -1), 0: (1, 0)}
    failures = []
    for i, (g, row) in enumerate(zip((1, -1, 0, 1, -1, 0), cert.p_m)):
        for j in range(6):
            rhs = (0, 0)
            for k in range(6):
                term = _ring_mul(row[k], (cert.d_m[k][j], 0), m)
                rhs = (rhs[0] + term[0], rhs[1] + term[1])
            if _ring_mul(lam[g], row[j], m) != rhs:
                failures.append((i, j))
    return failures


@pytest.fixture(scope="session")
def conjugation_failures():
    return _conjugation_failures


@pytest.fixture(scope="session")
def dense():
    """The dense list-of-rows form of a sparse matrix with ncols columns."""

    def to_dense(rows, ncols):
        return [[row.get(j, Fraction(0)) for j in range(ncols)] for row in rows]

    return to_dense
