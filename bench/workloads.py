"""The benchmark's workloads: one round of operations per seed.

An operation is one `lcslie` command line, run in process through
`lcslie.cli.main`, together with the check that its JSON output must
pass.  Every operation of a workload belongs to one cost class, and a run
repeats whole rounds, so each run holds the same mix of inputs.
"""

import random
import shlex
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import oracles

CORPUS = Path("src") / "lcslie" / "data" / "corpus.txt"

# Windows from here on fail today: the float residual of every certificate
# exceeds the absolute 1e-9 gate.  One such window, fixed and independent
# of the seed, closes every lattice round.
LATTICE_FAILING_START = 8000
LATTICE_WINDOW = 30

# eigenvalues of A for R ⋉_A R^8 (dim 9, A diagonal) and R ⋉_A R^7 (dim 8, A conjugated)
SPARSE_EIGENVALUES = (-3, -2, -1, -1, 1, 1, 2, 3)
DENSE_EIGENVALUES = (-3, -2, -1, 0, 1, 2, 3)


@dataclass(frozen=True)
class Operation:
    argv: tuple
    check: object  # check(payload) raises oracles.Mismatch
    records: int = 0  # corpus records one regress call checks
    m_values: int = 0  # lattice parameters one call certifies


@dataclass(frozen=True)
class Workload:
    name: str
    round: object  # round(seed, root) -> list of Operation
    loads_corpus: bool = False


def corpus_names(path):
    """Record names in file order, read without lcslie."""
    names = []
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        token = next(t for t in shlex.split(stripped) if t.startswith("name="))
        names.append(token[len("name="):])
    return names


def regress_round(seed, root):
    """The packaged corpus; the seed has nothing to vary here."""
    path = root / CORPUS
    names = corpus_names(path)
    return [Operation(("regress", str(path), "--json"),
                      partial(oracles.check_regress, names=names), records=len(names))]


def almost_abelian_tuple(matrix):
    """Structure equations of R e_1 ⋉_M R^r with [e_1, e_{j+2}] = sum_i M[i][j] e_{i+2}."""
    entries = ["0"]
    for row in matrix:
        terms = [f"{-c:+d}[1][{j + 2}]" for j, c in enumerate(row) if c]
        entries.append("".join(terms) if terms else "0")
    return "(" + ",".join(entries) + ")"


def unimodular(rng, r):
    """P = L U with unit triangular L, U whose off-diagonal entries lie in {-1, 0, 1}."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(r)]
             for i in range(r)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(r)]
             for i in range(r)]
    return _mul(lower, upper), _mul(_unit_upper_inverse(upper),
                                    _transpose(_unit_upper_inverse(_transpose(lower))))


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _unit_upper_inverse(u):
    """Exact integer inverse of a unit upper-triangular matrix, by back substitution."""
    r = len(u)
    inv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for i in range(r - 1, -1, -1):
        for j in range(i + 1, r):
            inv[i] = [x - u[i][j] * y for x, y in zip(inv[i], inv[j])]
    return inv


def diagonal(values):
    return [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]


def conjugate(matrix, p, p_inv):
    return _mul(_mul(p, matrix), p_inv)


def dense_similar(rng, eigenvalues, max_entry):
    """P diag(eigenvalues) P^-1 for a seeded unimodular P, drawn again until the
    result has no zero entry and its largest entry lies in max_entry, so that
    every draw is of one cost class."""
    while True:
        matrix = conjugate(diagonal(eigenvalues), *unimodular(rng, len(eigenvalues)))
        entries = [abs(x) for row in matrix for x in row]
        if all(entries) and max(entries) in max_entry:
            return matrix


def cohomology_operation(matrix, eigenvalues, c):
    """`lcslie cohomology` of R ⋉_M R^r for theta = c e^1; M has the given eigenvalues."""
    # one token, so that argparse does not read a negative c as an option
    theta = "--theta=" + ",".join([str(c)] + ["0"] * len(matrix))
    return Operation(("cohomology", almost_abelian_tuple(matrix), theta, "--json"),
                     partial(oracles.check_cohomology, eigenvalues=list(eigenvalues), c=c))


def cohomology_round(seed, root, eigenvalues, size, max_entry=None):
    """size algebras R ⋉_A R^r; the seed orders A's eigenvalues, signs theta
    and, when max_entry is given, draws the conjugator that makes A dense.

    The eigenvalue multiset is fixed and symmetric under negation, so every
    draw has the same Betti numbers for theta = e^1 and theta = -e^1, and
    the same cost up to the layout of the matrices."""
    rng = random.Random(f"cohomology-{len(eigenvalues) + 1}-{seed}")
    ops = []
    for _ in range(size):
        order = list(eigenvalues)
        rng.shuffle(order)
        c = rng.choice((-1, 1))
        matrix = dense_similar(rng, order, max_entry) if max_entry else diagonal(order)
        ops.append(cohomology_operation(matrix, order, c))
    return ops


def lattice_operation(lo):
    hi = lo + LATTICE_WINDOW - 1
    return Operation(("lattice", "--range", f"{lo}:{hi}", "--distinguish", "--json"),
                     partial(oracles.check_lattice, lo=lo, hi=hi), m_values=LATTICE_WINDOW)


def lattice_round(seed, root, size=9):
    rng = random.Random(f"lattice-{seed}")
    starts = [rng.randrange(3, 1000) for _ in range(size)]
    return [lattice_operation(lo) for lo in starts] + [lattice_operation(LATTICE_FAILING_START)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("regress", regress_round, loads_corpus=True),
        Workload("cohomology-sparse", partial(cohomology_round, eigenvalues=SPARSE_EIGENVALUES,
                                              size=3)),
        Workload("cohomology-dense", partial(cohomology_round, eigenvalues=DENSE_EIGENVALUES,
                                             size=3, max_entry=range(15, 21))),
        Workload("lattice", lattice_round),
    )
}
