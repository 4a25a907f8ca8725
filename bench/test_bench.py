"""Tests of the benchmark's own code: oracles, inputs, tracing, metric names.

Run from the root of the checkout:  python3 -m pytest bench/test_bench.py
"""

import importlib.util
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lcslie import lcs  # noqa: E402
from lcslie.corpus import default_corpus_path, load_corpus  # noqa: E402
from lcslie.notation import parse_structure_equations  # noqa: E402


@pytest.fixture(scope="module")
def sympy_betti():
    """The independent sympy oracle of scripts/build_corpus.py."""
    spec = importlib.util.spec_from_file_location("build_corpus",
                                                  ROOT / "scripts" / "build_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sympy_betti


@pytest.mark.parametrize("eigenvalues, c, conjugate", [
    ((-1, 1, 2, -2, 0), 1, False),
    ((-1, 1, 2, -2, 0), -2, True),
    ((1, 1, -2, 3, -1, 0), -1, False),
    ((1, 1, -2, 3, -1, 0), 2, True),
])
def test_subset_count_matches_sympy_oracle(sympy_betti, eigenvalues, c, conjugate):
    """The closed form agrees with sympy ranks of the simplicial differential."""
    matrix = workloads.diagonal(eigenvalues)
    if conjugate:
        p, p_inv = workloads.unimodular(random.Random(len(eigenvalues)), len(eigenvalues))
        matrix = workloads.conjugate(matrix, p, p_inv)
    op = workloads.cohomology_operation(matrix, eigenvalues, c)
    g = parse_structure_equations(op.argv[1])
    assert g.dim == len(eigenvalues) + 1
    if conjugate:
        assert sum(1 for v in g.brackets.values() for x in v if x) > len(eigenvalues)
    plain, twisted = sympy_betti(g, [c] + [0] * len(eigenvalues))
    assert oracles.almost_abelian_betti(list(eigenvalues), c) == (list(plain), list(twisted))


def test_subset_sum_counts_match_enumeration():
    values = [3, -1, 0, 2, -2, -1, 1]
    counts = oracles.subset_sum_counts(values)
    for k in range(len(values) + 1):
        expected = {}
        for subset in itertools.combinations(values, k):
            expected[sum(subset)] = expected.get(sum(subset), 0) + 1
        assert counts[k] == expected


def test_unimodular_conjugator_is_an_exact_inverse_pair():
    p, p_inv = workloads.unimodular(random.Random(5), 7)
    identity = [[int(i == j) for j in range(7)] for i in range(7)]
    assert workloads._mul(p, p_inv) == identity


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_repeat_per_seed(name):
    round_ = workloads.WORKLOADS[name].round
    first = [op.argv for op in round_(7, ROOT)]
    assert first == [op.argv for op in round_(7, ROOT)]
    assert all("--json" in argv for argv in first)
    assert not any(flag in " ".join(argv) for argv in first for flag in ("--jobs", "--tol"))


def test_lattice_rounds_end_with_the_same_failing_window():
    windows = [[op.argv[2] for op in workloads.lattice_round(seed, ROOT)] for seed in (1, 2)]
    assert windows[0][-1] == windows[1][-1] == "8000:8029"
    assert all(int(w.split(":")[0]) < 1000 for w in windows[0][:-1] + windows[1][:-1])


def test_lattice_check_rejects_a_wrong_pair():
    lo, hi = 5, 7
    certs = []
    for m in range(lo, hi + 1):
        certs.append({"m": m, "t_m": math.acosh(m / 2), "char_poly": [1, -(m + 1), m + 1, -1]})
    pairs = [{"m": a, "n": b, "distinct": a != b} for a in range(lo, hi + 1)
             for b in range(a, hi + 1)]
    payload = {"certificates": certs, "distinguish": pairs}
    oracles.check_lattice(payload, lo, hi)
    pairs[0]["distinct"] = True
    with pytest.raises(oracles.Mismatch):
        oracles.check_lattice(payload, lo, hi)


def test_import_seconds_charges_each_module_once():
    # a child line comes before its parent, one indent deeper: numpy.linalg
    # is imported by scipy, numpy.core by numpy
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |     numpy.linalg",
        "import time:        40 |         45 |   scipy",
        "import time:        50 |        130 | lcslie",
        "import time:         7 |          7 | lcslie.cli",
    ])
    libraries = run.import_seconds(stderr, ("numpy", "scipy"))
    assert libraries["numpy"] == pytest.approx(30e-6)
    assert libraries["scipy"] == pytest.approx(45e-6)
    assert run.import_seconds(stderr, ("lcslie",))["lcslie"] == pytest.approx(137e-6)


def test_tracer_counts_calls_and_restores_bindings():
    entry = next(e for e in load_corpus(default_corpus_path()) if e.name == "rr3-1")
    g, omega, theta = entry.algebra(), entry.omega_form(), entry.theta_form()
    original = lcs.check_lcs
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lcs.check_lcs is not original
        lcs.classify_kind(g, omega, theta)
    finally:
        tracer.uninstall()
    record = tracer.collect()
    assert lcs.check_lcs is original
    assert record.calls("lcs.check_lcs") == 1
    assert record.calls("lcs.automorphism_algebra") == 1
    assert record.edges[("lcs.automorphism_algebra", "linalg.nullspace")][0] >= 1
    assert all(own >= 0 for _, _, own in record.spans.values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = ({n + ".calls" for n in run.CALLS} | {n + ".self_s" for n in run.SELF_TIMES}
             | set(run.PER_OP_COUNTS) | set(run.SETUP_LAYERS) | set(run.RATIOS)
             | {"linalg.rank.max_entry_bits", "trace.overhead_s"})
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
