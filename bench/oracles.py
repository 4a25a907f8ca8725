"""Reference results computed without lcslie, used to check its output.

Almost-abelian algebras.  Let g = R e_1 ⋉_A R^{n-1} with [e_1, v] = A v
and A diagonalisable over the integers with eigenvalues a_2..a_n.  In an
eigenbasis the Chevalley-Eilenberg complex splits into lines spanned by
e^S and e^1 ^ e^S, and d_theta for theta = c e^1 sends e^S to
-(a_S + c) e^1 ^ e^S, where a_S is the sum of the eigenvalues in S.  So,
with N_k(l) the number of k-subsets of the eigenvalues that sum to l,

    b_k        = N_k(0)  + N_{k-1}(0)
    b_k^theta  = N_k(-c) + N_{k-1}(-c).

Lattice family.  At t_m = arccosh(m/2) the number lambda = e^{t_m}
satisfies lambda + 1/lambda = m, so it is a root of every reported
characteristic polynomial x^3 - (m+1)x^2 + (m+1)x - 1 = (x-1)(x^2-mx+1);
two members are distinct exactly when their parameters differ.
"""

import math


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


def subset_sum_counts(values):
    """counts[k][s]: number of k-element subsets (by position) of values summing to s."""
    counts = [{} for _ in range(len(values) + 1)]
    counts[0][0] = 1
    for x in values:
        # descending k, so each element joins a subset at most once
        for k in range(len(values) - 1, -1, -1):
            for s, c in counts[k].items():
                counts[k + 1][s + x] = counts[k + 1].get(s + x, 0) + c
    return counts


def almost_abelian_betti(eigenvalues, c):
    """(betti, twisted_betti) of R ⋉_A R^{n-1} for theta = c e^1, as lists."""
    counts = subset_sum_counts(eigenvalues)

    def n_k(k, total):
        return counts[k].get(total, 0) if 0 <= k < len(counts) else 0

    dim = len(eigenvalues) + 1
    betti = [n_k(k, 0) + n_k(k - 1, 0) for k in range(dim + 1)]
    twisted = [n_k(k, -c) + n_k(k - 1, -c) for k in range(dim + 1)]
    return betti, twisted


def check_cohomology(payload, eigenvalues, c):
    """Compare `lcslie cohomology --json` output with the subset-count closed form."""
    (record,) = payload["records"]
    betti, twisted = almost_abelian_betti(eigenvalues, c)
    if record["betti"] != betti:
        raise Mismatch(f"betti {record['betti']} != closed form {betti}")
    if record["twisted_betti"] != twisted:
        raise Mismatch(f"twisted betti {record['twisted_betti']} != closed form {twisted}")


def _check_root(m, t_m, char_poly, rel_tol):
    lam = math.exp(t_m)
    if abs(lam + 1 / lam - m) > rel_tol * m:
        raise Mismatch(f"m={m}: e^t_m + e^-t_m = {lam + 1 / lam!r}, not m")
    if any(not isinstance(c, int) for c in char_poly) or char_poly[0] != 1:
        raise Mismatch(f"m={m}: char_poly {char_poly} is not a monic integer polynomial")
    degree = len(char_poly) - 1
    terms = [c * lam ** (degree - i) for i, c in enumerate(char_poly)]
    if abs(sum(terms)) > rel_tol * sum(abs(t) for t in terms):
        raise Mismatch(f"m={m}: e^t_m is not a root of char_poly {char_poly}")


def check_lattice(payload, lo, hi, rel_tol=1e-9):
    """Check `lcslie lattice --range lo:hi --distinguish --json` output."""
    certs = payload["certificates"]
    if [c["m"] for c in certs] != list(range(lo, hi + 1)):
        raise Mismatch(f"certificates do not cover {lo}..{hi} in order")
    for cert in certs:
        _check_root(cert["m"], cert["t_m"], cert["char_poly"], rel_tol)
    pairs = {(p["m"], p["n"]): p["distinct"] for p in payload["distinguish"]}
    expected = {(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)}
    if set(pairs) != expected:
        raise Mismatch(f"distinguish pairs do not cover {lo}..{hi}")
    wrong = [pair for pair, distinct in pairs.items() if distinct != (pair[0] != pair[1])]
    if wrong:
        raise Mismatch(f"distinguish is wrong on pairs {wrong[:3]}")


def check_regress(payload, names):
    """Every record of the corpus was checked, in order, and none failed."""
    records = payload["records"]
    if [r["name"] for r in records] != names:
        raise Mismatch("regress did not report exactly the corpus records, in order")
    failed = [r["name"] for r in records if not r["ok"]]
    if failed:
        raise Mismatch(f"regress failed on {failed}")
    summary = payload["summary"]
    if summary["checked"] != len(names) or summary["failed"] != 0:
        raise Mismatch(f"regress summary {summary} for {len(names)} records")
