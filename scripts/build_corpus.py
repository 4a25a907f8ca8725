#!/usr/bin/env python3
"""Regenerate src/lcslie/data/corpus.txt.

Each record's verdicts come from `lcslie.corpus.recompute`, so the
packaged corpus is its fixed point.  The values derived by hand below
(d(omega) = theta ^ omega for the Lee form, trace conditions for the
extension dimension, automorphism systems for the kind) are *asserted*
against them before anything is written; the script refuses to emit a
corpus the library disagrees with.  Twisted Betti vectors for the two
8-dimensional records are additionally cross-checked against an
independent sympy implementation that evaluates the differential by
the simplicial formula rather than as an antiderivation.

Run from the repository root:  python3 scripts/build_corpus.py
"""

import itertools
import sys
from fractions import Fraction as F
from pathlib import Path

import sympy

from lcslie import novikov
from lcslie.corpus import VERDICT_FIELDS, CorpusEntry, recompute, save_corpus
from lcslie.notation import StructureEquationSource, parse_structure_equations

OUT = Path(__file__).resolve().parent.parent / "src" / "lcslie" / "data" / "corpus.txt"


def entry(name, eq, params=None, omega=None, theta=None, group=None, note=None,
          kind=None, unimodular=None, extn=None, ideal=None):
    return dict(name=name, eq=eq, params=params or {}, omega=omega, theta=theta,
                group=group, note=note, kind=kind, unimodular=unimodular,
                extn=extn, ideal=ideal)


# -- record definitions ------------------------------------------------------
# omega is a {pair: coefficient} dict, theta a coefficient list.  kind,
# unimodular, extn and ideal are hand-derived expectations where stated;
# recompute fills in the rest.

UNIMODULAR4 = [
    entry("rr3-1", "(0,-12,13,0)",
          omega={(1, 2): 1, (3, 4): 1}, theta=[1, 0, 0, 0],
          kind="second", unimodular=True, extn=F(0), ideal=(3, 4),
          group="unimodular4"),
]

for tag, alpha in (("m34", F(-3, 4)), ("m14", F(-1, 4))):
    beta = -(1 + alpha)
    UNIMODULAR4 += [
        entry(f"r4{tag}-a", "(14,α24,β34,0)", {"α": alpha, "β": beta},
              omega={(1, 3): 1, (2, 4): 1}, theta=[0, 0, 0, alpha],
              kind="second", unimodular=True, extn=F(0), ideal=(1, 3),
              group="unimodular4"),
        entry(f"r4{tag}-b", "(14,α24,β34,0)", {"α": alpha, "β": beta},
              omega={(1, 4): 1, (2, 3): 1}, theta=[0, 0, 0, 1],
              kind="second", unimodular=True, extn=F(0), ideal=(2, 3),
              group="unimodular4"),
        entry(f"r4{tag}-c", "(14,α24,β34,0)", {"α": alpha, "β": beta},
              omega={(1, 2): 1, (3, 4): 1}, theta=[0, 0, 0, beta],
              kind="second", unimodular=True, extn=F(0), ideal=(1, 2),
              group="unimodular4"),
    ]

UNIMODULAR4 += [
    entry("r4pm12-p", "(14,-1/2 24+δ34,-δ24-1/2 34,0)", {"δ": F(1)},
          omega={(1, 4): 1, (2, 3): 1}, theta=[0, 0, 0, 1],
          kind="second", unimodular=True, extn=F(0), ideal=(2, 3),
          group="unimodular4"),
    entry("r4pm12-m", "(14,-1/2 24+δ34,-δ24-1/2 34,0)", {"δ": F(1)},
          omega={(1, 4): 1, (2, 3): -1}, theta=[0, 0, 0, 1],
          kind="second", unimodular=True, extn=F(0), ideal=(2, 3),
          group="unimodular4"),
    entry("d4-a", "(14,-24,-12,0)",
          omega={(1, 2): 1, (3, 4): -1, (2, 4): 1}, theta=[0, 0, 0, 1],
          kind="second", unimodular=True, extn=F(0), ideal="none",
          group="unimodular4",
          note="no nondegenerate abelian ideal inside ker(theta)"),
    entry("d4-b", "(14,-24,-12,0)",
          omega={(1, 4): 1, (2, 3): 1}, theta=[0, 0, 0, 1],
          kind="second", unimodular=True, extn=F(0), ideal=(2, 3),
          group="unimodular4"),
    entry("d4-c", "(14,-24,-12,0)",
          omega={(1, 4): -1, (2, 3): 1}, theta=[0, 0, 0, 1],
          kind="second", unimodular=True, extn=F(0), ideal=(2, 3),
          group="unimodular4"),
]

EXTENDABLE4 = [
    entry("rr3l", "(0,-12,-λ13,0)", {"λ": F(-1, 3)},
          omega={(1, 2): 1, (3, 4): 1}, theta=[F(1, 3), 0, 0, 0],
          unimodular=False, extn=F(2), group="extendable4"),
    entry("r2r2", "(0,-12,0,-34)", {},
          omega={(1, 2): -3, (1, 4): 1, (2, 3): 1, (3, 4): 3},
          theta=[F(1, 2), 0, F(1, 2), 0],
          unimodular=False, extn=F(2), group="extendable4",
          note="sigma = 1/2; the Lee form is +sigma(e1+e3)"),
    entry("r2p", "(0,0,-13+24,-14-23)", {},
          omega={(1, 3): 1, (2, 4): F(-3, 5)}, theta=[F(2, 3), 0, 0, 0],
          unimodular=False, extn=F(3), group="extendable4",
          note="sigma = 2/3"),
    entry("r4mu-a", "(14,μ24+34,μ34,0)", {"μ": F(-2, 3)},
          omega={(1, 3): 1, (2, 4): 1}, theta=[0, 0, 0, F(-1, 3)],
          unimodular=False, extn=F(1), group="extendable4"),
    entry("r4mu-bp", "(14,μ24+34,μ34,0)", {"μ": F(-1, 4)},
          omega={(1, 4): 1, (2, 3): 1}, theta=[0, 0, 0, F(1, 2)],
          unimodular=False, extn=F(1), group="extendable4"),
    entry("r4mu-bm", "(14,μ24+34,μ34,0)", {"μ": F(-1, 4)},
          omega={(1, 4): 1, (2, 3): -1}, theta=[0, 0, 0, F(1, 2)],
          unimodular=False, extn=F(1), group="extendable4"),
    entry("r4ab-a", "(14,α24,β34,0)", {"α": F(-1, 2), "β": F(1, 4)},
          omega={(1, 3): 1, (2, 4): 1}, theta=[0, 0, 0, F(-5, 4)],
          unimodular=False, extn=F(-3, 5), group="extendable4",
          note="trace condition gives a non-natural value"),
    entry("r4ab-b", "(14,α24,β34,0)", {"α": F(-1, 2), "β": F(1, 4)},
          omega={(1, 4): 1, (2, 3): 1}, theta=[0, 0, 0, F(1, 4)],
          unimodular=False, extn=F(3), group="extendable4"),
    entry("r4ab-c", "(14,α24,β34,0)", {"α": F(-1, 2), "β": F(1, 4)},
          omega={(1, 2): 1, (3, 4): 1}, theta=[0, 0, 0, F(-1, 2)],
          unimodular=False, extn=F(-3, 2), group="extendable4",
          note="trace condition gives a non-natural value"),
    entry("r4hat", "(14,-24,β34,0)", {"β": F(-1, 2)},
          omega={(1, 3): 1, (2, 4): 1}, theta=[0, 0, 0, F(-1, 2)],
          unimodular=False, extn=F(1), group="extendable4"),
    entry("r4pgd-p", "(14,γ24+δ34,-δ24+γ34,0)", {"γ": F(-1, 4), "δ": F(1)},
          omega={(1, 4): 1, (2, 3): 1}, theta=[0, 0, 0, F(1, 2)],
          unimodular=False, extn=F(1), group="extendable4",
          note="Lee form is -2*gamma*e4"),
    entry("r4pgd-m", "(14,γ24+δ34,-δ24+γ34,0)", {"γ": F(-1, 4), "δ": F(1)},
          omega={(1, 4): 1, (2, 3): -1}, theta=[0, 0, 0, F(1, 2)],
          unimodular=False, extn=F(1), group="extendable4"),
    entry("d4l-a", "(λ14,(1-λ)24,-12+34,0)", {"λ": F(3)},
          omega={(1, 2): 1, (3, 4): -2}, theta=[0, 0, 0, 1],
          unimodular=False, extn=F(2), group="extendable4",
          note="sigma = 1"),
    entry("d4l-b", "(λ14,(1-λ)24,-12+34,0)", {"λ": F(3)},
          omega={(1, 2): 1, (2, 4): 1, (3, 4): -3}, theta=[0, 0, 0, 2],
          unimodular=False, extn=F(1), group="extendable4"),
    entry("d4l-cp", "(λ14,(1-λ)24,-12+34,0)", {"λ": F(3)},
          omega={(1, 4): 1, (2, 3): 1}, theta=[0, 0, 0, 1],
          unimodular=False, extn=F(2), group="extendable4"),
    entry("d4l-cm", "(λ14,(1-λ)24,-12+34,0)", {"λ": F(3)},
          omega={(1, 4): 1, (2, 3): -1}, theta=[0, 0, 0, 1],
          unimodular=False, extn=F(2), group="extendable4"),
    entry("d4pd-p", "(δ/2 14+24,-14+δ/2 24,-12+δ34,0)", {"δ": F(1)},
          omega={(1, 2): 1, (3, 4): F(-3, 2)}, theta=[0, 0, 0, F(1, 2)],
          unimodular=False, extn=F(4), group="extendable4",
          note="sigma = 1/2"),
    entry("d4pd-m", "(δ/2 14+24,-14+δ/2 24,-12+δ34,0)", {"δ": F(1)},
          omega={(1, 2): -1, (3, 4): F(3, 2)}, theta=[0, 0, 0, F(1, 2)],
          unimodular=False, extn=F(4), group="extendable4"),
    entry("h4-p", "(δ/2 14+24,1/2 24,-12+34,0)", {"δ": F(1)},
          omega={(1, 2): 1, (3, 4): F(-3, 2)}, theta=[0, 0, 0, F(1, 2)],
          unimodular=False, extn=F(4), group="extendable4",
          note="sigma = 1/2; Jacobi forces delta = 1"),
    entry("h4-m", "(δ/2 14+24,1/2 24,-12+34,0)", {"δ": F(1)},
          omega={(1, 2): -1, (3, 4): F(3, 2)}, theta=[0, 0, 0, F(1, 2)],
          unimodular=False, extn=F(4), group="extendable4"),
]

HIGHDIM = [
    entry("ext42", "(0,0,-13+24,-14-23,0,16,17,0)",
          omega={(1, 3): 1, (2, 4): F(-1, 2), (5, 6): 1, (7, 8): 1},
          theta=[1, 0, 0, 0, 0, 0, 0, 0],
          kind="second", unimodular=True, extn=F(0),
          group="highdim",
          note="4-dim algebra of r2p extended by a 4-dim representation"),
    entry("gprime", "(0,0,-13,-14,0,16,17,0)",
          theta=[1, 0, 0, 0, 0, 0, 0, 0],
          unimodular=True, extn=F(0),
          group="highdim",
          note="almost abelian; twisted Betti numbers drop at every degree"),
]

MISC = [
    entry("abelian4", "(0,0,0,0)",
          omega={(1, 2): 1, (3, 4): 1}, theta=[0, 0, 0, 0],
          kind="symplectic", unimodular=True, group="misc"),
    entry("heis4", "(0,0,-12,0)",
          omega={(1, 2): 1, (3, 4): 1}, theta=[0, 0, 0, -1],
          kind="first", unimodular=True, extn=F(0), ideal="none",
          group="misc",
          note="nilpotent, so the structure is of the first kind and exact"),
]

ALL = UNIMODULAR4 + EXTENDABLE4 + HIGHDIM + MISC


def process(row):
    """The corpus record of one row, its verdicts asserted against the row's."""
    source = StructureEquationSource(row["eq"], row["params"])
    dim = parse_structure_equations(source).dim
    pairs = itertools.combinations(range(1, dim + 1), 2)
    record = recompute(CorpusEntry(
        name=row["name"],
        source=source,
        dim=dim,
        omega=None if row["omega"] is None else tuple(F(row["omega"].get(p, 0)) for p in pairs),
        theta=None if row["theta"] is None else tuple(F(c) for c in row["theta"]),
        group=row["group"],
        note=row["note"],
    ))
    for field in VERDICT_FIELDS:
        expected = row[field]
        assert expected is None or getattr(record, field) == expected, \
            f"{row['name']}: {field} {getattr(record, field)} != {expected}"
    return record


# -- independent twisted-cohomology oracle (sympy) ---------------------------

def sympy_betti(g, theta_coeffs):
    """Betti and twisted Betti via the simplicial differential formula.

    Forms of degree k are represented by their values on increasing
    basis tuples; d is evaluated as
      d a(x_0..x_k) = sum_{i<j} (-1)^{i+j} a([x_i,x_j], ..no i, j..)
    and the twist subtracts (theta ^ a)(x_0..x_k) expanded by shuffles.
    Ranks are sympy's, over exact rationals.
    """
    from math import comb

    n = g.dim
    bracket = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vec = g.bracket(g.basis_vector(i), g.basis_vector(j))
            bracket[(i, j)] = [sympy.Rational(c) for c in vec]
    theta = [sympy.Rational(c) for c in theta_coeffs]

    def tuples(k):
        return list(itertools.combinations(range(1, n + 1), k))

    def eval_with_vector(coeffs, dom, vector, rest):
        """a(v, e_rest) for a k-form a given by coeffs on increasing tuples."""
        total = sympy.Integer(0)
        for i in range(1, n + 1):
            if vector[i - 1] == 0 or i in rest:
                continue
            pos = sum(1 for r in rest if r < i)  # slots i must move past
            perm = tuple(sorted((i,) + rest))
            total += vector[i - 1] * (-1) ** pos * coeffs[dom.index(perm)]
        return total

    def d_matrix(k, twist):
        dom = tuples(k)
        cod = tuples(k + 1)
        mat = sympy.zeros(len(cod), len(dom))
        for col, dt in enumerate(dom):
            coeffs = [sympy.Integer(0)] * len(dom)
            coeffs[col] = sympy.Integer(1)
            for row, ct in enumerate(cod):
                total = sympy.Integer(0)
                for a in range(k + 1):
                    for b in range(a + 1, k + 1):
                        rest = tuple(x for t, x in enumerate(ct) if t not in (a, b))
                        total += (-1) ** (a + b) * eval_with_vector(
                            coeffs, dom, bracket[(ct[a], ct[b])], rest)
                if twist:
                    for a in range(k + 1):
                        rest = tuple(x for t, x in enumerate(ct) if t != a)
                        total -= (-1) ** a * theta[ct[a] - 1] * coeffs[dom.index(rest)]
                mat[row, col] = total
        return mat

    def betti(twist):
        ranks = [d_matrix(k, twist).rank() for k in range(n)] + [0]
        out = []
        for k in range(n + 1):
            kernel = comb(n, k) - ranks[k]
            out.append(kernel - (ranks[k - 1] if k else 0))
        return tuple(out)

    return betti(False), betti(True)


def main():
    records = []
    print(f"{'name':<12}{'kind':<12}{'uni':<6}{'extn':<8}ideal")
    for row in ALL:
        record = process(row)
        records.append(record)
        print(f"{record.name:<12}{str(record.kind):<12}{str(record.unimodular):<6}"
              f"{str(record.extn):<8}{record.ideal}")

    print("\ncross-checking twisted cohomology with sympy ...")
    for record in records:
        if record.name not in ("gprime", "ext42"):
            continue
        name, g = record.name, record.algebra()
        report = novikov.cohomology(g, record.theta_form())
        oracle_plain, oracle_twisted = sympy_betti(g, record.theta)
        print(f"{name}: library betti   {report.betti}")
        print(f"{name}: sympy oracle    {oracle_plain}")
        print(f"{name}: library twisted {report.twisted_betti}")
        print(f"{name}: sympy twisted   {oracle_twisted}")
        assert report.betti == oracle_plain, f"{name}: betti disagree"
        assert report.twisted_betti == oracle_twisted, f"{name}: twisted disagree"

    save_corpus(records, OUT)
    print(f"\nwrote {len(records)} records to {OUT}")


if __name__ == "__main__":
    sys.exit(main())
