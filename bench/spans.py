"""Span tracing of lcslie's public functions, from outside the package.

lcslie modules import names with `from .x import y`, so one function can
be bound in several module namespaces (and re-exported by the package).
`Tracer.install` replaces every binding of each target inside `lcslie.*`
by a wrapper and `uninstall` puts the originals back.  A wrapper records
one span per call: its name, its parent (the innermost traced caller),
its inclusive time and its self time, which is the inclusive time minus
the time covered by traced children (times are thread CPU times).  Optional hooks add counts read off
the arguments and the return value.  Spans are aggregated as they close,
per name and per (parent, name) edge, so memory stays bounded.
"""

import functools
import importlib
import sys
import threading
from fractions import Fraction
from time import thread_time


def _matrix_cells(record, name, args, result):
    """Cells and nonzeros of a dense list-of-rows matrix result."""
    if isinstance(result, list) and all(isinstance(row, list) for row in result):
        record.add(name + ".cells", sum(len(row) for row in result))
        record.add(name + ".nnz", sum(1 for row in result for x in row if x))


def _max_entry_bits(record, name, args, result):
    """Largest numerator or denominator bit length in the argument matrix."""
    bits = 0
    for row in args[0] if args else ():
        for x in row:
            if isinstance(x, Fraction):
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
            elif isinstance(x, int):
                bits = max(bits, x.bit_length())
    record.maximum(name + ".max_entry_bits", bits)


# (module, qualified name, hook); a target the package no longer has is skipped
TARGETS = (
    ("lcslie.lcs", "check_lcs", None),
    ("lcslie.lcs", "automorphism_algebra", None),
    ("lcslie.lcs", "is_exact", None),
    ("lcslie.lcs", "recover_lee_form", None),
    ("lcslie.exterior", "KForm.evaluate", None),
    ("lcslie.exterior", "differential_matrix", _matrix_cells),
    ("lcslie.exterior", "ce_differential", None),
    ("lcslie.exterior", "check_jacobi", None),
    ("lcslie.linalg", "det", None),
    ("lcslie.linalg", "in_span", None),
    ("lcslie.linalg", "rank", _max_entry_bits),
    ("lcslie.linalg", "nullspace", None),
    ("lcslie.linalg", "solve", None),
    ("lcslie.construct", "decompose", None),
    ("lcslie.construct", "extend", None),
    ("lcslie.construct", "find_nondegenerate_abelian_ideal", None),
    ("lcslie.construct", "check_decompose_preconditions", None),
    ("lcslie.novikov", "cohomology", None),
    ("lcslie.novikov", "is_exact_class", None),
    ("lcslie.lattice", "build_certificate", None),
    ("lcslie.lattice", "distinguish_solvmanifolds", None),
    ("lcslie.notation", "parse_structure_equations", None),
    ("lcslie.corpus", "load_corpus", None),
)


class Record:
    """Aggregated spans and counts.  While tracing, each thread writes only
    to its own Record."""

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_s, self_s]
        self.edges = {}  # (parent name or None, name) -> [calls, inclusive_s]
        self.counts = {}  # name -> sum
        self.maxima = {}  # name -> largest value seen
        self.stack = []  # open spans: [name, time covered by children]

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def merge(self, other):
        for name, (calls, incl, own) in other.spans.items():
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += own
        for edge, (calls, incl) in other.edges.items():
            rec = self.edges.setdefault(edge, [0, 0.0])
            rec[0] += calls
            rec[1] += incl
        for name, value in other.counts.items():
            self.add(name, value)
        for name, value in other.maxima.items():
            self.maximum(name, value)

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def dump(self):
        """JSON-ready aggregate: per-name spans, per-edge spans, counts, maxima."""
        return {
            "spans": {n: {"calls": c, "inclusive_s": i, "self_s": s}
                      for n, (c, i, s) in sorted(self.spans.items())},
            "edges": [{"parent": p, "name": n, "calls": c, "inclusive_s": i}
                      for (p, n), (c, i) in sorted(self.edges.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
            "maxima": dict(sorted(self.maxima.items())),
        }


class _PerThread(threading.local):
    def __init__(self, registry):
        self.record = Record()
        registry.append(self.record)  # atomic, so no lock is needed


class Tracer:
    """Records the traced calls made while installed.

    Span times are the calling thread's CPU time (time.thread_time), so
    that threads waiting for the interpreter lock are not charged for each
    other's work.  Each thread records into its own Record; `collect`
    merges them once the traced calls are over.
    """

    def __init__(self):
        self._records = []
        self._local = _PerThread(self._records)
        self._patched = []  # (namespace dict or class, attribute, original)

    def _wrap(self, name, fn, hook):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = local.record
            stack = record.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = record.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                edge = record.edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += elapsed
            if hook is not None:
                hook(record, name, args, result)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "lcslie" or n.startswith("lcslie.")]
        for module, qualname, hook in targets:
            owner_name, _, attr = qualname.rpartition(".")
            owner = importlib.import_module(module)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(module.removeprefix("lcslie.") + "." + qualname, fn, hook)
            if owner_name:  # a method: one binding, on its class
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, fn))
                continue
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is fn:
                        namespace[key] = wrapper
                        self._patched.append((namespace, key, fn))

    def uninstall(self):
        for where, key, original in reversed(self._patched):
            if isinstance(where, dict):
                where[key] = original
            else:
                setattr(where, key, original)
        self._patched.clear()

    def collect(self):
        """One Record of what every thread recorded."""
        total = Record()
        for record in self._records:
            total.merge(record)
        return total
