"""End-to-end and per-layer benchmark of the lcslie command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload regress --seed 1 --seconds 20 --trace 0

One process acts as one closed-loop client: it calls
`lcslie.cli.main([...])` in process, with `--json`, for one operation
after another, captures stdout and checks the parsed JSON against a
result computed outside lcslie (see oracles.py).  The run repeats whole
rounds of the workload's operations (see workloads.py) until --seconds
have passed.  A command that exits non-zero counts as failed; a JSON
answer that disagrees with the reference makes the run incorrect.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every
operation twice, first plain and then with spans.Tracer installed, and
reports the per-layer metrics per completed operation, with the tracing
overhead as the difference of the two medians.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  Per-run
samples and the aggregated spans go to bench/out/.
"""

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracles
import spans
import workloads

SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
SETUP_TIMEOUT_S = 120

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
import lcslie.cli
"""
LOAD_CORPUS_CODE = """\
from lcslie import corpus
start = time.perf_counter()
corpus.load_corpus({corpus!r})
print(time.perf_counter() - start)
"""

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics, per completed operation, read off the traced spans
# (see README.md for the end-to-end metric each one should move).
CALLS = ("lcs.automorphism_algebra", "exterior.KForm.evaluate", "linalg.det", "linalg.in_span",
         "exterior.differential_matrix", "exterior.ce_differential", "linalg.rank",
         "linalg.nullspace", "notation.parse_structure_equations")
SELF_TIMES = ("lcs.check_lcs", "lcs.automorphism_algebra", "lcs.is_exact", "lcs.recover_lee_form",
              "construct.decompose", "construct.extend",
              "construct.find_nondegenerate_abelian_ideal", "exterior.differential_matrix",
              "exterior.ce_differential", "linalg.rank", "linalg.nullspace", "linalg.solve",
              "novikov.cohomology", "novikov.is_exact_class", "lattice.build_certificate",
              "lattice.distinguish_solvmanifolds", "notation.parse_structure_equations",
              "exterior.check_jacobi")
PER_OP_COUNTS = ("exterior.differential_matrix.cells", "exterior.differential_matrix.nnz")
RATIOS = {  # metric: (span whose calls are counted, the work they are divided by, unit)
    "lcs.check_lcs.calls_per_record": ("lcs.check_lcs", "records", "calls/record"),
    "construct.check_decompose_preconditions.calls_per_search": (
        "construct.check_decompose_preconditions", "searches", "calls/search"),
    "lattice.build_certificate.calls_per_m": ("lattice.build_certificate", "m_values", "calls/m"),
}
SETUP_LAYERS = ("import.total_s", "import.scipy_s", "import.numpy_s", "corpus.load_corpus.s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root):
    """Import lcslie.cli from root/src, and from nowhere else."""
    src = root / "src"
    if not (src / "lcslie" / "cli.py").is_file():
        raise SystemExit(f"error: {src / 'lcslie'} not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import lcslie.cli

    if Path(lcslie.cli.__file__).resolve().parent != (src / "lcslie").resolve():
        raise SystemExit(f"error: imported lcslie from {lcslie.cli.__file__}, not from {src}")
    return lcslie.cli


# -- set-up ------------------------------------------------------------------

def setup_code(root, workload):
    code = SETUP_CODE.format(src=str(root / "src"))
    if workload.loads_corpus:
        code += LOAD_CORPUS_CODE.format(corpus=str(root / workloads.CORPUS))
    return code


def fresh_interpreter(root, code, importtime=False):
    """Wall time of one fresh interpreter running code, and its completed process."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up interpreter failed:\n{proc.stderr}")
    return elapsed, proc


def import_seconds(stderr, packages):
    """Cumulative import time per package, in seconds, from -X importtime.

    Children are printed before their parent and indented deeper.  A module
    is charged to the outermost listed package that encloses it, so the
    numpy submodules that scipy imports count for scipy, and nothing is
    counted twice.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field.lstrip()
        rows.append((len(field) - len(name), name, int(cumulative)))
    totals = dict.fromkeys(packages, 0)
    ancestors = []  # (depth, listed) of the modules enclosing the current row
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        owner = next((p for p in packages if name == p or name.startswith(p + ".")), None)
        if owner is not None and not any(listed for _, listed in ancestors):
            totals[owner] += cumulative
        ancestors.append((depth, owner is not None))
    return {p: total / 1e6 for p, total in totals.items()}


def measure_setup(root, workload):
    code = setup_code(root, workload)
    return statistics.median(fresh_interpreter(root, code)[0] for _ in range(SETUP_RUNS))


def measure_setup_layers(root, workload):
    code = setup_code(root, workload)
    samples = {name: [] for name in SETUP_LAYERS}
    for _ in range(SETUP_RUNS):
        _, proc = fresh_interpreter(root, code, importtime=True)
        samples["import.total_s"].append(import_seconds(proc.stderr, ("lcslie",))["lcslie"])
        libraries = import_seconds(proc.stderr, ("numpy", "scipy"))
        samples["import.scipy_s"].append(libraries["scipy"])
        samples["import.numpy_s"].append(libraries["numpy"])
        samples["corpus.load_corpus.s"].append(float(proc.stdout) if proc.stdout.strip() else 0.0)
    return {name: statistics.median(values) for name, values in samples.items()}


# -- operations --------------------------------------------------------------

class RunLog:
    """Outcomes of the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # wall time of every attempted operation
        self.durations = []  # wall time of each completed operation
        self.errors = {}  # first line of each failure or mismatch -> count
        self.incorrect = 0

    def note(self, message):
        self.errors[message] = self.errors.get(message, 0) + 1


def execute(cli, op, log):
    """Run one operation; return its wall time if it completed (exited 0).

    A completed operation whose JSON disagrees with the reference is timed
    like any other and makes the run incorrect.
    """
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    except Exception:  # a crash fails this operation, and the run goes on
        code = None
        crash = traceback.format_exc()
    elapsed = perf_counter() - start
    log.attempted += 1
    log.busy_s += elapsed
    label = " ".join(op.argv[:3])[:80]
    if code != 0:
        log.failed += 1
        lines = (crash or err.getvalue()).strip().splitlines()
        log.note(f"failed: {label}: {lines[-1] if lines else f'exit {code}'}")
        return None
    log.durations.append(elapsed)
    try:
        op.check(json.loads(out.getvalue()))
    except (oracles.Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
        log.incorrect += 1
        log.note(f"incorrect: {label}: {type(exc).__name__}: {exc}")
    return elapsed


def run_rounds(ops, seconds, step):
    """Repeat whole rounds of ops until seconds have passed."""
    start = perf_counter()
    while True:
        for op in ops:
            step(op)
        if perf_counter() - start >= seconds:
            return


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(cli, root, workload, ops, seconds):
    log = RunLog()
    setup_s = measure_setup(root, workload)
    run_rounds(ops, seconds, lambda op: execute(cli, op, log))
    if not log.durations:
        return log, None, {}
    values = {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(log.durations),
        "ops_per_s": len(log.durations) / log.busy_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return log, metrics, {"setup_s": setup_s, "durations": log.durations}


def per_layer(cli, root, workload, ops, seconds):
    log = RunLog()
    setup = measure_setup_layers(root, workload)
    total = spans.Record()
    plain, traced = [], []
    work = {"records": 0, "m_values": 0}

    def step(op):
        before = execute(cli, op, log)
        tracer = spans.Tracer()
        tracer.install()
        try:
            after = execute(cli, op, log)
        finally:
            tracer.uninstall()
        if after is None:
            return
        total.merge(tracer.collect())
        traced.append(after)
        work["records"] += op.records
        work["m_values"] += op.m_values
        if before is not None:
            plain.append(before)

    run_rounds(ops, seconds, step)
    if not traced or not plain:
        return log, None, {}
    n = len(traced)
    work["searches"] = total.calls("construct.find_nondegenerate_abelian_ideal")
    metrics = {}
    for name in CALLS:
        metrics[name + ".calls"] = (total.calls(name) / n, "count")
    for name in SELF_TIMES:
        metrics[name + ".self_s"] = (total.self_s(name) / n, "s")
    for name in PER_OP_COUNTS:
        metrics[name] = (total.counts.get(name, 0) / n, "count")
    metrics["linalg.rank.max_entry_bits"] = (total.maxima.get("linalg.rank.max_entry_bits", 0),
                                             "bits")
    for name, (span, per, unit) in RATIOS.items():
        metrics[name] = (total.calls(span) / work[per] if work[per] else 0.0, unit)
    for name, value in setup.items():
        metrics[name] = (value, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    detail = {"setup": setup, "plain_durations": plain, "traced_durations": traced,
              "spans": total.dump()}
    return log, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    cli = import_program(root)
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.round(args.seed, root)
    measure = per_layer if args.trace else end_to_end
    log, metrics, detail = measure(cli, root, workload, ops, args.seconds)
    for message, count in sorted(log.errors.items()):
        print(f"{count} x {message}", file=sys.stderr)
    if metrics is None:
        print("error: no operation completed, so there is nothing to report", file=sys.stderr)
        return 1
    result = {
        "correct": log.incorrect == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(vars(args), result=result, errors=log.errors, **detail)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
