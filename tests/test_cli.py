"""End-to-end command-line behavior, run in process."""

import functools
import gc
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lcslie
from lcslie import cli, construct, lattice, lcs, notation
from lcslie.cli import main
from lcslie.corpus import default_corpus_path

R2P_LINE = (
    "name=r2p dim=4 eq='(0,0,-13+24,-14-23)' omega=0,1,0,0,-3/5,0 "
    "theta=2/3,0,0,0 kind=second unimodular=no extn=3"
)
RR3L_LINE = (
    "name=rr3l dim=4 eq='(0,-12,-λ13,0)' params='λ=-1/3' omega=1,0,0,0,0,1 "
    "theta=1/3,0,0,0 kind=second unimodular=no extn=2"
)

RR3L_EXT_LINE = (
    "name=rr3l-ext dim=8 eq='(0,-12,1/3 13,0,0,1/3 16,1/3 17,0)' "
    "omega=1,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,1,0,0,0,0,1 "
    "theta=1/3,0,0,0,0,0,0,0 kind=second unimodular=yes "
    "note='extension of rr3l by a 4-dimensional representation'"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_named_corpus_record(capsys):
    code, out, _ = run(capsys, "check", default_corpus_path(), "--name", "rr3-1")
    assert code == 0
    assert "rr3-1: LCS: yes, kind: second, exact: no, unimodular: yes" in out
    assert "g_omega basis:" in out


def test_check_inline_tuple(capsys):
    code, out, _ = run(
        capsys, "check", "(0,-12,13,0)",
        "--omega", "1,0,0,0,0,1", "--theta", "1,0,0,0",
    )
    assert code == 0
    assert "inline: LCS: yes, kind: second" in out


def test_check_inline_json(capsys):
    code, out, _ = run(
        capsys, "check", "(0,-12,13,0)", "--json",
        "--omega", "1,0,0,0,0,1", "--theta", "1,0,0,0",
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["lcs"] is True
    assert record["kind"] == "second"
    assert record["exact"] is False
    assert record["unimodular"] is True
    assert len(record["automorphism_basis"]) == 2


def test_check_reports_failure_with_exit_1(capsys):
    code, out, _ = run(
        capsys, "check", "(0,-12,13,0)",
        "--omega", "1,0,0,0,0,1", "--theta", "2,0,0,0",
    )
    assert code == 1
    assert "inline: LCS: no" in out


def test_check_usage_errors(capsys):
    code, _, err = run(capsys, "check", default_corpus_path(), "--name", "nope")
    assert code == 2 and "no record named" in err

    # inline tuple without forms
    code, _, err = run(capsys, "check", "(0,-12,13,0)")
    assert code == 2 and "carries no omega/theta" in err

    # Jacobi violation in the tuple itself
    code, _, err = run(
        capsys, "check", "(0,-12,-12+34,0)",
        "--omega", "1,0,0,0,0,1", "--theta", "1,0,0,0",
    )
    assert code == 2 and "Jacobi" in err

    code, _, err = run(capsys, "check", "/does/not/exist.txt")
    assert code == 2


def test_name_applies_only_to_a_corpus_file(capsys):
    for argv in (("check", "(0,-12,13,0)", "--omega", "1,0,0,0,0,1", "--theta", "1,0,0,0"),
                 ("cohomology", "(0,-12,13,0)")):
        code, out, err = run(capsys, *argv, "--name", "foo")
        assert code == 2 and out == ""
        assert "--name applies only to a corpus file" in err


def test_more_than_max_dim_entries_is_bad_input(capsys, tmp_path):
    tuple_text = "(" + ",".join(["0"] * 16) + ")"
    code, out, err = run(capsys, "cohomology", tuple_text)
    assert code == 2 and out == ""
    assert "tuple has 16 entries, more than MAX_DIM = 14" in err

    path = tmp_path / "big.txt"
    path.write_text(f"name=big dim=16 eq='{tuple_text}'\n")
    code, out, err = run(capsys, "cohomology", str(path), "--name", "big")
    assert code == 2 and out == ""
    assert "more than MAX_DIM = 14" in err
    # regress reports the record as a failure of its parse step and goes on
    code, out, _ = run(capsys, "regress", str(path), "--json")
    assert code == 1
    (record,) = json.loads(out)["records"]
    assert record["failures"] == ["parse: tuple has 16 entries, more than MAX_DIM = 14"]


MISDECLARED_LINE = (
    "name=x dim=6 eq='(0,-12,13,0)' omega=1,0,0,0,0,0,0,0,0,0,0,0,1,0,1 theta=1,0,0,0,0,0"
)


@pytest.mark.parametrize("command", ["check", "cohomology", "extend"])
def test_a_misdeclared_dim_is_bad_input(capsys, tmp_path, command):
    path = tmp_path / "misdeclared.txt"
    path.write_text(MISDECLARED_LINE + "\n")
    rep = tmp_path / "rep.txt"
    rep.write_text("vdim=2\nmat1=0\nmat2=0\nmat3=0\nmat4=0\n")
    extra = ("--rep-file", str(rep)) if command == "extend" else ()
    code, out, err = run(capsys, command, str(path), "--name", "x", *extra)
    assert code == 2 and out == ""
    assert err == "error: declared dim 6 but tuple has arity 4\n"
    # regress reports the record as a failure of its parse step and goes on
    code, out, _ = run(capsys, "regress", str(path), "--json")
    assert code == 1
    (record,) = json.loads(out)["records"]
    assert record["failures"] == ["parse: declared dim 6 but tuple has arity 4"]


def test_cohomology_named_record(capsys):
    code, out, _ = run(capsys, "cohomology", default_corpus_path(), "--name", "gprime")
    assert code == 0
    assert "betti: 1,4,10,20,26,20,10,4,1" in out
    assert "0,2,8,14,16,14,8,2,0" in out


def test_cohomology_inline_with_theta(capsys):
    code, out, _ = run(
        capsys, "cohomology", "(0,0,-12,0)", "--theta", "0,0,0,-1", "--json"
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["betti"] == [1, 3, 4, 3, 1]
    assert record["twisted_betti"] == [0, 0, 0, 0, 0]


def test_cohomology_defaults_to_untwisted(capsys):
    code, out, _ = run(capsys, "cohomology", "(0,0,0,0)", "--json")
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["betti"] == record["twisted_betti"] == [1, 4, 6, 4, 1]


# a and c compute; e^2 is not closed on (0,-12,13,0), so b and d have no twisted
# complex and d (which carries omega) is no LCS pair; in dimension 2 omega does
# not determine the Lee form, so regress cannot recover the Lee form of "two"
MIXED_CORPUS = ("name=a dim=4 eq='(0,0,0,0)'\n"
                "name=b dim=4 eq='(0,-12,13,0)' theta=0,1,0,0\n"
                "name=c dim=4 eq='(0,0,-12,0)' theta=0,0,0,-1\n"
                "name=d dim=4 eq='(0,-12,13,0)' omega=1,0,0,0,0,1 theta=0,1,0,0\n"
                "name=two dim=2 eq='(0,-12)' omega=1 theta=1,0\n")
NOT_CLOSED = "theta is not closed; the twisted differential would not square to zero"
NOT_UNIQUE = "recover_lee_form: theta is not unique; omega does not determine a Lee form"


def as_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_cohomology_reports_a_failing_record_by_name_and_goes_on(capsys, tmp_path):
    """And so do check and regress, each in its own failure shape, in text and in JSON."""
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED_CORPUS)
    code, out, err = run(capsys, "cohomology", str(path))
    assert code == 1 and err == ""
    assert out == ("a:\n  betti: 1,4,6,4,1\n  twisted (theta = 0): 1,4,6,4,1\n"
                   f"b: failed ({NOT_CLOSED})\n"
                   "c:\n  betti: 1,3,4,3,1\n  twisted (theta = -e4): 0,0,0,0,0\n"
                   f"d: failed ({NOT_CLOSED})\n"
                   "two:\n  betti: 1,1,0\n  twisted (theta = e1): 0,0,0\n")
    code, out, err = run(capsys, "cohomology", str(path), "--json")
    assert code == 1 and err == ""
    assert out == as_json({"records": [
        {"name": "a", "theta": ["0"] * 4, "betti": [1, 4, 6, 4, 1],
         "twisted_betti": [1, 4, 6, 4, 1]},
        {"name": "b", "failure": NOT_CLOSED},
        {"name": "c", "theta": ["0", "0", "0", "-1"], "betti": [1, 3, 4, 3, 1],
         "twisted_betti": [0] * 5},
        {"name": "d", "failure": NOT_CLOSED},
        {"name": "two", "theta": ["1", "0"], "betti": [1, 1, 0], "twisted_betti": [0, 0, 0]},
    ]})

    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and err == ""
    assert out == ("a: skipped (no omega/theta recorded)\n"
                   "b: skipped (no omega/theta recorded)\n"
                   "c: skipped (no omega/theta recorded)\n"
                   "d: LCS: no (theta is not closed)\n"
                   "two: LCS: yes, kind: second, exact: yes, unimodular: no\n"
                   "  g_omega basis: e2\n")
    code, out, err = run(capsys, "check", str(path), "--json")
    assert code == 1 and err == ""
    skipped = [{"name": name, "skipped": "no omega/theta recorded"} for name in "abc"]
    assert out == as_json({"records": skipped + [
        {"name": "d", "lcs": False, "failure": "theta is not closed"},
        {"name": "two", "lcs": True, "kind": "second", "exact": True, "unimodular": False,
         "automorphism_basis": [["0", "1"]]},
    ]})

    code, out, err = run(capsys, "regress", str(path))
    assert code == 1 and err == ""
    assert out == ("a: ok\nb: ok\nc: ok\n"
                   "d: FAIL\n  - check_lcs: not an LCS structure: theta is not closed\n"
                   f"two: FAIL\n  - {NOT_UNIQUE}\n"
                   "5 records checked, 2 failures\n")
    code, out, err = run(capsys, "regress", str(path), "--json")
    assert code == 1 and err == ""
    ok = [{"name": name, "ok": True, "failures": [], "notes": []} for name in "abc"]
    assert out == as_json({"records": ok + [
        {"name": "d", "ok": False, "notes": [],
         "failures": ["check_lcs: not an LCS structure: theta is not closed"]},
        {"name": "two", "ok": False, "notes": [], "failures": [NOT_UNIQUE]},
    ], "summary": {"checked": 5, "failed": 2}})


def test_check_reports_a_record_whose_verdict_raises_by_name_and_goes_on(
        capsys, tmp_path, monkeypatch):
    # Only a broken invariant can make the verdict of a verified pair raise, so
    # the test breaks one: g_omega "not bracket-closed" on the dim-2 record.
    # The record is failed by name, as cohomology fails one, and the run goes on.
    reason = "automorphism space is not bracket-closed"
    original = lcs.automorphism_algebra

    def broken(g, omega):
        if g.dim == 2:
            raise RuntimeError(reason)
        return original(g, omega)

    monkeypatch.setattr(lcs, "automorphism_algebra", broken)
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED_CORPUS)
    code, out, err = run(capsys, "check", str(path))
    assert code == 1 and err == ""
    assert out == ("a: skipped (no omega/theta recorded)\n"
                   "b: skipped (no omega/theta recorded)\n"
                   "c: skipped (no omega/theta recorded)\n"
                   "d: LCS: no (theta is not closed)\n"
                   f"two: failed ({reason})\n")
    code, out, err = run(capsys, "check", str(path), "--json")
    assert code == 1 and err == ""
    skipped = [{"name": name, "skipped": "no omega/theta recorded"} for name in "abc"]
    assert out == as_json({"records": skipped + [
        {"name": "d", "lcs": False, "failure": "theta is not closed"},
        {"name": "two", "failure": reason},
    ]})


@pytest.fixture
def small_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(R2P_LINE + "\n" + RR3L_LINE + "\n")
    return path


def write_rep(tmp_path, name, diagonal):
    rows = ";".join(
        ",".join(str(diagonal[i]) if i == j else "0" for j in range(4))
        for i in range(4)
    )
    path = tmp_path / name
    path.write_text(f"vdim=4\nmat1={rows}\nmat2=0\nmat3=0\nmat4=0\n")
    return path


def test_extend_unimodular_case(capsys, tmp_path, small_corpus):
    rep = write_rep(tmp_path, "rep_rr3l.txt", [0, "-1/3", "-1/3", 0])
    code, out, _ = run(
        capsys, "extend", str(small_corpus), "--name", "rr3l",
        "--rep-file", str(rep), "--check-unimodular", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "rr3l-ext"
    assert payload["dim"] == 8
    assert payload["unimodular"] is True
    assert payload["kind"] == "second"
    assert payload["unimodular_check"] == {
        "n": "2", "required_n": "2", "unimodular": True,
    }
    assert payload["record"] == RR3L_EXT_LINE


def test_extend_non_unimodular_case(capsys, tmp_path, small_corpus):
    # n = 2 from the 4-dimensional space, but the trace condition needs 3
    rep = write_rep(tmp_path, "rep_r2p.txt", [0, "-2/3", "-2/3", 0])
    code, out, _ = run(
        capsys, "extend", str(small_corpus), "--name", "r2p",
        "--rep-file", str(rep), "--check-unimodular",
    )
    assert code == 0
    assert "unimodular=no" in out
    assert "trace condition needs n = 3" in out


def test_extend_reports_a_contradicted_trace_condition(capsys, tmp_path, monkeypatch):
    # rr3-1 by -Id/2 on R^2 has n = 1 and is not unimodular; a trace condition
    # that predicted n = 1 would contradict the built algebra
    rep = tmp_path / "rep.txt"
    rep.write_text("vdim=2\nmat1=-1/2,0;0,-1/2\nmat2=0\nmat3=0\nmat4=0\n")
    monkeypatch.setattr(construct, "unimodular_extension_dim", lambda h, theta: Fraction(1))
    code, out, err = run(capsys, "extend", default_corpus_path(), "--name", "rr3-1",
                         "--rep-file", str(rep), "--check-unimodular")
    assert code == 1 and out == ""
    assert err.startswith("verification failed: trace condition predicts unimodular=True ")


def test_extend_rejects_incompatible_representation(capsys, tmp_path, small_corpus):
    # symmetric part -Id/2 does not match theta = (2/3) e^1
    rep = write_rep(tmp_path, "rep_bad.txt", [0, -1, -1, 0])
    code, _, err = run(
        capsys, "extend", str(small_corpus), "--name", "r2p", "--rep-file", str(rep)
    )
    assert code == 1
    assert "not compatible" in err


def test_extend_rejects_a_non_representation(capsys, tmp_path):
    # pi(e1) = -Id/2 and pi(e2) nilpotent pass the LCS identity for theta = e^1,
    # but [pi(e1), pi(e2)] = 0 != pi(e2) = pi([e1,e2])
    rep = tmp_path / "rep_nonhom.txt"
    rep.write_text("vdim=2\nmat1=-1/2,0;0,-1/2\nmat2=0,1;0,0\nmat3=0\nmat4=0\n")
    code, out, err = run(
        capsys, "extend", default_corpus_path(), "--name", "rr3-1", "--rep-file", str(rep)
    )
    assert code == 1 and out == ""
    assert "not a representation: pi([e1,e2]) != [pi(e1), pi(e2)]" in err


def test_extend_rep_file_errors(capsys, tmp_path, small_corpus):
    bad = tmp_path / "norep.txt"
    bad.write_text("mat1=0\n")
    code, _, err = run(
        capsys, "extend", str(small_corpus), "--name", "r2p", "--rep-file", str(bad)
    )
    assert code == 2 and "missing vdim" in err

    bad.write_text("vdim=4\nmat1=1,0;0,1\nmat2=0\nmat3=0\nmat4=0\n")
    code, _, err = run(
        capsys, "extend", str(small_corpus), "--name", "r2p", "--rep-file", str(bad)
    )
    assert code == 2 and "needs 4 rows" in err

    bad.write_text("vdim=4\nmat1=0\nmat2=0\nmat3=0\nmat4=0\nmat5=0\n")
    code, _, err = run(
        capsys, "extend", str(small_corpus), "--name", "r2p", "--rep-file", str(bad)
    )
    assert code == 2 and "unknown keys" in err

    # a degenerate omega0 is malformed input too, not a failed verification
    bad.write_text("vdim=2\nomega0=0\nmat1=0\nmat2=0\nmat3=0\nmat4=0\n")
    code, out, err = run(
        capsys, "extend", str(small_corpus), "--name", "r2p", "--rep-file", str(bad)
    )
    assert code == 2 and out == "" and "omega0: Gram matrix is degenerate" in err


def test_extend_check_unimodular_needs_a_nonzero_theta(capsys, tmp_path):
    # theta = 0 has no trace condition to check: a usage error, not a failed verification
    rep = tmp_path / "rep2.txt"
    rep.write_text("vdim=2\nmat1=0\nmat2=0\nmat3=0\nmat4=0\n")
    argv = ("extend", default_corpus_path(), "--name", "abelian4", "--rep-file", str(rep))
    code, out, err = run(capsys, *argv, "--check-unimodular")
    assert code == 2 and out == ""
    assert "--check-unimodular needs a nonzero theta" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "kind=symplectic" in out


def test_extend_bounds_vdim_by_max_dim(capsys, tmp_path):
    # rr3-1 is 4-dimensional, so a product stays within MAX_DIM = 14 only for vdim <= 10;
    # pi(e1) = -Id/2 would pass the representation checks
    minus_half = ";".join(",".join("-1/2" if i == j else "0" for j in range(16)) for i in range(16))
    rep = tmp_path / "rep16.txt"
    rep.write_text(f"vdim=16\nmat1={minus_half}\nmat2=0\nmat3=0\nmat4=0\n")
    code, _, err = run(
        capsys, "extend", default_corpus_path(), "--name", "rr3-1", "--rep-file", str(rep)
    )
    assert code == 2 and "vdim must be at most MAX_DIM - 4 = 10" in err


def test_a_zero_denominator_names_the_token(capsys, tmp_path):
    code, _, err = run(
        capsys, "check", "(0,-12,13,0)", "--omega", "1,0,0,0,0,1", "--theta", "1/0,0,0,0"
    )
    assert code == 2
    assert err == "error: bad rational in --theta: '1/0' has a zero denominator\n"
    path = tmp_path / "zero.txt"
    path.write_text("# one record\nname=z dim=4 eq='(0,-12,13,0)' omega=1,0,0,0,0,1 "
                    "theta=1/0,0,0,0\n")
    code, _, err = run(capsys, "regress", str(path))
    assert code == 2
    assert err == "error: line 2: bad rational in theta: '1/0' has a zero denominator\n"


def test_lattice_single_member(capsys):
    code, out, _ = run(capsys, "lattice", "--m", "3")
    assert code == 0
    assert "m = 3" in out
    assert "verified exactly over Z[lambda]" in out
    assert "residual" not in out


def test_lattice_rejects_small_m(capsys):
    code, _, err = run(capsys, "lattice", "--m", "2")
    assert code == 2 and "need m > 2" in err


def test_lattice_flag_conflicts(capsys):
    assert run(capsys, "lattice", "--m", "3", "--range", "3:5")[0] == 2
    assert run(capsys, "lattice", "--distinguish", "--m", "3")[0] == 2
    assert run(capsys, "lattice")[0] == 2
    assert run(capsys, "lattice", "--range", "5:3")[0] == 2


def test_lattice_distinguish_range(capsys):
    code, out, _ = run(capsys, "lattice", "--range", "3:5", "--distinguish", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [c["m"] for c in payload["certificates"]] == [3, 4, 5]
    for cert in payload["certificates"]:
        assert sorted(cert) == ["char_poly", "m", "t_m"]
        assert cert["char_poly"] == [1, -(cert["m"] + 1), cert["m"] + 1, -1]
    pairs = payload["distinguish"]
    assert len(pairs) == 6
    for item in pairs:
        assert item["distinct"] == (item["m"] != item["n"])


def test_lattice_large_m_window(capsys):
    code, out, _ = run(capsys, "lattice", "--range", "8000:8029", "--distinguish", "--json")
    assert code == 0
    pairs = json.loads(out)["distinguish"]
    assert len(pairs) == 30 * 31 // 2
    assert all(item["distinct"] == (item["m"] != item["n"]) for item in pairs)


def test_lattice_huge_m_reports_a_finite_t_m(capsys):
    code, out, _ = run(capsys, "lattice", "--m", str(10**400), "--json")
    assert code == 0
    (cert,) = json.loads(out)["certificates"]
    assert math.isclose(cert["t_m"], 400 * math.log(10), rel_tol=1e-12)


def test_lattice_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--m", "3", "--tol", "1e-9"])
    assert exc.value.code == 2
    capsys.readouterr()


class ClosedPipe:
    """A stdout whose reader is gone, over a real descriptor that main may redirect."""

    def __init__(self, file):
        self.fileno = file.fileno

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_closed_stdout_exits_141_without_an_error_line(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "out", "w") as file:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(file))
        code = main(["lattice", "--m", "3"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_is_not_bad_usage():
    src = str(Path(lcslie.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen([sys.executable, "-m", "lcslie.cli", "lattice", "--range", "3:400"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the first write, so that every write meets a closed pipe
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_regress_packaged_corpus(capsys):
    code, out, _ = run(capsys, "regress", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["checked"] == 36
    assert all(r["ok"] for r in payload["records"])


def test_regress_json_matches_the_recorded_snapshot(capsys):
    """Byte for byte, the report the dense-bracket implementation printed."""
    snapshot = Path(__file__).parent / "data" / "regress_packaged.json"
    code, out, _ = run(capsys, "regress", str(default_corpus_path()), "--json")
    assert code == 0
    assert out == snapshot.read_text(encoding="utf-8")


def test_check_json_matches_the_recorded_snapshot(capsys):
    """Byte for byte, including the g_omega bases that nullspace yields."""
    snapshot = Path(__file__).parent / "data" / "check_packaged.json"
    code, out, _ = run(capsys, "check", str(default_corpus_path()), "--json")
    assert code == 0
    assert out == snapshot.read_text(encoding="utf-8")


def test_cohomology_json_matches_the_recorded_snapshot(capsys):
    """Byte for byte, the plain and twisted Betti numbers of every packaged record."""
    snapshot = Path(__file__).parent / "data" / "cohomology_packaged.json"
    code, out, _ = run(capsys, "cohomology", str(default_corpus_path()), "--json")
    assert code == 0
    assert out == snapshot.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, snapshot", [
    pytest.param(["regress"], "regress_packaged.txt", id="regress"),
    pytest.param(["check", "{corpus}"], "check_packaged.txt", id="check"),
    pytest.param(["cohomology", "{corpus}"], "cohomology_packaged.txt", id="cohomology"),
    pytest.param(["extend", "{corpus}", "--name", "rr3-1", "--rep-file", "{rep}",
                  "--check-unimodular"], "extend_rr3-1.txt", id="extend"),
])
def test_text_output_matches_the_recorded_snapshot(capsys, tmp_path, argv, snapshot):
    """Byte for byte, the text reports of the packaged corpus, and rr3-1 extended by -Id/2."""
    rep = tmp_path / "rep.txt"
    rep.write_text("vdim=2\nmat1=-1/2,0;0,-1/2\nmat2=0\nmat3=0\nmat4=0\n")
    code, out, err = run(capsys, *(a.format(corpus=default_corpus_path(), rep=rep) for a in argv))
    assert code == 0 and err == ""
    assert out == (Path(__file__).parent / "data" / snapshot).read_text(encoding="utf-8")


def test_extend_json_matches_the_recorded_snapshot(capsys, tmp_path):
    """Byte for byte, rr3-1 extended by the scalar representation -1/2 on R^2."""
    snapshot = Path(__file__).parent / "data" / "extend_rr3-1.json"
    rep = tmp_path / "rep.txt"
    rep.write_text("vdim=2\nmat1=-1/2,0;0,-1/2\nmat2=0\nmat3=0\nmat4=0\n")
    code, out, _ = run(capsys, "extend", str(default_corpus_path()), "--name", "rr3-1",
                       "--rep-file", str(rep), "--check-unimodular", "--json")
    assert code == 0
    assert out == snapshot.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, snapshot", [
    pytest.param(["--range", "3:10", "--distinguish", "--json"], "lattice_3_10.json", id="json"),
    pytest.param(["--range", "3:10", "--distinguish"], "lattice_3_10.txt", id="txt"),
    pytest.param(["--m", str(10**400), "--json"], None, id="m_10e400_json"),
    pytest.param(["--range", "8000:8029", "--distinguish", "--json"], None, id="8000_8029_json"),
])
def test_lattice_output_matches_the_recorded_snapshot(capsys, argv, snapshot):
    """Byte for byte, the certificates and pairwise verdicts of m = 3..10, JSON and text.

    The large inputs (400-digit ints, large-m t_m floats) have no recorded
    file; their text must be what the stdlib encoder makes of their payload.
    """
    code, out, _ = run(capsys, "lattice", *argv)
    assert code == 0
    if snapshot is None:
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    else:
        assert out == (Path(__file__).parent / "data" / snapshot).read_text(encoding="utf-8")


# every code point, lone surrogates included, on any hypothesis 6.x
json_chars = st.characters() | st.integers(0xD800, 0xDFFF).map(chr)
json_scalars = (
    st.none() | st.booleans()
    | st.integers() | st.integers(min_value=2**64, max_value=10**60) | st.integers(max_value=-2**64)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf])
    | st.text(json_chars) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\ud800", "é€𝄞"])
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(json_chars, max_size=6), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_payloads)
@example({"edge": [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2**64 - 1, 10**60, True, False,
                   None, "\ud800\"\\\x00\x7fé", (), [], {}], "": ((1,), {"k": ()})})
def test_the_json_writer_matches_the_stdlib_encoder(payload):
    assert cli._json(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [
    {"x": Fraction(1, 2)}, {1: 2}, {"a": 1, 2: 3}, [{1, 2}],
], ids=["fraction-value", "int-key", "mixed-keys", "set"])
def test_the_json_writer_refuses_what_it_cannot_write(payload):
    """As json.dumps does, except for the int key, which json.dumps would write as text."""
    with pytest.raises(TypeError):
        cli._json(payload)


def test_the_json_writer_leaves_no_garbage(capsys):
    """No reference cycle per call: a self-calling closure would leave its parts to the collector."""
    code, out, _ = run(capsys, "lattice", "--range", "500:529", "--distinguish", "--json")
    assert code == 0
    payload = json.loads(out)
    gc.collect()
    gc.disable()
    try:
        text = cli._json(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text + "\n" == out


def test_regress_flags_a_corrupted_expectation(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(R2P_LINE.replace("kind=second", "kind=first") + "\n")
    code, out, _ = run(capsys, "regress", str(path))
    assert code == 1
    assert "r2p: FAIL" in out
    assert "kind: expected first" in out


@pytest.mark.parametrize("recorded, corrupted, failure", [
    ("unimodular=yes", "unimodular=no", "unimodular: expected False, computed True"),
    ("kind=second", "kind=first", "kind: expected first, computed second"),
    ("extn=0", "extn=1", "extn: expected 1, computed 0"),
    ("ideal=3,4", "ideal=1,2", "ideal: expected (1, 2), computed (3, 4)"),
    ("ideal=3,4", "ideal=none", "ideal: expected none, computed (3, 4)"),
])
def test_regress_names_each_corrupted_verdict(capsys, tmp_path, recorded, corrupted, failure):
    packaged = next(
        line for line in Path(default_corpus_path()).read_text(encoding="utf-8").splitlines(True)
        if line.startswith("name=rr3-1 ")
    )
    path = tmp_path / "bad.txt"
    path.write_text(packaged.replace(f" {recorded} ", f" {corrupted} "))
    code, out, _ = run(capsys, "regress", str(path), "--json")
    assert code == 1
    (record,) = json.loads(out)["records"]
    assert record["failures"] == [failure]


def test_regress_empty_corpus_warns(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, out, _ = run(capsys, "regress", str(path))
    assert code == 0
    assert "is empty" in out
    # under --json the empty run is reported as data
    code, out, _ = run(capsys, "regress", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"records": [], "summary": {"checked": 0, "failed": 0}}


@pytest.mark.parametrize("command", [
    ("regress", "{dir}"),
    ("check", "{dir}"),
    ("extend", "{corpus}", "--name", "rr3-1", "--rep-file", "{dir}"),
], ids=["regress", "check", "extend-rep-file"])
def test_a_directory_in_place_of_a_file_is_bad_input(capsys, tmp_path, command):
    argv = [a.format(dir=tmp_path, corpus=default_corpus_path()) for a in command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Is a directory" in err


def test_a_corpus_that_is_not_utf8_is_bad_input(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(RR3L_LINE.replace("λ", "l").encode() + b" note='\xe9'\n")
    for command in ("regress", "check"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == "", command
        assert err.startswith("error: 'utf-8' codec can't decode"), command


def test_a_corpus_that_is_not_utf8_is_named_in_the_error(capsys, tmp_path, monkeypatch):
    # read from $LCSLIE_CORPUS, the path is not even on the command line
    path = tmp_path / "latin1.txt"
    path.write_bytes(RR3L_LINE.replace("λ", "l").encode() + b" note='\xe9'\n")
    monkeypatch.setenv("LCSLIE_CORPUS", str(path))
    code, out, err = run(capsys, "regress")
    assert code == 2 and out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")
    assert err.endswith(f" in {path}\n")


def test_a_rep_file_that_is_not_utf8_is_named_in_the_error(capsys, tmp_path):
    # with a corpus and a rep file on one command line, the message says which is bad
    rep = tmp_path / "rep_latin1.txt"
    rep.write_bytes(b"vdim=2\nmat1=-1/2,0;0,-1/2\nmat2=0\nmat3=0\nmat4=0\n# \xe9\n")
    code, out, err = run(
        capsys, "extend", default_corpus_path(), "--name", "rr3-1", "--rep-file", str(rep)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")
    assert err.endswith(f" in {rep}\n")


def test_regress_env_fallback(capsys, tmp_path, monkeypatch):
    path = tmp_path / "env.txt"
    path.write_text(RR3L_LINE + "\n")
    monkeypatch.setenv("LCSLIE_CORPUS", str(path))
    code, out, _ = run(capsys, "regress", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["checked"] == 1
    assert payload["records"][0]["name"] == "rr3l"


def test_regress_isolates_a_record_that_raises(capsys, tmp_path):
    # in dimension 2 omega does not determine the Lee form, so
    # recover_lee_form raises; the next record must still be checked
    packaged = next(
        line for line in Path(default_corpus_path()).read_text(encoding="utf-8").splitlines(True)
        if line.startswith("name=rr3-1 ")
    )
    path = tmp_path / "two.txt"
    path.write_text("name=two dim=2 eq='(0,-12)' omega=1 theta=1,0\n" + packaged)
    code, out, _ = run(capsys, "regress", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"] == {"checked": 2, "failed": 1}
    two, rr31 = payload["records"]
    assert two["name"] == "two" and not two["ok"]
    assert two["failures"] == [
        "recover_lee_form: theta is not unique; omega does not determine a Lee form"
    ]
    assert rr31["name"] == "rr3-1" and rr31["ok"]


def test_regress_rejects_expectations_it_cannot_check(capsys, tmp_path):
    path = tmp_path / "noomega.txt"
    path.write_text("name=x dim=4 eq='(0,-12,13,0)' theta=1,0,0,0 kind=first ideal=1,2\n")
    code, out, err = run(capsys, "regress", str(path))
    assert code == 2
    assert "line 1: kind/ideal need both omega and theta" in err
    assert "x: ok" not in out


def test_regress_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["regress", "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_regress_verifies_each_structure_once(capsys, monkeypatch):
    # 35 corpus structures, then the base of each of the 23 decompositions;
    # the product rebuilt from a base is compared with the adapted data, not
    # verified, and g_omega is assembled once per corpus structure
    checks = counting(monkeypatch, lcs, "check_lcs")
    assemblies = counting(monkeypatch, lcs, "automorphism_algebra")
    code, out, _ = run(capsys, "regress", "--json")
    assert code == 0
    assert json.loads(out)["summary"] == {"checked": 36, "failed": 0}
    assert len(checks) == 35 + 23
    assert len(assemblies) == 35


def test_inline_target_is_parsed_once(capsys, monkeypatch):
    # the CLI reads the parser off lcslie.notation at call time
    parses = counting(monkeypatch, notation, "parse_structure_equations")
    code, _, _ = run(capsys, "cohomology", "(0,0,-12,0)", "--theta", "0,0,0,-1", "--json")
    assert code == 0
    assert len(parses) == 1


def test_lattice_builds_each_certificate_once(capsys, monkeypatch):
    builds = counting(monkeypatch, lattice, "build_certificate")
    code, _, _ = run(capsys, "lattice", "--range", "3:7", "--distinguish", "--json")
    assert code == 0
    assert len(builds) == 5


def test_lattice_pairs_build_no_model_polynomials(capsys, monkeypatch):
    # 15 pairs for 3:7, 55 for 3:12; the model polynomials are built per
    # certificate, and each inverse polynomial at most once: m = 3 is never
    # the n of a pair with m != n, so its inverse is not needed
    per_certificate = []
    original = lattice.LatticeCertificate.inverse_char_poly.func
    for window, size in (("3:7", 5), ("3:12", 10)):
        calls = counting(monkeypatch, lattice, "family_char_poly")
        inverses = []
        counted = functools.cached_property(lambda cert: inverses.append(cert.m) or original(cert))
        counted.__set_name__(lattice.LatticeCertificate, "inverse_char_poly")
        monkeypatch.setattr(lattice.LatticeCertificate, "inverse_char_poly", counted)
        code, _, _ = run(capsys, "lattice", "--range", window, "--distinguish", "--json")
        assert code == 0
        per_certificate.append(len(calls) / size)
        assert sorted(inverses) == list(range(4, 3 + size))
        monkeypatch.undo()
    assert per_certificate[0] == per_certificate[1]


@pytest.mark.parametrize("module, text, argv", [
    (lattice, "certificate_report", ["lattice", "--range", "3:7", "--distinguish"]),
    (cli, "_format_vector", ["check", "{corpus}"]),
    (cli, "_format_vector", ["cohomology", "{corpus}"]),
], ids=["lattice", "check", "cohomology"])
def test_a_json_report_builds_no_text(capsys, monkeypatch, module, text, argv):
    # text costs a large share of a 2-ms lattice operation
    calls = counting(monkeypatch, module, text)
    code, _, _ = run(capsys, *(a.format(corpus=default_corpus_path()) for a in argv), "--json")
    assert code == 0 and calls == []
    code, _, _ = run(capsys, *(a.format(corpus=default_corpus_path()) for a in argv))
    assert code == 0 and calls


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def fresh_python(*argv, check=True):
    """A fresh interpreter run on argv, importing lcslie from this checkout."""
    src = str(Path(lcslie.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=60, check=check)


def test_cli_imports_neither_numpy_nor_scipy():
    code = "import sys, lcslie.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    assert fresh_python("-c", code).stdout.strip() == "[]"


LOADED_MODULES = "print(*sorted(m for m in sys.modules if m.startswith('lcslie.')))"


def test_importing_the_package_or_the_cli_loads_no_library_module():
    assert fresh_python("-c", "import sys, lcslie; " + LOADED_MODULES).stdout.split() == []
    loaded = fresh_python("-c", "import sys, lcslie.cli; " + LOADED_MODULES).stdout.split()
    assert loaded == ["lcslie.cli"]


# the modules that reading a corpus file or an inline tuple loads
READING = ("algebra", "corpus", "exterior", "linalg", "notation")


@pytest.mark.parametrize("argv, loads", [
    (["lattice", "--range", "3:7", "--distinguish", "--json"], ["lattice"]),
    (["cohomology", "(0,0,-12,0)", "--theta", "0,0,0,-1"], [*READING, "novikov"]),
    (["cohomology", "{corpus}", "--json"], [*READING, "novikov"]),
    (["check", "(0,-12,13,0)", "--omega", "1,0,0,0,0,1", "--theta", "1,0,0,0"],
     [*READING, "lcs"]),
    (["check", "{corpus}", "--json"], [*READING, "lcs"]),
    (["extend", "{corpus}", "--name", "rr3-1", "--rep-file", "{rep}", "--check-unimodular"],
     [*READING, "construct", "lcs"]),
    (["regress", "{corpus}", "--json"], [*READING, "construct", "lcs", "novikov"]),
], ids=["lattice", "cohomology-inline", "cohomology-corpus", "check-inline", "check-corpus",
        "extend", "regress"])
def test_each_subcommand_imports_only_what_it_runs(tmp_path, argv, loads):
    rep = tmp_path / "rep.txt"
    rep.write_text("vdim=2\nmat1=-1/2,0;0,-1/2\nmat2=0\nmat3=0\nmat4=0\n")
    code = ("import contextlib, io, sys\n"
            "from lcslie.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    print(main(sys.argv[1:]), file=sys.stderr)\n"
            + LOADED_MODULES)
    proc = fresh_python("-c", code, *(a.format(corpus=default_corpus_path(), rep=rep)
                                      for a in argv))
    assert proc.stderr == "0\n"
    assert set(proc.stdout.split()) == {"lcslie.cli", *(f"lcslie.{m}" for m in loads)}


def test_lattice_loads_neither_dataclasses_nor_inspect():
    # LatticeCertificate is written out: dataclasses, and inspect with it,
    # were most of the cost of importing lcslie.lattice
    code = ("import contextlib, io, sys\n"
            "from lcslie.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    print(main(['lattice', '--m', '5', '--json']), file=sys.stderr)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = fresh_python("-c", code)
    assert (proc.stderr, proc.stdout) == ("0\n", "[]\n")


@pytest.mark.parametrize("argv, err", [
    (["cohomology", "(0,,0)"], "error: entry 2 is empty; write 0 for a closed e^2\n"),
    (["regress", "{bad}"], "error: line 1: dim is not an integer\n"),
    (["check", "{bad}"], "error: line 1: dim is not an integer\n"),
    (["lattice", "--range", "1:4"], "error: need m > 2, got 1\n"),
], ids=["notation-error", "corpus-error-regress", "corpus-error-check", "lattice-range"])
def test_unparseable_input_exits_2_with_one_error_line(tmp_path, argv, err):
    # in a fresh process, where the modules that raise are imported by the command
    bad = tmp_path / "bad.txt"
    bad.write_text("name=a dim=two eq='(0,0)'\n")
    proc = fresh_python("-m", "lcslie.cli", *(a.format(bad=bad) for a in argv), check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


# the public names of lcslie, grouped by their home module, in __all__ order
PUBLIC_API = (
    ("algebra", ("LieAlgebra", "abelian", "change_basis")),
    ("exterior", ("KForm", "basis_form", "ce_differential", "check_jacobi", "is_unimodular")),
    ("notation", ("StructureEquationSource", "format_structure_equations",
                  "parse_structure_equations")),
    ("lcs", ("Kind", "KindVerdict", "LCSStructure", "automorphism_algebra", "check_lcs",
             "classify_kind", "recover_lee_form")),
    ("novikov", ("CohomologyReport", "cohomology", "is_exact_class")),
    ("corpus", ("CorpusEntry", "load_corpus", "save_corpus")),
    ("construct", ("Representation", "SymplecticSpace", "decompose", "extend",
                   "find_nondegenerate_abelian_ideal", "is_lcs_representation",
                   "unimodular_extension_dim")),
    ("lattice", ("LatticeCertificate", "build_certificate", "companion_matrix",
                 "distinguish_solvmanifolds", "family_char_poly")),
)


def test_every_exported_name_resolves():
    missing = [name for name in lcslie.__all__ if not hasattr(lcslie, name)]
    assert missing == []
    assert len(set(lcslie.__all__)) == len(lcslie.__all__)
    # the package resolves each name lazily, to the object its home module holds
    assert lcslie.__all__ == [name for _, names in PUBLIC_API for name in names]
    for home, names in PUBLIC_API:
        module = importlib.import_module(f"lcslie.{home}")
        for name in names:
            assert getattr(lcslie, name) is getattr(module, name), name
    assert set(lcslie.__all__) <= set(dir(lcslie))
    namespace = {}
    exec("from lcslie import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lcslie.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        lcslie.no_such_name
    assert not hasattr(lcslie, "no_such_name")
