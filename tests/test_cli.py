"""End-to-end command-line behavior, run in process."""

import json

import pytest

from lcslie import cli, lattice, lcs
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
    assert "name=rr3l-ext" in payload["record"]


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


def test_extend_rejects_incompatible_representation(capsys, tmp_path, small_corpus):
    # symmetric part -Id/2 does not match theta = (2/3) e^1
    rep = write_rep(tmp_path, "rep_bad.txt", [0, -1, -1, 0])
    code, _, err = run(
        capsys, "extend", str(small_corpus), "--name", "r2p", "--rep-file", str(rep)
    )
    assert code == 1
    assert "not compatible" in err


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


def test_lattice_single_member(capsys):
    code, out, _ = run(capsys, "lattice", "--m", "3")
    assert code == 0
    assert "m = 3" in out
    assert "residual" in out


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
    assert all(c["residual"] < 1e-9 for c in payload["certificates"])
    pairs = payload["distinguish"]
    assert len(pairs) == 6
    for item in pairs:
        assert item["distinct"] == (item["m"] != item["n"])


def test_regress_packaged_corpus(capsys):
    code, out, _ = run(capsys, "regress", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["checked"] == 36
    assert all(r["ok"] for r in payload["records"])


def test_regress_flags_a_corrupted_expectation(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(R2P_LINE.replace("kind=second", "kind=first") + "\n")
    code, out, _ = run(capsys, "regress", str(path))
    assert code == 1
    assert "r2p: FAIL" in out
    assert "kind: expected first" in out


def test_regress_empty_corpus_warns(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, out, _ = run(capsys, "regress", str(path))
    assert code == 0
    assert "is empty" in out


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
        line for line in open(default_corpus_path(), encoding="utf-8")
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
    # 35 corpus structures, plus the base and the rebuilt product of each
    # of the 23 decompositions; g_omega is assembled once for each corpus
    # structure and once for each rebuilt product, whose kind is checked
    checks = counting(monkeypatch, lcs, "check_lcs")
    assemblies = counting(monkeypatch, lcs, "automorphism_algebra")
    code, out, _ = run(capsys, "regress", "--json")
    assert code == 0
    assert json.loads(out)["summary"] == {"checked": 36, "failed": 0}
    assert len(checks) == 35 + 2 * 23
    assert len(assemblies) == 35 + 23


def test_inline_target_is_parsed_once(capsys, monkeypatch):
    parses = counting(monkeypatch, cli, "parse_structure_equations")
    code, _, _ = run(capsys, "cohomology", "(0,0,-12,0)", "--theta", "0,0,0,-1", "--json")
    assert code == 0
    assert len(parses) == 1


def test_lattice_builds_each_certificate_once(capsys, monkeypatch):
    builds = counting(monkeypatch, lattice, "build_certificate")
    code, _, _ = run(capsys, "lattice", "--range", "3:7", "--distinguish", "--json")
    assert code == 0
    assert len(builds) == 5
