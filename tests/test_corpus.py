"""Corpus record format: round trips and malformed-line diagnostics."""

import importlib.util
from pathlib import Path

import pytest

from lcslie import lcs, novikov
from lcslie.corpus import (
    ENV_CORPUS,
    CorpusError,
    RecomputeError,
    default_corpus_path,
    format_entry,
    load_corpus,
    parse_entry,
    recompute,
    save_corpus,
)

GOOD = "name=rr3-1 dim=4 eq='(0,-12,13,0)' omega=1,0,0,0,0,1 theta=1,0,0,0 kind=second unimodular=yes extn=0 ideal=3,4 group=unimodular4"


def test_shipped_corpus_round_trips(shipped):
    for entry in shipped:
        assert parse_entry(format_entry(entry)) == entry


def test_entry_accessors(by_name):
    entry = by_name["rr3-1"]
    g = entry.algebra()
    assert g.dim == 4
    omega = entry.omega_form()
    assert omega.coefficient((1, 2)) == 1 and omega.coefficient((3, 4)) == 1
    theta = entry.theta_form()
    assert theta.coefficient((1,)) == 1
    assert entry.ideal == (3, 4)


def test_optional_fields_default_to_none():
    entry = parse_entry("name=x dim=2 eq='(0,0)'")
    assert entry.omega is None and entry.theta is None
    assert entry.omega_form() is None and entry.theta_form() is None
    assert entry.kind is None and entry.unimodular is None
    assert entry.extn is None and entry.ideal is None


@pytest.mark.parametrize(
    "line,message",
    [
        ("name=x dim=4 eq='(0,0,0,0)' stray", "not key=value"),
        ("name=x dim=4 eq='(0,0,0,0)' color=red", "unknown key"),
        ("name=x name=y dim=4 eq='(0,0,0,0)'", "duplicate key"),
        ("name=x eq='(0,0,0,0)'", "missing required key 'dim'"),
        ("dim=4 eq='(0,0,0,0)'", "missing required key 'name'"),
        ("name=x dim=four eq='(0,0,0,0)'", "dim is not an integer"),
        ("name=x dim=4 eq='(0,0,0,0)' omega=1,0", "omega needs 6 entries"),
        ("name=x dim=4 eq='(0,0,0,0)' theta=1,0", "theta needs 4 entries"),
        ("name=x dim=4 eq='(0,0,0,0)' omega=1,0,0,0,0,z", "bad rational in omega"),
        ("name=x dim=4 eq='(0,0,0,0)' theta=1/0,0,0,0",
         "^line 7: bad rational in theta: '1/0' has a zero denominator$"),
        ("name=x dim=4 eq='(0,0,0,0)' kind=third", "kind must be"),
        ("name=x dim=4 eq='(0,0,0,0)' unimodular=maybe", "unimodular must be yes or no"),
        ("name=x dim=4 eq='(0,0,0,0)' extn=two", "bad extn value"),
        ("name=x dim=4 eq='(0,0,0,0)' extn=1", "extn needs a nonzero theta"),
        ("name=x dim=4 eq='(0,0,0,0)' theta=0,0,0,0 extn=none", "extn needs a nonzero theta"),
        ("name=x dim=4 eq='(0,0,0,0)' omega=1,0,0,0,0,1 theta=0,0,0,0 ideal=1,2", "ideal needs a nonzero theta"),
        ("name=x dim=4 eq='(0,0,0,0)' omega=1,0,0,0,0,1 theta=0,0,0,0 ideal=none", "ideal needs a nonzero theta"),
        ("name=x dim=4 eq='(0,0,0,0)' ideal=3;4", "bad ideal indices"),
        ("name=x dim=4 eq='(0,0,0,0)' ideal=3,9", "ideal indices out of range"),
        ("name=x dim=4 eq='(0,0,0,0)' params=λ", "lacks '='"),
        ("name=x dim=4 eq='(0,0,0,0)' params=λ=z", "bad parameter value"),
        ("name=x dim=4 eq='(0,0,0,0", "closing quotation"),
    ],
)
def test_malformed_lines(line, message):
    with pytest.raises(CorpusError, match=message):
        parse_entry(line, lineno=7)


def test_error_messages_carry_the_line_number():
    with pytest.raises(CorpusError, match="line 7"):
        parse_entry("name=x dim=4 eq='(0,0,0,0)' kind=third", lineno=7)


def test_load_corpus_skips_comments_and_rejects_duplicates(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("# header comment\n\n" + GOOD + "\n")
    entries = load_corpus(path)
    assert len(entries) == 1 and entries[0].name == "rr3-1"

    path.write_text(GOOD + "\n" + GOOD + "\n")
    with pytest.raises(CorpusError, match="duplicate record name"):
        load_corpus(path)


def test_save_and_reload_preserves_notes_with_spaces(tmp_path, by_name):
    entry = by_name["r2r2"]
    assert " " in entry.note
    path = tmp_path / "out.txt"
    save_corpus([entry], path)
    (reloaded,) = load_corpus(path)
    assert reloaded == entry


def test_params_round_trip():
    line = "name=p dim=4 eq='(0,-12,-λ13,0)' params='λ=-1/3'"
    entry = parse_entry(line)
    g = entry.algebra()
    # [e1, e3] = λ e3 with λ = -1/3
    assert g.basis_bracket(1, 3)[2] == pytest.approx(-1 / 3)
    assert parse_entry(format_entry(entry)) == entry


def test_default_corpus_path_env_override(monkeypatch, tmp_path):
    override = tmp_path / "alt.txt"
    monkeypatch.setenv(ENV_CORPUS, str(override))
    assert default_corpus_path() == str(override)
    monkeypatch.delenv(ENV_CORPUS)
    assert default_corpus_path().endswith("data/corpus.txt")


def test_packaged_records_are_fixed_points_of_recompute(shipped):
    for entry in shipped:
        assert recompute(entry) == entry


def test_recompute_names_the_step_that_fails(monkeypatch, by_name):
    with pytest.raises(RecomputeError, match=r"^parse: declared dim 6 but tuple has arity 4$"):
        recompute(parse_entry("name=x dim=6 eq='(0,-12,13,0)'"))
    with pytest.raises(RecomputeError, match=r"^check_lcs: not an LCS structure: theta is not closed$"):
        recompute(parse_entry("name=x dim=4 eq='(0,-12,13,0)' omega=1,0,0,0,0,1 theta=0,1,0,0"))
    monkeypatch.setattr(novikov, "is_exact_class", lambda g, theta, omega: True)
    with pytest.raises(RecomputeError, match=r"^exactness: primitive search and rank computation disagree$"):
        recompute(by_name["rr3-1"])
    monkeypatch.setattr(lcs, "lee_form_candidate", lambda g, omega: None)
    with pytest.raises(RecomputeError, match=r"^recover_lee_form: does not reproduce the recorded theta$"):
        recompute(by_name["rr3-1"])


def test_build_corpus_reproduces_the_packaged_corpus():
    """scripts/build_corpus.py, run without writing, yields corpus.txt line for line.

    Its process() recomputes and asserts every verdict of every record,
    the Lee form and the exactness of omega included.
    """
    script = Path(__file__).resolve().parent.parent / "scripts" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", script)
    build_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_corpus)
    lines = [format_entry(build_corpus.process(row)) for row in build_corpus.ALL]
    assert lines == build_corpus.OUT.read_text(encoding="utf-8").splitlines()
