"""End-to-end command-line behaviour: formats, golden files, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verba.harness as harness
from verba.cli import _COMMANDS, _build_parser, _parse_args, main
from verba.words import parse_word


def run_cli(args):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_parse_canonicalizes_and_classifies():
    code, out = run_cli(["parse", "[x1,x2,x3]"])
    assert code == 0
    assert "canonical: [[x1,x2],x3]" in out
    assert "outer-commutator: yes" in out
    assert "non-commutator: no" in out
    canon = out.splitlines()[0].split(": ", 1)[1]
    assert parse_word(canon) == parse_word("[x1,x2,x3]")


def test_parse_power_word():
    code, out = run_cli(["parse", "x1^3"])
    assert code == 0 and "non-commutator: yes (x1 has exponent sum 3)" in out


def test_eval_command():
    code, out = run_cli(["eval", "--group", "quat:8", "--word", "[x1,x2]", "--assign", "x1=2,x2=4"])
    assert code == 0 and "(-1)" in out


def test_eval_names_its_value_without_naming_every_element(monkeypatch):
    built = []

    def resolve(spec, cap):
        built.append(harness.resolve_group(spec, cap))
        return built[-1]

    monkeypatch.setattr("verba.cli.resolve_group", resolve)
    code, out = run_cli(["eval", "--group", "sym:6", "--word", "[x1,x2]", "--assign", "x1=1,x2=7"])
    (G,) = built
    assert code == 0 and G._names is None  # one name built, not 720
    value = int(out.split()[0])
    assert out == f"{value} ({G.element_names[value]})\n"


def test_eval_non_numeric_index_is_a_usage_error(capsys):
    for bad in ("zz", "a1", "1.5", ""):
        code, out = run_cli(
            ["eval", "--group", "sym:3", "--word", "gamma:2", "--assign", f"x1={bad},x2=0"]
        )
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: element index") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("assign", [
    "x1=1,x2=2,x5=3",  # a variable the word does not have
    "x1=1,x2=2,y1=0",
    "x1=1,x2=2,x1^2=3",  # a word that is not a variable
    "[x1,x2]=1",  # split at its comma into "[x1" and "x2]=1"
])
def test_eval_unknown_names_are_usage_errors(capsys, assign):
    code, out = run_cli(["eval", "--group", "sym:3", "--word", "gamma:2", "--assign", assign])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_repeated_variable_is_a_usage_error(capsys):
    for assign in ("x1=1,x2=2,x1=3", "x1=1, x1 =1,x2=0"):
        code, out = run_cli(["eval", "--group", "sym:3", "--word", "gamma:2", "--assign", assign])
        err = capsys.readouterr().err
        assert (code, out, err) == (2, "", "error: variable x1 is assigned more than once\n")


# each spec has one entry per variable once its empty entry is dropped
@pytest.mark.parametrize("tuple_spec, word", [("G,", "gamma:1"), (",G", "gamma:1"), ("G,,G", "gamma:2")])
def test_empty_tuple_entry_is_a_usage_error(capsys, tuple_spec, word):
    argv = ["check", "L2.3", "--group", "sym:3", "--word", word, "--tuple", tuple_spec]
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert (code, out, err) == (2, "", "error: unknown tuple entry ''\n")


@pytest.mark.parametrize("entry, index", [
    ("ncl()", ""), ("ncl(1,)", ""), ("ncl(,1)", ""), ("ncl(1,,2)", ""),
    ("set:(0,,3);n=1", ""), ("set:();n=1", ""), ("ncl(1 2)", "1 2"),
])
def test_empty_element_index_is_a_usage_error(capsys, entry, index):
    """Indices are split at commas alone, so an empty or space-separated
    index is no index; `ncl(1, 2)` still reads 1 and 2."""
    code, out = run_cli(["values", "--group", "sym:3", "--word", "x1", "--tuple", entry])
    err = capsys.readouterr().err
    assert (code, out, err) == (2, "", f"error: element index {index!r} is not a number\n")


@pytest.mark.parametrize("argv", [
    ["values", "--group", "sym:3", "--word", "gamma:2"],
    ["verbal", "--group", "sym:3", "--word", "gamma:2"],
    ["check", "L2.3", "--group", "sym:3", "--word", "gamma:2"],
    ["series", "gamma", "--group", "sym:3"],
])
def test_empty_tuple_spec_is_a_usage_error(capsys, argv):
    """An explicitly empty --tuple is not the all-G default of no --tuple."""
    code, out = run_cli(argv + ["--tuple", ""])
    err = capsys.readouterr().err
    assert (code, out, err) == (2, "", "error: empty tuple spec\n")


def test_parse_refuses_long_expansions_before_allocating(capsys):
    import tracemalloc

    for word in ("x1^1000000000", "((x1^1000)^1000)^1000"):
        tracemalloc.start()
        try:
            code, out = run_cli(["parse", word])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 3 and out == ""
        assert err.startswith("budget exceeded: free reduction needs 1000000000 letters")
        assert peak < 1 << 20


def test_verbal_command_quat():
    code, out = run_cli(["verbal", "--group", "quat:8", "--word", "[x1,x2]", "--tuple", "G,G"])
    assert code == 0
    assert "2" in out.split("\n")[1]


def test_values_command_jsonl():
    code, out = run_cli(["values", "--group", "quat:8", "--word", "gamma:2", "--format", "jsonl"])
    assert code == 0
    row = json.loads(out.strip())
    assert row["m"] == 2
    assert list(row) == sorted(row)


def test_series_command_lists_five_factors():
    code, out = run_cli(["series", "delta", "--group", "sym:4", "--k", "2"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(lines) == 5
    assert "5 factors" in out


def test_series_gamma_command():
    code, out = run_cli(["series", "gamma", "--group", "sym:3", "--r", "2"])
    assert code == 0 and "2 factors" in out


def test_series_rejects_non_positive_r():
    for r in ("0", "-1"):
        code, out = run_cli(["series", "gamma", "--group", "sym:3", "--r", r])
        assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["delta", "--group", "sym:3", "--k", "-1"],
    ["delta", "--group", "sym:3", "--k", "40"],
    ["delta", "--group", "cyc:1", "--k", "7"],  # 128 entries, past the word-spec bound
    ["gamma", "--group", "cyc:2", "--r", "1500"],
    ["gamma", "--group", "sym:3", "--tuple", "G,G", "--r", "3"],
    ["delta", "--group", "sym:3", "--tuple", "G,G", "--k", "2"],
    ["delta", "--group", "sym:3", "--r", "5"],  # the other kind's parameter
    ["gamma", "--group", "sym:3", "--k", "5"],
])
def test_series_parameters_off_range_or_off_the_tuple_are_usage_errors(capsys, argv):
    code, out = run_cli(["series", *argv])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verbal_takes_set_entries_as_the_value_domain(capsys):
    # x1^2 over the subset {(), (1 2), (1 3), (2 3)} takes only the value 1,
    # over the group it generates the squares of the 3-cycles as well
    argv = ["verbal", "--group", "sym:3", "--word", "x1^2", "--format", "jsonl", "--tuple"]
    code, out = run_cli(argv + ["set:(0,1,2,5);n=3"])
    assert code == 0 and json.loads(out)["order"] == 1
    code, out = run_cli(argv + ["G"])
    assert code == 0 and json.loads(out)["order"] == 3
    code, out = run_cli(argv + ["set:(0,1,2,5);n=2"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: entry 1: some 2-th power escapes the subset\n"


@pytest.mark.parametrize("tup", ["ncl(10^30)", "G,ncl(3,10^30)", "set:(10^30);n=2", "ncl(24)"])
def test_element_indices_of_any_size_outside_the_group_are_usage_errors(capsys, tup):
    index = str(10**30) if "10^30" in tup else "24"
    tup = tup.replace("10^30", str(10**30))
    word = "gamma:2" if "," in tup else "gamma:1"
    code, out = run_cli(["check", "L2.3", "--group", "sym:4", "--word", word, "--tuple", tup])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: element index {index} outside 0..23\n"


LONG = "9" * 5000  # past the 4,300 digits Python's int converts from text


@pytest.mark.parametrize("argv, error", [
    (["values", "--group", f"cyc:{LONG}", "--word", "x1"], f"cannot parse group spec 'cyc:{LONG}'"),
    (["values", "--group", "sym:3", "--word", f"x{LONG}"], "syntax error at position 0: variable index is too long"),
    (["parse", f"x{LONG}"], "syntax error at position 0: variable index is too long"),
    (["values", "--group", "sym:3", "--word", f"x1^{LONG}"], "syntax error at position 3: number is too long"),
    (["parse", f"x1^{LONG}"], "syntax error at position 3: number is too long"),
    (["values", "--group", "sym:3", "--word", "x1", "--tuple", f"ncl({LONG})"],
     f"element index '{LONG}' is not a number"),
    (["values", "--group", "sym:3", "--word", "x1", "--tuple", f"set:(0);n={LONG}"],
     f"cannot parse tuple entry 'set:(0);n={LONG}'"),
    (["values", "--group", "{perm}", "--word", "x1"], f"cannot parse cycle notation '(1 {LONG})'"),
], ids=["cyc", "values-index", "parse-index", "values-exponent", "parse-exponent", "ncl", "set-n", "perm-point"])
def test_numbers_past_pythons_digit_limit_are_usage_errors(tmp_path, capsys, argv, error):
    """Each site gives the error it gives a malformed number, not a traceback."""
    perm = tmp_path / "long.grp"
    perm.write_text(f"perm 3 1\n(1 {LONG})\n")
    code, out = run_cli([a.replace("{perm}", str(perm)) for a in argv])
    assert (code, out, capsys.readouterr().err) == (2, "", f"error: {error}\n")


def test_check_command():
    code, out = run_cli(["check", "L2.3", "--group", "sym:3", "--word", "gamma:2", "--tuple", "G,G"])
    assert code == 0 and "pass" in out


def test_suite_csv_deterministic(tmp_path):
    args = [
        "suite", "--catalog", str(_catalog(tmp_path)), "--ids", "L2.1,L2.3",
        "--seed", "7", "--format", "csv",
    ]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("check,group,word,tuple,mode,status,detail")


def _catalog(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text("# tiny catalog\ncyc:4\nsym:3\n")
    return path


def test_survey_csv_golden(tmp_path):
    out_path = tmp_path / "survey.csv"
    code, _ = run_cli([
        "survey", "--word", "gamma:2", "--catalog", str(_quat_catalog(tmp_path)),
        "--format", "csv", "--out", str(out_path),
    ])
    assert code == 0
    with open("tests/golden/survey_quat8_gamma2.csv", "r", encoding="utf-8") as fh:
        assert out_path.read_text() == fh.read()


def _quat_catalog(tmp_path):
    path = tmp_path / "quat.txt"
    path.write_text("quat:8\n")
    return path


def test_probe_command():
    code, out = run_cli(["probe", "--word", "[[x1,x2],x3,x4]", "--catalog", "/dev/null"])
    assert code == 0


def test_probe_mismatch_is_a_verification_failure(tmp_path, monkeypatch, capsys):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("sym:3\n")
    args = ["probe", "--word", "gamma:2", "--catalog", str(catalog)]
    assert run_cli(args)[0] == 0
    # A verbal subgroup that disagrees with the value-set closure: the full
    # group where [S3,S3] is A3.
    monkeypatch.setattr(
        harness, "verbal_subgroup", lambda w, sets, budget=None: sets[0].group.full_subgroup()
    )
    code, out = run_cli(args)
    assert code == 1 and out == ""
    assert "internal invariant violated" in capsys.readouterr().err


def test_group_file_through_cli(tmp_path):
    path = tmp_path / "v4.grp"
    path.write_text("perm 4 2\n(1 2)(3 4)\n(1 3)(2 4)\n")
    code, out = run_cli(["verbal", "--group", str(path), "--word", "gamma:2", "--tuple", "G,G"])
    assert code == 0 and "1" in out.splitlines()[1]


MALFORMED_GROUP_FILES = {
    "non-numeric order": "cayley x\n0\n",
    "no generator count": "perm 3\n(1 2)\n",
    "non-numeric entry": "cayley 2\n0 1\n1 q\n",
    "short row": "cayley 2\n0 1\n1\n",
    "long row": "cayley 2\n0 1 0\n1 0\n",
    "entry beyond int32": "cayley 2\n0 1\n1 4294967296\n",
    "entry beyond int64": "cayley 1\n99999999999999999999\n",
    "non-numeric cycle point": "perm 3 1\n(1 q)\n",
}


@pytest.mark.parametrize("text", list(MALFORMED_GROUP_FILES.values()), ids=list(MALFORMED_GROUP_FILES))
def test_malformed_group_file_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    code, out = run_cli(["values", "--group", str(path), "--word", "gamma:2"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["series", "gamma", "--group", "sym:3", "--mode", "sampled", "--seed", "9"],
    ["values", "--group", "sym:3", "--word", "gamma:2", "--seed", "1"],
    ["eval", "--group", "sym:3", "--word", "gamma:2", "--assign", "x1=1,x2=2", "--format", "csv"],
    ["series", "gamma", "--group", "sym:3", "--r", "2", "--audit"],
    ["series", "delta", "--group", "sym:3", "--audit"],
])
def test_removed_flags_are_usage_errors(argv):
    assert run_cli(argv)[0] == 2


@pytest.mark.parametrize("word", ["gamma:1500", "gamma:0", "delta:40", "delta:" + "9" * 5000])
def test_oversized_word_specs_are_usage_errors(capsys, word):
    code, out = run_cli(["values", "--group", "cyc:2", "--word", word])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: syntax error") and "Traceback" not in err


def test_largest_word_specs_still_run():
    for word in ("gamma:101", "delta:6"):
        assert run_cli(["values", "--group", "cyc:2", "--word", word])[0] == 0


def test_usage_errors_are_exit_2(tmp_path, capsys):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("sym:3\n")
    for argv in (
        ["suite", "--catalog", str(catalog), "--seed", "-1"],
        ["survey", "--catalog", str(catalog), "--word", "gamma:2", "--seed", "-1"],
        ["probe", "--catalog", str(catalog), "--word", "gamma:2", "--seed", "-1"],
    ):
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
    assert run_cli(["values", "--group", "nosuch:7", "--word", "gamma:2"])[0] == 2
    assert run_cli(["values", "--group", "sym:3", "--word", "x1**"])[0] == 2
    capsys.readouterr()
    assert run_cli(["values", "--group", "sym:3", "--word", "x1", "--tuple", "set:(1);n=2"]) == (2, "")
    assert capsys.readouterr().err == "error: subset of sym:3 is not closed under conjugation\n"
    assert run_cli(["nonsense"])[0] == 2
    assert run_cli([])[0] == 2
    assert run_cli(["check", "L9.9", "--group", "sym:3", "--word", "gamma:2"])[0] == 2
    capsys.readouterr()
    for ids in ("", "L2.1,,L2.3"):
        assert run_cli(["suite", "--catalog", str(catalog), "--ids", ids]) == (2, "")
        assert capsys.readouterr().err == "error: unknown check id ''\n"
    # '-' stands for no word in L2.8 rows only
    assert run_cli(["check", "L2.1", "--group", "sym:3", "--word", "-", "--tuple", "G,G"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: L2.1 needs a word") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["parse", "x²"],
    ["parse", "x1^²"],
    ["values", "--group", "sym:3", "--word", "x1", "--tuple", "ncl(²)"],
    ["values", "--group", "quat:8", "--word", "x1", "--cap", "5"],
])
def test_non_ascii_digits_and_groups_over_the_cap_are_usage_errors(capsys, argv):
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("check_id, word, tup", [
    ("T2.10", "delta:2", None),  # the gamma:4 series would run on G,G,G,G
    ("T2.11-bound", "delta:2", None),
    ("T2.10", "[x2,x1]", None),
    ("T3.6", "[x1,x2,x3,x4]", None),  # the delta:2 series would run
    ("T3.7-bound", "[x1,x2,x3,x4]", None),
    ("T3.6", "[[x1,x2],x3]", None),  # 3 entries: no delta word
    ("T3.6", "x1", None),
    ("L2.8", "[[x1,x2],x3]", "G,G,G"),  # the word was ignored
    ("L2.8", "-", "G"),  # one entry ran as G,G,G
    ("L2.8", "-", "G,G,G,G"),
    ("L2.1", "-", "G,G"),
    ("C2.12", "x1^2", None),
])
def test_a_word_off_its_checks_kind_is_a_usage_error_naming_the_id(capsys, check_id, word, tup):
    argv = ["check", check_id, "--group", "sym:4", "--word", word] + (["--tuple", tup] if tup else [])
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {check_id} ") and "Traceback" not in err


@pytest.mark.parametrize("check_id, word", [
    ("T2.10", "gamma:3"),
    ("T2.10", "[[x1,x2],x3]"),
    ("T2.11-bound", "gamma:2"),
    ("T3.6", "delta:2"),
    ("T3.6", "[x1,x2]"),  # delta:1, the same word as gamma:2
    ("T3.7-bound", "delta:1"),
    ("L2.8", "-"),
])
def test_a_word_of_its_checks_kind_runs(check_id, word):
    code, out = run_cli(["check", check_id, "--group", "sym:3", "--word", word])
    assert code == 0 and " pass " in out


def test_a_series_word_runs_the_series_of_its_checks_kind():
    # gamma:2 is delta:1: T3.6 prints the delta count, T2.10 the gamma one
    _, delta_row = run_cli(["check", "T3.6", "--group", "sym:3", "--word", "gamma:2", "--format", "csv"])
    _, gamma_row = run_cli(["check", "T2.10", "--group", "sym:3", "--word", "delta:1", "--format", "csv"])
    assert ',pass,"t=2, orders' in delta_row and ',pass,"2 factors, orders' in gamma_row


@pytest.mark.parametrize("argv", [
    ["series", "delta", "--group", "sym:6", "--k", "1", "--budget", "1000"],
    ["check", "L2.8", "--group", "sym:6", "--word", "-", "--budget", "1000"],
])
def test_budget_bounds_the_subgroup_meshes(capsys, argv):
    # the first step of each is the 720 x 720 commutator mesh [S6,S6]
    code, out = run_cli(argv)
    assert code == 3
    assert "commutator mesh needs 518400 tuples, budget is 1000" in out + capsys.readouterr().err


def test_l28_check_without_a_word_matches_the_suite_row(tmp_path):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("sym:3\n")
    code, out = run_cli(["check", "L2.8", "--group", "sym:3", "--word", "-", "--format", "csv"])
    assert code == 0
    row = out.splitlines()[1]
    assert row.startswith('L2.8,sym:3,-,"G,G,G",exhaustive,pass,')
    _, suite_out = run_cli(["suite", "--catalog", str(catalog), "--ids", "L2.8", "--format", "csv"])
    assert row in suite_out.splitlines()


def test_l28_budget_counts_quotient_tuples():
    # 16 tuples in S4/A4 stand for the 24^4 in S4
    argv = ["check", "L2.8", "--group", "sym:4", "--word", "-", "--tuple", "G,G,G", "--budget", "1000"]
    code, out = run_cli(argv)
    assert code == 0 and "pass" in out and "(331776 tuples)" in out


def test_suite_workers_flag_is_a_usage_error():
    assert run_cli(["suite", "--catalog", "/dev/null", "--workers", "2"])[0] == 2


def test_deeply_nested_word_is_a_usage_error(capsys):
    nested = "x1"
    for i in range(2, 1202):
        nested = f"[{nested},x{i}]"  # [[[x1,x2],x3],...,x1201]
    flat = "[" + ",".join(f"x{i}" for i in range(1, 1202)) + "]"  # the same word
    for word in (nested, flat):
        for argv in (["parse", word], ["values", "--group", "cyc:2", "--word", word]):
            code, out = run_cli(argv)
            err = capsys.readouterr().err
            assert code == 2 and out == ""
            assert err.startswith("error: syntax error") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["values", "--group", "cyc:3", "--word", "gamma:2"],
        ["check", "L2.1", "--group", "sym:3", "--word", "gamma:2", "--tuple", "G,G"],
        ["series", "gamma", "--group", "sym:3", "--tuple", "G,G"],
        ["suite", "--catalog", "/dev/null"],
    ],
)
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_1_is_a_usage_error(argv, cap, capsys):
    assert run_cli([*argv, "--cap", cap]) == (2, "")
    assert capsys.readouterr().err == "error: cap must be at least 1\n"
    assert run_cli([*argv, "--cap", "1" if argv[0] == "suite" else "6"])[0] == 0


def test_budget_exit_is_3():
    code, _ = run_cli(["values", "--group", "sym:4", "--word", "x1*x2*x1", "--budget", "10"])
    assert code == 3


def test_survey_rows_over_the_budget_are_skipped_with_exit_3(tmp_path):
    catalog = tmp_path / "sym4.txt"
    catalog.write_text("sym:4\n")
    code, out = run_cli(["survey", "--word", "gamma:2", "--catalog", str(catalog), "--budget", "10", "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 3
    skipped = [r for r in rows if r["mode"] == "skipped"]
    assert skipped and all(r["m"] == "0" for r in skipped)


def test_budget_0_is_a_usage_error(capsys):
    assert run_cli(["values", "--group", "sym:3", "--word", "x1", "--budget", "0"]) == (2, "")
    assert capsys.readouterr().err == "error: budget must be at least 1\n"


def test_missing_files_are_io_errors(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    for argv in (
        ["values", "--group", "sym:3", "--word", "x1", "--out", str(missing / "out.txt")],
        ["suite", "--catalog", str(missing / "catalog.txt")],
    ):
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err.startswith("io error: ")


@pytest.mark.parametrize("word", ["[y1,x1]", "[x1,y1]"])
def test_an_extension_base_with_a_y_variable_is_a_usage_error(capsys, word):
    """Extensions insert the y-variables, so L3.2 refuses a word that has
    one; L2.6, which inserts none, still runs on it."""
    argv = ["--group", "sym:4", "--word", word]
    assert run_cli(["check", "L3.2", *argv]) == (2, "")
    err = capsys.readouterr().err
    assert err == f"error: extension base {word} has a y-variable; extensions insert the y-variables\n"
    assert run_cli(["check", "L2.6", *argv])[0] == 0


def test_verification_failure_exit_is_1(monkeypatch):
    def fail(G, tree, tup, budget):
        return "fail", "forced"

    monkeypatch.setitem(harness.CHECKS, "L2.1", dataclasses.replace(harness.CHECKS["L2.1"], run=fail))
    code, out = run_cli(["suite", "--catalog", "/dev/null", "--ids", "L2.1"])
    assert code == 0  # empty catalog: nothing ran
    code, out = run_cli(["check", "L2.1", "--group", "sym:3", "--word", "gamma:2", "--tuple", "G,G"])
    assert code == 1 and "forced" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "L2.2", "--group", "sym:3", "--word", "[[x3,x1],x2]"],
        ["check", "L2.1", "--group", "sym:3", "--word", "[[x3,x1],x2]", "--tuple", "G,derived,G"],
        ["check", "C2.13", "--group", "alt:4", "--word", "[[x3,x1],x2]"],
        ["check", "C3.9", "--group", "alt:4", "--word", "[[x3,x1],x2]"],
    ],
)
def test_checks_on_shuffled_leaves_pass(argv):
    code, out = run_cli(argv)
    assert code == 0, out


def test_help_exits_zero():
    assert run_cli(["--help"])[0] == 0


def test_env_budget(monkeypatch):
    monkeypatch.setenv("VERBA_BUDGET", "10")
    code, _ = run_cli(["values", "--group", "sym:4", "--word", "x1*x2*x1"])
    assert code == 3
    monkeypatch.setenv("VERBA_BUDGET", "lots")
    assert run_cli(["values", "--group", "sym:3", "--word", "gamma:2"])[0] == 2
    monkeypatch.delenv("VERBA_BUDGET")


# ---------------------------------------------------------------------------
# the exit-code contract over generated argv
# ---------------------------------------------------------------------------

SMALL_GROUPS = ("cyc:1", "cyc:2", "cyc:4", "cyc:6", "dih:2", "dih:3", "sym:3", "alt:3")

_var_names = st.builds("{}{}".format, st.sampled_from("xy"), st.integers(1, 3))
_atoms = st.builds(
    lambda v, e: v if e is None else f"{v}^{e}", _var_names, st.none() | st.integers(-5, 5)
)
_word_texts = st.recursive(
    _atoms,
    lambda inner: (
        st.lists(inner, min_size=2, max_size=3).map(lambda ws: "[" + ",".join(ws) + "]")
        | st.lists(inner, min_size=2, max_size=3).map(lambda ws: "(" + "*".join(ws) + ")")
        | st.builds("{}^{}".format, inner, st.integers(-5, 5))
    ),
    max_leaves=6,
)
_word_specs = st.one_of(
    _word_texts,
    st.builds("gamma:{}".format, st.integers(0, 2000)),
    st.builds("delta:{}".format, st.integers(0, 60)),
    st.text(alphabet="xy0123456789[](),*^- :gamd", max_size=14),
)
_assignments = st.lists(
    st.builds(
        "{}={}".format,
        _var_names,
        st.integers(-2, 8).map(str) | st.sampled_from(["", "q", "1.5", "x1"]),
    ),
    max_size=4,
).map(",".join)


@pytest.fixture(scope="module")
def malformed_group_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("groups")
    paths = []
    for i, text in enumerate(MALFORMED_GROUP_FILES.values()):
        path = root / f"bad{i}.grp"
        path.write_text(text)
        paths.append(str(path))
    return paths


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_exit_codes_hold_for_generated_argv(malformed_group_paths, data):
    command = data.draw(st.sampled_from(["parse", "values", "eval"]))
    word = data.draw(_word_specs)
    if command == "parse":
        argv = ["parse", word]
    else:
        group = data.draw(st.sampled_from(SMALL_GROUPS + tuple(malformed_group_paths)))
        argv = [command, "--group", group, "--word", word]
        if command == "eval":
            argv += ["--assign", data.draw(_assignments)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test
    # these subcommands verify nothing, so exit 1 (verification failure) never fits
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


CATALOG_GROUPS = ("cyc:1", "cyc:2", "cyc:4", "dih:3", "dih:4", "sym:3", "quat:8", "alt:3")
CHEAP_IDS = ("L2.1", "L2.3", "L2.8", "T2.11-bound", "C2.12", "C3.8")
NON_OCW_WORDS = ("x1^2*x2", "[x1,x2]*x3")
EIGHT_LEAF_WORDS = ("delta:3", "gamma:8")  # probe caps words at 7 leaves


@pytest.fixture(scope="module")
def catalog_path(tmp_path_factory):
    return tmp_path_factory.mktemp("catalogs") / "catalog.txt"


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_suite_survey_probe_exit_codes_hold_for_generated_argv(catalog_path, data):
    command = data.draw(st.sampled_from(("suite", "survey", "probe")))
    groups = data.draw(st.lists(st.sampled_from(CATALOG_GROUPS + ("nosuch:7",)), min_size=1, max_size=2))
    catalog_path.write_text("\n".join(groups) + "\n")
    seed = data.draw(st.integers(-3, 3))
    budget = data.draw(st.none() | st.integers(1, 50))
    argv = [command, "--catalog", str(catalog_path), "--seed", str(seed)]
    argv += [] if budget is None else ["--budget", str(budget)]
    bad = seed < 0 or "nosuch:7" in groups
    if command == "suite":
        ids = data.draw(st.lists(st.sampled_from(CHEAP_IDS + ("L9.9",)), min_size=1, max_size=3, unique=True))
        argv += ["--ids", ",".join(ids)]
        bad = bad or "L9.9" in ids
    else:
        word = data.draw(st.sampled_from(("gamma:2", "[x2,x1]") + NON_OCW_WORDS + EIGHT_LEAF_WORDS))
        argv += ["--word", word]
        bad = bad or word in NON_OCW_WORDS or (command == "probe" and word in EIGHT_LEAF_WORDS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test
    # every row states a theorem, so exit 1 (verification failure) never fits
    if bad:
        assert code == 2, (argv, code, err.getvalue())
    else:
        assert code in ((0,) if budget is None else (0, 3)), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# Groups of order at most 12, and outer commutator words on 1 to 4 distinct
# variables in random tree shape and index order.
CHECK_GROUPS = ("cyc:1", "cyc:6", "cyc:12", "dih:3", "dih:4", "dih:6", "sym:3", "alt:4", "quat:8",
                "cyc:2 x sym:3")


@st.composite
def _ocw_texts(draw):
    n = draw(st.integers(1, 4))
    indices = draw(st.permutations(range(1, 6)))[:n]

    def build(leaves):
        if len(leaves) == 1:
            return f"x{leaves[0]}"
        cut = draw(st.integers(1, len(leaves) - 1))
        return f"[{build(leaves[:cut])},{build(leaves[cut:])}]"

    return build(indices), n


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_check_and_verbal_exit_codes_on_generated_ocws(data):
    word, n = data.draw(_ocw_texts())
    group = data.draw(st.sampled_from(CHECK_GROUPS))
    entries = data.draw(st.lists(st.sampled_from(["G", "derived", "center"]), min_size=n, max_size=n))
    command = data.draw(st.sampled_from(("verbal",) + harness.CHECK_ID_SET))
    head = ["verbal"] if command == "verbal" else ["check", command]
    argv = head + ["--group", group, "--word", word, "--tuple", ",".join(entries)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test
    # every check id states a theorem, so exit 1 (verification failure) never fits
    assert code in (0, 2, 3), (argv, code, out.getvalue(), err.getvalue())
    assert "Traceback" not in err.getvalue()


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_series_exit_codes_hold_for_generated_argv(data):
    kind = data.draw(st.sampled_from(("gamma", "delta")))
    argv = ["series", kind, "--group", data.draw(st.sampled_from(CHECK_GROUPS))]
    n = data.draw(st.none() | st.integers(-2, 4))
    if n is not None:
        argv += ["--r" if kind == "gamma" else "--k", str(n)]
    entries = data.draw(st.none() | st.lists(st.sampled_from(["G", "derived", "center"]), min_size=1, max_size=4))
    if entries is not None:
        argv += ["--tuple", ",".join(entries)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test
    # every series states a theorem, so exit 1 (verification failure) never fits
    assert code in (0, 2, 3), (argv, code, out.getvalue(), err.getvalue())
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# the parser: pinned texts, one subcommand's arguments against the full tree
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]
# Help, usage and error texts at COLUMNS=80, recorded when every call still
# built the full parser (argparse as in Python 3.11).
PINNED_TEXTS = json.loads((REPO / "tests" / "golden" / "cli_texts.json").read_text(encoding="utf-8"))


def _captured(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def test_pins_cover_every_help_text():
    argvs = [pin["argv"] for pin in PINNED_TEXTS]
    assert ["--help"] in argvs and [] in argvs
    assert all([name, "--help"] in argvs for name in _COMMANDS)


@pytest.mark.parametrize("pin", PINNED_TEXTS, ids=[" ".join(p["argv"]) or "-" for p in PINNED_TEXTS])
def test_help_usage_and_error_texts_are_pinned(monkeypatch, pin):
    monkeypatch.setenv("COLUMNS", "80")
    assert _captured(lambda: main(pin["argv"])) == (pin["code"], pin["stdout"], pin["stderr"])


# `verba series … --format csv` run from the repo root: every factor's word,
# entries, linear@, degree, provenance and section, which the suite CSV never
# prints, and two budget overruns, whose text names the first budgeted call
# that overran.
SERIES_TABLES = json.loads((REPO / "tests" / "golden" / "series_tables.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("pin", SERIES_TABLES, ids=[" ".join(p["argv"][1:-2]) for p in SERIES_TABLES])
def test_series_tables_are_pinned(monkeypatch, pin):
    monkeypatch.chdir(REPO)
    assert _captured(lambda: main(pin["argv"])) == (pin["code"], pin["stdout"], pin["stderr"])


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def _value(action) -> st.SearchStrategy[str]:
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(0, 10**6).map(str)
    return st.text(alphabet="xy12:,[]^G", min_size=1, max_size=8)


@st.composite
def _argv_chunks(draw, name):
    """Valid argv chunks for `name`, read off the full parser's actions."""
    chunks = []
    for action in _subparser(_build_parser(), name)._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            chunks.append([draw(_value(action))])
        elif action.required or draw(st.booleans()):
            flag = draw(st.sampled_from(action.option_strings))
            chunks.append([flag] if action.nargs == 0 else [flag, draw(_value(action))])
    return draw(st.permutations(chunks))


def _break(draw, chunks):
    """One usage error made from valid chunks."""
    how = draw(st.sampled_from(["flag", "extra", "drop", "value"]))
    if how == "flag":
        return chunks + [["--bogus"]]
    if how == "extra" or not chunks:
        return chunks + [["extra", "words"]]
    i = draw(st.integers(0, len(chunks) - 1))
    if how == "drop":
        return chunks[:i] + chunks[i + 1 :]
    return chunks[:i] + [chunks[i][:1] + ["zz"]] + chunks[i + 1 :]


def _same_as_the_full_tree(argv):
    full = _captured(lambda: vars(_build_parser().parse_args(argv)))
    one = _captured(lambda: vars(_parse_args(argv)))
    assert one == full, argv


@pytest.mark.parametrize("name", list(_COMMANDS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_one_subcommand_parser_matches_the_full_tree(name, data):
    chunks = data.draw(_argv_chunks(name))
    if data.draw(st.booleans()):
        chunks = _break(data.draw, chunks)
    _same_as_the_full_tree([name] + [tok for chunk in chunks for tok in chunk])


# shapes the top parser could hand to a subparser differently
@pytest.mark.parametrize("argv", [
    ["values", "--group=sym:3", "--word", "gamma:2"],
    ["values", "--gr", "sym:3", "--word", "gamma:2", "--tup", "G,G"],
    ["suite", "--ca", "7"],  # ambiguous: --cap, --catalog
    ["parse", "--", "x1"],
    ["parse", "--", "--group"],
    ["parse", "x1", "extra", "words"],
    ["values", "--group", "sym:3", "--word", "gamma:2", "--bogus", "extra"],
    ["series", "gamma", "--group", "sym:3", "--r=2", "--", "delta"],
    ["check", "L2.3", "-h"],
    ["-h", "values"],
    ["values"],
    ["parse"],
])
def test_fixed_argv_shapes_match_the_full_tree(argv):
    _same_as_the_full_tree(argv)


def test_main_builds_a_parser_on_every_call(monkeypatch):
    """No parser outlives a call: a named subcommand builds its own parser
    alone, and no arguments, --help first, an unknown name or leftover
    arguments build the full tree, the top parser and nine subparsers."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    tree = ["verba"] + [f"verba {name}" for name in _COMMANDS]
    for argv, progs in (
        (["parse", "x1"], ["verba parse"]),
        (["parse", "x1"], ["verba parse"]),
        (["--help"], tree),
        ([], tree),
        (["bogus"], tree),
        (["parse", "x1", "--bogus"], ["verba parse"] + tree),
    ):
        built.clear()
        run_cli(argv)
        assert built == progs, argv


def test_module_entry_point_reads_sys_argv(monkeypatch, capsys):
    """`python -m verba.cli` takes its argv from sys.argv, which in-process
    calls never do; its exit code and output equal `main(argv)`'s."""
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "COLUMNS": "80"}
    for argv, code in (
        (["--help"], 0),
        (["parse", "[x1,x2]"], 0),
        (["values", "--group", "sym:3"], 2),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "verba.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert run_cli(argv) == (code, proc.stdout)
        assert capsys.readouterr().err == proc.stderr


# The digest `perfbench/expected/suite_seed0.json` records for the same CSV.
SUITE_SEED0_SHA256 = "423c0996544f83b7561bd09d3ee32b247afbe55057d564a10c14d87bb4ad1130"


def test_seed0_suite_csv_is_byte_identical():
    """The default suite at seed 0 prints the pinned CSV byte for byte."""
    code, out = run_cli(["suite", "--format", "csv", "--seed", "0"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SEED0_SHA256
