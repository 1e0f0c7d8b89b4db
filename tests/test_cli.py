"""Command-line behavior: formats, exit codes, piping, determinism."""

import argparse
import io
import json
import sys

import pytest

from zdg import EnumerationOptions, SgtFormatError, audit, report, sgt
from zdg.cli import main
from children import run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    proc = run_python("-m", "zdg", *argv)
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_build_the_parser_once(capsys, monkeypatch):
    assert main(["example", "null:2"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        assert main(["example", "null:2"]) == 0
    assert built == []
    assert capsys.readouterr().out.count("names: 0 x1") == 4


def test_import_leaves_the_process_pool_unloaded():
    # the streams run in this process: importing zdg, an audit and a raw
    # stream load no process pool
    code = (
        "import sys, zdg, zdg.cli\n"
        "opts = zdg.EnumerationOptions(4)\n"
        "zdg.audit(opts)\n"
        "assert sum(1 for _ in zdg.enumerate_semigroups(opts)) == 194\n"
        "print([m in sys.modules for m in ('concurrent.futures', 'multiprocessing')])"
    )
    proc = run_python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, b"[False, False]\n")


# -- example and invariants -------------------------------------------------------


def test_example_emits_parseable_sgt(capsys):
    code, out, _ = run_cli(capsys, "example", "ex3.4")
    assert code == 0
    t = sgt.loads(out)
    assert t.order == 5
    assert t.names == ("0", "a", "b", "c", "d")


def test_example_report_format(capsys):
    code, out, _ = run_cli(capsys, "example", "ex3.5", "--format", "report")
    assert code == 0
    block = json.loads(out)
    assert block["order"] == 4
    assert block["rows"][1][1] == 1


def test_unknown_example_exits_1(capsys):
    code, out, err = run_cli(capsys, "example", "nope")
    assert code == 1
    assert "unknown example" in err


@pytest.mark.parametrize("argv", [
    ("invariants", "zg:1"),
    ("example", "null:0"),
    ("example", "zg:0"),
    ("example", "ortho:zg1+null3"),
])
def test_builtin_parameter_out_of_range_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "order must be at least" in err


@pytest.mark.parametrize("eid", [
    "null:100000", "zg:100000", "powerset:6", "ortho:null20+null20",
    "ortho:powerset9999+null2", "null:" + "9" * 5000,
])
def test_builtin_order_above_32_exits_1(capsys, eid):
    code, out, err = run_cli(capsys, "check", eid)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "order above 32" in err


@pytest.mark.parametrize("eid", ["null:x", "zg:²"])
def test_builtin_parameter_not_a_number_exits_1(capsys, eid):
    code, out, err = run_cli(capsys, "example", eid)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "takes a positive integer" in err


@pytest.mark.parametrize("eid", ["null:32", "ortho:null16+null17"])
def test_builtin_of_order_32_is_accepted(capsys, eid):
    code, out, _ = run_cli(capsys, "validate", eid)
    assert code == 0
    assert "order 32" in out


@pytest.fixture
def validate_calls(monkeypatch):
    """Every call of validate, wherever the package makes it."""
    import zdg.catalog
    import zdg.cli
    import zdg.semigroup

    calls = []
    real = zdg.semigroup.validate

    def counting(table, *args, **kwargs):
        calls.append(table)
        return real(table, *args, **kwargs)

    for module in (zdg.semigroup, zdg.catalog, zdg.cli):
        monkeypatch.setattr(module, "validate", counting)
    return calls


@pytest.mark.parametrize("eid", ["null:8", "ex3.4"])
def test_builtin_is_validated_once(capsys, validate_calls, eid):
    code, _, _ = run_cli(capsys, "check", eid)
    assert code == 0
    assert len(validate_calls) == 1


def test_file_input_is_validated_once(tmp_path, capsys, validate_calls):
    path = tmp_path / "null2.sgt"
    path.write_text("2\n0 0\n0 0\n")
    code, _, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert len(validate_calls) == 1


def null_sgt(n):
    return "%d\n" % n + ("0 " * n + "\n") * n


def test_file_of_order_33_exits_1_before_validation(tmp_path, capsys, validate_calls):
    path = tmp_path / "null33.sgt"
    path.write_text(null_sgt(33))
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "order above 32" in err
    assert validate_calls == []


def test_stdin_of_order_33_exits_1_before_validation(capsys, monkeypatch, validate_calls):
    monkeypatch.setattr(sys, "stdin", io.StringIO(null_sgt(33)))
    code, out, err = run_cli(capsys, "check", "-")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "order above 32" in err
    assert validate_calls == []


def test_file_of_order_32_is_accepted(tmp_path, capsys):
    path = tmp_path / "null32.sgt"
    path.write_text(null_sgt(32))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "order 32" in out


def test_invariants_of_wheel_fixture(capsys):
    code, out, _ = run_cli(capsys, "invariants", "ex4.5")
    assert code == 0
    for line in ("chi = 4", "omega = 3", "girth = 3", "diameter = 2",
                 "vertices = 6", "edges = 10"):
        assert line in out


def test_example_pipes_into_invariants(capsys, monkeypatch):
    _, table_text, _ = run_cli(capsys, "example", "ex4.5")
    monkeypatch.setattr(sys, "stdin", io.StringIO(table_text))
    code, out, _ = run_cli(capsys, "invariants", "-")
    assert code == 0
    assert "chi = 4" in out and "omega = 3" in out


def test_invariants_report_is_json(capsys):
    code, out, _ = run_cli(capsys, "invariants", "powerset:3", "--format", "report")
    assert code == 0
    block = json.loads(out)
    assert block["chi"] == 3 and block["omega"] == 3
    assert block["graph"]["girth"] == 3
    assert len(block["decomposition"]["primes"]) == 3


def test_infinite_girth_serializes_as_string(capsys):
    _, out, _ = run_cli(capsys, "invariants", "ex3.4", "--format", "report")
    assert json.loads(out)["graph"]["girth"] == "inf"


# -- graph ------------------------------------------------------------------------


def test_graph_text_lists_adjacency(capsys):
    code, out, _ = run_cli(capsys, "graph", "ex3.4")
    assert code == 0
    assert "a: b" in out
    assert "b: a c" in out


def test_graph_dot_output(capsys):
    code, out, _ = run_cli(capsys, "graph", "ex3.8", "--format", "dot")
    assert code == 0
    assert out.startswith("graph gamma {")
    assert '"a" -- "b";' in out


def test_graph_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    # .sgt names may hold any character but whitespace and '#'; DOT quotes
    # need escapes
    path = tmp_path / "quoted.sgt"
    path.write_text('3\nnames: 0 a"b c\\d\n0 0 0\n0 0 0\n0 0 0\n')
    code, out, _ = run_cli(capsys, "graph", str(path), "--format", "dot")
    assert code == 0
    assert out == (
        'graph gamma {\n'
        '  "a\\"b";\n'
        '  "c\\\\d";\n'
        '  "a\\"b" -- "c\\\\d";\n'
        '}\n'
    )


def test_graph_bar_variant(capsys):
    _, plain, _ = run_cli(capsys, "graph", "ex4.5", "--format", "report")
    _, barred, _ = run_cli(capsys, "graph", "ex4.5", "--bar", "--format", "report")
    assert len(json.loads(plain)["edges"]) == 10
    assert len(json.loads(barred)["edges"]) == 15


# -- validate ----------------------------------------------------------------------


def test_validate_accepts_good_file(tmp_path, capsys):
    path = tmp_path / "null2.sgt"
    path.write_text("2\n0 0\n0 0\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out.startswith("valid: commutative semigroup with zero, order 2")


def test_validate_reports_violations_and_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.sgt"
    path.write_text("3\n0 0 0\n0 2 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "not-associative" in out


def test_validate_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "validate", "does/not/exist.sgt")
    assert code == 1
    assert "error:" in err


def test_validate_non_utf8_file_exits_1(tmp_path, capsys):
    path = tmp_path / "binary.sgt"
    path.write_bytes(b"2\n0 0\n0 \xff\xfe\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


def test_validate_non_utf8_stdin_exits_1(capsys, monkeypatch):
    raw = io.BytesIO(b"2\n0 0\n0 \xff\xfe\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    code, out, err = run_cli(capsys, "validate", "-")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


# each malformed .sgt text with the message sgt.loads raises for it
BAD_SGT = [
    ("# only a comment\n\n", "empty input"),
    ("two\n0 0\n0 0\n", "first line must be the order, got 'two'"),
    ("0\n", "order must be at least 1, got 0"),
    ("2\nnames: 0\n0 0\n0 0\n", "expected 2 names, got 1"),
    ("2\n0 0\n", "expected 2 table rows, got 1"),
    ("2\n0 0\n0\n", "row 1 has 1 entries, expected 2"),
    ("2\n0 0\n0 x\n", "row 1 has a non-integer entry: '0 x'"),
]


BAD_SGT_IDS = ["empty", "order-line", "order-0", "names", "rows", "row-length", "entry"]


@pytest.mark.parametrize("text, message", BAD_SGT, ids=BAD_SGT_IDS)
def test_loads_rejects_malformed_text(text, message):
    with pytest.raises(SgtFormatError) as info:
        sgt.loads(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", BAD_SGT, ids=BAD_SGT_IDS)
def test_validate_of_a_malformed_file_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "bad.sgt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message


def test_validate_lists_twenty_violations_and_says_more_exist(tmp_path, capsys):
    # x*y = x: seven products with 0 and 28 pairs break the laws
    n = 8
    path = tmp_path / "left.sgt"
    path.write_text("%d\n" % n + "".join(" ".join([str(x)] * n) + "\n" for x in range(n)))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 22
    assert lines[-2] == "... more violations not shown"
    assert lines[-1].startswith("invalid: ")


def test_validate_builtin_id(capsys):
    code, out, _ = run_cli(capsys, "validate", "ex4.5")
    assert code == 0
    assert "order 7" in out


# -- check -------------------------------------------------------------------------


def test_check_all_clauses_hold_on_ex34(capsys):
    code, out, _ = run_cli(capsys, "check", "ex3.4")
    assert code == 0
    assert "FAILS" not in out
    assert ", 0 fail," in out


def test_check_selector_picks_matching_clauses(capsys):
    code, out, _ = run_cli(capsys, "check", "ex3.4", "--theorem", "2.2")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l[0].isdigit()]
    assert all("2.2" in l for l in lines)
    assert any("thm-2.2-median" in l for l in lines)


def checked_ids(out):
    """The clause ids of check's text output, in order."""
    return [line.split()[0] for line in out.splitlines()[:-1]]


@pytest.mark.parametrize("selector, ids", [
    ("chromatic", ["fact-chi-ge-omega", "thm-4.1-decomposition-exists",
                   "thm-4.1-coloring-bound", "cor-4.2-chi-omega-count",
                   "thm-4.4-chi-omega-small"]),
    ("bridges", ["thm-2.5-bridge-two-sided", "thm-2.5-bridge-leaf"]),
    ("cut", ["cor-2.3-cut-vertices", "thm-2.2-minimal-vertex-cutsets",
             "cor-2.6-minimal-edge-cutsets"]),
])
def test_check_name_selects_its_clauses(capsys, selector, ids):
    code, out, _ = run_cli(capsys, "check", "ex3.4", "--theorem", selector)
    assert code == 0
    assert checked_ids(out) == ids


def test_check_report_format(capsys):
    code, out, _ = run_cli(capsys, "check", "ex3.5", "--theorem", "3.1",
                           "--format", "report")
    assert code == 0
    block = json.loads(out)
    assert block["selector"] == "3.1"
    (c,) = block["clauses"]
    assert c["id"] == "thm-3.1-parts-ideals-primes"
    assert c["applicable"] is False and c["holds"] is True


def test_check_cutset_cap_flag(capsys):
    code, out, _ = run_cli(capsys, "check", "ortho:zg3+zg3",
                           "--theorem", "2.6", "--cutset-cap", "1")
    assert code == 0
    assert "n/a" in out


def test_check_cutset_cap_below_one_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "ex3.4", "--cutset-cap", "0"])
    assert info.value.code == 2
    assert "--cutset-cap: must be at least 1" in capsys.readouterr().err


def test_check_cutset_cap_above_six_is_usage_error(capsys):
    # the vertex-cutset search grows as C(n, <=cap); the flag stops at 6
    with pytest.raises(SystemExit) as info:
        main(["check", "ex3.4", "--cutset-cap", "7"])
    assert info.value.code == 2
    assert "--cutset-cap: must be at most 6" in capsys.readouterr().err


def test_check_cutset_cap_six_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "check", "ex3.4", "--cutset-cap", "6")
    assert code == 0
    assert " 0 fail," in out


def test_check_stdin(capsys, monkeypatch):
    _, table_text, _ = run_cli(capsys, "example", "powerset:2")
    monkeypatch.setattr(sys, "stdin", io.StringIO(table_text))
    code, out, _ = run_cli(capsys, "check", "-")
    assert code == 0
    assert "FAILS" not in out


# -- enumerate and search ------------------------------------------------------------


def test_enumerate_emits_blank_separated_records(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "3")
    assert code == 0
    records = out.strip().split("\n\n")
    assert len(records) == 14
    for rec in records:
        assert sgt.loads(rec).order == 3


def test_enumerate_up_to_iso_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "4", "--up-to-iso")
    assert code == 0
    assert len(out.strip().split("\n\n")) == 39


def test_enumerate_limit(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "3", "--limit", "5")
    assert code == 0
    assert len(out.strip().split("\n\n")) == 5


@pytest.mark.parametrize("verb", ["enumerate", "search"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--limit", "-1", "--limit: must be at least 0, got -1"),
        ("--limit", "abc", "--limit: invalid int value: 'abc'"),
    ],
)
def test_corpus_flags_out_of_range_are_usage_errors(capsys, verb, flag, value, message):
    argv = [verb, "--order", "3", flag, value]
    if verb == "search":
        argv += ["--predicate", "reduced"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_enumerate_limit_zero_emits_nothing(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "3", "--limit", "0")
    assert code == 0
    assert out == ""


def test_enumerate_rejects_large_order(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--order", "9")
    assert code == 1
    assert "orders 2 through 6" in err


def test_search_cli_finds_matches(capsys):
    code, out, _ = run_cli(capsys, "search", "--order", "4", "--up-to-iso",
                           "--predicate", "complete-rpartite:2")
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize("iso", [[], ["--up-to-iso"]], ids=["raw", "iso"])
def test_search_reduced_prints_the_bytes_of_enumerate_reduced(capsys, iso):
    searched = run_cli(capsys, "search", "--order", "5", *iso, "--predicate", "reduced")
    enumerated = run_cli(capsys, "enumerate", "--order", "5", *iso, "--reduced")
    assert searched[1]
    assert searched == enumerated


def test_search_unknown_predicate_exits_1(capsys):
    code, _, err = run_cli(capsys, "search", "--order", "3",
                           "--predicate", "bogus")
    assert code == 1
    assert "unknown predicate" in err


@pytest.mark.parametrize("predicate", [
    "girth:2", "girth:0", "girth:-3", "complete-rpartite:0", "complete-rpartite:-1",
])
def test_search_predicate_no_graph_meets_exits_1(capsys, predicate):
    # refused before enumerating, not answered with an empty search
    code, out, err = run_cli(capsys, "search", "--order", "4", "--predicate", predicate)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "can match no graph" in err


@pytest.mark.parametrize("predicate", ["girth:3", "girth:inf", "complete-rpartite:1"])
def test_search_predicate_at_its_least_argument_finds_matches(capsys, predicate):
    code, out, _ = run_cli(capsys, "search", "--order", "4", "--predicate", predicate)
    assert code == 0
    assert out.strip()


# -- audit ----------------------------------------------------------------------------


@pytest.mark.parametrize("iso", [[], ["--up-to-iso"]], ids=["raw", "iso"])
def test_audit_prints_the_library_report(capsys, iso):
    code, out, _ = run_cli(capsys, "audit", "--order", "4", *iso)
    rep = audit(EnumerationOptions(4, up_to_iso=bool(iso)))
    assert code == 0
    assert out == report.render(report.audit_block(rep))
    assert json.loads(out)["total_examined"] == (39 if iso else 194)


def test_audit_reduced_and_report_format(capsys):
    code, out, _ = run_cli(capsys, "audit", "--order", "5", "--reduced", "--format", "report")
    assert code == 0
    assert out == report.render(report.audit_block(
        audit(EnumerationOptions(5, require_reduced=True))))
    assert json.loads(out)["total_examined"] == 1709


def test_audit_rejects_large_order(capsys):
    code, out, err = run_cli(capsys, "audit", "--order", "9")
    assert (code, out) == (1, "")
    assert "orders 2 through 6" in err


def test_audit_takes_no_limit(capsys):
    # a raw audit weights whole orbits, so it cannot stop after M tables
    with pytest.raises(SystemExit) as info:
        main(["audit", "--order", "3", "--limit", "5"])
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["invariants", "--nope", "x"])
    assert info.value.code == 2


# -- determinism ----------------------------------------------------------------------


def test_repeated_runs_are_byte_identical():
    commands = [
        ("example", "ex4.5"),
        ("invariants", "ex4.5"),
        ("invariants", "powerset:3", "--format", "report"),
        ("check", "ex3.4"),
        ("graph", "ex4.5", "--format", "dot"),
        ("enumerate", "--order", "3", "--up-to-iso"),
    ]
    for argv in commands:
        code1, out1, _ = run_proc(*argv)
        code2, out2, _ = run_proc(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
