import json
import os
import subprocess
import sys

import pytest

import descents
import descents.cli as cli
import descents.cosets


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_multiply_text(capsys):
    rc, out, err = run_cli(capsys, "multiply", "3", "2,1", "1,2")
    assert rc == 0
    assert out == "B(1,1,1) + B(1,2)\n"
    assert err == ""


def test_multiply_show_matrices(capsys):
    rc, out, _ = run_cli(capsys, "multiply", "3", "2,1", "1,2",
                         "--show-matrices")
    assert rc == 0
    assert out == ("[1 0; 1 1] -> 1,1,1\n"
                   "[0 1; 2 0] -> 1,2\n"
                   "B(1,1,1) + B(1,2)\n")


def test_multiply_oracle_pass(capsys):
    rc, out, _ = run_cli(capsys, "multiply", "4", "2,2", "1,3", "--oracle")
    assert rc == 0
    assert out.endswith("oracle check: PASS\n")


def test_multiply_oracle_fail_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "oracle_agrees", lambda *a, **k: False)
    rc, out, _ = run_cli(capsys, "multiply", "3", "2,1", "1,2", "--oracle")
    assert rc == 1
    assert out.endswith("oracle check: FAIL\n")


def test_multiply_structured(capsys):
    rc, out, _ = run_cli(capsys, "multiply", "3", "2,1", "1,2",
                         "--format", "structured", "--show-matrices",
                         "--oracle")
    assert rc == 0
    record = json.loads(out)
    assert record["schema_version"] == 1
    assert record["kind"] == "descent-algebra-product"
    assert record["terms"] == [
        {"eta": "1,1,1", "coefficient": 1},
        {"eta": "1,2", "coefficient": 1}]
    assert record["matrices"] == [
        {"entries": [[1, 0], [1, 1]], "reading_word": "1,1,1"},
        {"entries": [[0, 1], [2, 0]], "reading_word": "1,2"}]
    assert record["oracle"] == "PASS"


def test_multiply_sum_mismatch(capsys):
    rc, _, err = run_cli(capsys, "multiply", "4", "2,1", "1,3")
    assert rc == 2
    assert err.startswith("error: compositions must sum to n=4")


def test_multiply_csv_unsupported(capsys):
    rc, _, err = run_cli(capsys, "multiply", "3", "2,1", "1,2",
                         "--format", "csv")
    assert rc == 2
    assert "does not support" in err


@pytest.mark.parametrize("argv", [
    ["multiply", "7", "1,1,1,1,1,1,1", "1,1,1,1,1,1,1", "--oracle"],
    ["verify", "6"],
])
def test_csv_rejected_before_any_work(capsys, monkeypatch, argv):
    # neither command writes csv, so it computes nothing before saying so
    def no_work(*args, **kwargs):
        raise AssertionError("computed before rejecting --format csv")

    for name in ("solomon_multiply", "contingency_tables", "oracle_agrees",
                 "_verify_pair_scope", "_verify_oracle_scope"):
        monkeypatch.setattr(cli, name, no_work)
    rc, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 2
    assert out == ""
    assert err == f"error: {argv[0]} does not support --format csv\n"


def test_multiply_over_bound_needs_max_n(capsys):
    rc, out, err = run_cli(capsys, "multiply", "8", "8", "8", "--oracle")
    assert (rc, out) == (2, "")
    assert err == ("error: oracle: degree 8 above bound 7; "
                   "pass --max-n to override\n")


def test_multiply_max_n_override_warns(capsys):
    rc, out, err = run_cli(capsys, "multiply", "8", "8", "8", "--oracle",
                           "--max-n", "8")
    assert rc == 0
    assert out == "B(8)\noracle check: PASS\n"
    assert "warning: degree 8 is above the default oracle bound (7)" in err


def test_multiply_coefficient_overflow_is_an_error(capsys):
    ones = ",".join(["1"] * 21)
    rc, out, err = run_cli(capsys, "multiply", "21", ones, ones,
                           "--max-n", "21")
    assert rc == 2
    assert out == ""
    assert err == "error: coefficient exceeds signed 64-bit range\n"


def test_verify_all_text(capsys):
    rc, out, _ = run_cli(capsys, "verify", "3", "--all")
    assert rc == 0
    assert out == ("lemma: PASS (pairs=16, witnesses=33, failures=0)\n"
                   "oracle: PASS (pairs=16, mode=exhaustive, failures=0)\n"
                   "parabolic: PASS (pairs=16, failures=0)\n"
                   "overall: PASS\n")


def test_verify_default_is_all(capsys):
    rc, out, _ = run_cli(capsys, "verify", "2")
    assert rc == 0
    assert out.count("PASS") == 4
    assert out.endswith("overall: PASS\n")


def test_verify_single_scope(capsys):
    rc, out, _ = run_cli(capsys, "verify", "4", "--lemma")
    assert rc == 0
    assert out == ("lemma: PASS (pairs=64, witnesses=281, failures=0)\n"
                   "overall: PASS\n")
    # scopes print in their fixed order, not in the order of the flags
    rc, out, _ = run_cli(capsys, "verify", "3", "--parabolic", "--lemma")
    assert rc == 0
    assert out == ("lemma: PASS (pairs=16, witnesses=33, failures=0)\n"
                   "parabolic: PASS (pairs=16, failures=0)\n"
                   "overall: PASS\n")


def test_verify_lemma_counts_bijection_failures(capsys, monkeypatch):
    # drop each pair's last margin matrix: the witness that hits it is
    # reported once per pair
    real = descents.cosets.contingency_tables
    monkeypatch.setattr(
        descents.cosets, "contingency_tables",
        lambda rows, cols, max_degree=None:
            list(real(rows, cols, max_degree))[:-1])
    rc, out, _ = run_cli(capsys, "verify", "3", "--lemma")
    assert rc == 1
    assert out == ("lemma: FAIL (pairs=16, witnesses=33, failures=16)\n"
                   "overall: FAIL\n")


def test_multiply_show_matrices_degree_bound(capsys):
    rc, out, err = run_cli(capsys, "multiply", "13", "13", "13",
                           "--show-matrices")
    assert rc == 2
    assert out == ""
    assert "above bound 12" in err
    rc, out, _ = run_cli(capsys, "multiply", "13", "13", "13",
                         "--show-matrices", "--max-n", "13")
    assert rc == 0
    assert out == "[13] -> 13\nB(13)\n"


def test_multiply_degree_bound(capsys):
    rc, out, err = run_cli(capsys, "multiply", "13", "13", "13")
    assert rc == 2
    assert out == ""
    assert "above bound 12" in err
    rc, out, err = run_cli(capsys, "multiply", "13", "13", "13",
                           "--max-n", "13")
    assert rc == 0
    assert out == "B(13)\n"
    assert err == ""


def test_multiply_degree_error_names_cli_option(capsys):
    # the library's error names its keyword, max_degree; the CLI's
    # names --max-n, for the product and for --oracle
    for argv in (("13", "13", "13"), ("8", "8", "8", "--oracle")):
        rc, out, err = run_cli(capsys, "multiply", *argv)
        assert rc == 2
        assert out == ""
        assert "pass --max-n to override" in err
        assert "max_degree" not in err


def test_verify_all_skips_parabolic_above_five(capsys, monkeypatch):
    # the n=6 oracle sweep itself is tests/test_acceptance.py::
    # test_oracle_equivalence; here a recorder stands in for it, and the
    # lemma scope runs for real
    seen = []

    def agrees(kappa, nu, max_degree=None):
        seen.append((kappa, nu))
        return True

    monkeypatch.setattr(cli, "oracle_agrees", agrees)
    comps = descents.all_compositions(6)
    # --max-n does not bring the skipped scope back, nor warn about it
    for extra in ((), ("--max-n", "6"), ("--format", "structured")):
        seen.clear()
        rc, out, err = run_cli(capsys, "verify", "6", "--all", *extra)
        assert sorted(seen) == sorted((k, nu) for k in comps for nu in comps)
        assert len(seen) == 1024
        assert rc == 0
        assert err == ""
        if "structured" in extra:
            record = json.loads(out)
            assert record["scopes"][2] == {
                "scope": "parabolic", "status": "SKIP", "reason": "n>5"}
            assert record["overall"] == "PASS"
        else:
            assert "parabolic: SKIP (reason=n>5)" in out
            assert out.endswith("overall: PASS\n")


def test_verify_explicit_scope_over_bound_errors(capsys, monkeypatch):
    # every selected bound is checked before any scope runs, and --max-n
    # sets the bound as in multiply and table: a value below n is an error
    def no_work(*args, **kwargs):
        raise AssertionError("ran a scope before checking every bound")

    monkeypatch.setattr(cli, "oracle_agrees", no_work)
    monkeypatch.setattr(cli, "verify_subset_pair", no_work)
    for argv, want in (
            (("6", "--parabolic"),
             "error: parabolic: degree 6 above bound 5; "
             "pass --max-n to override\n"),
            (("6", "--oracle", "--parabolic"),
             "error: parabolic: degree 6 above bound 5; "
             "pass --max-n to override\n"),
            (("3", "--max-n", "2"),
             "error: lemma: degree 3 above bound 2; "
             "pass --max-n to override\n"),
            (("6", "--lemma", "--max-n", "5"),
             "error: lemma: degree 6 above bound 5; "
             "pass --max-n to override\n")):
        rc, out, err = run_cli(capsys, "verify", *argv)
        assert (rc, out, err) == (2, "", want), argv


def test_verify_scope_bound_override(capsys):
    rc, out, err = run_cli(capsys, "verify", "6", "--parabolic",
                           "--max-n", "6")
    assert rc == 0
    assert "parabolic: PASS (pairs=1024, failures=0)" in out
    assert "warning" in err


def test_verify_structured(capsys):
    rc, out, _ = run_cli(capsys, "verify", "3", "--all",
                         "--format", "structured")
    assert rc == 0
    record = json.loads(out)
    assert record["kind"] == "descent-algebra-verification"
    assert record["overall"] == "PASS"
    assert [s["scope"] for s in record["scopes"]] == [
        "lemma", "oracle", "parabolic"]
    assert record["scopes"][0] == {
        "scope": "lemma", "status": "PASS",
        "pairs": 16, "witnesses": 33, "failures": 0}


def test_verify_oracle_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "oracle_agrees", lambda *a, **k: False)
    rc, out, _ = run_cli(capsys, "verify", "2", "--oracle")
    assert rc == 1
    assert out == ("oracle: FAIL (pairs=4, mode=exhaustive, failures=4)\n"
                   "overall: FAIL\n")


def test_verify_oracle_sampled_mode(capsys, monkeypatch):
    # degree 7 switches to seeded sampling; stub the check to keep it fast
    calls = []
    monkeypatch.setattr(cli, "oracle_agrees",
                        lambda kappa, nu, max_degree=None:
                        calls.append((kappa, nu)) or True)
    rc, out, _ = run_cli(capsys, "verify", "7", "--oracle")
    assert rc == 0
    assert "mode=sampled, seed=0" in out
    assert len(calls) == 200
    first_run = list(calls)

    calls.clear()
    rc, _, _ = run_cli(capsys, "verify", "7", "--oracle", "--seed", "0")
    assert calls == first_run

    calls.clear()
    run_cli(capsys, "verify", "7", "--oracle", "--seed", "1")
    assert calls != first_run


def test_table_text(capsys):
    rc, out, _ = run_cli(capsys, "table", "3")
    lines = out.splitlines()
    assert rc == 0
    assert len(lines) == 16
    assert lines[0] == "B(1,1,1) * B(1,1,1) = 6 B(1,1,1)"
    assert lines[2] == "B(1,1,1) * B(3) = B(1,1,1)"
    assert "B(2,1) * B(2,1) = B(1,1,1) + B(2,1)" in lines


def test_table_csv(capsys):
    rc, out, _ = run_cli(capsys, "table", "2", "--format", "csv")
    assert rc == 0
    assert out == ('kappa,nu,eta,coefficient\n'
                   '"1,1","1,1","1,1",2\n'
                   '"1,1",2,"1,1",1\n'
                   '2,"1,1","1,1",1\n'
                   '2,2,2,1\n')


def test_table_structured(capsys):
    rc, out, _ = run_cli(capsys, "table", "2", "--format", "structured")
    assert rc == 0
    record = json.loads(out)
    assert record["kind"] == "descent-algebra-products"
    assert len(record["products"]) == 4


def test_table_bound(capsys):
    rc, _, err = run_cli(capsys, "table", "13")
    assert rc == 2
    assert "above bound" in err


def test_table_degree_error_names_cli_option(capsys):
    rc, out, err = run_cli(capsys, "table", "13")
    assert rc == 2
    assert out == ""
    assert err == ("error: degree 13 above bound 12; "
                   "pass --max-n to override\n")


def test_graph_by_subset(capsys):
    rc, out, _ = run_cli(capsys, "graph", "9", "--subset", "2,3,7")
    assert rc == 0
    assert out == ("n: 9\n"
                   "subset: {2,3,7}\n"
                   "edges: {2,3} {3,4} {7,8}\n"
                   "ordered presentation: ({1},{2,3,4},{5},{6},{7,8},{9})\n"
                   "composition: 1,3,1,1,2,1\n")


def test_graph_by_kappa_matches_subset(capsys):
    rc1, out1, _ = run_cli(capsys, "graph", "9", "--kappa", "1,3,1,1,2,1")
    rc2, out2, _ = run_cli(capsys, "graph", "9", "--subset", "2,3,7")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_graph_empty_subset(capsys):
    rc, out, _ = run_cli(capsys, "graph", "3", "--subset", "")
    assert rc == 0
    assert "edges: (none)" in out
    assert "composition: 1,1,1" in out


def test_graph_dot(capsys):
    rc, out, _ = run_cli(capsys, "graph", "4", "--kappa", "2,2", "--dot")
    assert rc == 0
    assert out.startswith("graph G {")
    assert "1 -- 2;" in out and "3 -- 4;" in out
    assert 'label="{3,4}"' in out


def test_graph_requires_subset_or_kappa():
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph", "4"])
    assert exc.value.code == 2


def test_graph_kappa_sum_mismatch(capsys):
    rc, _, err = run_cli(capsys, "graph", "5", "--kappa", "2,2")
    assert rc == 2
    assert "must sum to n=5" in err


@pytest.mark.parametrize("argv", [
    ["graph", "3", "--subset", "1", "--format", "structured"],
    ["graph", "3", "--subset", "1", "--max-n", "2"],
    ["graph", "3", "--subset", "1", "--seed", "1"],
    ["multiply", "3", "2,1", "1,2", "--seed", "1"],
    ["table", "3", "--seed", "1"],
    ["table", "3", "--subset", "1"],
])
def test_option_the_subcommand_ignores_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]}" in err


def test_n_below_one(capsys):
    rc, _, err = run_cli(capsys, "table", "0")
    assert rc == 2
    assert "n must be at least 1" in err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point():
    src = os.path.dirname(os.path.dirname(descents.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "descents.cli", "multiply", "3", "2,1", "1,2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0
    assert out.stdout == "B(1,1,1) + B(1,2)\n"


def test_cold_import_loads_no_dataclass_or_csv_machinery():
    # every fresh interpreter (each CLI call, each perfbench worker) pays
    # for what ``import descents`` loads; csv loads on the first CSV write
    code = ("import sys; before = set(sys.modules); "
            "import descents, descents.cli; "
            "loaded = sorted(set(sys.modules) - before); "
            "import json; print(json.dumps(loaded))")
    src = os.path.dirname(os.path.dirname(descents.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=60)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert "descents.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "csv"}


def test_closed_output_pipe_exits_141_quietly():
    # table 7's output outgrows stdout's buffer, so it meets the closed
    # pipe while it prints; graph's few lines meet it only when stdout is
    # flushed, which PYTHONUNBUFFERED would hide.  The read end is closed
    # before each run starts, so the outcome does not depend on timing.
    src = os.path.dirname(os.path.dirname(descents.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    # --help's text is written while the arguments are parsed, and meets
    # the closed pipe whether stdout is buffered or not
    help_runs = [(argv, extra) for argv in (["--help"], ["table", "--help"])
                 for extra in ({}, {"PYTHONUNBUFFERED": "1"})]
    for argv, extra in [(["table", "7"], {}),
                        (["graph", "3", "--subset", "1"], {}), *help_runs]:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "descents.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE,
                env=dict(env, **extra), timeout=120)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (141, b""), (argv, extra)
