import json
import subprocess
import sys

import pytest

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


def test_multiply_over_bound_needs_max_n(capsys):
    rc, _, err = run_cli(capsys, "multiply", "8", "8", "8", "--oracle")
    assert rc == 2
    assert "above bound" in err


def test_multiply_max_n_override_warns(capsys):
    rc, out, err = run_cli(capsys, "multiply", "8", "8", "8", "--oracle",
                           "--max-n", "8")
    assert rc == 0
    assert out == "B(8)\noracle check: PASS\n"
    assert "warning: degree 8 is above the default oracle bound (7)" in err


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


def test_verify_all_skips_parabolic_above_five(capsys):
    rc, out, _ = run_cli(capsys, "verify", "6", "--all")
    assert rc == 0
    assert "parabolic: SKIP (reason=n>5)" in out
    assert out.endswith("overall: PASS\n")


def test_verify_explicit_scope_over_bound_errors(capsys):
    rc, _, err = run_cli(capsys, "verify", "6", "--parabolic")
    assert rc == 2
    assert "above the parabolic bound 5" in err


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
    out = subprocess.run(
        [sys.executable, "-m", "descents.cli", "multiply", "3", "2,1", "1,2"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == "B(1,1,1) + B(1,2)\n"
