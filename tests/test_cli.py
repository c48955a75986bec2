import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from boxagree import Arrangement, fixtures, verify
from boxagree.cli import build_parser, main
from boxagree.formats import serialize_arrangement, serialize_graph


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*args):
    """`python -m boxagree.cli ...` or `python -c ...` against this tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_analyze_fixture_text(capsys):
    code, out, _ = run(capsys, "analyze", "z5")
    assert code == 0
    assert "agreement proportion: 2/5" in out
    assert "(2,3)-agreeable: yes" in out


def test_analyze_fig38b_values(capsys):
    code, out, _ = run(capsys, "analyze", "fig38b", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["agreement_number"] == 3
    assert len(report["edges"]) == 17
    assert report["degree_max"] == 5
    assert report["f_vector"][1] == 17


def test_analyze_fixture_text_with_boxicity(capsys):
    code, out, _ = run(capsys, "analyze", "fig38c", "--boxicity")
    assert code == 0
    assert "boxicity: lower 3, upper 4, exact 3 (1046 nodes)" in out.splitlines()
    assert "  - search exhausted: no 2-box realization" in out.splitlines()


def test_analyze_arrangement_file(tmp_path, capsys):
    arr = fixtures.load("z5")
    path = tmp_path / "arr.json"
    path.write_text(serialize_arrangement(arr))
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["agreement_proportion"] == "2/5"

    # 30 nested boxes: every subfamily meets, so f_k = C(30, k+1)
    nested = Arrangement.of(2, [[(i, 60 - i), (i, 60 - i)] for i in range(30)])
    path.write_text(serialize_arrangement(nested))
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["agreement_number"] == 30
    assert report["f_vector"] == [math.comb(30, k + 1) for k in range(30)]


def test_analyze_graph_file_with_boxicity(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(fixtures.expected_graph("fig38b")))
    code, out, _ = run(capsys, "analyze", str(path), "--boxicity", "--json")
    assert code == 0
    boxicity = json.loads(out)["boxicity"]
    assert boxicity["exact"] == 2
    assert boxicity["nodes"] > 0
    # fig38b has 8 non-universal vertices: 131 of the 255 placed sets
    assert boxicity["dp_sets"] == 131


def test_analyze_disagreeable_triple(tmp_path, capsys):
    text = '{"dimension": 2, "boxes": [[[0,1],[0,1]], [[2,3],[2,3]], [[5,6],[5,6]]]}'
    path = tmp_path / "triple.json"
    path.write_text(text)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "(2,3)-agreeable: no" in out


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 2}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_unknown_fixture_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "nope")
    assert code == 2
    assert "available" in err


def test_analyze_as_arrangement_on_graph_fixture(capsys):
    code, _, err = run(capsys, "analyze", "fig134", "--as-arrangement")
    assert code == 2
    assert "no arrangement" in err


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--d-max", "5")
    assert code == 0
    assert "0.2324" in out
    assert "beta(2,3,1)" in out


def test_bounds_prints_no_negative_zero_at_large_d():
    # the root map used to cancel to -0.0 from d = 60 on
    proc = run_module("-m", "boxagree.cli", "bounds", "--d-max", "60")
    assert proc.returncode == 0, proc.stderr
    assert " 60 " in proc.stdout
    assert "-0.0000" not in proc.stdout


def test_bounds_refuses_d_max_above_1000_before_any_row(capsys):
    # the table's cost grows with d_max: 10^9 rows would run for hours
    for d_max in ("1001", "1000000000", "0"):
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--d-max", d_max)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert f"need 1 <= d_max <= 1000, got {d_max}" in err
    code, out, _ = run(capsys, "bounds", "--d-max", "1000")
    assert code == 0 and "\n1000 " in out


def test_search_eta_table(capsys):
    code, out, _ = run(capsys, "search-eta")
    assert code == 0
    assert "eta(4) = 13" in out
    assert "exhaustion n=6, omega<=2: 0 graphs (10 examined, 7 labellings)" in out
    assert "exhaustion n=9, omega<=3: 0 graphs (98 examined, 34 labellings)" in out
    assert "exhaustion n=14, omega<=4: 0 graphs (3071 examined, 533 labellings)" in out


def test_search_eta_single_r(capsys):
    code, out, _ = run(capsys, "search-eta", "--r", "5")
    assert code == 0
    assert "eta(5) <= 18" in out


def test_search_eta_single_confirmed_r(capsys):
    code, out, _ = run(capsys, "search-eta", "--r", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["eta(3) = 8",
                         "  upper bound rule: n=9 forces a 5-regular graph, but 9*5 is odd"]
    assert lines[2].startswith("  witness: Graph(n=8, edges=[(1, 3), ")
    assert len(lines) == 3


def test_search_eta_beyond_the_table_is_a_usage_error(capsys):
    code, out, err = run(capsys, "search-eta", "--r", "6")
    assert code == 2
    assert out == ""
    assert "eta is only tabulated" in err


def test_boxicity_command_decide(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(fixtures.k_partite(3)))
    code, out, _ = run(capsys, "boxicity", str(path), "--decide", "2")
    assert code == 0
    assert "no" in out
    code, out, _ = run(capsys, "boxicity", str(path), "--decide", "3")
    assert code == 0
    assert "yes" in out
    assert '"dimension": 3' in out


def test_boxicity_command_report(capsys):
    code, out, _ = run(capsys, "boxicity", "fig38c")
    assert code == 0
    assert re.search(r"exact 3 \(\d+ nodes\)", out)


def test_boxicity_command_refuses_a_padded_cycle_at_once(tmp_path, capsys):
    # the d = 1 verdict is polynomial, so a tiny budget stops the report at
    # the DP; proving "not interval" by trying every clique order took
    # seconds per added vertex
    path = tmp_path / "g.txt"
    path.write_text("n 16\n1 2\n2 3\n3 4\n1 4\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "boxicity", str(path), "--budget", "5")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "exact undetermined (1 nodes)" in out
    assert "budget exhausted in the vertex-order DP" in out


def test_negative_budgets_are_usage_errors(capsys):
    code, out, err = run(capsys, "boxicity", "fig38c", "--budget", "-5")
    assert (code, out) == (2, "")
    assert "need budget >= 0" in err
    code, out, err = run(capsys, "analyze", "fig38c", "--boxicity", "--boxicity-budget", "-1")
    assert (code, out) == (2, "")
    assert "need budget >= 0" in err
    code, out, _ = run(capsys, "boxicity", "fig38c", "--budget", "0")
    assert code == 0
    assert "budget exhausted in the d = 1 interval test" in out


def test_boxicity_command_settles_fig134(capsys):
    code, out, _ = run(capsys, "boxicity", "fig134")
    assert code == 0
    assert "exact 4" in out


def test_fixtures_list(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    for name in ("z5", "fig38a", "fig134", "k_partite", "two_camps"):
        assert name in out


def test_fixtures_dump_round_trips(capsys):
    code, out, _ = run(capsys, "fixtures", "dump", "z5")
    assert code == 0
    from boxagree.formats import parse_arrangement

    assert parse_arrangement(out) == fixtures.load("z5")


def test_fixtures_dump_parametric(capsys):
    code, out, _ = run(capsys, "fixtures", "dump", "k_partite", "3")
    assert code == 0
    assert out.startswith("n 6")


def test_fixtures_dump_unknown(capsys):
    code, _, err = run(capsys, "fixtures", "dump", "nothing")
    assert code == 2


def test_fixtures_dump_without_a_name_is_a_usage_error(capsys):
    code, out, err = run(capsys, "fixtures", "dump")
    assert code == 2
    assert out == ""
    assert "fixtures dump needs a name" in err


def test_verify_paper_has_no_budget_option(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify-paper", "--budget", "5"])
    assert exit_.value.code == 2


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "all" in out and "checks passed" in out
    assert "eta(5) <= 18" in out
    assert "FAIL" not in out
    eta_line = "eta table: eta(1) = 2  eta(2) = 5  eta(3) = 8  eta(4) = 13  eta(5) <= 18"
    assert eta_line in out.splitlines()


def test_verify_paper_exits_1_on_a_failed_check(monkeypatch, capsys):
    failed = verify.CheckResult("planted", False, "planted failure")
    monkeypatch.setattr(verify, "run_paper_checks", lambda: [failed])
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    assert "FAIL planted: planted failure" in out.splitlines()
    assert "1 of 1 checks failed" in out.splitlines()
    assert "checks passed" not in out


def test_reused_parser_carries_nothing_between_calls(capsys):
    calls = [
        ["analyze", "z5", "--boxicity", "--json"],
        ["analyze", "z5", "--json"],
        ["bounds"],
        ["fixtures", "dump", "k_partite", "3"],
        ["verify-paper", "--budget", "5"],
        ["analyze", "fig38b", "--json"],
    ]

    def one(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    build_parser.cache_clear()
    first = [one(argv) for argv in calls]
    assert [code for code, _ in first] == [0, 0, 0, 0, 2, 0]
    assert "boxicity" in json.loads(first[0][1])
    assert "boxicity" not in json.loads(first[1][1])
    assert [one(argv) for argv in calls] == first
    info = build_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2 * len(calls) - 1, 1)


def test_import_builds_no_parser():
    proc = run_module("-c", "import boxagree.cli as cli; "
                      "print(cli.build_parser.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
