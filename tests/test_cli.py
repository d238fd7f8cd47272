"""End-to-end runs of the command line, in process."""

import argparse
import ast
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bishops import (
    Quasipolynomial,
    SignedGraph,
    _testkit,
    cli,
    counting,
    geometry,
    quasipoly,
    signed_graph,
)
from bishops.board import BISHOP
from bishops.cli import main

from helpers import DATA_DIR

FIXTURE = str(DATA_DIR / "clique_example.txt")
GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_single_board(capsys):
    code, out, err = run(capsys, "count", "-q", "2", "-n", "3")
    assert code == 0
    assert out.strip() == "26"
    assert err == ""


def test_count_huge_q_prints_zero(capsys):
    # rook profiles are sized by the board, not by q
    code, out, err = run(capsys, "count", "-q", "1000000000", "-n", "3")
    assert (code, out, err) == (0, "0\n", "")


def test_python_dash_m_runs_the_cli():
    # the package's parent directory on the path, as from a checkout
    source = str(Path(cli.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [source,
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "bishops", "count", "-q", "2", "-n", "3"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert result.stdout == "26\n"
    assert result.stderr == ""


def test_count_range_pretty(capsys):
    code, out, _ = run(capsys, "count", "-q", "2", "--n-range", "2..4")
    assert code == 0
    assert out.splitlines() == ["n=2: 4", "n=3: 26", "n=4: 92"]


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "-q", "2", "--n-range", "2..3",
                       "--format", "csv")
    assert code == 0
    assert out == "n,count\r\n2,4\r\n3,26\r\n"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "-q", "2", "-n", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"3": "26"}
    assert payload["method"] == "fast"


def test_csv_format(capsys):
    code, out, _ = run(capsys, "count", "-q", "2", "--n-range", "2..3",
                       "--method", "fast", "--format", "csv")
    assert code == 0
    assert out == "n,count\r\n2,4\r\n3,26\r\n"


def test_json_format_counts_are_strings(capsys):
    code, out, _ = run(capsys, "count", "-q", "2", "--n-range", "2..3",
                       "--method", "fast", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rider"] == "bishop"
    assert payload["q"] == 2
    assert payload["method"] == "fast"
    assert payload["counts"] == {"2": "4", "3": "26"}


def test_count_naive_method(capsys):
    code, out, _ = run(capsys, "count", "-q", "2", "-n", "3",
                       "--method", "naive")
    assert code == 0
    assert out.strip() == "26"


def test_count_other_rider(capsys):
    code, out, _ = run(capsys, "count", "--piece", "1,0;0,1",
                       "-q", "2", "-n", "3")
    assert code == 0
    assert out.strip() == "18"


def test_count_refuses_non_primitive_moves(capsys):
    # a (2,2)-rider skips every other diagonal square, so the bishop's
    # fast counter would answer for the wrong piece
    code, out, err = run(capsys, "count", "--piece", "2,2;2,-2",
                         "-q", "2", "-n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad move '2,2': ")
    assert err.count("\n") == 1


def test_count_requires_exactly_one_board_size(capsys):
    code, _, err = run(capsys, "count", "-q", "2")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "count", "-q", "2", "-n", "3",
                       "--n-range", "2..4")
    assert code == 2


def test_count_bad_range(capsys):
    code, _, err = run(capsys, "count", "-q", "2", "--n-range", "5..2")
    assert code == 2
    assert "error:" in err


def test_count_fast_rejects_other_riders(capsys):
    code, _, err = run(capsys, "count", "--piece", "1,0", "-q", "1",
                       "-n", "3", "--method", "fast")
    assert code == 2
    assert "bishop" in err


def test_count_budget_exceeded(capsys):
    code, _, err = run(capsys, "count", "-q", "3", "-n", "6",
                       "--method", "naive", "--budget", "4")
    assert code == 2
    assert "budget" in err


def test_count_budget_covers_mask_setup(capsys):
    # 40 x 40 has 1,279,200 square pairs to test before any search
    code, out, err = run(capsys, "count", "-p", "1,0;0,1", "-q", "1",
                         "-n", "40", "--budget", "1")
    assert code == 2
    assert out == ""
    assert err == "error: naive count exceeded the budget of 1 nodes\n"


def test_count_budget_runs_out_mid_search(capsys):
    # 630 square pairs fit in the budget; the search does not
    code, out, err = run(capsys, "count", "-p", "1,0;0,1", "-q", "4",
                         "-n", "6", "--budget", "700")
    assert (code, out) == (2, "")
    assert err == "error: naive count exceeded the budget of 700 nodes\n"


def test_count_too_deep_for_the_naive_search_exits_2(capsys):
    # the default budget allows 1200 nested search frames, one per piece
    code, out, err = run(capsys, "count", "-p", "1,100", "-q", "1200",
                         "-n", "40")
    assert (code, out) == (2, "")
    assert err == ("error: naive search is too deep for q = 1200: it "
                   "recurses once per piece\n")


@pytest.mark.parametrize("argv", [
    ("count", "-p", "1,0;0,1", "-q", "1", "-n", "3"),
    ("count", "-p", "1,0;0,1", "-q", "2", "-n", "3"),
    ("interpolate", "-p", "1,0;0,1", "-q", "1"),
    ("count", "-q", "2", "-n", "3"),
    ("interpolate", "-q", "2"),
])
def test_negative_budget_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: node budget must be nonnegative\n"


def test_interpolate_huge_q_exceeds_the_budget(capsys):
    # 4q + 4 board sizes at q rooks each, charged before any table work
    code, out, err = run(capsys, "interpolate", "-q", "100000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget of 1000000000" in err


def test_fast_table_budget(capsys):
    # n = 1..10 at 3 rooks: 30 cell updates
    code, out, err = run(capsys, "count", "-q", "3", "--n-range", "1..10",
                         "--budget", "29")
    assert (code, out) == (2, "")
    assert err == ("error: fast count table needs 30 cell updates, "
                   "more than the budget of 29\n")
    at_budget = run(capsys, "count", "-q", "3", "--n-range", "1..10",
                    "--budget", "30")
    assert at_budget == run(capsys, "count", "-q", "3", "--n-range", "1..10")
    assert at_budget[0] == 0


def test_interpolate_pretty(capsys):
    code, out, _ = run(capsys, "interpolate", "-q", "2")
    assert code == 0
    assert "minimized period 1" in out
    assert "holdout n=9..12: PASS" in out


def test_interpolate_json(capsys):
    code, out, _ = run(capsys, "interpolate", "-q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimized_period"] == 2
    assert payload["holdout"]["pass"] is True
    assert payload["holdout"]["range"] == [13, 16]
    assert payload["quasipolynomial"]["constituents"][1][-1] == "1/4"
    assert payload["coefficient_periods"] == [1, 1, 1, 1, 1, 1, 2]


def test_json_round_trip(capsys):
    quasi = Quasipolynomial(2, 1, ((F(1, 2), F(0)), (F(1, 2), F(-3))))
    cli._print_json(cli._quasipolynomial_dict(quasi))
    payload = json.loads(capsys.readouterr().out)
    assert payload["period"] == 2
    assert payload["degree"] == 1
    assert payload["constituents"] == [["1/2", "0/1"], ["1/2", "-3/1"]]


def test_pretty_mentions_each_residue():
    quasi = Quasipolynomial(2, 2, ((F(1), F(0), F(0)), (F(1), F(0), F(1, 4))))
    text = cli._quasipolynomial_text(quasi)
    assert "n = 0 (mod 2)" in text
    assert "n = 1 (mod 2)" in text
    assert "1/4" in text


def test_interpolate_rejects_bad_q(capsys):
    code, _, err = run(capsys, "interpolate", "-q", "0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("holdout", ["0", "-3"])
def test_interpolate_rejects_vacuous_holdout(capsys, holdout):
    code, out, err = run(capsys, "interpolate", "-q", "2",
                         "--holdout", holdout)
    assert code == 2
    assert out == ""
    assert err == "error: holdout must be at least 1\n"


def test_interpolate_checks_holdout_before_period(capsys):
    code, out, err = run(capsys, "interpolate", "-q", "2", "--holdout", "0",
                         "--period", "0")
    assert (code, out, err) == (2, "", "error: holdout must be at least 1\n")


def test_interpolate_grows_one_count_table(capsys, monkeypatch):
    # the holdout extends the fit's table instead of regrowing one from n = 1
    lengths = []
    add_column = counting._add_column
    monkeypatch.setattr(counting, "_add_column", lambda counts, length: (
        lengths.append(length), add_column(counts, length)))
    counting.sample_counts(BISHOP, 32, 1, 132)
    one_table = len(lengths)
    lengths.clear()
    code, _, _ = run(capsys, "interpolate", "-q", "32", "--holdout", "4")
    assert code == 0
    assert len(lengths) == one_table


def test_verify_period(capsys):
    for q, lcm_text in ((1, "1"), (2, "1"), (3, "2")):
        code, out, _ = run(capsys, "verify-period", "-q", str(q))
        assert code == 0, q
        assert f"geometric denominator lcm: {lcm_text}" in out
        assert "PASS" in out


def test_verify_period_fails_when_the_period_does_not_divide_the_lcm(
        capsys, monkeypatch):
    # a geometric lcm of 1 cannot bound the interpolated period 2 at q = 3
    monkeypatch.setattr(geometry, "period_upper_bound", lambda q, *, bound: 1)
    code, out, _ = run(capsys, "verify-period", "-q", "3")
    assert code == 1
    assert out.splitlines() == [
        "geometric denominator lcm: 1",
        "interpolated minimized period: 2 (expected 2)",
        "FAIL",
    ]


def test_verify_period_fails_when_a_holdout_count_misses_the_fit(
        capsys, monkeypatch):
    # the fit of 2q unknowns per class to 2q samples always exists; only
    # the counts past it can contradict it
    q = 3
    sample_counts = quasipoly.sample_counts

    def off_by_one(*args, **kwargs):
        table = sample_counts(*args, **kwargs)
        if 4 * q + 1 in table.entries:
            table.entries[4 * q + 1] += 1
        return table

    monkeypatch.setattr(quasipoly, "sample_counts", off_by_one)
    code, out, _ = run(capsys, "verify-period", "-q", str(q))
    assert code == 1
    assert out.splitlines() == [
        "geometric denominator lcm: 2",
        "interpolated minimized period: 2 (expected 2)",
        "FAIL",
    ]


@pytest.mark.parametrize("q", ["0", "-3"])
def test_verify_period_rejects_bad_q(capsys, q):
    code, out, err = run(capsys, "verify-period", "-q", q)
    assert (code, out, err) == (2, "", "error: q must be at least 1\n")


def test_verify_period_bound(capsys):
    code, _, err = run(capsys, "verify-period", "-q", "4")
    assert code == 2
    assert "bound" in err


def test_vertices_pretty(capsys):
    code, out, _ = run(capsys, "vertices", "-q", "2")
    assert code == 0
    assert "16 vertices" in out
    assert "half-integrality: PASS" in out


def test_vertices_json(capsys):
    code, out, _ = run(capsys, "vertices", "-q", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["half_integral"] is True
    assert payload["denominator_lcm"] == 1
    assert len(payload["vertices"]) == 4
    assert payload["vertices"][0]["point"] == ["0/1", "0/1"]


def test_vertices_json_schema(capsys):
    code, out, _ = run(capsys, "vertices", "-q", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)["vertices"]
    assert len(payload) == 4
    for entry in payload:
        assert set(entry) == {"point", "hyperplanes", "fixations"}
        assert all("/" in c for c in entry["point"])
        for fixation in entry["fixations"]:
            assert set(fixation) == {"coordinate", "value"}


def test_graph_pretty(capsys):
    code, out, _ = run(capsys, "graph", FIXTURE)
    assert code == 0
    assert "positive cliques: [[1, 2], [3, 4, 5], [6, 7]]" in out
    assert "negative cliques: [[1, 3], [2, 4], [5, 6], [7]]" in out
    assert "solution point: (1, -1, 0, 0, 1, -1, 0, 0, -1, 1, -1/2, 3/2, 1, 0)" in out


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", FIXTURE, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 7
    assert payload["rank"] == 6
    assert payload["cyclomatic"] == 1
    assert payload["negative_one_forest"] is False
    assert payload["solution"]["point"][10] == "-1/2"
    assert payload["solution"]["point"][11] == "3/2"


def test_graph_without_fixations(capsys, tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("2\n1 2 +\n")
    code, out, _ = run(capsys, "graph", str(path))
    assert code == 0
    assert "solution" not in out


@pytest.mark.parametrize("text", [
    "3\n1 2 +\n2 3 -\n",
    (GOLDEN_DIR / "graphs" / "half_integral.txt").read_text(),
], ids=["plain", "half_integral"])
def test_graph_derives_the_cliques_once(capsys, monkeypatch, tmp_path, text):
    # half_integral has fixations, so the clique graph is also solved
    path = tmp_path / "graph.txt"
    path.write_text(text)
    calls = []
    derive = signed_graph.signed_cliques

    def counted(graph):
        calls.append(graph)
        return derive(graph)

    monkeypatch.setattr(signed_graph, "signed_cliques", counted)
    code, _, _ = run(capsys, "graph", str(path))
    assert code == 0
    assert len(calls) == 1


def test_count_range_rejects_superscript_digits(capsys):
    # "²".isdigit() holds, but int("²") fails
    code, out, err = run(capsys, "count", "-q", "2", "--n-range", "²..3")
    assert (code, out) == (2, "")
    assert err == "error: bad range '²..3': expected 'from..to'\n"


def test_graph_missing_file(capsys):
    code, _, err = run(capsys, "graph", "no_such_file.txt")
    assert code == 2
    assert "error:" in err


def test_graph_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 2 *\n")
    code, _, err = run(capsys, "graph", str(path))
    assert code == 2
    assert "line 2" in err


def test_graph_singular_fixations(capsys, tmp_path):
    path = tmp_path / "singular.txt"
    path.write_text("2\n1 2 +\nfix x_1 = 0\nfix x_2 = 0\n")
    code, _, err = run(capsys, "graph", str(path))
    assert code == 2
    assert "1-forest" in err


def test_check_runs_green(capsys):
    code, out, _ = run(capsys, "check", "--seed", "5", "--spot", "2",
                       "--graphs", "30", "--matrices", "20", "--solves", "20")
    assert code == 0
    assert out.count(": ok") == 4


def test_check_is_deterministic_for_a_seed(capsys):
    first = run(capsys, "check", "--seed", "9", "--spot", "1",
                "--graphs", "10", "--matrices", "5", "--solves", "5")
    second = run(capsys, "check", "--seed", "9", "--spot", "1",
                 "--graphs", "10", "--matrices", "5", "--solves", "5")
    assert first == second


def _plus_one(function):
    return lambda *args, **kwargs: function(*args, **kwargs) + 1


def _raising(error):
    def raise_(*args, **kwargs):
        raise error
    return raise_


@pytest.mark.parametrize("name, patch, line", [
    ("count_unlabelled_naive", _plus_one(_testkit.count_unlabelled_naive),
     "counter agreement: FAIL (u(2;2): fast 4 != naive 5)"),
    ("rank", _plus_one(_testkit.rank), "signed graphs: FAIL (rank mismatch on "),
    ("irredundant_reduction", lambda graph: SignedGraph(graph.q, ()),
     "signed graphs: FAIL (reduction changed the cliques of "),
    ("irredundant_reduction", lambda graph: graph,
     "signed graphs: FAIL (reduction edge count wrong on "),
    ("random_signed_tree", lambda rng: SignedGraph(2, ()),
     "signed graphs: FAIL (signed tree clique count wrong on "),
    ("solve_incidence_transpose",
     lambda graph, rhs: [F(1, 3)] * len(rhs),
     "incidence transpose solves: FAIL (solution not weakly half-integral "),
    # halves pass the first solve and fail the doubled right-hand side
    ("solve_incidence_transpose", lambda graph, rhs: [F(1, 2)] * len(rhs),
     "incidence transpose solves: FAIL (even right-hand side gave a "
     "fractional solution for SignedGraph("),
    ("solve_incidence_transpose",
     _raising(geometry.SingularFixationError("singular")),
     "incidence transpose solves: FAIL (singular for SignedGraph("),
    ("solve_via_clique_graph", _raising(AssertionError("off an edge")),
     "clique-graph solves: FAIL (off an edge for SignedGraph("),
    ("solve_via_clique_graph",
     _raising(geometry.SingularFixationError("singular")),
     "clique-graph solves: FAIL (singular for SignedGraph("),
])
def test_check_reports_a_failing_suite(capsys, monkeypatch, name, patch,
                                       line):
    # a failing suite is reported in its line, and the later suites run
    monkeypatch.setattr(_testkit, name, patch)
    code, out, err = run(capsys, "check", "--seed", "0", "--spot", "0",
                         "--graphs", "5", "--matrices", "1", "--solves", "1")
    failures = [row for row in out.splitlines() if ": FAIL" in row]
    assert (code, err, len(failures), len(out.splitlines())) == (1, "", 1, 4)
    assert failures[0].startswith(line)


@pytest.mark.parametrize("flag", ["--spot", "--graphs", "--matrices",
                                  "--solves"])
def test_check_rejects_negative_trial_counts(capsys, flag):
    code, out, err = run(capsys, "check", flag, "-1")
    assert code == 2
    assert out == ""
    assert err == "error: trial counts must be nonnegative\n"


def test_internal_invariant_violation_exits_3(capsys, monkeypatch):
    def broken(q, *, bound):
        raise AssertionError("codimension mismatch")

    monkeypatch.setattr(geometry, "period_upper_bound", broken)
    code, out, err = run(capsys, "verify-period", "-q", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("internal error: codimension mismatch\n")


def test_any_other_exception_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(cli, "sample_counts", broken)
    code, out, err = run(capsys, "count", "-q", "2", "-n", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("internal error: unexpected argument\n")


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["count", "--method", "guess", "-q", "1", "-n", "1"])


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert run(capsys, "count", "-q", "3", "-n", "5")[0] == 0
    first = len(built)
    assert run(capsys, "count", "-q", "3", "-n", "5")[0] == 0
    assert first > 0
    assert len(built) == first


def test_one_parser_serves_a_sequence_of_calls(capsys, monkeypatch):
    rejected = ["count", "--method", "guess", "-q", "1", "-n", "1"]
    monkeypatch.setenv("COLUMNS", "80")
    source = str(Path(cli.__file__).parent.parent)
    fresh = subprocess.run(
        [sys.executable, "-m", "bishops", *rejected],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": source})
    assert fresh.returncode == 2

    first = run(capsys, "count", "-q", "3", "-n", "5")
    with pytest.raises(SystemExit) as exit_info:
        main(rejected)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == fresh.stderr
    graph = str(GOLDEN_DIR / "graphs" / "negative_forest.txt")
    code, out, _ = run(capsys, "graph", graph)
    golden = (GOLDEN_DIR / "graph_negative_forest_pretty.txt").read_text()
    assert (code, out) == (0, golden.partition("---\n")[2])
    assert run(capsys, "count", "-q", "3", "-n", "5") == first


@pytest.mark.parametrize("module", [counting, quasipoly, geometry])
def test_library_modules_leave_rendering_to_the_cli(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"json", "csv", "io"}
