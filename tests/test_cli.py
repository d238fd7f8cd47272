"""End-to-end runs of the command line, in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bishops import cli, counting
from bishops.board import BISHOP
from bishops.cli import main

from helpers import DATA_DIR

FIXTURE = str(DATA_DIR / "clique_example.txt")


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


@pytest.mark.parametrize("argv", [
    ("count", "-p", "1,0;0,1", "-q", "1", "-n", "3"),
    ("count", "-p", "1,0;0,1", "-q", "2", "-n", "3"),
    ("interpolate", "-p", "1,0;0,1", "-q", "1"),
])
def test_negative_budget_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: node budget must be nonnegative\n"


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
    monkeypatch.setattr(cli, "period_upper_bound", lambda q, *, bound: 1)
    code, out, _ = run(capsys, "verify-period", "-q", "3")
    assert code == 1
    assert out.splitlines() == [
        "geometric denominator lcm: 1",
        "interpolated minimized period: 2 (expected 2)",
        "FAIL",
    ]


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

    monkeypatch.setattr(cli, "period_upper_bound", broken)
    code, out, err = run(capsys, "verify-period", "-q", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("internal error: codimension mismatch\n")


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["count", "--method", "guess", "-q", "1", "-n", "1"])
