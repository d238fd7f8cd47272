"""Byte-for-byte replay of committed CLI transcripts.

Each file in ``tests/golden/`` holds one command line, its exit code,
its exact stderr when there is any, and its exact stdout::

    $ bishops count -q 2 --n-range 5..3
    exit 2
    stderr:
    error: need 0 <= n_from <= n_to
    ---
    <stdout, byte for byte>

Commands run from the repository root, so graph files are named by
their path from there (``tests/golden/graphs/``).  The generators in
``bishops._testkit`` are pinned too: ``tests/golden/testkit/instances.txt``
holds the first 20 instances of each, seeded, in the graph exchange
format.

Record the goldens that are missing, such as new ``CASES`` entries, with

    PYTHONPATH=src python tests/test_golden.py

An existing file is re-recorded only when named, and only when an output
change is intended (``testkit`` names the generator file)::

    PYTHONPATH=src python tests/test_golden.py vertices_q3 testkit
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path
from random import Random

import pytest

from bishops import _testkit
from bishops.cli import main
from bishops.signed_graph import format_graph

REPO_ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
GRAPH_DIR = "tests/golden/graphs"
TESTKIT_GOLDEN = GOLDEN_DIR / "testkit" / "instances.txt"

ROOK = "1,0;0,1"
QUEEN = "1,0;0,1;1,1;1,-1"

CASES = {
    **{f"interpolate_q{q}_pretty": ["interpolate", "-q", str(q)]
       for q in range(1, 9)},
    **{f"interpolate_q{q}_json": ["interpolate", "-q", str(q),
                                  "--format", "json"]
       for q in (*range(1, 9), 16, 24, 32, 64, 128)},
    "interpolate_q3_period1": ["interpolate", "-q", "3", "--period", "1"],
    "interpolate_q3_period3": ["interpolate", "-q", "3", "--period", "3"],
    "interpolate_rook_q2": ["interpolate", "-p", ROOK, "-q", "2"],
    "verify_period_q3": ["verify-period", "-q", "3"],
    **{f"count_range_{method}_{fmt}": ["count", "-q", "3", "--n-range",
                                       "1..6", "--method", method,
                                       "--format", fmt]
       for method in ("auto", "naive", "fast")
       for fmt in ("pretty", "csv", "json")},
    **{f"count_single_{method}": ["count", "-q", "3", "-n", "7",
                                  "--method", method]
       for method in ("auto", "naive", "fast")},
    "count_single_json": ["count", "-q", "4", "-n", "8", "--format", "json"],
    **{f"count_rook_{fmt}": ["count", "-p", ROOK, "-q", "2", "--n-range",
                             "0..5", "--format", fmt]
       for fmt in ("pretty", "csv", "json")},
    "count_rook_single_naive": ["count", "-p", ROOK, "-q", "3", "-n", "4",
                                "--method", "naive"],
    "count_queen_single": ["count", "-p", QUEEN, "-q", "3", "-n", "5"],
    "count_range_q24_wide_csv": ["count", "-q", "24", "--n-range",
                                 "300..400", "--format", "csv"],
    "count_range_q7_first_two_json": ["count", "-q", "7", "--n-range",
                                      "0..1", "--format", "json"],
    "count_range_q0": ["count", "-q", "0", "--n-range", "0..3"],
    "count_range_q5_one_size": ["count", "-q", "5", "--n-range", "9..9"],
    "vertices_q1": ["vertices", "-q", "1"],
    "vertices_q2": ["vertices", "-q", "2"],
    "vertices_q3_json": ["vertices", "-q", "3", "--format", "json"],
    "vertices_q3": ["vertices", "-q", "3"],
    "vertices_q2_json": ["vertices", "-q", "2", "--format", "json"],
    "verify_period_q1": ["verify-period", "-q", "1"],
    "verify_period_q2": ["verify-period", "-q", "2"],
    "error_vertices_q4_bound": ["vertices", "-q", "4"],
    "error_verify_period_q4_bound": ["verify-period", "-q", "4"],
    **{f"graph_{stem}_{fmt}": ["graph", f"{GRAPH_DIR}/{stem}.txt",
                               "--format", fmt]
       for stem in ("half_integral", "multigraph", "negative_forest",
                    "seeded_four")
       for fmt in ("pretty", "json")},
    "check_seed0": ["check", "--seed", "0", "--graphs", "50",
                    "--matrices", "40", "--solves", "40"],
    "error_interpolate_period0": ["interpolate", "-q", "3", "--period", "0"],
    "error_count_fast_rook": ["count", "--method", "fast", "-p", ROOK,
                              "-q", "2", "-n", "3"],
    "error_count_reversed_range": ["count", "-q", "2", "--n-range", "5..3"],
    "error_count_negative_q_range": ["count", "-q", "-1", "--n-range",
                                     "0..3"],
    "error_graph_singular": ["graph", f"{GRAPH_DIR}/singular.txt"],
}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def render(argv: list[str], code: int, stdout: str, stderr: str) -> str:
    head = f"$ bishops {shlex.join(argv)}\nexit {code}\n"
    if stderr:
        assert stderr.endswith("\n"), "stderr must end with a newline"
        head += "stderr:\n" + stderr
    return f"{head}---\n{stdout}"


def parse(text: str) -> tuple[list[str], int, str, str]:
    header, _, stdout = text.partition("---\n")
    command, exit_line, *rest = header.splitlines(keepends=True)
    stderr = "".join(rest).removeprefix("stderr:\n")
    return (shlex.split(command.removeprefix("$ bishops ")),
            int(exit_line.removeprefix("exit ")), stderr, stdout)


def render_testkit_instances() -> str:
    """The first 20 instances of each generator, seed 0, each with its
    own Random."""
    blocks = []
    for name in ("random_signed_graph", "random_signed_tree",
                 "random_negative_one_forest",
                 "random_clique_solve_instance"):
        generator = getattr(_testkit, name)
        rng = Random(0)
        for index in range(20):
            instance = generator(rng)
            if isinstance(instance, tuple):
                graph, fixations = instance
                raw = [(f.axis, f.index, f.value) for f in fixations]
            else:
                graph, raw = instance, []
            blocks.append(f"# {name} {index}\n{format_graph(graph, raw)}")
    return "".join(blocks)


def test_every_case_has_a_golden():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replays(name, monkeypatch):
    # bytes, not text mode, so csv's \r\n survives
    text = (GOLDEN_DIR / f"{name}.txt").read_bytes().decode("utf-8")
    argv, expected_code, expected_stderr, expected_stdout = parse(text)
    assert argv == CASES[name]
    monkeypatch.chdir(REPO_ROOT)
    code, stdout, stderr = run_cli(argv)
    assert stdout == expected_stdout
    assert stderr == expected_stderr
    assert code == expected_code


def test_testkit_instances_replay():
    expected = TESTKIT_GOLDEN.read_text(encoding="utf-8")
    assert render_testkit_instances() == expected


def record(names: list[str]) -> None:
    """Write every golden whose file is missing, and re-record the
    existing ones in ``names``; run from the repository root."""
    unknown = set(names) - set(CASES) - {"testkit"}
    if unknown:
        raise ValueError(f"no golden named {', '.join(sorted(unknown))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN_DIR / f"{name}.txt"
        if path.exists() and name not in names:
            continue
        code, stdout, stderr = run_cli(argv)
        path.write_bytes(render(argv, code, stdout, stderr).encode("utf-8"))
        print(f"{name}: exit {code}", file=sys.stderr)
    if not TESTKIT_GOLDEN.exists() or "testkit" in names:
        TESTKIT_GOLDEN.parent.mkdir(exist_ok=True)
        TESTKIT_GOLDEN.write_text(render_testkit_instances(), encoding="utf-8")
        print("testkit: written", file=sys.stderr)


def test_record_keeps_existing_goldens_unless_named(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "GOLDEN_DIR", tmp_path)
    monkeypatch.setitem(globals(), "TESTKIT_GOLDEN",
                        tmp_path / "testkit" / "instances.txt")
    monkeypatch.setitem(globals(), "CASES", {
        "old": ["count", "-q", "2", "-n", "3"],
        "new": ["count", "-q", "2", "-n", "4"]})
    monkeypatch.chdir(REPO_ROOT)
    (tmp_path / "old.txt").write_text("stale")
    record([])
    assert (tmp_path / "old.txt").read_text() == "stale"
    assert parse((tmp_path / "new.txt").read_text())[3] == "92\n"
    assert TESTKIT_GOLDEN.read_text() == render_testkit_instances()
    record(["old"])
    assert parse((tmp_path / "old.txt").read_text())[3] == "26\n"
    with pytest.raises(ValueError, match="no golden named olf"):
        record(["olf"])


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    record(sys.argv[1:])
