"""Byte-for-byte replay of committed CLI transcripts.

Each file in ``tests/golden/`` holds one command line, its exit code and
its exact stdout::

    $ bishops interpolate -q 3 --period 1
    exit 0
    ---
    <stdout, byte for byte>

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

import pytest

from bishops.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    **{f"interpolate_q{q}_pretty": ["interpolate", "-q", str(q)]
       for q in range(1, 9)},
    **{f"interpolate_q{q}_json": ["interpolate", "-q", str(q),
                                  "--format", "json"]
       for q in (*range(1, 9), 16, 24)},
    "interpolate_q3_period1": ["interpolate", "-q", "3", "--period", "1"],
    "interpolate_q3_period3": ["interpolate", "-q", "3", "--period", "3"],
    "interpolate_rook_q2": ["interpolate", "-p", "1,0;0,1", "-q", "2"],
    "verify_period_q3": ["verify-period", "-q", "3"],
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def render(argv: list[str], code: int, stdout: str) -> str:
    return f"$ bishops {shlex.join(argv)}\nexit {code}\n---\n{stdout}"


def parse(text: str) -> tuple[list[str], int, str]:
    header, _, stdout = text.partition("---\n")
    command, exit_line = header.splitlines()
    return (shlex.split(command.removeprefix("$ bishops ")),
            int(exit_line.removeprefix("exit ")), stdout)


def test_every_case_has_a_golden():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replays(name):
    text = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    argv, expected_code, expected_stdout = parse(text)
    assert argv == CASES[name]
    code, stdout = run_cli(argv)
    assert stdout == expected_stdout
    assert code == expected_code


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, stdout = run_cli(argv)
        (GOLDEN_DIR / f"{name}.txt").write_text(
            render(argv, code, stdout), encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)
