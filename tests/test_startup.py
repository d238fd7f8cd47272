"""What a fresh process loads, the lazy package namespace, and how the
command line ends when its reader goes away."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bishops
from test_golden import GOLDEN_DIR, REPO_ROOT, parse

SOURCE = str(Path(bishops.__file__).parent.parent)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SOURCE, os.environ.get("PYTHONPATH")]))}
# stdout block-buffered, as it is by default into a pipe or a file
BUFFERED_ENV = {key: value for key, value in ENV.items()
                if key != "PYTHONUNBUFFERED"}
HEAVY_LAYERS = ("bishops.geometry", "bishops.signed_graph", "bishops.linalg")
DEFERRED_STDLIB = ("fractions", "json", "traceback")


def loaded_after(*steps: str) -> list[set[str]]:
    """The modules a fresh interpreter holds after each step."""
    code = "import sys\n" + "".join(
        f"{step}\nprint(' '.join(sys.modules))\n" for step in steps)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=ENV, check=True)
    return [set(line.split()) for line in done.stdout.splitlines()]


def test_a_count_loads_only_the_counting_layer():
    bare, = loaded_after("pass")
    package, parser, count = loaded_after(
        "import bishops",
        "import bishops.cli; bishops.cli.build_parser()",
        "import io, contextlib\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    bishops.cli.main(['count', '-q', '2', '-n', '3'])")
    assert {name for name in package if name.startswith("bishops.")} == set()
    unwanted = {*HEAVY_LAYERS, "bishops.quasipoly", "bishops._testkit",
                *(set(DEFERRED_STDLIB) - bare)}
    assert parser & unwanted == set()
    assert count & unwanted == set()
    assert {"bishops.board", "bishops.counting"} <= parser


def test_interpolate_loads_quasipoly_but_not_the_geometry():
    loaded, = loaded_after(
        "import io, contextlib, bishops.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    bishops.cli.main(['interpolate', '-q', '3'])")
    assert "bishops.quasipoly" in loaded
    assert loaded & set(HEAVY_LAYERS) == set()


@pytest.mark.parametrize("golden", [
    "count_single_auto", "interpolate_q3_pretty", "verify_period_q2",
    "vertices_q3_json", "graph_half_integral_pretty", "check_seed0"])
def test_each_subcommand_runs_in_a_cold_process(golden):
    # a handler that imports too little fails here even when an earlier
    # test already loaded the module it forgot
    argv, code, stderr, stdout = parse(
        (GOLDEN_DIR / f"{golden}.txt").read_bytes().decode("utf-8"))
    done = subprocess.run([sys.executable, "-m", "bishops", *argv],
                          capture_output=True, timeout=60, env=ENV,
                          cwd=REPO_ROOT)
    assert (done.returncode, done.stderr.decode(), done.stdout.decode()) == (
        code, stderr, stdout)


def test_closed_stdout_exits_141_without_a_message():
    # 20,000 lines fill the pipe buffer many times over, so the write
    # that meets the closed pipe happens while main is running
    child = subprocess.Popen(
        [sys.executable, "-m", "bishops", "count", "-q", "2", "--n-range",
         "1..20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    first = child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert (first, stderr) == (b"n=1: 0\n", b"")


def run_into_a_pipe_without_a_reader(*argv: str):
    """Run the command with block-buffered stdout into a pipe whose read
    end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as stdout:
        return subprocess.run(
            [sys.executable, "-m", "bishops", *argv],
            stdout=stdout, stderr=subprocess.PIPE, timeout=60,
            env=BUFFERED_ENV)


def test_output_to_a_pipe_without_a_reader_exits_141():
    # with stdout block-buffered, the three bytes stay in the buffer until
    # main flushes them, so the write fails inside main, not at exit
    done = run_into_a_pipe_without_a_reader("count", "-q", "2", "-n", "3")
    assert (done.returncode, done.stderr) == (141, b"")


@pytest.mark.parametrize("argv", [["count", "--help"], ["--help"]])
def test_help_to_a_pipe_without_a_reader_exits_141(argv):
    # argparse prints the help and raises SystemExit while parsing, so
    # the buffered text must meet the closed pipe in main, not at exit
    done = run_into_a_pipe_without_a_reader(*argv)
    assert (done.returncode, done.stderr) == (141, b"")
    live = subprocess.run([sys.executable, "-m", "bishops", *argv],
                          capture_output=True, timeout=60, env=ENV)
    assert (live.returncode, live.stderr) == (0, b"")
    assert live.stdout.startswith(b"usage: bishops ")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device on which every write fails")
@pytest.mark.parametrize("argv", [["count", "-q", "2", "-n", "3"],
                                  ["count", "--help"]])
def test_output_to_a_full_device_exits_2_with_one_line(argv):
    # with stdout block-buffered, a failed flush in main must leave
    # nothing for the flush at interpreter exit to fail on again
    with open("/dev/full", "wb") as stdout:
        done = subprocess.run([sys.executable, "-m", "bishops", *argv],
                              stdout=stdout, stderr=subprocess.PIPE,
                              timeout=60, env=BUFFERED_ENV)
    assert (done.returncode, done.stderr) == (
        2, b"error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("name", bishops.__all__)
def test_each_export_is_its_defining_module_s_object(name):
    module = importlib.import_module(f"bishops.{bishops._EXPORTS[name]}")
    value = getattr(bishops, name)
    assert value is getattr(module, name)
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__ == module.__name__


def test_the_export_table_serves_dir_and_star_imports():
    assert len(set(bishops.__all__)) == len(bishops.__all__)
    assert set(bishops.__all__) <= set(dir(bishops))
    namespace = {}
    exec("from bishops import *", namespace)
    assert set(bishops.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        bishops.no_such_name
    from bishops import linalg
    assert linalg is sys.modules["bishops.linalg"]
