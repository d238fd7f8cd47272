"""The benchmark's output checks accept the package's own output.

``perfbench/oracle.py`` judges the ``vertices`` and ``graph`` JSON by
re-reading every defining equation with its own reading of the sign
labels; it is loaded by path here, the way the benchmark loads it, and
only read.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bishops import geometry
from bishops.cli import main
from bishops.signed_graph import parse_graph

from helpers import DATA_DIR

ORACLE = Path(__file__).parent.parent / "perfbench" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("q, count, lcm", [(2, 16, 1), (3, 88, 2)])
def test_check_vertices_accepts_vertices_json(oracle, capsys, q, count, lcm):
    text = run(capsys, "vertices", "-q", str(q), "--format", "json")
    assert oracle.check_vertices(text, q, count, lcm) is None


def test_check_vertices_reads_the_hyperplane_sign(oracle, capsys, monkeypatch):
    # relabelling a hyperplane of this vertex names the other diagonal
    # family of its two pieces, which the vertex is not on
    payload = json.loads(run(capsys, "vertices", "-q", "3", "--format", "json"))
    vertex = next(v for v in payload["vertices"]
                  if "1/2" in v["point"] and v["hyperplanes"])
    flipped = vertex["hyperplanes"][0]
    flipped["sign"] = "-" if flipped["sign"] == "+" else "+"
    problem = oracle.check_vertices(json.dumps(payload), 3, 88, 2)
    assert problem is not None and "off its hyperplane" in problem
    # an edge equation read with the other sign moves every normal to
    # the other diagonal family, which the renderer's label still names
    honest = geometry._attack_terms
    monkeypatch.setattr(geometry, "_attack_terms",
                        lambda i, j, sign: honest(i, j, -sign))
    text = run(capsys, "vertices", "-q", "3", "--format", "json")
    problem = oracle.check_vertices(text, 3, 88, 2)
    assert problem is not None and "off its hyperplane" in problem


def test_check_graph_accepts_graph_json(oracle, capsys):
    path = DATA_DIR / "clique_example.txt"
    graph, fixations = parse_graph(path.read_text())
    text = run(capsys, "graph", str(path), "--format", "json")
    assert oracle.check_graph(text, graph.q, list(graph.edges), fixations) is None
