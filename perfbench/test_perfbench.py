"""Self-tests of the benchmark: pinned span counts, the seeded generator,
the budget on naive operations, the independent oracle and the scaling
of op times to reference speed.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest

import bishops
from bishops import cli, geometry, linalg, quasipoly
from bishops.board import parse_rider
from bishops.counting import count_bishops_fast, count_unlabelled_naive

import oracle
import speed
import worker
from spans import Tracer
from workloads import (NAIVE_BUDGET, PIECES, WORKLOADS, generate, layer_sweep,
                       serialize)

QUEEN = PIECES["queen"]


def traced_counts(action) -> dict[str, int]:
    tracer = Tracer()
    with tracer.installed(), redirect_stdout(io.StringIO()):
        action()
    return {name: entry["calls"] for name, entry in tracer.summary().items()}


@pytest.mark.parametrize("action, expected", [
    (lambda: cli.main(["interpolate", "-q", "24", "--holdout", "4"]),
     {"counting.count_bishops_fast": 100, "linalg.solve": 2,
      "quasipoly.interpolate": 1, "cli.main": 1}),
    (lambda: cli.main(["vertices", "-q", "3"]),
     {"linalg.invert": 757, "linalg.rank": 63,
      "geometry.enumerate_lattice_vertices": 1}),
    (lambda: geometry.matroid_check(4),
     {"linalg.rank": 4095, "signed_graph.components": 8192}),
    (lambda: cli.main(["count", "-p", QUEEN, "-q", "4", "-n", "7"]),
     {"board.attacks": 1176, "counting.count_unlabelled_naive": 1}),
])
def test_tracer_pins_call_counts(action, expected):
    counts = traced_counts(action)
    assert {name: counts[name] for name in expected} == expected


def test_tracer_rebinds_direct_imports_and_restores_them():
    originals = (cli.count_bishops_fast, quasipoly.count_bishops_fast,
                 bishops.count_bishops_fast, linalg.solve,
                 quasipoly.Quasipolynomial.evaluate)
    tracer = Tracer()
    with tracer.installed():
        assert cli.count_bishops_fast is quasipoly.count_bishops_fast
        assert cli.count_bishops_fast is not originals[0]
        assert bishops.count_bishops_fast is cli.count_bishops_fast
    assert (cli.count_bishops_fast, quasipoly.count_bishops_fast,
            bishops.count_bishops_fast, linalg.solve,
            quasipoly.Quasipolynomial.evaluate) == originals


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    with tracer.installed(), redirect_stdout(io.StringIO()):
        cli.main(["interpolate", "-q", "8"])
    stats = tracer.summary()
    main = stats["cli.main"]
    children = sum(stats[name]["s"] for name in
                   ("counting.count_bishops_fast", "quasipoly.interpolate",
                    "quasipoly.verify"))
    assert main["self_s"] == pytest.approx(main["s"] - children, abs=1e-6)
    metrics = tracer.metrics()
    assert metrics["linalg.solve.max_rows"] == 16
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {metric["name"] for metric in spec["per_layer"]}
    assert set(metrics) | {"trace_overhead_s"} == listed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_seeded(workload):
    assert serialize(generate(workload, 7)) == serialize(generate(workload, 7))
    assert serialize(generate(workload, 7)) != serialize(generate(workload, 8))


def test_every_naive_op_carries_a_budget():
    naive = [op["argv"] for op in generate("census", 3)
             if "-p" in op["argv"] or "naive" in op["argv"]]
    assert len(naive) == 74
    assert all(argv[argv.index("--budget") + 1] == str(NAIVE_BUDGET)
               for argv in naive)


def test_an_oversized_naive_op_fails_instead_of_running_away():
    op = next(op for op in generate("census", 3) if "--budget" in op["argv"])
    truth = oracle.Oracle()
    expected = worker.expectation(op, truth)
    assert worker.run_op(op, expected)[1] is None
    argv = list(op["argv"])
    argv[argv.index("--budget") + 1] = "1"
    small = dict(op, argv=argv)
    run = worker.Run()
    run.execute([small], [expected])
    assert run.attempted == 1 and len(run.failures) == 1
    assert "exit code 2" in run.failures[0]


def test_a_wrong_answer_counts_as_failed():
    op = next(op for op in generate("census", 3) if op["check"][0] == "count")
    expected = worker.expectation(op, oracle.Oracle())
    wrong = {n: value + 1 for n, value in expected.items()}
    assert worker.run_op(op, wrong)[1] is not None


def test_oracle_routes_agree_with_the_package():
    truth = oracle.Oracle()
    for q in range(0, 9):
        for n in range(0, 26):
            assert truth.rider("bishop", q, n) == count_bishops_fast(q, n)
    assert truth.bishops(24, 400) == count_bishops_fast(24, 400)
    for piece in PIECES.values():
        for n in range(1, 6):
            for q in range(1, 5):
                assert truth.rider(piece, q, n) == count_unlabelled_naive(
                    parse_rider(piece), q, n)


def test_op_times_leave_out_slices_and_are_scaled_per_chunk(monkeypatch):
    run = worker.Run()
    sampler = run.sampler
    per_op = worker.CHUNK_SLICES - 1
    # each op uses 0.1 CPU seconds besides its slices, which take twice
    # REFERENCE_S each: a host at half the reference speed
    def fake_op(*args):
        sampler.count += per_op
        sampler.spent += per_op * 2 * speed.REFERENCE_S
        return 0.1 + per_op * 2 * speed.REFERENCE_S, None
    monkeypatch.setattr(worker, "run_op", fake_op)
    times = run.execute([{}] * 3, [None] * 3)
    # ops 1-2 fill one chunk; op 3 is topped up with real slices, which
    # run at this host's own speed
    assert times[:2] == pytest.approx([0.05, 0.05])
    assert 0 < times[2] and sampler.count == 3 * per_op + 1


def test_sampler_scale_tops_up_and_times_the_slices():
    sampler = speed.Sampler()
    factor = sampler.scale(sampler.mark(), 5)
    assert sampler.count == 5 and sampler.spent > 0
    assert factor == pytest.approx(speed.REFERENCE_S * 5 / sampler.spent)
    assert speed._slice() == speed._slice()


def test_layer_sweep_reaches_every_layer(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sweep = layer_sweep()
    expected = worker._prepare(sweep, oracle.Oracle())
    run, tracer = worker.Run(), Tracer()
    with tracer.installed():
        run.execute(sweep, expected, tracer)
    assert run.failures == []
    assert all(tracer.metrics().values())
