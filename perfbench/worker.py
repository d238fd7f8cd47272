"""One measured run of a workload, in a fresh interpreter.

``run.py`` starts this with ``PYTHONPATH=src`` and prints its last line.
Usage: worker.py WORKLOAD SEED SECONDS TRACE

After a warm-up, work repeats for up to SECONDS.  Untraced (TRACE 0),
full passes over the workload's operations repeat; after the first
pass, and after later ones while they fit, the run also times the
reference operation of each named op-time metric that the workload's
own operations do not cover.  An operation's time is its CPU time,
scaled to reference host speed by the calibration slices that ran
during it or its chunk (speed.py); its time in the run is the median
over its repeats.
Traced (TRACE 1), a round is an untraced and a traced pass, then the
traced layer sweep; the spans of the last round are written to
.perfbench_out/.

Every operation's output is checked by an independent route (oracle.py);
an operation that raises, exits non-zero or prints a wrong result counts
as failed.
"""

from __future__ import annotations

import io
import json
import math
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, thread_time

from bishops import cli, geometry
from bishops.counting import count_bishops_fast

import oracle
import speed
from spans import Tracer
from workloads import CHECK_SUITES, generate, layer_sweep, reference_ops

# how often a run times the reference ops; passes alone fill the rest of
# the run, so a workload's own metrics get more repeats than these
PROBE_ROUNDS = 3
# fewest calibration slices behind one scale factor: ops are scaled in
# chunks of about CHUNK_SLICES * speed.INTERVAL_S CPU seconds, short
# enough to follow the host's speed from one op to the next
CHUNK_SLICES = 3
WARM_UP = (
    ["interpolate", "-q", "12", "--format", "json"],
    ["vertices", "-q", "2", "--format", "json"],
    ["count", "-q", "5", "--n-range", "1..40", "--format", "csv"],
    ["count", "-p", "1,0;0,1", "-q", "3", "-n", "5", "--budget", "100000"],
    ["check", "--seed", "0", "--graphs", "50", "--matrices", "20",
     "--solves", "20"],
)


def expectation(op: dict, truth: oracle.Oracle):
    """What the op must print, computed before timing; a string when the
    independent routes themselves disagree, which fails the op."""
    kind, *params = op["check"]
    try:
        if kind == "count":
            piece, q, sizes, _ = params
            return {n: truth.rider(piece, q, n) for n in sizes}
        if kind == "interpolate":
            q, _, at = params
            direct = count_bishops_fast(q, at)
            if truth.bishops(q, at) != direct:
                raise oracle.OracleDisagreement(
                    f"u({q};{at}): fast counter {direct}, factorization "
                    f"{truth.bishops(q, at)}")
            return direct
    except oracle.OracleDisagreement as exc:
        return f"oracle disagreement: {exc}"
    return None


def verify(op: dict, text: str, result, expected) -> str | None:
    """None when the output is right, else what was wrong."""
    if isinstance(expected, str):
        return expected
    kind, *params = op["check"]
    lines = text.splitlines()
    if kind == "count":
        return oracle.check_count_output(text, params[3], expected)
    if kind == "interpolate":
        q, holdout, at = params
        return oracle.check_interpolation(text, q, holdout, at, expected)
    if kind == "verify_period":
        want = ["geometric denominator lcm: 2",
                "interpolated minimized period: 2 (expected 2)", "PASS"]
        return None if lines == want else f"printed {lines}"
    if kind == "vertices":
        return oracle.check_vertices(text, *params)
    if kind == "matroid":
        return None if result is True else f"returned {result!r}"
    if kind == "check":
        want = [f"{name}: ok ({trials} trials)"
                for name, trials in zip(CHECK_SUITES, params[0])]
        return None if lines == want else f"printed {lines}"
    if kind == "graph":
        return oracle.check_graph(text, *params)
    raise ValueError(f"unknown check {kind!r}")


def run_op(op: dict, expected, tracer: Tracer | None = None,
           op_id: int = -1) -> tuple[float, str | None]:
    """CPU seconds the op took, and None or the reason it failed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    result = code = None
    error = None
    if tracer is not None:
        tracer.op = op_id
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = thread_time()
        try:
            if op["call"] == "matroid_check":
                result = geometry.matroid_check(op["check"][1])
                code = 0
            else:
                code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed op is counted, the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = thread_time() - start
    if error is None and code != 0:
        error = f"exit code {code}: {stderr.getvalue().strip()[:200]}"
    if error is None:
        try:
            error = verify(op, stdout.getvalue(), result, expected)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable output ({type(exc).__name__}: {exc})"
    return elapsed, error


class Run:
    """Counts attempts and failures over every op of one run, and holds
    the sampler of host speed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.sampler = speed.Sampler()

    def execute(self, ops, expected, tracer=None, first_id=0) -> list[float]:
        """Run ``ops`` once; their times in seconds at reference speed.
        An op's time leaves out the slices that ran inside it.  Ops are
        scaled in chunks that hold at least CHUNK_SLICES slices; the last
        chunk of the pass is topped up with slices run after it."""
        sampler = self.sampler
        times: list[float] = []
        chunk: list[float] = []
        since = sampler.mark()
        for index, op in enumerate(ops):
            slices_s = sampler.spent
            elapsed, error = run_op(op, expected[index], tracer,
                                    first_id + index)
            self.attempted += 1
            if error is not None:
                label = " ".join(op["argv"] or [op["call"]])
                self.failures.append(f"{label}: {error}")
            chunk.append(elapsed - (sampler.spent - slices_s))
            if (sampler.count - since[0] >= CHUNK_SLICES
                    or index == len(ops) - 1):
                factor = sampler.scale(since, CHUNK_SLICES)
                times += [cpu * factor for cpu in chunk]
                since, chunk = sampler.mark(), []
        return times


def _warm_up(sampler: speed.Sampler) -> None:
    """Touch every subcommand and the calibration slice once, untimed,
    so first-call costs such as allocator growth stay out of the first
    pass."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in WARM_UP:
            cli.main(argv)
    sampler.sample()


def _typical(samples: list[list[float]]) -> list[float]:
    """Per op, its median time over the repeats (one list per repeat)."""
    return [statistics.median(times) for times in zip(*samples)]


def _named_metrics(ops: list[dict],
                   times: list[list[float]]) -> dict[str, float]:
    """Per named metric, the median time of each distinct op behind it,
    then the median over those ops (check_s has one per seeded check).
    ``times`` holds one list per repeat."""
    grouped: dict[str, dict[tuple, list[float]]] = {}
    for repeat in times:
        for op, elapsed in zip(ops, repeat):
            if op["metric"]:
                key = tuple(op["argv"] or [op["call"]])
                grouped.setdefault(op["metric"], {}).setdefault(
                    key, []).append(elapsed)
    return {name: statistics.median(statistics.median(samples)
                                    for samples in per_op.values())
            for name, per_op in grouped.items()}


def _prepare(ops: list[dict], truth: oracle.Oracle) -> list:
    """Write the files the ops read; return their expected outputs."""
    for op in ops:
        for path, text in op.get("files", {}).items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text)
    return [expectation(op, truth) for op in ops]


def _rounds(seconds: float, body) -> int:
    """Call ``body`` until one more round as long as the last would
    overrun ``seconds``; always at least once.  Returns the round count."""
    start, last, count = perf_counter(), 0.0, 0
    while count == 0 or perf_counter() - start + last <= seconds:
        began = perf_counter()
        body()
        last = perf_counter() - began
        count += 1
    return count


def measure(workload: str, seed: int, seconds: float, run: Run) -> dict:
    """End-to-end metrics.  Passes over the workload repeat while another
    fits in ``seconds``.  The reference ops of the named metrics that the
    workload's own ops lack follow the first pass, and follow later passes
    while they fit, up to PROBE_ROUNDS times."""
    ops = generate(workload, seed)
    owned = {op["metric"] for op in ops if op["metric"]}
    probes = [op for op in reference_ops(seed) if op["metric"] not in owned]
    truth = oracle.Oracle()
    expected, probe_expected = _prepare(ops, truth), _prepare(probes, truth)
    _warm_up(run.sampler)
    passes: list[list[float]] = []
    probe_rounds: list[list[float]] = []
    deadline = perf_counter() + seconds
    pass_s = probe_s = 0.0
    while not passes or perf_counter() + pass_s <= deadline:
        began = perf_counter()
        passes.append(run.execute(ops, expected))
        pass_s = perf_counter() - began
        if len(passes) == 1:
            # ru_maxrss only grows, so read it before any reference op
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not probe_rounds or (len(probe_rounds) < PROBE_ROUNDS
                                and perf_counter() + probe_s <= deadline):
            began = perf_counter()
            probe_rounds.append(run.execute(probes, probe_expected))
            probe_s = perf_counter() - began
    typical = _typical(passes)
    # nearest rank: an interpolated p90 would sit between certify's many
    # millisecond ops and its few long ones, and swing with both
    ordered = sorted(typical)
    metrics = {
        "wall_s": sum(typical),
        "peak_rss_mb": peak_kb / 1024,
        "op_p50_s": statistics.median(typical),
        "op_p90_s": ordered[math.ceil(0.9 * len(ordered)) - 1],
    }
    metrics.update(_named_metrics(ops, passes))
    metrics.update(_named_metrics(probes, probe_rounds))
    return {"metrics": metrics, "passes": len(passes),
            "probe_rounds": len(probe_rounds),
            "latency_samples": len(typical),
            "ops_per_pass": len(ops)}


def measure_traced(workload: str, seed: int, seconds: float, run: Run) -> dict:
    """Per-layer metrics.  Each round is an untraced and a traced pass,
    then the layer sweep, traced too (its op ids follow the pass's);
    layer metrics are medians over rounds, and the tracing overhead
    compares the median repeats of each op with and without tracing."""
    ops, sweep = generate(workload, seed), layer_sweep()
    truth = oracle.Oracle()
    expected, sweep_expected = _prepare(ops, truth), _prepare(sweep, truth)
    _warm_up(run.sampler)
    tracer = Tracer()
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    samples: dict[str, list[float]] = {}

    def one_round() -> None:
        plain.append(run.execute(ops, expected))
        tracer.reset()
        with tracer.installed():
            traced.append(run.execute(ops, expected, tracer))
            run.execute(sweep, sweep_expected, tracer, first_id=len(ops))
        for name, value in tracer.metrics().items():
            samples.setdefault(name, []).append(value)

    rounds = _rounds(seconds, one_round)
    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps(tracer.dump()))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["trace_overhead_s"] = sum(_typical(traced)) - sum(_typical(plain))
    return {"metrics": metrics, "passes": rounds,
            "ops_per_pass": len(ops), "spans_file": str(spans_path)}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv
    run = Run()
    measure_run = measure_traced if trace == "1" else measure
    with run.sampler.running():
        report = measure_run(workload, int(seed), float(seconds), run)
    report.update(attempted=run.attempted, failed=len(run.failures),
                  failures=run.failures[:10],
                  slice_ms=1e3 * run.sampler.spent / run.sampler.count)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
