"""The bishops benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload formula --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Prints a summary, then as its last
line one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
A copy with the environment beside it goes to .perfbench_out/.

The program under test runs in fresh child interpreters, one at a time,
with PYTHONPATH=src and BISHOPS_THREADS removed so the default sequential
path is measured: first several set-up probes (import bishops and build
the parser), then one worker (worker.py) that generates the seeded
operations, checks them and times them.  Times are CPU seconds scaled
to a reference host speed (speed.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("formula", "certify", "census")
SETUP_RUNS = 11
SETUP_CODE = (
    "import time\n"
    "start = time.process_time()\n"
    "import bishops\n"
    "from bishops.cli import build_parser\n"
    "build_parser()\n"
    "print(time.process_time() - start)\n"
)
# calibration slices run here before and after each set-up probe
SETUP_SLICES = 20
# the worker gets SECONDS plus this long to finish before it is stopped
WORKER_GRACE_S = 120


def child_env(root: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in ("BISHOPS_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(root: Path, env: dict[str, str]) -> float:
    """Median seconds to import bishops and build the CLI parser in a
    fresh interpreter: its CPU time, scaled to reference speed by
    calibration slices run here just before and after it.  The first,
    untimed start writes bytecode caches."""
    times = []
    sampler = speed.Sampler()
    for attempt in range(SETUP_RUNS + 1):
        since = sampler.mark()
        sampler.scale(since, SETUP_SLICES)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        factor = sampler.scale(since, 2 * SETUP_SLICES)
        if attempt:
            times.append(float(done.stdout) * factor)
    return statistics.median(times)


def environment(root: Path) -> dict:
    """Python version, usable cores, commit and source size of the run."""
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    lines = sum(len(path.read_text().splitlines())
                for path in sorted((root / "src" / "bishops").glob("*.py")))
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_bishops_lines": lines}


def metric_units(root: Path, trace: str) -> dict[str, str]:
    """Name and unit of every metric the run must report, as listed in
    BENCHMARK.json: end-to-end untraced, per-layer traced."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end" if trace == "0" else "per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bishops" / "__init__.py").is_file():
        print("error: run from the root of a bishops checkout "
              "(src/bishops is missing)", file=sys.stderr)
        return 2
    env = child_env(root)
    setup_s = measure_setup(root, env) if args.trace == "0" else None
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), args.workload,
         str(args.seed), str(args.seconds), args.trace],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=args.seconds + WORKER_GRACE_S)
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.splitlines()[-1])

    if setup_s is not None:
        report["metrics"]["setup_s"] = setup_s
    units = metric_units(root, args.trace)
    metrics = {name: {"value": report["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    attempted, failed = report["attempted"], report["failed"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    info = environment(root)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          + ", ".join(f"{key} {value}" for key, value in info.items()))
    print(f"passes {report['passes']} of {report['ops_per_pass']} ops"
          + (f", {report['probe_rounds']} reference rounds, "
             f"{report['latency_samples']} op latency samples"
             if "latency_samples" in report else "")
          + (f", spans in {report['spans_file']}" if "spans_file" in report else ""))
    print(f"calibration slice {report['slice_ms']:.4g} ms amid the ops "
          f"(reference {speed.REFERENCE_S * 1e3:.4g} ms)")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for failure in report["failures"]:
        print(f"  failed: {failure}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"environment": info, "report": report,
                              "result": result}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
