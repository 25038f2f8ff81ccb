#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the workspace's `corion` server
and the `corion-perfbench` load generator from source (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, and prints
as its last line one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` ones BENCHMARK.json
names, with `--trace 1` the `per_layer` ones. Every metric the run
measured, with its sample count and the run's environment, is also kept
under `.bench_run/results/`. Exits non-zero, without a result line, when
the build fails or any output or durability check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
# Workloads whose load generator and server share one CPU. point_mix has
# a single request client, so with a CPU each the CPUs idle between the
# two ends of every round trip, and each request waits for an idle
# virtual CPU to be woken — a wait that on a shared VM follows the host's
# load, not the program. On one CPU the two ends hand over by a plain
# context switch; on a quiet host both settings give the same latencies.
ONE_CPU = {"point_mix"}


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    """Builds the server and the load generator; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "corion", "--bin", "corion"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        except FileNotFoundError as e:
            fail(2, f"build: {e}")
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail(2, f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "corion", release / "corion-perfbench"


def declared_metrics(trace, workload):
    """The metrics BENCHMARK.json declares for this mode, and whether the
    workload is one it lists (only those must emit every one)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return names, workload in {w["name"] for w in spec["workloads"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--break-check", action="store_true",
                    help="self-test: corrupt one expected count; the run must fail")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        fail(2, "BENCHMARK.json not found at the checkout root")
    names, listed = declared_metrics(args.trace, args.workload)
    server, loadgen = build()
    # Flush what the build (or an earlier run) left dirty, so its
    # writeback does not compete with the run's own fsyncs.
    os.sync()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_run" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = work / "result.json"
    cmd = [str(loadgen), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", str(server), "--work", str(work), "--out", str(out)]
    if args.break_check:
        cmd.append("--break-check")
    sys.stdout.flush()
    if args.workload in ONE_CPU:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A session of its own, so a timeout can stop the load generator and
    # every server it spawned together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(3, f"run exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        shutil.rmtree(work, ignore_errors=True)
        fail(1, f"{args.workload}: run failed (exit {code}); see above")

    report = json.loads(out.read_text())
    shutil.copy(out, results / f"{tag}.json")
    spans = out.with_suffix(".spans.jsonl")
    if spans.exists():
        shutil.copy(spans, results / f"{tag}.spans.jsonl")
    shutil.rmtree(work, ignore_errors=True)

    missing = [n for n in names if n not in report["metrics"]]
    if missing and listed:
        fail(4, f"{args.workload}: metrics not emitted: {', '.join(missing)}")
    metrics = {n: {"value": report["metrics"][n]["value"],
                   "unit": report["metrics"][n]["unit"]}
               for n in names if n in report["metrics"]}
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
