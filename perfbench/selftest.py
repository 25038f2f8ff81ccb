#!/usr/bin/env python3
"""Small-size self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks
that each metric is emitted with its unit on every workload it applies
to. Then runs one workload with a deliberately wrong expected object
count and checks that the durability check fails the run. Exits 0 when
all of that holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark entry point: build + paths)

WORKLOADS = ["composite_ingest", "subtree_read", "point_mix", "durable_commit"]
ALL = set(WORKLOADS)

# Untraced metrics: name -> (unit, workloads it applies to).
E2E = {
    "setup_s": ("s", ALL),
    "seed_s": ("s", ALL),
    "ops_per_s": ("op/s", ALL),
    "op_p50_us": ("us", ALL),
    "failed_frac": ("ratio", ALL),
    "recovery_s": ("s", ALL),
    "space_amp": ("ratio", ALL),
    "client.op_p99_us": ("us", ALL),
    "commit_p50_us": ("us", {"composite_ingest", "durable_commit"}),
    "subtree_p50_us": ("us", {"subtree_read"}),
    "get_p50_us": ("us", {"point_mix", "subtree_read"}),
    "set_attr_p50_us": ("us", {"point_mix"}),
    "delete_p50_us": ("us", {"point_mix"}),
    "stream_lag_p50_ms": ("ms", {"point_mix"}),
    "stream.events_per_commit": ("ratio", {"point_mix"}),
}


def run_loadgen(server, loadgen, workdir, workload, trace, extra=()):
    out = workdir / f"{workload}-{trace}.json"
    cmd = [str(loadgen), "--workload", workload, "--seed", "1", "--seconds", "0.2",
           "--trace", str(trace), "--server", str(server), "--work", str(workdir),
           "--out", str(out), *extra]
    r = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    return r, out


def check_units(report, expected, workload, problems, timed):
    got = report["metrics"]
    for name, (unit, applies) in expected.items():
        if workload not in applies:
            continue
        if name not in got:
            problems.append(f"{workload}: {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"{workload}: {name} in {got[name]['unit']}, expected {unit}")
        elif timed and got[name]["samples"] < 1:
            problems.append(f"{workload}: {name} has no samples")


def main():
    server, loadgen = run.build()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    gated = {m["name"]: (m["unit"], listed) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], ALL) for m in spec["per_layer"]}
    workdir = run.ROOT / ".bench_run" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    for w in WORKLOADS:
        for trace, expected in ((0, {**E2E, **gated}), (1, layers)):
            r, out = run_loadgen(server, loadgen, workdir, w, trace)
            if r.returncode != 0:
                problems.append(f"{w} trace {trace}: exit {r.returncode}: {r.stderr[-500:]}")
                continue
            # Ratios over an empty base (per commit on a read-only
            # workload) read 0 with 0 samples; untraced timings need some.
            check_units(json.loads(out.read_text()), expected, w, problems, trace == 0)
            print(f"ok: {w} trace {trace}", flush=True)

    r, _ = run_loadgen(server, loadgen, workdir, "durable_commit", 0, ["--break-check"])
    if r.returncode == 0 or "instances" not in r.stderr:
        problems.append(f"a wrong expected count did not fail the run (exit {r.returncode})")
    else:
        print("ok: a wrong expected count fails the durability check")

    shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL: {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
