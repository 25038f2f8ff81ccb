#!/usr/bin/env python3
"""Records one seed's traced run as a committed reference.

    python3 perfbench/record.py --seed 1 [--seconds S] [--span-ops 250]

Runs every workload untraced and traced through run.py, for
BENCHMARK.json's `run_seconds` unless --seconds says otherwise, then
writes under perfbench/results/seed<N>/:

  <workload>.e2e.json      every end-to-end metric of the untraced run,
                           with sample counts and the run's environment;
  <workload>.layers.json   every per-layer metric of the traced run;
  <workload>.spans.jsonl   the traced run's spans of each client's
                           operations numbered below --span-ops (the
                           full file stays under .bench_run/results/);
  LAYERS.md                the per-layer table, tracing overhead included.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["composite_ingest", "subtree_read", "point_mix", "durable_commit"]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    tag = f"{workload}-seed{seed}-trace{trace}"
    return ROOT / ".bench_run" / "results" / tag


def first_spans(path, per_client):
    kept = []
    for line in path.read_text().splitlines():
        span = json.loads(line)
        if span["op"] < per_client:
            kept.append(line)
    return "\n".join(kept) + "\n"


def table(layers, e2e):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = list(dict.fromkeys(n for w in WORKLOADS for n in e2e[w]["metrics"]))
    rows = ["| metric | unit | " + " | ".join(WORKLOADS) + " |",
            "|" + "---|" * (len(WORKLOADS) + 2)]
    for section, source, keys in (
        ("end to end (untraced)", e2e, e2e_names),
        ("per layer (traced)", layers, [m["name"] for m in spec["per_layer"]]),
    ):
        rows.append(f"| **{section}** | | " + " | ".join("" for _ in WORKLOADS) + " |")
        for n in keys:
            got = [source[w]["metrics"].get(n) for w in WORKLOADS]
            unit = next(m["unit"] for m in got if m)
            cells = [f"{m['value']:.4g}" if m else "—" for m in got]
            rows.append(f"| `{n}` | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--span-ops", type=int, default=250)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out = HERE / "results" / f"seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    layers, e2e = {}, {}
    for w in WORKLOADS:
        base = run_one(w, args.seed, args.seconds, 0)
        e2e[w] = json.loads(base.with_suffix(".json").read_text())
        (out / f"{w}.e2e.json").write_text(json.dumps(e2e[w], indent=1) + "\n")
        base = run_one(w, args.seed, args.seconds, 1)
        layers[w] = json.loads(base.with_suffix(".json").read_text())
        (out / f"{w}.layers.json").write_text(json.dumps(layers[w], indent=1) + "\n")
        spans = base.with_suffix(".spans.jsonl")
        (out / f"{w}.spans.jsonl").write_text(first_spans(spans, args.span_ops))
        print(f"recorded {w}", flush=True)

    env = layers[WORKLOADS[0]]["env"]
    per_client = ", ".join(f"{w} {layers[w]['env']['ops_per_client']}" for w in WORKLOADS)
    one_cpu = [w for w in WORKLOADS if e2e[w]["env"]["cpus"] == "1"]
    header = (
        f"# Per-layer table, seed {args.seed}, --seconds {args.seconds:g}\n\n"
        f"Recorded by `python3 perfbench/record.py --seed {args.seed} "
        f"--seconds {args.seconds:g}` on the program at commit `{env['git_commit']}`: "
        f"{env['nproc']} cores ({', '.join(one_cpu) or 'no workload'} on one), "
        f"data directory on {env['data_dir_fs']}, "
        f"commit policy {env['commit_policy']}, {env['buffer_frames']} buffer "
        f"frames, {env['shards']} shards. Operations per client in each traced "
        f"pass: {per_client}. "
        "`trace.overhead_ratio` is the traced over the untraced blocks' "
        "throughput in the one wire pass, which alternates them. Per-commit and per-transaction "
        "ratios read 0 where a workload commits nothing; — marks a metric "
        "a workload does not have.\n\n"
    )
    (out / "LAYERS.md").write_text(header + table(layers, e2e))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
