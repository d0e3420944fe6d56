#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and spread: the distance between the first and third quartile of
its values (statistics.quantiles, n=4) as a share of their median.

Run from the repository root:

    python3 perfbench/spread.py --workloads train_hmms,serve_poisson --seeds 1-10

Each run's last output line is kept in perfbench/out/runs.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs("perfbench/out", exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            lines = out.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            report = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 3:
                    try:
                        report[parts[0]] = float(parts[1])
                    except ValueError:
                        pass
            with open("perfbench/out/runs.jsonl", "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                      "result": last, "report": report}) + "\n")
            if not last["correct"] or last["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {last}")
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(seed_list(args.seeds))} runs")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '':>6}")
        print()
    if args.trace == "0":
        print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
