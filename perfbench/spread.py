#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads doc_topk,hot_topk --seeds 1-10 [--trace 0]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Raw results are appended to .bench_out/spread.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "spread.jsonl"), "a")
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if proc.returncode == 0 else {}
            log.write(json.dumps({"workload": workload, "seed": seed, "rc": proc.returncode,
                                  "result": result}) + "\n")
            log.flush()
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                sys.stderr.write("%s seed %d: rc=%d %s\n" % (workload, seed, proc.returncode,
                                                             proc.stderr[-500:]))
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d seeds)" % (workload, len(seeds_of(args.seeds))))
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2 and med != 0:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print("  %-32s median %12.6g  spread %6.3f  bound %s%s" % (name, med, spread, bound,
                                                                      flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
