#!/usr/bin/env python3
"""Measure a baseline: ten seeds per workload plus one traced run each.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b]

For every end-to-end metric it prints and stores the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, which is the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  The raw results, with one traced run (seed 1) per
workload, go to .bench_build/baseline.json, so a later change can be
compared run by run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

TRACE_SEED = 1
OUT = os.path.join(ROOT, ".bench_build", "baseline.json")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    code, summary, result = run.invoke(workload, seed, seconds, trace)
    if code != 0 or summary is None or result is None:
        raise SystemExit(f"{workload} seed {seed}: exit {code}")
    return {"seed": seed, "wall_s": time.perf_counter() - t0,
            "summary": summary, "result": result}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            r = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(r)
            res = r["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}{v['unit']}" for k, v in res["metrics"].items()),
                  flush=True)
        stats = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "bound": bounds[name]}
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.3f}  bound {bounds[name]}", flush=True)
        traced = run_once(workload, TRACE_SEED, spec["run_seconds"], 1)
        report[workload] = {"runs": runs, "stats": stats, "traced": traced}
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print("wrote", OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
