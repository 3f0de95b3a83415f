#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that input generation is a pure function of the seed, that the
battery calls withheld as known failures fail in their listed defect
class, that every metric named in BENCHMARK.json is emitted with
its unit by both the plain and the traced run of every workload, that the
output digest of the first repeat does not change between runs, and that
the benchmark refuses to run without the program's sources.  The first
two checks are cheap; the runs after them take a few minutes.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from momentcut import batteries  # noqa: E402


def input_digest(workload: str, seed: int) -> str:
    passes = run.make_passes(workload, seed)
    return hashlib.sha256(json.dumps(passes, sort_keys=True).encode()).hexdigest()


def main() -> int:
    problems = []

    for w in run.WORKLOADS:
        a, b, c = input_digest(w, 7), input_digest(w, 7), input_digest(w, 8)
        if a != b:
            problems.append(f"{w}: same seed, different inputs")
        if a == c:
            problems.append(f"{w}: seeds 7 and 8 give the same inputs")
    print("generation:", "ok" if not problems else problems, flush=True)

    for (name, seed), defect in workloads.FAILING_BATTERY_CALLS.items():
        rep = getattr(batteries, f"{name}_battery")(trials=gen.BATTERY_TRIALS, seed=seed)
        if rep.ok or workloads.battery_known(rep.name, seed) != defect:
            problems.append(f"{name} seed {seed}: does not fail as {defect!r}")
    print("battery classes:", "ok" if not problems else problems, flush=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in run.WORKLOADS:
        digests = set()
        for trace in (0, 1):
            code, summary, result = run.invoke(w, 7, 1, trace)
            if code != 0 or summary is None or result is None:
                problems.append(f"{w} --trace {trace}: exit {code}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w} --trace {trace}: metrics {sorted(set(got) ^ set(want[trace]))} "
                                "missing or extra, or units differ")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{w} --trace {trace}: bad result line {json.dumps(result)[:200]}")
            digests.add(summary["digest"])
        if len(digests) != 1:
            problems.append(f"{w}: output digest differs between runs: {sorted(digests)}")
        print(w, "ok" if not problems else problems, flush=True)

    # without the program's sources the benchmark must fail without a result
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, _, result = run.invoke("profile-sweep", 7, 1, 0, cwd=bare)
        if code == 0 or result is not None:
            problems.append("ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest:", "ok" if not problems else "FAILED")
    for p in problems:
        print("  ", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
