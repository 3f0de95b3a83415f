#!/usr/bin/env python3
"""Benchmark for momentcut: one closed-loop client, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ./src.  With
--trace 0 the last stdout line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a separate traced run.  Earlier stdout lines
describe the run: input sizes, the output digest of the first repeat,
every failed op, and what the requests withheld for a known defect of the
program got when sent once after the timed phase.  See perfbench/README.md.
"""
from __future__ import annotations

import os

# one thread everywhere, set before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("profile-sweep", "surgery-chain", "cli-pipeline", "local-model")
# Generated passes that make up the op sequence a run repeats: enough for
# MIN_OPS ops, so that at least 10 samples lie beyond p90.
PASSES = {"profile-sweep": 1, "surgery-chain": 3, "cli-pipeline": 2, "local-model": 8}
MIN_OPS = 100
SETUP_REPEATS = 5
PROBE_REPEATS = 5


def invoke(workload: str, seed: int, seconds: float, trace: int, cwd: str = ROOT):
    """Run the benchmark in a child process from `cwd`: (exit code, summary,
    result), the last two from its last two stdout lines, or None where a
    line is missing or not JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    parsed = []
    for line in proc.stdout.strip().splitlines()[-2:]:
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            parsed.append(None)
    summary, result = ([None, None] + parsed)[-2:]
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
    return proc.returncode, summary, result


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# set-up: import, generate the op sequence, write fixture files
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: str):
    """Import what the workload uses, generate its passes, write their files."""
    if workload == "cli-pipeline":
        import momentcut.cli  # noqa: F401
    elif workload == "local-model":
        import momentcut.batteries  # noqa: F401
    else:
        import momentcut.dh  # noqa: F401
        import momentcut.ops  # noqa: F401
    passes = make_passes(workload, seed)
    if workload == "cli-pipeline":
        import workloads
        os.makedirs(workdir, exist_ok=True)
        for tag, inputs in passes:
            workloads.write_cli_fixtures(workdir, inputs, tag)
    return passes


def make_passes(workload: str, seed: int) -> list:
    """The op sequence of a run, as [(tag, inputs of one pass)]."""
    corpus = gen.corpus_docs() if workload != "local-model" else []
    make = {"profile-sweep": lambda k: gen.profile_inputs(corpus, seed, k),
            "surgery-chain": lambda k: gen.surgery_inputs(corpus, seed, k),
            "cli-pipeline": lambda k: gen.cli_inputs(corpus, seed, k),
            "local-model": lambda k: gen.local_inputs(seed, k)}[workload]
    return [(f"pass{k}", make(k)) for k in range(PASSES[workload])]


def measure_setup(workload: str, seed: int, workdir: str) -> float:
    """Median scaled CPU time of SETUP_REPEATS set-ups, each in a fresh process."""
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup-{i}")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", probe_dir],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


def measure_startup(env: dict, clock) -> tuple[float, float]:
    """(bare interpreter ms, `import momentcut.cli` minus interpreter ms):
    median scaled CPU time of fresh processes."""
    def median_ms(code: str) -> float:
        ts = [clock.scaled(lambda: subprocess.run(
                  [sys.executable, "-c", code], env=env, check=True, timeout=60,
                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
              for _ in range(PROBE_REPEATS)]
        return statistics.median(ts) * 1e3
    bare = median_ms("pass")
    return bare, median_ms("import momentcut.cli") - bare


# ---------------------------------------------------------------------------
# the timed phase
# ---------------------------------------------------------------------------

def run_passes(workload: str, rec, passes, cli_runner=None) -> None:
    """One repeat of the op sequence."""
    import workloads as wl
    rec.repeat()
    for tag, inputs in passes:
        if workload == "profile-sweep":
            wl.profile_pass(rec, inputs, tag)
        elif workload == "surgery-chain":
            wl.surgery_pass(rec, inputs, tag)
        elif workload == "local-model":
            wl.local_pass(rec, inputs, tag)
        else:
            wl.cli_pass(rec, cli_runner, inputs, tag)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe(workload: str, passes) -> dict:
    """Input sizes of the op sequence, for the record."""
    if workload == "local-model":
        return {"calls": sum(len(inputs) for _, inputs in passes),
                "battery_trials": gen.BATTERY_TRIALS, "convexity_trials": gen.CONVEXITY_TRIALS}
    if workload == "cli-pipeline":
        passes = [(tag, inputs[0]) for tag, inputs in passes]
    docs = [x[1] for _, inputs in passes for x in inputs]
    return {"polytopes": len(docs),
            "dims": sorted({d["dim"] for d in docs}),
            "facets_max": max(len(d["facets"]) for d in docs),
            "max_subsets": max(gen.max_subsets(d) for d in docs)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "momentcut", "__init__.py")):
        print(f"perfbench: no momentcut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        print(speed.Clock().scaled(lambda: setup(args.workload, args.seed, args.setup_probe)))
        return 0

    # one CPU for this process and every child, so that the calibration
    # loop of speed.py runs on the CPU whose speed the CLI children see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def make_clock(workload: str, env: dict):
    """The clock whose probe follows the drift of the workload's ops."""
    if workload == "cli-pipeline":
        return speed.Clock(lambda: speed.start_cost(env), speed.START_REF_S, every=0.5)
    if workload == "local-model":
        return speed.Clock(speed.array_cost, speed.ARRAY_REF_S)
    return speed.Clock()


def measure(args, workdir: str) -> int:
    import tracing
    import workloads as wl

    setup_s = measure_setup(args.workload, args.seed, workdir)
    passes = setup(args.workload, args.seed, workdir)
    tracer = tracing.Tracer()
    env = child_env()
    runner = (wl.CliRunner(workdir, env, in_process=bool(args.trace))
              if args.workload == "cli-pipeline" else None)
    clock = make_clock(args.workload, env)
    untimed = wl.Recorder(tracer, clock)
    untimed.digest = hashlib.sha256()
    untimed.withheld = []
    traced = wl.Recorder(tracer, clock)
    snapshots = []
    if args.trace:
        tracer.install()

    # repeat the op sequence until the time is up; with --trace 1 every
    # repeat runs it untraced, then traced, so the counts of every traced
    # repeat must agree
    start = time.perf_counter()
    repeats = 0
    while True:
        run_passes(args.workload, untimed, passes, runner)
        if args.trace:
            with tracer.active():
                run_passes(args.workload, traced, passes, runner)
            snapshots.append(tracer.take())
        if repeats == 0:
            digest = untimed.digest.hexdigest()
            untimed.digest = None
            withheld, untimed.withheld = untimed.withheld, None
        repeats += 1
        if time.perf_counter() - start >= args.seconds:
            break
    clock.calibrate()
    known_defects = wl.census(withheld, tracer)

    attempted = untimed.attempted + traced.attempted
    failures = untimed.failures + traced.failures
    problems = list(failures)
    lat = untimed.op_times()
    if len(lat) < MIN_OPS:
        problems.append(("run", f"{len(lat)} ops, fewer than {MIN_OPS}"))
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repeats": repeats, "ops": len(lat), "digest": digest,
        "calibration_ms": clock.speed_ms(),
        "inputs": describe(args.workload, passes),
        "failed_ops_ratio": len(failures) / attempted,
        "failed_ops": sorted({f"{label}: {note}" for label, note in problems}),
        "known_defects": known_defects,
    }
    if not args.trace:
        if runner is not None:
            rss_mb = runner.max_rss_kb / 1024
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics, summary["self_time_shares"] = layer_metrics(
            snapshots, lat, traced.op_times(), runner, env, clock)
        summary["counts_repeat"] = all(_work(s) == _work(snapshots[0]) for s in snapshots)
        if not summary["counts_repeat"]:
            problems.append(("trace", "counts differ between traced repeats"))

    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def _work(snapshot) -> tuple:
    """The deterministic part of a traced pass: counts and calls."""
    return snapshot["counts"], {key: st[0] for key, st in snapshot["stats"].items()}


def layer_metrics(snapshots, lat, traced_lat, runner, env, clock):
    """Per-layer metrics of the traced op sequence: counts from one traced
    repeat (they repeat exactly), times averaged over all of them."""
    import tracing
    first = snapshots[0]
    counts = first["counts"]

    def calls(layer, name):
        return first["stats"].get((layer, name), (0,))[0]

    def ms(key):
        return sum(s["group_ns"][key] for s in snapshots) / len(snapshots) / 1e6

    layer_calls = dict.fromkeys(tracing.LAYERS, 0)
    self_ns = dict.fromkeys(tracing.LAYERS, 0)
    for (layer, _), (c, _, _) in first["stats"].items():
        layer_calls[layer] += c
    for snap in snapshots:
        for (layer, _), (_, _, s) in snap["stats"].items():
            self_ns[layer] += s

    def self_ms(layer):
        return self_ns[layer] / len(snapshots) / 1e6

    slices = counts["polytope.slices"]
    chambers = counts["dh.chambers"]
    interp_ms, import_ms = measure_startup(env, clock)
    if runner is not None:
        run_ms = statistics.median(lat) * 1e3
        stdout_bytes = runner.stdout_bytes / runner.commands
    else:
        run_ms = stdout_bytes = 0.0

    def rate(times):
        return len(times) / sum(times)

    m = {
        "polytope.structures": (counts["polytope.structures"], "count"),
        "polytope.structure_ms": (ms("structure"), "ms"),
        "polytope.subsets_per_vertex": (
            counts["polytope.subsets"] / max(1, counts["polytope.vertices_found"]), "ratio"),
        "polytope.slices": (slices, "count"),
        "polytope.structures_per_slice": (
            counts["polytope.slice_structures"] / max(1, slices), "ratio"),
        "polytope.volume_calls": (calls("polytope", "volume"), "count"),
        "polytope.volume_ms": (ms("volume"), "ms"),
        "polytope.validate_ms": (ms("validate"), "ms"),
        "polytope.parse_ms": (ms("parse"), "ms"),
        "polytope.canonical_equal_calls": (calls("polytope", "canonical_equal"), "count"),
        "polytope.self_ms": (self_ms("polytope"), "ms"),
        "dh.profiles": (calls("dh", "dh_profile"), "count"),
        "dh.chambers": (chambers, "count"),
        "dh.slices_per_chamber": (counts["dh.profile_slices"] / max(1, chambers), "ratio"),
        "dh.self_ms": (self_ms("dh"), "ms"),
        "dh.wall_checks": (calls("dh", "wall_crossing_check"), "count"),
        "dh.wall_check_ms": (ms("wall_check"), "ms"),
        "ratpoly.interpolations": (calls("ratpoly", "interpolate"), "count"),
        "ratpoly.sturm_chains": (calls("ratpoly", "sturm_chain"), "count"),
        "ratpoly.root_isolations": (calls("ratpoly", "isolate_roots"), "count"),
        "ratpoly.self_ms": (self_ms("ratpoly"), "ms"),
        "lattice.calls": (layer_calls["lattice"], "count"),
        "lattice.self_ms": (self_ms("lattice"), "ms"),
        "toric.calls": (layer_calls["toric"], "count"),
        "toric.self_ms": (self_ms("toric"), "ms"),
        "ops.calls": (layer_calls["ops"], "count"),
        "ops.derived_polytopes": (counts["ops.derived_polytopes"], "count"),
        "ops.refusals": (counts["ops.refusals"], "count"),
        "ops.self_ms": (self_ms("ops"), "ms"),
        "cli.interpreter_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.run_ms": (run_ms, "ms"),
        "cli.stdout_bytes": (stdout_bytes, "B"),
        "localmodel.calls": (layer_calls["localmodel"], "count"),
        "localmodel.membership_calls": (
            calls("localmodel", "membership_v") + calls("localmodel", "level_membership"),
            "count"),
        "localmodel.grid_evals": (counts["localmodel.grid_evals"], "count"),
        "localmodel.convexity_ms": (ms("convexity"), "ms"),
        "localmodel.self_ms": (self_ms("localmodel"), "ms"),
        "batteries.trials": (counts["batteries.trials"], "count"),
        "batteries.self_ms": (self_ms("batteries"), "ms"),
        "trace.overhead_ratio": (rate(traced_lat) / rate(lat), "ratio"),
    }
    total = sum(self_ns.values()) or 1
    shares = {layer: round(v / total, 4) for layer, v in self_ns.items() if v}
    return m, shares


if __name__ == "__main__":
    sys.exit(main())
