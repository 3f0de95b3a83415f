"""The four workloads: what one pass runs, and the oracle for every op.

An op is one request of the single closed-loop client: it is timed alone,
then checked with the tracer paused.  A run repeats the same sequence of
ops, and an op's latency is the median of its repeats, each timed with
the scaled clock of speed.py.  A refusal (InputError or
PreconditionError with a message in process, exit code 1 or 2 with a
message from the CLI) is an answer.  A failure is a traceback or a
non-momentcut exception, an InternalError or exit code 3, an `ok: false`
report, or an oracle mismatch; any failure makes the run incorrect.

A request that trips a defect the seed program is known to have is
withheld: the client still generates it, but it is not part of the timed
op sequence.  Each withheld request is sent once after the timed phase,
untimed, and the run reports what it got (see `census`).
"""
from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Optional

import gen
from speed import Clock, cpu_clock

F = Fraction

# Defect classes of the seed program.  Requests of these classes are
# withheld from the timed op sequence and sent once after it (`census`).
#
# wall_crossing_check accepts a crossing vertex whose positive weights are
# not all 1, such as (-1, k) with k > 1, and reports ok:false (exit 3)
# instead of refusing it or verifying it.
KNOWN_WALL = "wall-check ok:false at a positive weight > 1"


# `local-model cut-identity --z` puts a numpy bool into its report, so the
# CLI dies with a traceback from json.dumps.
KNOWN_Z = "local-model cut-identity --z report is not JSON-serializable"


# In the solve-membership battery, solve_time_to_level finds roots that
# differ by more than 1e-10 (relative) between the two brackets when the
# level is close to 0, although each root meets the 1e-12 residual.
KNOWN_SOLVE = "solve-membership: bracket-dependent root near level 0"


# blowup_potential_check measures the contraction error relative to Phi(z),
# so where Phi is close to 0 (weights that nearly cancel) an error far below
# the scale of Phi fails the 1e-5 tolerance.
KNOWN_BLOWUP = "blowup-potential: contraction error relative to a near-zero Phi"


# The battery calls in range(gen.BATTERY_SEEDS) that fail in the seed
# program, each with its defect class (checked by battery_known).
FAILING_BATTERY_CALLS: dict[tuple[str, int], str] = {
    ("solve_membership", 136): KNOWN_SOLVE,
    ("solve_membership", 214): KNOWN_SOLVE,
}


_WALL_DEFECTS: dict[tuple[str, Fraction], Optional[str]] = {}


def wall_defect(P, c: Fraction) -> Optional[str]:
    """KNOWN_WALL if wall_crossing_check(P, c) reports ok:false at a
    crossing vertex with a positive weight > 1, else None.  The check runs
    once per polytope and level; callers make it a client call."""
    from momentcut.dh import wall_crossing_check
    from momentcut.errors import MomentcutError
    from momentcut.polytope import to_json_dict
    key = (json.dumps(to_json_dict(P), sort_keys=True), c)
    if key not in _WALL_DEFECTS:
        try:
            rep = wall_crossing_check(P, c)
        except MomentcutError:
            rep = None
        known = rep is not None and not rep.ok and any(max(v.weights) > 1 for v in rep.vertices)
        _WALL_DEFECTS[key] = KNOWN_WALL if known else None
    return _WALL_DEFECTS[key]


@dataclass
class Verdict:
    ok: bool
    out: Any
    note: str = ""


def attempt(thunk: Callable[[], Any], check: Callable[[Any], Verdict],
            tracer) -> tuple[Any, Verdict, float]:
    """Send one request and judge the answer: (result, verdict, CPU seconds
    of the request alone).  The oracle runs with the tracer paused."""
    from momentcut.errors import InternalError, MomentcutError
    t0 = cpu_clock()
    try:
        result = thunk()
    except MomentcutError as exc:
        dt = cpu_clock() - t0
        out = {"refused": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, InternalError):
            return None, Verdict(False, out, f"internal error: {exc}"), dt
        if not str(exc):
            return None, Verdict(False, out, f"{type(exc).__name__} without a message"), dt
        return None, Verdict(True, out), dt
    except Exception as exc:           # a traceback in the CLI
        dt = cpu_clock() - t0
        return None, Verdict(False, {"error": type(exc).__name__, "message": str(exc)},
                             f"{type(exc).__name__}: {exc}"), dt
    dt = cpu_clock() - t0
    with tracer.paused():
        try:
            verdict = check(result)
        except Exception as exc:
            verdict = Verdict(False, None, f"oracle raised {type(exc).__name__}: {exc}")
    return result, verdict, dt


class Recorder:
    """Times ops, applies their oracles, and keeps the digest and the
    withheld requests of one repeat."""

    def __init__(self, tracer, clock: Clock) -> None:
        self.tracer = tracer
        self.clock = clock
        self.labels: list[str] = []
        self.samples: list[tuple[int, float, float, float]] = []  # op, wall span, CPU s
        self.position = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.digest: Optional[Any] = None      # hashlib object while collecting
        self.withheld: Optional[list] = None   # list while collecting

    def repeat(self) -> None:
        """Start the next repeat of the op sequence."""
        self.position = 0

    def op(self, label: str, thunk: Callable[[], Any],
           check: Callable[[Any], Verdict]) -> Any:
        self.attempted += 1
        w0 = self.clock.tick()
        result, verdict, dt = attempt(thunk, check, self.tracer)
        i = self.position
        self.position += 1
        if i == len(self.labels):
            self.labels.append(label)
        if self.labels[i] != label:
            self.failures.append((label, f"op {i} differs between repeats"))
        else:
            self.samples.append((i, w0, time.perf_counter(), dt))
        if not verdict.ok:
            self.failures.append((label, verdict.note or "oracle mismatch"))
        if self.digest is not None:
            self.digest.update(json.dumps([label, verdict.out], sort_keys=True,
                                          default=str).encode())
            self.digest.update(b"\n")
        return result

    def withhold(self, label: str, defect: str, thunk: Callable[[], Any],
                 check: Callable[[Any], Verdict]) -> None:
        """A request of a known defect class: kept for the census, not sent."""
        if self.withheld is not None:
            self.withheld.append((label, defect, thunk, check))

    def op_times(self) -> list[float]:
        """Each op's scaled time, the median over its repeats."""
        times: list[list[float]] = [[] for _ in self.labels]
        for i, w0, w1, dt in self.samples:
            times[i].append(dt * self.clock.factor(w0, w1))
        return [statistics.median(ts) for ts in times]

    def client(self, fn: Callable[[], Any]) -> Any:
        """An engine call the client makes to choose its next request:
        not an op, so neither timed nor traced."""
        with self.tracer.paused():
            return fn()


def census(withheld, tracer) -> list[str]:
    """Send every withheld request once, untimed and untraced: one line per
    request, with what it got and its defect class."""
    lines = []
    for label, defect, thunk, check in withheld:
        with tracer.paused():
            _, verdict, _ = attempt(thunk, check, tracer)
        got = "passes now" if verdict.ok else verdict.note or "oracle mismatch"
        lines.append(f"{label}: {got} [known: {defect}]")
    return lines


# ---------------------------------------------------------------------------
# profile-sweep
# ---------------------------------------------------------------------------

def profile_pass(rec: Recorder, inputs, tag: str) -> None:
    from momentcut.dh import check_log_concavity, dh_profile, find_strict_local_minima
    from momentcut.lattice import format_rational
    from momentcut.polytope import loads, validate, volume

    def run(src):
        P = loads(src)
        rep = validate(P)
        if not rep.valid:
            return rep, None, None, None, None
        vol = volume(P)
        prof = dh_profile(P)
        return rep, vol, prof, check_log_concavity(prof), find_strict_local_minima(prof)

    def check(r) -> Verdict:
        rep, vol, prof, lc, minima = r
        if not rep.valid:
            return Verdict(False, rep.to_json(), note="generated polytope failed validation")
        out = {"volume": format_rational(vol), "profile": prof.to_json(),
               "log_concave": lc.ok, "minima": [m.to_json() for m in minima]}
        if prof.total_integral() != vol:
            return Verdict(False, out, note="total_integral != volume")
        # Brunn-Minkowski: the slice volume of a convex body is log-concave
        # and has no strict interior local minimum
        if not lc.ok or minima:
            return Verdict(False, out, note="profile not log-concave or has a strict minimum")
        return Verdict(True, out)

    for name, doc in inputs:
        src = gen.text(doc)
        rec.op(f"{tag} {name}", lambda: run(src), check)


# ---------------------------------------------------------------------------
# surgery-chain
# ---------------------------------------------------------------------------

def pick_level(rng, crit: list[Fraction]) -> Fraction:
    """A regular level strictly inside a random chamber."""
    i = rng.randrange(len(crit) - 1)
    return crit[i] + (crit[i + 1] - crit[i]) * F(rng.randint(1, 15), 16)


def pick_fixed_points(rng, crit: list[Fraction], doc: dict) -> tuple[Fraction, Fraction, dict]:
    """Input of add_fixed_points: a regular level m moved to 0, and an eps
    short of the next critical value above m: (m, eps, doc shifted by -m)."""
    m = pick_level(rng, crit)
    eps = (min(c for c in crit if c > m) - m) * F(rng.randint(1, 7), 8)
    return m, eps, gen.translate_first(doc, -m)


def edge_points(verts, n: int, s: Fraction) -> set:
    """Slice vertices at a regular level s from the edges of a simple polytope."""
    pts = set()
    for v, w in combinations(verts, 2):
        if len(v.active & w.active) != n - 1:
            continue
        a, b = v.point[0], w.point[0]
        if a < s < b or b < s < a:
            t = (s - a) / (b - a)
            pts.add(tuple(v.point[i] + t * (w.point[i] - v.point[i]) for i in range(1, n)))
    return pts


def wall_verdict(rep) -> Verdict:
    return Verdict(rep.ok, rep.to_json(), "wall-check ok:false")


def surgery_chain(rec: Recorder, name: str, doc: dict, rng, tag: str) -> None:
    from momentcut.dh import critical_values, wall_crossing_check
    from momentcut.ops import (BlowupParams, CutSide, add_fixed_points, blowup,
                               compactify, cut, reduce_at)
    from momentcut.polytope import canonical_equal, loads, slice_at, to_json_dict, vertices

    fmt = gen.fmt
    label = f"{tag} {name}"
    src = gen.text(doc)
    n = doc["dim"]

    def parse():
        P = loads(src)
        return P, critical_values(P)

    r = rec.op(f"{label} parse", parse,
               lambda r: Verdict(len(r[1]) >= 2, [fmt(c) for c in r[1]],
                                 note="fewer than two critical values"))
    if r is None:
        return
    P, crit = r

    def same_slices(Q, samples):
        out = []
        for s in samples:
            x, y = slice_at(Q, s).polytope, slice_at(P, s).polytope
            out.append(x is None and y is None
                       or x is not None and y is not None and canonical_equal(x, y))
        return out

    def identity_check(Q, samples) -> Verdict:
        same = same_slices(Q, samples)
        return Verdict(all(same), {"polytope": to_json_dict(Q), "slices_equal": same},
                       note="slice(cut(P, a), s) != slice(P, s)")

    verts = rec.client(lambda: vertices(P))
    levels = [pick_level(rng, crit) for _ in range(2)]
    for a in levels:
        def reduce_check(res, a=a) -> Verdict:
            got = {v.point for v in vertices(res.polytope)}
            return Verdict(got == edge_points(verts, n, a)
                           and len(res.stabilizers) == len(res.polytope.facets),
                           res.to_json(), note="reduced vertices != edge intersections")
        rec.op(f"{label} reduce@{fmt(a)}", lambda a=a: reduce_at(P, a), reduce_check)

        if rng.random() < 0.5:
            side, lo, hi = CutSide.BELOW, crit[0], a
        else:
            side, lo, hi = CutSide.ABOVE, a, crit[-1]
        samples = [lo + (hi - lo) * F(j, 3) for j in (1, 2)]
        rec.op(f"{label} cut-{side.value}@{fmt(a)}", lambda a=a, side=side: cut(P, a, side),
               lambda Q, samples=samples: identity_check(Q, samples))

    a1, a2 = sorted(levels)
    if a1 < a2:
        samples = [a1 + (a2 - a1) * F(j, 3) for j in (1, 2)]
        rec.op(f"{label} compactify@{fmt(a1)},{fmt(a2)}", lambda: compactify(P, a1, a2),
               lambda Q: identity_check(Q, samples))

    # blow up every vertex at half the largest depth that keeps the others
    for idx, v in enumerate(verts):
        act = sorted(v.active)
        raw = [sum(P.facets[i].normal[k] for i in act) for k in range(n)]
        total = sum(P.facets[i].offset for i in act)
        margin = min(total - sum(c * x for c, x in zip(raw, w.point))
                     for w in verts if w is not v)
        depth = margin / 2

        def blowup_check(r) -> Verdict:
            Q, ledger = r
            ok = len(vertices(Q)) == len(verts) - 1 + n
            return Verdict(ok, {"polytope": to_json_dict(Q), "ledger": ledger.to_json(Q)},
                           note="blow-up did not trade one vertex for n")
        rec.op(f"{label} blowup#{idx}@{fmt(depth)}",
               lambda v=v, depth=depth: blowup(P, BlowupParams(v.point, depth)),
               blowup_check)

    m, eps, doc0 = pick_fixed_points(rng, crit, doc)
    src0 = gen.text(doc0)

    def afp_check(r) -> Verdict:
        Q, ledger, report = r
        return Verdict(report.ok, {"polytope": to_json_dict(Q), "ledger": ledger.to_json(Q),
                                   "report": report.to_json()},
                       note="add-fixed-points report ok:false")
    r = rec.op(f"{label} add-fixed-points@{fmt(m)}+{fmt(eps)}",
               lambda: add_fixed_points(loads(src0), eps), afp_check)

    walls = [(P, f"{label} wall@{fmt(c)}", c) for c in crit[1:-1]]
    if r is not None:
        Q = r[0]
        walls += [(Q, f"{label} afp-wall@{fmt(c)}", c)
                  for c in rec.client(lambda: critical_values(Q))[1:-1]]
    for R, wl, c in walls:
        defect = rec.client(lambda R=R, c=c: wall_defect(R, c))
        if defect:
            rec.withhold(wl, defect, lambda R=R, c=c: wall_crossing_check(R, c), wall_verdict)
        else:
            rec.op(wl, lambda R=R, c=c: wall_crossing_check(R, c), wall_verdict)


def surgery_pass(rec: Recorder, inputs, tag: str) -> None:
    for name, doc, chain_seed in inputs:
        surgery_chain(rec, name, doc, random.Random(chain_seed), tag)


# ---------------------------------------------------------------------------
# local-model
# ---------------------------------------------------------------------------

def convexity_run(weights, seed):
    from momentcut.errors import PreconditionError
    from momentcut.localmodel import LinearAction, default_spec, orbital_convexity_probe
    action = LinearAction(weights)
    eps_prime = 0.25
    while True:             # the documented remedy: shrink eps_prime
        try:
            spec = default_spec(action, 0.5, eps_prime)
            break
        except PreconditionError:
            eps_prime /= 2
            if eps_prime < 1e-6:
                raise
    return spec, orbital_convexity_probe(action, spec, trials=gen.CONVEXITY_TRIALS, seed=seed)


def battery_known(name: str, seed: int) -> Optional[str]:
    """Replay a failed battery call trial by trial, with the battery's own
    random stream: the known defect class if every failing trial is of
    that class, None otherwise."""
    import math

    import numpy as np
    from momentcut.batteries import _random_action, _random_point
    from momentcut.localmodel import (BumpSpec, blowup_potential_check, flow,
                                      level_membership, moment_standard,
                                      solve_time_to_level)
    rng = np.random.default_rng(seed)
    if name == "solve-membership":
        for _ in range(gen.BATTERY_TRIALS):
            action = _random_action(rng)
            z = _random_point(rng, action)
            s = float(rng.normal() * 2) or 0.5
            t = solve_time_to_level(action, z, s)
            if (t is None) == level_membership(action, z, s):
                return None
            if t is None:
                continue
            t2 = solve_time_to_level(action, z, s, bracket0=3.7)

            def resid(u, action=action, z=z, s=s):
                return abs(moment_standard(action, flow(action, z, u)) - s)
            fails = t2 is None or abs(t - t2) > 1e-10 * max(1.0, abs(t)) or resid(t) > 1e-12
            # known: the roots differ, but both meet the residual tolerance
            if fails and (t2 is None or max(resid(t), resid(t2)) > 1e-12):
                return None
        return KNOWN_SOLVE
    if name == "blowup-potential":
        for _ in range(gen.BATTERY_TRIALS):
            action = _random_action(rng, n_max=3)
            n = len(action.weights)
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            z *= rng.uniform(0.15, 0.4) / np.linalg.norm(z)
            rep = blowup_potential_check(action, z, bump=BumpSpec(0.25, 1.0), h=1e-3)
            if rep.ok:
                continue
            # Phi ranges over max|a| / 2 pi times [-1, 1]
            scale = max(abs(a) for a in action.weights) / (2 * math.pi)
            if not (abs(rep.phi_value - rep.phi_formula) <= 1e-9 * abs(rep.phi_formula)
                    and rep.scaling_rel_err <= 1e-9
                    and rep.contraction_rel_err * max(abs(rep.phi_value), 1e-12)
                    <= 1e-5 * scale):
                return None
        return KNOWN_BLOWUP
    return None


def local_pass(rec: Recorder, inputs, tag: str) -> None:
    from momentcut import batteries

    def battery_check(rep) -> Verdict:
        return Verdict(rep.ok, rep.to_json(), "battery ok:false")

    def convexity_check(r) -> Verdict:
        spec, rep = r
        out = {"eps_prime": spec.eps_prime, "delta": spec.delta, "trials": rep.trials,
               "reentries": rep.reentries, "exit_clause_failures": rep.exit_clause_failures,
               "half_line_cases": rep.half_line_cases, "ok": rep.ok}
        return Verdict(rep.ok, out, "convexity probe ok:false")

    for kind, what, seed in inputs:
        if kind == "battery":
            fn = getattr(batteries, f"{what}_battery")
            label = f"{tag} {what}#{seed}"
            thunk = lambda fn=fn, seed=seed: fn(trials=gen.BATTERY_TRIALS, seed=seed)  # noqa: E731
            defect = FAILING_BATTERY_CALLS.get((what, seed))
            if defect:
                rec.withhold(label, defect, thunk, battery_check)
            else:
                rec.op(label, thunk, battery_check)
        else:
            rec.op(f"{tag} convexity{list(what)}#{seed}",
                   lambda what=what, seed=seed: convexity_run(what, seed), convexity_check)


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliRunner:
    """Runs one `python -m momentcut.cli` process per op, or main() in process."""

    def __init__(self, workdir: str, env: dict, in_process: bool = False) -> None:
        self.workdir = workdir
        self.env = env
        self.in_process = in_process
        self.stdout_bytes = 0
        self.commands = 0
        self.max_rss_kb = 0

    def __call__(self, argv: list[str]) -> CliResult:
        self.commands += 1
        res = self._in_process(argv) if self.in_process else self._spawn(argv)
        self.stdout_bytes += len(res.stdout.encode())
        return res

    def _spawn(self, argv: list[str]) -> CliResult:
        out_path = os.path.join(self.workdir, ".stdout")
        err_path = os.path.join(self.workdir, ".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            p = subprocess.Popen([sys.executable, "-m", "momentcut.cli", *argv],
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                 cwd=self.workdir, env=self.env)
            watchdog = threading.Timer(120.0, p.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                watchdog.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return CliResult(p.returncode, stdout, stderr)

    def _in_process(self, argv: list[str]) -> CliResult:
        import contextlib
        import io
        import traceback
        from momentcut import cli
        buf, err = io.StringIO(), io.StringIO()
        saved_argv, saved_cwd = sys.argv, os.getcwd()
        sys.argv = ["momentcut", *argv]
        os.chdir(self.workdir)
        code = 0
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    cli.main()
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    code = 1
        finally:
            sys.argv = saved_argv
            os.chdir(saved_cwd)
        return CliResult(code, buf.getvalue(), err.getvalue())


def cli_verdict(res: CliResult, oracle: Optional[Callable[[dict], bool]],
                note: str) -> Verdict:
    """Classify one CLI answer; `oracle` checks an exit-0 payload, None means
    the input must be refused."""
    out = {"exit": res.code, "stdout": res.stdout}
    if "Traceback (most recent call last)" in res.stderr:
        return Verdict(False, out, "traceback")
    if res.code == 3:
        return Verdict(False, out, "exit 3")
    try:
        payload = json.loads(res.stdout)
    except json.JSONDecodeError:
        return Verdict(False, out, "stdout is not one JSON document")
    if res.code in (1, 2) and payload.get("message"):
        if oracle is None or "error" in payload:
            return Verdict(True, out)
    if oracle is None:
        return Verdict(False, out, f"malformed input answered with exit {res.code}")
    if res.code != 0 or not oracle(payload):
        return Verdict(False, out, note)
    return Verdict(True, out)


def n_pm_expected(weights: list[int], z: list[complex]) -> tuple[float, float]:
    """N_-(z) and N_+(z) from their definition: (sum |z_j|^(2/|a_j|))^(1/2)
    over the negative and the positive weights."""
    import math
    return tuple(math.sqrt(sum(abs(c) ** (2 / abs(a)) for a, c in zip(weights, z) if sign * a > 0))
                 for sign in (-1, 1))


def cli_chain(rec: Recorder, run: CliRunner, idx: str, name: str, doc: dict, rng,
              tag: str, with_z_identity: bool) -> None:
    from momentcut.polytope import loads
    fmt = gen.fmt
    label = f"{tag} {name}"
    p = f"{idx}-p.json"

    def step(what: str, argv: list[str], oracle: Callable[[dict], bool], note: str):
        holder = {}

        def check(res):
            v = cli_verdict(res, oracle, note)
            if v.ok and res.code == 0:
                holder["payload"] = json.loads(res.stdout)
            return v
        rec.op(f"{label} {what}", lambda: run(argv), check)
        return holder.get("payload")

    step("validate", ["validate", "--in", p], lambda d: d.get("valid") is True, "not valid")
    info = step("info", ["info", "--in", p],
                lambda d: len(d.get("critical_values", [])) >= 2, "no critical values")
    if info is None:
        return
    crit = [F(c) for c in info["critical_values"]]
    a = pick_level(rng, crit)
    step("reduce", ["reduce", "--level", fmt(a), "--in", p, "--out", f"{idx}-red.json"],
         lambda d: d.get("level") == fmt(a) and "polytope" in d, "reduce payload")
    above = rng.random() < 0.5
    step("cut", ["cut", "--level", fmt(a), *(["--above"] if above else []), "--in", p,
                 "--out", f"{idx}-cut.json"], lambda d: "polytope" in d, "cut payload")

    _, eps, doc0 = pick_fixed_points(rng, crit, doc)
    p0, afp = f"{idx}-p0.json", f"{idx}-afp.json"
    with open(os.path.join(run.workdir, p0), "w", encoding="utf-8") as fh:
        fh.write(gen.text(doc0))
    done = step("add-fixed-points", ["add-fixed-points", "--eps", fmt(eps), "--in", p0,
                                     "--out", afp],
                lambda d: d["report"]["ok"] is True, "report ok:false")

    def read_afp():
        with open(os.path.join(run.workdir, afp), encoding="utf-8") as fh:
            return loads(fh.read())
    wall = ["wall-check", "--wall", "0", "--in", afp]
    defect = done and rec.client(lambda: wall_defect(read_afp(), F(0)))
    if defect:
        rec.withhold(f"{label} wall-check", defect, lambda: run(wall),
                     lambda res: cli_verdict(res, lambda d: d.get("ok") is True,
                                             "wall-check ok:false"))
    else:
        step("wall-check", wall, lambda d: d.get("ok") is True, "wall-check ok:false")
    step("dh", ["dh", "--check-log-concavity", "--local-minima", "--in", afp],
         lambda d: d["log_concavity"]["log_concave"] is True and d["strict_local_minima"] == [],
         "profile not log-concave or has a strict minimum")
    step("reverse", ["reverse", "--in", f"{idx}-cut.json", "--out", f"{idx}-rev.json"],
         lambda d: "polytope" in d, "reverse payload")
    step("reverse", ["reverse", "--in", f"{idx}-rev.json", "--out", f"{idx}-rev2.json"],
         lambda d: "polytope" in d, "reverse payload")
    step("diff", ["diff", "--in", f"{idx}-rev2.json", "--other", f"{idx}-cut.json"],
         lambda d: d.get("equal") is True, "reverse(reverse(P)) != P")

    k = rng.randint(1, 3)
    weights = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)]
    z = [complex(round(rng.gauss(0, 1), 3), round(rng.gauss(0, 1), 3)) for _ in range(k + 1)]
    ws = "--weights=" + ",".join(map(str, weights))
    zs = [f"{c.real:.3f}{c.imag:+.3f}j" for c in z]
    want = n_pm_expected(weights, z[:k])
    step("local-model", ["local-model", "npm", ws, "--z=" + ",".join(zs[:k])],
         lambda d: all(abs(d[key] - x) <= 1e-12 * max(1.0, x)
                       for key, x in zip(("n_minus", "n_plus"), want)),
         "N_-, N_+ differ from their definition")
    if with_z_identity:
        argv = ["local-model", "cut-identity", ws, "--z=" + ",".join(zs)]
        rec.withhold(f"{label} local-model cut-identity", KNOWN_Z, lambda: run(argv),
                     lambda res: cli_verdict(res, lambda d: d.get("ok") is True,
                                             "cut identity ok:false"))


def write_cli_fixtures(workdir: str, inputs, tag: str) -> None:
    """The input files of one pass: `{tag}-{i}-p.json` and `{tag}-bad{j}.json`."""
    chains, malformed = inputs
    files = [(f"{tag}-{i}-p.json", gen.text(doc)) for i, (_, doc, _) in enumerate(chains)]
    files += [(f"{tag}-bad{j}.json", body) for j, (_, _, body, _) in enumerate(malformed)]
    for path, body in files:
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            fh.write(body)


def cli_pass(rec: Recorder, run: CliRunner, inputs, tag: str) -> None:
    chains, malformed = inputs
    for i, (name, doc, chain_seed) in enumerate(chains):
        cli_chain(rec, run, f"{tag}-{i}", name, doc, random.Random(chain_seed), tag, i == 0)
    for j, (kind, argv, body, known) in enumerate(malformed):
        path = f"{tag}-bad{j}.json"
        label = f"{tag} malformed:{kind}"
        thunk = lambda argv=argv, path=path: run([*argv, "--in", path])  # noqa: E731
        check = lambda res: cli_verdict(res, None, "")  # noqa: E731
        if known:
            rec.withhold(label, f"malformed input: {kind}", thunk, check)
        else:
            rec.op(label, thunk, check)
