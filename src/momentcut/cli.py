"""momentcut: one executable over the exact polytope engine.

Subcommands: validate, info, diff, reduce, cut, compactify, blowup,
add-fixed-points, reverse, dh, wall-check, local-model.  Polytopes travel
as JSON files (or stdin/stdout with "-"), every report is a single JSON
document on stdout, and all numeric payloads are rational strings except
the local-model reports, which are floats with stated tolerances.

Exit codes: 0 success, 1 input or validation error, 2 precondition
violation, 3 internal invariant failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

# each handler imports the engine modules it runs, so that a command
# compiles and loads only those: the CLI is one process per command
from .errors import InputError, InternalError, MomentcutError, PreconditionError
from .lattice import format_rational, parse_rational

if TYPE_CHECKING:
    from .polytope import LabeledPolytope


class CommandOutcome(namedtuple("CommandOutcome", "exit_code payload")):
    __slots__ = ()


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)  # a prefix is no option
        # argparse takes "-1" and "-0.5" as values but "-1/2", "-1,1" and
        # "-1+2j,3" as unknown options; a "-" and a digit start a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        # "argument --eps-prime: ..." becomes "--eps-prime: ...", so that
        # argparse's refusals start with the option's name like the others
        head, sep, detail = message.partition(": ")
        if sep and head.startswith("argument "):
            option = head[len("argument "):].split("/")[0]
            message = f"{option}: {detail}"
            if detail == "expected one argument":
                # argparse takes a value such as "-inf" for an option
                message += (f"; write a value that starts with '-' "
                            f"as {option}=VALUE")
        raise InputError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops a lone "--" given as an option's value
        # (`--weights=--`) and hands back an empty list instead of a string
        if action.nargs is None and arg_strings == ["--"]:
            raise InputError(f"{action.option_strings[0]} needs a value, got '--'")
        return super()._get_values(action, arg_strings)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_polytope(path: str, gate: bool = True) -> LabeledPolytope:
    # the one dimension gate; `validate` reports the dimension as a failure
    from .polytope import dimension_failure, from_json_dict

    try:
        obj = json.loads(_read_text(path))
    except ValueError as exc:  # bad JSON, a number of too many digits, or not UTF-8
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    if isinstance(obj, dict) and "polytope" in obj:
        obj = obj["polytope"]
    P = from_json_dict(obj)
    if gate and dimension_failure(P):
        raise PreconditionError(dimension_failure(P))
    return P


def _write_polytope(P: LabeledPolytope, path: Optional[str]) -> None:
    from .polytope import dumps

    if path and path != "-":
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps(P))
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from None


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The parser of `momentcut`, with a subparser only for the command, and
    the local-model op, that argv starts with; with every one where argv
    names none, so that argparse's usage, refusals and --help list them all."""
    p = _Parser(prog="momentcut", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_table(p, "command", _COMMANDS, _OPTIONS, list(argv))
    return p


def _add_table(parser: _Parser, dest: str, table: dict, options: dict,
               argv: list[str]) -> None:
    """One subparser per entry of table, or only the one argv[0] names; an
    entry holds its option names, or (local-model) the table of its ops."""
    sub = parser.add_subparsers(dest=dest, required=True)
    named = bool(argv) and argv[0] in table
    for name in argv[:1] if named else table:
        sp = sub.add_parser(name)
        spec = table[name][1]
        if isinstance(spec, dict):
            _add_table(sp, "op", spec, _LOCAL_OPTIONS, argv[1:] if named else [])
        else:
            for option in spec:
                sp.add_argument(option, **options[option])


def _finite(option: str):
    """argparse type for a float option that must be a finite number."""
    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            raise InputError(f"{option} takes a number, got {text!r}") from None
        if not math.isfinite(x):
            raise InputError(f"{option} must be finite, got {text!r}")
        return x
    return parse


def _int_in(option: str, lo: int, hi: Optional[int] = None):
    """argparse type for an integer option from lo to hi (no bound if None)."""
    def parse(text: str) -> int:
        try:
            k = int(text)
        except ValueError:
            raise InputError(f"{option} takes an integer, got {text!r}") from None
        if k < lo or (hi is not None and k > hi):
            bound = f"{lo} or more" if hi is None else f"{lo} to {hi}"
            raise InputError(f"{option} takes {bound}, got {k}")
        return k
    return parse


# the options of the polytope commands, each declared once
_OPTIONS = {
    "--in": dict(dest="infile", default="-", metavar="PATH|-"),
    "--out": dict(dest="outfile", default="-", metavar="PATH|-"),
    "--xi": dict(default=None, help="circle direction, e.g. 1,0,0"),
    "--other": dict(required=True, metavar="PATH"),
    "--level": dict(required=True),
    "--above": dict(action="store_true"),
    "--min": dict(dest="lo", required=True),
    "--max": dict(dest="hi", required=True),
    "--vertex-index": dict(type=_int_in("--vertex-index", 0), default=None),
    "--vertex": dict(default=None, help="exact coordinates, e.g. 0,1/2"),
    "--depth": dict(required=True),
    "--eps": dict(required=True),
    "--csv": dict(default=None, metavar="PATH"),
    # the CSV rows are built in memory
    "--samples": dict(type=_int_in("--samples", 2, 100_000), default=100),
    "--check-log-concavity": dict(action="store_true"),
    "--local-minima": dict(action="store_true"),
    "--wall": dict(required=True),
    "--window": dict(default=None),
}

# the options of the local-model ops, each declared once; --trials and --n
# bound the run time: 10 000 trials of the slowest battery (`monotone`) take
# about 1.1 s (scripts/run_local_model.py prints each battery's seconds),
# and `psh --n 1000`, an n x n eigensolve, about 2 s
_LOCAL_OPTIONS = {
    "--seed": dict(type=_int_in("--seed", 0), default=0),
    "--trials": dict(type=_int_in("--trials", 1, 10_000), default=1000),
    "--weights": dict(help="comma-separated integers; a battery draws its own actions"),
    "--z": dict(help="comma-separated complex values, one per weight; "
                     "cut-identity takes w last"),
    "--level": dict(type=_finite("--level")),
    "--eps": dict(type=_finite("--eps"), default=0.5),
    "--eps-prime": dict(type=_finite("--eps-prime"), default=0.25),
    "--delta": dict(type=_finite("--delta")),
    "--bad-region": dict(action="store_true"),
    "--t0": dict(type=_finite("--t0"), default=0.7),
    "--n": dict(type=_int_in("--n", 1, 1000), default=3),
}

# each local-model op: the battery it runs without a point query, and the
# options it reads; the parser refuses the rest
_SEEDED = ("--seed", "--trials")
_LOCAL_OPS = {
    "monotone": ("monotone", _SEEDED),
    "solve": ("solve-membership", (*_SEEDED, "--weights", "--z", "--level")),
    "membership": ("solve-membership", (*_SEEDED, "--weights", "--z", "--level")),
    "npm": ("npm-scaling", (*_SEEDED, "--weights", "--z")),
    "convexity": (None, (*_SEEDED, "--weights", "--eps", "--eps-prime", "--delta",
                         "--bad-region")),
    "psh": ("psh", (*_SEEDED, "--t0", "--n")),
    "cut-identity": ("cut-identity", (*_SEEDED, "--weights", "--z")),
    "blowup-potential": ("blowup-potential", _SEEDED),
}


def _ints(option: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"{option} takes comma-separated integers, "
                         f"got {text!r}") from None


def _vertex_arg(P: LabeledPolytope, args) -> tuple:
    from .polytope import require_vertices, vertices

    require_vertices(P, "blowup needs a vertex")
    verts = vertices(P)
    if args.vertex_index is not None:
        if args.vertex_index >= len(verts):
            raise PreconditionError(
                f"--vertex-index {args.vertex_index} out of range 0..{len(verts)-1}")
        return verts[args.vertex_index].point
    if args.vertex is not None:
        return tuple(parse_rational(c) for c in args.vertex.split(","))
    raise InputError("one of --vertex-index or --vertex is required")


def _cmd_validate(args) -> CommandOutcome:
    from .polytope import validate

    P = _load_polytope(args.infile, gate=False)
    rep = validate(P)
    return CommandOutcome(0 if rep.valid else 1, rep.to_json())


def _cmd_info(args) -> CommandOutcome:
    from .polytope import critical_values, require_bounded, vertices
    from .toric import (circle_stabilizer_order, classify_vertex, fixed_components,
                        weights_at_vertex)

    P = _load_polytope(args.infile)
    # the critical values of an unbounded region are only one end of its image
    require_bounded(P, "info needs a bounded polytope")
    xi = _ints("--xi", args.xi) if args.xi else (1,) + (0,) * (P.dim - 1)
    if len(xi) != P.dim:
        raise InputError(f"--xi needs {P.dim} entries, one per coordinate, "
                         f"got {len(xi)}")
    if not any(xi):
        raise InputError("--xi is the zero vector, which generates no circle")
    verts = vertices(P)
    out_vertices = []
    for v in sorted(verts, key=lambda v: v.point):
        out_vertices.append({
            "point": [format_rational(c) for c in v.point],
            "active_facets": sorted(v.active),
            "class": classify_vertex(P, v).to_json(),
            "weights": list(weights_at_vertex(P, v, xi)),
        })
    stab = []
    for i in range(len(P.facets)):
        stab.append({"facet": i, "order": circle_stabilizer_order(P, i)})
    return CommandOutcome(0, {
        "dim": P.dim,
        "direction": list(xi),
        "vertices": out_vertices,
        "fixed_components": [c.to_json() for c in fixed_components(P)],
        "facet_stabilizer_orders": stab,
        "critical_values": [format_rational(c) for c in critical_values(P)],
    })


def _cmd_diff(args) -> CommandOutcome:
    from .polytope import canonical_equal, canonical_key, require_vertices

    P = _load_polytope(args.infile)
    Q = _load_polytope(args.other)
    # with no vertex no facet can be told redundant, so keys do not compare
    for R in (P, Q):
        require_vertices(R, "diff needs a vertex on each side")
    if canonical_equal(P, Q):
        return CommandOutcome(0, {"equal": True})

    def only(mine: set, theirs: set) -> list:
        """The facets of one irredundant form that the other lacks."""
        return [{"normal": list(nrm), "offset": format_rational(off), "label": lab}
                for nrm, off, lab in sorted(mine - theirs)]
    kp, kq = set(canonical_key(P)), set(canonical_key(Q))
    return CommandOutcome(1, {"equal": False,
                              "facets_only_in": {"in": only(kp, kq), "other": only(kq, kp)}})


def _polytope_payload(Q: LabeledPolytope, args, **extra) -> dict:
    """Write Q to --out; the report that embeds Q, with the extra keys."""
    from .polytope import to_json_dict

    _write_polytope(Q, args.outfile)
    return {"polytope": to_json_dict(Q), **extra}


def _cmd_reduce(args) -> CommandOutcome:
    from .ops import reduce_at

    P = _load_polytope(args.infile)
    res = reduce_at(P, parse_rational(args.level))
    _write_polytope(res.polytope, args.outfile)
    return CommandOutcome(0, res.to_json())


def _cmd_cut(args) -> CommandOutcome:
    from .ops import CutSide, cut

    P = _load_polytope(args.infile)
    side = CutSide.ABOVE if args.above else CutSide.BELOW
    level = parse_rational(args.level)
    return CommandOutcome(0, _polytope_payload(cut(P, level, side), args,
                                               level=format_rational(level), side=side.value))


def _cmd_compactify(args) -> CommandOutcome:
    from .ops import compactify

    P = _load_polytope(args.infile)
    Q = compactify(P, parse_rational(args.lo), parse_rational(args.hi))
    return CommandOutcome(0, _polytope_payload(Q, args))


def _cmd_blowup(args) -> CommandOutcome:
    from .ops import BlowupParams, blowup, fresh_ledger

    P = _load_polytope(args.infile)
    point = _vertex_arg(P, args)
    Q, ledger = blowup(P, BlowupParams(point, parse_rational(args.depth)),
                       fresh_ledger(P))
    return CommandOutcome(0, _polytope_payload(Q, args, ledger=ledger.to_json(Q)))


def _cmd_add_fixed_points(args) -> CommandOutcome:
    from .ops import add_fixed_points

    P = _load_polytope(args.infile)
    Q, ledger, report = add_fixed_points(P, parse_rational(args.eps))
    return CommandOutcome(0 if report.ok else 3, _polytope_payload(
        Q, args, ledger=ledger.to_json(Q), report=report.to_json()))


def _cmd_reverse(args) -> CommandOutcome:
    from .polytope import reversed_polytope

    Q = reversed_polytope(_load_polytope(args.infile))
    return CommandOutcome(0, _polytope_payload(Q, args))


def _cmd_dh(args) -> CommandOutcome:
    from .dh import check_log_concavity, dh_profile, find_strict_local_minima

    if args.csv == "-":
        raise InputError("--csv - would mix CSV into the JSON report on stdout; "
                         "give a file path")
    P = _load_polytope(args.infile)
    profile = dh_profile(P)
    payload = {"profile": profile.to_json(),
               "total_integral": format_rational(profile.total_integral())}
    if args.csv:
        lo, hi = profile.walls[0], profile.walls[-1]
        rows = ["s,mu"]
        for k in range(args.samples):
            s = lo + (hi - lo) * Fraction(k, args.samples - 1)
            rows.append(f"{format_rational(s)},{format_rational(profile.value(s))}")
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.csv}: {exc}") from None
        payload["csv"] = args.csv
    if args.check_log_concavity:
        payload["log_concavity"] = check_log_concavity(profile).to_json()
    if args.local_minima:
        payload["strict_local_minima"] = [
            m.to_json() for m in find_strict_local_minima(profile)]
    return CommandOutcome(0, payload)


def _cmd_wall_check(args) -> CommandOutcome:
    from .dh import wall_crossing_check

    P = _load_polytope(args.infile)
    window = parse_rational(args.window) if args.window else None
    report = wall_crossing_check(P, parse_rational(args.wall), window)
    return CommandOutcome(0 if report.ok else 3, report.to_json())


def _parse_z(text: str, n: int) -> tuple[complex, ...]:
    try:
        z = tuple(complex(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"--z takes comma-separated complex numbers, "
                         f"got {text!r}") from None
    if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in z):
        raise InputError(f"--z takes finite values, got {text!r}")
    if len(z) != n:
        raise InputError(f"--z needs {n} values for this op, got {len(z)}")
    return z


def _point_query(args) -> bool:
    """Whether the op asks about one point: --z, with --level for `solve` and
    `membership`; with neither it runs its battery, one alone is refused."""
    z, level = getattr(args, "z", None), getattr(args, "level", None)
    if hasattr(args, "level") and (z is None) != (level is None):
        missing, given = ("--level", "--z") if level is None else ("--z", "--level")
        raise InputError(f"{missing} is needed with {given} for {args.op}")
    return z is not None


def _battery(name: str, args):
    from .batteries import ALL_BATTERIES     # a point query needs no battery
    return ALL_BATTERIES[name](args.trials, args.seed)


def _cmd_local_model(args) -> CommandOutcome:
    from . import localmodel as lm

    op = args.op
    battery, options = _LOCAL_OPS[op]
    point = _point_query(args)
    if "--weights" in options and battery is not None and not point:
        if args.weights is not None:    # the battery draws its own actions
            raise InputError(f"--weights: the {battery} battery draws its own "
                             "actions; give --weights with --z only")
    elif "--weights" in options:
        if args.weights is None:
            raise InputError(f"--weights is needed {'with --z ' if point else ''}for {op}")
        weights = _ints("--weights", args.weights)
        if any(abs(a) > sys.float_info.max for a in weights):
            raise InputError("--weights: the local model needs weights that fit "
                             "in a double")
        action = lm.LinearAction(weights)
    if op == "convexity":
        spec = lm.default_spec(action, args.eps, args.eps_prime, args.delta)
        region = lm.bad_annulus_region(action) if args.bad_region else None
        rep = lm.orbital_convexity_probe(action, spec, trials=args.trials,
                                         seed=args.seed, region=region)
        payload = {
            "eps": spec.eps, "eps_prime": spec.eps_prime, "delta": spec.delta,
            "trials": rep.trials, "reentries": rep.reentries,
            "exit_clause_failures": rep.exit_clause_failures,
            "half_line_cases": rep.half_line_cases,
            "grid": {"t_span": rep.t_span, "points": rep.grid_points},
            "ok": rep.ok,
        }
        return CommandOutcome(0 if rep.ok or args.bad_region else 3, payload)
    if op == "psh":
        results = []
        for spec in lm.psh_test_family():
            r = lm.psh_criterion(spec, args.t0, args.n, seed=args.seed)
            results.append({"profile": r.name, "rel_err": r.rel_err,
                            "kahler": r.kahler})
        rep = _battery(battery, args)
        return CommandOutcome(0 if rep.ok else 3, {
            "at_t0": results, "battery": rep.to_json()})
    if not point:
        rep = _battery(battery, args)
        return CommandOutcome(0 if rep.ok else 3, rep.to_json())
    z = _parse_z(args.z, len(weights) + (op == "cut-identity"))
    if op == "solve":
        return CommandOutcome(0, {"weights": list(action.weights), "level": args.level,
                                  "time": lm.solve_time_to_level(action, z, args.level)})
    if op == "membership":
        return CommandOutcome(0, {"weights": list(action.weights), "level": args.level,
                                  "member": lm.level_membership(action, z, args.level)})
    if op == "npm":
        nm, np_ = lm.n_pm(action, z)
        return CommandOutcome(0, {"n_minus": nm, "n_plus": np_})
    [r] = lm.cut_identity_rows([action], [z[:-1]], [z[-1]])
    return CommandOutcome(0 if r.ok else 3, {
        "value": r.value, "expected": r.expected, "rel_err": r.rel_err,
        "orthogonality": [r.orth_1, r.orth_2], "ok": r.ok})


# each command: its handler, and its options in the order --help lists them
# (local-model: the table of its ops)
_COMMANDS = {
    "validate": (_cmd_validate, ("--in",)),
    "info": (_cmd_info, ("--in", "--xi")),
    "diff": (_cmd_diff, ("--in", "--other")),
    "reduce": (_cmd_reduce, ("--in", "--out", "--level")),
    "cut": (_cmd_cut, ("--in", "--out", "--level", "--above")),
    "compactify": (_cmd_compactify, ("--in", "--out", "--min", "--max")),
    "blowup": (_cmd_blowup, ("--in", "--out", "--vertex-index", "--vertex", "--depth")),
    "add-fixed-points": (_cmd_add_fixed_points, ("--in", "--out", "--eps")),
    "reverse": (_cmd_reverse, ("--in", "--out")),
    "dh": (_cmd_dh, ("--in", "--csv", "--samples", "--check-log-concavity",
                     "--local-minima")),
    "wall-check": (_cmd_wall_check, ("--in", "--wall", "--window")),
    "local-model": (_cmd_local_model, _LOCAL_OPS),
}


def run(argv: list[str]) -> CommandOutcome:
    """Parse and dispatch; errors become exit codes, never tracebacks."""
    try:
        args, extra = build_parser(argv).parse_known_args(argv)
        if extra:
            command = " ".join(filter(None, (args.command, getattr(args, "op", None))))
            raise InputError(f"{extra[0].split('=')[0]}: `momentcut {command}` "
                             "does not take this argument")
        return _COMMANDS[args.command][0](args)
    except InputError as exc:
        return CommandOutcome(1, {"error": "input", "message": str(exc)})
    except PreconditionError as exc:
        return CommandOutcome(2, {"error": "precondition",
                                  "kind": type(exc).__name__, "message": str(exc)})
    except (InternalError, AssertionError) as exc:
        return CommandOutcome(3, {"error": "internal", "message": str(exc)})
    except MomentcutError as exc:
        return CommandOutcome(1, {"error": "input", "message": str(exc)})


def main() -> None:
    outcome = run(sys.argv[1:])
    try:
        _emit(outcome.payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`); point stdout at devnull so the
        # flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
