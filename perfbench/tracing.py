"""Outside-in tracing of the momentcut layers.

The tracer never edits the program.  It replaces each public function of a
layer module with a timing wrapper at every place the function is bound:
module globals of every momentcut module (so `dh.slice_at` and
`polytope.slice_at` both go through it) and module-level dicts such as
`batteries.ALL_BATTERIES`.  `LabeledPolytope.structure` and
`LabeledPolytope.__init__` are wrapped on the class.

Spans nest: each wrapper pushes a frame, and on exit charges its duration to
the parent frame, so self time is duration minus the time of child spans.
Durations are process CPU time, not scaled like the op latencies (speed.py).
Spans are aggregated per (layer, function) as they close instead of being
stored one by one, which keeps a run of ~10^5 spans cheap.  Sub-microsecond
helpers are left unwrapped; their cost lands in the caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("lattice", "polytope", "toric", "ops", "ratpoly", "dh",
          "localmodel", "batteries", "cli")
SETUP_MODULES = ("corpus", "errors")
UNWRAPPED = {"dot", "content", "format_rational"}

# outermost spans of these functions give the inclusive *_ms metrics
GROUPS = {
    ("polytope", "volume"): "volume",
    ("polytope", "validate"): "validate",
    ("polytope", "loads"): "parse",
    ("polytope", "from_json_dict"): "parse",
    ("dh", "wall_crossing_check"): "wall_check",
    ("localmodel", "orbital_convexity_probe"): "convexity",
}


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.stack: list[list] = []            # frames: [child_ns, layer, name]
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: Counter = Counter()
        self.group_ns: Counter = Counter()
        self._group_depth: Counter = Counter()
        self._slice_results: weakref.WeakSet = weakref.WeakSet()
        self._seen_structure: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, layer: str, name: str) -> None:
        self.stack.append([0, layer, name])
        g = GROUPS.get((layer, name))
        if g:
            self._group_depth[g] += 1

    def _exit(self, layer: str, name: str, dur: int) -> None:
        child = self.stack.pop()[0]
        st = self.stats[(layer, name)]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self.stack:
            self.stack[-1][0] += dur
        g = GROUPS.get((layer, name))
        if g:
            self._group_depth[g] -= 1
            if not self._group_depth[g]:
                self.group_ns[g] += dur

    def inside(self, layer: str, name: str | None = None) -> bool:
        return any(f[1] == layer and (name is None or f[2] == name) for f in self.stack)

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextmanager
    def active(self):
        was, self.enabled = self.enabled, True
        try:
            yield
        finally:
            self.enabled = was

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(layer, name)
            t0 = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(layer, name, time.process_time_ns() - t0)
                if layer == "ops" and not tracer.inside("ops"):
                    from momentcut.errors import InternalError, MomentcutError
                    if isinstance(exc, MomentcutError) and not isinstance(exc, InternalError):
                        tracer.counts["ops.refusals"] += 1
                raise
            tracer._exit(layer, name, time.process_time_ns() - t0)
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions wherever momentcut binds them.
        Call once per process."""
        modules = {name: importlib.import_module(f"momentcut.{name}")
                   for name in LAYERS + SETUP_MODULES}
        package = importlib.import_module("momentcut")
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if (callable(obj) and getattr(obj, "__module__", None) == mod.__name__
                        and not isinstance(obj, type) and not name.startswith("_")
                        and name not in UNWRAPPED):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                try:
                    w = wrappers.get(obj)
                except TypeError:       # unhashable module attribute
                    w = None
                if w is not None:
                    setattr(mod, name, w)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        try:
                            if val in wrappers:
                                obj[key] = wrappers[val]
                        except TypeError:
                            pass
        self._wrap_polytope_class(modules["polytope"].LabeledPolytope)

    def _wrap_polytope_class(self, cls) -> None:
        tracer = self
        structure = cls.structure
        init = cls.__init__

        @functools.wraps(structure)
        def traced_structure(P, *args, **kwargs):
            if not tracer.enabled:
                return structure(P, *args, **kwargs)
            before = tracer._seen_structure.get(P)
            tracer._enter("polytope", "structure")
            t0 = time.process_time_ns()
            try:
                st = structure(P, *args, **kwargs)
            finally:
                dur = time.process_time_ns() - t0
                tracer._exit("polytope", "structure", dur)
            if st is not before:
                tracer._seen_structure[P] = st
                c = tracer.counts
                c["polytope.structures"] += 1
                tracer.group_ns["structure"] += dur
                c["polytope.subsets"] += math.comb(len(P.facets), P.dim)
                c["polytope.vertices_found"] += len(st.points)
                if tracer.inside("polytope", "slice_at") or P in tracer._slice_results:
                    c["polytope.slice_structures"] += 1
            return st

        @functools.wraps(init)
        def counting_init(P, *args, **kwargs):
            init(P, *args, **kwargs)
            if tracer.enabled and tracer.inside("ops"):
                tracer.counts["ops.derived_polytopes"] += 1

        cls.structure = traced_structure
        cls.__init__ = counting_init

    # -- results ------------------------------------------------------------

    def take(self) -> dict:
        """The aggregates since the last take: counts, per-function
        [calls, total_ns, self_ns], and inclusive group times."""
        snap = {"counts": self.counts, "stats": dict(self.stats), "group_ns": self.group_ns}
        self.stats = defaultdict(lambda: [0, 0, 0])
        self.counts = Counter()
        self.group_ns = Counter()
        return snap


def _observe_slice(tracer: Tracer, sl) -> None:
    tracer.counts["polytope.slices"] += 1
    if tracer.inside("dh", "dh_profile"):
        tracer.counts["dh.profile_slices"] += 1
    if sl.polytope is not None:
        tracer._slice_results.add(sl.polytope)


def _observe_profile(tracer: Tracer, prof) -> None:
    tracer.counts["dh.chambers"] += len(prof.chambers)


def _observe_probe(tracer: Tracer, rep) -> None:
    tracer.counts["localmodel.grid_evals"] += rep.trials * rep.grid_points


def _observe_battery(tracer: Tracer, rep) -> None:
    if not tracer.inside("batteries"):
        tracer.counts["batteries.trials"] += rep.trials


_OBSERVERS = {
    ("polytope", "slice_at"): _observe_slice,
    ("dh", "dh_profile"): _observe_profile,
    ("localmodel", "orbital_convexity_probe"): _observe_probe,
    **{("batteries", name): _observe_battery for name in (
        "monotone_battery", "solve_membership_battery", "npm_scaling_battery",
        "psh_battery", "cut_identity_battery", "blowup_potential_battery")},
}
