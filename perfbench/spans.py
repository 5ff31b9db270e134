"""In-memory span tracing of cubecrys, installed from outside the package.

The tracer replaces selected functions and methods with wrappers, in
every cubecrys module that holds a reference to them, and restores the
originals on uninstall.  Each wrapper records a span: calls, total time
and self time (total minus the time of child spans) per name, plus
work counters taken from arguments or results.  Hot kernels are only
aggregated; every other span is also kept as a (name, start, end,
parent, item) record and written out when the run ends.
"""

from __future__ import annotations

import importlib
import time

_MODULES = ("cli", "crys", "exactlin", "sgnperm", "decide", "walls", "dual",
            "boundary")

# Kernels called too often to keep one record per span.
_AGGREGATE_ONLY = {"exactlin.matmul", "exactlin.det", "exactlin.inverse",
                   "sgnperm.compose", "dual.feasible"}


def _closure_counts(tracer, args, result):
    tracer.count("crys.closure.elements", len(args[0]._elements))


def _extend_counts(tracer, args, result):
    if result is not None:
        tracer.count("decide.extend.hits", 1)


def _classes_counts(tracer, args, result):
    tracer.count("walls.classes", result.class_count)


def _zero_cube_counts(tracer, args, result):
    tracer.count("dual.zero_cubes", result.vertex_count())


def _cached_closure(args):
    return args[0]._elements is not None


# (span name, module, attribute path, counter hook, skip-span predicate)
TARGETS = [
    ("cli.main", "cli", "main", None, None),
    ("crys.load_group", "crys", "load_group", None, None),
    ("crys.closure", "crys", "CrystGroup._closure", _closure_counts,
     _cached_closure),
    ("crys.validate", "crys", "validate", None, None),
    ("crys.point_group_real", "crys", "point_group_real", None, None),
    ("exactlin.matmul", "exactlin", "RatMatrix.__mul__", None, None),
    ("exactlin.det", "exactlin", "det", None, None),
    ("exactlin.inverse", "exactlin", "inverse", None, None),
    ("exactlin.average_intertwiner", "exactlin", "average_intertwiner",
     None, None),
    ("sgnperm.compose", "sgnperm", "SignedPermutation.__mul__", None, None),
    ("sgnperm.enumerate_group", "sgnperm", "enumerate_group", None, None),
    ("decide.is_hyperoctahedral", "decide", "is_hyperoctahedral", None, None),
    ("decide.quick_obstructions", "decide", "quick_obstructions", None, None),
    ("decide.extend", "decide", "_extend_assignment", _extend_counts, None),
    ("decide.conjugator", "decide", "_build_conjugator", None, None),
    ("decide.verify", "decide", "HyperoctahedralWitness.verify", None, None),
    ("walls.direction_class_count", "walls", "direction_class_count",
     _classes_counts, None),
    ("walls.induced_action", "walls", "induced_action_on_RN", None, None),
    ("walls.stabilize", "walls", "stabilize", None, None),
    ("walls.check_linear_separation", "walls", "check_linear_separation",
     None, None),
    ("dual.load_wallspace", "dual", "load_wallspace", None, None),
    ("dual.feasible", "dual", "_feasible", None, None),
    ("dual.dual_complex", "dual", "dual_complex", _zero_cube_counts, None),
    ("dual.is_median_graph", "dual", "is_median_graph", None, None),
    ("dual.duality_check", "dual", "duality_check", None, None),
    ("dual.to_json", "dual", "CubeComplex.to_json_dict", None, None),
    ("boundary.product_boundary", "boundary", "product_boundary", None, None),
]


class Tracer:
    """Spans and counters for one run; install() patches, uninstall() undoes."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counters = {}
        self.spans = []
        self.item = None
        self._stack = []          # [start, child time, span index]
        self._patches = []        # (owner, attribute, original)

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name, fn, hook, skip):
        keep = name not in _AGGREGATE_ONLY
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            index = parent
            if keep:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.item])
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + elapsed
                self.self_time[name] = (self.self_time.get(name, 0.0)
                                        + elapsed - frame[1])
                if stack:
                    stack[-1][1] += elapsed
                if keep:
                    self.spans[index][1:3] = [frame[0], end]
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = {m: importlib.import_module("cubecrys." + m)
                   for m in _MODULES}
        for name, mod, path, hook, skip in TARGETS:
            owner = modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = self._wrap(name, original, hook, skip)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # A module function: rebind every module-level reference to it.
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_pass(self, passes: int) -> dict:
        """Per-layer metrics, each divided by the number of passes."""
        def calls(name):
            return self.calls.get(name, 0) / passes

        def self_s(name):
            return self.self_time.get(name, 0.0) / passes

        def counter(name):
            return self.counters.get(name, 0) / passes

        out = {}
        for name in ("cli.main", "crys.closure", "crys.validate",
                     "crys.point_group_real", "exactlin.matmul",
                     "exactlin.det", "exactlin.inverse",
                     "exactlin.average_intertwiner", "sgnperm.compose",
                     "sgnperm.enumerate_group", "decide.is_hyperoctahedral",
                     "decide.extend", "decide.conjugator", "dual.feasible",
                     "dual.is_median_graph"):
            out[name + ".calls"] = (calls(name), "count")
        for name, *_ in TARGETS:
            out[name + ".self_s"] = (self_s(name), "s")
        for name in ("crys.closure.elements", "decide.extend.hits",
                     "walls.classes", "dual.zero_cubes"):
            out[name] = (counter(name), "count")
        tried = self.calls.get("decide.extend", 0)
        out["decide.extend.hit_ratio"] = (
            self.counters.get("decide.extend.hits", 0) / tried if tried else 0.0,
            "ratio")
        built = self.calls.get("decide.conjugator", 0)
        out["decide.conjugator.seeds"] = (
            self.calls.get("exactlin.average_intertwiner", 0) / built
            if built else 0.0, "count")
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "counters": self.counters,
            "span_fields": ["name", "start", "end", "parent", "item"],
            "spans": self.spans,
        }

