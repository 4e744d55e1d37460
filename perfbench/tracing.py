"""Span recording around the public functions of each lml layer.

install() replaces every module-level reference to the functions in
LAYERS, in every loaded ``lml`` / ``lml.*`` namespace, with a wrapper that
records one span per call: name, start, end, parent span and operation
id.  GroupEngine.multiply (and any subclass override) is wrapped at class
level, because witness_report builds its engine internally.  Spans stay
in memory; per_layer_metrics() folds them into per-operation call counts
and self times, and write() dumps them as JSON when the run ends.

Self time is a span's duration minus the time covered by its child spans.
Calls nest strictly in one thread, so children are disjoint intervals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array


# (module, function, {count suffix: extractor of that count from the result})
LAYERS = (
    ("words", "multiply", {}),
    ("words", "britton_normal_form", {}),
    ("balls", "cayley_ball", {"vertices": lambda ball: ball.vertex_count}),
    ("balls", "finite_ball_with_order", {"vertices": lambda res: res[0].vertex_count}),
    ("balls", "distance", {}),
    ("iso", "canonical_key", {}),
    ("iso", "first_rooted_isomorphism", {}),
    ("iso", "rooted_isomorphisms", {"results": len}),
    ("iso", "automorphism_scan", {}),
    ("localmodel", "verify_model", {}),
    ("localmodel", "fixing_radius", {}),
    ("reconstruct", "reconstruct", {}),
    ("reconstruct", "label_edges", {}),
    ("reconstruct", "build_action", {}),
    ("reconstruct", "present_on_S", {}),
    ("reconstruct", "check_factors", {}),
    ("reconstruct", "stabilizer", {}),
    ("cosets", "todd_coxeter", {"cosets": lambda table: table.cosets}),
    ("cosets", "schreier_from_table", {}),
    ("cosets", "enumerate_homs", {"classes": len}),
    ("cosets", "witness_report", {}),
)

# The one layer whose useful-work ratio is reported: distinct canonical
# keys returned within an operation, over calls.
DISTINCT_KEY_SPAN = "iso.canonical_key"


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for module, function, counts in LAYERS:
        name = f"{module}.{function}"
        out.append((f"{name}.calls", "count/op", "lower"))
        out.append((f"{name}.self_s", "s/op", "lower"))
        for suffix in counts:
            better = "higher" if suffix == "classes" else "lower"
            out.append((f"{name}.{suffix}", "count/op", better))
        if name == DISTINCT_KEY_SPAN:
            out.append((f"{name}.distinct_ratio", "ratio", "higher"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def lml_modules():
    """The loaded lml package and its submodules, by sys.modules name."""
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lml" or name.startswith("lml."))
    }


class Tracer:
    """In-memory span store plus the counts taken from wrapped results."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f, _ in LAYERS]
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.op_ids = array("i")
        self.stack = []
        self.op = -1
        self.counts = {}
        self.op_keys = set()
        self.distinct_keys = 0
        self._restore = []

    # -- operation boundaries -------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self.stack.clear()
        self.op_keys.clear()

    def end_op(self):
        self.distinct_keys += len(self.op_keys)
        self.op_keys.clear()
        # A timeout can interrupt a span between its appends or leave it
        # open on the stack; drop any half-recorded row.
        self.stack.clear()
        n = min(len(a) for a in self._columns())
        for a in self._columns():
            del a[n:]
        self.op = -1

    def _columns(self):
        return (self.starts, self.ends, self.name_ids, self.parents, self.op_ids)

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name_id, fn, counts):
        starts, ends = self.starts, self.ends
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        stack = self.stack
        clock = time.perf_counter
        name = self.names[name_id]
        extractors = [(f"{name}.{suffix}", get) for suffix, get in counts.items()]
        keys = self.op_keys if name == DISTINCT_KEY_SPAN else None
        tracer = self

        def span(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                if stack and stack[-1] == i:
                    stack.pop()
            for metric, get in extractors:
                tracer.counts[metric] = tracer.counts.get(metric, 0) + get(result)
            if keys is not None:
                keys.add(result)
            return result

        return functools.update_wrapper(span, fn)

    def install(self):
        """Wrap every listed function in every loaded lml namespace."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = lml_modules()
        for name_id, (module, function, counts) in enumerate(LAYERS):
            if module == "words" and function == "multiply":
                self._wrap_multiply(name_id, modules["lml.words"])
                continue
            original = getattr(modules[f"lml.{module}"], function)
            wrapper = self._wrapper(name_id, original, counts)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def _wrap_multiply(self, name_id, words):
        base = words.GroupEngine
        classes = [base]
        for value in vars(words).values():
            if isinstance(value, type) and value is not base and issubclass(value, base):
                classes.append(value)
        for cls in classes:
            original = cls.__dict__.get("multiply")
            if original is not None:
                self._restore.append((cls, "multiply", original))
                setattr(cls, "multiply", self._wrapper(name_id, original, {}))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def per_layer_metrics(self, op_count, overhead_ratio):
        """Per-operation metrics over op_count traced operations."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_ids[i]
            calls[k] += 1
            self_s[k] += (self.ends[i] - self.starts[i]) - child[i]
        totals = {}
        for k, name in enumerate(self.names):
            totals[f"{name}.calls"] = calls[k]
            totals[f"{name}.self_s"] = self_s[k]
        totals.update(self.counts)
        key_calls = calls[self.names.index(DISTINCT_KEY_SPAN)]
        out = {}
        for metric, unit, _ in metric_specs():
            if metric == "trace.overhead_ratio":
                value = overhead_ratio
            elif metric == f"{DISTINCT_KEY_SPAN}.distinct_ratio":
                value = self.distinct_keys / key_calls if key_calls else 0.0
            else:
                value = totals.get(metric, 0) / op_count
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, header):
        """Dump every span as JSON: one [name, start, end, parent, op] row each."""
        rows = [
            [self.names[self.name_ids[i]], self.starts[i], self.ends[i],
             self.parents[i], self.op_ids[i]]
            for i in range(len(self.starts))
        ]
        doc = dict(header)
        doc["columns"] = ["name", "start", "end", "parent", "op"]
        doc["spans"] = rows
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
