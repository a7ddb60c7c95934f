"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: each public function
is replaced, at the import site where another module calls it, by a wrapper
that records ``[name, start, end, parent, failed, counters]``.  Nothing under
``src/`` changes; ``unpatch`` restores every original.
"""

import functools
import json
import statistics
from time import perf_counter

MODULES = (
    "fpcore",
    "algebra",
    "constructions",
    "graphs",
    "isomorph",
    "identities",
    "rings",
    "catalog",
    "cli",
)

# Span names reported as ``<name>_s`` (summed over outermost occurrences).
TIMED_SPANS = (
    "graphs.compressed_graph",
    "graphs.explicit_graph",
    "graphs.expand",
    "isomorph.graphs_isomorphic",
    "isomorph.verify_mapping",
    "isomorph.canonical",
    "catalog.enumerate",
    "catalog.determinacy",
    "catalog.oracle",
    "constructions.annihilator",
    "constructions.product_criterion",
    "constructions.certificate",
    "constructions.construct",
    "algebra.square_ideal",
    "fpcore.kernel",
    "identities.holds",
    "rings.table_graph",
)

COUNTERS = (
    "graphs.classes",
    "graphs.cross_pairs",
    "graphs.vertices",
    "graphs.edges",
    "catalog.classes",
    "catalog.pairs_compared",
    "constructions.vectors_checked",
    "constructions.pairs_checked",
    "constructions.construct_calls",
    "fpcore.kernel_calls",
    "identities.substitutions",
)

TRACE_METRICS = ("trace.verdict_s", "trace.untraced_verdict_s", "trace.overhead_s", "trace.spans")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"{s}_s", "s") for s in TIMED_SPANS]
    names += [(c, "count") for c in COUNTERS]
    names += [("cli.self_s", "s")]
    names += [(f"{m}.self_s", "s") for m in MODULES if m != "cli"]
    names += [(f"{m}.failed", "count") for m in MODULES]
    names += [(t, "count" if t == "trace.spans" else "s") for t in TRACE_METRICS]
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, fn, name, count=None):
        """Return fn recording one span per call.  ``name`` may be a callable
        of the call's positional arguments; ``count`` maps (args, kwargs, result)
        to a dict of counter increments."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def clear(self):
        self.spans.clear()


def dump_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, failed, counters) in enumerate(spans):
            record = {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                      "failed": failed, "counters": counters}
            fh.write(json.dumps(record) + "\n")


def pass_metrics(spans, pass_wall, op_failures):
    """Per-layer metrics of one traced pass.

    ``op_failures`` maps a module to the number of failed operations charged
    to it.
    """
    out = {n: 0.0 for n, _ in per_layer_names()}
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, _, counters in spans:
        dur = end - start
        if parent < 0:
            top += dur
        else:
            child_time[parent] += dur
        if counters:
            for key, val in counters.items():
                out[key] += val
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        module = name.split(".", 1)[0]
        dur = end - start
        out[f"{module}.self_s"] += dur - child_time[i]
        key = f"{name}_s"
        if key in out and not _has_ancestor(spans, parent, name):
            out[key] += dur
    for module, n in op_failures.items():
        out[f"{module}.failed"] += n
    out["cli.self_s"] = pass_wall - top
    out["trace.spans"] = len(spans)
    return out


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def median_metrics(per_pass):
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
