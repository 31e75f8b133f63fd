"""Run one numsem CLI invocation with every layer's public functions traced.

Usage: python3 benchmarks/trace_child.py SPANS REPORT ARG...

The ARGs are those of ``numsem``; the CLI output goes to standard
output as without tracing.  Before the CLI runs, each public function
of the layers ``core``, ``doubles``, ``tree``, ``varieties``,
``oracle`` and ``cli`` is replaced, at every name a numsem module binds
it to (``tree`` and ``cli`` import ``doubles_bounded`` and others by
name), with a wrapper that records a span: name, start, end, parent.
The constructor, ``from_generators``, ``intersect``, ``quotient`` and
``min_generators`` of ``NumericalSemigroup`` and
``VarietyTree.children_of`` are wrapped the same way.  Spans stay in
memory until the CLI returns; then they are written to SPANS as
tab-separated rows and the per-layer metrics to REPORT as JSON.

A span's self time is its duration minus the durations of its child
spans.  The wrappers cost time of their own, most of it charged to the
caller's self time; ``run.py`` reports the difference in wall time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("core", "doubles", "tree", "varieties", "oracle", "cli")


class Tracer:
    """Spans in parallel arrays; index i is the i-th span opened."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")  # a size the wrapper noted, or -1
        self.stack = [-1]

    def wrap(self, name: str, fn, items=None):
        """``fn`` recording a span per call; ``items(args, result)`` notes a size."""
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, time.perf_counter
        names, parents, starts, ends, sizes = self.name, self.parent, self.start, self.end, self.items

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            sizes.append(-1)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if items is not None:
                sizes[i] = items(args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\titems\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.items[i]}\n")

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics the benchmark reports, from the spans."""
        n = len(self.start)
        names = [self.names[k] for k in self.name]
        duration = [self.end[i] - self.start[i] for i in range(n)]
        inner = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                inner[self.parent[i]] += duration[i]
        calls: Counter[str] = Counter(names)
        self_s: defaultdict[str, float] = defaultdict(float)
        for i in range(n):
            self_s[names[i]] += duration[i] - inner[i]

        def items_where(pred) -> list[int]:
            return [self.items[i] for i in range(n) if pred(i)]

        # children returned against doubles generated for them
        accepted = sum(items_where(lambda i: names[i] == "tree.children"))
        generated = sum(items_where(lambda i: names[i] == "doubles.doubles_bounded"
                                    and self.parent[i] >= 0
                                    and names[self.parent[i]] == "tree.children"))
        # members returned by the outermost varieties call against its intersections
        roots = ("varieties.smallest_variety", "varieties.arithmetic_extensions")
        root = array("i", [-1]) * n
        for i in range(n):
            p = self.parent[i]
            root[i] = root[p] if p >= 0 and root[p] >= 0 else (i if names[i] in roots else -1)
        members = sum(items_where(lambda i: root[i] == i))
        meets = sum(1 for i in range(n) if names[i] == "core.intersect" and root[i] >= 0)
        bounds = items_where(lambda i: names[i] == "oracle.all_semigroups_up_to")

        out: dict[str, float] = {}
        for fn in ("core.init", "core.from_generators", "core.intersect", "core.quotient",
                   "core.min_generators", "doubles.doubles_bounded", "doubles.upper_m_sets",
                   "doubles.is_upper_m_set", "doubles.build_double", "tree.children",
                   "tree.children_of", "varieties.arithmetic_extensions",
                   "oracle.all_semigroups_up_to"):
            out[f"{fn}.calls"] = calls[fn]
            out[f"{fn}.self_s"] = self_s[fn]
        for fn in ("tree.enumerate_tree", "tree.export_tree", "varieties.smallest_variety",
                   "oracle.doubles_oracle", "oracle.extension_oracle", "cli.main"):
            out[f"{fn}.self_s"] = self_s[fn]
        # a ratio with nothing attempted reads 0
        out["tree.children.accepted_ratio"] = accepted / generated if generated else 0.0
        out["varieties.useful_ratio"] = members / meets if meets else 0.0
        out["oracle.distinct_bounds_ratio"] = len(set(bounds)) / len(bounds) if bounds else 0.0
        out["trace.spans"] = n
        return out


def _sized(args, result) -> int:
    return len(result)


def _first_argument(args, result) -> int:
    return args[0]


#: Sizes noted per span, for the ratios.
ITEMS = {
    "tree.children": _sized,
    "doubles.doubles_bounded": _sized,
    "varieties.smallest_variety": _sized,
    "varieties.arithmetic_extensions": _sized,
    "oracle.all_semigroups_up_to": _first_argument,
}


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions wherever numsem binds them."""
    import numsem.cli  # noqa: F401  (imports every layer)

    modules = [m for k, m in sys.modules.items() if k == "numsem" or k.startswith("numsem.")]

    def rebind(fn, traced) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)

    for layer in LAYERS:
        module = sys.modules[f"numsem.{layer}"]
        for attr, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                rebind(fn, tracer.wrap(name, fn, ITEMS.get(name)))

    semigroup = sys.modules["numsem.core"].NumericalSemigroup
    cls_vars = vars(semigroup)
    semigroup.__init__ = tracer.wrap("core.init", cls_vars["__init__"])
    semigroup.from_generators = classmethod(
        tracer.wrap("core.from_generators", cls_vars["from_generators"].__func__))
    semigroup.intersect = semigroup.__and__ = tracer.wrap("core.intersect", cls_vars["intersect"])
    semigroup.quotient = tracer.wrap("core.quotient", cls_vars["quotient"])
    semigroup.min_generators = property(
        tracer.wrap("core.min_generators", cls_vars["min_generators"].fget))
    tree = sys.modules["numsem.tree"].VarietyTree
    tree.children_of = tracer.wrap("tree.children_of", vars(tree)["children_of"])


def main() -> int:
    spans_path, report_path, *argv = sys.argv[1:]
    tracer = Tracer()
    install(tracer)
    from numsem import cli

    code = cli.main(argv)
    sys.stdout.flush()
    tracer.write(spans_path)
    with open(report_path, "w", encoding="utf-8") as out:
        json.dump(tracer.metrics(), out)
    return code


if __name__ == "__main__":
    sys.exit(main())
