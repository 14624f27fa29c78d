"""Spans around the calls into each sytcount layer, recorded from outside.

``Tracer.install`` wraps each layer's public functions wherever another
sytcount module (or the package namespace) imported them by name, and the
methods of ``FactoredRatio`` and ``ShapeDescriptor.region``, through which
the CLI builds every region.  Calls inside the defining module are not
wrapped, with two exceptions: ``arith.factorize``, which
``FactoredRatio.from_integer`` reaches by module global, and ``cli.main``,
which the worker calls through the ``cli`` module.  Generator functions
get one span per resume, so a consumer's self time excludes the work done
inside the generator.  ``Partition`` and ``StrictPartition`` construction is
counted while a partition generator's span is the innermost one, so
``shapes.partitions`` counts the partitions the generators visit, not only
those they yield.

A span is (name, start, end, parent), with times in CPU seconds of the
worker, the clock the reference loop uses; spans live in flat arrays until
the run ends and ``dump`` writes them out.  ``job_summary`` turns the spans of
one job into self times per metric group and the counts the benchmark
reports.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("cli", "shapes", "arith", "formulas", "truncated", "count", "pivot")
WRAPPED_INSIDE = {("arith", "factorize"), ("cli", "main")}
RATIO_DUNDERS = {"__mul__", "__truediv__", "__pow__"}

# Self-time group of a span name; names not listed take their layer's name.
GROUP_OF = {
    "count.count_syt": "count.dp",
    "arith.factorize": "arith.factorize",
    "arith.is_probable_prime": "arith.factorize",
    "arith.is_smooth": "arith.factorize",
}
SELF_METRICS = {
    "count.dp": "count.dp_ref",
    "count": "count.enum_ref",
    "arith.factorize": "arith.factorize_ref",
    "arith": "arith.ratio_ref",
    "truncated": "truncated.self_ref",
    "formulas": "formulas.self_ref",
    "shapes": "shapes.self_ref",
    "pivot": "pivot.self_ref",
    "cli": "cli.self_ref",
}
# Counts, by what adds to them: spans of a group, spans of some names, or
# items yielded by some generators.
COUNT_GROUP_SPANS = {"truncated.calls": "truncated", "formulas.calls": "formulas", "arith.ratio_ops": "arith"}
COUNT_NAME_SPANS = {
    "arith.factorize_calls": ("arith.factorize",),
    "pivot.splits": ("pivot.split_threshold", "pivot.split_pivot"),
}
COUNT_YIELDS = {"count.tableaux": ("count.enumerate_syt",)}
COUNT_DP_CELLS = "count.dp_cells"
PARTITION_GENERATORS = ("shapes.partitions_in_box", "shapes.strict_partitions_in_staircase")
PARTITIONS_BUILT = "shapes.partitions"
# Not a metric: the run checks that the generators built at least as many
# partitions as they yielded, which shows the construction count is live.
PARTITIONS_YIELDED = "shapes.partitions_yielded"
PER_LAYER = sorted(
    list(SELF_METRICS.values()) + list(COUNT_GROUP_SPANS) + list(COUNT_NAME_SPANS)
    + list(COUNT_YIELDS) + [COUNT_DP_CELLS, PARTITIONS_BUILT]
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind_of: dict[str, int] = {}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        self.yields: dict[str, int] = {}
        self.dp_cells = 0
        self.partitions_built = 0
        self.job_first_span = 0

    # --- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.kind_of[name] = len(self.names) - 1
        return len(self.names) - 1

    def _open(self, kind: int) -> int:
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.process_time())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.process_time()
        self.stack.pop()

    def wrap(self, name: str, fn):
        kind = self._name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(kind)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        tracer.yields[name] = tracer.yields.get(name, 0) + 1
                        yield item
                finally:
                    it.close()

            wrapper = gen_wrapper
        elif name == "count.count_syt":
            def dp_wrapper(region, *args, **kwargs):
                tracer.dp_cells += region.size
                idx = tracer._open(kind)
                try:
                    return fn(region, *args, **kwargs)
                finally:
                    tracer._close(idx)

            wrapper = dp_wrapper
        else:
            def call_wrapper(*args, **kwargs):
                idx = tracer._open(kind)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

            wrapper = call_wrapper
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def count_built(self, post_init, gen_kinds: set[int]):
        """Wrap a partition class's ``__post_init__`` to count the objects
        built while a partition generator is running."""
        tracer = self

        def counting_post_init(obj) -> None:
            if tracer.stack and tracer.kind[tracer.stack[-1]] in gen_kinds:
                tracer.partitions_built += 1
            post_init(obj)

        return counting_post_init

    def install(self) -> None:
        """Wrap the layers' public functions where other modules bound them,
        the methods of FactoredRatio and ShapeDescriptor.region, and count
        the partitions the partition generators build."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "sytcount" or name.startswith("sytcount.")}
        wrappers: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = mods[f"sytcount.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (layer, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in mods.items():
            home = modname.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is None:
                    continue
                layer, wrapper = hit
                if layer != home or (layer, attr) in WRAPPED_INSIDE:
                    setattr(mod, attr, wrapper)
        ratio = mods["sytcount.arith"].FactoredRatio
        for attr, obj in list(vars(ratio).items()):
            if attr.startswith("_") and attr not in RATIO_DUNDERS:
                continue
            if isinstance(obj, classmethod):
                setattr(ratio, attr, classmethod(self.wrap(f"arith.FactoredRatio.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(ratio, attr, self.wrap(f"arith.FactoredRatio.{attr}", obj))
        shapes = mods["sytcount.shapes"]
        desc = shapes.ShapeDescriptor
        desc.region = self.wrap("shapes.ShapeDescriptor.region", desc.region)
        gen_kinds = {self.kind_of[name] for name in PARTITION_GENERATORS}
        for cls in (shapes.Partition, shapes.StrictPartition):
            cls.__post_init__ = self.count_built(cls.__post_init__, gen_kinds)

    # --- summaries --------------------------------------------------------

    def group_of(self, name: str) -> str:
        return GROUP_OF.get(name) or name.split(".", 1)[0]

    def job_summary(self) -> dict:
        """Self seconds per metric and counts for the spans since the last
        call; starts the next job."""
        lo, hi = self.job_first_span, len(self.kind)
        self.job_first_span = hi
        groups = [self.group_of(n) for n in self.names]
        child = {}
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] = child.get(p, 0.0) + (self.end[i] - self.start[i])
        out = {metric: 0.0 for metric in PER_LAYER}
        span_groups: dict[str, int] = {}
        span_names: dict[str, int] = {}
        for i in range(lo, hi):
            name = self.names[self.kind[i]]
            group = groups[self.kind[i]]
            self_s = self.end[i] - self.start[i] - child.get(i, 0.0)
            out[SELF_METRICS[group]] += self_s
            span_groups[group] = span_groups.get(group, 0) + 1
            span_names[name] = span_names.get(name, 0) + 1
        for metric, group in COUNT_GROUP_SPANS.items():
            out[metric] = span_groups.get(group, 0)
        for metric, names in COUNT_NAME_SPANS.items():
            out[metric] = sum(span_names.get(n, 0) for n in names)
        for metric, names in COUNT_YIELDS.items():
            out[metric] = sum(self.yields.get(n, 0) for n in names)
        out[COUNT_DP_CELLS] = self.dp_cells
        out[PARTITIONS_BUILT] = self.partitions_built
        out[PARTITIONS_YIELDED] = sum(self.yields.get(n, 0) for n in PARTITION_GENERATORS)
        self.yields = {}
        self.dp_cells = 0
        self.partitions_built = 0
        return out

    def dump(self, path: str) -> int:
        """Write every span as ``index name start end parent`` (CPU seconds
        since the first span); returns the number written."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.kind)):
                fh.write(f"{i}\t{self.names[self.kind[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n")
        return len(self.kind)
