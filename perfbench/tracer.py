"""Per-layer tracing of arcjet from outside the program.

The tracer wraps selected arcjet functions and methods after import.  A
*span* wrapper records, for every call, the span's name, start, end, parent
span and operation id; a *counter* wrapper only counts calls, for the
kernels that run millions of times.  Spans are kept in memory and written
out when the run ends; self time (a span's duration minus the part its
child spans cover) is computed from them afterwards.

arcjet modules import names directly (``from .driver import run_driver``),
so a wrapper is bound in the defining module *and* in every arcjet module
that holds a reference to the same function object.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, qualified name) of every call site boundary timed as a span
SPANS = (
    ("cli", "main"),
    ("catalog", "verify_congruence_table"),
    ("catalog", "components"),
    ("catalog", "noninclusion_matrix"),
    ("driver", "run_driver"),
    ("oracle", "enumerate_fiber"),
    ("oracle", "coverage_check"),
    ("oracle", "exclusive_cover_check"),
    ("oracle", "split_partition_check"),
    ("oracle", "truncate_stratum"),
    ("jetgraph", "build_graph"),
    ("jetgraph", "descriptor_contains"),
    ("strata", "Stratum.simplify"),
    ("strata", "rewrite"),
    ("hasse", "JetSystem.derivative"),
)

# functions whose calls are only counted
COUNTERS = (
    ("oracle", "stratum_membership"),
    ("strata", "rewrite_rules_for"),
    ("hasse", "JetSystem.__init__"),
    ("algebra", "Polynomial.evaluate"),
    ("algebra", "Polynomial.__mul__"),
    ("algebra", "Field.of"),
)


# The per-layer metrics a traced run reports, with their units.  Self times
# are listed only for spans that every workload enters: a layer a workload
# never calls would report exactly 0 s on every run.  The self times of the
# other spans go on the report line (run.py) and into the spans file.
LAYER_METRICS = (
    ("oracle.enumerate_fiber.calls", "count"),
    ("oracle.enumerate_fiber.fiber_points", "count"),
    ("oracle.enumerate_fiber.fiber_accept_ratio", "ratio"),
    ("oracle.stratum_membership.calls", "count"),
    ("oracle.truncate_stratum.calls", "count"),
    ("oracle.truncate_stratum.self_s", "s"),
    ("strata.Stratum.simplify.calls", "count"),
    ("strata.Stratum.simplify.self_s", "s"),
    ("strata.rewrite_rules_for.calls", "count"),
    ("strata.rewrite.calls", "count"),
    ("strata.rewrite.self_s", "s"),
    ("jetgraph.descriptor_contains.calls", "count"),
    ("jetgraph.descriptor_contains.true_ratio", "ratio"),
    ("jetgraph.build_graph.calls", "count"),
    ("driver.run_driver.calls", "count"),
    ("driver.run_driver.self_s", "s"),
    ("driver.run_driver.nodes", "count"),
    ("catalog.verify_congruence_table.calls", "count"),
    ("catalog.components.calls", "count"),
    ("catalog.noninclusion_matrix.calls", "count"),
    ("hasse.JetSystem.init.calls", "count"),
    ("hasse.JetSystem.derivative.calls", "count"),
    ("hasse.JetSystem.derivative.self_s", "s"),
    ("algebra.Polynomial.evaluate.calls", "count"),
    ("algebra.Polynomial.__mul__.calls", "count"),
    ("algebra.Field.of.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    # traced minus untraced pass time; filled in by run.py
    ("cli.tracing_overhead_s", "s"),
)


def _metric_base(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('.__init__', '.init')}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span names, indexed by span_name
        # one entry per span, in the order spans were entered
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        # named tallies recorded from arguments and results
        self.tally: dict[str, float] = {}

    # -- wrappers -----------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self.stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(self.tally, result, *args, **kwargs)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced arcjet function and rebind each reference."""
        mods = {m: importlib.import_module(f"arcjet.{m}") for m, _ in SPANS + COUNTERS}
        plan = [(m, q, True) for m, q in SPANS] + [(m, q, False) for m, q in COUNTERS]
        for module, qualname, is_span in plan:
            owner = mods[module]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = _metric_base(module, qualname)
            if is_span:
                wrapped = self._span(name, original, _AFTER.get(name))
            else:
                wrapped = self._counter(name, original)
            setattr(owner, attr, wrapped)
            _rebind(original, wrapped)

    # -- results ------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """calls and self seconds of every span name, calls of every
        counter, and the named tallies and ratios."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.span_end[i] - self.span_start[i] - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        for name, c in self.counts.items():
            out[f"{name}.calls"] = c
        t = self.tally
        out["oracle.enumerate_fiber.fiber_points"] = t.get("fiber_points", 0)
        out["oracle.enumerate_fiber.fiber_accept_ratio"] = (
            t.get("fiber_points", 0) / t["fiber_space"] if t.get("fiber_space") else 0.0
        )
        dc = out.get("jetgraph.descriptor_contains.calls", 0)
        out["jetgraph.descriptor_contains.true_ratio"] = (
            t.get("contains_true", 0) / dc if dc else 0.0
        )
        out["driver.run_driver.nodes"] = t.get("driver_nodes", 0)
        return out

    def write_spans(self, path: str, op_ids: list[str]) -> None:
        """One JSON object per span: name, start, end, parent index, op."""
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                op = self.span_op[i]
                fh.write(
                    json.dumps(
                        [
                            self.names[self.span_name[i]],
                            self.span_start[i],
                            self.span_end[i],
                            self.span_parent[i],
                            op_ids[op] if op >= 0 else None,
                        ]
                    )
                    + "\n"
                )


def _rebind(original, wrapped) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname != "arcjet" and not modname.startswith("arcjet."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _after_fiber(tally, points, f, p, m, *rest, **kw):
    tally["fiber_points"] = tally.get("fiber_points", 0) + len(points)
    tally["fiber_space"] = tally.get("fiber_space", 0) + p ** (3 * m)


def _after_contains(tally, result, *args, **kw):
    if result:
        tally["contains_true"] = tally.get("contains_true", 0) + 1


def _after_driver(tally, tree, *args, **kw):
    tally["driver_nodes"] = tally.get("driver_nodes", 0) + len(tree.nodes)


_AFTER = {
    "oracle.enumerate_fiber": _after_fiber,
    "jetgraph.descriptor_contains": _after_contains,
    "driver.run_driver": _after_driver,
}
