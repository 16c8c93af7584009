"""Span tracing of exact2rel's public functions, from outside the program.

``Tracer`` replaces each listed function, in every ``exact2rel`` module
namespace that binds it, by a wrapper that records a span (name, start,
end, parent span, operation id) and, for some functions, counters read
from the arguments and the result.  ``uninstall`` puts the originals
back.  Spans stay in memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from math import comb, prod


def _verify_pairs(tr, args, result):
    tr.add("construct.verify.pairs", comb(args[0].n_leaves, 2))


def _relation_pairs(tr, args, result):
    leaves = args[0].n_leaves
    tr.add("rooted.relation.pairs", leaves * (leaves - 1))


def _kernel(min_w_arg: int):
    def hook(tr, args, result):
        min_w, max_w = args[min_w_arg], args[min_w_arg + 1]
        tr.add("kernel.search_space", prod(max_w - m + 1 for m in min_w))
        tr.add("kernel.masks_out", len(result))
    return hook


def _parsed(tr, args, result):
    if tr.first("input"):
        tr.add("sizes.n", result.n)
        tr.add("sizes.m", result.m)


def _quotient(tr, args, result):
    if tr.seen("input") and tr.first("quotient"):
        q = result.graph if hasattr(result, "graph") else result[0]
        tr.add("sizes.quotient_n", q.n)


def _recognized(tr, args, result):
    if result.decision and tr.first("witness"):
        tr.add("sizes.witness_nv", result.witness.nv)


def _constructed(tr, args, result):
    if tr.first("witness"):
        tr.add("sizes.witness_nv", result.nv)


def _witnesses(tr, args, result):
    if tr.first("input"):
        tr.add("sizes.n", args[0].n)
        tr.add("sizes.m", args[0].m)
    if tr.first("witness"):
        tr.add("sizes.witness_nv", sum(t.nv for t in result))


# (module, function or Class.method, span name, calls counter, hook)
SPECS = (
    ("cli", "main", "cli", None, None),
    ("graphs", "parse_graph", "graphs.parse", None, _parsed),
    ("graphs", "parse_oriented", "graphs.parse", None, _parsed),
    ("graphs", "false_twin_partition", "graphs.twins", "graphs.twins.calls", None),
    ("graphs", "directed_twin_partition", "graphs.twins", "graphs.twins.calls", None),
    ("graphs", "quotient", "graphs.quotient", None, _quotient),
    ("graphs", "directed_quotient", "graphs.quotient", None, _quotient),
    ("graphs", "block_decomposition", "graphs.blocks", "graphs.blocks.calls", None),
    ("graphs", "is_block_graph", "graphs.blocks", None, None),
    ("graphs", "connected_components", "graphs.components", None, None),
    ("graphs", "find_cycle", "graphs.cycle", None, None),
    ("graphs", "from_edge_list", "graphs.build", None, None),
    ("graphs", "from_arc_list", "graphs.build", None, None),
    ("graphs", "induced_subgraph", "graphs.build", None, None),
    ("graphs", "underlying_graph", "graphs.build", None, None),
    ("construct", "recognize", "construct.recognize", None, _recognized),
    ("construct", "construct_block_tree", "construct.block_tree", None, None),
    ("construct", "join_components", "construct.join", None, None),
    ("construct", "blow_up", "construct.blow_up", None, None),
    ("construct", "verify", "construct.verify", None, _verify_pairs),
    ("trees", "LabeledTree.build", "trees.build", "trees.build.calls", None),
    ("trees", "canonicalize", "trees.canonicalize", None, None),
    ("trees", "leaf_distance_matrix", "trees.distances", None, None),
    ("newick", "parse_newick", "newick.parse", None, None),
    ("newick", "parse_rooted_newick", "newick.parse", None, None),
    ("newick", "format_newick", "newick.format", None, None),
    ("rooted", "format_rooted_newick", "newick.format", None, None),
    ("rooted", "recognize_oriented", "rooted.recognize", None, None),
    ("rooted", "construct_oriented", "rooted.construct", None, _constructed),
    ("rooted", "directed_relation_pairs", "rooted.relation", None, _relation_pairs),
    ("rooted", "RootedLabeledTree.build", "rooted.build", "rooted.build.calls", None),
    ("oracle", "check_characterization", "oracle.check", None, None),
    ("oracle", "explainable_set", "oracle.explainable", None, None),
    ("oracle", "rooted_explainable_set", "oracle.explainable", None, None),
    ("oracle", "all_witnesses", "oracle.witnesses", None, _witnesses),
    ("oracle", "enumerate_topologies", "oracle.topologies", None, None),
    ("oracle", "all_graph_classes", "oracle.classes", None, None),
    ("oracle", "all_oriented_classes", "oracle.classes", None, None),
    ("oracle", "canonical_mask_of", "oracle.canonical_mask", None, None),
    ("oracle", "canonical_arc_mask_of", "oracle.canonical_mask", None, None),
    ("oracle", "canonical_mask", "oracle.canonical_mask", None, None),
    ("oracle", "canonical_arc_mask", "oracle.canonical_mask", None, None),
    ("_kernel", "enumerate_relation_masks", "kernel.relation_masks", None, _kernel(2)),
    ("_kernel", "matching_weightings", "kernel.matching_weightings", None, _kernel(2)),
    ("_kernel", "enumerate_rooted_arc_masks", "kernel.rooted_arc_masks", None, _kernel(3)),
)

# Per-layer metrics in report order, with units.  ``*.self_s`` is the
# summed self time of the spans of that name; the others are counters.
SELF_TIMES = (
    "cli", "graphs.parse", "graphs.twins", "graphs.quotient", "graphs.blocks",
    "graphs.components", "graphs.cycle", "graphs.build",
    "construct.recognize", "construct.block_tree", "construct.join",
    "construct.blow_up", "construct.verify",
    "trees.build", "trees.canonicalize", "trees.distances",
    "newick.parse", "newick.format",
    "rooted.recognize", "rooted.construct", "rooted.relation",
    "oracle.check", "oracle.explainable", "oracle.witnesses",
    "oracle.topologies", "oracle.classes", "oracle.canonical_mask",
    "kernel.relation_masks", "kernel.matching_weightings",
    "kernel.rooted_arc_masks",
)
COUNTERS = (
    "graphs.twins.calls", "graphs.blocks.calls", "construct.verify.pairs",
    "trees.build.calls", "rooted.relation.pairs", "rooted.build.calls",
    "kernel.search_space", "kernel.masks_out",
    "sizes.n", "sizes.m", "sizes.quotient_n", "sizes.witness_nv",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({name: "count" for name in COUNTERS})
    units["kernel.yield"] = "ratio"
    units["trace.overhead_ops_per_s"] = "1/s"
    return units


class Tracer:
    """Records spans around exact2rel's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next = 0
        self._op = -1
        self._op_start = 0.0
        self._seen: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- operations ----------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._seen = set()
        self._stack = [self._new_id()]
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        (root,) = self._stack
        self.spans.append((root, self._op, "op", self._op_start, end, -1))
        self._stack = []

    def first(self, what: str) -> bool:
        """True the first time ``what`` is seen in the current operation."""
        if what in self._seen:
            return False
        self._seen.add(what)
        return True

    def seen(self, what: str) -> bool:
        return what in self._seen

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str, calls: str | None, hook):
        tracer, spans, clock = self, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            sid = tracer._new_id()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, tracer._op, name, start, end, parent))
            if calls:
                tracer.counters[calls] += 1
            if hook:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self, package: str = "exact2rel") -> None:
        """Wrap every function in ``SPECS`` wherever the package binds it."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, qual, name, calls, hook in SPECS:
            home = sys.modules[f"{package}.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapped = self._wrap(original.__func__, name, calls, hook)
                setattr(cls, attr, classmethod(wrapped))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(home, qual)
            wrapped = self._wrap(original, name, calls, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the time its
        direct children cover."""
        covered: Counter[int] = Counter()
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter[str] = Counter()
        for sid, _, name, start, end, _ in self.spans:
            totals[name] += end - start - covered[sid]
        return dict(totals)

    def call_counts(self) -> dict[str, int]:
        return dict(Counter(name for _, _, name, _, _, _ in self.spans))

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (``trace.overhead_ops_per_s`` excluded)."""
        selfs = self.self_times()
        out: dict[str, float] = {f"{n}.self_s": selfs.get(n, 0.0)
                                 for n in SELF_TIMES}
        out.update({n: self.counters.get(n, 0) for n in COUNTERS})
        space = self.counters.get("kernel.search_space", 0)
        out["kernel.yield"] = (self.counters.get("kernel.masks_out", 0) / space
                               if space else 0.0)
        return out

    def write(self, path: str, origin: float) -> None:
        """Dump the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for sid, op, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": sid, "op": op, "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": None if parent < 0 else parent}) + "\n")
