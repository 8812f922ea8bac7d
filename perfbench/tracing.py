"""Per-layer spans recorded from outside the package.

A :class:`Tracer` replaces public functions of the ``domchrom`` modules at
the names where their callers look them up (``harness.solve_exact``,
``solver.verify_dominator``, ``OrientedTree.__init__`` ...) with wrappers that
record one span per call.  The lazily built views of an ``OrientedTree``
(``cached_property`` getters such as ``adj_masks``) are wrapped too, so the
work of building a tree is counted in the trees layer whichever caller first
reads a view.  Each span holds its name, parent span, start and end in
nanoseconds.  Spans stay in memory; :func:`layer_metrics` turns them into per-layer call
counts, self times (span minus its direct children) and the deterministic
search counters that the kernel and report boundaries return.

Nothing under ``src/`` is changed: :meth:`Tracer.__exit__` puts every
original back.  Worker processes of a campaign pool are forked while the
wrappers are installed, so they run them too, but their spans stay in the
worker; a traced pooled run reports parent-side layers only.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

# Per-layer metrics: name -> (unit, better).  The order is the print order.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "kernel.rounds": ("count", "lower"),
    "kernel.nodes": ("count", "lower"),
    "kernel.prunes_proper": ("count", "lower"),
    "kernel.prunes_domination": ("count", "lower"),
    "kernel.self_s": ("s", "lower"),
    "kernel.ns_per_node": ("ns", "lower"),
    "solver.calls": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "solver.rounds_per_solve": ("rounds/solve", "lower"),
    "solver.nodes_per_solve": ("nodes/solve", "lower"),
    "solver.redundant_frac": ("ratio", "lower"),
    "solver.budget_failures": ("count", "lower"),
    "coloring.verify_calls": ("count", "lower"),
    "coloring.verify_self_s": ("s", "lower"),
    "coloring.canon_per_solve": ("calls/solve", "lower"),
    "coloring.canon_self_s": ("s", "lower"),
    "trees.build_calls": ("count", "lower"),
    "trees.build_self_s": ("s", "lower"),
    "trees.view_calls": ("count", "lower"),
    "trees.delete_leaf_calls": ("count", "lower"),
    "trees.delete_leaf_self_s": ("s", "lower"),
    "generators.free_trees_s": ("s", "lower"),
    "generators.random_tree_s": ("s", "lower"),
    "generators.orient_calls": ("count", "lower"),
    "generators.orient_self_s": ("s", "lower"),
    "generators.canon_code_calls": ("count", "lower"),
    "generators.canon_code_self_s": ("s", "lower"),
    "io.encode_calls": ("count", "lower"),
    "io.encode_self_s": ("s", "lower"),
    "io.decode_calls": ("count", "lower"),
    "io.decode_self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.map_wait_s": ("s", "lower"),
    "harness.records": ("count", "higher"),
    "reports.serialize_s": ("s", "lower"),
    "reports.bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# Metrics that must repeat exactly from one traced pass to the next.
DETERMINISTIC = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit != "s" and unit != "ns"
)


def _wrap_points():
    """(span name, owner, attribute, after-hook name) for every traced call.

    The owner is the module or class where the caller looks the name up, so
    a function imported by name into several modules is wrapped in each.
    """
    from domchrom import _backend, cli, coloring, generators, harness, io, reports
    from domchrom import solver, trees

    views = [
        ("trees.view", trees.OrientedTree, attr, None)
        for attr, prop in vars(trees.OrientedTree).items()
        if isinstance(prop, functools.cached_property)
    ]
    return views + [
        ("kernel", _backend.get_kernel(), "search_round", "_after_round"),
        ("solver", solver, "solve_exact", "_after_solve"),
        ("solver", harness, "solve_exact", "_after_solve"),
        ("coloring.verify", solver, "verify_dominator", None),
        ("coloring.canon", coloring.Coloring, "from_labels", None),
        ("trees.build", trees.OrientedTree, "__init__", None),
        ("trees.delete_leaf", harness, "delete_leaf", None),
        ("generators.free_trees", harness, "free_trees", None),
        ("generators.random_tree", generators, "random_tree", None),
        ("generators.orient", generators, "orient", None),
        ("generators.orient", harness, "orient", None),
        ("generators.canon_code", generators, "oriented_canonical_code", None),
        ("io.encode", harness, "encode_tree", None),
        ("io.encode", harness, "encode_base", None),
        ("io.encode", harness, "certificate_to_obj", None),
        ("io.decode", harness, "decode_tree", None),
        ("io.decode", io, "decode_base", None),
        ("harness", harness, "check_leaf_deletion", "_after_campaign"),
        ("harness", harness, "check_reversal_invariance", "_after_campaign"),
        ("harness", harness, "_leafdel_records", None),
        ("harness", harness, "_invariance_record", None),
        ("harness.map", harness, "_map_ordered", None),
        ("reports", reports.ExperimentReport, "to_json", "_after_serialize"),
        ("reports", reports.ExperimentReport, "to_csv", "_after_serialize"),
        ("cli", cli, "cli_main", None),
    ]


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    ``spans`` holds ``[name, parent index, start_ns, end_ns, failed]`` per
    call, in call order; parent ``-1`` marks a root.  ``solved`` keeps the
    trees passed to successful solves, for the redundancy count.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.solved: list = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, owner, attr, hook in _wrap_points():
            original = vars(owner)[attr]
            after = getattr(self, hook) if hook else None
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, after))
            elif isinstance(original, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(name, original.func, after))
                wrapped.__set_name__(owner, attr)
            else:
                wrapped = self._wrap(name, original, after)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own (a root when untraced)."""
        return self._wrap(name, fn, None)(*args)

    def _wrap(self, name: str, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1], clock(), 0, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters read at the layer boundaries --------------------------------

    def _after_round(self, args, result) -> None:
        c = self.counters
        c["nodes"] += result[2]
        c["prunes_proper"] += result[4]
        c["prunes_domination"] += result[5]

    def _after_solve(self, args, result) -> None:
        self.solved.append(args[0])

    def _after_campaign(self, args, result) -> None:
        self.counters["records"] += len(result.records)

    def _after_serialize(self, args, result) -> None:
        # Reports are JSON with ensure_ascii or CSV of ASCII codes: 1 char = 1 byte.
        self.counters["bytes"] += len(result)

    def write(self, path: Path) -> None:
        """Write the spans as JSON: span names once, then one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], int(s[4])] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "parent", "start_ns",
                       "end_ns", "failed"], "spans": rows}, fh, separators=(",", ":"))


def redundant_frac(trees) -> float:
    """Share of solves whose directed-isomorphism class was solved before."""
    if not trees:
        return 0.0
    from domchrom.generators import oriented_canonical_code

    seen: set[str] = set()
    repeats = 0
    for t in trees:
        code = oriented_canonical_code(t)
        if code in seen:
            repeats += 1
        seen.add(code)
    return repeats / len(trees)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose root span took ``wall_s``.

    ``trace.overhead_s`` needs an untraced pass and is filled in by the
    caller; ``solver.redundant_frac`` is computed here, after the pass.
    """
    calls: Counter = Counter()
    failed: Counter = Counter()
    total: Counter = Counter()
    child = [0] * len(tracer.spans)
    for name, parent, start, end, bad in tracer.spans:
        calls[name] += 1
        failed[name] += bad
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    own: Counter = Counter()
    for i, (name, _, start, end, _) in enumerate(tracer.spans):
        own[name] += end - start - child[i]

    def s(ns: int) -> float:
        return ns / 1e9

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tracer.counters
    solves = calls["solver"]
    return {
        "kernel.rounds": calls["kernel"],
        "kernel.nodes": c["nodes"],
        "kernel.prunes_proper": c["prunes_proper"],
        "kernel.prunes_domination": c["prunes_domination"],
        "kernel.self_s": s(own["kernel"]),
        "kernel.ns_per_node": per(own["kernel"], c["nodes"]),
        "solver.calls": solves,
        "solver.self_s": s(own["solver"]),
        "solver.rounds_per_solve": per(calls["kernel"], solves),
        "solver.nodes_per_solve": per(c["nodes"], solves),
        "solver.redundant_frac": redundant_frac(tracer.solved),
        "solver.budget_failures": failed["solver"],
        "coloring.verify_calls": calls["coloring.verify"],
        "coloring.verify_self_s": s(own["coloring.verify"]),
        "coloring.canon_per_solve": per(calls["coloring.canon"], solves),
        "coloring.canon_self_s": s(own["coloring.canon"]),
        "trees.build_calls": calls["trees.build"],
        "trees.build_self_s": s(own["trees.build"] + own["trees.view"]),
        "trees.view_calls": calls["trees.view"],
        "trees.delete_leaf_calls": calls["trees.delete_leaf"],
        "trees.delete_leaf_self_s": s(own["trees.delete_leaf"]),
        "generators.free_trees_s": s(total["generators.free_trees"]),
        "generators.random_tree_s": s(total["generators.random_tree"]),
        "generators.orient_calls": calls["generators.orient"],
        "generators.orient_self_s": s(own["generators.orient"]),
        "generators.canon_code_calls": calls["generators.canon_code"],
        "generators.canon_code_self_s": s(own["generators.canon_code"]),
        "io.encode_calls": calls["io.encode"],
        "io.encode_self_s": s(own["io.encode"]),
        "io.decode_calls": calls["io.decode"],
        "io.decode_self_s": s(own["io.decode"]),
        "harness.self_s": s(own["harness"]),
        "harness.map_wait_s": s(own["harness.map"]),
        "harness.records": c["records"],
        "reports.serialize_s": s(total["reports"]),
        "reports.bytes": c["bytes"],
        "cli.self_s": s(own["cli"]),
        "trace.wall_s": wall_s,
        "trace.overhead_s": 0.0,
        "trace.spans": len(tracer.spans),
    }
