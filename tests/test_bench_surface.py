"""The names that the benchmark in ``perfbench/`` reads from the package.

``perfbench/tracing.py`` wraps functions at the module or class attributes
where their callers look them up, and ``perfbench/workloads.py`` drives the
CLI and the campaigns.  A rename or removal of any of those names shows up
here as an import error or a ``KeyError`` when the tracer installs itself.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter
from pathlib import Path

from domchrom import cli, harness, solver
from domchrom.generators import orient, random_tree
from domchrom.reports import ExperimentReport
from domchrom.trees import OrientedTree

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    originals = (cli.cli_main, harness.check_reversal_invariance, harness._map_ordered)
    out = tmp_path / "r.json"
    with tracing.Tracer() as tracer:
        assert cli.cli_main(["invariance", "--max-n", "3", "--output", str(out)]) == 0
        text = harness.check_reversal_invariance(3).to_json()
    assert (cli.cli_main, harness.check_reversal_invariance, harness._map_ordered) == originals
    assert {"cli", "harness", "harness.map", "reports"} <= {s[0] for s in tracer.spans}
    # the CLI streams the report that the wrapped campaign and serializer make
    assert out.read_text() == text
    report = ExperimentReport.from_json(text)
    assert tracer.counters["records"] == len(report.records) > 0


def test_traced_leafdel_reads_chi_from_state_tables(monkeypatch, capsys):
    """A traced leaf-deletion pass reads every chi from the tables of
    ``solver.chi_table``: its only solves certify the first counterexample
    and the subtree its leaf leaves, so it makes two solves, one ``orient``,
    one ``delete_leaf`` and two tree builds, and no canonical code.  Both
    solves run while the CLI reads the campaign stream, outside every record
    builder, and both builds go through the trusted constructor: no tree is
    validated again (``trees.build`` reads 0)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    trusted = OrientedTree._trusted
    with tracing.Tracer() as tracer:
        monkeypatch.setattr(OrientedTree, "_trusted", classmethod(
            lambda cls, *args: tracer.span("trees.trusted", trusted, *args)))
        # exit 1: the sweep meets counterexamples to the refuted claim
        assert cli.cli_main(["leafdel", "--max-n", "5"]) == 1
    capsys.readouterr()
    names = Counter(s[0] for s in tracer.spans)
    assert names["solver"] == names["trees.trusted"] == 2
    assert names["generators.orient"] == names["trees.delete_leaf"] == 1
    assert "trees.build" not in names
    assert "generators.canon_code" not in names
    parents = {(name, tracer.spans[parent][0]) for name, parent, *_ in tracer.spans
               if name in ("solver", "trees.trusted")}
    assert parents == {
        ("solver", "cli"), ("trees.trusted", "generators.orient"),
        ("trees.trusted", "trees.delete_leaf"),
    }


def test_traced_solve_verifies_once_and_relabels_once(monkeypatch):
    """Each solve makes exactly one ``coloring.verify`` call and at most one
    ``coloring.canon`` call, both directly inside its own ``solver`` span: a
    verification dropped, doubled or moved off ``solver.verify_dominator``,
    or a second relabel, fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    rng = random.Random(3)
    trees = []
    for _ in range(40):
        n = rng.randint(1, 14)
        trees.append(orient(random_tree(n, rng.getrandbits(32)), rng.getrandbits(n - 1)))
    with tracing.Tracer() as tracer:
        for t in trees:
            solver.solve_exact(t)
    spans = tracer.spans
    inside = {i: Counter() for i, s in enumerate(spans) if s[0] == "solver"}
    assert len(inside) == len(trees)
    for name, parent, *_ in spans:
        if name.startswith("coloring."):
            inside[parent][name] += 1  # a KeyError: not directly inside a solve
    assert all(c["coloring.verify"] == 1 and c["coloring.canon"] <= 1
               for c in inside.values())
