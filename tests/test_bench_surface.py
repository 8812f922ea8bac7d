"""The names that the benchmark in ``perfbench/`` reads from the package.

``perfbench/tracing.py`` wraps functions at the module or class attributes
where their callers look them up, and ``perfbench/workloads.py`` drives the
CLI and the campaigns.  A rename or removal of any of those names shows up
here as an import error or a ``KeyError`` when the tracer installs itself.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from domchrom import cli, harness
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
    assert (cli.cli_main, harness.check_reversal_invariance, harness._map_ordered) == originals
    assert {"cli", "harness", "harness.map", "reports"} <= {s[0] for s in tracer.spans}
    # the CLI reaches the campaign through the attribute the tracer wraps
    report = ExperimentReport.from_json(out.read_text())
    assert tracer.counters["records"] == len(report.records) > 0


def test_traced_leafdel_reads_chi_from_class_tables(monkeypatch, capsys):
    """A traced leaf-deletion pass makes one solve and one tree build per
    directed-isomorphism class (n <= 5: 1 + 1 + 3 + 8 + 27), and no
    canonical code or ``delete_leaf`` call; every solve runs inside
    ``_map_ordered`` and every build inside ``orient``, through the trusted
    constructor: no tree is validated again (``trees.build`` reads 0)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    trusted = OrientedTree._trusted
    with tracing.Tracer() as tracer:
        monkeypatch.setattr(OrientedTree, "_trusted", classmethod(
            lambda cls, *args: tracer.span("trees.trusted", trusted, *args)))
        # exit 1: the sweep meets counterexamples to the refuted claim
        assert cli.cli_main(["leafdel", "--max-n", "5"]) == 1
    capsys.readouterr()
    names = [s[0] for s in tracer.spans]
    assert names.count("solver") == names.count("trees.trusted") == 40
    assert names.count("generators.orient") == 40
    assert "trees.build" not in names
    assert "generators.canon_code" not in names
    assert "trees.delete_leaf" not in names
    parents = {(name, tracer.spans[parent][0]) for name, parent, *_ in tracer.spans
               if name in ("solver", "trees.trusted")}
    assert parents == {("solver", "harness.map"), ("trees.trusted", "generators.orient")}
