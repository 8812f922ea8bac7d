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


def test_tracer_spans_every_class_memo_code(monkeypatch, capsys):
    """The leaf-deletion class memo computes its codes through the
    ``generators`` attribute, so each lookup is one ``generators.canon_code``
    span instead of harness time."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    lookups = []
    class_chi = harness._class_chi

    def counted(t, code):
        lookups.append(code)
        return class_chi(t, code)

    monkeypatch.setattr(harness, "_class_chi", counted)
    with tracing.Tracer() as tracer:
        # exit 1: the sweep meets counterexamples to the refuted claim
        assert cli.cli_main(["leafdel", "--max-n", "5"]) == 1
    capsys.readouterr()
    spans = [s for s in tracer.spans if s[0] == "generators.canon_code"]
    assert len(spans) == len(lookups) == len(set(lookups)) > 0
    assert all(tracer.spans[s[1]][0] == "harness" for s in spans)
