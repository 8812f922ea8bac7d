"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The repository's own suite does not collect this file (``testpaths`` is
``tests``).  They take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Deterministic counts of one leaf-deletion pass (n <= 8) at the commit that
# introduced the benchmark.
LEAFDEL_COUNTS = {
    "solver.calls": 20458,
    "kernel.rounds": 38036,
    "trees.build_calls": 24368,
    "harness.records": 16548,
}


def traced(wl) -> tuple[workloads.Pass, dict]:
    tracer = tracing.Tracer()
    with tracer:
        tracer.span("setup", wl.setup)
        p = tracer.span("pass", wl.run_pass)
    return p, tracing.layer_metrics(tracer, p.wall_s)


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


@pytest.fixture(scope="module")
def leafdel_traced(expected):
    runs = []
    for _ in range(2):
        wl = workloads.LeafDeletion(0, expected)
        p, metrics = traced(wl)
        wl.check(p)
        runs.append((p, metrics))
    return runs


def test_traced_counts_repeat_and_match_recorded(leafdel_traced):
    (_, first), (_, second) = leafdel_traced
    for name in tracing.DETERMINISTIC:
        assert first[name] == second[name], name
    for name, value in LEAFDEL_COUNTS.items():
        assert first[name] == value, name


def test_tracing_leaves_outputs_unchanged(leafdel_traced, expected):
    wl = workloads.LeafDeletion(0, expected)
    plain = wl.run_pass()
    wl.check(plain)
    assert plain.failures == []
    for p, _ in leafdel_traced:
        assert p.failures == []
        assert p.digest == plain.digest

    wl = workloads.SolveRandom(0, expected)
    wl.setup()
    plain = wl.run_pass()
    p, metrics = traced(wl)
    assert [r.chi for r in p.output] == [r.chi for r in plain.output]
    assert metrics["solver.calls"] == workloads.RANDOM_TREES
    assert plain.job_s > 0  # the host's speed was sampled during the pass
    assert metrics["generators.random_tree_s"] > 0
    # The solver reads each fresh tree's views; that work is the trees layer's.
    assert metrics["trees.view_calls"] >= workloads.RANDOM_TREES


def test_tracer_restores_every_wrapped_name():
    before = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in tracing._wrap_points()]
    with tracing.Tracer():
        pass
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, attr


def test_gate_rejects_one_wrong_chi(expected):
    wl = workloads.SolveRandom(0, expected)
    wl.setup()
    good = wl.run_pass()
    wl.check(good)
    assert good.failures == []

    bad = wl.run_pass()
    bad.output[7] = dataclasses.replace(bad.output[7], chi=bad.output[7].chi + 1)
    wl.check(bad)
    assert "tree 7: certificate fails its recheck" in bad.failures
    assert "chi sequence differs from the recorded digest" in bad.failures


def test_every_seed_draws_a_recorded_corpus(expected):
    high = workloads.SolveRandom(workloads.CORPUS_SEEDS + 3, expected)
    assert high.expected_digest == workloads.SolveRandom(3, expected).expected_digest
    assert high.expected_digest is not None


def test_refuses_expected_data_of_another_corpus(expected):
    other = json.loads(json.dumps(expected))
    other["solve-random"]["trees"] += 1
    with pytest.raises(workloads.ExpectedMismatch):
        workloads.SolveRandom(0, other)


def test_gate_rejects_a_changed_report(expected):
    wl = workloads.LeafDeletion(0, expected)
    report = workloads.harness.check_star_values(2)
    p = workloads.Pass(0.0, (report, report.to_json()))
    wl.check(p)
    assert len(p.failures) == 2


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leafdel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
