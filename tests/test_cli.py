from __future__ import annotations

import json

import pytest

from domchrom.cli import cli_main
from domchrom.io import format_tree, parse_tree
from domchrom.reports import ExperimentReport
from domchrom.trees import build_tree


@pytest.fixture()
def p5_file(tmp_path):
    t = build_tree(5, [(i, i + 1) for i in range(4)])
    p = tmp_path / "p5.tree"
    p.write_text(format_tree(t))
    return str(p)


def test_solve_directed_p5(p5_file, capsys):
    assert cli_main(["solve", p5_file]) == 0
    out = capsys.readouterr().out
    assert "chi = 5" in out
    assert "sink exempt" in out


def test_solve_json_format(p5_file, capsys):
    assert cli_main(["solve", p5_file, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["chi"] == 5
    assert len(obj["certificate"]["colors"]) == 5


def test_verify_good_and_bad(p5_file, tmp_path, capsys):
    good = tmp_path / "good.coloring"
    good.write_text("".join(f"{v} {v + 1}\n" for v in range(5)))
    assert cli_main(["verify", p5_file, str(good)]) == 0
    assert "valid dominator coloring" in capsys.readouterr().out

    bad = tmp_path / "bad.coloring"
    bad.write_text("0 1\n1 2\n2 1\n3 2\n4 1\n")
    assert cli_main(["verify", p5_file, str(bad)]) == 1
    assert "no dominated class" in capsys.readouterr().out


def test_gen_path_round_trips(capsys):
    assert cli_main(["gen", "path", "--n", "4"]) == 0
    t = parse_tree(capsys.readouterr().out)
    assert t == build_tree(4, [(0, 1), (1, 2), (2, 3)])


def test_gen_gs_dot(capsys):
    assert cli_main(["gen", "gs", "--m", "2", "--k", "2", "--emit", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and "0 -> 1;" in out


def test_gen_caterpillar_with_legs(capsys):
    assert (
        cli_main(
            ["gen", "caterpillar", "--spine", "4", "--legs", "1:1,2:1"]
        )
        == 0
    )
    t = parse_tree(capsys.readouterr().out)
    assert t.n == 6


def test_gen_random_seeded(capsys):
    assert cli_main(["gen", "random", "--n", "7", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["gen", "random", "--n", "7", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_orientations_min(p5_file, capsys):
    assert cli_main(["orientations", p5_file, "--min"]) == 0
    assert "min chi = 3" in capsys.readouterr().out


def test_orientations_json_all(p5_file, capsys):
    assert cli_main(["orientations", p5_file, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["orientations"] == 16
    assert obj["min"]["chi"] == 3 and obj["max"]["chi"] == 5


def test_invariance_small_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    assert cli_main(["invariance", "--max-n", "4", "--output", str(out)]) == 0
    rep = ExperimentReport.from_json(out.read_text())
    assert rep.campaign == "reversal_invariance" and rep.holds


def test_invariance_n5_finds_counterexample(tmp_path):
    out = tmp_path / "r.json"
    assert cli_main(["invariance", "--max-n", "5", "--output", str(out)]) == 1
    rep = ExperimentReport.from_json(out.read_text())
    assert not rep.holds


def test_leafdel_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    assert cli_main(["leafdel", "--max-n", "3", "--output", str(out)]) == 0
    assert cli_main(["leafdel", "--max-n", "4", "--output", str(out)]) == 1


def test_conjecture_completes(tmp_path):
    out = tmp_path / "r.json"
    assert (
        cli_main(["conjecture", "--m-max", "3", "--k-max", "2", "--output", str(out)])
        == 0
    )
    rep = ExperimentReport.from_json(out.read_text())
    assert rep.summary["findings"]


def test_star_campaign(tmp_path):
    out = tmp_path / "r.csv"
    assert (
        cli_main(["star", "--m-max", "3", "--format", "csv", "--output", str(out)])
        == 0
    )
    assert out.read_text().splitlines()[0].startswith("chi,")


def test_caterpillar_campaign(tmp_path):
    out = tmp_path / "r.json"
    assert (
        cli_main(
            ["caterpillar", "--samples", "10", "--seed", "2", "--output", str(out)]
        )
        == 0
    )
    rep = ExperimentReport.from_json(out.read_text())
    assert len(rep.records) == 10


@pytest.mark.parametrize(
    "extra",
    [["--n-max", "2"], ["--spine-min", "5", "--spine-max", "4"]],
)
def test_caterpillar_campaign_rejects_an_empty_spine_range(extra, capsys):
    # no draw could be accepted; the sampler must refuse instead of looping
    assert cli_main(["caterpillar", "--samples", "1", *extra]) == 2
    assert "spine_min" in capsys.readouterr().err


def test_jobs_flag_and_env(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli_main(["star", "--m-max", "3", "--jobs", "2", "--output", str(a)]) == 0
    monkeypatch.setenv("DOMCHROM_JOBS", "3")
    assert cli_main(["star", "--m-max", "3", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_usage_errors_exit_two(tmp_path, capsys):
    assert cli_main(["solve"]) == 2  # missing argument
    assert cli_main(["nonsense"]) == 2
    missing = tmp_path / "missing.tree"
    assert cli_main(["solve", str(missing)]) == 2
    bad = tmp_path / "bad.tree"
    bad.write_text("not a tree\n")
    assert cli_main(["solve", str(bad)]) == 2
    capsys.readouterr()


def test_solve_reports_tau_and_bound(p5_file, capsys):
    assert cli_main(["solve", p5_file]) == 0
    assert "tau = 4 (chi meets the lower bound tau + 1)" in capsys.readouterr().out
    assert cli_main(["solve", p5_file, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["tau"], obj["bound"]) == (4, "lower")
    assert "stats" not in obj
    assert cli_main(["solve", p5_file, "--budget", "2"]) == 2  # no search, no budget


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "TREE", "--seed", "1"],
        ["solve", "TREE", "--jobs", "2"],
        ["solve", "TREE", "--format", "csv"],
        ["verify", "TREE", "TREE", "--format", "csv"],
        ["verify", "TREE", "TREE", "--jobs", "2"],
        ["gen", "path", "--n", "4", "--format", "json"],
        ["gen", "path", "--n", "4", "--jobs", "2"],
        ["orientations", "TREE", "--seed", "1"],
        ["orientations", "TREE", "--jobs", "2"],
        ["invariance", "--max-n", "3", "--format", "text"],
        ["invariance", "--max-n", "3", "--seed", "1"],
        ["leafdel", "--max-n", "3", "--seed", "1"],
        ["conjecture", "--m-max", "2", "--k-max", "2", "--seed", "1"],
        ["star", "--m-max", "2", "--format", "text"],
        ["caterpillar", "--samples", "2", "--format", "text"],
    ],
)
def test_flags_a_command_does_not_read_exit_two(argv, p5_file, capsys):
    argv = [p5_file if a == "TREE" else a for a in argv]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err

