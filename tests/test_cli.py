from __future__ import annotations

import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import domchrom
from domchrom import harness
from domchrom.cli import cli_main
from domchrom.errors import TooLargeError
from domchrom.generators import orient, path, random_tree
from domchrom.io import encode_tree, format_tree, parse_tree, read_tree
from domchrom.reports import ExperimentReport
from domchrom.solver import solve_exact
from domchrom.trees import build_tree

from conftest import count_validations
from orbits import orientation_classes


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


def test_orientations_solve_the_extremes_they_print(p5_file, monkeypatch, capsys):
    # every chi comes from the state table; only the two extremes named in
    # the output are solved (and their colorings verified)
    solved = []

    def counting_solve(t):
        solved.append(t)
        return solve_exact(t)

    monkeypatch.setattr(harness, "solve_exact", counting_solve)
    assert cli_main(["orientations", p5_file, "--format", "json", "--min"]) == 0
    obj = json.loads(capsys.readouterr().out)
    base = read_tree(p5_file).underlying()
    assert solved == [orient(base, obj["min"]["mask"]), orient(base, obj["max"]["mask"])]


def test_orientations_refuse_a_table_that_a_solve_contradicts(p5_file, monkeypatch, capsys):
    monkeypatch.setattr(harness, "chi_table", _chi_table_one_high)
    assert cli_main(["orientations", p5_file, "--max"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: chi table gives 4, solve_exact 3: ")
    assert err.count("\n") == 1


def test_orientations_validates_only_the_file(p5_file, monkeypatch):
    # the base tree is the file's tree read once; underlying() checks nothing
    counts = count_validations(monkeypatch)
    assert cli_main(["orientations", p5_file, "--min"]) == 0
    assert counts == {"OrientedTree": 1}


# SHA-256 of ``orientations`` on the directed 12-vertex path in each format,
# recorded while the command still solved every mask, and before ``--all``
# (which printed these same bytes) was removed
ORIENTATIONS_P12_DIGESTS = {
    "text": "35b6ea04e2e5a5cda9fbdd2b3d0132ac8ae3041a3564143dd4e0cbccaaca2658",
    "json": "d42a9b1c4c9b5703f2e33dce4e7fb17743d3d7429004a74e87043e6771273387",
    "csv": "1a8c0ba60686d05621abfb1cf1070c796a5ab4df449fe553f29ec40be0a98f04",
}


@pytest.mark.parametrize("fmt", sorted(ORIENTATIONS_P12_DIGESTS))
def test_orientations_p12_pinned(fmt, tmp_path):
    tree = tmp_path / "p12.tree"
    tree.write_text(format_tree(build_tree(12, [(i, i + 1) for i in range(11)])))
    out = tmp_path / "out"
    assert cli_main(["orientations", str(tree), "--format", fmt, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ORIENTATIONS_P12_DIGESTS[fmt]


# SHA-256 of ``orientations --min`` and ``--max`` on the same path, recorded
# while each format still selected its rows on its own
ORIENTATIONS_P12_EXTREME_DIGESTS = {
    ("text", "--min"): "9589bebe4aea78ed0daac8ff3ee4b3adcd25358b8fca48d0cd26dced370803e2",
    ("text", "--max"): "4323a58c08336e80643186fb7b1eeed7eb6dc82099d02cb9a376000eb0f4e060",
    ("json", "--min"): "c2e679bbfe66a73dc55a9b3d319134852f51a2abcfc1a3ee0a434536e13eb63b",
    ("json", "--max"): "c2e679bbfe66a73dc55a9b3d319134852f51a2abcfc1a3ee0a434536e13eb63b",
    ("csv", "--min"): "3c4d3cdd1600b80a7a628a4f426d3c35793af0093453b598135e26a2d597c431",
    ("csv", "--max"): "8705e06cc2859e811639bf34e6015ba5da442385717db35880fe2b5bb40b2f25",
}


@pytest.mark.parametrize("fmt, flag", sorted(ORIENTATIONS_P12_EXTREME_DIGESTS))
def test_orientations_p12_extremes_pinned(fmt, flag, tmp_path):
    tree = tmp_path / "p12.tree"
    tree.write_text(format_tree(build_tree(12, [(i, i + 1) for i in range(11)])))
    out = tmp_path / "out"
    argv = ["orientations", str(tree), "--format", fmt, flag, "--output", str(out)]
    assert cli_main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ORIENTATIONS_P12_EXTREME_DIGESTS[fmt, flag]


@pytest.mark.parametrize("seed", [5, 2])
def test_orientations_match_fresh_solves(seed, tmp_path, capsys):
    # seed 5 draws a tree with no automorphism, so every orientation is its
    # own class; seed 2 draws one whose 512 orientations fall into 256
    base = random_tree(10, seed)
    assert len(set(orientation_classes(base))) == {5: 512, 2: 256}[seed]
    tree = tmp_path / "t.tree"
    tree.write_text(format_tree(orient(base, 0)))
    assert cli_main(["orientations", str(tree), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    chis = [solve_exact(orient(base, mask)).chi for mask in range(512)]
    assert obj["all"] == [{"mask": m, "chi": c} for m, c in enumerate(chis)]
    assert obj["orientations"] == 512
    assert obj["min"] == {"mask": chis.index(min(chis)), "chi": min(chis)}
    assert obj["max"] == {"mask": chis.index(max(chis)), "chi": max(chis)}


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


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "--m-max", "0", "--k-max", "0"],
        ["conjecture", "--m-max", "3", "--k-max", "3", "--n-cap", "1"],
        ["caterpillar", "--samples", "0"],
        ["caterpillar", "--samples", "-2"],
        ["star", "--m-max", "0"],
        ["conjecture", "--m-max", "2", "--k-max", "2", "--n-cap", "0"],
    ],
)
def test_campaign_with_an_empty_corpus_exits_two(argv, tmp_path, capsys):
    # a zero-instance report would say the claim holds; refuse it, as star does
    out = tmp_path / "r.json"
    assert cli_main([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not out.exists()
    if argv[-2:] == ["--n-cap", "0"]:  # the cap's guard names both its bounds
        assert "supports 1 <= n_cap <= 10" in err


# each campaign subcommand at small parameters, and the library report of the
# same parameters
STREAMED = [
    pytest.param(
        ["invariance", "--max-n", "5"],
        lambda: harness.check_reversal_invariance(5), id="invariance",
    ),
    pytest.param(["leafdel", "--max-n", "5"], lambda: harness.check_leaf_deletion(5), id="leafdel"),
    pytest.param(
        ["conjecture", "--m-max", "3", "--k-max", "3", "--n-cap", "9"],
        lambda: harness.explore_conjecture_gs(3, 3, 9), id="conjecture",
    ),
    pytest.param(["star", "--m-max", "4"], lambda: harness.check_star_values(4), id="star"),
    pytest.param(
        ["caterpillar", "--samples", "30", "--seed", "4"],
        lambda: harness.check_caterpillar_bounds(30, 4), id="caterpillar",
    ),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("argv, check", STREAMED)
def test_streamed_report_equals_the_collected_one(argv, check, jobs, fmt, tmp_path):
    report = check()  # the CLI's --jobs selects nothing
    out = tmp_path / "r.out"
    code = cli_main([*argv, "--jobs", str(jobs), "--format", fmt, "--output", str(out)])
    assert code == (0 if report.holds else 1)
    assert out.read_text() == (report.to_json() if fmt == "json" else report.to_csv())
    assert os.listdir(tmp_path) == ["r.out"]  # no temporary file is left


# SHA-256 of CLI reports on stdout, recorded before the JSON report was
# streamed; CSV is still built from the collected report
STDOUT_DIGESTS = {
    ("star", "csv"): "3f8080a81968f444166d0c9e7ae444546677ddab36862e6bbaca4cf27f370886",
    ("star", "json"): "c7f511f3b9b99143789b5698102aa2a7b57e0285982eb61c824792660b584cae",
    ("leafdel", "csv"): "a6c8eee054dd14a14f9497d62c80f2b8a019b2e1a1c5533abcda5ac3e3bc8c1c",
    ("leafdel", "json"): "b51566ef5720117fb56023a0b30f3eb6bdfa4d84358b6e0c63c660ec5349bc03",
    ("caterpillar", "csv"): "a90abb4e62aba6ec879ace0e68b6e756887d07d4ca999cf3f6b5dac0e35e31f7",
    ("caterpillar", "json"): "518d81249e658059e639b99f880fc02093ee5dcc295dfc52f7025672adb906bd",
}


@pytest.mark.parametrize("name, fmt", sorted(STDOUT_DIGESTS))
def test_campaign_stdout_pinned(name, fmt, capsys):
    argv = {param.id: param.values[0] for param in STREAMED}[name]
    cli_main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[name, fmt]


_STAR_RECORDS = harness._star_records
_CHI_TABLE = harness.chi_table


def _failing_star_records(base, table) -> list[dict]:
    """The star records, but those of the third star fail."""
    if base.n == 4:
        raise TooLargeError("third star refused")
    return _STAR_RECORDS(base, table)


def _failing_chi_table(base) -> list[int]:
    """The chi table, but that of the third star fails."""
    if base.n == 4:
        raise TooLargeError("third star refused")
    return _CHI_TABLE(base)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failing_record_leaves_no_report(jobs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "_star_records", _failing_star_records)
    out = tmp_path / "r.json"
    assert cli_main(["star", "--m-max", "4", "--jobs", jobs, "--output", str(out)]) == 2
    assert "third star refused" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_a_failing_record_keeps_the_previous_report(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    out.write_text("previous\n")
    monkeypatch.setattr(harness, "_star_records", _failing_star_records)
    assert cli_main(["star", "--m-max", "4", "--output", str(out)]) == 2
    assert out.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["r.json"]


@pytest.mark.parametrize("previous", [False, True])
def test_a_failing_worker_table_leaves_no_report(previous, tmp_path, monkeypatch, capsys):
    # the failure is raised inside a chi table, and reaches the CLI when the
    # ordered map yields that table
    out = tmp_path / "r.json"
    if previous:
        out.write_text("previous\n")
    monkeypatch.setattr(harness, "chi_table", _failing_chi_table)
    assert cli_main(["star", "--m-max", "4", "--jobs", "2", "--output", str(out)]) == 2
    assert "third star refused" in capsys.readouterr().err
    assert os.listdir(tmp_path) == (["r.json"] if previous else [])
    if previous:
        assert out.read_text() == "previous\n"


def _chi_table_one_high(base) -> list[int]:
    """The chi table, but every entry one too high, so that the solve of
    any witness contradicts it."""
    return [chi + 1 for chi in _CHI_TABLE(base)]


@pytest.mark.parametrize("previous", [False, True])
def test_an_internal_error_exits_three(previous, tmp_path, monkeypatch, capsys):
    # a chi table that its witness's solve contradicts is no finding (exit 1)
    # and no usage error (exit 2); the CLI says so on one line, and the
    # report file is left as it was
    monkeypatch.setattr(harness, "chi_table", _chi_table_one_high)
    out = tmp_path / "r.json"
    if previous:
        out.write_text("previous\n")
    assert cli_main(["star", "--m-max", "3", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: chi table gives") and err.count("\n") == 1
    assert os.listdir(tmp_path) == (["r.json"] if previous else [])
    if previous:
        assert out.read_text() == "previous\n"


def test_a_device_output_is_written_directly(tmp_path):
    # a link to the device resolves to the device, which is never replaced
    link = tmp_path / "null"
    link.symlink_to(os.devnull)
    for output in (os.devnull, str(link)):
        assert cli_main(["star", "--m-max", "2", "--output", output]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert link.is_symlink()


def test_jobs_flag_and_env(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli_main(["star", "--m-max", "3", "--jobs", "2", "--output", str(a)]) == 0
    # the environment no longer sets a default, so no value there fails a run
    monkeypatch.setenv("DOMCHROM_JOBS", "two")
    assert cli_main(["star", "--m-max", "3", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("jobs", ["-3", "0", "two", "1.5", ""])
def test_bad_jobs_flag_exits_two(jobs, capsys):
    assert cli_main(["star", "--m-max", "2", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "decimal, hexadecimal",
    [
        (["gen", "path", "--n", "5", "--mask", "9"],
         ["gen", "path", "--n", "5", "--mask", "0x9"]),
        (["gen", "star", "--m", "6", "--mask", "45"],
         ["gen", "star", "--m", "6", "--mask", "0X2d"]),
        (["gen", "gs", "--m", "2", "--k", "3", "--scheme", "mask", "--mask", "21"],
         ["gen", "gs", "--m", "2", "--k", "3", "--scheme", "mask", "--mask", "0x15"]),
        (["gen", "random", "--n", "9", "--seed", "4", "--mask", "171"],
         ["gen", "random", "--n", "9", "--seed", "4", "--mask", "0xAB"]),
        (["gen", "caterpillar", "--spine", "5", "--legs", "1:2,3:1",
          "--spine-mask", "5", "--legs-mask", "6"],
         ["gen", "caterpillar", "--spine", "5", "--legs", "1:2,3:1",
          "--spine-mask", "0x5", "--legs-mask", "0x6"]),
    ],
)
def test_gen_masks_read_hexadecimal(decimal, hexadecimal, capsys):
    assert cli_main(decimal) == 0
    expected = capsys.readouterr().out
    assert cli_main(hexadecimal) == 0
    assert capsys.readouterr().out == expected


def test_gen_path_takes_a_hex_mask_past_the_decimal_digit_limit(tmp_path, capsys):
    n = 20000
    mask = (1 << (n - 1)) // 3
    digits = f"{mask:x}"
    assert len(digits) == 5000
    out = tmp_path / "p.tree"
    assert cli_main(["gen", "path", "--n", str(n), "--mask", "0x" + digits,
                     "--output", str(out)]) == 0
    assert encode_tree(read_tree(out)) == encode_tree(orient(path(n), mask))
    # Python refuses a decimal int past 4,300 digits, and the error does not
    # echo the digits
    assert cli_main(["gen", "path", "--n", str(n), "--mask", "1" + "0" * 6020]) == 2
    err = capsys.readouterr().err
    assert "6021 characters" in err and len(err) < 1000
    # a mask one bit too wide is refused by range, without its digits either
    too_wide = "0x" + "f" * 5000
    assert cli_main(["gen", "path", "--n", str(n), "--mask", too_wide]) == 2
    err = capsys.readouterr().err
    assert "out of range for 19999 edges" in err and len(err) < 1000


@pytest.mark.parametrize("raw", ["0x", "0xg", "12a", ""])
def test_gen_rejects_a_malformed_mask(raw, capsys):
    assert cli_main(["gen", "path", "--n", "5", "--mask", raw]) == 2
    assert "hexadecimal mask" in capsys.readouterr().err


def test_gen_caterpillar_rejects_mask_without_edges(capsys):
    assert cli_main(["gen", "caterpillar", "--spine", "1", "--spine-mask", "1"]) == 2
    assert "mask" in capsys.readouterr().err


@pytest.mark.parametrize("legs", ["1:x", "1:1:1", "1", "1:1,"])
def test_gen_caterpillar_rejects_malformed_legs(legs, capsys):
    assert cli_main(["gen", "caterpillar", "--spine", "4", "--legs", legs]) == 2
    assert "--legs item" in capsys.readouterr().err


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
        ["gen", "path", "--n", "4", "--k", "3"],
        ["gen", "path", "--n", "4", "--seed", "1"],
        ["gen", "star", "--m", "3", "--spine", "2"],
        ["gen", "tree", "--n", "4"],
        ["orientations", "TREE", "--seed", "1"],
        ["orientations", "TREE", "--jobs", "2"],
        ["invariance", "--max-n", "3", "--format", "text"],
        ["invariance", "--max-n", "3", "--seed", "1"],
        ["leafdel", "--max-n", "3", "--seed", "1"],
        ["conjecture", "--m-max", "2", "--k-max", "2", "--seed", "1"],
        ["star", "--m-max", "2", "--format", "text"],
        ["caterpillar", "--samples", "2", "--format", "text"],
        ["orientations", "TREE", "--all"],
    ],
)
def test_flags_a_command_does_not_read_exit_two(argv, p5_file, capsys):
    argv = [p5_file if a == "TREE" else a for a in argv]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["gen"], "family"),
        (["gen", "path"], "--n"),
        (["gen", "star", "--mask", "1"], "--m"),
        (["gen", "gs", "--m", "2"], "--k"),
        (["gen", "caterpillar", "--legs", "1:1"], "--spine"),
        (["gen", "random", "--seed", "3"], "--n"),
    ],
)
def test_gen_without_a_required_flag_is_a_usage_error(argv, missing, capsys):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "the following arguments are required" in err and missing in err


GEN_CASES = [
    ["gen", "path", "--n", "4"],
    ["gen", "path", "--n", "5", "--mask", "9"],
    ["gen", "star", "--m", "4", "--mask", "5"],
    ["gen", "gs", "--m", "2", "--k", "2", "--emit", "dot"],
    ["gen", "gs", "--m", "3", "--k", "2", "--scheme", "layered"],
    ["gen", "gs", "--m", "2", "--k", "3", "--scheme", "mask", "--mask", "21"],
    ["gen", "caterpillar", "--spine", "4", "--legs", "1:1,2:1"],
    ["gen", "caterpillar", "--spine", "5", "--legs", "1:2,3:1",
     "--spine-mask", "5", "--legs-mask", "3"],
    ["gen", "random", "--n", "7", "--seed", "3"],
    ["gen", "random", "--n", "9", "--seed", "4", "--mask", "17", "--emit", "dot"],
]


def test_gen_outputs_pinned(capsys):
    # SHA-256 of each case's exit code and stdout, recorded before ``gen``
    # had one subcommand per family
    digest = hashlib.sha256()
    for argv in GEN_CASES:
        code = cli_main(argv)
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == (
        "67077a42a0854ee0d9d211c99582e05e7ffb8e741a2949ef470921fccea903bc"
    )


def test_import_loads_no_process_pool(tmp_path):
    # every campaign runs in the calling process, whatever --jobs the CLI is
    # given, so neither importing the package nor running a campaign loads a pool
    code = (
        "import sys, domchrom, domchrom.cli, domchrom.harness; "
        "out = sys.argv[1]; "
        "code = domchrom.cli.cli_main("
        "['invariance', '--max-n', '5', '--jobs', '2', '--output', out]); "
        "assert code == 1, code; "
        "assert domchrom.harness.check_caterpillar_bounds(30, 4).holds; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    src = str(Path(domchrom.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "r.json").read_text().startswith("{")
