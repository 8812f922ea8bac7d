from __future__ import annotations

import hashlib

import pytest

from domchrom import harness, io
from domchrom.coloring import DominatorCertificate, verify_dominator
from domchrom.errors import SpecInvalidError, TooLargeError
from domchrom.generators import free_trees, orientations
from domchrom.harness import (
    check_caterpillar_bounds,
    check_leaf_deletion,
    check_path_minimum,
    check_reversal_invariance,
    check_rooted_formula,
    check_star_values,
    explore_conjecture_gs,
    sample_caterpillar_specs,
)
from domchrom.io import certificate_from_obj, decode_tree
from domchrom.reports import ExperimentReport
from domchrom.solver import brute_force_chi, solve_exact
from domchrom.trees import OrientedTree, delete_leaf, reverse


class TestReversalInvariance:
    def test_small_sizes_hold(self):
        rep = check_reversal_invariance(4)
        assert rep.holds
        # classes 1+1+1+2, masks halved per record
        assert len(rep.records) == 1 + 1 + 2 + 2 * 4

    def test_single_vertex(self):
        rep = check_reversal_invariance(1)
        assert rep.holds and len(rep.records) == 1

    def test_records_replay(self):
        rep = check_reversal_invariance(4)
        for rec in rep.records[:10]:
            t = decode_tree(rec["instance"])
            assert solve_exact(t).chi == rec["chi"]
            assert decode_tree(rec["instance_rev"]) == reverse(t)

    def test_smallest_violation_is_the_five_vertex_chair(self):
        # invariance breaks first at n = 5; the witness re-validates by brute
        # force: 4 colors one way, 3 after reversal
        rep = check_reversal_invariance(5)
        assert not rep.holds
        bad = [r for r in rep.records if not r["equal"]]
        assert bad and all(r["n"] == 5 for r in bad)
        rec = bad[0]
        t = decode_tree(rec["instance"])
        assert brute_force_chi(t) == rec["chi"]
        assert brute_force_chi(reverse(t)) == rec["chi_rev"]
        assert {rec["chi"], rec["chi_rev"]} == {3, 4}

    def test_guard(self):
        with pytest.raises(TooLargeError):
            check_reversal_invariance(11)


class TestLeafDeletion:
    def test_record_count_and_delta_range(self):
        rep = check_leaf_deletion(4)
        # every (tree, orientation, leaf) triple yields one record
        assert len(rep.records) == sum(
            len(decode_tree(r["instance"]).underlying_leaves)
            for r in {rec["instance"]: rec for rec in rep.records}.values()
        )
        assert all(rec["delta"] in (0, 1) for rec in rep.records)

    def test_known_examples(self):
        rep = check_leaf_deletion(2)
        by_leaf = {
            rec["leaf"]: rec for rec in rep.records if rec["instance"] == "2:0>1"
        }
        # deleting the sink of 0>1 drops 2 -> 1 and is predicted
        assert by_leaf[1]["delta"] == 1 and by_leaf[1]["unique_out_target"]
        # deleting the source leaf is also a predicted drop (unique source)
        assert by_leaf[0]["delta"] == 1 and by_leaf[0]["unique_source"]

    def test_out_star_leaf_drop_not_predicted_and_zero(self):
        rep = check_leaf_deletion(3)
        star_leaf = [
            rec
            for rec in rep.records
            if rec["instance"] == "3:0>1,0>2" and rec["leaf"] in (1, 2)
        ]
        assert star_leaf
        for rec in star_leaf:
            assert rec["delta"] == 0 and not rec["drop_predicted"]

    def test_characterization_violations_are_real(self):
        # the iff-characterization of delta=1 fails; every flagged record
        # must replay exactly (solver re-run from the encoded instance)
        rep = check_leaf_deletion(4)
        assert not rep.holds
        flagged = [rec for rec in rep.records if rec["violations"]]
        assert flagged
        for rec in flagged:
            t = decode_tree(rec["instance"])
            sub, _ = delete_leaf(t, rec["leaf"])
            assert solve_exact(t).chi - solve_exact(sub).chi == rec["delta"]
        # the hand-checked witness 0>1<2>3 (delete its sink-side leaf: the
        # value drops although neither predicate holds) appears up to
        # directed isomorphism
        from domchrom.generators import oriented_canonical_code
        from domchrom.trees import build_tree

        witness = oriented_canonical_code(build_tree(4, [(0, 1), (2, 1), (2, 3)]))
        hits = [
            rec
            for rec in flagged
            if oriented_canonical_code(decode_tree(rec["instance"])) == witness
            and rec["delta"] == 1
            and not rec["drop_predicted"]
        ]
        assert hits

    def test_guard(self):
        with pytest.raises(TooLargeError):
            check_leaf_deletion(10)


class TestLeafDeletionMemo:
    def test_jobs_and_reruns_byte_identical(self):
        seq = check_leaf_deletion(6, jobs=1).to_json()
        assert check_leaf_deletion(6, jobs=2).to_json() == seq
        assert check_leaf_deletion(6, jobs=1).to_json() == seq

    def test_records_match_fresh_solves(self):
        for rec in check_leaf_deletion(6).records:
            t = decode_tree(rec["instance"])
            sub, _ = delete_leaf(t, rec["leaf"])
            assert (rec["chi"], rec["chi_sub"]) == (
                solve_exact(t).chi,
                solve_exact(sub).chi,
            ), rec

    def test_each_labelled_tree_solved_once(self, monkeypatch):
        solved = []

        def counting_chi(t):
            solved.append((t.n, t.arcs))
            return solve_exact(t).chi

        monkeypatch.setattr(harness, "_chi", counting_chi)
        rep = check_leaf_deletion(6)
        distinct = set()
        for inst in {rec["instance"] for rec in rep.records}:
            t = decode_tree(inst)
            distinct.add((t.n, t.arcs))
            for v in t.underlying_leaves:
                sub, _ = delete_leaf(t, v)
                distinct.add((sub.n, sub.arcs))
        assert len(solved) == len(set(solved)) == len(distinct)
        assert set(solved) == distinct

    def test_each_instance_built_once(self, monkeypatch):
        # one build per orientation and one per deleted leaf; the payload
        # reaches the worker as a tree value, not as a code to decode
        builds = []
        init = OrientedTree.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(OrientedTree, "__init__", counting_init)
        rep = check_leaf_deletion(6)
        instances = sum(len(free_trees(n)) << (n - 1) for n in range(2, 7))
        assert len(builds) == instances + len(rep.records)

    def test_memo_empty_after_campaign(self):
        check_leaf_deletion(5)
        assert harness._CHI_BY_OUT_MASKS == {}

    def test_memo_empty_after_campaign_that_raises(self, monkeypatch):
        def failing_chi(t):
            if len(harness._CHI_BY_OUT_MASKS) == 10:
                raise RuntimeError("solver failed")
            return solve_exact(t).chi

        monkeypatch.setattr(harness, "_chi", failing_chi)
        with pytest.raises(RuntimeError, match="solver failed"):
            check_leaf_deletion(5)
        assert harness._CHI_BY_OUT_MASKS == {}

    def test_delete_leaf_equals_fresh_build(self):
        # the memo keys subtrees by out_masks, so a delete_leaf subtree must be
        # the same value as the tree built from its relabelled arcs
        for n in range(2, 8):
            for base in free_trees(n):
                for t in orientations(base):
                    for v in t.underlying_leaves:
                        sub, _ = delete_leaf(t, v)
                        arcs = tuple(
                            (a - (a > v), b - (b > v))
                            for a, b in t.arcs
                            if v not in (a, b)
                        )
                        fresh = OrientedTree(n - 1, arcs)
                        assert sub == fresh and hash(sub) == hash(fresh)
                        assert sub.out_masks == fresh.out_masks


class TestGsExplorer:
    def test_completes_with_witnesses(self):
        rep = explore_conjecture_gs(3, 3, 10)
        assert rep.holds  # explorer reports findings, never fails
        for rec in rep.records:
            t_min = decode_tree(rec["min_instance"])
            cert = certificate_from_obj(rec["min_certificate"])
            assert isinstance(verify_dominator(t_min, cert.coloring), DominatorCertificate)
            assert cert.coloring.k == rec["min_chi"]
            assert solve_exact(t_min).chi == rec["min_chi"]

    def test_degenerate_p5_row(self):
        rep = explore_conjecture_gs(2, 2, 10)
        rec = next(r for r in rep.records if (r["m"], r["k"]) == (2, 2))
        assert rec["min_chi"] == 3 and rec["min_agrees"]
        # the directed-path orientation pushes the max past the uniform value
        assert rec["max_chi"] == 5 and rec["conjectured_max"] == 4
        assert not rec["max_agrees"]

    def test_star_row(self):
        rep = explore_conjecture_gs(3, 1, 10)
        rec = next(r for r in rep.records if (r["m"], r["k"]) == (3, 1))
        assert (rec["min_chi"], rec["max_chi"]) == (2, 3)


class TestStarCampaign:
    def test_holds_and_exact_uniform_set(self):
        rep = check_star_values(5)
        assert rep.holds
        for m in range(1, 6):
            recs = [r for r in rep.records if r["m"] == m]
            assert len(recs) == 1 << m
            two_masks = {r["mask"] for r in recs if r["chi"] == 2}
            assert two_masks == {0, (1 << m) - 1}


class TestCaterpillarCampaign:
    def test_bounds_hold(self):
        rep = check_caterpillar_bounds(40, seed=3)
        assert rep.holds
        assert rep.summary["directed_spines"] >= 8
        for rec in rep.records:
            assert rec["chi_spine"] <= rec["chi"] <= 2 * rec["m"] - 1
            t = decode_tree(rec["instance"])
            cert = certificate_from_obj(rec["upper_certificate"])
            assert isinstance(verify_dominator(t, cert.coloring), DominatorCertificate)
            if rec["spine_directed"]:
                assert rec["chi"] == rec["m"]

    @pytest.mark.parametrize(
        "n_max, spine_min, spine_max", [(2, 3, 8), (12, 5, 4), (4, 5, 5)]
    )
    def test_sampler_rejects_ranges_no_draw_fits(self, n_max, spine_min, spine_max):
        with pytest.raises(SpecInvalidError):
            sample_caterpillar_specs(1, 0, n_max, spine_min, spine_max)

    def test_sampler_accepts_spine_min_equal_to_n_max(self):
        specs, _ = sample_caterpillar_specs(5, 0, n_max=3, spine_min=3, spine_max=3)
        assert [s.spine_len for s in specs] == [3] * 5


class TestPathMinimum:
    def test_matches_formula_small(self):
        rep = check_path_minimum(4, 8)
        assert rep.holds
        assert [r["min_chi"] for r in rep.records] == [3, 3, 3, 4, 4]


class TestRootedFormula:
    def test_holds(self):
        rep = check_rooted_formula(6)
        assert rep.holds
        assert all(rec["equal"] for rec in rep.records)


class TestDeterminismAndJobs:
    def test_byte_identical_reruns(self):
        a = check_reversal_invariance(5).to_json()
        b = check_reversal_invariance(5).to_json()
        assert a == b

    def test_jobs_equivalence(self):
        seq = check_star_values(4, jobs=1)
        par = check_star_values(4, jobs=4)
        assert seq.to_json() == par.to_json()
        assert seq.to_csv() == par.to_csv()

    def test_jobs_equivalence_invariance(self):
        seq = check_reversal_invariance(4, jobs=1)
        par = check_reversal_invariance(4, jobs=3)
        assert seq.to_json() == par.to_json()

    def test_json_round_trip(self):
        rep = check_star_values(3)
        again = ExperimentReport.from_json(rep.to_json())
        assert again.campaign == rep.campaign
        assert again.records == rep.records
        assert again.summary == rep.summary

    def test_csv_has_header_and_summary(self):
        text = check_star_values(2).to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("chi,")
        assert any(line.startswith("# summary:") for line in lines)

    def test_certificates_revalidate_after_disk_round_trip(self, tmp_path):
        rep = explore_conjecture_gs(3, 2, 10)
        path = tmp_path / "report.json"
        path.write_text(rep.to_json())
        reloaded = ExperimentReport.from_json(path.read_text())
        for rec in reloaded.records:
            for side in ("min", "max"):
                t = decode_tree(rec[f"{side}_instance"])
                cert = certificate_from_obj(rec[f"{side}_certificate"])
                out = verify_dominator(t, cert.coloring)
                assert isinstance(out, DominatorCertificate)
                assert cert.coloring.k == rec[f"{side}_chi"]


# SHA-256 of each campaign's JSON report at a small size.  Reports are the
# replayable record of every claim, so any change to their bytes must be
# deliberate and show up here.
REPORT_DIGESTS = {
    "leafdel-6": (
        lambda: check_leaf_deletion(6),
        "e4f41bec931853bba1df8a9f6b158e15b7752bd3411ae6a3003eb806c48df817",
    ),
    "invariance-7": (
        lambda: check_reversal_invariance(7),
        "63cc27ffa552571fc0f6c7dc8bc1c7cd7f848560bd4691ed6e489e58682f6f49",
    ),
    "rooted-7": (
        lambda: check_rooted_formula(7),
        "91b1eac6cb2d9ca2d528f6bef93e7b802e6bee352d38c6b7cb98ba1845e849c7",
    ),
    "star-6": (
        lambda: check_star_values(6),
        "94c62b04a6e94d6d7b29f50509c6d64f52af1924d10db6d5d55dbd8fcf194aff",
    ),
    "path-min-4-10": (
        lambda: check_path_minimum(4, 10),
        "f84bc484a731c3f96fe1298ab3087fad1fedbb93077c8d6cc508dcc2864e1ac4",
    ),
    "caterpillar-50-seed-0": (
        lambda: check_caterpillar_bounds(50, seed=0),
        "0133a9ba74e13dad5174049feabcaa78102c429a5e674d4e531b89ce17904436",
    ),
    "conjecture-4-4-cap-9": (
        lambda: explore_conjecture_gs(4, 4, 9),
        "c3ac8190cd134fd81bec1a165073a347064e48452e5a0b1cca92474a487bd2b1",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned(name):
    run, digest = REPORT_DIGESTS[name]
    assert hashlib.sha256(run().to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_campaigns_never_decode(name, monkeypatch):
    def refuse(code):
        raise AssertionError(f"campaign decoded {code!r}")

    monkeypatch.setattr(io, "decode_tree", refuse)
    monkeypatch.setattr(io, "decode_base", refuse)
    monkeypatch.setattr(harness, "decode_tree", refuse)
    run, _ = REPORT_DIGESTS[name]
    assert run().records
