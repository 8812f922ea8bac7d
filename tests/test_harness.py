from __future__ import annotations

import gc
import hashlib
import json
import weakref
from collections import Counter
from functools import partial

import pytest

from domchrom import formulas, harness, io, reports, solver
from domchrom.coloring import DominatorCertificate, recheck_certificate, verify_dominator
from domchrom.errors import SpecInvalidError, SpineNotDirectedError, TooLargeError
from domchrom.formulas import directed_spine_coloring
from domchrom.generators import (
    CaterpillarSpec,
    caterpillar,
    free_trees,
    gs_base,
    mask_bits,
    orient,
    orientation_arcs,
    oriented_canonical_code,
    path,
    star,
)
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
from domchrom.io import (
    certificate_from_obj,
    certificate_to_obj,
    decode_tree,
    encode_arcs,
    encode_tree,
)
from domchrom.reports import ExperimentReport, write_json
from domchrom.solver import brute_force_chi, solve_exact
from domchrom.trees import (
    BaseTree,
    OrientedTree,
    build_tree,
    classify_rooted,
    delete_leaf,
    reverse,
)

import orbits
from conftest import caterpillar_layouts, count_validations, orientations, reference_longest_path
from orbits import class_chis

def record_builds(monkeypatch) -> list[str]:
    """The oriented canonical code of every tree built from here on, by the
    validating constructor or by the trusted one that ``orient`` uses."""
    builds = []
    init = OrientedTree.__init__
    trusted = OrientedTree._trusted

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(oriented_canonical_code(self))

    def counting_trusted(cls, *args):
        tree = trusted(*args)
        builds.append(oriented_canonical_code(tree))
        return tree

    monkeypatch.setattr(OrientedTree, "__init__", counting_init)
    monkeypatch.setattr(OrientedTree, "_trusted", classmethod(counting_trusted))
    return builds


def reversal_gaps(base) -> list[int]:
    """|chi(T) - chi(T reversed)| for each orientation T of ``base`` whose
    mask is below its complement (the mask of T reversed), read from the
    per-mask table; with no edge, mask 0 pairs with itself."""
    table = harness.chi_table(base)
    full = len(table) - 1
    return [abs(table[m] - table[m ^ full]) for m in range((len(table) + 1) // 2)]


def oracle_tables(monkeypatch, bases) -> tuple[list[list[int]], list[str]]:
    """The per-class oracle's chi table of each base tree, and the class of
    every tree it solved, in order."""
    solved = []
    solve = orbits.solve_exact

    def counting_solve(t):
        solved.append(oriented_canonical_code(t))
        return solve(t)

    with monkeypatch.context() as patched:
        patched.setattr(orbits, "solve_exact", counting_solve)
        tables = [orbits.class_chis(base) for base in bases]
    return tables, solved


def spider(k: int) -> OrientedTree:
    """Centre 0, middles i -> 0 with tips i -> k + i for i = 1..k, and a
    source leaf 2k + 1 -> 0: chi is 3, and k + 2 after reversal."""
    middles = [(i, 0) for i in range(1, k + 1)]
    tips = [(i, k + i) for i in range(1, k + 1)]
    return build_tree(2 * k + 2, [*middles, *tips, (2 * k + 1, 0)])


LEAFDEL_9_SHA256 = "202cd30ae754fc08b7cba08c335d96f2124e7aa63d182d20e2df3cc730600e60"


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

    @staticmethod
    def named_classes(rep) -> list[str]:
        """The classes of the orientations the report names with a chi: its
        first counterexample both ways, then its ``max_chi_instance``."""
        first = next(r for r in rep.records if not r["equal"])
        codes = first["instance"], first["instance_rev"], rep.summary["max_chi_instance"]
        return [oriented_canonical_code(decode_tree(code)) for code in codes]

    def test_each_class_solved_once(self, monkeypatch):
        # chi comes from the state tables, so of the 968 orientations named at
        # n <= 7 only the certified ones are solved, each class once
        solved = []

        def counting_solve(t, *args):
            solved.append(oriented_canonical_code(t))
            return solve_exact(t, *args)

        monkeypatch.setattr(harness, "solve_exact", counting_solve)
        rep = check_reversal_invariance(7)
        assert 2 * len(rep.records) == 968
        assert len(solved) == len(set(solved)) == 3
        assert solved == self.named_classes(rep)

    def test_each_class_built_once(self, monkeypatch):
        # records read their instance codes off the base edges and the mask,
        # so the only trees built are the three certified orientations
        builds = record_builds(monkeypatch)
        rep = check_reversal_invariance(7)
        built = builds[:]
        assert len(built) == len(set(built)) == 3
        assert built == self.named_classes(rep)

    def test_rooted_formulas_name_the_rooted_masks(self):
        # the masks with a formula are exactly the out- and in-trees, each
        # with the value that chi_rooted reads off the built tree
        for n in range(1, 10):
            for base in free_trees(n):
                expected = {}
                for mask in range(1 << len(base.edges)):
                    t = orient(base, mask)
                    rc = classify_rooted(t)
                    if rc.out_root is not None or rc.in_root is not None:
                        expected[mask] = formulas.chi_rooted(t)
                assert harness._rooted_formulas(base) == expected

    def test_reversal_gaps_pinned(self):
        # the gap grows with n: at most 2 up to n = 9, 3 at n = 10
        largest = []
        for n in range(1, 11):
            gaps = Counter(gap for base in free_trees(n) for gap in reversal_gaps(base))
            largest.append(max(gaps))
            if n == 9:
                assert gaps == {0: 4014, 1: 1966, 2: 36}
            if n == 10:
                assert gaps == {0: 17429, 1: 9417, 2: 289, 3: 1}
        assert largest == [0, 0, 0, 0, 1, 1, 1, 2, 2, 3]

    def test_spider_is_the_gap_three_pair_at_n10(self):
        witness = decode_tree("10:1>0,1>6,2>0,2>7,3>0,3>8,4>0,4>9,5>0")
        assert oriented_canonical_code(witness) == oriented_canonical_code(spider(4))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_spider_gap_by_oracle(self, k):
        t = spider(k)
        assert (brute_force_chi(t), brute_force_chi(reverse(t))) == (3, k + 2)

    @pytest.mark.parametrize("k", [10, 100, 500])
    def test_spider_gap_by_solver(self, k):
        t = spider(k)
        for tree, chi in ((t, 3), (reverse(t), k + 2)):
            result = solve_exact(tree)
            assert result.chi == chi
            assert recheck_certificate(tree, result.certificate)

    def test_instance_codes_match_built_trees(self):
        rep = check_reversal_invariance(6)
        for rec in rep.records:
            base = io.decode_base(rec["base"])
            assert rec["instance"] == encode_tree(orient(base, rec["mask"]))
            assert rec["instance_rev"] == encode_tree(orient(base, rec["mask_rev"]))


def test_arc_table_gives_every_mask_its_sorted_arcs_and_code():
    # the table stands in for orientation_arcs and encode_arcs in every loop
    # over the masks of one base tree
    bases = [base for n in range(1, 10) for base in free_trees(n)]
    bases += [star(m) for m in range(1, 11)]
    for base in bases:
        table = harness._arc_table(base)
        width = len(base.edges)
        assert len(table) == 2 * width
        for mask in range(1 << width):
            bits = mask_bits(mask, width)
            chosen = [(tail, text) for i, bit, tail, text in table if bits[i] == bit]
            arcs = orientation_arcs(base.edges, mask)
            assert [tail for tail, _ in chosen] == [u for u, _ in arcs]
            code = io._code(base.n, [text for _, text in chosen])
            assert code == encode_arcs(base.n, arcs), (base, mask)


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

    def test_predicates_match_built_trees(self):
        # records read degrees off the masks; replay them on the built trees
        for rec in check_leaf_deletion(6).records:
            t = decode_tree(rec["instance"])
            v, u = rec["leaf"], rec["neighbor"]
            assert t.out_neighbors[v] + t.in_neighbors[v] == (u,)
            assert rec["unique_out_target"] == (t.out_neighbors[u] == (v,))
            assert rec["unique_source"] == (t.sources == (v,))
            applicable = rec["delta"] == 1 and not t.in_neighbors[v]
            assert rec["source_rule_applicable"] == applicable
            ok = len(t.in_neighbors[u]) == 1 if applicable else None
            assert rec["source_rule_ok"] == ok

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

    @staticmethod
    def first_counterexample_classes(rep) -> list[str]:
        """The classes of the first counterexample and of its subtree."""
        first = rep.summary["counterexamples"][0]
        t = decode_tree(first["instance"])
        return [oriented_canonical_code(t), oriented_canonical_code(delete_leaf(t, first["leaf"])[0])]

    def test_each_class_solved_once(self, monkeypatch):
        # chi comes from the state tables: the only solves certify the first
        # counterexample and the subtree its leaf leaves, two classes
        solved = []

        def counting_solve(t, *args):
            solved.append(oriented_canonical_code(t))
            return solve_exact(t, *args)

        monkeypatch.setattr(harness, "solve_exact", counting_solve)
        rep = check_leaf_deletion(6)
        assert len(solved) == len(set(solved)) == 2
        assert solved == self.first_counterexample_classes(rep)

    def test_each_class_built_once(self, monkeypatch):
        # records and subtrees are read off masks; only the two certified
        # trees are built
        builds = record_builds(monkeypatch)
        rep = check_leaf_deletion(6)
        built = builds[:]
        assert len(built) == len(set(built)) == 2
        assert built == self.first_counterexample_classes(rep)

    def test_each_base_tree_validated_once(self, monkeypatch):
        # the only validations are the one-vertex seeds of free_trees(1..8);
        # base - v, for each of the 183 (base, leaf) pairs, is derived from an
        # already validated tree
        counts = count_validations(monkeypatch)
        check_leaf_deletion(8)
        assert counts == {"BaseTree": 8}

    @staticmethod
    def _module_state():
        return {
            name: len(value) if isinstance(value, (dict, list, set)) else id(value)
            for name, value in vars(harness).items()
        }

    def test_memo_empty_after_campaign(self):
        # no table outlives the call: the module's names and the size of
        # every container it holds are the same after a campaign
        before = self._module_state()
        check_leaf_deletion(5)
        check_reversal_invariance(5)
        assert self._module_state() == before

    def test_memo_empty_after_campaign_that_raises(self, monkeypatch):
        tables = []

        def failing_table(base):
            tables.append(base)
            if len(tables) == 5:
                raise RuntimeError("solver failed")
            return solver.chi_table(base)

        monkeypatch.setattr(harness, "chi_table", failing_table)
        before = self._module_state()
        with pytest.raises(RuntimeError, match="solver failed"):
            check_leaf_deletion(5)
        assert len(tables) == 5
        assert self._module_state() == before

    def test_delete_leaf_equals_fresh_build(self):
        # a delete_leaf subtree is the same value as the tree built from its
        # relabelled arcs (x -> x - (x > v) keeps the arcs sorted)
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
                        assert encode_tree(sub) == encode_tree(fresh)

    def test_leaf_maps_name_each_labelled_subtree(self, monkeypatch):
        # _leaf_maps spreads each table over the base tree's masks untouched,
        # so a table of the labelled code of every orientation of base - v
        # stands in for its chi table: entry mask must be the code of the very
        # subtree that delete_leaf leaves, for every leaf of every orientation
        # with n <= 9; every table is given, so none may be made
        def no_table(sub):
            raise AssertionError(f"no table given for {sub}")

        monkeypatch.setattr(harness, "chi_table", no_table)
        for n in range(2, 10):
            for base in free_trees(n):
                leaves = [v for v, nbrs in enumerate(base.adjacency) if len(nbrs) == 1]
                tables = {}
                for v in leaves:
                    kept = [(a - (a > v), b - (b > v)) for a, b in base.edges if v not in (a, b)]
                    sub = BaseTree(n - 1, kept)
                    tables[sub] = [encode_tree(t) for t in orientations(sub)]
                leaf_maps = harness._leaf_maps(base, tables)
                assert [v for v, _, _ in leaf_maps] == leaves
                for mask, t in enumerate(orientations(base)):
                    for v, u, chis in leaf_maps:
                        assert t.out_neighbors[v] + t.in_neighbors[v] == (u,)
                        assert chis[mask] == encode_tree(delete_leaf(t, v)[0]), (base, mask, v)

    @pytest.mark.parametrize("max_n, made", [(8, 84), (9, 174)])
    def test_each_table_made_once_and_dropped_by_size(self, max_n, made, monkeypatch):
        # one table per free tree with n <= max_n and per labelled base - v
        # that is none of them, none made twice; and once a size-n record
        # is out, no table of size below n - 1 is alive
        class Table(list):
            """A chi table that a weak reference can watch."""

        tables = []

        def watched_table(base):
            table = Table(solver.chi_table(base))
            tables.append((base, weakref.ref(table)))
            return table

        monkeypatch.setattr(harness, "chi_table", watched_table)
        stream = harness.stream_leaf_deletion(max_n)
        next(stream)
        n = 1
        for rec in stream:
            if rec["n"] != n:
                n = rec["n"]
                gc.collect()
                alive = [base for base, ref in tables if ref() is not None]
                assert alive and min(base.n for base in alive) == n - 1, n
        assert n == max_n
        assert len(tables) == len({base for base, _ in tables}) == made

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_n9_report_pinned(self, jobs):
        # recorded with the per-class memo that the class tables replaced
        text = check_leaf_deletion(9, jobs=jobs).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == LEAFDEL_9_SHA256


class TestGsExplorer:
    @pytest.mark.parametrize("m_max, k_max, n_cap", [(0, 0, 10), (3, 0, 10), (3, 3, 1)])
    def test_rejects_parameters_that_select_no_cell(self, m_max, k_max, n_cap):
        with pytest.raises(SpecInvalidError):
            explore_conjecture_gs(m_max, k_max, n_cap)

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

    def test_each_class_solved_once(self, monkeypatch):
        # chi comes from the state tables; each cell solves its two extreme
        # masks, or one where they coincide, and prints those solves'
        # certificates; the extremes equal those of the per-class oracle
        solved = []

        def counting_solve(t):
            solved.append(oriented_canonical_code(t))
            return solve_exact(t)

        monkeypatch.setattr(harness, "solve_exact", counting_solve)
        rep = explore_conjecture_gs(3, 3, 10)
        monkeypatch.undo()
        expected = []
        for rec in rep.records:
            base = gs_base(rec["m"], rec["k"])
            chis = class_chis(base)
            assert (rec["min_mask"], rec["max_mask"]) == harness.extreme_masks(chis)
            assert (rec["min_chi"], rec["max_chi"]) == (min(chis), max(chis))
            for side in ("min", "max")[: 1 + (rec["min_mask"] != rec["max_mask"])]:
                t = orient(base, rec[f"{side}_mask"])
                expected.append(oriented_canonical_code(t))
                assert rec[f"{side}_certificate"] == certificate_to_obj(solve_exact(t).certificate)
        assert solved == expected and len(solved) == 17  # of 682 orientations


class TestStarCampaign:
    def test_holds_and_exact_uniform_set(self):
        rep = check_star_values(5)
        assert rep.holds
        for m in range(1, 6):
            recs = [r for r in rep.records if r["m"] == m]
            assert len(recs) == 1 << m
            two_masks = {r["mask"] for r in recs if r["chi"] == 2}
            assert two_masks == {0, (1 << m) - 1}

    def test_each_class_solved_once(self, monkeypatch):
        # a star orientation's class is its number of arcs out of the center:
        # m + 1 classes for m >= 2 leaves, and one (a single arc) for m = 1;
        # the per-class oracle solves each once and agrees with every record,
        # and the sweep, which meets no counterexample, solves none
        bases = [star(m) for m in range(1, 7)]
        tables, solved = oracle_tables(monkeypatch, bases)
        assert len(solved) == len(set(solved))
        sizes = Counter(code.count("(") - 1 for code in solved)
        assert sizes == {m: 1 if m == 1 else m + 1 for m in range(1, 7)}
        count = len(solved)
        monkeypatch.setattr(harness, "solve_exact", solved.append)
        rep = check_star_values(6)
        assert len(solved) == count
        assert [r["chi"] for r in rep.records] == [chi for table in tables for chi in table]


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
        "n_max, spine_min, spine_max", [(2, 3, 8), (12, 5, 4), (4, 5, 5), (12, 0, 8)]
    )
    def test_sampler_rejects_ranges_no_draw_fits(self, n_max, spine_min, spine_max):
        with pytest.raises(SpecInvalidError):
            sample_caterpillar_specs(1, 0, n_max, spine_min, spine_max)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_an_empty_sample(self, samples):
        with pytest.raises(SpecInvalidError, match="samples"):
            check_caterpillar_bounds(samples, seed=0)

    def test_declared_spine_is_the_central_path(self):
        # the record and both constructions read the spine off the spec:
        # legs sit only on 1..m-2, so 0..m-1 is the tree's smallest longest path
        checked = 0
        for m, legs in caterpillar_layouts(8, 12):
            t = caterpillar(CaterpillarSpec(m, legs))
            assert reference_longest_path(t) == tuple(range(m)), legs
            checked += 1
        assert checked == 1 + 1 + 10 + 45 + 120 + 210 + 252 + 210

    def test_spine_directed_exactly_for_uniform_masks(self):
        for m in range(1, 9):
            legs = tuple((i, 1) for i in range(1, m - 1))
            for mask in range(1 << (m - 1)):
                spec = CaterpillarSpec(m, legs, spine_mask=mask)
                t = caterpillar(spec)
                spine = reference_longest_path(t)
                steps = set(zip(spine, spine[1:]))
                directed = steps <= set(t.arcs) or {(v, u) for u, v in steps} <= set(t.arcs)
                assert directed == (mask in (0, (1 << (m - 1)) - 1))
                if directed:
                    assert directed_spine_coloring(spec).k == m
                else:
                    with pytest.raises(SpineNotDirectedError):
                        directed_spine_coloring(spec)

    def test_one_validation_per_caterpillar(self, monkeypatch):
        # caterpillar(spec) trusts its validated spec, so the only validating
        # builds are the 200 spine paths path(m); each record builds its
        # caterpillar once and verifies both constructions on it, the
        # directed one for the 72 directed spines
        counts = count_validations(monkeypatch)
        builds = Counter()
        for module in (harness, formulas):
            def counting(spec, build=module.caterpillar, name=module.__name__):
                builds[name] += 1
                return build(spec)

            monkeypatch.setattr(module, "caterpillar", counting)
        rep = check_caterpillar_bounds(200, seed=1)
        assert rep.summary["directed_spines"] == 72
        assert sum(rec["directed_certificate"] is not None for rec in rep.records) == 72
        assert counts == {"BaseTree": 200}
        assert builds == {"domchrom.harness": 200}

    def test_sampler_accepts_spine_min_equal_to_n_max(self):
        specs, _ = sample_caterpillar_specs(5, 0, n_max=3, spine_min=3, spine_max=3)
        assert [s.spine_len for s in specs] == [3] * 5


class TestPathMinimum:
    def test_matches_formula_small(self):
        rep = check_path_minimum(4, 8)
        assert rep.holds
        assert [r["min_chi"] for r in rep.records] == [3, 3, 3, 4, 4]

    def test_each_class_solved_once(self, monkeypatch):
        # reversing the vertex order maps a path orientation onto another one;
        # the orientations it fixes are the 2^((n-1)/2) masks of odd n whose
        # bit i is the complement of bit n-2-i, so (2^(n-1) + those) / 2
        # classes, which the per-class oracle solves once each; every row
        # agrees with the oracle, and the sweep, which holds, solves none
        bases = [path(n) for n in range(1, 11)]
        tables, solved = oracle_tables(monkeypatch, bases)
        assert len(solved) == len(set(solved))
        sizes = Counter(code.count("(") for code in solved)
        fixed = {n: (1 << (n - 1) // 2) if n % 2 else 0 for n in range(1, 11)}
        assert sizes == {n: ((1 << (n - 1)) + fixed[n]) // 2 for n in range(1, 11)}
        count = len(solved)
        monkeypatch.setattr(harness, "solve_exact", solved.append)
        rep = check_path_minimum(1, 10)
        assert len(solved) == count
        for rec, chis in zip(rep.records, tables):
            assert (rec["min_chi"], rec["max_chi"]) == (min(chis), max(chis))
            assert (rec["min_mask"], rec["max_mask"]) == harness.extreme_masks(chis)


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

    def test_library_campaigns_reject_bad_jobs(self):
        for jobs in (0, -3, 1.5, "2"):
            with pytest.raises(ValueError, match="jobs"):
                check_star_values(2, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            check_leaf_deletion(3, jobs=0)

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


# every campaign stream at small parameters, with the check that collects it
STREAMS = [
    pytest.param(harness.stream_reversal_invariance, check_reversal_invariance, (5,),
                 id="invariance"),
    pytest.param(harness.stream_leaf_deletion, check_leaf_deletion, (5,), id="leafdel"),
    pytest.param(harness.stream_conjecture_gs, explore_conjecture_gs, (3, 3, 9), id="gs"),
    pytest.param(harness.stream_star_values, check_star_values, (4,), id="star"),
    pytest.param(harness.stream_caterpillar_bounds, check_caterpillar_bounds, (30, 4),
                 id="caterpillar"),
    pytest.param(harness.stream_path_minimum, check_path_minimum, (4, 9), id="path"),
    pytest.param(harness.stream_rooted_formula, check_rooted_formula, (5,), id="rooted"),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("stream, check, args", STREAMS)
def test_written_stream_equals_the_collected_report(stream, check, args, jobs):
    report = check(*args)
    pieces = []
    summary = write_json(stream(*args, jobs=jobs), pieces.append)
    assert "".join(pieces) == report.to_json()
    assert summary == report.summary


def test_a_stream_reads_its_params_before_its_first_record():
    stream = harness.stream_star_values(11)
    with pytest.raises(TooLargeError):
        next(stream)
    stream = harness.stream_star_values(3)
    assert next(stream) == ("star_values", {"m_max": 3})
    assert next(stream)["m"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "check, args",
    [
        pytest.param(check_reversal_invariance, (4,), id="invariance"),
        pytest.param(check_leaf_deletion, (4,), id="leafdel"),
        pytest.param(explore_conjecture_gs, (3, 3, 7), id="gs"),
        pytest.param(check_star_values, (4,), id="star"),
        pytest.param(check_path_minimum, (4, 7), id="path"),
    ],
)
def test_an_orientation_sweep_maps_only_class_tables(check, args, jobs, monkeypatch):
    # the chi table of each base tree (the state tables of solver.chi_table,
    # which replaced the per-class tables) is made in one pass per campaign,
    # and every record is built from them
    calls = []
    original = harness._map_ordered

    def spy(fn, payloads, jobs):
        calls.append((fn, payloads))
        return original(fn, payloads, jobs)

    monkeypatch.setattr(harness, "_map_ordered", spy)
    assert check(*args, jobs=jobs).records
    assert len(calls) == 1
    (fn, payloads), = calls
    assert fn is solver.chi_table
    assert payloads and all(isinstance(base, BaseTree) for base in payloads)


@pytest.mark.parametrize(
    "check, args",
    [
        pytest.param(check_reversal_invariance, (5,), id="invariance"),
        pytest.param(check_leaf_deletion, (5,), id="leafdel"),
        pytest.param(explore_conjecture_gs, (3, 3, 7), id="gs"),
        pytest.param(check_star_values, (3,), id="star"),
        pytest.param(check_path_minimum, (4, 6), id="path"),
    ],
)
def test_a_sweep_refuses_a_table_that_a_solve_contradicts(check, args, monkeypatch):
    # a table one too high everywhere: each sweep then names a counterexample
    # (or, in the explorer, an extreme) whose solve disagrees with it
    monkeypatch.setattr(harness, "chi_table", partial(wrong_table, solver.chi_table))
    with pytest.raises(RuntimeError, match="chi table gives"):
        check(*args)


def wrong_table(table, base) -> list[int]:
    return [chi + 1 for chi in table(base)]


# SHA-256 of each campaign's JSON report, most at a small size.  Reports are
# the replayable record of every claim, so any change to their bytes must be
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
    # spines of 1 and 2 vertices (203 and 248 records), which the 50-sample
    # pin never draws, and 180 all-ones directed spines with m >= 2
    "caterpillar-2000-seed-7-wide": (
        lambda: check_caterpillar_bounds(2000, seed=7, n_max=14, spine_min=1, spine_max=10),
        "28ee6db1c8cdfd6096a9664da5a6a960f89c516402439910676afc21d847b1d3",
    ),
    "conjecture-4-4-cap-9": (
        lambda: explore_conjecture_gs(4, 4, 9),
        "c3ac8190cd134fd81bec1a165073a347064e48452e5a0b1cca92474a487bd2b1",
    ),
    # the sweeps over every orientation of a base tree at full size, recorded
    # while these campaigns still solved every mask
    "star-10": (
        lambda: check_star_values(10),
        "9f6212880908e36f751ef86f02afc79c54acb2e3aa0f56560d2c129f79cf3d28",
    ),
    "path-min-4-13": (
        lambda: check_path_minimum(4, 13),
        "09177e1d82db09a76f9d7dca159d12c49e30af4b303ba30bf358353502909f90",
    ),
    "conjecture-9-9-cap-10": (
        lambda: explore_conjecture_gs(9, 9, 10),
        "4d26e48cd89548066a746ae6791384e86feadcef5d0227e923e79c1a422be097",
    ),
}


def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned(name):
    run, digest = REPORT_DIGESTS[name]
    report = run()
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
    # every record line comes from the one encoder that reports builds once
    for rec in report.records:
        assert reports._encode_record(rec) == _dumps(rec)


CRAFTED_RECORDS = [
    {"big": 1e16, "neg_zero": -0.0, "tiny": 5e-324, "third": 1 / 3, "nan": float("nan"),
     "inf": float("-inf"), "int": -(10**30)},
    {"b": {"d": [1, {"z": None, "a": True}], "c": False}, "a": (), "t": (1, (2, "x"))},
    {"text": "é ☃ \u2028 \x00 \" \\ 𝄞 /", "ключ": "значение"},
    {"none": None, "yes": True, "no": False, "empty": {}, "list": []},
    {3: "three", 1: "one", 2: [None]},
]


@pytest.mark.parametrize("record", CRAFTED_RECORDS)
def test_record_encoder_equals_json_dumps(record):
    assert reports._encode_record(record) == _dumps(record)


def test_record_encoder_detects_a_cycle_and_recovers_after_any_failure():
    loop = {"a": 1}
    loop["self"] = loop
    with pytest.raises(ValueError, match="Circular reference"):
        reports._encode_record(loop)
    assert reports._encode_record({"a": 1}) == '{"a":1}'
    # a failure deep inside a record leaves the markers of the objects around
    # it; encoding the same objects again must not find a cycle
    inner = {"bad": object()}
    record = {"inner": inner, "again": [inner]}
    with pytest.raises(TypeError):
        reports._encode_record(record)
    inner["bad"] = 1
    assert reports._encode_record(record) == _dumps(record)


def test_record_encoder_falls_back_to_the_python_encoder(monkeypatch):
    records = CRAFTED_RECORDS + check_star_values(4).records
    expected = [_dumps(rec) for rec in records]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    encode = reports._record_encoder()
    assert encode == reports._RECORD_ENCODER.encode
    assert [encode(rec) for rec in records] == expected

    def other_arguments(*args):
        raise TypeError("an accelerator that takes other arguments")

    monkeypatch.setattr(json.encoder, "c_make_encoder", other_arguments)
    assert reports._record_encoder() == reports._RECORD_ENCODER.encode


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_campaigns_never_decode(name, monkeypatch):
    def refuse(code):
        raise AssertionError(f"campaign decoded {code!r}")

    monkeypatch.setattr(io, "decode_tree", refuse)
    monkeypatch.setattr(io, "decode_base", refuse)
    monkeypatch.setattr(harness, "decode_tree", refuse)
    run, _ = REPORT_DIGESTS[name]
    assert run().records
