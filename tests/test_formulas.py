from __future__ import annotations

import random

import pytest

from domchrom.coloring import DominatorCertificate, verify_dominator
from domchrom.errors import (
    KTooSmallError,
    NotACaterpillarError,
    NotRootedError,
    SpineNotDirectedError,
)
from domchrom.formulas import (
    _longest_path,
    build_layered_gs,
    caterpillar_upper_coloring,
    central_path,
    chi_directed_path,
    chi_path_orientation_min,
    chi_rooted,
    chi_star,
    directed_spine_coloring,
    gs_layered_bound,
    gs_uniform_chi,
)
from domchrom.generators import (
    CaterpillarSpec,
    GsSpec,
    caterpillar,
    free_trees,
    gs,
    orient,
    orientations,
    path,
    random_tree,
    rooted_orientation,
    star,
)
from domchrom.solver import brute_force_chi, solve_exact
from domchrom.trees import build_tree


class TestDirectedPath:
    @pytest.mark.parametrize("n,expected", [(1, 1), (5, 5), (12, 12)])
    def test_values(self, n, expected):
        assert chi_directed_path(n) == expected


class TestPathOrientationMin:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 3), (7, 4), (8, 4), (13, 5)],
    )
    def test_values(self, n, expected):
        assert chi_path_orientation_min(n) == expected

    def test_small_table_derived_from_oracle(self):
        # recompute the n <= 3 extension and the n = 6 exception by brute force
        for n in range(1, 8):
            actual = min(brute_force_chi(t) for t in orientations(path(n)))
            assert chi_path_orientation_min(n) == actual


class TestRootedFormula:
    def test_directed_p5(self):
        t = build_tree(5, [(i, i + 1) for i in range(4)])
        assert chi_rooted(t) == 5

    def test_out_star_six_leaves(self):
        t = build_tree(7, [(0, i) for i in range(1, 7)])
        assert chi_rooted(t) == 2

    def test_gs82_both_directions(self):
        assert chi_rooted(gs(GsSpec(8, 2, "out"))) == 10
        assert chi_rooted(gs(GsSpec(8, 2, "in"))) == 10

    def test_not_rooted(self):
        with pytest.raises(NotRootedError):
            chi_rooted(build_tree(4, [(0, 1), (2, 1), (2, 3)]))

    def test_matches_solver_small(self):
        for n in range(1, 8):
            for base in free_trees(n):
                for root in range(n):
                    for sense in ("out", "in"):
                        t = rooted_orientation(base, root, sense)
                        assert chi_rooted(t) == solve_exact(t).chi

    def test_reversal_agrees_for_rooted(self):
        from domchrom.trees import reverse

        for base in free_trees(6):
            for root in range(6):
                t = rooted_orientation(base, root, "out")
                assert chi_rooted(t) == chi_rooted(reverse(t))


class TestStar:
    def test_uniform_out(self):
        res = chi_star(0, 5)
        assert res.chi == 2 and res.certificate.k == 2

    def test_uniform_in(self):
        res = chi_star(0b11111, 5)
        assert res.chi == 2 and res.certificate.k == 2

    def test_mixed_pair_is_directed_p3(self):
        res = chi_star(0b01, 2)
        assert res.chi == 3
        assert solve_exact(res.tree).chi == 3

    def test_matches_solver_all_masks(self):
        for m in range(1, 7):
            for mask in range(1 << m):
                res = chi_star(mask, m)
                assert res.chi == solve_exact(res.tree).chi
                assert res.certificate.k == res.chi


class TestGsFormulas:
    @pytest.mark.parametrize("m,k,expected", [(8, 2, 10), (3, 4, 11), (5, 1, 2)])
    def test_uniform_chi(self, m, k, expected):
        assert gs_uniform_chi(m, k) == expected

    @pytest.mark.parametrize("m,k,expected", [(8, 2, 3), (3, 4, 6), (5, 7, 13)])
    def test_layered_bound(self, m, k, expected):
        assert gs_layered_bound(m, k) == expected

    def test_layered_bound_k_too_small(self):
        with pytest.raises(KTooSmallError):
            gs_layered_bound(4, 1)

    def test_uniform_matches_solver(self):
        for m in range(1, 5):
            for k in range(1, 4):
                if m * k + 1 > 10:
                    continue
                for scheme in ("out", "in"):
                    t = gs(GsSpec(m, k, scheme))
                    assert solve_exact(t).chi == gs_uniform_chi(m, k)


class TestLayeredConstruction:
    @pytest.mark.parametrize("m,k,colors", [(4, 2, 3), (3, 4, 6), (2, 2, 3)])
    def test_even_k_verifies_with_bound_colors(self, m, k, colors):
        res = build_layered_gs(m, k)
        assert res.verifies
        assert res.colors_used == colors == gs_layered_bound(m, k)
        assert isinstance(res.certificate, DominatorCertificate)

    def test_p5_case_matches_path_minimum(self):
        res = build_layered_gs(2, 2)
        assert res.colors_used == chi_path_orientation_min(5) == 3
        assert solve_exact(res.tree).chi == 3

    def test_odd_k_outcome_reported_not_asserted(self):
        # the layered coloring fails domination for odd k once m >= 2: the
        # outer odd layer only reaches the shared second-layer class
        res = build_layered_gs(2, 3)
        assert not res.verifies
        assert res.violations
        # the single-path case still verifies
        assert build_layered_gs(1, 3).verifies

    def test_k_too_small(self):
        with pytest.raises(KTooSmallError):
            build_layered_gs(3, 1)


class TestCentralPath:
    def test_bare_path(self):
        t = build_tree(4, [(0, 1), (1, 2), (2, 3)])
        view = central_path(t)
        assert view.spine == (0, 1, 2, 3) and view.legs == ()

    def test_star_spine_through_center(self):
        t = build_tree(4, [(0, 1), (0, 2), (0, 3)])
        view = central_path(t)
        assert view.spine == (1, 0, 2)
        assert view.legs == ((0, 3),)

    def test_spine_with_internal_leg(self):
        t = build_tree(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        view = central_path(t)
        assert view.spine == (0, 1, 2, 3)
        assert view.legs == ((1, 4),)

    @staticmethod
    def reference_longest_path(t):
        # the definition: over every pair at maximum distance, the path read
        # from its smaller endpoint; keep the lexicographically smallest
        dist, parent = [], []
        for src in range(t.n):
            d, p = [-1] * t.n, [-1] * t.n
            d[src] = 0
            queue = [src]
            for u in queue:
                for w in t.neighbors[u]:
                    if d[w] < 0:
                        d[w], p[w] = d[u] + 1, u
                        queue.append(w)
            dist.append(d)
            parent.append(p)
        diameter = max(max(row) for row in dist)
        paths = []
        for a in range(t.n):
            for b in range(a, t.n):
                if dist[a][b] == diameter:
                    seq = [a]
                    while seq[-1] != b:
                        seq.append(parent[b][seq[-1]])
                    paths.append(tuple(seq))
        return min(paths)

    @staticmethod
    def relabelled(base, rng):
        perm = list(range(base.n))
        rng.shuffle(perm)
        return build_tree(base.n, [(perm[u], perm[v]) for u, v in base.edges])

    def test_longest_path_matches_definition_on_free_trees(self):
        rng = random.Random(0)
        for n in range(1, 11):
            for base in free_trees(n):
                for t in [orient(base, 0)] + [self.relabelled(base, rng) for _ in range(5)]:
                    assert _longest_path(t) == self.reference_longest_path(t), t

    def test_longest_path_matches_definition_on_random_trees(self):
        for seed in range(300):
            n = 11 + seed % 50
            t = orient(random_tree(n, seed), 0)
            assert _longest_path(t) == self.reference_longest_path(t), seed

    def test_long_caterpillar_is_linear(self):
        # an all-pairs distance table would hold 10^8 entries here
        spine = 10_000
        spec = CaterpillarSpec(spine, tuple((i, 1) for i in range(1, spine - 1)))
        view = central_path(caterpillar(spec))
        assert view.spine == tuple(range(spine))
        assert len(view.legs) == spine - 2

    def test_not_a_caterpillar(self):
        # three legs of length 2 joined at a center: one leg end is at
        # distance 2 from any longest path
        t = gs(GsSpec(3, 2, "out"))
        with pytest.raises(NotACaterpillarError):
            central_path(t)


class TestCaterpillarColorings:
    def test_upper_with_out_leg(self):
        t = build_tree(4, [(0, 1), (1, 2), (1, 3)])
        cert = caterpillar_upper_coloring(t)
        assert cert.k == 4 <= 2 * 3 - 1

    def test_upper_with_source_leg(self):
        t = build_tree(4, [(0, 1), (1, 2), (3, 1)])
        cert = caterpillar_upper_coloring(t)
        assert cert.k == 4

    def test_upper_bare_path(self):
        t = build_tree(4, [(0, 1), (1, 2), (2, 3)])
        cert = caterpillar_upper_coloring(t)
        assert cert.k == 4 <= 7

    def test_directed_spine_with_legs(self):
        t = build_tree(
            7,
            [(0, 1), (1, 2), (2, 3), (3, 4), (5, 2), (2, 6)],
        )
        cert = directed_spine_coloring(t)
        assert cert.k == 5
        assert solve_exact(t).chi == 5

    def test_directed_spine_bare_p5(self):
        t = build_tree(5, [(i, i + 1) for i in range(4)])
        assert directed_spine_coloring(t).k == 5

    def test_directed_spine_detects_backward_listing(self):
        # arcs run against the lexicographic listing; still a directed path
        t = build_tree(3, [(2, 1), (1, 0)])
        assert directed_spine_coloring(t).k == 3

    def test_spine_not_directed(self):
        t = build_tree(3, [(0, 1), (2, 1)])
        with pytest.raises(SpineNotDirectedError):
            directed_spine_coloring(t)

    def test_constructions_verify_on_random_caterpillars(self):
        from domchrom.harness import sample_caterpillar_specs
        from domchrom.generators import caterpillar

        specs, _ = sample_caterpillar_specs(40, seed=7, n_max=11)
        for spec in specs:
            t = caterpillar(spec)
            cert = caterpillar_upper_coloring(t)
            out = verify_dominator(t, cert.coloring)
            assert isinstance(out, DominatorCertificate)
            m = central_path(t).m
            assert cert.k <= 2 * m - 1
