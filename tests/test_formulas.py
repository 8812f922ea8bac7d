from __future__ import annotations

import hashlib
from itertools import product

import pytest

from domchrom.coloring import DominatorCertificate, verify_dominator
from domchrom.errors import KTooSmallError, NotRootedError, SpineNotDirectedError
from domchrom.formulas import (
    build_layered_gs,
    caterpillar_upper_coloring,
    chi_directed_path,
    chi_path_orientation_min,
    chi_rooted,
    chi_star,
    directed_spine_coloring,
    gs_layered_bound,
    gs_uniform_chi,
    star_coloring,
)
from domchrom.generators import (
    CaterpillarSpec,
    GsSpec,
    caterpillar,
    free_trees,
    gs,
    orient,
    path,
    rooted_orientation,
    star,
)
from domchrom.solver import brute_force_chi, solve_exact
from domchrom.trees import build_tree

from conftest import caterpillar_layouts, orientations


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
        assert chi_star(0, 5) == 2 and star_coloring(0, 5).k == 2

    def test_uniform_in(self):
        assert chi_star(0b11111, 5) == 2 and star_coloring(0b11111, 5).k == 2

    def test_mixed_pair_is_directed_p3(self):
        assert chi_star(0b01, 2) == 3
        assert solve_exact(orient(star(2), 0b01)).chi == 3

    def test_matches_solver_all_masks(self):
        for m in range(1, 7):
            for mask in range(1 << m):
                t = orient(star(m), mask)
                chi = chi_star(mask, m)
                assert chi == solve_exact(t).chi
                cert = star_coloring(mask, m)
                assert cert.k == chi
                assert isinstance(verify_dominator(t, cert.coloring), DominatorCertificate)

    @pytest.mark.parametrize("mask,m", [(0, 0), (4, 2), (-1, 2)])
    def test_rejects_bad_arguments(self, mask, m):
        for fn in (chi_star, star_coloring):
            with pytest.raises(ValueError):
                fn(mask, m)


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


# SHA-256 over both constructions' certificates for every caterpillar spec
# with n <= 9 (see test_caterpillar_certificates_pinned), recorded while the
# constructions still found the spine as the tree's longest path
CATERPILLAR_CERT_SHA256 = "cccac301f12c74c1108ff485aa16c21ff21ee775c93777a30cf9b6d37263f39b"


class TestCaterpillarColorings:
    def test_upper_with_out_leg(self):
        spec = CaterpillarSpec(3, ((1, 1),))
        assert caterpillar(spec) == build_tree(4, [(0, 1), (1, 2), (1, 3)])
        cert = caterpillar_upper_coloring(spec)
        assert cert.k == 4 <= 2 * 3 - 1

    def test_upper_with_source_leg(self):
        spec = CaterpillarSpec(3, ((1, 1),), legs_mask=1)
        assert caterpillar(spec) == build_tree(4, [(0, 1), (1, 2), (3, 1)])
        cert = caterpillar_upper_coloring(spec)
        assert cert.k == 4

    def test_upper_bare_path(self):
        cert = caterpillar_upper_coloring(CaterpillarSpec(4))
        assert cert.k == 4 <= 7

    def test_directed_spine_with_legs(self):
        # spine 0 -> ... -> 4, a source leg 5 -> 2 and a sink leg 2 -> 6
        spec = CaterpillarSpec(5, ((2, 2),), legs_mask=0b01)
        t = caterpillar(spec)
        assert t == build_tree(7, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 2), (2, 6)])
        cert = directed_spine_coloring(spec)
        assert cert.k == 5
        assert solve_exact(t).chi == 5

    def test_directed_spine_bare_p5(self):
        assert directed_spine_coloring(CaterpillarSpec(5)).k == 5

    def test_directed_spine_detects_backward_listing(self):
        # every spine arc points from i + 1 to i; still a directed path
        spec = CaterpillarSpec(3, spine_mask=0b11)
        assert caterpillar(spec) == build_tree(3, [(2, 1), (1, 0)])
        assert directed_spine_coloring(spec).k == 3

    def test_spine_not_directed(self):
        spec = CaterpillarSpec(3, spine_mask=0b10)
        assert caterpillar(spec) == build_tree(3, [(0, 1), (2, 1)])
        with pytest.raises(SpineNotDirectedError):
            directed_spine_coloring(spec)

    def test_constructions_verify_on_random_caterpillars(self):
        from domchrom.harness import sample_caterpillar_specs

        specs, _ = sample_caterpillar_specs(40, seed=7, n_max=11)
        for spec in specs:
            cert = caterpillar_upper_coloring(spec)
            out = verify_dominator(caterpillar(spec), cert.coloring)
            assert isinstance(out, DominatorCertificate)
            assert cert.k <= 2 * spec.spine_len - 1

    def test_caterpillar_certificates_pinned(self):
        """Both constructions' certificates on every spec with n <= 9: every
        leg layout, spine mask and legs mask, and the directed-spine coloring
        wherever the spine is directed.  Any valid coloring would pass the
        other tests; this one keeps the constructions' choice fixed."""
        h = hashlib.sha256()
        count = directed = 0
        for m, legs in caterpillar_layouts(9, 9):
            width = sum(c for _, c in legs)
            for spine_mask, legs_mask in product(range(1 << (m - 1)), range(1 << width)):
                spec = CaterpillarSpec(m, legs, spine_mask, legs_mask)
                up = caterpillar_upper_coloring(spec)
                line = f"{m}|{legs}|{spine_mask}|{legs_mask}|{up.coloring.colors}|{up.witnesses}"
                if spine_mask in (0, (1 << (m - 1)) - 1):
                    cert = directed_spine_coloring(spec)
                    line += f"|{cert.coloring.colors}|{cert.witnesses}"
                    directed += 1
                h.update((line + "\n").encode())
                count += 1
        assert (count, directed) == (21_847, 2_189)
        assert h.hexdigest() == CATERPILLAR_CERT_SHA256
