from __future__ import annotations

import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from domchrom import _kernel_py
from domchrom.coloring import DominatorCertificate, recheck_certificate, verify_dominator
from domchrom.errors import TooLargeError
from domchrom.generators import (
    free_trees,
    gs_base,
    orient,
    oriented_canonical_code,
    path,
    random_tree,
    rooted_orientation,
    star,
)
from domchrom.io import encode_tree
from domchrom.solver import (
    _DOWN,
    _ROOT,
    _UP,
    SolveOptions,
    _empty,
    _finish,
    _fold,
    brute_force_chi,
    chi_table,
    hitting_set,
    hitting_set_coloring,
    solve_exact,
)
from domchrom.trees import _walk, build_tree, delete_leaf

from conftest import orientations, oriented_trees
from orbits import class_chis

SOLVE_DIGEST = "ef31f7f68409381cf6d506e7ceb07dfeea8a5572a969d52cf669e0e019a4acce"


def directed_path(n):
    return build_tree(n, [(i, i + 1) for i in range(n - 1)])


class TestSolveExact:
    def test_directed_p5_needs_five(self):
        assert solve_exact(directed_path(5)).chi == 5

    def test_single_vertex(self):
        assert solve_exact(build_tree(1, [])).chi == 1

    def test_out_star_four_leaves(self):
        t = build_tree(5, [(0, i) for i in range(1, 5)])
        assert solve_exact(t).chi == 2

    def test_p6_orientation_minimum_is_three(self):
        chis = [solve_exact(t).chi for t in orientations(path(6))]
        assert min(chis) == 3

    def test_certificate_always_verifies(self, small_corpus):
        for t in small_corpus:
            res = solve_exact(t)
            assert isinstance(res.certificate, DominatorCertificate)
            out = verify_dominator(t, res.certificate.coloring)
            assert isinstance(out, DominatorCertificate)
            assert res.certificate.coloring.k == res.chi

    def test_determinism(self):
        t = orient(path(8), 0b0110101)
        a = solve_exact(t)
        b = solve_exact(t)
        assert a == b
        assert solve_exact(t, SolveOptions(node_budget=1)) == a  # nothing to budget


class TestBruteForce:
    def test_directed_p4(self):
        assert brute_force_chi(directed_path(4)) == 4

    def test_min_over_p4_orientations(self):
        assert min(brute_force_chi(t) for t in orientations(path(4))) == 3

    def test_min_over_p3_orientations(self):
        assert min(brute_force_chi(t) for t in orientations(path(3))) == 2

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            brute_force_chi(directed_path(11))

    def test_oracle_equivalence_small(self, small_corpus):
        for t in small_corpus:
            assert solve_exact(t).chi == brute_force_chi(t)


def all_orientations(max_n):
    for n in range(1, max_n + 1):
        for base in free_trees(n):
            yield from orientations(base)


def mirrored(t):
    return build_tree(t.n, [(t.n - 1 - u, t.n - 1 - v) for u, v in t.arcs])


def hits_every_out_neighborhood(t, w):
    return all(set(out) & set(w) for out in t.out_neighbors if out)


class TestBounds:
    def test_lower_bound_single_vertex(self):
        t = build_tree(1, [])
        assert hitting_set(t) == ()
        assert solve_exact(t).chi == 1

    def test_lower_bound_directed_path(self):
        t = directed_path(7)
        assert hitting_set(t) == (1, 2, 3, 4, 5, 6)
        assert solve_exact(t).chi == 7

    def test_lower_bound_out_star(self):
        t = build_tree(4, [(0, 1), (0, 2), (0, 3)])
        assert hitting_set(t) == (1,)
        assert solve_exact(t).chi == 2

    def test_greedy_out_star_at_most_three(self):
        t = build_tree(6, [(0, i) for i in range(1, 6)])
        coloring = hitting_set_coloring(t, hitting_set(t))
        assert isinstance(verify_dominator(t, coloring), DominatorCertificate)
        assert coloring.k <= 3

    def test_greedy_directed_p3_exact(self):
        t = directed_path(3)
        assert hitting_set_coloring(t, hitting_set(t)).k == 3

    @given(oriented_trees(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_sandwich(self, t):
        w = hitting_set(t)
        tau = len(w)
        upper = hitting_set_coloring(t, w)
        assert isinstance(verify_dominator(t, upper), DominatorCertificate)
        assert tau + 1 <= solve_exact(t).chi <= upper.k <= min(tau + 2, t.n)

    def test_hitting_set_is_minimum(self):
        # free_trees numbers parents before children; the mirrored labels put
        # the root and every parent after their children.
        for t0 in all_orientations(8):
            for t in (t0, mirrored(t0)):
                w = hitting_set(t)
                assert w == tuple(sorted(set(w)))
                assert hits_every_out_neighborhood(t, w)
                smaller = itertools.combinations(range(t.n), len(w) - 1) if w else ()
                assert not any(hits_every_out_neighborhood(t, s) for s in smaller), t

    def test_bracket_against_oracle(self):
        for t in all_orientations(7):
            tau = len(hitting_set(t))
            assert tau + 1 <= brute_force_chi(t) <= tau + 2, t

    def test_tau_plus_two_certificate_rechecks(self):
        seen = 0
        for t in all_orientations(8):
            w = hitting_set(t)
            res = solve_exact(t)
            if res.chi == len(w) + 2:
                seen += 1
                assert res.certificate.coloring == hitting_set_coloring(t, w)
                assert recheck_certificate(t, res.certificate), t
        assert seen > 0

    @given(oriented_trees(min_n=2, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_leaf_deletion_monotone(self, t):
        chi = solve_exact(t).chi
        for v in t.underlying_leaves:
            sub, _ = delete_leaf(t, v)
            assert chi - solve_exact(sub).chi in (0, 1)


def kernel_finds(t, k):
    """Whether the backtracking kernel finds a dominator coloring with k colors."""
    out = [0] * t.n
    adj = [0] * t.n
    for u, v in t.arcs:
        out[u] |= 1 << v
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    order = tuple(range(t.n))
    nonsink = tuple(v for v in range(t.n) if out[v])
    status = _kernel_py.search_round(t.n, k, order, tuple(adj), tuple(out), nonsink, -1)[0]
    return status == _kernel_py.STATUS_FOUND


class TestFamilyProgram:
    """The tree program decides chi = tau + 1 exactly where a complete search
    at k = tau + 1 finds a coloring."""

    def check(self, t):
        res = solve_exact(t)
        assert res.tau == len(hitting_set(t))
        assert (res.chi == res.tau + 1) == kernel_finds(t, res.tau + 1), t
        assert res.certificate.k == res.chi

    def test_agrees_with_search_on_all_small_orientations(self):
        for t in all_orientations(8):
            self.check(t)
            self.check(mirrored(t))

    def test_agrees_with_search_on_seeded_trees(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(10, 14)
            self.check(orient(random_tree(n, rng.getrandbits(32)), rng.getrandbits(n - 1)))

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_long_directed_paths(self, n):
        assert solve_exact(directed_path(n)).chi == n

    def test_large_tree_certificate_rechecks(self):
        rng = random.Random(7)
        base = random_tree(500, rng.getrandbits(32))
        mixed = orient(base, rng.getrandbits(499))
        res = solve_exact(mixed)
        assert res.tau + 1 <= res.chi <= res.tau + 2
        assert recheck_certificate(mixed, res.certificate)
        # An out-tree needs n - sinks + 1 colors, the lower bound tau + 1.
        out_tree = rooted_orientation(base, 0, "out")
        res = solve_exact(out_tree)
        assert res.chi == res.tau + 1 == 500 - len(out_tree.sinks) + 1
        assert recheck_certificate(out_tree, res.certificate)


class TestLinearPath:
    """Build, solve and re-check stay linear: no view with one n-bit integer
    per vertex is built, so 50,000 vertices take about a second."""

    N = 50_000

    def test_directed_path(self):
        t = directed_path(self.N)
        res = solve_exact(t)
        assert res.chi == self.N and res.tau == self.N - 1
        assert recheck_certificate(t, res.certificate)

    def test_seeded_random_tree(self):
        rng = random.Random(50)
        t = orient(random_tree(self.N, rng.getrandbits(32)), rng.getrandbits(self.N - 1))
        res = solve_exact(t)
        assert res.tau + 1 <= res.chi <= res.tau + 2
        assert res.certificate.k == res.chi
        assert recheck_certificate(t, res.certificate)

    def test_solve_and_recheck_build_no_mask_view(self):
        t = orient(random_tree(40, 3), (1 << 39) // 3)
        oriented_canonical_code(t)
        assert recheck_certificate(t, solve_exact(t).certificate)
        assert "out_masks" not in t.__dict__
        assert "adj_masks" not in t.__dict__
        assert "neighbors" not in t.__dict__  # all walk the in- and out-neighbors


def test_rooted_examples_match_formula():
    # out-trees and in-trees solve to n - directed leaves + 1
    for n in range(1, 8):
        for base in free_trees(n):
            for root in range(n):
                from domchrom.generators import rooted_orientation

                t = rooted_orientation(base, root, "out")
                assert solve_exact(t).chi == t.n - len(t.sinks) + 1


def _solve_line(t) -> str:
    res = solve_exact(t)
    cert = res.certificate
    return f"{encode_tree(t)}|{res.chi}|{res.tau}|{cert.coloring.colors}|{cert.witnesses}\n"


def test_solve_exact_output_pinned():
    """chi, tau, the coloring and the witnesses that ``solve_exact`` returns
    for every orientation of every free tree with n <= 8, for 300 seeded
    random trees with n = 10..14 and for three with n = 500.  Any valid
    coloring would pass the other tests; this one keeps the solver's choice
    among them fixed."""
    h = hashlib.sha256()
    count = 0
    for t in all_orientations(8):
        h.update(_solve_line(t).encode())
        count += 1
    rng = random.Random(1729)
    for n in [rng.randint(10, 14) for _ in range(300)] + [500] * 3:
        t = orient(random_tree(n, rng.getrandbits(32)), rng.getrandbits(n - 1))
        h.update(_solve_line(t).encode())
        count += 1
    assert count == 3911 + 303
    assert h.hexdigest() == SOLVE_DIGEST


def steps_chi_tau(t, root: int) -> tuple[int, int]:
    """chi and tau of one orientation from the steps of ``chi_table`` alone,
    rooted at ``root``: each vertex's children folded in walk order, then its
    state handed across the arc to its parent."""
    inf = t.n + 1
    order, parent, down = _walk(root, t.in_neighbors, t.out_neighbors)
    accs = [_empty(inf)] * t.n
    for v in reversed(order[1:]):
        hand = _finish(accs[v], _DOWN if down[v] else _UP, inf)
        accs[parent[v]] = _fold(accs[parent[v]], hand)
    m, tau = _finish(accs[root], _ROOT, inf)
    return (m + 1 if m == tau else tau + 2), tau


def relabelled(t, rng: random.Random):
    perm = list(range(t.n))
    rng.shuffle(perm)
    return build_tree(t.n, sorted((perm[u], perm[v]) for u, v in t.arcs))


class TestChiTable:
    """``chi_table`` restates the step of ``_least_family`` on states; these
    tests hold the two copies of the rule to each other."""

    def test_equals_one_solve_per_class_up_to_n10(self):
        # 201 free trees, 70,215 orientations
        masks = 0
        for n in range(1, 11):
            for base in free_trees(n):
                table = chi_table(base)
                assert table == class_chis(base), base
                masks += len(table)
        assert masks == 70_215

    @pytest.mark.parametrize(
        "base",
        [path(19), star(16), gs_base(4, 4), random_tree(18, 3), random_tree(21, 5)],
        ids=["path19", "star16", "gs44", "random18", "random21"],
    )
    def test_sampled_masks_equal_solves(self, base):
        # a mask list shared between two states would put wrong entries here
        rng = random.Random(base.n)
        table = chi_table(base)
        assert len(table) == 1 << len(base.edges)
        for mask in [0, len(table) - 1, *(rng.randrange(len(table)) for _ in range(200))]:
            assert table[mask] == solve_exact(orient(base, mask)).chi, mask

    def test_steps_on_one_orientation_equal_solve_exact(self):
        rng = random.Random(31)
        for n in [50] * 40 + [200] * 10 + [2_000] * 4:
            t = orient(random_tree(n, rng.getrandbits(32)), rng.getrandbits(n - 1))
            res = solve_exact(t)
            assert steps_chi_tau(t, rng.randrange(n)) == (res.chi, res.tau), t

    def test_path19_memory(self):
        # the bound that the per-class orbits of path(19) were held to
        tracemalloc.start()
        try:
            chi_table(path(19))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18.7e6

    def test_guard(self):
        with pytest.raises(TooLargeError):
            chi_table(path(27))


def test_relabelling_keeps_chi_and_tau():
    # a random vertex permutation moves the walk's root and reorders every
    # child list; chi and tau are invariants of the tree
    rng = random.Random(55)
    for n in [50] * 40 + [500] * 8 + [2_000] * 4:
        t = orient(random_tree(n, rng.getrandbits(32)), rng.getrandbits(n - 1))
        res, moved = solve_exact(t), solve_exact(relabelled(t, rng))
        assert (moved.chi, moved.tau) == (res.chi, res.tau), t
