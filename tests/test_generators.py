from __future__ import annotations

import hashlib
import heapq
import random
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from domchrom.errors import SpecInvalidError, TooLargeError
from domchrom.generators import (
    CaterpillarSpec,
    GsSpec,
    canonical_code,
    canonical_form,
    caterpillar,
    free_trees,
    gs,
    gs_base,
    mask_bits,
    orient,
    orientation_arcs,
    path,
    random_tree,
    rooted_orientation,
    sequence_to_edges,
    star,
)
from domchrom.trees import BaseTree, OrientedTree, reverse

from conftest import caterpillar_layouts


def labeled_trees(n: int):
    """Every labeled tree on n vertices, one per generator sequence: an
    exhaustive (n^(n-2) trees) oracle for :func:`free_trees`."""
    if n <= 2:
        yield path(n)
        return
    for seq in product(range(n), repeat=n - 2):
        yield BaseTree(n, sequence_to_edges(seq, n))


# free trees on n = 1..12 vertices (OEIS A000055); the exhaustive
# labeled-tree oracle below recomputes the small entries from scratch
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)

# SHA-256 over the arcs of gs(GsSpec(m, k, scheme)) for m, k <= 7 and the
# out, in and layered schemes (see test_gs_schemes_pinned)
GS_ARCS_SHA256 = "f5b5cfbe0711e47eac57c69bcd08c6bdcdef4ac3721eac36c6474dcabac37c06"

# SHA-256 over the arcs of caterpillar(spec) for every spec with n <= 9 (see
# test_caterpillar_arcs_pinned), recorded while caterpillar read its two
# masks bit by bit
CATERPILLAR_ARCS_SHA256 = "60f74bc488fa1b9e9f8d83471cbf925d9143d01e35e8da93d6df31c5fe8a2e62"


class TestFamilies:
    def test_path_shape(self):
        base = path(4)
        assert base.n == 4 and base.edges == ((0, 1), (1, 2), (2, 3))

    def test_gs_out_is_arborescence(self):
        t = gs(GsSpec(8, 2, "out"))
        assert t.n == 17 and len(t.arcs) == 16
        assert len(t.sinks) == 8 and t.sources == (0,)

    def test_gs_m3_k1_is_out_star(self):
        t = gs(GsSpec(3, 1, "out"))
        assert t.arcs == ((0, 1), (0, 2), (0, 3))

    def test_gs_layered_odd_layers_are_sources(self):
        spec = GsSpec(2, 4, "layered")
        t = gs(spec)
        odd = {spec.layer_vertex(j, layer) for j in range(2) for layer in (1, 3)}
        assert set(t.sources) == odd

    def test_gs_schemes_pinned(self):
        # recorded when "out" and "in" were rooted orientations and "layered"
        # an explicit odd-to-even layer loop; each is now one mask of gs_base
        digest = hashlib.sha256()
        for m in range(1, 8):
            for k in range(1, 8):
                for scheme in ("out", "in", "layered"):
                    arcs = gs(GsSpec(m, k, scheme)).arcs
                    digest.update(repr((m, k, scheme, arcs)).encode())
        assert digest.hexdigest() == GS_ARCS_SHA256

    def test_gs_size_formula(self):
        for m in range(1, 5):
            for k in range(1, 4):
                assert gs(GsSpec(m, k)).n == m * k + 1

    def test_caterpillar_small(self):
        spec = CaterpillarSpec(3, ((1, 1),), spine_mask=0, legs_mask=0)
        t = caterpillar(spec)
        assert t.n == 4
        assert t.arcs == ((0, 1), (1, 2), (1, 3))

    def test_caterpillar_rejects_endpoint_legs(self):
        with pytest.raises(SpecInvalidError):
            CaterpillarSpec(3, ((0, 1),))

    def test_caterpillar_rejects_oversized_mask(self):
        with pytest.raises(SpecInvalidError):
            CaterpillarSpec(3, (), spine_mask=4)

    @pytest.mark.parametrize(
        "spec",
        [
            dict(spine_len=1, spine_mask=1),
            dict(spine_len=3, legs_mask=1),
            dict(spine_len=3, legs=((1, 1),), legs_mask=2),
        ],
    )
    def test_caterpillar_masks_follow_orient(self, spec):
        # a mask needs one bit per edge it orients; with no edges it must be 0
        with pytest.raises(SpecInvalidError):
            CaterpillarSpec(**spec)

    @pytest.mark.parametrize(
        "args",
        [
            (3, ((1, 1.0),)),
            (3.0,),
            (3, (), 1.0),
            (3, (), 0, 1.0),
            (3, ((1.0, 1),)),
            (3, 5),
            (3, ((1,),)),
        ],
        ids=["leg-count", "spine-len", "spine-mask", "legs-mask", "leg-index", "legs", "leg-pair"],
    )
    def test_caterpillar_spec_rejects_non_integers(self, args):
        with pytest.raises(SpecInvalidError):
            CaterpillarSpec(*args)

    def test_caterpillar_spec_normalizes_to_ints(self):
        spec = CaterpillarSpec(3, [[1, True], [True, 1]], False, 3)
        assert spec.legs == ((1, 1), (1, 1)) and spec.spine_mask == 0
        assert all(type(x) is int for pair in spec.legs for x in (*pair, spec.spine_mask))
        assert type(spec.legs) is tuple and all(type(pair) is tuple for pair in spec.legs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GsSpec(2, 2.0),
            lambda: GsSpec("2", 2),
            lambda: GsSpec(2, 2, "mask", 1.0),
            lambda: gs(GsSpec(2.5, 2)),
            lambda: star(2.0),
            lambda: path(2.0),
        ],
        ids=["gs-k", "gs-m-str", "gs-mask", "gs-build", "star-m", "path-n"],
    )
    def test_sizes_reject_non_integers(self, build):
        with pytest.raises(SpecInvalidError):
            build()

    def test_gs_spec_normalizes_to_ints(self):
        spec = GsSpec(True, 2, "mask", False)
        assert (spec.m, spec.k, spec.mask) == (1, 2, 0)
        assert all(type(x) is int for x in (spec.m, spec.k, spec.mask))

    def test_caterpillar_equals_the_validated_build(self):
        # caterpillar builds its arcs without validation; the validating
        # constructor accepts the same arcs, listed as the spec describes them
        rng = random.Random(0)
        for m, legs in caterpillar_layouts(8, 12):
            feet = [idx for idx, count in legs for _ in range(count)]
            spine_all, legs_all = (1 << (m - 1)) - 1, (1 << len(feet)) - 1
            masks = [(0, 0), (spine_all, legs_all)]
            masks += [(rng.randint(0, spine_all), rng.randint(0, legs_all)) for _ in range(3)]
            for spine_mask, legs_mask in masks:
                spec = CaterpillarSpec(m, legs, spine_mask, legs_mask)
                arcs = [(i + 1, i) if spine_mask >> i & 1 else (i, i + 1) for i in range(m - 1)]
                arcs += [
                    (m + j, idx) if legs_mask >> j & 1 else (idx, m + j)
                    for j, idx in enumerate(feet)
                ]
                assert caterpillar(spec) == OrientedTree(spec.n, tuple(arcs)), spec

    def test_caterpillar_arcs_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for m, legs in caterpillar_layouts(9, 9):
            width = sum(c for _, c in legs)
            for spine_mask, legs_mask in product(range(1 << (m - 1)), range(1 << width)):
                t = caterpillar(CaterpillarSpec(m, legs, spine_mask, legs_mask))
                digest.update(f"{t.arcs}\n".encode())
                count += 1
        assert count == 21_847
        assert digest.hexdigest() == CATERPILLAR_ARCS_SHA256


def every_mask(base: BaseTree) -> list[OrientedTree]:
    return [orient(base, mask) for mask in range(1 << len(base.edges))]


class TestOrientations:
    def test_p4_has_eight(self):
        assert len(every_mask(path(4))) == 8

    def test_star3_uniform_count(self):
        seen = every_mask(star(3))
        assert len(seen) == 8
        # exactly 2 orientations have all arcs agreeing at the center
        agreeing = [t for t in seen if t.out_degree(0) in (0, 3)]
        assert len(agreeing) == 2

    def test_single_vertex_one_orientation(self):
        assert every_mask(path(1)) == [OrientedTree(1, ())]

    def test_no_duplicates(self):
        seen = every_mask(path(5))
        assert len(set(seen)) == len(seen) == 16

    def test_mask_complement_is_reversal(self):
        base = random_tree(7, seed=5)
        full = (1 << len(base.edges)) - 1
        for mask in range(full + 1):
            assert reverse(orient(base, mask)) == orient(base, mask ^ full)

    def test_mask_bits_and_arcs_match_a_per_bit_reference(self):
        rng = random.Random(21)
        for width in range(2001):
            edges = [(i, i + 1) for i in range(width)]
            full = (1 << width) - 1
            # the high half of the third mask is zero, so its bin() is short
            masks = (0, full, rng.getrandbits(width // 2), rng.getrandbits(width))
            for mask in masks:
                bits = [mask >> i & 1 for i in range(width)]
                assert [*map(int, mask_bits(mask, width))] == bits
                arcs = [(v, u) if bit else (u, v) for (u, v), bit in zip(edges, bits)]
                assert orientation_arcs(edges, mask) == sorted(arcs)

    def test_rooted_orientation_rejects_root_out_of_range(self):
        for root in (5, 3, -1):
            with pytest.raises(SpecInvalidError, match="root"):
                rooted_orientation(path(3), root, "out")

    def test_orient_rejects_a_non_integer_mask(self):
        for mask in (1.5, "1", None):
            with pytest.raises(SpecInvalidError, match="mask must be an integer"):
                orient(path(3), mask)

    def test_rooted_orientation_rejects_a_non_integer_root(self):
        for root in (1.5, "1", None):
            with pytest.raises(SpecInvalidError, match="root must be an integer"):
                rooted_orientation(path(3), root, "out")


class TestFreeTrees:
    def test_counts_match_reference(self):
        for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
            assert len(free_trees(n)) == expected

    def test_counts_match_networkx(self):
        for n in range(2, 13):
            assert len(free_trees(n)) == nx.number_of_nonisomorphic_trees(n)

    def test_each_class_generated_once(self):
        # free_trees keeps one tree per level sequence and drops none, so a
        # class that the generator met twice would show as a repeated code
        for n in range(1, len(FREE_TREE_COUNTS) + 1):
            trees = free_trees(n)
            codes = [canonical_code(b) for b in trees]
            assert codes == sorted(set(codes)), n
            assert all(canonical_form(b) == b for b in trees), n

    def test_n4_path_and_star(self):
        codes = {canonical_code(b) for b in free_trees(4)}
        assert codes == {canonical_code(path(4)), canonical_code(star(3))}

    def test_against_exhaustive_labeled_oracle(self):
        # independent generation route: decode every labeled tree, dedupe by
        # canonical code, and compare code sets per size
        for n in range(1, 8):
            oracle = {canonical_code(b) for b in labeled_trees(n)}
            ours = {canonical_code(b) for b in free_trees(n)}
            assert ours == oracle

    def test_pairwise_nonisomorphic_by_networkx(self):
        trees = free_trees(7)
        graphs = [nx.Graph(list(b.edges)) for b in trees]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not nx.is_isomorphic(graphs[i], graphs[j])

    def test_deterministic_order(self):
        assert [b.edges for b in free_trees(8)] == [b.edges for b in free_trees(8)]

    def test_guards(self):
        with pytest.raises(TooLargeError):
            free_trees(13)
        with pytest.raises(ValueError):
            free_trees(0)


class TestCanonicalization:
    @given(st.integers(3, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_preserves_code(self, n, data):
        seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        base = BaseTree(n, sequence_to_edges(seq, n))
        perm = data.draw(st.permutations(list(range(n))))
        shuffled = BaseTree(n, tuple((perm[u], perm[v]) for u, v in base.edges))
        assert canonical_code(shuffled) == canonical_code(base)
        assert canonical_form(shuffled) == canonical_form(base)


def heap_decode(seq, n):
    """Reference decoder: a heap of the current leaves; the smallest joins
    each entry in turn, then the last two leaves are joined."""
    if n == 1:
        return ()
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return tuple(edges)


class TestRandomAndSequences:
    def test_small_cases(self):
        assert random_tree(1, 0).n == 1
        assert random_tree(2, 0).edges == ((0, 1),)

    def test_seed_determinism(self):
        assert random_tree(8, 42) == random_tree(8, 42)
        assert random_tree(8, 42) != random_tree(8, 43)

    def test_sequence_decode_known(self):
        # sequence (3, 3) on 4 vertices joins leaves 0,1,2 around vertex 3
        assert sequence_to_edges((3, 3), 4) == ((0, 3), (1, 3), (2, 3))

    @pytest.mark.parametrize("seq", [[-1], [5]], ids=["negative", "too-large"])
    def test_sequence_entries_outside_the_range_rejected(self, seq):
        with pytest.raises(ValueError, match=f"entry {seq[0]} outside 0..2"):
            sequence_to_edges(seq, 3)

    def test_sequence_decode_matches_the_heap_decoder(self):
        # every sequence for n <= 6, then seeded ones up to n = 40
        for n in range(1, 7):
            for seq in product(range(n), repeat=max(n - 2, 0)):
                assert sequence_to_edges(seq, n) == heap_decode(seq, n), seq
        for n in range(1, 41):
            rng = random.Random(n)
            for _ in range(50):
                seq = [rng.randrange(n) for _ in range(max(n - 2, 0))]
                assert sequence_to_edges(seq, n) == heap_decode(seq, n), seq

    def test_every_decode_is_a_valid_tree(self):
        # random_tree builds its decode without validation; the validating
        # constructor accepts every decode and stores its edges sorted
        for n in range(1, 8):
            for seq in product(range(n), repeat=max(n - 2, 0)):
                edges = sequence_to_edges(seq, n)
                assert BaseTree(n, edges).edges == tuple(sorted(edges)), seq

    def test_random_tree_equals_the_validated_build(self):
        for n in range(1, 41):
            for seed in range(50):
                rng = random.Random(seed)
                seq = [rng.randrange(n) for _ in range(max(n - 2, 0))]
                validated = BaseTree(n, sequence_to_edges(seq, n))
                assert random_tree(n, seed) == validated, (n, seed)

    @given(st.integers(1, 9), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_trees_always_valid(self, n, seed):
        base = random_tree(n, seed)
        assert base.n == n and len(base.edges) == n - 1
