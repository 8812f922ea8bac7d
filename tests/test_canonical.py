"""Canonical codes, canonical forms and rooted orientations.

The digests below pin the exact strings and labellings; campaign records,
``free_trees`` order and every report depend on them byte for byte.
"""

from __future__ import annotations

import hashlib
import random
import sys
import tracemalloc

import networkx as nx
import pytest

from domchrom.errors import TooLargeError
from domchrom.generators import (
    _centers,
    canonical_code,
    canonical_form,
    canonical_labels,
    free_trees,
    orient,
    orientation_arcs,
    oriented_canonical_code,
    path,
    random_tree,
    rooted_orientation,
    star,
)
from domchrom.solver import chi_table
from domchrom.trees import BaseTree, OrientedTree

import orbits
from conftest import orientations, reference_longest_path
from orbits import automorphism_swaps, orientation_classes

FREE_TREES_DIGEST = "70f80da3e895e585339ca9dfaca917dac4c3c76a14c004fdc982932926d978d5"
CODES_AND_FORMS_DIGEST = "cdffee8f6852527fe30bdf40b82a61018d4cfc645f316e3557f11a770563881b"
FREE_TREES_11_12_DIGEST = "e79b2e3130405590bdf97d0f719d602ea8f73b8330eb57580bbe1ee2162a3d9f"
ORIENTED_CODES_DIGEST = "d17f343a9927c98f93fd466081625784bb942b634c9bbbee7ee70a42b2c884d0"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _relabelled(base: BaseTree, rng: random.Random) -> BaseTree:
    perm = list(range(base.n))
    rng.shuffle(perm)
    return BaseTree(base.n, tuple((perm[u], perm[v]) for u, v in base.edges))


def _free_tree_lines():
    for n in range(1, 11):
        for base in free_trees(n):
            yield repr(base.edges)


def _code_and_form_lines():
    rng = random.Random(8)
    for n in range(1, 11):
        for base in free_trees(n):
            for _ in range(3):
                shuffled = _relabelled(base, rng)
                yield f"{canonical_code(shuffled)} {canonical_form(shuffled).edges!r}"


def _oriented_code_lines():
    rng = random.Random(9)
    for n in range(1, 10):
        for base in free_trees(n):
            for t in orientations(base):
                perm = list(range(n))
                rng.shuffle(perm)
                shuffled = OrientedTree(n, tuple((perm[u], perm[v]) for u, v in t.arcs))
                code = oriented_canonical_code(t)
                assert oriented_canonical_code(shuffled) == code
                yield code


def test_free_trees_pinned():
    assert _digest(_free_tree_lines()) == FREE_TREES_DIGEST


def test_free_trees_pinned_up_to_the_cap():
    lines = (repr(base.edges) for n in (11, 12) for base in free_trees(n))
    assert _digest(lines) == FREE_TREES_11_12_DIGEST


def test_codes_and_forms_pinned():
    assert _digest(_code_and_form_lines()) == CODES_AND_FORMS_DIGEST


def test_oriented_codes_pinned():
    assert _digest(_oriented_code_lines()) == ORIENTED_CODES_DIGEST


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 0), (5, 1), (30, 2), (200, 3)])
def test_centers_minimize_eccentricity(n, seed):
    base = random_tree(n, seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(base.edges)
    assert _centers(base.adjacency) == sorted(nx.center(graph))


def _relabel(base: BaseTree, label: list[int]) -> BaseTree:
    return BaseTree(base.n, tuple((label[u], label[v]) for u, v in base.edges))


def test_canonical_labels_give_the_canonical_form():
    # the leaf-deletion campaign finds a subtree's representative in
    # free_trees through this labelling, so it must give the form exactly
    rng = random.Random(11)
    bases = [random_tree(n, seed) for n in (1, 2, 3, 30, 200) for seed in range(5)]
    for n in range(1, 10):
        for base in free_trees(n):
            bases += [base, _relabelled(base, rng)]
            bases.append(BaseTree(n, tuple((n - 1 - u, n - 1 - v) for u, v in base.edges)))
    for base in bases:
        label = canonical_labels(base)
        assert sorted(label) == list(range(base.n))
        assert _relabel(base, label) == canonical_form(base)


def test_orientation_arcs_are_the_built_arcs():
    for n in range(1, 8):
        for base in free_trees(n):
            for mask, t in enumerate(orientations(base)):
                assert tuple(orientation_arcs(base.edges, mask)) == t.arcs


# Directed-isomorphism classes of oriented trees on n = 1..8 vertices (OEIS A000238).
ORIENTED_TREE_COUNTS = (1, 1, 3, 8, 27, 91, 350, 1376)


def _digraph(t: OrientedTree) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(range(t.n))
    graph.add_edges_from(t.arcs)
    return graph


def test_equal_oriented_codes_are_directed_isomorphic():
    # the converse of the relabelling check above; the tests that count
    # solves and builds per class name a class by its code, which relies on
    # this direction
    total = 0
    for n, classes in enumerate(ORIENTED_TREE_COUNTS, start=1):
        groups: dict[str, list[nx.DiGraph]] = {}
        for base in free_trees(n):
            for t in orientations(base):
                groups.setdefault(oriented_canonical_code(t), []).append(_digraph(t))
                total += 1
        assert len(groups) == classes
        for first, *rest in groups.values():
            for graph in rest:
                assert nx.is_isomorphic(first, graph)
    assert total == 3911


def test_leaf_deletion_solves_each_class_it_meets_once(monkeypatch):
    # n <= 8 instances and their subtrees meet every class with n <= 8: the
    # per-class oracle solves each of them once, and the chi tables that the
    # sweep reads, those of every free tree with n <= 8, equal the oracle's
    solved = []
    solve = orbits.solve_exact

    def counting_solve(t):
        solved.append(oriented_canonical_code(t))
        return solve(t)

    monkeypatch.setattr(orbits, "solve_exact", counting_solve)
    for n in range(1, 9):
        for base in free_trees(n):
            assert chi_table(base) == orbits.class_chis(base)
    assert len(solved) == len(set(solved)) == sum(ORIENTED_TREE_COUNTS) == 1857


def _code_classes(base: BaseTree) -> list[int]:
    """Class index per mask, by first occurrence of its oriented code."""
    first: dict[str, int] = {}
    return [
        first.setdefault(oriented_canonical_code(t), len(first))
        for t in orientations(base)
    ]


def test_orientation_classes_match_oriented_codes():
    # the reversal campaign solves one orientation per class of this table
    for n in range(1, 10):
        classes = 0
        for base in free_trees(n):
            table = orientation_classes(base)
            assert table == _code_classes(base)
            classes += max(table) + 1
        assert classes == (*ORIENTED_TREE_COUNTS, 5743)[n - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_orientation_classes_of_relabelled_bases(n):
    bases = [random_tree(n, seed) for seed in range(10)]
    bases += [
        BaseTree(n, tuple((n - 1 - u, n - 1 - v) for u, v in base.edges))
        for base in free_trees(n)
    ]
    for base in bases:
        assert orientation_classes(base) == _code_classes(base)


def test_automorphism_swaps_map_edges_onto_edges():
    for n in range(1, 11):
        for base in free_trees(n):
            edges = set(base.edges)
            for image in automorphism_swaps(base):
                assert sorted(image) == list(range(n))
                assert all(image[image[v]] == v for v in range(n))
                mapped = {(image[u], image[v]) for u, v in base.edges}
                assert {(a, b) if a < b else (b, a) for a, b in mapped} == edges


def test_orientation_class_counts_are_oeis_a000238():
    counts = [
        sum(max(orientation_classes(base)) + 1 for base in free_trees(n))
        for n in range(1, 12)
    ]
    assert counts == [*ORIENTED_TREE_COUNTS, 5743, 24635, 108968]


def test_path_classes_by_burnside():
    # the one non-trivial automorphism mirrors the path: edge i onto edge
    # w - 1 - i, reversed, so it fixes a mask only when every mirrored pair
    # of bits differs, which the middle edge of an odd w never does
    for n in range(1, 21):
        w = n - 1
        fixed = 0 if w % 2 else 2 ** (w // 2)
        assert max(orientation_classes(path(n))) + 1 == (2**w + fixed) // 2


def test_star_classes_count_in_leaves():
    assert max(orientation_classes(star(16))) + 1 == 17


@pytest.mark.parametrize("n", [14, 15, 16])
def test_orientation_classes_match_oriented_codes_at_larger_n(n):
    # the first seeded tree with a symmetry; half the masks are drawn at
    # random, the other half from the classes of the first half, so that
    # shared classes occur as well as distinct ones
    rng = random.Random(n)
    while True:
        base = random_tree(n, rng.getrandbits(32))
        table = orientation_classes(base)
        if max(table) + 1 < len(table):
            break
    members: dict[int, list[int]] = {}
    for mask, cls in enumerate(table):
        members.setdefault(cls, []).append(mask)
    masks = [rng.randrange(len(table)) for _ in range(1000)]
    masks += [rng.choice(members[table[mask]]) for mask in masks]
    pairs = {(table[mask], oriented_canonical_code(orient(base, mask))) for mask in masks}
    classes = {cls for cls, _ in pairs}
    assert len(classes) == len({code for _, code in pairs}) == len(pairs)
    assert len(classes) < len(set(masks))


@pytest.mark.parametrize("base, limit_mb", [(star(16), 2.0), (path(19), 18.7)], ids=["star16", "path19"])
def test_orientation_classes_memory(base, limit_mb):
    # a generator keeps two half-mask tables of about 2^(w/2) entries each;
    # one full table of 2^w entries per generator would not fit the star's bound
    tracemalloc.start()
    try:
        orientation_classes(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


def test_orientation_classes_guard():
    with pytest.raises(TooLargeError):
        orientation_classes(path(27))


def test_oriented_code_reads_no_masks():
    t = orient(random_tree(40, 7), 0x5A5A5A5A5)
    oriented_canonical_code(t)
    assert "out_masks" not in t.__dict__
    # it walks the in- and out-neighbor tuples, not the undirected view
    assert "neighbors" not in t.__dict__


def _broom(n: int) -> BaseTree:
    """A path of n // 2 vertices with the remaining vertices hung on its end."""
    handle = n // 2
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, v) for v in range(handle, n)]
    return BaseTree(n, tuple(edges))


@pytest.mark.parametrize("make", [path, _broom], ids=["path", "broom"])
def test_deep_trees_under_default_recursion_limit(make):
    n = 20_000
    assert sys.getrecursionlimit() <= 10_000
    base = make(n)
    code = canonical_code(base)
    assert len(code) == 2 * n
    form = canonical_form(base)
    assert canonical_code(form) == code
    assert _relabel(base, canonical_labels(base)) == form
    out_tree = rooted_orientation(base, 0, "out")
    assert out_tree.sources == (0,)
    in_tree = rooted_orientation(base, 0, "in")
    assert in_tree.sinks == (0,)
    mirrored = OrientedTree(n, tuple((n - 1 - u, n - 1 - v) for u, v in in_tree.arcs))
    code = oriented_canonical_code(in_tree)
    assert len(code) == 3 * n - 1  # n bracket pairs and n - 1 direction tags
    assert oriented_canonical_code(mirrored) == code


@pytest.mark.parametrize("make", [path, _broom], ids=["path", "broom"])
def test_deep_tree_shapes(make):
    # the longest path of each deep shape, at sizes the quadratic reference
    # can afford: the whole path, or the broom's handle and one bristle
    for n in range(4, 41):
        out_tree = rooted_orientation(make(n), 0, "out")
        assert len(reference_longest_path(out_tree)) == (n if make is path else n // 2 + 1)
