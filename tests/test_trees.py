from __future__ import annotations

import random
import tracemalloc
from functools import cached_property

import pytest
from hypothesis import given

from domchrom.errors import (
    BadVertexIdError,
    DuplicateOrAntiparallelArcError,
    NotALeafError,
    NotATreeError,
    SelfArcError,
)
from domchrom.generators import (
    canonical_form,
    free_trees,
    orient,
    oriented_canonical_code,
    random_tree,
    rooted_orientation,
)
from domchrom.trees import (
    BaseTree,
    OrientedTree,
    RootClassification,
    build_tree,
    classify_rooted,
    delete_leaf,
    reverse,
)

from conftest import orientations, oriented_trees


def test_build_single_vertex():
    t = build_tree(1, [])
    assert t.n == 1 and t.arcs == ()
    assert t.sources == (0,) and t.sinks == (0,)


def test_build_valid_tree_sorts_arcs():
    t = build_tree(3, [(2, 1), (0, 1)])
    assert t.arcs == ((0, 1), (2, 1))
    assert t.sources == (0, 2) and t.sinks == (1,)


def test_build_rejects_cycle():
    with pytest.raises(NotATreeError):
        build_tree(3, [(0, 1), (1, 2), (2, 0)])


def test_build_rejects_wrong_arc_count():
    with pytest.raises(NotATreeError):
        build_tree(3, [(0, 1)])


def test_build_rejects_self_arc():
    with pytest.raises(SelfArcError):
        build_tree(2, [(1, 1)])


def test_build_rejects_antiparallel_pair():
    with pytest.raises(DuplicateOrAntiparallelArcError):
        build_tree(3, [(0, 1), (1, 0)])


def test_build_rejects_bad_vertex_id():
    with pytest.raises(BadVertexIdError):
        build_tree(2, [(0, 5)])


@pytest.mark.parametrize(
    "arcs",
    [[(0, 1.9), (1, 2)], [("0", "1"), (1, 2)], [(0, 1), (1, 2.0)], [(None, 1), (1, 2)]],
)
def test_non_integer_vertex_ids_are_rejected(arcs):
    # neither truncated (1.9 -> 1) nor parsed ("0" -> 0)
    with pytest.raises(BadVertexIdError):
        build_tree(3, arcs)
    with pytest.raises(BadVertexIdError):
        BaseTree(3, tuple(arcs))


def test_integer_like_vertex_ids_are_accepted():
    class Vertex:
        def __init__(self, v):
            self.v = v

        def __index__(self):
            return self.v

    t = build_tree(3, [(Vertex(1), Vertex(0)), (Vertex(1), 2)])
    assert t == build_tree(3, [(1, 0), (1, 2)])
    assert all(type(x) is int for arc in t.arcs for x in arc)
    base = BaseTree(3, ((Vertex(2), Vertex(1)), (0, 1)))
    assert base.edges == ((0, 1), (1, 2))


def test_build_rejects_disconnected():
    with pytest.raises(NotATreeError):
        build_tree(4, [(0, 1), (0, 1), (2, 3)])


@pytest.mark.parametrize(
    "n, arcs",
    [
        (4, [(0, 1), (1, 2), (2, 0)]),
        (5, [(0, 1), (2, 1), (0, 2), (3, 4)]),
        (6, [(5, 4), (4, 3), (3, 5), (0, 1), (1, 2)]),
    ],
)
def test_build_rejects_simple_arcs_with_a_cycle(n, arcs):
    # n - 1 distinct simple pairs, so only the connectivity test can object
    with pytest.raises(NotATreeError, match="disconnected") as info:
        build_tree(n, arcs)
    assert type(info.value) is NotATreeError


@pytest.mark.parametrize(
    "arcs, error",
    [
        ([(0, 1), (0, 9), (1, 1)], BadVertexIdError),
        ([(0, 2), (1, 1), (1, 9)], SelfArcError),
        ([(0, 1), (1, 0), (2, 2)], DuplicateOrAntiparallelArcError),
        ([(0, 0), (0, 1), (1, 0)], SelfArcError),
        ([(0, 1), (0, 2), (5, 5)], BadVertexIdError),
    ],
)
def test_build_reports_the_first_faulty_arc(arcs, error):
    # arcs are checked in sorted order, each for its ids, then a self-arc,
    # then a repeated vertex pair
    with pytest.raises(error) as info:
        build_tree(4, arcs)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "arcs, error",
    [
        ([(0, 1), (0, 2), (2, 1), (3, 3)], SelfArcError),
        ([(0, 1), (1, 2), (2, 0), (4, 9)], BadVertexIdError),
        ([(0, 1), (1, 2), (2, 0), (2, 1)], DuplicateOrAntiparallelArcError),
    ],
)
def test_build_reports_a_faulty_arc_before_an_earlier_cycle(arcs, error):
    # a cycle closed by an early arc is reported only after every arc passed
    with pytest.raises(error) as info:
        build_tree(5, arcs)
    assert type(info.value) is error


def test_reverse_directed_path():
    t = build_tree(3, [(0, 1), (1, 2)])
    assert reverse(t).arcs == ((1, 0), (2, 1))


def test_reverse_out_star_gives_in_star():
    t = build_tree(4, [(0, 1), (0, 2), (0, 3)])
    assert reverse(t).arcs == ((1, 0), (2, 0), (3, 0))


def test_classify_directed_path_has_both_roots():
    t = build_tree(4, [(0, 1), (1, 2), (2, 3)])
    rc = classify_rooted(t)
    assert rc.out_root == 0 and rc.in_root == 3


def test_classify_in_star():
    t = build_tree(3, [(0, 1), (2, 1)])
    rc = classify_rooted(t)
    assert rc.in_root == 1 and rc.out_root is None


def test_classify_neither():
    t = build_tree(4, [(0, 1), (2, 1), (2, 3)])
    rc = classify_rooted(t)
    assert rc.out_root is None and rc.in_root is None


def _root_by_definition(t: OrientedTree, degree) -> int | None:
    """The one vertex of degree 0 when every other vertex has degree 1."""
    zeros = [v for v in range(t.n) if degree(v) == 0]
    if len(zeros) == 1 and all(degree(v) == 1 for v in range(t.n) if v != zeros[0]):
        return zeros[0]
    return None


def test_classify_rooted_matches_the_definition_on_every_orientation():
    checked = 0
    for n in range(1, 8):
        for base in free_trees(n):
            for t in orientations(base):
                rc = classify_rooted(t)
                assert rc.out_root == _root_by_definition(t, t.in_degree), t.arcs
                assert rc.in_root == _root_by_definition(t, t.out_degree), t.arcs
                checked += 1
    assert checked == 1 + 2 + 4 + 2 * 8 + 3 * 16 + 6 * 32 + 11 * 64


def test_classify_rooted_matches_the_source_and_sink_views():
    # the roots are read off the neighbor tuples; the views name the same
    for n in range(1, 8):
        for base in free_trees(n):
            for t in orientations(base):
                sources, sinks = t.sources, t.sinks
                assert classify_rooted(t) == RootClassification(
                    out_root=sources[0] if len(sources) == 1 else None,
                    in_root=sinks[0] if len(sinks) == 1 else None,
                ), t.arcs


def _assert_as_validated(t, validated) -> None:
    assert t == validated and hash(t) == hash(validated)
    assert t.arcs == validated.arcs and type(t.n) is int


class TestTrustedConstructor:
    """Trees derived from a validated tree skip validation; each equals what
    the validating constructor builds on the same arcs, which also shows its
    arcs are stored sorted and form a tree."""

    def test_every_mask_and_its_derived_trees(self):
        for n in range(1, 8):
            for base in free_trees(n):
                for mask, validated in enumerate(orientations(base)):
                    t = orient(base, mask)
                    _assert_as_validated(t, validated)
                    flipped = OrientedTree(n, tuple((v, u) for u, v in t.arcs))
                    _assert_as_validated(reverse(t), flipped)
                    for v in t.underlying_leaves if n > 1 else ():
                        sub, mapping = delete_leaf(t, v)
                        kept = [(mapping[a], mapping[b]) for a, b in t.arcs if v not in (a, b)]
                        _assert_as_validated(sub, OrientedTree(n - 1, tuple(kept)))
                for root in range(n):
                    for sense in ("out", "in"):
                        t = rooted_orientation(base, root, sense)
                        _assert_as_validated(t, OrientedTree(n, t.arcs))

    def test_underlying_equals_the_validated_base(self):
        # underlying() sorts the (min, max) pairs itself and checks nothing
        for n in range(1, 8):
            for base in free_trees(n):
                for t in orientations(base):
                    underlying, validated = t.underlying(), BaseTree(n, t.arcs)
                    assert underlying == validated == base
                    assert hash(underlying) == hash(validated)
                    assert underlying.edges == validated.edges

    def test_free_trees_and_canonical_forms(self):
        for n in range(1, 10):
            for base in free_trees(n):
                validated = BaseTree(n, base.edges)
                assert base == validated and hash(base) == hash(validated)
                assert base.edges == validated.edges
                perm = random.Random(len(base.edges)).sample(range(n), n)
                shuffled = BaseTree(n, tuple((perm[u], perm[v]) for u, v in base.edges))
                form = canonical_form(shuffled)
                assert form == base and form.edges == BaseTree(n, form.edges).edges


@pytest.mark.parametrize("n", [3.0, "3", None])
def test_build_rejects_a_non_integer_vertex_count(n):
    with pytest.raises(NotATreeError, match="vertex count must be an integer"):
        build_tree(n, [(0, 1), (1, 2)])
    with pytest.raises(NotATreeError, match="vertex count must be an integer"):
        BaseTree(n, ((0, 1), (1, 2)))


def test_delete_leaf_p2():
    t = build_tree(2, [(0, 1)])
    sub, mapping = delete_leaf(t, 1)
    assert sub.n == 1 and sub.arcs == ()
    assert mapping == {0: 0}


def test_delete_leaf_star():
    t = build_tree(4, [(0, 1), (0, 2), (0, 3)])
    sub, mapping = delete_leaf(t, 3)
    assert sub.arcs == ((0, 1), (0, 2))
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_delete_leaf_relabels_compactly():
    t = build_tree(3, [(0, 1), (1, 2)])
    sub, mapping = delete_leaf(t, 0)
    assert sub.n == 2 and sub.arcs == ((0, 1),)
    assert mapping == {1: 0, 2: 1}


def test_delete_non_leaf_raises():
    t = build_tree(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NotALeafError):
        delete_leaf(t, 0)


@pytest.mark.parametrize("v", [1.5, "1", None, -1, 3])
def test_delete_leaf_rejects_a_vertex_that_is_no_vertex(v):
    t = build_tree(3, [(0, 1), (1, 2)])
    with pytest.raises(NotALeafError):
        delete_leaf(t, v)


def test_degree_profile_counts():
    t = build_tree(4, [(0, 1), (2, 1), (2, 3)])
    assert tuple(t.out_degree(v) for v in range(t.n)) == (1, 0, 2, 0)
    assert tuple(t.in_degree(v) for v in range(t.n)) == (0, 2, 0, 1)
    assert t.sources == (0, 2) and t.sinks == (1, 3)
    assert t.underlying_leaves == (0, 3)


def _assert_views_sorted(t: OrientedTree) -> None:
    # the views list neighbors in arc order, which is sorted because the
    # arcs are stored sorted
    for view in (t.out_neighbors, t.in_neighbors):
        assert view == tuple(tuple(sorted(a)) for a in view)


def test_neighbor_views_are_sorted():
    for n in range(1, 8):
        for base in free_trees(n):
            for t in orientations(base):
                _assert_views_sorted(t)
    n = 50_000
    rng = random.Random(12)
    t = orient(random_tree(n, 12), rng.getrandbits(n - 1))
    arcs = list(t.arcs)
    rng.shuffle(arcs)
    shuffled = build_tree(n, arcs)
    assert shuffled == t
    _assert_views_sorted(shuffled)


@given(oriented_trees(max_n=9))
def test_degree_sums_and_leaf_floor(t):
    assert sum(t.out_degree(v) for v in range(t.n)) == t.n - 1
    assert sum(t.in_degree(v) for v in range(t.n)) == t.n - 1
    if t.n >= 2:
        assert len(t.underlying_leaves) >= 2
    assert all(t.degree(v) == len(t.neighbors[v]) for v in range(t.n))


def test_role_views_match_the_degrees():
    """Sources, sinks and underlying leaves on every orientation with n <= 7,
    from the arcs alone."""
    for n in range(1, 8):
        for base in free_trees(n):
            for t in orientations(base):
                heads = [v for _, v in t.arcs]
                tails = [u for u, _ in t.arcs]
                ends = heads + tails
                assert t.sources == tuple(v for v in range(n) if v not in heads)
                assert t.sinks == tuple(v for v in range(n) if v not in tails)
                leaves = tuple(v for v in range(n) if ends.count(v) == 1)
                assert t.underlying_leaves == (leaves if n > 1 else (0,))


@given(oriented_trees(max_n=9))
def test_reverse_is_involution_and_swaps_roles(t):
    r = reverse(t)
    assert reverse(r) == t
    assert r.sources == t.sinks and r.sinks == t.sources
    rc, rrc = classify_rooted(t), classify_rooted(r)
    assert rc.out_root == rrc.in_root
    assert rc.in_root == rrc.out_root


@given(oriented_trees(min_n=2, max_n=9))
def test_delete_then_reinsert_is_isomorphic(t):
    v = t.underlying_leaves[0]
    u = t.neighbors[v][0]
    outgoing = v in t.out_neighbors[u]
    sub, mapping = delete_leaf(t, v)
    new_leaf = sub.n
    arc = (mapping[u], new_leaf) if outgoing else (new_leaf, mapping[u])
    rebuilt = build_tree(sub.n + 1, sub.arcs + (arc,))
    assert oriented_canonical_code(rebuilt) == oriented_canonical_code(t)


def test_every_view_is_linear_on_a_long_path():
    # storing each out-neighborhood as an n-bit integer peaks near 170 MB here
    n = 50_000
    t = build_tree(n, [(i, i + 1) for i in range(n - 1)])
    views = [a for a, p in vars(OrientedTree).items() if isinstance(p, cached_property)]
    assert "out_neighbors" in views
    for attr in views:
        tracemalloc.start()
        try:
            getattr(t, attr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, (attr, peak)
