"""The one tree walk, ``trees._walk``, and the outputs that rest on it.

The solver, the oriented canonical code and every other traversal walk a
tree through it, so the digest below pins χ, τ, the hitting set, both
colorings, the certificate and the oriented canonical code together.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys

import networkx as nx
import pytest

from domchrom.coloring import recheck_certificate
from domchrom.generators import (
    free_trees,
    orient,
    oriented_canonical_code,
    random_tree,
    rooted_orientation,
)
from domchrom.io import encode_tree
from domchrom.solver import _least_family, hitting_set, hitting_set_coloring, solve_exact
from domchrom.trees import OrientedTree, _walk, build_tree

from conftest import orientations

OUTPUTS_DIGEST = "25d82ab6b71b3aceb3bce6601b8184ac73fb364bd7cedec27f48ca26e1ccf913"
WIDE_OUTPUTS_DIGEST = "dcad3d14944c81a31e6be128da55d00acbdf88162d48f3d7b21c69200c632dbc"


def _labellings(max_n):
    """Every orientation with n <= max_n, as generated and mirrored v -> n-1-v."""
    for n in range(1, max_n + 1):
        for base in free_trees(n):
            for t in orientations(base):
                yield t
                yield OrientedTree(n, tuple((n - 1 - u, n - 1 - v) for u, v in t.arcs))


def _check_walk(t: OrientedTree) -> None:
    order, parent, side = _walk(0, t.in_neighbors, t.out_neighbors)
    graph = nx.Graph()
    graph.add_nodes_from(range(t.n))
    graph.add_edges_from(t.arcs)
    assert sorted(order) == list(range(t.n)) and order[0] == 0
    assert parent[0] == -1 and side[0] == 0
    assert {v: parent[v] for v in order[1:]} == dict(nx.bfs_predecessors(graph, 0))
    depth = nx.single_source_shortest_path_length(graph, 0)
    assert [depth[v] for v in order] == sorted(depth.values())
    arcs = set(t.arcs)
    assert all(side[v] == ((parent[v], v) in arcs) for v in order[1:])


def test_walk_matches_networkx_on_every_small_orientation():
    count = 0
    for t in _labellings(7):
        _check_walk(t)
        count += 1
    assert count == 2 * (1 + 2 + 4 + 16 + 48 + 192 + 704)


def test_walk_of_one_tuple_has_side_zero():
    t = orient(random_tree(30, 4), (1 << 29) // 3)
    order, parent, side = _walk(5, t.neighbors)
    assert parent == _walk(5, t.in_neighbors, t.out_neighbors)[1]
    assert order[0] == 5 and sorted(order) == list(range(30))
    assert not any(side)


def _broom_arcs(n: int) -> list[tuple[int, int]]:
    """A path of n // 2 vertices with the rest hung on its end; arcs alternate."""
    handle = n // 2
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, v) for v in range(handle, n)]
    return [(u, v) if i % 2 else (v, u) for i, (u, v) in enumerate(edges)]


@pytest.mark.parametrize("shape", ["path", "broom"])
def test_walk_deep_trees_under_default_recursion_limit(shape):
    n = 50_000
    assert sys.getrecursionlimit() <= 10_000
    if shape == "path":
        t = build_tree(n, [(i, i + 1) for i in range(n - 1)])
        expected_parent = [-1] + list(range(n - 1))
    else:
        t = build_tree(n, _broom_arcs(n))
        handle = n // 2
        expected_parent = [-1] + list(range(handle - 1)) + [handle - 1] * (n - handle)
    order, parent, side = _walk(0, t.in_neighbors, t.out_neighbors)
    assert parent == expected_parent
    assert len(order) == n
    arcs = set(t.arcs)
    assert all(side[v] == ((parent[v], v) in arcs) for v in range(1, n))
    order, parent, side = _walk(n - 1, t.in_neighbors, t.out_neighbors)
    assert order[-1] == 0 and parent[n - 1] == -1


def _outputs_trees():
    for n in range(1, 9):
        for base in free_trees(n):
            yield from orientations(base)
    rng = random.Random(10)
    for i in range(300):
        n = 10 + i % 51
        yield orient(random_tree(n, rng.getrandbits(32)), rng.getrandbits(n - 1))


def _output_lines():
    for t in _outputs_trees():
        res = solve_exact(t)
        w = hitting_set(t)
        cert = res.certificate
        assert recheck_certificate(t, cert)
        yield "|".join(
            [
                encode_tree(t),
                str(res.chi),
                str(res.tau),
                repr(w),
                repr(hitting_set_coloring(t, w).colors),
                repr(cert.coloring.colors),
                repr(cert.witnesses),
                oriented_canonical_code(t),
            ]
        )


def test_outputs_pinned():
    """Every orientation with n <= 8 and 300 seeded random trees, n = 10..60."""
    h = hashlib.sha256()
    count = 0
    for line in _output_lines():
        h.update(line.encode() + b"\n")
        count += 1
    assert count == 4211
    assert h.hexdigest() == OUTPUTS_DIGEST


def _wide_trees():
    """Every orientation with n = 9, then a dozen seeded trees with
    n = 10^3..2*10^4; every fourth is an out- or in-tree, where chi = tau + 1,
    and random orientations of that size give chi = tau + 2."""
    for base in free_trees(9):
        yield from orientations(base)
    rng = random.Random(2026)
    for i in range(12):
        n = rng.randint(1000, 20000)
        base = random_tree(n, rng.getrandbits(32))
        if i % 4 == 3:
            yield rooted_orientation(base, rng.randrange(n), "out" if i % 8 == 3 else "in")
        else:
            yield orient(base, rng.getrandbits(n - 1))


def test_wide_outputs_pinned():
    """chi, tau, the coloring and the witnesses, past the sizes above."""
    h = hashlib.sha256()
    count = 0
    for t in _wide_trees():
        res = solve_exact(t)
        cert = res.certificate
        h.update(f"{res.chi}|{res.tau}|{cert.coloring.colors!r}|{cert.witnesses!r}\n".encode())
        count += 1
    assert count == 47 * 2**8 + 12
    assert h.hexdigest() == WIDE_OUTPUTS_DIGEST


def test_family_program_builds_the_hitting_set():
    """The W that the family program gathers in its bottom-up pass is
    hitting_set(t), on every orientation with n <= 8 in both labellings and
    on the trees of the pin above."""
    for t in itertools.chain(_labellings(8), _wide_trees()):
        _, w, _ = _least_family(t, *_walk(0, t.in_neighbors, t.out_neighbors))
        assert tuple(v for v in range(t.n) if w[v]) == hitting_set(t), t
