"""Immutable tree values: undirected base trees and their orientations.

Vertices are dense integers ``0..n-1``.  An :class:`OrientedTree` stores its
arc set in canonical sorted order, so structurally equal inputs compare and
hash equal.  Adjacency views are materialized lazily and cached; they never
take part in equality.  Every view is linear in n, and validation, the solver
and the verifier read only the arcs and the neighbor tuples.  Every traversal,
the solver's included, runs on :func:`_walk`, one iterative walk, at any depth.

A tree's shape is validated once: by the public constructors on their
inputs, or by the base tree it was derived from.  A tree derived from one
already validated (an orientation, reversal, rooted orientation, leaf
deletion, relabelling, one-leaf extension or underlying base tree) is built
by the private ``_trusted`` constructor, which takes its pairs already sorted
and checks nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BadVertexIdError,
    DuplicateOrAntiparallelArcError,
    NotALeafError,
    NotATreeError,
    SelfArcError,
    _int,
)


def _vertex_ids(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Each pair of vertex ids as two plain ints, else :class:`BadVertexIdError`."""
    return [
        (_int(u, "vertex id", BadVertexIdError), _int(v, "vertex id", BadVertexIdError))
        for u, v in pairs
    ]


def _check_tree_shape(n: int, pairs: tuple[tuple[int, int], ...]) -> None:
    """Validate that `pairs` (ignoring direction) forms a tree on 0..n-1."""
    if n < 1:
        raise NotATreeError(f"vertex count must be >= 1, got {n}")
    if len(pairs) != n - 1:
        raise NotATreeError(f"a tree on {n} vertices needs {n - 1} arcs, got {len(pairs)}")
    # Union-find over the vertices; the cycle error is raised only after every
    # pair has passed the per-pair checks, so those errors take precedence.
    root = list(range(n))
    seen: set[int] = set()
    cycle = False
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertexIdError(f"arc ({u},{v}) uses a vertex outside 0..{n - 1}")
        if u == v:
            raise SelfArcError(f"self-arc at vertex {u}")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise DuplicateOrAntiparallelArcError(f"vertex pair {{{u},{v}}} appears twice")
        seen.add(key)
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u == v:
            cycle = True
        root[u] = v
    # n-1 simple edges: a cycle exists exactly when the graph is disconnected.
    if cycle:
        raise NotATreeError("underlying graph is disconnected (hence has a cycle)")


def _adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor tuples of the undirected graph on 0..n-1 with ``pairs``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


def _walk(
    root: int, first: Sequence[Sequence[int]], second: Sequence[Sequence[int]] = ()
) -> tuple[list[int], list[int], bytearray]:
    """Breadth-first walk from ``root`` over the union of the neighbor tuples
    ``first`` and ``second``: the visiting order (children in ``first``, then
    in ``second``), each vertex's parent (-1 at the root), and ``side[v]``,
    the index of the tuple in which ``parent[v]`` lists v (0 at the root)."""
    parent = [-1] * len(first)
    side = bytearray(len(parent))
    order = [root]
    for u in order:  # grows while read: a FIFO queue; a tree needs no seen-set
        p = parent[u]
        for w in first[u]:
            if w != p:
                parent[w] = u
                order.append(w)
        if second:
            for w in second[u]:
                if w != p:
                    parent[w] = u
                    side[w] = 1
                    order.append(w)
    return order, parent, side


@dataclass(frozen=True)
class BaseTree:
    """An undirected labeled tree, the carrier that orientations are built on.

    ``edges`` are stored sorted with each pair as (min, max), giving every
    base tree one canonical representation and a stable edge order for
    orientation masks.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _int(self.n, "vertex count", NotATreeError))
        pairs = _vertex_ids(self.edges)
        normalized = tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs))
        object.__setattr__(self, "edges", normalized)
        _check_tree_shape(self.n, normalized)

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> BaseTree:
        """The base tree on ``edges``, sorted (min, max) pairs derived from an
        already validated tree; nothing is normalized or checked again."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "n", n)
        object.__setattr__(tree, "edges", edges)
        return tree

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.edges)


@dataclass(frozen=True)
class OrientedTree:
    """An orientation of a finite tree: every edge carries one direction."""

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _int(self.n, "vertex count", NotATreeError))
        normalized = tuple(sorted(_vertex_ids(self.arcs)))
        object.__setattr__(self, "arcs", normalized)
        _check_tree_shape(self.n, normalized)

    @classmethod
    def _trusted(cls, n: int, arcs: tuple[tuple[int, int], ...]) -> OrientedTree:
        """The oriented tree on ``arcs``, sorted and derived from an already
        validated tree; nothing is normalized or checked again."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "n", n)
        object.__setattr__(tree, "arcs", arcs)
        return tree

    # -- adjacency ---------------------------------------------------------

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return tuple(map(tuple, out))  # sorted: arcs are stored sorted

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        inn: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            inn[v].append(u)
        return tuple(map(tuple, inn))  # sorted: arcs are stored sorted

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.arcs)

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbors[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_neighbors[v])

    def degree(self, v: int) -> int:
        return len(self.out_neighbors[v]) + len(self.in_neighbors[v])

    @cached_property
    def sources(self) -> tuple[int, ...]:
        return tuple(v for v, inn in enumerate(self.in_neighbors) if not inn)

    @cached_property
    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v, out in enumerate(self.out_neighbors) if not out)

    @cached_property
    def underlying_leaves(self) -> tuple[int, ...]:
        if self.n == 1:
            return (0,)
        pairs = zip(self.out_neighbors, self.in_neighbors)
        return tuple(v for v, (out, inn) in enumerate(pairs) if len(out) + len(inn) == 1)

    def underlying(self) -> BaseTree:
        edges = sorted((u, v) if u < v else (v, u) for u, v in self.arcs)
        return BaseTree._trusted(self.n, tuple(edges))


@dataclass(frozen=True)
class RootClassification:
    """Roots of the tree when it is an out-tree and/or an in-tree.

    A directed path has both roots; most orientations have neither.
    """

    out_root: int | None
    in_root: int | None


def build_tree(n: int, arcs: Iterable[tuple[int, int]]) -> OrientedTree:
    """Validate and build an oriented tree from an arc list."""
    return OrientedTree(n, tuple(arcs))


def reverse(t: OrientedTree) -> OrientedTree:
    """Flip the direction of every arc."""
    return OrientedTree._trusted(t.n, tuple(sorted((v, u) for u, v in t.arcs)))


def classify_rooted(t: OrientedTree) -> RootClassification:
    """Detect whether the orientation is an out-tree and/or an in-tree.

    An out-tree has one source and every other vertex with in-degree one.  A
    tree's n - 1 arcs give the n - 1 non-sources in-degree at least one each,
    so one source already forces the rest; in-trees and sinks are symmetric.
    """
    ins, outs = t.in_neighbors, t.out_neighbors
    return RootClassification(
        out_root=ins.index(()) if ins.count(()) == 1 else None,
        in_root=outs.index(()) if outs.count(()) == 1 else None,
    )


def delete_leaf(t: OrientedTree, v: int) -> tuple[OrientedTree, dict[int, int]]:
    """Remove underlying leaf ``v``; relabel the rest to 0..n-2 preserving order.

    Returns the smaller tree together with the old->new vertex map.
    """
    v = _int(v, "vertex", NotALeafError)
    if not (0 <= v < t.n) or t.degree(v) != 1:
        raise NotALeafError(f"vertex {v} is not an underlying leaf")
    mapping = {}
    nxt = 0
    for x in range(t.n):
        if x != v:
            mapping[x] = nxt
            nxt += 1
    # the relabelling keeps the order, so the kept arcs stay sorted
    arcs = tuple(
        (mapping[a], mapping[b]) for a, b in t.arcs if a != v and b != v
    )
    return OrientedTree._trusted(t.n - 1, arcs), mapping
