"""Instance families and exhaustive generators.

Provides the tree topologies the harness sweeps over: paths, generalized
stars, caterpillars, uniformly random labeled trees, all orientations of a
base tree (bitmask per edge), and one representative per isomorphism class
of free trees up to a size cap.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import SpecInvalidError, TooLargeError
from .trees import BaseTree, OrientedTree

_FREE_TREE_CAP = 12
_MASK_WIDTH_CAP = 26

GS_SCHEMES = ("out", "in", "layered", "mask")


# ---------------------------------------------------------------------------
# named topologies


def path(n: int) -> BaseTree:
    """The path on vertices 0..n-1 with edges (i, i+1)."""
    return BaseTree(n, tuple((i, i + 1) for i in range(n - 1)))


def star(m: int) -> BaseTree:
    """Star with center 0 and m leaves; same shape as a generalized star with
    1-edge paths."""
    if m < 1:
        raise SpecInvalidError("star needs at least one leaf")
    return BaseTree(m + 1, tuple((0, i) for i in range(1, m + 1)))


@dataclass(frozen=True)
class GsSpec:
    """Generalized star: m paths of k edges each, radiating from vertex 0.

    ``scheme`` selects the orientation: "out" points every arc away from the
    center, "in" toward it, "layered" directs every arc from odd to even
    distance layers, and "mask" applies an explicit per-edge direction mask.
    """

    m: int
    k: int
    scheme: str = "out"
    mask: int | None = None

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1:
            raise SpecInvalidError("generalized star needs m >= 1 and k >= 1")
        if self.scheme not in GS_SCHEMES:
            raise SpecInvalidError(f"unknown scheme {self.scheme!r}")
        if (self.scheme == "mask") != (self.mask is not None):
            raise SpecInvalidError("mask must be given exactly for scheme='mask'")

    @property
    def n(self) -> int:
        return self.m * self.k + 1

    def layer_vertex(self, path_idx: int, layer: int) -> int:
        """Vertex of the given path at distance ``layer`` from the center."""
        if layer == 0:
            return 0
        return 1 + path_idx * self.k + (layer - 1)


def gs_base(m: int, k: int) -> BaseTree:
    spec = GsSpec(m, k)
    edges = []
    for j in range(m):
        prev = 0
        for layer in range(1, k + 1):
            cur = spec.layer_vertex(j, layer)
            edges.append((prev, cur))
            prev = cur
    return BaseTree(spec.n, tuple(edges))


def gs(spec: GsSpec) -> OrientedTree:
    """Build the generalized star with the requested orientation scheme."""
    base = gs_base(spec.m, spec.k)
    if spec.scheme == "mask":
        return orient(base, spec.mask)  # type: ignore[arg-type]
    arcs = []
    for j in range(spec.m):
        for layer in range(1, spec.k + 1):
            lo = spec.layer_vertex(j, layer - 1)
            hi = spec.layer_vertex(j, layer)
            if spec.scheme == "out":
                arcs.append((lo, hi))
            elif spec.scheme == "in":
                arcs.append((hi, lo))
            else:  # layered: arcs run from odd layers into adjacent even layers
                arcs.append((hi, lo) if layer % 2 == 1 else (lo, hi))
    return OrientedTree(spec.n, tuple(arcs))


@dataclass(frozen=True)
class CaterpillarSpec:
    """Caterpillar built from a spine of ``spine_len`` vertices plus legs.

    ``legs`` lists (spine index, leg count) with indices restricted to
    1..spine_len-2, which keeps the declared spine a longest path.  Arc
    directions come from bitmasks: bit 0 keeps the edge as listed
    (spine i -> i+1, spine -> leg), bit 1 flips it.
    """

    spine_len: int
    legs: tuple[tuple[int, int], ...] = ()
    spine_mask: int = 0
    legs_mask: int = 0

    def __post_init__(self) -> None:
        m = self.spine_len
        if m < 1:
            raise SpecInvalidError("spine must have at least one vertex")
        total_legs = 0
        for idx, count in self.legs:
            if count < 1:
                raise SpecInvalidError("leg count must be >= 1")
            if not (1 <= idx <= m - 2):
                raise SpecInvalidError(
                    f"legs attach to internal spine vertices 1..{m - 2}, got {idx}"
                )
            total_legs += count
        if not (0 <= self.spine_mask < (1 << max(m - 1, 1))):
            raise SpecInvalidError("spine mask out of range")
        if not (0 <= self.legs_mask < (1 << max(total_legs, 1))):
            raise SpecInvalidError("legs mask out of range")

    @property
    def n(self) -> int:
        return self.spine_len + sum(c for _, c in self.legs)


def caterpillar(spec: CaterpillarSpec) -> OrientedTree:
    m = spec.spine_len
    arcs = []
    for i in range(m - 1):
        if (spec.spine_mask >> i) & 1:
            arcs.append((i + 1, i))
        else:
            arcs.append((i, i + 1))
    nxt = m
    bit = 0
    for idx, count in spec.legs:
        for _ in range(count):
            if (spec.legs_mask >> bit) & 1:
                arcs.append((nxt, idx))
            else:
                arcs.append((idx, nxt))
            nxt += 1
            bit += 1
    return OrientedTree(spec.n, tuple(arcs))


# ---------------------------------------------------------------------------
# orientations of a base tree


def orient(base: BaseTree, mask: int) -> OrientedTree:
    """One orientation of ``base``, selected edge by edge.

    Bit i of ``mask`` flips edge i of ``base.edges`` (bit 0 keeps the listed
    (min, max) direction).  Masks 0..2^(n-1)-1 enumerate all orientations
    exactly once, and complementary masks are mutual reversals.
    """
    width = len(base.edges)
    if not (0 <= mask < (1 << width) if width else mask == 0):
        raise SpecInvalidError(f"mask {mask} out of range for {width} edges")
    arcs = tuple(
        (v, u) if (mask >> i) & 1 else (u, v) for i, (u, v) in enumerate(base.edges)
    )
    return OrientedTree(base.n, arcs)


def orientations(base: BaseTree) -> Iterator[OrientedTree]:
    """All 2^(n-1) orientations of ``base`` in ascending mask order."""
    if base.n > _MASK_WIDTH_CAP:
        raise TooLargeError(f"orientation masks capped at n <= {_MASK_WIDTH_CAP}")
    for mask in range(1 << len(base.edges)):
        yield orient(base, mask)


def rooted_orientation(base: BaseTree, root: int, sense: str) -> OrientedTree:
    """Orient every edge away from (``sense='out'``) or toward (``'in'``) the root."""
    if sense not in ("out", "in"):
        raise ValueError(f"sense must be 'out' or 'in', got {sense!r}")
    arcs = []
    seen = bytearray(base.n)
    seen[root] = 1
    stack = [root]
    while stack:
        u = stack.pop()
        for v in base.adjacency[u]:
            if not seen[v]:
                seen[v] = 1
                arcs.append((u, v) if sense == "out" else (v, u))
                stack.append(v)
    return OrientedTree(base.n, tuple(arcs))


# ---------------------------------------------------------------------------
# canonical codes (AHU encoding rooted at the tree center)


def _centers(n: int, adjacency: Sequence[Sequence[int]]) -> list[int]:
    if n == 1:
        return [0]
    deg = [len(adjacency[v]) for v in range(n)]
    leaves = [v for v in range(n) if deg[v] == 1]
    removed = len(leaves)
    while removed < n:
        new_leaves = []
        for u in leaves:
            deg[u] = 0
            for w in adjacency[u]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        new_leaves.append(w)
        removed += len(new_leaves)
        leaves = new_leaves
    return sorted(leaves)


def _rooted_code(adjacency: Sequence[Sequence[int]], root: int, parent: int) -> str:
    parts = sorted(
        _rooted_code(adjacency, child, root)
        for child in adjacency[root]
        if child != parent
    )
    return "(" + "".join(parts) + ")"


def canonical_code(base: BaseTree) -> str:
    """Isomorphism-invariant encoding: equal codes iff isomorphic trees."""
    adj = base.adjacency
    return min(_rooted_code(adj, c, -1) for c in _centers(base.n, adj))


def canonical_form(base: BaseTree) -> BaseTree:
    """A canonically relabeled copy; isomorphic inputs map to equal values."""
    adj = base.adjacency
    centers = _centers(base.n, adj)
    codes: dict[tuple[int, int], str] = {}

    def code(root: int, parent: int) -> str:
        key = (root, parent)
        if key not in codes:
            parts = sorted(code(ch, root) for ch in adj[root] if ch != parent)
            codes[key] = "(" + "".join(parts) + ")"
        return codes[key]

    root = min(centers, key=lambda c: (code(c, -1), c))
    relabel = {root: 0}
    edges = []
    queue = [(root, -1)]
    while queue:
        u, par = queue.pop(0)
        children = sorted(
            (ch for ch in adj[u] if ch != par), key=lambda ch: code(ch, u)
        )
        for ch in children:
            relabel[ch] = len(relabel)
            edges.append((relabel[u], relabel[ch]))
            queue.append((ch, u))
    return BaseTree(base.n, tuple(edges))


def oriented_canonical_code(t: OrientedTree) -> str:
    """Canonical code of an oriented tree; equal codes iff directed-isomorphic.

    Each subtree code carries the direction of the edge joining it to its
    parent, so two orientations of the same base tree get distinct codes
    unless a direction-preserving isomorphism maps one to the other.
    """
    adj = t.neighbors
    out_masks = t.out_masks

    def code(root: int, parent: int) -> str:
        parts = []
        for child in adj[root]:
            if child == parent:
                continue
            tag = ">" if (out_masks[root] >> child) & 1 else "<"
            parts.append(tag + code(child, root))
        return "(" + "".join(sorted(parts)) + ")"

    return min(code(c, -1) for c in _centers(t.n, adj))


# ---------------------------------------------------------------------------
# free trees


def free_trees(n: int) -> list[BaseTree]:
    """One canonically labeled representative per isomorphism class.

    Grows trees one leaf at a time, deduplicating by canonical code at every
    size; output is sorted by code, so the order is stable across runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _FREE_TREE_CAP:
        raise TooLargeError(f"free-tree enumeration capped at n <= {_FREE_TREE_CAP}")
    level: dict[str, BaseTree] = {"()": BaseTree(1, ())}
    for size in range(2, n + 1):
        nxt: dict[str, BaseTree] = {}
        for tree in level.values():
            for v in range(size - 1):
                grown = BaseTree(size, tree.edges + ((v, size - 1),))
                code = canonical_code(grown)
                if code not in nxt:
                    nxt[code] = canonical_form(grown)
        level = nxt
    return [level[code] for code in sorted(level)]


# ---------------------------------------------------------------------------
# labeled trees via generator sequences


def sequence_to_edges(seq: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    """Decode a length-(n-2) generator sequence over 0..n-1 into tree edges.

    Standard decoding: repeatedly join the smallest remaining leaf to the
    next sequence entry, then join the last two survivors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(seq) != max(n - 2, 0):
        raise ValueError(f"sequence for n={n} must have length {max(n - 2, 0)}")
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
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(edges)


def labeled_trees(n: int) -> Iterator[BaseTree]:
    """Every labeled tree on n vertices, one per generator sequence.

    Exhaustive (n^(n-2) trees), so only usable for small n; the test suite
    runs it as an independent oracle against :func:`free_trees`.
    """
    if n <= 2:
        yield path(n)
        return
    for seq in product(range(n), repeat=n - 2):
        yield BaseTree(n, sequence_to_edges(seq, n))


def random_tree(n: int, seed: int) -> BaseTree:
    """Uniform random labeled tree; fixed seed gives a fixed tree."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return path(n)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return BaseTree(n, sequence_to_edges(seq, n))
