"""Instance families and exhaustive generators.

Provides the tree topologies the harness sweeps over: paths, generalized
stars, caterpillars, uniformly random labeled trees, the orientations of a
base tree (bitmask per edge), and one representative per isomorphism class
of free trees up to a size cap.  Bit i of a mask flips edge i in every
family, and each mask is read in one pass (:func:`mask_bits`).  A tree
derived from a validated base tree (an orientation, every generalized-star
scheme among them, a canonical form, a one-leaf extension) or from a
validated caterpillar spec is built by the trees' private ``_trusted``
constructors and not validated again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import SpecInvalidError, TooLargeError, _int
from .trees import BaseTree, OrientedTree, _walk

_FREE_TREE_CAP = 12

GS_SCHEMES = ("out", "in", "layered", "mask")


# ---------------------------------------------------------------------------
# named topologies


def path(n: int) -> BaseTree:
    """The path on vertices 0..n-1 with edges (i, i+1)."""
    n = _int(n, "n")
    return BaseTree(n, tuple((i, i + 1) for i in range(n - 1)))


def star(m: int) -> BaseTree:
    """Star with center 0 and m leaves; same shape as a generalized star with
    1-edge paths."""
    m = _int(m, "m")
    if m < 1:
        raise SpecInvalidError("star needs at least one leaf")
    return BaseTree(m + 1, tuple((0, i) for i in range(1, m + 1)))


@dataclass(frozen=True)
class GsSpec:
    """Generalized star: m paths of k edges each, radiating from vertex 0.

    ``scheme`` selects the orientation: "out" points every arc away from the
    center, "in" toward it, "layered" directs every arc from odd to even
    distance layers, and "mask" applies an explicit per-edge direction mask.
    ``m``, ``k`` and a given ``mask`` are normalized to ints.
    """

    m: int
    k: int
    scheme: str = "out"
    mask: int | None = None

    def __post_init__(self) -> None:
        for name in ("m", "k") if self.mask is None else ("m", "k", "mask"):
            object.__setattr__(self, name, _int(getattr(self, name), name))
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
    for j in range(spec.m):
        prev = 0
        for layer in range(1, spec.k + 1):
            cur = spec.layer_vertex(j, layer)
            edges.append((prev, cur))
            prev = cur
    return BaseTree(spec.n, tuple(edges))


def gs(spec: GsSpec) -> OrientedTree:
    """Build the generalized star with the requested orientation scheme.

    Every edge (u, v) of :func:`gs_base` points away from the center, so each
    scheme is one mask of it: "out" flips nothing, "in" every edge, and
    "layered" the edges whose far end v sits on an odd layer, (v - 1) % k even.
    """
    base = gs_base(spec.m, spec.k)
    if spec.scheme == "layered":
        bits = "".join("10"[(v - 1) % spec.k % 2] for _, v in base.edges)
        mask = int(bits[::-1], 2)
    else:
        mask = {"out": 0, "in": (1 << len(base.edges)) - 1, "mask": spec.mask}[spec.scheme]
    return orient(base, mask)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CaterpillarSpec:
    """Caterpillar built from a spine of ``spine_len`` vertices plus legs.

    ``legs`` lists (spine index, leg count) with indices restricted to
    1..spine_len-2, which keeps the declared spine a longest path; leg j
    is vertex spine_len + j, in the order the pairs list them.  Arc
    directions come from bitmasks: bit 0 keeps the edge as listed
    (spine i -> i+1, spine -> leg), bit 1 flips it.  Every field is
    normalized to ints (``legs`` to a tuple of int pairs), so a spec that
    constructs is a valid caterpillar.
    """

    spine_len: int
    legs: tuple[tuple[int, int], ...] = ()
    spine_mask: int = 0
    legs_mask: int = 0

    def __post_init__(self) -> None:
        try:
            pairs = [(idx, count) for idx, count in self.legs]
        except (TypeError, ValueError):
            raise SpecInvalidError(f"legs must be (index, count) pairs, got {self.legs!r}") from None
        legs = tuple((_int(i, "leg index"), _int(c, "leg count")) for i, c in pairs)
        object.__setattr__(self, "legs", legs)
        for name in ("spine_len", "spine_mask", "legs_mask"):
            object.__setattr__(self, name, _int(getattr(self, name), name))
        m = self.spine_len
        if m < 1:
            raise SpecInvalidError("spine must have at least one vertex")
        total_legs = 0
        for idx, count in legs:
            if count < 1:
                raise SpecInvalidError("leg count must be >= 1")
            if not (1 <= idx <= m - 2):
                raise SpecInvalidError(
                    f"legs attach to internal spine vertices 1..{m - 2}, got {idx}"
                )
            total_legs += count
        if not (0 <= self.spine_mask < (1 << (m - 1))):
            raise SpecInvalidError("spine mask out of range")
        if not (0 <= self.legs_mask < (1 << total_legs)):
            raise SpecInvalidError("legs mask out of range")

    @property
    def n(self) -> int:
        return self.spine_len + sum(c for _, c in self.legs)


def caterpillar(spec: CaterpillarSpec) -> OrientedTree:
    """The oriented caterpillar of ``spec``.  Its edges are the spine
    (i, i+1), then leg j as (its spine vertex, m + j), oriented by the one
    mask ``spine_mask | legs_mask << (m - 1)``.  A spec is valid by
    construction, so the tree is built without a second check."""
    m = spec.spine_len
    edges = [(i, i + 1) for i in range(m - 1)]
    feet = [idx for idx, count in spec.legs for _ in range(count)]
    edges += [(idx, m + j) for j, idx in enumerate(feet)]
    mask = spec.spine_mask | spec.legs_mask << (m - 1)
    return OrientedTree._trusted(spec.n, tuple(orientation_arcs(edges, mask)))


# ---------------------------------------------------------------------------
# orientations of a base tree


def orient(base: BaseTree, mask: int) -> OrientedTree:
    """One orientation of ``base``, selected edge by edge.

    Bit i of ``mask`` flips edge i of ``base.edges`` (bit 0 keeps the listed
    (min, max) direction).  Masks 0..2^(n-1)-1 enumerate all orientations
    exactly once, and complementary masks are mutual reversals.
    """
    width = len(base.edges)
    mask = _int(mask, "mask")
    if not (0 <= mask < (1 << width)):
        # no digits: a decimal str() of more than 4,300 digits would raise
        raise SpecInvalidError(
            f"mask out of range for {width} edges: need 0 <= mask < 2**{width}"
        )
    return OrientedTree._trusted(base.n, tuple(orientation_arcs(base.edges, mask)))


def mask_bits(mask: int, width: int) -> str:
    """Bits 0..width-1 of a non-negative ``mask``, bit i as character i
    ("0" or "1").  One pass over the mask, where a shift per bit would cost
    O(width) each."""
    return bin(mask)[:1:-1].ljust(width, "0")[:width]


def orientation_arcs(edges: Sequence[tuple[int, int]], mask: int) -> list[tuple[int, int]]:
    """The (min, max) ``edges`` with edge i reversed where bit i of ``mask``
    is set, in sorted order: the arcs that :class:`OrientedTree` stores, for
    a mask known to be in range.  Nothing is built or validated."""
    bits = mask_bits(mask, len(edges))
    arcs = [(v, u) if bit == "1" else (u, v) for (u, v), bit in zip(edges, bits)]
    arcs.sort()
    return arcs


def rooted_orientation(base: BaseTree, root: int, sense: str) -> OrientedTree:
    """Orient every edge away from (``sense='out'``) or toward (``'in'``) the root."""
    if sense not in ("out", "in"):
        raise ValueError(f"sense must be 'out' or 'in', got {sense!r}")
    root = _int(root, "root")
    if not (0 <= root < base.n):
        raise SpecInvalidError(f"root {root} outside 0..{base.n - 1}")
    order, parent, _ = _walk(root, base.adjacency)
    if sense == "out":
        arcs = sorted((parent[v], v) for v in order[1:])
    else:
        arcs = sorted((v, parent[v]) for v in order[1:])
    return OrientedTree._trusted(base.n, tuple(arcs))


# ---------------------------------------------------------------------------
# canonical codes (AHU encoding rooted at the tree center)
#
# One encoder, :func:`_ahu`, serves free and oriented trees, codes and
# labellings alike.  It works bottom-up over a breadth-first walk, so it has
# no recursion depth to exceed, and it keeps only the codes of subtrees whose
# parent is still open, so memory is linear (time is O(n * depth), the total
# length of the codes it builds).  A free tree's canonical form numbers its
# vertices breadth-first from the center with the smaller code (the first
# center on a tie), each vertex's children in the order of their codes.


def _centers(*adjs: Sequence[Sequence[int]]) -> list[int]:
    """The middle one or two vertices of a longest path, found by two walks."""
    order = _walk(0, *adjs)[0]
    order, parent, _ = _walk(order[-1], *adjs)
    longest = [order[-1]]
    while parent[longest[-1]] >= 0:
        longest.append(parent[longest[-1]])
    length = len(longest)
    return sorted(longest[(length - 1) // 2 : length // 2 + 1])


def _ahu(
    root: int, opens: Sequence[str], *adjs: Sequence[Sequence[int]]
) -> tuple[str, list[tuple[int, ...]]]:
    """AHU code rooted at ``root`` of the tree that the neighbor tuples
    ``adjs`` describe, and each vertex's children in code order.  Each
    subtree code opens with ``opens[i]``, i the tuple in which its parent
    lists it (:func:`trees._walk`'s ``side``)."""
    order, parent, side = _walk(root, *adjs)
    pending: list[list[tuple[str, int]]] = [[] for _ in order]
    children: list[tuple[int, ...]] = [() for _ in order]
    for v in order[::-1]:  # children before parents, the root last
        kids = pending[v]
        pending[v] = []
        code = ")"
        if kids:
            kids.sort()
            codes, children[v] = zip(*kids)
            code = "".join(codes) + code
        if v != root:
            pending[parent[v]].append((opens[side[v]] + code, v))
    return "(" + code, children


def _canonical(base: BaseTree) -> tuple[str, int, list[tuple[int, ...]]]:
    """:func:`canonical_code`, the center it is read from (the first center
    on a tie) and each vertex's children in code order, from one AHU pass
    per center."""
    adj = base.adjacency
    best = None
    for c in _centers(adj):
        code, children = _ahu(c, ("(",), adj)
        if best is None or code < best[0]:
            best = code, c, children
    return best


def _labels(root: int, children: Sequence[Sequence[int]]) -> list[int]:
    """Each vertex's position in the breadth-first walk from ``root`` that
    visits children in the given order."""
    label = [0] * len(children)
    for i, v in enumerate(_walk(root, children)[0]):
        label[v] = i
    return label


def _relabeled(base: BaseTree, label: Sequence[int]) -> BaseTree:
    """``base`` with vertex v renamed ``label[v]``, ``label`` a permutation."""
    pairs = ((label[u], label[v]) for u, v in base.edges)
    return BaseTree._trusted(
        base.n, tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs))
    )


def canonical_code(base: BaseTree) -> str:
    """Isomorphism-invariant encoding: equal codes iff isomorphic trees."""
    return _canonical(base)[0]


def canonical_labels(base: BaseTree) -> list[int]:
    """Each vertex's label in :func:`canonical_form`: breadth-first from the
    center whose :func:`canonical_code` is smaller, each vertex's children in
    code order."""
    _, root, children = _canonical(base)
    return _labels(root, children)


def canonical_form(base: BaseTree) -> BaseTree:
    """A canonically relabeled copy; isomorphic inputs map to equal values."""
    return _relabeled(base, canonical_labels(base))


def oriented_canonical_code(t: OrientedTree) -> str:
    """Canonical code of an oriented tree; equal codes iff directed-isomorphic.

    Each subtree code carries the direction of the edge joining it to its
    parent, "<" toward the root and ">" away from it, so two orientations of
    the same base tree get distinct codes unless a direction-preserving
    isomorphism maps one to the other.
    """
    adjs = (t.in_neighbors, t.out_neighbors)
    return min(_ahu(c, ("<(", ">("), *adjs)[0] for c in _centers(*adjs))


# ---------------------------------------------------------------------------
# free trees


def free_trees(n: int) -> list[BaseTree]:
    """One canonically labeled representative per isomorphism class.

    Grows trees one leaf at a time, deduplicating by canonical code at every
    size; output is sorted by code, so the order is stable across runs.  One
    AHU pass per grown tree gives both its code and, when the code is new,
    its canonical form.
    """
    n = _int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _FREE_TREE_CAP:
        raise TooLargeError(f"free-tree enumeration capped at n <= {_FREE_TREE_CAP}")
    level: dict[str, BaseTree] = {"()": BaseTree(1, ())}
    for size in range(2, n + 1):
        nxt: dict[str, BaseTree] = {}
        for tree in level.values():
            for v in range(size - 1):
                edges = tuple(sorted((*tree.edges, (v, size - 1))))
                grown = BaseTree._trusted(size, edges)
                code, root, children = _canonical(grown)
                if code not in nxt:
                    nxt[code] = _relabeled(grown, _labels(root, children))
        level = nxt
    return [level[code] for code in sorted(level)]


# ---------------------------------------------------------------------------
# labeled trees via generator sequences


def sequence_to_edges(seq: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    """Decode a length-(n-2) generator sequence over 0..n-1 into tree edges.

    Standard decoding: repeatedly join the smallest remaining leaf to the
    next sequence entry, then join the last two survivors.  Linear time: a
    pointer scans upward for the next leaf, and an entry that becomes a leaf
    below the pointer is itself the smallest leaf, so it is used next.  The
    last two survivors are that leaf and n - 1, which is never the smallest
    of two or more leaves.
    """
    n = _int(n, "n")
    seq = [_int(x, "sequence entry") for x in seq]
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(seq) != max(n - 2, 0):
        raise ValueError(f"sequence for n={n} must have length {max(n - 2, 0)}")
    bad = [x for x in seq if not 0 <= x < n]
    if bad:
        raise ValueError(f"sequence entry {bad[0]} outside 0..{n - 1}")
    return _decode(seq, n)


def _decode(seq: list[int], n: int) -> tuple[tuple[int, int], ...]:
    """:func:`sequence_to_edges` of a sequence of ints already valid for
    ``n >= 1``; nothing is checked."""
    if n == 1:
        return ()
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    ptr = leaf = degree.index(1)
    edges = []
    for x in seq:
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return tuple(edges)


def random_tree(n: int, seed: int) -> BaseTree:
    """Uniform random labeled tree; fixed seed gives a fixed tree.  The
    sequence is drawn in range, so it is decoded unchecked, and the decoded
    sequence is a tree by construction, so it is not validated."""
    n, seed = _int(n, "n"), _int(seed, "seed")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return BaseTree._trusted(n, tuple(sorted(_decode(seq, n))))
