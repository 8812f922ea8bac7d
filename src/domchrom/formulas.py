"""Closed-form values and constructive colorings for special tree families.

Every formula here is paired elsewhere with the exact solver: the harness
sweeps confirm the closed forms on exhaustive corpora, and the constructions
return certificates that the verifier re-checks, so nothing in this module
has to be taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring, DominatorCertificate, Violation, verify_dominator
from .errors import (
    KTooSmallError,
    NotACaterpillarError,
    NotRootedError,
    SpineNotDirectedError,
)
from .generators import GsSpec, gs, star, orient
from .trees import OrientedTree, classify_rooted, directed_leaf_count


def chi_directed_path(n: int) -> int:
    """Dominator chromatic number of the directed path on n vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


#: Minimum over orientations for paths too short for the general formula,
#: derived by brute force over all orientations (see test suite).
_SMALL_PATH_MIN = {1: 1, 2: 2, 3: 2}


def chi_path_orientation_min(n: int) -> int:
    """Minimum dominator chromatic number over all orientations of the path.

    Piecewise in n mod 4 for n >= 4, with the single exception at n = 6; the
    n <= 3 values come from the stored brute-force table.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 3:
        return _SMALL_PATH_MIN[n]
    if n == 6:
        return 3
    k, r = divmod(n, 4)
    return k + 2 if r in (0, 1) else k + 3


def chi_rooted(t: OrientedTree) -> int:
    """Exact value for out-trees and in-trees: n - (directed leaves) + 1.

    Directed leaves are the sinks of an out-tree or the sources of an
    in-tree; a directed path is both and yields the same value either way.
    """
    rc = classify_rooted(t)
    if rc.out_root is not None:
        return t.n - directed_leaf_count(t, "out-tree") + 1
    if rc.in_root is not None:
        return t.n - directed_leaf_count(t, "in-tree") + 1
    raise NotRootedError("tree is neither an out-tree nor an in-tree")


@dataclass(frozen=True)
class StarValue:
    """Star orientation value with a witness certificate achieving it."""

    chi: int
    tree: OrientedTree
    certificate: DominatorCertificate


def chi_star(mask: int, m: int) -> StarValue:
    """Value for an oriented star: 2 when all arcs agree, 3 otherwise.

    ``mask`` has one bit per leaf (bit j set = leaf j+1 points at the
    center).  The returned certificate is rebuilt constructively and
    re-verified.
    """
    if m < 1:
        raise ValueError("star needs m >= 1 leaves")
    if not (0 <= mask < (1 << m)):
        raise ValueError("mask out of range")
    tree = orient(star(m), mask)
    uniform = mask == 0 or mask == (1 << m) - 1
    if uniform:
        labels = [1] + [2] * m
    else:
        # in-leaves force a unique center color; out-leaves form the class
        # the center dominates; in-leaves take a third color.
        labels = [1] + [3 if (mask >> (j - 1)) & 1 else 2 for j in range(1, m + 1)]
    cert = verify_dominator(tree, Coloring.from_labels(labels))
    if not isinstance(cert, DominatorCertificate):  # pragma: no cover
        raise RuntimeError("star witness construction failed verification")
    return StarValue(chi=2 if uniform else 3, tree=tree, certificate=cert)


def gs_uniform_chi(m: int, k: int) -> int:
    """Exact value for a generalized star oriented as an out- or in-tree."""
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    return m * (k - 1) + 2


def gs_layered_bound(m: int, k: int) -> int:
    """Upper bound achieved by the layered orientation, defined for k >= 2."""
    if m < 1:
        raise ValueError("need m >= 1")
    if k < 2:
        raise KTooSmallError("layered bound needs k >= 2")
    return 3 + m * (k // 2 - 1)


@dataclass(frozen=True)
class LayeredStarResult:
    """Layered generalized-star construction with its verification outcome.

    For even k the coloring always verifies and ``colors_used`` equals the
    layered bound.  For odd k the final odd layer points into the shared
    second-layer class, the construction can fail domination for m >= 2, and
    the actual outcome is reported instead of asserted.
    """

    tree: OrientedTree
    coloring: Coloring
    colors_used: int
    bound: int
    certificate: DominatorCertificate | None
    violations: tuple[Violation, ...]

    @property
    def verifies(self) -> bool:
        return self.certificate is not None


def build_layered_gs(m: int, k: int) -> LayeredStarResult:
    """Build the layered orientation and its layer-based coloring.

    Arcs run from odd layers into adjacent even layers.  One color is shared
    by every odd layer, one goes to the center, one is shared by the second
    layer, and each vertex of every deeper even layer is colored uniquely.
    """
    bound = gs_layered_bound(m, k)  # validates m, k
    spec = GsSpec(m, k, "layered")
    tree = gs(spec)
    labels = [0] * spec.n
    odd_color = 1
    center_color = 2
    s2_color = 3
    labels[0] = center_color
    nxt = 4
    for layer in range(1, k + 1):
        for j in range(m):
            v = spec.layer_vertex(j, layer)
            if layer % 2 == 1:
                labels[v] = odd_color
            elif layer == 2:
                labels[v] = s2_color
            else:
                labels[v] = nxt
                nxt += 1
    coloring = Coloring.from_labels(labels)
    outcome = verify_dominator(tree, coloring)
    if isinstance(outcome, DominatorCertificate):
        return LayeredStarResult(
            tree=tree,
            coloring=coloring,
            colors_used=coloring.k,
            bound=bound,
            certificate=outcome,
            violations=(),
        )
    return LayeredStarResult(
        tree=tree,
        coloring=coloring,
        colors_used=coloring.k,
        bound=bound,
        certificate=None,
        violations=tuple(outcome),
    )


# ---------------------------------------------------------------------------
# caterpillars


@dataclass(frozen=True)
class CaterpillarView:
    """A caterpillar seen as a longest path (spine) plus off-spine legs.

    ``spine`` is the deterministic longest path (lexicographically smallest
    vertex sequence over all longest paths, read from its smaller endpoint).
    ``legs`` holds the off-spine arcs, each joining a spine vertex to one
    off-spine leaf.
    """

    spine: tuple[int, ...]
    legs: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.spine)


def _bfs(t: OrientedTree, src: int) -> tuple[list[int], list[int]]:
    """Underlying distances from ``src`` and the vertices in visiting order."""
    dist = [-1] * t.n
    dist[src] = 0
    order = [src]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for w in t.neighbors[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                order.append(w)
    return dist, order


def _longest_path(t: OrientedTree) -> tuple[int, ...]:
    """The lexicographically smallest longest path, read from its smaller end.

    A vertex ends some longest path exactly when its eccentricity is the
    diameter D, and the eccentricity of v is max(d(x, v), d(y, v)) for the
    two ends x, y of any one longest path.  The smallest such vertex a
    starts the path.  Rooted at a, every longest path descends through
    subtrees of heights D - 1, D - 2, ..., 0, so taking the smallest child
    of the required height at each step gives the smallest sequence.
    Linear in n.
    """
    _, order = _bfs(t, 0)
    dx, order = _bfs(t, order[-1])
    dy, _ = _bfs(t, order[-1])
    diameter = dx[order[-1]]
    a = next(v for v in range(t.n) if max(dx[v], dy[v]) == diameter)
    dist, order = _bfs(t, a)
    height = [0] * t.n
    for v in reversed(order):
        for w in t.neighbors[v]:
            if dist[w] == dist[v] - 1 and height[w] <= height[v]:
                height[w] = height[v] + 1
    spine = [a]
    for h in range(diameter - 1, -1, -1):
        u = spine[-1]
        spine.append(
            min(w for w in t.neighbors[u] if dist[w] == dist[u] + 1 and height[w] == h)
        )
    return tuple(spine)


def central_path(t: OrientedTree) -> CaterpillarView:
    """Deterministic longest underlying path with attached legs.

    The spine is the lexicographically smallest longest path, written from
    its smaller endpoint (see :func:`_longest_path`).  Raises when some
    vertex is farther than one step from the chosen spine.
    """
    n = t.n
    best = _longest_path(t)
    spine_set = set(best)
    legs = []
    for tail, head in t.arcs:
        if tail in spine_set and head in spine_set:
            continue
        legs.append((tail, head))
    for v in range(n):
        if v in spine_set:
            continue
        if not any(w in spine_set for w in t.neighbors[v]):
            raise NotACaterpillarError(
                f"vertex {v} is at distance >= 2 from the central path"
            )
    return CaterpillarView(spine=best, legs=tuple(sorted(legs)))


def caterpillar_upper_coloring(t: OrientedTree) -> DominatorCertificate:
    """Constructive coloring of an oriented caterpillar with <= 2m-1 colors.

    Spine vertices get unique colors.  Off-spine sources share one fresh
    color (their spine target is uniquely colored, so they dominate it);
    the remaining off-spine vertices are sinks fed by their spine neighbor
    and are grouped into one class per feeding spine vertex, which that
    vertex dominates when it has no spine out-arc.
    """
    view = central_path(t)
    labels = [0] * t.n
    for i, v in enumerate(view.spine):
        labels[v] = i + 1
    nxt = view.m + 1
    source_color = None
    spine_set = set(view.spine)
    group_color: dict[int, int] = {}
    for tail, head in sorted(view.legs):
        if head in spine_set:  # off-spine source pointing at the spine
            if source_color is None:
                source_color = nxt
                nxt += 1
            labels[tail] = source_color
        else:  # spine vertex feeding an off-spine sink
            if tail not in group_color:
                group_color[tail] = nxt
                nxt += 1
            labels[head] = group_color[tail]
    cert = verify_dominator(t, Coloring.from_labels(labels))
    if not isinstance(cert, DominatorCertificate):  # pragma: no cover
        raise RuntimeError("caterpillar construction failed verification")
    return cert


def _directed_spine(t: OrientedTree, spine: tuple[int, ...]) -> tuple[int, ...] | None:
    """The spine ordered along its arc directions, or None when not directed."""
    if len(spine) == 1:
        return spine
    arcs = set(t.arcs)
    if all((spine[i], spine[i + 1]) in arcs for i in range(len(spine) - 1)):
        return spine
    if all((spine[i + 1], spine[i]) in arcs for i in range(len(spine) - 1)):
        return tuple(reversed(spine))
    return None


def directed_spine_coloring(t: OrientedTree) -> DominatorCertificate:
    """Exactly m colors when the central path is a directed path.

    The spine v1 -> ... -> vm is colored 1..m; every off-spine vertex reuses
    the color of v1 (as a longest-path endpoint, v1 has no legs): off-spine
    sources dominate their uniquely colored spine target and off-spine sinks
    are exempt.
    """
    view = central_path(t)
    ordered = _directed_spine(t, view.spine)
    if ordered is None:
        raise SpineNotDirectedError("central path is not a directed path")
    labels = [0] * t.n
    for i, v in enumerate(ordered):
        labels[v] = i + 1
    head_color = labels[ordered[0]]
    for v in range(t.n):
        if labels[v] == 0:
            labels[v] = head_color
    cert = verify_dominator(t, Coloring.from_labels(labels))
    if not isinstance(cert, DominatorCertificate):  # pragma: no cover
        raise RuntimeError("directed-spine construction failed verification")
    return cert
