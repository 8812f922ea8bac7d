"""Closed-form values and constructive colorings for special tree families.

Every formula here is paired elsewhere with the exact solver: the harness
sweeps confirm the closed forms on exhaustive corpora, and the constructions
return certificates that the verifier re-checks, so nothing in this module
has to be taken on faith.  A star's value and its verified witness are two
functions, since a campaign needs only the value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring, DominatorCertificate, Violation, verify_dominator
from .errors import KTooSmallError, NotRootedError, SpineNotDirectedError, _int
from .generators import CaterpillarSpec, GsSpec, caterpillar, gs, mask_bits, orient, star
from .trees import OrientedTree, classify_rooted


def _certified(t: OrientedTree, labels: list[int]) -> DominatorCertificate:
    """The certificate of ``labels`` on ``t``, whose construction must
    verify; only the classes count, since the labels are renumbered by
    first use."""
    cert = verify_dominator(t, Coloring.from_labels(labels))
    if not isinstance(cert, DominatorCertificate):  # pragma: no cover
        raise RuntimeError("construction failed verification")
    return cert


def chi_directed_path(n: int) -> int:
    """Dominator chromatic number of the directed path on n vertices."""
    n = _int(n, "n")
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
    n = _int(n, "n")
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
        return _rooted_chi(t.n, len(t.sinks))
    if rc.in_root is not None:
        return _rooted_chi(t.n, len(t.sources))
    raise NotRootedError("tree is neither an out-tree nor an in-tree")


def _rooted_chi(n: int, leaves: int) -> int:
    """:func:`chi_rooted` of an out- or in-tree on ``n`` vertices with
    ``leaves`` directed leaves."""
    return n - leaves + 1


def chi_star(mask: int, m: int) -> int:
    """Value for an oriented star: 2 when all arcs agree, 3 otherwise.

    ``mask`` has one bit per leaf (bit j set = leaf j+1 points at the
    center); :func:`star_coloring` is the witness.
    """
    mask, m = _int(mask, "mask"), _int(m, "m")
    if m < 1:
        raise ValueError("star needs m >= 1 leaves")
    if not (0 <= mask < (1 << m)):
        raise ValueError("mask out of range")
    return 2 if mask in (0, (1 << m) - 1) else 3


def star_coloring(mask: int, m: int) -> DominatorCertificate:
    """A verified coloring of ``orient(star(m), mask)`` with ``chi_star(mask, m)``
    colors: the center alone, the out-leaves as the class it dominates, and
    the in-leaves, which need the center's class to be unique, as a third."""
    t = orient(star(m), mask)  # reads and checks m and mask
    return _certified(t, [1] + [3 if out else 2 for out in t.out_neighbors[1:]])


def gs_uniform_chi(m: int, k: int) -> int:
    """Exact value for a generalized star oriented as an out- or in-tree."""
    m, k = _int(m, "m"), _int(k, "k")
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    return m * (k - 1) + 2


def gs_layered_bound(m: int, k: int) -> int:
    """Upper bound achieved by the layered orientation, defined for k >= 2."""
    m, k = _int(m, "m"), _int(k, "k")
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
    for layer in range(1, spec.k + 1):
        for j in range(spec.m):
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
    verified = isinstance(outcome, DominatorCertificate)
    return LayeredStarResult(
        tree=tree,
        coloring=coloring,
        colors_used=coloring.k,
        bound=bound,
        certificate=outcome if verified else None,
        violations=() if verified else tuple(outcome),
    )


# ---------------------------------------------------------------------------
# caterpillars


def caterpillar_upper_coloring(spec: CaterpillarSpec) -> DominatorCertificate:
    """Constructive coloring of an oriented caterpillar with <= 2m-1 colors,
    verified on ``caterpillar(spec)``; see :func:`_caterpillar_upper_labels`."""
    return _certified(caterpillar(spec), _caterpillar_upper_labels(spec))


def _caterpillar_upper_labels(spec: CaterpillarSpec) -> list[int]:
    """The labels of :func:`caterpillar_upper_coloring`.

    Read off the spec: the spine 0..m-1 gets unique colors, and leg j is
    vertex m + j in ``spec.legs`` order.  Legs whose ``legs_mask`` bit is
    set are sources pointing at the spine; they share one color (their
    spine target is uniquely colored, so they dominate it).  The others are
    sinks fed by their spine vertex, one class per feeding vertex, which
    that vertex dominates when it has no spine out-arc.
    """
    m = spec.spine_len
    feet = [idx for idx, count in spec.legs for _ in range(count)]
    sources = mask_bits(spec.legs_mask, len(feet))
    legs = [m + 1 if bit == "1" else m + 2 + idx for idx, bit in zip(feet, sources)]
    return list(range(1, m + 1)) + legs


def directed_spine_coloring(spec: CaterpillarSpec) -> DominatorCertificate:
    """Exactly m colors when the spine is a directed path, verified on
    ``caterpillar(spec)``; see :func:`_directed_spine_labels`."""
    return _certified(caterpillar(spec), _directed_spine_labels(spec))


def _directed_spine_labels(spec: CaterpillarSpec) -> list[int]:
    """The labels of :func:`directed_spine_coloring`.

    The spine is directed exactly when ``spine_mask`` is 0, its head then
    vertex 0, or all ones, its head m - 1.  The spine gets unique colors and
    every leg reuses the head's color (legs sit on 1..m-2, so the head has
    none): sources dominate their uniquely colored spine target and sinks
    are exempt.
    """
    m = spec.spine_len
    if spec.spine_mask not in (0, (1 << (m - 1)) - 1):
        raise SpineNotDirectedError("spine is not a directed path")
    head = 1 if spec.spine_mask == 0 else m
    return list(range(1, m + 1)) + [head] * (spec.n - m)
