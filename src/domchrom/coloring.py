"""Colorings, dominator-coloring verification, and checkable certificates.

A coloring is valid when it is proper on the underlying tree and every
vertex with at least one out-neighbor contains some entire color class
inside its out-neighborhood.  Vertices with no out-neighbors satisfy the
requirement vacuously; certificates record this explicitly as a sink
exemption so the convention is visible in output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import BadVertexIdError, SizeMismatchError, _int
from .trees import OrientedTree

#: Witness marker for vertices with empty out-neighborhood.
SINK_EXEMPT = "sink_exempt"


@dataclass(frozen=True)
class Coloring:
    """A total vertex -> color assignment in canonical (first-use) form.

    Color identifiers are 1..k, every identifier is used, and identifiers
    appear in first-use order when scanning vertices 0..n-1.  Use
    :meth:`from_labels` to canonicalize arbitrary positive labels.
    """

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        colors = tuple(_int(c, "color", ValueError) for c in self.colors)
        object.__setattr__(self, "colors", colors)
        if not colors:
            raise ValueError("coloring must cover at least one vertex")
        top = 0
        for i, c in enumerate(colors):
            if c == top + 1:
                top = c
            elif not 1 <= c <= top:
                raise ValueError(
                    f"colors must be canonical (first-use order); offending vertex {i}"
                )

    @classmethod
    def from_labels(cls, labels: Iterable[int]) -> "Coloring":
        """Relabel arbitrary positive labels into canonical first-use order."""
        seen: dict[int, int] = {}
        out = []
        for lab in labels:
            c = seen.get(lab)
            if c is None:
                c = seen[lab] = len(seen) + 1
            out.append(c)
        if not out:
            raise ValueError("coloring must cover at least one vertex")
        return cls._trusted(tuple(out), len(seen))

    @classmethod
    def _trusted(cls, colors: tuple[int, ...], k: int) -> "Coloring":
        """``colors`` in first-use form with k colors, checked no further."""
        coloring = object.__new__(cls)
        object.__setattr__(coloring, "colors", colors)
        object.__setattr__(coloring, "k", k)  # what the cached ``k`` would hold
        return coloring

    @cached_property
    def k(self) -> int:
        return max(self.colors)

    def __len__(self) -> int:
        return len(self.colors)

    def class_of(self, color: int) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == color)


ColoringLike = Union[Coloring, Sequence[int]]


def canonicalize(c: ColoringLike) -> Coloring:
    """Return the canonical relabeling of ``c``.  A :class:`Coloring` is
    canonical by construction and is returned as it is."""
    if isinstance(c, Coloring):
        return c
    return Coloring.from_labels(c)


@dataclass(frozen=True)
class ImproperEdge:
    """Arc whose endpoints share a color (propriety ignores direction)."""

    arc: tuple[int, int]


@dataclass(frozen=True)
class NoDominatedClass:
    """Vertex with out-neighbors but no color class fully inside them."""

    vertex: int


Violation = Union[ImproperEdge, NoDominatedClass]


@dataclass(frozen=True)
class DominatorCertificate:
    """A coloring plus one domination witness per vertex.

    ``witnesses[v]`` is either the color id of a class entirely contained in
    v's out-neighborhood, or :data:`SINK_EXEMPT` when v has no out-neighbors.
    Certificates carry everything needed to re-validate without the solver.
    """

    coloring: Coloring
    witnesses: tuple[int | str, ...]

    @property
    def k(self) -> int:
        return self.coloring.k


def _coerce(t: OrientedTree, c: ColoringLike) -> Coloring:
    if len(c) != t.n:
        raise SizeMismatchError(f"coloring covers {len(c)} vertices, tree has {t.n}")
    return canonicalize(c)


def _class_masks(colors: Sequence[int], k: int) -> list[int]:
    masks = [0] * (k + 1)
    for v, c in enumerate(colors):
        masks[c] |= 1 << v
    return masks


def _check_colors(t: OrientedTree, colors: Sequence[int]) -> bool:
    """Validity test on raw color lists, the brute-force oracle's filter.  It
    works on n-bit vertex sets and shares no code with :func:`verify_dominator`,
    so that the oracle stays independent of the verifier."""
    for u, v in t.arcs:
        if colors[u] == colors[v]:
            return False
    k = max(colors)
    masks = _class_masks(colors, k)
    outs = [0] * t.n
    for u, v in t.arcs:
        outs[u] |= 1 << v
    full = (1 << t.n) - 1
    for out in outs:
        if out == 0:
            continue
        outside = full ^ out
        for c in range(1, k + 1):
            if masks[c] and masks[c] & outside == 0:
                break
        else:
            return False
    return True


def is_proper(t: OrientedTree, c: ColoringLike) -> list[ImproperEdge]:
    """All arcs whose endpoints share a color, sorted; empty means proper."""
    bad, _ = _witnesses(_coerce(t, c).colors, enumerate(t.out_neighbors))
    return [ImproperEdge(arc) for arc in bad]


def _witnesses(
    colors: Sequence[int], pairs: Iterable[tuple[int, Sequence[int]]]
) -> tuple[list[tuple[int, int]], list[int | str]]:
    """The verifier's one counting pass over ``pairs`` (v, out), ``out`` a
    tuple of out-neighbors of v: the arcs (v, x) whose ends share a color, in
    order, and per pair the least color whose class lies inside ``out`` (0 if
    none, SINK_EXEMPT if ``out`` is empty).  A class lies inside ``out``
    exactly when ``out`` has as many vertices of its color as it has, so
    ``count`` is filled for one tuple, read, and emptied again before the
    next."""
    size = [0] * (len(colors) + 1)
    for c in colors:
        size[c] += 1
    count = [0] * len(size)
    bad = []
    witnesses: list[int | str] = []
    for v, out in pairs:
        if not out:
            witnesses.append(SINK_EXEMPT)
            continue
        cv = colors[v]
        for x in out:
            count[colors[x]] += 1
        best = 0
        for x in out:
            c = colors[x]
            if count[c] == size[c]:  # emptied below, so each color once
                if best == 0 or c < best:
                    best = c
            elif c == cv:  # v's own class is never inside N+(v)
                bad.append((v, x))
            count[c] = 0
        witnesses.append(best)
    return bad, witnesses


def dominated_classes(t: OrientedTree, c: ColoringLike, v: int) -> frozenset[int]:
    """Color ids whose entire class lies inside N+(v); empty for sinks.
    Raises :class:`BadVertexIdError` when v is not a vertex of ``t``."""
    colors = _coerce(t, c).colors
    u = _int(v, "vertex", BadVertexIdError)
    if not 0 <= u < t.n:
        raise BadVertexIdError(f"vertex {v!r} is outside 0..{t.n - 1}")
    # one tuple per color among v's out-neighbors: its witness is that color or 0
    groups: dict[int, list[int]] = {}
    for x in t.out_neighbors[u]:
        groups.setdefault(colors[x], []).append(x)
    _, found = _witnesses(colors, [(u, tuple(g)) for g in groups.values()])
    return frozenset(filter(None, found))


def verify_dominator(
    t: OrientedTree, c: ColoringLike
) -> DominatorCertificate | list[Violation]:
    """Check the full dominator-coloring condition in one pass over the arcs.

    Returns a certificate on success (the witness for each non-sink vertex is
    the smallest dominated color id), otherwise the exhaustive sorted list of
    violations: improper arcs, then non-sinks that dominate no class.
    """
    col = _coerce(t, c)
    bad, witnesses = _witnesses(col.colors, enumerate(t.out_neighbors))
    if bad or 0 in witnesses:  # 0 marks a non-sink that dominates no class
        violations: list[Violation] = [ImproperEdge(arc) for arc in bad]
        violations.extend(NoDominatedClass(v) for v, w in enumerate(witnesses) if w == 0)
        return violations
    return DominatorCertificate(coloring=col, witnesses=tuple(witnesses))


def recheck_certificate(t: OrientedTree, cert: DominatorCertificate) -> bool:
    """Re-validate a certificate from scratch, using only the tree and the
    coloring it carries.  Any class inside N+(v) is a valid witness for v; a
    witness other than the smallest is counted again over v's out-neighbors
    of its color."""
    if len(cert.coloring) != t.n or len(cert.witnesses) != t.n:
        return False
    colors = cert.coloring.colors
    outs = t.out_neighbors
    bad, smallest = _witnesses(colors, enumerate(outs))
    if bad or 0 in smallest:  # improper, or a non-sink dominates no class
        return False
    claims, claimed = [], []
    for v, (w, s) in enumerate(zip(cert.witnesses, smallest)):
        if s == SINK_EXEMPT:
            if w != SINK_EXEMPT:
                return False
        elif type(w) is not int:  # a bool is no color
            return False
        elif w != s:
            claims.append((v, tuple(x for x in outs[v] if colors[x] == w)))
            claimed.append(w)
    return _witnesses(colors, claims)[1] == claimed
