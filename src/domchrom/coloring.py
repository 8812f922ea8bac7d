"""Colorings, dominator-coloring verification, and checkable certificates.

A coloring is valid when it is proper on the underlying tree and every
vertex with at least one out-neighbor contains some entire color class
inside its out-neighborhood.  Vertices with no out-neighbors satisfy the
requirement vacuously; certificates record this explicitly as a sink
exemption so the convention is visible in output.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator, Sequence, Union

from .errors import BadVertexIdError, SizeMismatchError
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
        try:
            colors = tuple(map(index, self.colors))
        except TypeError as exc:
            raise ValueError(f"colors must be integers: {exc}") from None
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
        return cls(tuple(out))

    @property
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
    colors = _coerce(t, c).colors
    return [ImproperEdge((u, w)) for u, w in t.arcs if colors[u] == colors[w]]


def _dominated(t: OrientedTree, colors: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Every pair (v, c) such that the class of color c lies inside N+(v),
    once each and in vertex order.

    The class of c lies inside N+(v) exactly when v has as many out-neighbors
    of color c as the class has vertices, so one pass over the out-neighbor
    tuples decides every vertex and every class: ``count`` is filled for one
    neighborhood, read, and emptied again before the next.
    """
    size = [0] * (len(colors) + 1)
    for c in colors:
        size[c] += 1
    count = [0] * len(size)
    vs: list[int] = []
    cs: list[int] = []
    for v, out in enumerate(t.out_neighbors):
        for x in out:
            count[colors[x]] += 1
        for x in out:
            c = colors[x]
            if count[c] == size[c]:  # emptied below, so each color once
                vs.append(v)
                cs.append(c)
            count[c] = 0
    return zip(vs, cs)


def dominated_classes(t: OrientedTree, c: ColoringLike, v: int) -> frozenset[int]:
    """Color ids whose entire class lies inside N+(v); empty for sinks.
    Raises :class:`BadVertexIdError` when v is not a vertex of ``t``."""
    col = _coerce(t, c)
    try:
        u = index(v)
    except TypeError:
        u = -1
    if not 0 <= u < t.n:
        raise BadVertexIdError(f"vertex {v!r} is outside 0..{t.n - 1}")
    return frozenset(c_ for w, c_ in _dominated(t, col.colors) if w == u)


def verify_dominator(
    t: OrientedTree, c: ColoringLike
) -> DominatorCertificate | list[Violation]:
    """Check the full dominator-coloring condition.

    Returns a certificate on success (the witness for each non-sink vertex is
    the smallest dominated color id), otherwise the exhaustive sorted list of
    violations.
    """
    col = _coerce(t, c)
    violations: list[Violation] = is_proper(t, col)
    # 0 marks a non-sink that dominates no class (yet)
    witnesses: list[int | str] = [0 if out else SINK_EXEMPT for out in t.out_neighbors]
    for v, c_ in _dominated(t, col.colors):
        w = witnesses[v]
        if w == 0 or c_ < w:
            witnesses[v] = c_
    violations.extend(NoDominatedClass(v) for v, w in enumerate(witnesses) if w == 0)
    if violations:
        return violations
    return DominatorCertificate(coloring=col, witnesses=tuple(witnesses))


def recheck_certificate(t: OrientedTree, cert: DominatorCertificate) -> bool:
    """Re-validate a certificate from scratch, using only the tree and the
    coloring it carries.  Any class inside N+(v) is a valid witness for v."""
    if len(cert.coloring) != t.n or len(cert.witnesses) != t.n:
        return False
    if is_proper(t, cert.coloring):
        return False
    dominated = set(_dominated(t, cert.coloring.colors))
    outs = t.out_neighbors
    for v, w in enumerate(cert.witnesses):
        if w == SINK_EXEMPT:
            if outs[v]:
                return False
        elif type(w) is not int or (v, w) not in dominated:  # a bool is no color
            return False
    return True
