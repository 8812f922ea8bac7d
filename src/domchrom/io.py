"""File formats and compact instance encodings.

Tree files: first content line ``n <count>``, then one ``<tail> <head>`` line
per arc (0-based), ``#`` starts a comment, LF endings.  Coloring files: one
``<vertex> <color>`` line per vertex with 1-based colors.  Compact codes like
``4:0>1,2>1,2>3`` embed instances into reports so every record can be
replayed on its own.
"""

from __future__ import annotations

import os
from typing import IO, Iterable, Union

from .coloring import Coloring, DominatorCertificate, SINK_EXEMPT
from .errors import DomchromError
from .trees import BaseTree, OrientedTree

PathLike = Union[str, "os.PathLike[str]"]


class FormatError(DomchromError, ValueError):
    """Malformed tree or coloring file."""


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_tree(text: str) -> OrientedTree:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty tree file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise FormatError(f"first line must be 'n <count>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad vertex count {head[1]!r}") from exc
    arcs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"arc line must be '<tail> <head>', got {line!r}")
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FormatError(f"bad arc line {line!r}") from exc
    return OrientedTree(n, tuple(arcs))


def format_tree(t: OrientedTree) -> str:
    lines = [f"n {t.n}"]
    lines.extend(f"{u} {v}" for u, v in t.arcs)
    return "\n".join(lines) + "\n"


def read_tree(path: PathLike | IO[str]) -> OrientedTree:
    if hasattr(path, "read"):
        return parse_tree(path.read())  # type: ignore[union-attr]
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def write_tree(t: OrientedTree, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_tree(t))


def parse_coloring(text: str, n: int) -> Coloring:
    lines = _content_lines(text)
    assigned: dict[int, int] = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"coloring line must be '<vertex> <color>', got {line!r}")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad coloring line {line!r}") from exc
        if v in assigned:
            raise FormatError(f"vertex {v} assigned twice")
        if c < 1:
            raise FormatError(f"colors are 1-based, got {c} for vertex {v}")
        assigned[v] = c
    missing = [v for v in range(n) if v not in assigned]
    if missing or len(assigned) != n:
        raise FormatError(f"coloring must assign every vertex 0..{n - 1} exactly once")
    return Coloring.from_labels([assigned[v] for v in range(n)])


def format_coloring(c: Coloring) -> str:
    return "\n".join(f"{v} {col}" for v, col in enumerate(c.colors)) + "\n"


def read_coloring(path: PathLike | IO[str], n: int) -> Coloring:
    if hasattr(path, "read"):
        return parse_coloring(path.read(), n)  # type: ignore[union-attr]
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coloring(fh.read(), n)


def to_dot(t: OrientedTree, coloring: Coloring | None = None, name: str = "tree") -> str:
    """DOT digraph; node labels carry color ids when a coloring is given."""
    lines = [f"digraph {name} {{"]
    for v in range(t.n):
        if coloring is not None:
            lines.append(f'  {v} [label="{coloring.colors[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in t.arcs:
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compact one-token encodings used inside reports


def encode_tree(t: OrientedTree) -> str:
    return encode_arcs(t.n, t.arcs)


def encode_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> str:
    """The code of the oriented tree on 0..n-1 whose arcs, in sorted order as
    :class:`OrientedTree` stores them, are ``arcs``; nothing is validated."""
    if n == 1:
        return "1:"
    return f"{n}:" + ",".join([f"{u}>{v}" for u, v in arcs])


def decode_tree(code: str) -> OrientedTree:
    head, _, body = code.partition(":")
    try:
        n = int(head)
    except ValueError as exc:
        raise FormatError(f"bad tree code {code!r}") from exc
    arcs = []
    if body:
        for token in body.split(","):
            tail, _, tip = token.partition(">")
            try:
                arcs.append((int(tail), int(tip)))
            except ValueError as exc:
                raise FormatError(f"bad arc token {token!r} in {code!r}") from exc
    return OrientedTree(n, tuple(arcs))


def encode_base(base: BaseTree) -> str:
    if base.n == 1:
        return "1:"
    return f"{base.n}:" + ",".join(f"{u}-{v}" for u, v in base.edges)


def decode_base(code: str) -> BaseTree:
    head, _, body = code.partition(":")
    try:
        n = int(head)
    except ValueError as exc:
        raise FormatError(f"bad base-tree code {code!r}") from exc
    edges = []
    if body:
        for token in body.split(","):
            a, _, b = token.partition("-")
            try:
                edges.append((int(a), int(b)))
            except ValueError as exc:
                raise FormatError(f"bad edge token {token!r} in {code!r}") from exc
    return BaseTree(n, tuple(edges))


def certificate_to_obj(cert: DominatorCertificate) -> dict:
    """JSON-ready form of a certificate."""
    return {
        "colors": list(cert.coloring.colors),
        "witnesses": [w if isinstance(w, int) else SINK_EXEMPT for w in cert.witnesses],
    }


def certificate_from_obj(obj: dict) -> DominatorCertificate:
    """Read back :func:`certificate_to_obj`: colors are plain ints in canonical
    order, and each witness a plain int or ``"sink_exempt"``; a JSON bool is
    neither.  Anything else raises :class:`FormatError`."""
    try:
        colors = tuple(obj["colors"])
        witnesses = tuple(obj["witnesses"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"certificate needs 'colors' and 'witnesses' lists: {exc!r}") from None
    if not all(type(c) is int for c in colors):
        raise FormatError(f"certificate colors must be integers: {list(colors)!r}")
    if not all(type(w) is int or w == SINK_EXEMPT for w in witnesses):
        raise FormatError(f"bad certificate witnesses: {list(witnesses)!r}")
    try:
        coloring = Coloring(colors)
    except ValueError as exc:
        raise FormatError(f"bad certificate colors: {exc}") from None
    return DominatorCertificate(coloring=coloring, witnesses=witnesses)
