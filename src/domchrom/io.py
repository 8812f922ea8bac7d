"""File formats and compact instance encodings.

Tree files: first content line ``n <count>``, then one ``<tail> <head>`` line
per arc (0-based), ``#`` starts a comment, LF endings.  Coloring files: one
``<vertex> <color>`` line per vertex with 1-based colors.  Compact codes like
``4:0>1,2>1,2>3`` (oriented) and ``4:0-1,1-2,1-3`` (base tree) embed
instances into reports so every record can be replayed on its own.  Every
integer pair read from text, here and in the CLI's ``--legs``, goes through
:func:`_pairs`, so each malformed pair raises the same :class:`FormatError`.
"""

from __future__ import annotations

import os
from typing import IO, Iterable, Union

from .coloring import Coloring, DominatorCertificate, SINK_EXEMPT
from .errors import DomchromError
from .trees import BaseTree, OrientedTree

PathLike = Union[str, "os.PathLike[str]"]


class FormatError(DomchromError, ValueError):
    """Malformed text input: a tree or coloring file, a compact tree code, or
    an integer-pair CLI value such as ``--legs``."""


def _pairs(items: Iterable[str], sep: str | None, what: str) -> list[tuple[int, int]]:
    """Each item split at ``sep`` (at whitespace when ``None``) into exactly
    two ints; any other item raises :class:`FormatError` naming ``what``."""
    pairs = []
    for item in items:
        try:
            a, b = map(int, item.split(sep))
        except ValueError:
            joint = "whitespace" if sep is None else repr(sep)
            raise FormatError(
                f"bad {what} {item!r}: expected two integers joined by {joint}"
            ) from None
        pairs.append((a, b))
    return pairs


def _read(path: PathLike | IO[str]) -> str:
    """The text of an open file, or of the file at ``path``."""
    if hasattr(path, "read"):
        return path.read()  # type: ignore[union-attr]
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
    return OrientedTree(n, tuple(_pairs(lines[1:], None, "arc line")))


def format_tree(t: OrientedTree) -> str:
    lines = [f"n {t.n}"]
    lines.extend(f"{u} {v}" for u, v in t.arcs)
    return "\n".join(lines) + "\n"


def read_tree(path: PathLike | IO[str]) -> OrientedTree:
    return parse_tree(_read(path))


def write_tree(t: OrientedTree, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_tree(t))


def parse_coloring(text: str, n: int) -> Coloring:
    assigned: dict[int, int] = {}
    for v, c in _pairs(_content_lines(text), None, "coloring line"):
        if v in assigned:
            raise FormatError(f"vertex {v} assigned twice")
        if c < 1:
            raise FormatError(f"colors are 1-based, got {c} for vertex {v}")
        assigned[v] = c
    if assigned.keys() != set(range(n)):
        raise FormatError(f"coloring must assign every vertex 0..{n - 1} exactly once")
    return Coloring.from_labels([assigned[v] for v in range(n)])


def format_coloring(c: Coloring) -> str:
    return "\n".join(f"{v} {col}" for v, col in enumerate(c.colors)) + "\n"


def read_coloring(path: PathLike | IO[str], n: int) -> Coloring:
    return parse_coloring(_read(path), n)


def to_dot(t: OrientedTree, coloring: Coloring | None = None) -> str:
    """DOT digraph; node labels carry color ids when a coloring is given."""
    lines = ["digraph tree {"]
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
    return _code(n, _arc_texts(arcs))


def _arc_texts(arcs: Iterable[tuple[int, int]]) -> list[str]:
    """The code item ``u>v`` of each arc (u, v), in order."""
    return [f"{u}>{v}" for u, v in arcs]


def _code(n: int, items: Iterable[str]) -> str:
    """The compact code ``n:item,...`` of a tree on 0..n-1 from its items."""
    return f"{n}:" + ",".join(items)


def _decode(code: str, sep: str, what: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the pairs of a compact code ``n:a<sep>b,...``."""
    try:
        head, body = code.split(":", 1)
        n = int(head)
    except ValueError:
        raise FormatError(f"{what} code must start with '<n>:', got {code!r}") from None
    return n, _pairs(body.split(",") if body else (), sep, f"{what} code item")


def decode_tree(code: str) -> OrientedTree:
    n, arcs = _decode(code, ">", "tree")
    return OrientedTree(n, tuple(arcs))


def encode_base(base: BaseTree) -> str:
    return _code(base.n, [f"{u}-{v}" for u, v in base.edges])


def decode_base(code: str) -> BaseTree:
    n, edges = _decode(code, "-", "base-tree")
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
