"""Exact dominator-chromatic-number solver plus an independent brute oracle.

``solve_exact`` brackets χ between τ + 1 and τ + 2, where τ is the size of
a smallest vertex set W that contains an out-neighbor of every non-sink
(:func:`hitting_set`), and decides between the two with one complete
backtracking round at k = τ + 1 (see the kernel modules for the search
contract).

- χ ≥ τ + 1: one vertex from each class dominated by some vertex forms such
  a W, and a source lies in no out-neighborhood, so its class is one more.
- χ ≤ τ + 2: give each vertex of W its own color (every non-sink dominates
  one of these classes); V - W induces a forest, which two more colors
  color properly.

``brute_force_chi`` shares nothing with that search: it enumerates canonical
colorings outright and filters them through the public verifier, which makes
it a true cross-validation oracle for small instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ._backend import get_kernel
from .coloring import Coloring, DominatorCertificate, _check_colors, verify_dominator
from .errors import BudgetExhaustedError, TooLargeError
from .trees import OrientedTree

_BRUTE_CAP = 10


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs; the defaults give a complete, deterministic search."""

    node_budget: int | None = None
    vertex_order: str = "degree"  # "degree" (descending, ties by index) or "index"


@dataclass(frozen=True)
class PruneCounts:
    proper: int
    domination: int


@dataclass(frozen=True)
class SearchStats:
    """Deterministic search counters; wall time is informational only."""

    nodes: int
    max_depth: int
    prunes: PruneCounts
    elapsed: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class SolveResult:
    chi: int
    certificate: DominatorCertificate
    stats: SearchStats


def static_order(t: OrientedTree, policy: str) -> tuple[int, ...]:
    if policy == "degree":
        return tuple(sorted(range(t.n), key=lambda v: (-t.degree(v), v)))
    if policy == "index":
        return tuple(range(t.n))
    raise ValueError(f"unknown vertex order policy {policy!r}")


def _bfs(t: OrientedTree) -> tuple[list[int], list[int]]:
    """BFS order of the underlying tree from vertex 0, and each vertex's
    parent (-1 at the root)."""
    nbrs = t.neighbors
    parent = [-1] * t.n
    order = [0]
    for v in order:
        for w in nbrs[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    return order, parent


def hitting_set(t: OrientedTree) -> tuple[int, ...]:
    """A minimum set W containing an out-neighbor of every non-sink vertex.

    Linear greedy over the underlying tree rooted at vertex 0, children
    before parents.  A vertex that some child deferred to joins W, hitting
    all of its in-neighbors.  A non-sink still unhit afterwards defers to its
    parent when it points there, and otherwise puts its smallest
    out-neighbor (a child) into W.  Deferring is safe by exchange: the parent
    hits everything a child of v would hit, and possibly more.
    """
    order, parent = _bfs(t)
    out = t.out_masks
    adj = t.adj_masks
    w = 0
    hit = 0
    deferred = 0
    for v in reversed(order):
        if deferred >> v & 1:
            w |= 1 << v
            hit |= adj[v] & ~out[v]
        if out[v] and not hit >> v & 1:
            p = parent[v]
            if p >= 0 and out[v] >> p & 1:
                deferred |= 1 << p
            else:
                x = (out[v] & -out[v]).bit_length() - 1
                w |= 1 << x
                hit |= adj[x] & ~out[x]
    return tuple(v for v in range(t.n) if w >> v & 1)


def hitting_set_coloring(t: OrientedTree, w: tuple[int, ...]) -> Coloring:
    """The dominator coloring with at most |w| + 2 colors that a hitting set
    ``w`` gives: each vertex of w alone in its class, and the forest V - w
    colored by BFS depth parity."""
    order, parent = _bfs(t)
    labels = [1] * t.n
    for v in order[1:]:
        labels[v] = 3 - labels[parent[v]]
    for i, x in enumerate(w):
        labels[x] = 3 + i
    return Coloring.from_labels(labels)


def solve_exact(
    t: OrientedTree,
    opts: SolveOptions | None = None,
    *,
    kernel=None,
) -> SolveResult:
    """Exact minimum dominator coloring with certificate and search stats.

    χ is τ + 1 or τ + 2 for τ = |hitting_set(t)|.  Lower bound: picking one
    vertex from each dominated class gives a hitting set, and the class of a
    source is dominated by no vertex.  Upper bound:
    :func:`hitting_set_coloring` colors W with singletons and the forest
    V - W with two colors.  One complete round at k = τ + 1 decides which:
    a coloring it finds is optimal, and an exhausted round proves χ = τ + 2,
    for which the τ + 2 coloring is returned.  Either coloring is
    re-verified before it is returned.  Deterministic for fixed input and
    options.  Raises :class:`BudgetExhaustedError` when a node budget is set
    and hit.
    """
    opts = opts or SolveOptions()
    kern = kernel if kernel is not None else get_kernel()
    order = static_order(t, opts.vertex_order)
    adj = t.adj_masks
    out = t.out_masks
    nonsink = tuple(v for v in range(t.n) if out[v] != 0)
    budget = -1 if opts.node_budget is None else int(opts.node_budget)

    start = time.perf_counter()
    w = hitting_set(t)
    k = len(w) + 1
    status, colors, nodes, max_depth, pp, pd = kern.search_round(
        t.n, k, order, adj, out, nonsink, budget
    )
    if status == 2:
        raise BudgetExhaustedError(
            f"node budget {budget} exhausted while testing k={k}", nodes
        )
    if status == 0:
        coloring = Coloring.from_labels(colors)
    else:
        k += 1
        coloring = hitting_set_coloring(t, w)
    if coloring.k != k:  # pragma: no cover - internal consistency
        raise RuntimeError(f"coloring has {coloring.k} colors, expected {k}")
    cert = verify_dominator(t, coloring)
    if not isinstance(cert, DominatorCertificate):  # pragma: no cover
        raise RuntimeError("solver result failed re-verification")
    stats = SearchStats(
        nodes=nodes,
        max_depth=max_depth,
        prunes=PruneCounts(proper=pp, domination=pd),
        elapsed=time.perf_counter() - start,
    )
    return SolveResult(chi=k, certificate=cert, stats=stats)


def _growth_sequences(n: int, k: int):
    """All restricted-growth sequences of length n using exactly k colors."""
    seq = [0] * n

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                yield seq
            return
        if used + (n - i) < k:  # cannot reach k distinct colors anymore
            return
        top = used + 1 if used < k else k
        for c in range(1, top + 1):
            seq[i] = c
            yield from rec(i + 1, used if c <= used else c)

    yield from rec(0, 0)


def brute_force_chi(t: OrientedTree) -> int:
    """Exact value by exhaustive enumeration; independent of ``solve_exact``.

    Enumerates canonical colorings (restricted-growth sequences) for k = 1,
    2, ... and accepts the first k admitting a coloring that the public
    verifier passes.  Capped at n <= 10.
    """
    if t.n > _BRUTE_CAP:
        raise TooLargeError(f"brute force capped at n <= {_BRUTE_CAP}, got {t.n}")
    for k in range(1, t.n + 1):
        for seq in _growth_sequences(t.n, k):
            if _check_colors(t, seq):
                return k
    raise RuntimeError("unreachable: k = n always validates")
