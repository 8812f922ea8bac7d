"""Exact dominator-chromatic-number solver plus an independent brute oracle.

``solve_exact`` brackets χ between τ + 1 and τ + 2, where τ is the size of
a smallest vertex set W that contains an out-neighbor of every non-sink
(:func:`hitting_set`), and decides between the two with a linear dynamic
program over the tree.

- χ ≥ τ + 1: one vertex from each class dominated by some vertex forms such
  a W, and a source lies in no out-neighborhood, so its class is one more.
- χ ≤ τ + 2: give each vertex of W its own color (every non-sink dominates
  one of these classes); V - W induces a forest, which two more colors
  color properly.
- χ = τ + 1 exactly when a *one-free-class family* with m = τ exists: a
  split of V into an independent class U and classes C_1..C_m, each inside
  the out-neighborhood of some vertex, such that every non-sink's
  out-neighborhood contains some C_i.  Such a family is a dominator coloring
  with m + 1 colors, and m ≥ τ by the lower-bound argument.  Conversely a
  coloring with τ + 1 colors has at least τ dominated classes; the class of
  a source is not one of them, so exactly one class is undominated and the
  coloring is such a family.  Hence χ = min(m* + 1, τ + 2) for the least m*,
  which :func:`_least_family` computes bottom-up.

A solve walks the tree once and then makes one pass up it, which finds both
m* and W (the greedy of :func:`hitting_set` visits the vertices in the same
order, so it rides along); when m* = τ a pass down rebuilds the family,
and otherwise the τ + 2 coloring is labelled from W and the walk's depth
parity.  Either labelling is relabelled once into first-use form, which
also counts its colors, and the verifier re-checks the coloring in one more
pass that decides propriety and every witness together.

``brute_force_chi`` shares nothing with that program: it enumerates
canonical colorings outright and filters them with ``coloring._check_colors``,
a bitmask test separate from the public verifier, which makes it a true
cross-validation oracle for small instances.  The backtracking kernel
(``_kernel_py.search_round``) is the tests' second exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import compress
from typing import Iterable

from .coloring import Coloring, DominatorCertificate, _check_colors, verify_dominator
from .errors import TooLargeError
from .generators import _centers
from .trees import BaseTree, OrientedTree, _walk

_BRUTE_CAP = 10
_MASK_WIDTH_CAP = 26

# Roles of a vertex in a one-free-class family: in U, a singleton class, in
# the class its parent owns, in the class one of its children owns.  A set of
# roles is a bit mask with bit r for role r; every set holds _S.
_U, _S, _P, _C = range(4)
_ANY = 0b1111
# The roles an out-child may take, by 2 * (parent in U) + (parent owns a class):
# (U, S, C), any, (S, C), (S, P, C).
_OUT_ROLES = (0b1011, _ANY, 0b1010, 0b1110)


@dataclass(frozen=True)
class SolveOptions:
    """Accepted for callers that pass a node budget.  The solver ignores it:
    it runs a linear dynamic program, never a search, so no budget applies."""

    node_budget: int | None = None


@dataclass(frozen=True)
class SolveResult:
    """χ, its re-verified certificate, and τ = |hitting_set(t)|; χ is τ + 1
    (the lower bound) or τ + 2 (the upper bound)."""

    chi: int
    certificate: DominatorCertificate
    tau: int


def hitting_set(t: OrientedTree) -> tuple[int, ...]:
    """A minimum set W containing an out-neighbor of every non-sink vertex.

    Linear greedy over the underlying tree rooted at vertex 0, children
    before parents.  A non-sink with no out-neighbor in W yet puts its parent
    into W when it points there, and otherwise its smallest out-neighbor (a
    child).  Taking the parent is safe by exchange: the parent hits
    everything a child of v would hit, and possibly more.  :func:`solve_exact`
    runs the same greedy inside the bottom-up pass of :func:`_least_family`.
    """
    outs = t.out_neighbors
    order, parent, down = _walk(0, t.in_neighbors, outs)
    w = bytearray(t.n)
    for v in reversed(order):
        if outs[v] and not any(w[x] for x in outs[v]):
            up = parent[v] >= 0 and not down[v]  # v -> parent
            w[parent[v] if up else outs[v][0]] = 1
    return tuple(compress(range(t.n), w))


def hitting_set_coloring(t: OrientedTree, w: tuple[int, ...]) -> Coloring:
    """The dominator coloring with at most |w| + 2 colors that a hitting set
    ``w`` gives: each vertex of w alone in its class, and the forest V - w
    colored by BFS depth parity."""
    order, parent, _ = _walk(0, t.in_neighbors, t.out_neighbors)
    return Coloring.from_labels(_parity_labels(w, order, parent))


def _parity_labels(w: Iterable[int], order: list[int], parent: list[int]) -> list[int]:
    """Labels of the coloring of :func:`hitting_set_coloring`, not yet in
    first-use form: 1 and 2 by walk depth parity, 3, 4, ... along ``w``."""
    labels = [1] * len(order)
    for v in order[1:]:
        labels[v] = 3 - labels[parent[v]]
    for i, x in enumerate(w, 3):
        labels[x] = i
    return labels


def _least_family(
    t: OrientedTree, order: list[int], parent: list[int], down: bytearray
) -> tuple[int, bytearray, list[int] | None]:
    """The least m of a one-free-class family, the hitting set W of
    :func:`hitting_set` as a 0/1 array over the vertices, and the labels of
    one family when m = τ = |W| (``None`` otherwise).

    A class of two or more vertices lies in exactly one out-neighborhood,
    since two tree vertices share at most one neighbor; that vertex *owns*
    the class.  A singleton class lies in the out-neighborhood of each of its
    in-neighbors.  So every vertex takes one role: in U (no neighbor also in
    U; the only role of a vertex without in-neighbors), a singleton (which
    dominates all its in-neighbors), in the class its parent owns, or in the
    class one of its children owns.

    The least number of classes within the subtree of v, with v in
    ``role``, when v is at least (level 0) anything, (1) satisfied inside its
    subtree (a sink, or dominated by a singleton child or by the class it
    owns), or (2) the owner of a class that its parent joins, is a sum of
    two parts that ``g[v] = (in_u, xs, xp, xc, u0, u1, u2, n0, n1, n2)``
    keeps apart: the in-children's cost for each role (U, S, P, C), and the
    out-children's cost at each level, u* when v is in U and n* otherwise.
    A class is counted at its owner.  Each child hands its parent four
    numbers, chosen by the direction of the arc between them.
    Values of ``n + 1`` or more mark an infeasible choice; they stay exact
    under the sums and differences below, so the minimum is exact.

    The same bottom-up pass runs the greedy of :func:`hitting_set`: it
    visits the vertices in the same order, and a vertex's out-children are
    final in W when it is reached.

    ``order``, ``parent`` and ``down`` come from :func:`trees._walk` over
    ``(in_neighbors, out_neighbors)``, so ``down[v]`` is 1 exactly when the
    arc to the parent points down (p -> v); children are read off the out-
    and in-neighbor tuples, so building the table and rebuilding the family
    each take one pass over the arcs.
    """
    n = t.n
    outs = t.out_neighbors
    ins = t.in_neighbors
    inf = n + 1
    w = bytearray(n)
    g: list[tuple[int, ...]] = [()] * n
    hand: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * n
    owns = [0] * n  # bit 2 * (v in U) + level: v owns a class at that optimum
    dom_child = [()] * n  # per 2 * (v in U) + (v owns): cheapest dominating out-child
    owner_child = [-1] * n  # cheapest in-child to own v's class in role C
    for v in reversed(order):
        p = parent[v]
        out = outs[v]
        # Out-children (v -> c), satisfied inside their subtrees.  Columns:
        # v not in U and owning nothing / a class, v in U and the same.
        b0 = b1 = b2 = b3 = hit = 0  # hit: an out-child of v is in W
        d0 = d1 = d2 = d3 = inf
        k0 = k1 = k2 = k3 = -1
        for c in out:
            if c != p:
                hit |= w[c]
                u, s, pm, o = hand[c]
                a2 = s if s < o else o
                a0 = u if u < a2 else a2
                a3 = pm if pm < a2 else a2
                a1 = pm if pm < a0 else a0
                sp = pm if pm < s else s
                b0 += a0
                b1 += a1
                b2 += a2
                b3 += a3
                if s - a0 < d0:
                    d0, k0 = s - a0, c
                if sp - a1 < d1:
                    d1, k1 = sp - a1, c
                if s - a2 < d2:
                    d2, k2 = s - a2, c
                if sp - a3 < d3:
                    d3, k3 = sp - a3, c
        # In-children (c -> v): their least cost next to v in U, next to v a
        # singleton (which satisfies them), next to v otherwise, and the
        # least extra cost of one of them owning v's class.
        in_u = in_s = in_other = 0
        odelta = inf
        for c in ins[v]:
            if c != p:
                nonu, any0, any1, any2 = hand[c]
                in_u += nonu
                in_s += any0
                in_other += any1
                if any2 - any1 < odelta:
                    odelta = any2 - any1
                    owner_child[v] = c
        # v's least cost at levels 0, 1, 2 (n* when v is not in U, u* when
        # it is), and whether it owns a class at the level-0 and level-1
        # optima.  Owning a class counts it; a non-sink is satisfied by one
        # out-child dominating it.
        n2 = b1 + 1
        u2 = b3 + 1
        if out:
            if not hit:  # no out-child in W: add the parent if v -> p, else v's first out-child
                w[p if p >= 0 and not down[v] else out[0]] = 1
            bits = 0
            if n2 < b0:
                n0 = n2
                bits = 1
            else:
                n0 = b0
            n1 = b0 + d0
            if n2 + d1 < n1:
                n1 = n2 + d1
                bits |= 2
            if u2 < b2:
                u0 = u2
                bits |= 4
            else:
                u0 = b2
            u1 = b2 + d2
            if u2 + d3 < u1:
                u1 = u2 + d3
                bits |= 8
            owns[v] = bits
            dom_child[v] = (k0, k1, k2, k3)
        else:  # a sink is satisfied, and owns nothing below level 2
            n0 = n1 = u0 = u1 = 0
        # A singleton needs an in-neighbor.  When p -> v is the only one, S
        # never lowers m: {v} lies in p's out-neighborhood, so it is a class
        # p can own, with v in role P at the same count, and if p owns a
        # class already, v joins it and one class goes.  v has no in-child,
        # and S and P add the same out-part, so nothing else changes.  S
        # stays, because the labels it picks make the certificates.
        xs = 1 + in_s if ins[v] else inf
        xp = in_other if down[v] else inf
        xc = in_other + odelta
        g[v] = (in_u, xs, xp, xc, u0, u1, u2, n0, n1, n2)
        if down[v]:  # p -> v: v in each role, satisfied inside its subtree
            hand[v] = in_u + u1, xs + n1, xp + n1, xc + n1
        elif p >= 0:  # v -> p: v not in U, and in any role at each level
            x = xs if xs < xc else xc  # never in p's class
            a0 = x + n0
            a1 = x + n1
            a2 = x + n2
            uu0 = in_u + u0
            uu1 = in_u + u1
            uu2 = in_u + u2
            hand[v] = (
                a1,
                uu0 if uu0 < a0 else a0,
                uu1 if uu1 < a1 else a1,
                uu2 if uu2 < a2 else a2,
            )

    in_u, xs, xp, xc, _, u1, _, _, n1, _ = g[0]
    m = min(in_u + u1, xs + n1, xp + n1, xc + n1)
    if m != w.count(1):
        return m, w, None

    labels = [0] * n  # U is label 0, a singleton v is v + 1, v's class n + 1 + v
    stack = [(0, _ANY, 1)]  # (vertex, roles it may take, level)
    while stack:
        v, roles, level = stack.pop()
        # v takes the first of ``roles`` (in the order U, S, P, C) with the
        # least cost at ``level``; S, P and C add the same n-part to their
        # in-part, so they compare on the in-part alone, and U wins a tie.
        row = g[v]
        r, x = _S, row[1]
        if roles & 4 and row[2] < x:
            r, x = _P, row[2]
        if roles & 8 and row[3] < x:
            r, x = _C, row[3]
        if roles & 1 and row[0] + row[4 + level] <= x + row[7 + level]:
            r = _U
        in_u = r == _U
        own = level == 2 or bool(owns[v] >> (2 * in_u + level) & 1)
        if r == _S:
            labels[v] = v + 1
        elif r == _P:
            labels[v] = n + 1 + parent[v]
        elif r == _C:
            labels[v] = n + 1 + owner_child[v]
        need = dom_child[v][2 * in_u + own] if level == 1 and outs[v] else -1
        p = parent[v]
        for c in outs[v]:
            if c != p:
                if c == need:
                    stack.append((c, 0b0110 if own else 0b0010, 1))  # (S, P) or S
                else:
                    stack.append((c, _OUT_ROLES[2 * in_u + own], 1))
        for c in ins[v]:
            if c == p:
                continue
            if r == _C and c == owner_child[v]:
                stack.append((c, _ANY, 2))
            elif r == _S:
                stack.append((c, _ANY, 0))
            else:
                stack.append((c, 0b1010 if in_u else _ANY, 1))  # (S, C) next to U
    return m, w, labels


def solve_exact(t: OrientedTree, opts: SolveOptions | None = None) -> SolveResult:
    """Exact minimum dominator coloring with its certificate and τ.

    χ is τ + 1 or τ + 2 for τ = |hitting_set(t)| (see the module docstring
    for both bounds), and χ = τ + 1 exactly when the least one-free-class
    family has τ non-free classes; that family is then the coloring.
    Otherwise the τ + 2 coloring of :func:`hitting_set_coloring` is
    returned.  Either coloring is relabelled once and re-verified once
    before it is returned.  The tree walk, the DP (which gathers W, hence τ,
    on the same pass), the relabel and the verifier each take one pass over
    the vertices or arcs, on the tree's neighbor tuples; no n-bit mask is
    built, so time and memory are linear in n.  Deterministic.  ``opts`` is
    accepted and ignored: there is no search, so a node budget does not
    apply.
    """
    order, parent, down = _walk(0, t.in_neighbors, t.out_neighbors)
    m, w, labels = _least_family(t, order, parent, down)
    tau = w.count(1)
    if m < tau:  # pragma: no cover - internal consistency
        raise RuntimeError(f"a family with {m} classes beats the lower bound {tau}")
    if labels is not None:
        k = tau + 1
    else:
        labels = _parity_labels(compress(range(t.n), w), order, parent)
        k = tau + 2
    coloring = Coloring.from_labels(labels)  # the one relabel, which counts k
    if coloring.k != k:  # pragma: no cover - internal consistency
        raise RuntimeError(f"coloring has {coloring.k} colors, expected {k}")
    cert = verify_dominator(t, coloring)
    if not isinstance(cert, DominatorCertificate):  # pragma: no cover
        raise RuntimeError("solver result failed re-verification")
    return SolveResult(chi=k, certificate=cert, tau=tau)


_ROOT, _DOWN, _UP = range(3)  # the arc from a vertex to its parent in chi_table


def _empty(inf: int) -> tuple:
    """A vertex's accumulator before any child is folded in (see :func:`_fold`)."""
    return (0, 0, 0, 0, inf, inf, inf, inf, 0, 0, 0, 0, 0, inf, 0, 0, 0)


def _fold(acc: tuple, child: tuple) -> tuple:
    """``acc`` with one more child, as :func:`_finish` gives it, folded in: one
    turn of the child loops of :func:`_least_family`, on its names.  ``in_w``
    is 1 when an in-child puts v into W; ``tau`` counts W in the subtrees."""
    b0, b1, b2, b3, d0, d1, d2, d3, hit, out, in_u, in_s, in_other, odelta, ins, in_w, tau = acc
    up, h0, h1, h2, h3, flag, t = child
    if up:  # c -> v: the hand is (nonu, any0, any1, any2), the flag puts v into W
        h3 -= h2
        return (b0, b1, b2, b3, d0, d1, d2, d3, hit, out, in_u + h0, in_s + h1, in_other + h2,
                h3 if h3 < odelta else odelta, 1, in_w | flag, tau + t)
    # v -> c: the hand is (u, s, pm, o), the flag says c is in W
    a2 = h1 if h1 < h3 else h3
    a0 = h0 if h0 < a2 else a2
    a3 = h2 if h2 < a2 else a2
    a1 = h2 if h2 < a0 else a0
    sp = h2 if h2 < h1 else h1
    return (b0 + a0, b1 + a1, b2 + a2, b3 + a3, min(d0, h1 - a0), min(d1, sp - a1),
            min(d2, h1 - a2), min(d3, sp - a3), hit | flag, 1, in_u, in_s, in_other, odelta,
            ins, in_w, tau + t)


def _finish(acc: tuple, direction: int, inf: int) -> tuple:
    """What v hands its parent across an arc in ``direction``, from all its
    children: (up, ``hand`` of :func:`_least_family`, the flag "v puts its
    parent into W" (up) or "v is in W" (down), τ of v's subtree); at the
    root, (m, τ) of the tree."""
    b0, b1, b2, b3, d0, d1, d2, d3, hit, out, in_u, in_s, in_other, odelta, ins, in_w, tau = acc
    up = direction == _UP
    n2, u2 = b1 + 1, b3 + 1
    n0 = n1 = u0 = u1 = 0  # a sink is satisfied, and owns nothing below level 2
    if out or up:
        n0, n1 = min(n2, b0), min(b0 + d0, n2 + d1)
        u0, u1 = min(u2, b2), min(b2 + d2, u2 + d3)
        tau += not hit and not up  # v puts its first out-child into W
    tau += in_w
    # {v} with p -> v as its only in-arc is a class p can own, v in role P at
    # the same count (one fewer if p owns a class already), so the
    # ``direction == _DOWN`` case never lowers m; it stays so that this step
    # is _least_family's, whose labels make the certificates
    xs = 1 + in_s if ins or direction == _DOWN else inf
    xc = in_other + odelta
    if direction == _DOWN:
        return (0, in_u + u1, xs + n1, in_other + n1, xc + n1, in_w, tau)
    if up:
        x = min(xs, xc)
        return (1, x + n1, min(in_u + u0, x + n0), min(in_u + u1, x + n1),
                min(in_u + u2, x + n2), int(not hit), tau)
    return min(in_u + u1, xs + n1, inf + n1, xc + n1), tau


class _Steps:
    """The steps of :func:`chi_table` for trees on n vertices, on states
    interned to ints.  Accumulator i is ``accs[i]``, 0 the one before any
    child, and hand j is ``hands[j]``.  ``folds[i]`` maps each hand folded
    into accumulator i so far to the accumulator that it gives, and
    ``sent[direction][i]`` is what accumulator i hands its parent across an
    arc in ``direction`` (a hand, or at the root chi), -1 until asked."""

    def __init__(self, n: int) -> None:
        self.inf = n + 1
        start = _empty(self.inf)
        self.accs = [start]
        self.acc_ids = {start: 0}
        self.folds: list[dict[int, int]] = [{}]
        self.hands: list[tuple] = []
        self.hand_ids: dict[tuple, int] = {}
        self.sent = ([-1], [-1], [-1])  # by _ROOT, _DOWN, _UP

    def fold(self, i: int, j: int) -> int:
        acc = _fold(self.accs[i], self.hands[j])
        k = self.acc_ids.setdefault(acc, len(self.accs))
        if k == len(self.accs):
            self.accs.append(acc)
            self.folds.append({})
            for column in self.sent:
                column.append(-1)
        self.folds[i][j] = k
        return k

    def finish(self, i: int, direction: int) -> int:
        out = _finish(self.accs[i], direction, self.inf)
        if direction == _ROOT:
            m, tau = out
            k = m + 1 if m == tau else tau + 2
        else:
            k = self.hand_ids.setdefault(out, len(self.hands))
            if k == len(self.hands):
                self.hands.append(out)
        self.sent[direction][i] = k
        return k


# The step tables of the running campaign, by n (see _shared_steps).
_CAMPAIGN_STEPS: ContextVar[dict[int, _Steps] | None] = ContextVar(
    "campaign_steps", default=None
)


@contextmanager
def _shared_steps():
    """Within the block, each :func:`chi_table` of a tree on n vertices
    reuses one step table for n.  The tables go when the block ends, so
    none outlives the campaign that holds it."""
    _CAMPAIGN_STEPS.set({})
    try:
        yield
    finally:
        _CAMPAIGN_STEPS.set(None)


def chi_table(base: BaseTree) -> list[int]:
    """χ of every orientation of ``base``, by mask, from one bottom-up pass.

    :func:`_fold` and :func:`_finish` restate the step of :func:`_least_family`
    on states.  Rooted at a center, each vertex maps each state it can hand
    its parent to the partial masks that reach it, folded into its parent's
    and reused where nothing reads them again.  Each step is taken once per
    table of steps (:class:`_Steps`): a new one per call, or inside
    :func:`_shared_steps` the campaign's one for trees of this size.  No
    tree is built and no coloring made, so an entry carries no certificate.
    Capped at n <= 26.
    """
    n = base.n
    if n > _MASK_WIDTH_CAP:
        raise TooLargeError(f"orientation masks capped at n <= {_MASK_WIDTH_CAP}")
    shared = _CAMPAIGN_STEPS.get()
    steps = _Steps(n) if shared is None else shared.get(n)
    if steps is None:
        steps = shared[n] = _Steps(n)
    folds, sent = steps.folds, steps.sent
    order, parent, _ = _walk(_centers(base.adjacency)[0], base.adjacency)
    bit = {edge: i for i, edge in enumerate(base.edges)}
    accs: list[dict | None] = [None] * n
    for v in reversed(order[1:]):  # children before parents
        p = parent[v]
        flip = 1 << bit[(v, p) if v < p else (p, v)]
        # bit 1: the larger end is the tail; adding 0 goes last, reusing lists
        sides = ((_UP, flip), (_DOWN, 0)) if v > p else ((_DOWN, flip), (_UP, 0))
        acc, into = accs[v] or {0: [0]}, accs[p]
        accs[v] = None
        merged: dict = {}
        for direction, add in sides:
            column = sent[direction]
            hands = [
                (column[state] if column[state] >= 0 else steps.finish(state, direction), masks)
                for state, masks in acc.items()
            ]
            for before, prefixes in (into or {0: [0]}).items():
                row = folds[before]
                for hand, masks in hands:
                    if into is not None:
                        masks = [a | b | add for a in prefixes for b in masks]
                    elif add:
                        masks = [m | add for m in masks]
                    after = row.get(hand)
                    if after is None:
                        after = steps.fold(before, hand)
                    lists = merged.setdefault(after, masks)
                    if lists is not masks:
                        lists += masks
        accs[p] = merged
    table = [0] * (1 << len(base.edges))
    column = sent[_ROOT]
    for state, masks in (accs[order[0]] or {0: [0]}).items():
        chi = column[state] if column[state] >= 0 else steps.finish(state, _ROOT)
        for mask in masks:
            table[mask] = chi
    return table


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
    2, ... and accepts the first k admitting a coloring that passes
    ``coloring._check_colors``, a bitmask filter that shares no code with the
    public verifier.  Capped at n <= 10.
    """
    if t.n > _BRUTE_CAP:
        raise TooLargeError(f"brute force capped at n <= {_BRUTE_CAP}, got {t.n}")
    for k in range(1, t.n + 1):
        for seq in _growth_sequences(t.n, k):
            if _check_colors(t, seq):
                return k
    raise RuntimeError("unreachable: k = n always validates")
