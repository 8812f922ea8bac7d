"""Search kernel: one complete fixed-k backtracking round.

The solver decides χ with a tree program and does not search.  This round
is kept as an exact oracle that shares no code with that program: the tests
check that it finds a coloring at k = τ + 1 exactly where the program
reports χ = τ + 1.

Search contract
---------------
Vertices are assigned in the given static ``order``.  Candidate colors for a
vertex are ``1..min(max_used + 1, k)`` (restricted growth, which removes all
color-permutation symmetry).  A candidate is rejected when an already-colored
underlying neighbor has the same color.  After every assignment each vertex
``u`` with out-neighbors must stay *satisfiable*: either some color class is
already entirely inside N+(u), or N+(u) still has an uncolored slot and an
uncontaminated color remains.  At a full assignment this test is exact, so
reaching depth n means a valid dominator coloring was found.
"""

from __future__ import annotations

STATUS_FOUND = 0
STATUS_EXHAUSTED = 1
STATUS_BUDGET = 2


def search_round(
    n: int,
    k: int,
    order: tuple[int, ...],
    adj_masks: tuple[int, ...],
    out_masks: tuple[int, ...],
    nonsink: tuple[int, ...],
    budget: int,
) -> tuple[int, list[int] | None, int, int, int, int]:
    """Try to find a dominator coloring with at most ``k`` colors.

    ``budget`` caps the number of assignments applied this round; negative
    means unlimited.  Returns ``(status, colors, nodes, max_depth,
    prunes_proper, prunes_domination)``.
    """
    full = (1 << n) - 1
    class_masks = [0] * (k + 1)
    color = [0] * n
    colored = 0
    nodes = 0
    max_depth = 0
    pp = 0
    pd = 0
    found: list[int] | None = None

    def rec(pos: int, max_used: int) -> int:
        nonlocal colored, nodes, max_depth, pp, pd, found
        v = order[pos]
        bit = 1 << v
        adjm = adj_masks[v]
        top = max_used + 1
        if top > k:
            top = k
        depth = pos + 1
        for c in range(1, top + 1):
            if class_masks[c] & adjm:
                pp += 1
                continue
            if 0 <= budget <= nodes:
                return STATUS_BUDGET
            nodes += 1
            class_masks[c] |= bit
            colored |= bit
            color[v] = c
            if depth > max_depth:
                max_depth = depth
            new_max = c if c > max_used else max_used
            ok = True
            for u in nonsink:
                out = out_masks[u]
                if out & ~colored and new_max < k:
                    continue
                outside = full ^ out
                for cc in range(1, new_max + 1):
                    if class_masks[cc] & outside == 0:
                        break
                else:
                    ok = False
                    break
            if ok:
                if depth == n:
                    found = color[:]
                    class_masks[c] &= ~bit
                    colored &= ~bit
                    color[v] = 0
                    return STATUS_FOUND
                st = rec(pos + 1, new_max)
                if st != STATUS_EXHAUSTED:
                    class_masks[c] &= ~bit
                    colored &= ~bit
                    color[v] = 0
                    return st
            else:
                pd += 1
            class_masks[c] &= ~bit
            colored &= ~bit
            color[v] = 0
        return STATUS_EXHAUSTED

    status = rec(0, 0)
    return (status, found, nodes, max_depth, pp, pd)
