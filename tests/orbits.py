"""Directed-isomorphism classes of the orientations of a base tree: the
per-class oracle that the tests hold :func:`domchrom.solver.chi_table` to.

:func:`class_chis` orients and solves one tree per class, the first mask of
the class, and gives that chi to every mask of the class.  Of the package's
solving code it shares only :func:`domchrom.solver.solve_exact`, and no
state with the table's bottom-up pass; the mask tables that move masks
under an automorphism (:func:`_mask_table`) live here, and nothing in the
package uses them.  Run from the repository root with
``PYTHONPATH=src:tests``, or import it in a test.
"""

from __future__ import annotations

from domchrom.errors import TooLargeError
from domchrom.generators import _centers, orient
from domchrom.solver import _MASK_WIDTH_CAP, solve_exact
from domchrom.trees import BaseTree, _walk


def automorphism_swaps(base: BaseTree) -> list[list[int]]:
    """Involutions that generate the automorphism group of ``base``, each as
    the image of every vertex.

    Every automorphism fixes the center, or maps the central edge onto
    itself, so the group is that of the tree rooted at its first center,
    the second center's half (if any) hanging off no vertex of the first's.
    Each rooted subtree is hash-consed to an integer id and each vertex's
    children are sorted by id.  One involution per adjacent pair of equal-id
    children of a vertex swaps their subtrees, pairing vertices by walking
    both in id order, and a bicentral tree whose halves have equal ids adds
    the swap of the halves.  These generate the group: the swaps at a vertex
    generate every permutation of its isomorphic children, and an
    automorphism is such a permutation at the root (and possibly the swap of
    the halves) followed by automorphisms of the children's subtrees.
    """
    root, *other = _centers(base.adjacency)
    order, parent, _ = _walk(root, base.adjacency)
    if other:  # the second center roots a half of its own
        parent[other[0]] = -1
    children: list[list[int]] = [[] for _ in order]
    for v in order[1:]:
        if parent[v] >= 0:
            children[parent[v]].append(v)
    ids: dict[tuple[int, ...], int] = {}
    sub = [0] * len(order)
    for v in order[::-1]:  # children before parents
        children[v].sort(key=sub.__getitem__)
        sub[v] = ids.setdefault(tuple(sub[c] for c in children[v]), len(ids))
    pairs = [(a, b) for kids in children for a, b in zip(kids, kids[1:]) if sub[a] == sub[b]]
    if other and sub[root] == sub[other[0]]:
        pairs.append((root, other[0]))
    swaps = []
    for a, b in pairs:
        image = list(range(len(order)))
        matched = [(a, b)]
        for x, y in matched:  # grows while read
            image[x], image[y] = y, x
            matched += zip(children[x], children[y])
        swaps.append(image)
    return swaps


def _mask_table(flips: int, images: list[int]) -> list[int]:
    """Entry m is ``flips`` xor ``images[i]`` for every bit i set in m, for
    every m below 2^len(images): filled one bit at a time, each bit doubling
    the table."""
    table = [flips]
    for moved in images:
        table += [m ^ moved for m in table]
    return table


def orientation_classes(base: BaseTree) -> list[int]:
    """The directed-isomorphism class of every orientation of ``base``.

    Entry ``mask`` is the class index of ``orient(base, mask)``, classes
    numbered in order of their first mask; two masks share an index exactly
    when their :func:`oriented_canonical_code` values are equal.  Two
    orientations of one labelled tree are directed-isomorphic exactly when an
    automorphism of the tree maps one onto the other, so the classes are the
    orbits of the masks under the generators of :func:`automorphism_swaps`.

    A vertex map sends edge i = (a, b) onto edge j, and bit j of the image
    mask is bit i of the mask, flipped when a maps to the larger end of j.
    Each generator keeps that map as two tables, one per half of the mask,
    so a mask's image is two lookups and a generator holds 2^(width/2) or so
    entries, where one full table would hold 2^width.  Masks are scanned in
    increasing order: an unlabelled one opens the next class, and a stack
    over generator images labels the rest of its orbit.
    """
    if base.n > _MASK_WIDTH_CAP:
        raise TooLargeError(f"orientation masks capped at n <= {_MASK_WIDTH_CAP}")
    width = len(base.edges)
    half = width // 2
    bit = {edge: i for i, edge in enumerate(base.edges)}
    maps = []
    for image in automorphism_swaps(base):
        flips = 0
        moved = []
        for u, v in base.edges:
            a, b = image[u], image[v]
            j = bit[(a, b) if a < b else (b, a)]
            flips |= (a > b) << j
            moved.append(1 << j)
        maps.append((_mask_table(flips, moved[:half]), _mask_table(0, moved[half:])))
    low = (1 << half) - 1
    table = [-1] * (1 << width)
    count = 0
    for mask, cls in enumerate(table):  # reads the labels as they are set
        if cls >= 0:
            continue
        table[mask] = count
        stack = [mask]
        while stack:
            m = stack.pop()
            lo, hi = m & low, m >> half
            for lo_map, hi_map in maps:
                g = lo_map[lo] ^ hi_map[hi]
                if table[g] < 0:
                    table[g] = count
                    stack.append(g)
        count += 1
    return table


def class_chis(base: BaseTree) -> list[int]:
    """chi of every orientation of ``base``, by mask, from one solve per
    class of :func:`orientation_classes`: the class's first mask is oriented
    and solved, and every other mask of the class takes its chi."""
    chis: list[int] = []
    table = []
    for mask, cls in enumerate(orientation_classes(base)):
        if cls == len(chis):  # classes are numbered by first mask
            chis.append(solve_exact(orient(base, mask)).chi)
        table.append(chis[cls])
    return table
