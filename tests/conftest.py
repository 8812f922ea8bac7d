from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Iterator

import pytest
from hypothesis import strategies as st

from domchrom.generators import orient, sequence_to_edges
from domchrom.trees import BaseTree, OrientedTree


def orientations(base: BaseTree) -> Iterator[OrientedTree]:
    """Every orientation of ``base`` in ascending mask order: bit i of the
    mask flips edge i.  Each one is built and validated by the public
    constructor, so this reference enumeration does not rest on the trusted
    path that ``orient`` takes."""
    for mask in range(1 << len(base.edges)):
        arcs = [(v, u) if mask >> i & 1 else (u, v) for i, (u, v) in enumerate(base.edges)]
        yield OrientedTree(base.n, tuple(arcs))


def reference_longest_path(t: OrientedTree) -> tuple[int, ...]:
    """The lexicographically smallest longest path of ``t``, read from its
    smaller endpoint, straight from the definition: every pair at maximum
    distance is compared.  Quadratic in n, so for small trees only."""
    dist, parent = [], []
    for src in range(t.n):
        d, p = [-1] * t.n, [-1] * t.n
        d[src] = 0
        queue = [src]
        for u in queue:
            for w in t.neighbors[u]:
                if d[w] < 0:
                    d[w], p[w] = d[u] + 1, u
                    queue.append(w)
        dist.append(d)
        parent.append(p)
    diameter = max(max(row) for row in dist)
    paths = []
    for a in range(t.n):
        for b in range(a, t.n):
            if dist[a][b] == diameter:
                seq = [a]
                while seq[-1] != b:
                    seq.append(parent[b][seq[-1]])
                paths.append(tuple(seq))
    return min(paths)


def caterpillar_layouts(spine_max: int, n_max: int) -> Iterator[tuple[int, tuple]]:
    """Every (spine_len, legs) of a caterpillar with at most ``spine_max``
    spine vertices and ``n_max`` vertices, legs listed by spine index."""
    for m in range(1, spine_max + 1):
        spare = n_max - m
        for counts in product(range(spare + 1), repeat=max(m - 2, 0)):
            if sum(counts) <= spare:
                yield m, tuple((i, c) for i, c in enumerate(counts, 1) if c)


def count_validations(monkeypatch) -> Counter:
    """Validating constructions from here on, by class name: every call of
    ``BaseTree.__post_init__`` or ``OrientedTree.__post_init__``."""
    counts: Counter = Counter()
    for cls in (BaseTree, OrientedTree):
        def counting(self, check=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


@st.composite
def base_trees(draw, min_n: int = 1, max_n: int = 9) -> BaseTree:
    n = draw(st.integers(min_n, max_n))
    if n <= 2:
        return BaseTree(n, tuple((i, i + 1) for i in range(n - 1)))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return BaseTree(n, sequence_to_edges(seq, n))


@st.composite
def oriented_trees(draw, min_n: int = 1, max_n: int = 9) -> OrientedTree:
    base = draw(base_trees(min_n, max_n))
    mask = draw(st.integers(0, (1 << len(base.edges)) - 1)) if base.edges else 0
    return orient(base, mask)


@pytest.fixture(scope="session")
def small_corpus() -> list[OrientedTree]:
    """Every orientation of every free tree with up to 6 vertices."""
    from domchrom.generators import free_trees

    corpus = []
    for n in range(1, 7):
        for base in free_trees(n):
            corpus.extend(orientations(base))
    return corpus
