from __future__ import annotations

from collections import Counter
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
