"""Every integer argument of the library is read by ``errors._int``: an
``__index__`` type or a bool reads as its plain int, and anything else, a
float or a numeric string among them, raises the typed error of the module
that reads it, naming the argument."""

from __future__ import annotations

import pytest

from domchrom.coloring import Coloring, dominated_classes
from domchrom.errors import BadVertexIdError, NotALeafError, NotATreeError, SpecInvalidError
from domchrom.formulas import (
    chi_directed_path,
    chi_path_orientation_min,
    chi_star,
    gs_layered_bound,
    gs_uniform_chi,
    star_coloring,
)
from domchrom.generators import (
    free_trees,
    orient,
    path,
    random_tree,
    rooted_orientation,
    sequence_to_edges,
)
from domchrom.harness import (
    check_caterpillar_bounds,
    check_leaf_deletion,
    check_path_minimum,
    check_reversal_invariance,
    check_rooted_formula,
    check_star_values,
    explore_conjecture_gs,
    sample_caterpillar_specs,
)
from domchrom.trees import BaseTree, build_tree, delete_leaf


class Index:
    """An integer-like value that is no int."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


P3 = build_tree(3, [(0, 1), (1, 2)])

# (entry point fed the value x, the error it raises)
READERS = [
    # closed forms
    pytest.param(lambda x: chi_directed_path(x), SpecInvalidError, id="chi_directed_path"),
    pytest.param(lambda x: chi_path_orientation_min(x), SpecInvalidError, id="chi_path_min"),
    pytest.param(lambda x: chi_star(x, 2), SpecInvalidError, id="chi_star-mask"),
    pytest.param(lambda x: chi_star(1, x), SpecInvalidError, id="chi_star-m"),
    pytest.param(lambda x: star_coloring(x, 2), SpecInvalidError, id="star_coloring-mask"),
    pytest.param(lambda x: star_coloring(1, x), SpecInvalidError, id="star_coloring-m"),
    pytest.param(lambda x: gs_uniform_chi(x, 2), SpecInvalidError, id="gs_uniform_chi-m"),
    pytest.param(lambda x: gs_uniform_chi(2, x), SpecInvalidError, id="gs_uniform_chi-k"),
    pytest.param(lambda x: gs_layered_bound(x, 4), SpecInvalidError, id="gs_layered_bound-m"),
    pytest.param(lambda x: gs_layered_bound(2, x), SpecInvalidError, id="gs_layered_bound-k"),
    # tree generators
    pytest.param(lambda x: free_trees(x), SpecInvalidError, id="free_trees"),
    pytest.param(lambda x: random_tree(x, 0), SpecInvalidError, id="random_tree"),
    pytest.param(lambda x: random_tree(8, x), SpecInvalidError, id="random_tree-seed"),
    pytest.param(lambda x: sequence_to_edges([x], 3), SpecInvalidError, id="sequence-entry"),
    pytest.param(lambda x: sequence_to_edges([], x), SpecInvalidError, id="sequence-n"),
    pytest.param(lambda x: orient(path(3), x), SpecInvalidError, id="orient-mask"),
    pytest.param(
        lambda x: rooted_orientation(path(3), x, "out"), SpecInvalidError, id="rooted-root"
    ),
    # campaign sizes
    pytest.param(lambda x: check_reversal_invariance(x), SpecInvalidError, id="invariance"),
    pytest.param(lambda x: check_leaf_deletion(x), SpecInvalidError, id="leafdel"),
    pytest.param(lambda x: explore_conjecture_gs(x, 2), SpecInvalidError, id="gs-m_max"),
    pytest.param(lambda x: explore_conjecture_gs(2, x), SpecInvalidError, id="gs-k_max"),
    pytest.param(lambda x: explore_conjecture_gs(2, 2, x), SpecInvalidError, id="gs-n_cap"),
    pytest.param(lambda x: check_star_values(x), SpecInvalidError, id="star"),
    pytest.param(lambda x: check_path_minimum(x, 5), SpecInvalidError, id="path-n_lo"),
    pytest.param(lambda x: check_path_minimum(4, x), SpecInvalidError, id="path-n_hi"),
    pytest.param(lambda x: check_rooted_formula(x), SpecInvalidError, id="rooted"),
    pytest.param(lambda x: sample_caterpillar_specs(x, 0), SpecInvalidError, id="cat-samples"),
    pytest.param(
        lambda x: sample_caterpillar_specs(2, 0, n_max=x), SpecInvalidError, id="cat-n_max"
    ),
    pytest.param(
        lambda x: sample_caterpillar_specs(2, 0, spine_min=x), SpecInvalidError, id="cat-spine_min"
    ),
    pytest.param(
        lambda x: sample_caterpillar_specs(2, 0, spine_max=x), SpecInvalidError, id="cat-spine_max"
    ),
    pytest.param(lambda x: sample_caterpillar_specs(2, x), SpecInvalidError, id="cat-seed"),
    pytest.param(lambda x: check_caterpillar_bounds(x, 0), SpecInvalidError, id="cat-bounds"),
    pytest.param(
        lambda x: check_caterpillar_bounds(3, x), SpecInvalidError, id="cat-bounds-seed"
    ),
    # trees and colorings
    pytest.param(lambda x: build_tree(x, [(0, 1)]), NotATreeError, id="vertex-count"),
    pytest.param(lambda x: build_tree(3, [(0, 1), (1, x)]), BadVertexIdError, id="arc-vertex"),
    pytest.param(lambda x: BaseTree(3, ((0, 1), (x, 2))), BadVertexIdError, id="edge-vertex"),
    pytest.param(lambda x: delete_leaf(P3, x), NotALeafError, id="delete_leaf"),
    pytest.param(lambda x: Coloring((1, x)), ValueError, id="color"),
    pytest.param(lambda x: dominated_classes(P3, (1, 2, 3), x), BadVertexIdError, id="dominated"),
]


@pytest.mark.parametrize("value", [2.5, "3"])
@pytest.mark.parametrize("call, error", READERS)
def test_a_non_integer_raises_the_typed_error(call, error, value):
    with pytest.raises(error, match=r"must be an integer, got " + repr(value).replace(".", r"\.")):
        call(value)


def test_sequence_entries_read_as_plain_ints():
    edges = sequence_to_edges([True], 3)
    assert edges == ((0, 1), (1, 2))
    assert all(type(v) is int for edge in edges for v in edge)
    assert sequence_to_edges([Index(1)], Index(3)) == edges


def test_caterpillar_params_are_plain_ints():
    report = check_caterpillar_bounds(
        True, 0, n_max=Index(12), spine_min=Index(3), spine_max=Index(4)
    )
    assert report.params == {"samples": 1, "seed": 0, "n_max": 12, "spine_min": 3, "spine_max": 4}
    assert all(type(v) is int for v in report.params.values())
    assert '"samples": 1' in report.to_json()


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: build_tree(3, [5, 6]), BadVertexIdError, id="arc-int"),
        pytest.param(lambda: BaseTree(2, [None]), BadVertexIdError, id="edge-none"),
        pytest.param(lambda: build_tree(2, [(0, 1, 2)]), BadVertexIdError, id="arc-triple"),
        pytest.param(lambda: Coloring(5), ValueError, id="colors-int"),
    ],
)
def test_a_malformed_container_raises_the_typed_error(call, error):
    # the shape is read before the integers, so no bare TypeError or
    # unpacking ValueError escapes
    with pytest.raises(error, match="is not a pair|must be a sequence") as info:
        call()
    assert info.type is error
