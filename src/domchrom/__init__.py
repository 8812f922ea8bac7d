"""Exact dominator colorings of oriented trees.

A dominator coloring of a digraph is a proper vertex coloring in which every
vertex having out-neighbors contains some entire color class inside its
out-neighborhood.  This package computes the minimum number of colors for
orientations of trees exactly, emits independently checkable certificates,
evaluates the closed forms known for special families, and runs exhaustive
verification campaigns over small instances.
"""

from ._backend import BACKEND
from .coloring import (
    Coloring,
    DominatorCertificate,
    ImproperEdge,
    NoDominatedClass,
    SINK_EXEMPT,
    canonicalize,
    dominated_classes,
    is_proper,
    recheck_certificate,
    verify_dominator,
)
from .solver import (
    SolveOptions,
    SolveResult,
    brute_force_chi,
    hitting_set,
    solve_exact,
)
from .trees import (
    BaseTree,
    OrientedTree,
    RootClassification,
    build_tree,
    classify_rooted,
    delete_leaf,
    reverse,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BaseTree",
    "Coloring",
    "DominatorCertificate",
    "ImproperEdge",
    "NoDominatedClass",
    "OrientedTree",
    "RootClassification",
    "SINK_EXEMPT",
    "SolveOptions",
    "SolveResult",
    "brute_force_chi",
    "build_tree",
    "canonicalize",
    "classify_rooted",
    "delete_leaf",
    "dominated_classes",
    "hitting_set",
    "is_proper",
    "recheck_certificate",
    "reverse",
    "solve_exact",
    "verify_dominator",
    "__version__",
]
