"""The backtracking search kernel, which the solver no longer uses.

``_kernel_py.search_round`` stays as the tests' second exact oracle, beside
``brute_force_chi``.  ``BACKEND`` names it for tools that report it.
"""

from __future__ import annotations

from . import _kernel_py

BACKEND = "python"


def get_kernel():
    """The search kernel module."""
    return _kernel_py
