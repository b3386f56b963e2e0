"""Verification harness: enumerators, the embedding validator, universality
checks, SVG rendering, file I/O, and the acceptance selftest.

The names below load on first use, through the loader of `ugg`: importing
one submodule, or this package, compiles none of the others.
"""

from .. import _lazy

# exported name -> the submodule that defines it
_HOMES = {
    "ValidationReport": "validate",
    "enumerate_caterpillars": "families",
    "enumerate_chorded_cycles": "families",
    "enumerate_forests": "families",
    "enumerate_trees": "families",
    "forest_counts": "families",
    "free_tree_counts": "families",
    "random_tree": "families",
    "render_svg": "render",
    "run_all": "selftest",
    "validate_embedding": "validate",
}

__all__ = sorted(_HOMES)
__getattr__, __dir__ = _lazy(globals(), _HOMES)
