"""Verification harness: enumerators, the embedding validator, universality
checks, SVG rendering, file I/O, and the acceptance selftest.

The names below load on first use (PEP 562): importing one submodule, or
this package, compiles none of the others.
"""

import importlib

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


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
