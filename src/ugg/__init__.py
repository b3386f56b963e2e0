"""Sparse universal geometric graphs.

Build a host graph on n vertices with O(n log n) edges into which every
forest on n vertices embeds with straight, crossing-free edges; build
convex-position hosts for caterpillar trees and for cycles with two chords;
embed concrete inputs and verify everything with exact arithmetic.

The names below load on first use (PEP 562): importing this package
compiles none of its modules, and importing one compiles only what that
one imports.  `ugg.workbench` lists its names the same way, through the
same loader.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOMES = {
    "Caterpillar": "trees",
    "ChordedCycle": "convex",
    "ConvexHost": "convex",
    "Embedding": "host",
    "Forest": "trees",
    "QuarterPlane": "geometry",
    "RootedTree": "trees",
    "UniversalGraph": "ugraph",
    "build_caterpillar_host": "convex",
    "build_complete_host": "convex",
    "build_cycle_host": "convex",
    "build_twochord_host": "convex",
    "build_universal": "ugraph",
    "caterpillar_spine": "trees",
    "convex_edges_cross": "convex",
    "edges_cross": "geometry",
    "embed_caterpillar": "convex",
    "embed_forest": "embedder",
    "embed_tree": "embedder",
    "embed_twochord": "convex",
    "has_window_property": "convex",
    "pi_sequence": "convex",
    "realize_coordinates": "geometry",
    "segments_cross_exact": "geometry",
    "twochord_centers": "convex",
}

__all__ = sorted(_HOMES)


def _lazy(namespace: dict, homes: dict[str, str]):
    """The PEP 562 `__getattr__` and `__dir__` of the package whose globals
    are `namespace`: an exported name, a key of `homes`, is read from the
    submodule it maps to on first use and then kept in the package."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{homes[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), _HOMES)
