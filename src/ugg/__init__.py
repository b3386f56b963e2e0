"""Sparse universal geometric graphs.

Build a host graph on n vertices with O(n log n) edges into which every
forest on n vertices embeds with straight, crossing-free edges; build
convex-position hosts for caterpillar trees and for cycles with two chords;
embed concrete inputs and verify everything with exact arithmetic.
"""

from .convex import (
    ChordedCycle,
    ConvexHost,
    build_caterpillar_host,
    build_complete_host,
    build_cycle_host,
    build_twochord_host,
    convex_edges_cross,
    embed_caterpillar,
    embed_twochord,
    has_window_property,
    pi_sequence,
    twochord_centers,
)
from .embedder import Embedding, embed_forest, embed_tree
from .geometry import (
    QuarterPlane,
    edges_cross,
    realize_coordinates,
    segments_cross_exact,
)
from .trees import Caterpillar, Forest, RootedTree, caterpillar_spine
from .ugraph import UniversalGraph, build_universal

__version__ = "0.1.0"

__all__ = [
    "Caterpillar",
    "ChordedCycle",
    "ConvexHost",
    "Embedding",
    "Forest",
    "QuarterPlane",
    "RootedTree",
    "UniversalGraph",
    "build_caterpillar_host",
    "build_complete_host",
    "build_cycle_host",
    "build_twochord_host",
    "build_universal",
    "caterpillar_spine",
    "convex_edges_cross",
    "edges_cross",
    "embed_caterpillar",
    "embed_forest",
    "embed_tree",
    "embed_twochord",
    "has_window_property",
    "pi_sequence",
    "realize_coordinates",
    "segments_cross_exact",
    "twochord_centers",
]
