"""The recursive embedding algorithm and its helper operations."""

import hashlib
import itertools
import random
import statistics
import sys
import tracemalloc
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ugg import btree, embedder
from ugg.embedder import embed_forest, embed_tree
from ugg.errors import (
    EqualIndices,
    IndexOutOfRange,
    InternalInvariantBroken,
    InvalidS,
    InvalidSize,
    NotACaterpillar,
    PreconditionViolated,
    SizeMismatch,
)
from ugg.convex import (
    ChordedCycle,
    build_caterpillar_host,
    build_twochord_host,
    embed_caterpillar,
    embed_twochord,
)
from ugg.geometry import edges_cross
from ugg.host import Embedding, Provenance
from ugg.trees import Caterpillar, Forest, RootedTree, caterpillar_spine
from ugg.ugraph import UniversalGraph, build_universal
from ugg.workbench.families import (
    enumerate_forests,
    enumerate_trees,
    ordered_level_sequences,
    random_tree,
)
from ugg.workbench.validate import validate_embedding

# an input graph as the validator reads it
Graph = namedtuple("Graph", "n edges")


def path_tree(n, root=0):
    adj = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}
    return RootedTree.from_adjacency(adj, root)


def star_tree(n):
    adj = {0: list(range(1, n))}
    adj.update({i: [0] for i in range(1, n)})
    return RootedTree.from_adjacency(adj, 0)


def test_cut_vertex_path():
    # position i holds vertex i on these trees; sizes along the path from
    # the root are 4,3,2,1
    assert path_tree(4).cut_vertex(0, [], 2) == 2


def test_cut_vertex_star():
    assert star_tree(5).cut_vertex(0, [], 2) == 0


def test_cut_vertex_single_edge():
    assert path_tree(2).cut_vertex(0, [], 1) == 1


def test_cut_vertex_contract_exhaustive():
    # the deepest vertex whose subtree has >= s vertices while every child
    # subtree has <= s - 1
    for n in range(2, 9):
        for tree in enumerate_trees(n):
            rooted = RootedTree.from_adjacency(tree.adj, 0)
            for s in range(1, n + 1):
                c = rooted.cut_vertex(0, [], s)
                assert rooted.size[c] >= s
                assert all(rooted.size[d] <= s - 1
                           for d, p in enumerate(rooted.parent) if p == c)


def test_cut_vertex_errors():
    with pytest.raises(InvalidSize):
        path_tree(1).cut_vertex(0, [], 1)
    with pytest.raises(InvalidS):
        path_tree(3).cut_vertex(0, [], 0)
    with pytest.raises(InvalidS):
        path_tree(3).cut_vertex(0, [], 4)


def iso_interior(h, lo, hi, k):
    """`_iso_interior` with k's level and parent from `_locate`."""
    level, _, parent = btree._locate(h, k)
    return embedder._iso_interior(h, lo, hi, k, level, parent)


def test_iso_interior_example():
    # [4, 6] minus its maximum 5 shifts by d = 1 onto [3, 4]
    G = build_universal(15)
    assert iso_interior(G.h, 4, 6, 5) == 1
    assert [embedder._lift(g, 5, 1) for g in (3, 4)] == [4, 6]
    # the second-highest, 6, maps to the target's highest
    assert btree.highest(G.h, [4, 6]) == 6 and btree.highest_in_range(G.h, 3, 4) == 6 - 1 - 1


def test_iso_interior_boundary_examples():
    # an endpoint maximum needs no shift: the recursion embeds the rest on
    # the interval minus that endpoint as it stands
    G = build_universal(15)
    emb = embed_tree(G, path_tree(4))
    assert ("case-1.2.2", (0, 3)) in emb.provenance
    assert emb.mapping[0] == 0 and emb.mapping[1] == btree.highest_in_range(G.h, 1, 3)
    # hi boundary: in [2, 5] the highest is 5 (level 3, rightmost position)
    emb = embed_tree(G, path_tree(4), lo=2)
    assert ("case-1.2.1", (2, 5)) in emb.provenance
    assert emb.mapping[0] == 5 and emb.mapping[1] == btree.highest_in_range(G.h, 2, 4)


def test_iso_interior_precondition_errors():
    G = build_universal(15)
    h = G.h
    with pytest.raises(PreconditionViolated):
        iso_interior(h, 4, 6, 4)  # an endpoint, not interior
    # highest of [4, 7] is the interior vertex 5; its right child 7 is inside
    assert btree.highest_in_range(G.h, 4, 7) == 5
    with pytest.raises(PreconditionViolated):
        iso_interior(h, 4, 7, 5)
    # in [3, 6] the subtree of 5's left sibling's left child reaches vertex 3
    assert btree.highest_in_range(G.h, 3, 6) == 5
    with pytest.raises(PreconditionViolated):
        iso_interior(h, 3, 6, 5)


def interior_shifts(G):
    """(lo, hi, k, d) for every interval of G whose maximum k is interior
    and passes the isomorphism's checks."""
    for lo in range(G.n):
        for hi in range(lo + 2, G.n):
            k = btree.highest_in_range(G.h, lo, hi)
            if lo < k < hi:
                try:
                    yield lo, hi, k, iso_interior(G.h, lo, hi, k)
                except PreconditionViolated:
                    pass


@pytest.mark.parametrize("n", [15, 31])
def test_iso_interior_preserves_edges_and_heights(n):
    # u -> u - d - [u > k] maps [lo, hi] minus k onto [lo - d, hi - d - 1],
    # keeps host edges both ways, and the recursion's lift inverts it
    G = build_universal(n)
    checked = 0
    for lo, hi, k, d in interior_shifts(G):
        checked += 1
        src = [u for u in range(lo, hi + 1) if u != k]
        img = [u - d - (u > k) for u in src]
        assert img == list(range(lo - d, hi - d))
        assert [embedder._lift(w, k, d) for w in img] == src
        for (u, w), (fu, fw) in zip(itertools.combinations(src, 2),
                                    itertools.combinations(img, 2)):
            assert G.is_edge(u, w) == G.is_edge(fu, fw)
    assert checked > 0


@pytest.mark.parametrize("n", [15, 31])
def test_iso_interior_preserves_crossings(n):
    G = build_universal(n)
    checked = 0
    for lo, hi, k, d in interior_shifts(G):
        checked += 1
        src = [u for u in range(lo, hi + 1) if u != k]
        pairs = [p for p in itertools.combinations(src, 2) if G.is_edge(*p)]
        for e1, e2 in itertools.combinations(pairs, 2):
            f1, f2 = ([u - d - (u > k) for u in e] for e in (e1, e2))
            assert edges_cross(G.h, e1, e2) == edges_cross(G.h, f1, f2)
    assert checked > 0


def test_iso_interior_maps_second_highest_to_target_highest():
    for n in (15, 31):
        G = build_universal(n)
        checked = 0
        for lo, hi, k, d in interior_shifts(G):
            checked += 1
            second = btree.highest(G.h, [u for u in range(lo, hi + 1) if u != k])
            assert second - d - (second > k) == btree.highest_in_range(G.h, lo - d, hi - d - 1)
        assert checked > 0, n


def test_lift_example():
    # frame vertices 4 and 3 of the shift that removed 5 lift to 6 and 4
    assert embedder._lift(4, 5, 1) == 6
    assert embedder._lift(3, 5, 1) == 4


def test_check_replace_example():
    # the vertex on 3, the maximum of [2, 3], may move up to 4
    G = build_universal(7)
    embedder._check_replace(G, 2, 3, 3, 4)
    assert G.is_edge(4, 2)


def test_check_replace_errors():
    G = build_universal(7)
    with pytest.raises(PreconditionViolated):
        embedder._check_replace(G, 2, 3, 3, 2)  # replacement inside interval
    # height order at n=7 descends 0,4,1,6,5,3,2; x=3 is lower than 5
    assert btree.highest_in_range(G.h, 5, 6) == 6
    with pytest.raises(PreconditionViolated):
        embedder._check_replace(G, 5, 6, 6, 3)


def test_embed_star_center_portal():
    G = build_universal(7)
    emb = embed_tree(G, star_tree(7))
    assert emb.mapping[0] == 0  # center on the interval's highest vertex
    assert sorted(emb.mapping.values()) == list(range(7))


def test_embed_single_vertex():
    G = build_universal(5)
    t = RootedTree.from_adjacency({3: []}, 3)
    emb = embed_tree(G, t, lo=2)
    assert emb.mapping == {3: 2}


def test_embed_path_endpoint_portal():
    G = build_universal(7)
    emb = embed_tree(G, path_tree(7))
    assert emb.mapping[0] == 0
    report = validate_embedding(G, Graph(7, [(i, i + 1) for i in range(6)]), emb)
    assert report.ok, report.failures


def test_embed_path_midpoint_portal():
    G = build_universal(9)
    emb = embed_tree(G, path_tree(9, root=4))
    assert emb.mapping[4] == btree.highest_in_range(G.h, 0, 8)
    report = validate_embedding(G, Graph(9, [(i, i + 1) for i in range(8)]), emb)
    assert report.ok, report.failures


def test_two_portal_postconditions():
    G = build_universal(9)
    tree = path_tree(9, root=0)
    emb = embed_tree(G, tree, second=8)
    assert emb.mapping[0] < emb.mapping[8]
    report = validate_embedding(G, Graph(9, [(i, i + 1) for i in range(8)]), emb)
    assert report.ok, report.failures


def test_two_portal_adjacent_portals():
    G = build_universal(6)
    tree = path_tree(6, root=2)
    emb = embed_tree(G, tree, second=3)
    assert emb.mapping[2] < emb.mapping[3]
    report = validate_embedding(G, Graph(6, [(i, i + 1) for i in range(5)]), emb)
    assert report.ok, report.failures


def test_embed_tree_first_portal_must_be_the_root():
    # the root is the first portal by construction; a second portal must be
    # another vertex of the tree
    G = build_universal(4)
    with pytest.raises(IndexOutOfRange):
        embed_tree(G, path_tree(4), second=9)


def test_embed_forest_components_in_consecutive_intervals():
    f = Forest(5, [(0, 1), (2, 3), (3, 4)])
    G = build_universal(5)
    emb = embed_forest(G, f)
    assert set(emb.mapping[v] for v in (0, 1)) == {0, 1}
    assert set(emb.mapping[v] for v in (2, 3, 4)) == {2, 3, 4}
    assert validate_embedding(G, f, emb).ok


def test_embed_isolated_vertices():
    f = Forest(3, [])
    G = build_universal(3)
    emb = embed_forest(G, f)
    assert sorted(emb.mapping.values()) == [0, 1, 2]


def test_all_recursion_cases_reached():
    seen = set()
    for n in range(1, 10):
        G = build_universal(n)
        for forest in enumerate_forests(n):
            emb = embed_forest(G, forest)
            seen.update(label for label, _ in emb.provenance)
    assert {"base", "case-1.1", "case-1.2.1", "case-1.2.2", "case-1.2.3",
            "case-1.2.4", "case-1.2.5.1", "case-2"} <= seen


def test_deep_split_case_reached():
    # Full-interval embeddings at small n never hit the variant where the cut
    # subtree's window covers the interval maximum itself.  Drive it directly:
    # in [6, 14] of the 15-vertex host the maximum 8 is interior with its
    # right child 12 inside, and a star portaled at a leaf makes the cut
    # piece as large as the whole remainder.
    G = build_universal(15)
    adj = {0: list(range(1, 9))}
    for v in range(1, 9):
        adj[v] = [0]
    rooted = RootedTree.from_adjacency(adj, 1)
    emb = embed_tree(G, rooted, lo=6)
    labels = [label for label, _ in emb.provenance]
    assert "case-1.2.5.2" in labels
    assert emb.mapping[1] == 8 and emb.mapping[0] == 12
    star = Forest(9, [(0, v) for v in range(1, 9)])
    assert validate_embedding(G, star, emb).ok


# The labels of the returns embedding the six shapes of shape_forests(1023,
# random.Random(1023)); together they fire every case, 1.2.5.2 included.
SHAPE_CASE_COUNTS = {
    "base": 4734, "case-1.1": 791, "case-1.2.1": 442, "case-1.2.2": 763,
    "case-1.2.3": 15, "case-1.2.4": 183, "case-1.2.5.1": 120, "case-1.2.5.2": 1,
    "case-2": 161, "forest-component": 6,
}


def test_the_six_shapes_fire_every_case():
    counts = Counter()
    for forest in shape_forests(1023, random.Random(1023)).values():
        emb = embed_forest(build_universal(1023), forest)
        counts.update(label for label, _ in emb.provenance)
    assert counts == SHAPE_CASE_COUNTS


def test_provenance_record_is_small():
    # the memory that dropping an embedding's provenance frees, per record;
    # a (label, (lo, hi)) tuple pair per record took about 150 bytes
    tree = random_tree(16383, random.Random(16383))
    G = build_universal(16383)
    tracemalloc.start()
    try:
        emb = embed_forest(G, tree)
        records, held = len(emb.provenance), tracemalloc.get_traced_memory()[0]
        del emb.provenance
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > tree.n
    assert 0 < freed <= 48 * records, freed / records


def test_provenance_at_the_top_of_a_huge_host():
    # vertices of 41 bits: each packed record holds two and a label code
    top = 2**40 - 1
    adj = {0: [1, 2], 1: [0, 3, 4], 2: [0, 5], 3: [1], 4: [1, 6], 5: [2], 6: [4]}
    emb = embed_tree(UniversalGraph(2**40), RootedTree.from_adjacency(adj, 0), lo=top - 6)
    records = [("base", (top - 1, top - 1)), ("case-1.2.1", (top - 1, top)),
               ("base", (top - 5, top - 5)), ("base", (top - 4, top - 4)),
               ("case-1.2.1", (top - 4, top - 3)), ("case-1.2.1", (top - 4, top - 2)),
               ("case-1.1", (top - 5, top - 2)), ("case-1.2.2", (top - 6, top - 2)),
               ("case-1.1", (top - 6, top))]
    assert repr(emb.provenance) == repr(records)
    assert sorted(emb.mapping.items()) == [(0, top - 6), (1, top - 2), (2, top),
                                           (3, top - 5), (4, top - 3), (5, top - 1),
                                           (6, top - 4)]
    prov = emb.provenance
    assert len(prov) == 9 and list(prov) == records
    assert prov[0] == records[0] and prov[-1] == records[-1] and prov[2:4] == records[2:4]
    assert ("case-1.2.2", (top - 6, top - 2)) in prov
    assert ("case-1.2.2", (top - 6, top - 1)) not in prov and "base" not in prov
    with pytest.raises(TypeError):
        prov[0] = records[1]
    with pytest.raises(AttributeError):
        prov.append(records[0])


def test_every_embedder_returns_one_provenance_type():
    forest = Forest(4, [(0, 1), (1, 2)])
    cat = Caterpillar(spine=(0, 3), leaves=((1, 2), (4, 5, 6)))
    cc = ChordedCycle(10, ((0, 3), (5, 9)))
    embeddings = {
        "forest": embed_forest(build_universal(4), forest),
        "tree": embed_tree(build_universal(4), path_tree(3), lo=1),
        "caterpillar": embed_caterpillar(build_caterpillar_host(7), cat),
        "twochord": embed_twochord(build_twochord_host(10), cc),
        "mapping": Embedding({0: 0}),
    }
    assert {kind: type(emb.provenance) for kind, emb in embeddings.items()} == dict.fromkeys(
        embeddings, Provenance)
    assert list(embeddings["forest"].provenance) == [
        ("base", (2, 2)), ("case-1.2.2", (1, 2)), ("case-1.2.2", (0, 2)),
        ("forest-component", (0, 2)), ("base", (3, 3)), ("forest-component", (3, 3))]
    assert list(embeddings["caterpillar"].provenance) == [("caterpillar", (0, 6))]
    assert list(embeddings["twochord"].provenance) == [("twochord", (0, 9))]
    assert len(embeddings["mapping"].provenance) == 0
    assert repr(embeddings["mapping"].provenance) == "[]"


def test_every_rooting_and_portal_choice_works():
    # the recursion must succeed for ANY portal, not just the default root
    for n in range(2, 8):
        G = build_universal(n)
        for tree in enumerate_trees(n):
            for root in range(n):
                rooted = RootedTree.from_adjacency(
                    {v: list(tree.adj[v]) for v in range(n)}, root)
                emb = embed_tree(G, rooted)
                report = validate_embedding(G, tree, emb)
                assert report.ok, (n, tree.edges, root, report.failures)


def test_two_portals_exhaustive_small():
    for n in range(2, 8):
        G = build_universal(n)
        for tree in enumerate_trees(n):
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    rooted = RootedTree.from_adjacency(
                        {v: list(tree.adj[v]) for v in range(n)}, a)
                    emb = embed_tree(G, rooted, second=b)
                    report = validate_embedding(G, tree, emb)
                    assert report.ok, (n, tree.edges, a, b, report.failures)
                    assert emb.mapping[a] < emb.mapping[b]


@given(st.integers(min_value=1, max_value=64), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_random_trees_embed(n, rng):
    tree = random_tree(n, rng)
    G = build_universal(n)
    emb = embed_forest(G, tree)
    assert validate_embedding(G, tree, emb).ok


def test_embed_errors():
    G = build_universal(4)
    with pytest.raises(IndexOutOfRange):
        embed_tree(G, path_tree(3), lo=2)
    with pytest.raises(SizeMismatch):
        embed_forest(G, Forest(3, []))
    with pytest.raises(EqualIndices):
        embed_tree(G, path_tree(4), second=0)


def shape_forests(n, rng):
    """The six bench tree shapes on n vertices, as forests."""
    legs = int(n ** 0.5)
    spider = [(0 if v <= legs else v - legs, v) for v in range(1, n)]
    spine = n // 2
    return {
        "random": random_tree(n, rng),
        "path": Forest(n, [(i, i + 1) for i in range(n - 1)]),
        "star": Forest(n, [(0, i) for i in range(1, n)]),
        "binary": Forest(n, [((i - 1) // 2, i) for i in range(1, n)]),
        "caterpillar": Forest(n, [(i, i + 1) for i in range(spine - 1)]
                              + [(rng.randrange(spine), v) for v in range(spine, n)]),
        "spider": Forest(n, spider),
    }


@pytest.mark.parametrize("shape", ["random", "star", "path", "components"])
def test_embed_forest_roots_each_component_once(monkeypatch, shape):
    """`Forest` roots each component once, at its smallest vertex, in the
    walk that checks it; `embed_forest` and `caterpillar_spine` read those
    trees and root nothing."""
    forests = shape_forests(1023, random.Random(1023))
    forests["components"] = Forest(1023, [(i, i + 1) for i in range(1022) if i % 3 != 2])
    edges = forests[shape].edges
    calls = []
    from_adjacency = RootedTree.from_adjacency.__func__

    def counting(cls, adj, root, seen=None):
        calls.append(root)
        return from_adjacency(cls, adj, root, seen)

    monkeypatch.setattr(RootedTree, "from_adjacency", classmethod(counting))
    forest = Forest(1023, edges)
    assert calls == [comp[0] for comp in forest.components()]
    calls.clear()
    embed_forest(build_universal(1023), forest)
    try:
        caterpillar_spine(forest)
    except NotACaterpillar:
        pass
    assert calls == []


# sha256 of embed_forest's mapping and provenance on every forest with n <= 8
# and on the six shapes at n = 1023: any change to the embedder's choices shows.
EMBED_FOREST_DIGEST = "1b370c486d2d47cca5cf4e67cc79adda8df73753f84674c11356781c495434ea"


def test_embed_forest_output_is_pinned():
    forests = [f for n in range(1, 9) for f in enumerate_forests(n)]
    forests += shape_forests(1023, random.Random(1023)).values()
    digest = hashlib.sha256()
    for forest in forests:
        emb = embed_forest(build_universal(forest.n), forest)
        digest.update(repr((sorted(emb.mapping.items()), emb.provenance)).encode())
    assert digest.hexdigest() == EMBED_FOREST_DIGEST


# sha256 of embed_forest's mapping and provenance on the six shapes at
# n = 4095 (h = 12), past the depth of EMBED_FOREST_DIGEST's n = 1023.
EMBED_FOREST_4095_DIGEST = "0e22cb11a91c8180582fbbfd7e993b0c7062d27dba0c88e2628fb1640965ced5"


def test_deep_embed_forest_output_is_pinned():
    digest = hashlib.sha256()
    for forest in shape_forests(4095, random.Random(4095)).values():
        emb = embed_forest(build_universal(forest.n), forest)
        digest.update(repr((sorted(emb.mapping.items()), emb.provenance)).encode())
    assert digest.hexdigest() == EMBED_FOREST_4095_DIGEST


# sha256 of embed_tree's mapping and provenance on every ordered tree with
# at most 7 vertices, on every interval of every host with n <= 9, with the
# root alone and with each other vertex as second portal: 9,819 instances.
# Each record is (n, levels, lo, portals, mapping, provenance), portals being
# 0 or (0, second) as the first portal (the root) and the second.
EMBED_TREE_DIGEST = "8ecc964a1d462033949f7c0328c409ef5a53814c030acd5dbc0224174e943563"


def test_embed_tree_output_is_pinned():
    digest, count = hashlib.sha256(), 0
    hosts = [build_universal(n) for n in range(1, 10)]
    for s in range(1, 8):
        for level in ordered_level_sequences(s):
            tree = RootedTree.from_levels(level)
            for G in hosts[s - 1:]:
                for lo in range(G.n - s + 1):
                    for second in (None, *range(1, s)):
                        emb = embed_tree(G, tree, lo=lo, second=second)
                        portals = 0 if second is None else (0, second)
                        digest.update(repr((G.n, level, lo, portals,
                                            sorted(emb.mapping.items()),
                                            emb.provenance)).encode())
                        count += 1
    assert count == 9819
    assert digest.hexdigest() == EMBED_TREE_DIGEST


def test_deep_recursion_leaves_the_interpreter_alone():
    limit = sys.getrecursionlimit()
    G = build_universal(4095)
    for shape, forest in shape_forests(4095, random.Random(4095)).items():
        emb = embed_forest(G, forest)
        assert validate_embedding(G, forest, emb).ok, shape
    path = Forest(65535, [(i, i + 1) for i in range(65534)])
    G = build_universal(65535)
    assert validate_embedding(G, path, embed_forest(G, path)).ok
    assert sys.getrecursionlimit() == limit


def test_embedding_cost_does_not_depend_on_the_callers_depth():
    # The recursion runs in generators, which keep their frames, so an
    # embed's page faults do not depend on where its caller stands; the
    # median skips the rare depth at which `_drive` itself ends a chunk of
    # the thread's frame stack.  Recursive calls pushed on that stack would
    # cross a chunk's end at many caller depths and map and unmap a chunk on
    # every crossing: about 170 faults per embed in the median here.
    resource = pytest.importorskip("resource")
    G = build_universal(1023)
    forests = shape_forests(1023, random.Random(1023))

    def faults_at(depth, forest):
        if depth:
            return faults_at(depth - 1, forest)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        embed_forest(G, forest)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    for shape in ("binary", "random"):
        embed_forest(G, forests[shape])  # warm up
        faults = [faults_at(depth, forests[shape]) for depth in range(64)]
        assert statistics.median(faults) < 32, (shape, faults)


def test_depth_bound_raises_when_too_small(monkeypatch):
    # a random tree on 255 vertices nests deeper than h = 8 single calls
    tree = random_tree(255, random.Random(255))
    G = build_universal(255)
    assert validate_embedding(G, tree, embed_forest(G, tree)).ok
    monkeypatch.setattr(embedder, "DEPTH_PER_LEVEL", 1)
    with pytest.raises(InternalInvariantBroken, match="deeper than 8"):
        embed_forest(G, tree)


@pytest.mark.parametrize("nth", [1, 40, 200])
@pytest.mark.parametrize("fault, message", [
    ("twice", "written twice"),
    ("outside", "outside the frame"),
    ("skip", "does not fill"),
])
def test_faulty_placement_breaks_an_invariant(monkeypatch, fault, message, nth):
    # the nth write goes wrong: a second tree vertex lands on its host
    # vertex, it lands just past the current frame, or it never happens
    tree = random_tree(255, random.Random(255))
    G = build_universal(255)
    put, calls = embedder._Recursion._put, []

    def faulty(self, t, g):
        calls.append(g)
        if len(calls) != nth:
            return put(self, t, g)
        if fault == "twice":
            put(self, t, g)
            return put(self, self.out.index(-1), g)
        if fault == "outside":
            return put(self, t, self.frame[1] + 1)

    monkeypatch.setattr(embedder._Recursion, "_put", faulty)
    with pytest.raises(InternalInvariantBroken, match=message):
        embed_forest(G, tree)
    assert len(calls) >= nth


@pytest.mark.parametrize("nth", [2, 40, 200])
def test_child_interval_past_its_frame_breaks_an_invariant(monkeypatch, nth):
    # the nth recursive call gets an interval moved one frame width right,
    # so it no longer lies inside its parent's
    tree = random_tree(255, random.Random(255))
    G = build_universal(255)
    single, calls = embedder._Recursion.single, []

    def shifted(self, a, ex, lo, hi, depth):
        calls.append(lo)
        if len(calls) == nth:
            width = self.frame[1] - self.frame[0] + 1
            lo, hi = lo + width, hi + width
        return single(self, a, ex, lo, hi, depth)

    monkeypatch.setattr(embedder._Recursion, "single", shifted)
    with pytest.raises(InternalInvariantBroken, match="frame"):
        embed_forest(G, tree)
    assert len(calls) >= nth


def piece_tree(T, a, ex):
    """The piece (a, ex) of T as a tree of its own, children in T's order."""
    skip = {t for s, e in ex for t in range(s, e)}
    pos = [t for t in range(a, a + T.size[a]) if t not in skip]
    index = {t: i for i, t in enumerate(pos)}
    parent = [-1] + [index[T.parent[t]] for t in pos[1:]]
    size = [1] * len(pos)
    for i in range(len(pos) - 1, 0, -1):
        size[parent[i]] += size[i]
    return RootedTree([T.order[t] for t in pos], parent, size)


def test_each_single_call_lands_where_a_fresh_embed_tree_does(monkeypatch):
    # the recursion is a pure function of its instance: on the forests with
    # n <= 9, every single-portal call puts its portal where embed_tree does
    # on the same ordered piece and interval
    single, nested, checked = embedder._Recursion.single, [], []

    def compared(self, a, ex, lo, hi, depth):
        g = yield from single(self, a, ex, lo, hi, depth)
        if not nested:  # the fresh run's own calls are not compared again
            nested.append(True)
            try:
                portal = self.T.order[a]
                emb = embed_tree(self.G, piece_tree(self.T, a, ex), lo=lo)
            finally:
                nested.pop()
            assert emb.mapping[portal] == g, (lo, hi, portal)
            checked.append(g)
        return g

    monkeypatch.setattr(embedder._Recursion, "single", compared)
    for n in range(1, 10):
        G = build_universal(n)
        for forest in enumerate_forests(n):
            embed_forest(G, forest)
    assert len(checked) == 2738  # the 2752 recursive returns less 14 of case 2


def test_validation_reads_each_height_once(monkeypatch):
    # one table of height keys per validation, built by a walk; no descent
    # per vertex or per edge, and nothing caches heights behind its back
    assert not hasattr(btree._locate, "cache_info")
    n = 4095
    G = build_universal(n)
    height_keys, locate = btree.height_keys, btree._locate
    calls = {"height_keys": 0, "_locate": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for shape, forest in shape_forests(n, random.Random(n)).items():
        emb = embed_forest(G, forest)
        calls.update(height_keys=0, _locate=0)
        monkeypatch.setattr(btree, "height_keys", counting("height_keys", height_keys))
        monkeypatch.setattr(btree, "_locate", counting("_locate", locate))
        assert validate_embedding(G, forest, emb).ok, shape
        monkeypatch.setattr(btree, "height_keys", height_keys)
        monkeypatch.setattr(btree, "_locate", locate)
        assert calls == {"height_keys": 1, "_locate": 0}, shape
