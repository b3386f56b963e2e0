"""Forest, rooted-tree, and caterpillar input models."""

import random

import pytest

from ugg.errors import DegenerateEdge, IndexOutOfRange, MalformedInput, NotACaterpillar
from ugg.trees import (
    Caterpillar,
    Forest,
    RootedTree,
    caterpillar_spine,
)
from ugg.workbench.families import ordered_level_sequences, random_tree


def test_forest_accepts_trees_and_forests():
    f = Forest(5, [(0, 1), (1, 2), (3, 4)])
    assert f.components() == [[0, 1, 2], [3, 4]]
    assert not f.is_tree()
    assert Forest(3, [(0, 1), (1, 2)]).is_tree()
    assert Forest(1, []).is_tree()


def test_forest_rejects_cycles():
    with pytest.raises(MalformedInput, match="closes a cycle"):
        Forest(3, [(0, 1), (1, 2), (2, 0)])


def test_forest_rejects_self_loop_and_multi_edge():
    with pytest.raises(DegenerateEdge):
        Forest(2, [(1, 1)])
    with pytest.raises(MalformedInput, match=r"duplicate edge \(0, 1\)"):
        Forest(2, [(0, 1), (1, 0)])
    with pytest.raises(MalformedInput, match=r"duplicate edge \(1, 2\)"):
        Forest(4, [(2, 1), (0, 3), (2, 1)])


def test_forest_rejects_bad_sizes():
    with pytest.raises(MalformedInput):
        Forest(0, [])
    with pytest.raises(IndexOutOfRange):
        Forest(2, [(0, 2)])


def test_rooted_tree_sizes():
    #     0
    #    / \
    #   1   2
    #   |
    #   3
    t = RootedTree.from_adjacency({0: [1, 2], 1: [0, 3], 2: [0], 3: [1]}, root=0)
    assert t.n == 4 and t.root == 0
    assert t.order == [0, 1, 3, 2]
    assert t.parent == [-1, 0, 1, 0]
    assert t.size == [4, 2, 1, 1]


def test_from_adjacency_keeps_ids():
    f = Forest(6, [(4, 5), (5, 3)])
    t = RootedTree.from_adjacency(f.adj, 3)
    assert t.root == 3
    assert t.order == [3, 5, 4]  # only the component of 3
    assert t.parent == [-1, 0, 1]  # 4 hangs off 5
    assert t.size == [3, 2, 1]


def test_piece_helpers():
    # 0 has children 1, 2, 3 and 1 has child 4: positions 0..4 hold 0, 1, 4, 2, 3
    t = RootedTree.from_adjacency(Forest(5, [(0, 1), (0, 2), (0, 3), (1, 4)]).adj, 0)
    assert t.order == [0, 1, 4, 2, 3]
    assert t.kids(0, []) == [(1, 2), (3, 1), (4, 1)]
    no_1 = t.cut([], 1)
    assert no_1 == [(1, 3)]
    assert t.count(0, no_1) == 3 and t.kids(0, no_1) == [(3, 1), (4, 1)]
    only_2 = t.keep([], 0, 3, 4)
    assert only_2 == [(1, 3), (4, 5)]
    assert t.count(0, only_2) == 2 and t.kids(0, only_2) == [(3, 1)]
    assert t.cut_vertex(0, [], 2) == 1
    assert t.cut_vertex(0, no_1, 2) == 0


def piece_steps(T, v, ex, verts, below):
    """Each piece one keep or cut step away from the piece (v, ex), with its
    vertex set taken from `verts` by ancestry alone: keep a piece vertex u
    and all below it, cut such a u other than v and all below it, or keep v
    and its children from start up to (not including) stop, with all below
    them."""
    kids = sorted(c for c in verts if T.parent[c] == v)
    for u in sorted(verts):
        yield u, T.keep(ex, u), {t for t in verts if u in below[t]}
        if u != v:
            yield v, T.cut(ex, u), {t for t in verts if u not in below[t]}
    for i, start in enumerate(kids):
        for stop in (*kids[i + 1:], None):
            part = set(kids[i:kids.index(stop)] if stop is not None else kids[i:])
            yield v, T.keep(ex, v, start, stop), {
                t for t in verts if t == v or below[t] & part}


def small_pieces():
    """(T, below, v, ex, verts) for every ordered tree T on <= 8 vertices
    and every piece (v, ex) up to two keep or cut steps from the whole tree,
    with its explicit vertex set; below[t] holds t and its ancestors."""
    for n in range(1, 9):
        for level in ordered_level_sequences(n):
            T = RootedTree.from_levels(level)
            below = []
            for t in range(n):
                below.append({t} | (below[T.parent[t]] if t else set()))
            seen = {(0, ()): set(range(n))}
            frontier = [(0, [], set(range(n)))]
            for _ in range(2):
                steps, frontier = frontier, []
                for piece in steps:
                    for v, ex, verts in piece_steps(T, *piece, below):
                        known = seen.setdefault((v, tuple(ex)), verts)
                        assert known == verts  # two routes to a piece agree
                        if known is verts:
                            frontier.append((v, ex, verts))
            for (v, ex), verts in seen.items():
                yield T, below, v, list(ex), verts


def ranges_cover(T, v, ex):
    """The vertex set a piece's ranges describe, after checking that they
    are sorted, disjoint and inside v's subtree."""
    assert all(v < s < e <= f for (s, e), (f, _) in zip(ex, ex[1:] + [(v + T.size[v], 0)]))
    return {t for t in range(v, v + T.size[v]) if not any(s <= t < e for s, e in ex)}


def oracle_cut_vertex(T, verts, below, v, s):
    c = v
    while True:
        big = [d for d in sorted(verts) if T.parent[d] == c
               and sum(d in below[t] for t in verts) >= s]
        if not big:
            return c
        c = big[0]


def test_piece_helpers_match_a_set_oracle():
    # on every small piece: its ranges, count, kids (children and piece
    # sizes, in order) and cut_vertex for every s, against the piece's
    # explicit vertex set, children found by scanning `parent`
    pieces = 0
    for T, below, v, ex, verts in small_pieces():
        pieces += 1
        assert ranges_cover(T, v, ex) == verts
        assert T.count(v, ex) == len(verts)
        for u in verts:
            assert T.kids(u, ex) == [(c, sum(c in below[t] for t in verts))
                                     for c in sorted(verts) if T.parent[c] == u]
        if len(verts) >= 2:
            for s in range(1, len(verts) + 1):
                assert T.cut_vertex(v, ex, s) == oracle_cut_vertex(T, verts, below, v, s)
    assert pieces == 25125


def test_path_blocks_match_a_set_oracle():
    # on every small piece (v, ex) and every path from v down to a piece
    # vertex b: each path vertex's block is its piece less the next one's
    # subtree, and b's block is its piece
    for T, below, v, ex, verts in small_pieces():
        for b in verts - {v}:
            path = [b]
            while path[-1] != v:
                path.append(T.parent[path[-1]])
            path.reverse()
            blocks = list(T.path_blocks(ex, path))
            assert len(blocks) == len(path)
            for cx, nx, block in zip(path, path[1:] + [None], blocks):
                assert ranges_cover(T, cx, block) == {
                    t for t in verts
                    if cx in below[t] and (nx is None or nx not in below[t])}


def test_path_is_a_caterpillar():
    cat = caterpillar_spine(Forest(4, [(0, 1), (1, 2), (2, 3)]))
    assert len(cat.spine) + sum(len(l) for l in cat.leaves) == 4


def test_star_is_a_caterpillar():
    cat = caterpillar_spine(Forest(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
    assert cat.n == 5
    assert len(cat.spine) == 1
    assert cat.star_sizes() == (5,)


def test_spider_is_not_a_caterpillar():
    # three legs of length 2 from a hub: removing leaves leaves a 3-star
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    with pytest.raises(NotACaterpillar):
        caterpillar_spine(Forest(7, edges))


def test_disconnected_input_is_not_a_caterpillar():
    with pytest.raises(NotACaterpillar):
        caterpillar_spine(Forest(4, [(0, 1), (2, 3)]))


def test_caterpillar_roundtrip():
    cat = Caterpillar(spine=(0, 3), leaves=((1, 2), (4, 5, 6)))
    f = cat.to_forest()
    assert f.n == 7
    back = caterpillar_spine(f)
    assert sorted(back.star_sizes()) == sorted(cat.star_sizes())


def test_caterpillar_spine_must_have_interior_leaves_attached():
    # broom: path 0-1-2 with extra leaves at 2
    cat = caterpillar_spine(Forest(5, [(0, 1), (1, 2), (2, 3), (2, 4)]))
    sizes = cat.star_sizes()
    assert sum(sizes) == 5


def test_tiny_cases():
    one = caterpillar_spine(Forest(1, []))
    assert one.n == 1 and one.spine == (0,)
    two = caterpillar_spine(Forest(2, [(0, 1)]))
    assert two.n == 2


def test_caterpillar_validation():
    with pytest.raises(MalformedInput):
        Caterpillar(spine=(), leaves=())
    with pytest.raises(MalformedInput):
        Caterpillar(spine=(0, 1), leaves=((2,),))  # leaf list length mismatch
    with pytest.raises(MalformedInput):
        Caterpillar(spine=(0, 0), leaves=((), ()))  # duplicate ids


def listed_caterpillar_spine(forest):
    """caterpillar_spine as a dict of inner degrees, a list per spine step
    and a sort per leaf group: the oracle for the one-pass version."""
    if not forest.is_tree():
        raise NotACaterpillar("input is not a connected tree")
    n = forest.n
    if n <= 2:
        return Caterpillar((0,), (tuple(range(1, n)),))
    deg = [len(forest.adj[v]) for v in range(n)]
    spine_set = [v for v in range(n) if deg[v] >= 2]
    inner_deg = {v: sum(1 for w in forest.adj[v] if deg[w] >= 2) for v in spine_set}
    if any(d > 2 for d in inner_deg.values()):
        raise NotACaterpillar("non-leaf vertices do not form a path")
    order = [min(v for v in spine_set if inner_deg[v] <= 1)]
    prev = None
    while True:
        nxt = [w for w in forest.adj[order[-1]] if deg[w] >= 2 and w != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    leaves = tuple(tuple(sorted(w for w in forest.adj[v] if deg[w] == 1)) for v in order)
    return Caterpillar(tuple(order), leaves)


def test_caterpillar_spine_matches_the_listed_walk():
    rng = random.Random(13)
    outcomes = set()

    def outcome(fn, forest):
        try:
            return fn(forest)
        except NotACaterpillar as e:
            return str(e)

    for _ in range(1500):
        n = rng.randrange(1, 40)
        if rng.random() < 0.4:  # a random tree, seldom a caterpillar past n = 8
            forest = random_tree(n, rng)
        else:  # a caterpillar, or with a few edges dropped a forest
            s = rng.randrange(1, n + 1)
            edges = [(i, i + 1) for i in range(s - 1)]
            edges += [(rng.randrange(s), v) for v in range(s, n)]
            if edges and rng.random() < 0.1:
                del edges[rng.randrange(len(edges))]
            perm = rng.sample(range(n), n)
            forest = Forest(n, [(perm[u], perm[v]) for u, v in rng.sample(edges, len(edges))])
        got = outcome(caterpillar_spine, forest)
        assert got == outcome(listed_caterpillar_spine, forest), forest
        outcomes.add(got if isinstance(got, str) else "caterpillar")
    assert outcomes == {"caterpillar", "input is not a connected tree",
                        "non-leaf vertices do not form a path"}
