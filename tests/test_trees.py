"""Forest, rooted-tree, and caterpillar input models."""

import pytest

from ugg.errors import DegenerateEdge, IndexOutOfRange, MalformedInput, NotACaterpillar
from ugg.trees import (
    Caterpillar,
    Forest,
    RootedTree,
    caterpillar_spine,
)


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
