"""Index arithmetic on the implicit complete binary tree."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ugg import btree
from ugg.btree import BTreeShape
from ugg.errors import IndexOutOfRange, InvalidSize

H3 = BTreeShape(3, 7)


def test_locate_examples():
    assert btree.locate(H3, 0) == (1, 0)
    assert btree.locate(H3, 4) == (2, 1)
    assert btree.locate(H3, 5) == (3, 2)


def test_locate_index_roundtrip_exhaustive():
    for h in range(1, 8):
        shape = BTreeShape(h, (1 << h) - 1)
        for i in range(shape.m):
            level, pos = btree.locate(shape, i)
            assert btree.index_of(shape, level, pos) == i


@given(st.integers(min_value=1, max_value=16), st.data())
def test_locate_index_roundtrip_random(h, data):
    shape = BTreeShape(h, (1 << h) - 1)
    i = data.draw(st.integers(min_value=0, max_value=shape.m - 1))
    level, pos = btree.locate(shape, i)
    assert btree.index_of(shape, level, pos) == i
    assert 1 <= level <= h
    assert 0 <= pos < (1 << (level - 1))


def test_nav_root():
    info = btree.nav(H3, 0)
    assert info.parent is None
    assert (info.left_child, info.right_child) == (1, 4)
    assert info.left_level_neighbor is None
    assert info.right_level_neighbor is None
    assert info.subtree_range == (0, 6)


def test_nav_inner():
    info = btree.nav(H3, 4)
    assert info.parent == 0
    assert (info.left_child, info.right_child) == (5, 6)
    assert info.left_level_neighbor == 1
    assert info.right_level_neighbor is None
    assert info.subtree_range == (4, 6)


def test_nav_leaf():
    info = btree.nav(H3, 2)
    assert info.parent == 1
    assert info.left_child is None and info.right_child is None
    assert info.left_level_neighbor is None
    assert info.right_level_neighbor == 3
    assert info.subtree_range == (2, 2)


def test_nav_consistency():
    for h in range(1, 6):
        shape = BTreeShape(h, (1 << h) - 1)
        for i in range(shape.m):
            info = btree.nav(shape, i)
            for child in (info.left_child, info.right_child):
                if child is not None:
                    assert btree.nav(shape, child).parent == i
            if info.left_level_neighbor is not None:
                other = btree.nav(shape, info.left_level_neighbor)
                assert other.right_level_neighbor == i
            if info.right_level_neighbor is not None:
                other = btree.nav(shape, info.right_level_neighbor)
                assert other.left_level_neighbor == i


def test_higher_examples():
    # a smaller height key is a higher node
    assert btree.height_key(H3, 0) < btree.height_key(H3, 5)
    assert btree.height_key(H3, 4) < btree.height_key(H3, 1)
    assert not btree.height_key(H3, 6) < btree.height_key(H3, 1)


def test_height_order_on_seven_nodes():
    order = sorted(range(7), key=lambda i: btree.height_key(H3, i))
    assert order == [0, 4, 1, 6, 5, 3, 2]


def test_height_order_is_level_then_index_descending():
    # preorder runs left to right along each level, so the height order is
    # the order of (level, -index); _check_replace compares heights this way
    for h in range(1, 8):
        shape = BTreeShape(h, (1 << h) - 1)
        by_key = sorted(range(shape.m), key=lambda i: btree.height_key(shape, i))
        assert by_key == sorted(range(shape.m), key=lambda i: (btree.locate(shape, i)[0], -i))


def test_height_keys_walk_matches_height_key():
    shapes = [BTreeShape.from_size(n) for n in range(1, 131)]
    shapes += [BTreeShape(7, 100), BTreeShape(7, 127), BTreeShape(8, 100),
               BTreeShape.from_size(4095)]
    for shape in shapes:
        for n in {shape.n, shape.m}:
            assert btree.height_keys(shape, n) == [btree.height_key(shape, i) for i in range(n)]
    assert btree.height_keys(H3, 0) == []
    with pytest.raises(IndexOutOfRange):
        btree.height_keys(H3, 8)


def test_key_location_inverts_height_key():
    for shape in (H3, BTreeShape(9, 511), BTreeShape.from_size(10**9)):
        for i in {*range(min(shape.m, 600)), shape.m - 1, shape.m // 2}:
            assert btree.key_location(shape.h, btree.height_key(shape, i)) == btree.locate(shape, i)


def test_higher_is_total_strict_order():
    # height keys are distinct, so "higher" (a smaller key) orders all nodes
    shape = BTreeShape(4, 15)
    keys = [btree.height_key(shape, u) for u in range(shape.m)]
    assert len(set(keys)) == shape.m


def test_interval_maximum_dominates_right_part():
    # the highest vertex k of any interval [i,j] has all of [k,j] in its subtree
    for h in range(1, 6):
        shape = BTreeShape(h, (1 << h) - 1)
        for i in range(shape.m):
            for j in range(i, shape.m):
                k = btree.highest(shape, range(i, j + 1))
                lo, hi = btree.subtree_range(shape, k)
                assert lo <= k and j <= hi


def test_top_of_range_matches_the_height_order_and_locate():
    # one descent gives the interval maximum with the level and parent that
    # _locate gives it, on every interval of every tree up to height 6
    for h in range(1, 7):
        shape = BTreeShape(h, (1 << h) - 1)
        for lo in range(shape.m):
            for hi in range(lo, shape.m):
                k = btree.highest(shape, range(lo, hi + 1))
                level, _, parent = btree._locate(h, k)
                assert btree.top_of_range(shape, lo, hi) == (k, level, parent)
                assert btree.highest_in_range(shape, lo, hi) == k


@pytest.mark.parametrize("lo, hi", [(7, 7), (9, 12), (3, 7), (0, 8)])
def test_highest_in_range_past_the_tree_raises(lo, hi):
    # lo = m once returned the non-node m and lo > m never returned
    with pytest.raises(IndexOutOfRange):
        btree.highest_in_range(H3, lo, hi)
    with pytest.raises(IndexOutOfRange):
        btree.top_of_range(H3, lo, hi)


def test_subtree_size_and_membership():
    shape = BTreeShape(4, 15)
    assert btree.subtree_range(shape, 0) == (0, 14)
    assert btree.subtree_range(shape, 1) == (1, 7)
    lo, hi = btree.subtree_range(shape, 1)
    assert lo <= 6 <= hi
    assert not lo <= 8 <= hi


def test_from_size_minimal_height():
    for n in range(1, 200):
        shape = BTreeShape.from_size(n)
        assert shape.m >= n
        assert shape.m < 2 * n
        if shape.h > 1:
            assert (1 << (shape.h - 1)) - 1 < n


def test_errors():
    with pytest.raises(IndexOutOfRange):
        btree.locate(H3, 7)
    with pytest.raises(IndexOutOfRange):
        btree.index_of(H3, 4, 0)
    with pytest.raises(IndexOutOfRange):
        btree.index_of(H3, 2, 2)
    with pytest.raises(InvalidSize):
        BTreeShape.from_size(0)
    with pytest.raises(InvalidSize):
        BTreeShape(0, 1)
    with pytest.raises(InvalidSize):
        btree.highest(H3, [])
    with pytest.raises(IndexOutOfRange):
        btree.highest_in_range(H3, 4, 2)
