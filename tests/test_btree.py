"""Index arithmetic on the implicit complete binary tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ugg
from ugg import btree
from ugg.errors import IndexOutOfRange, InvalidSize
from ugg.ugraph import UniversalGraph

H3 = 3  # the height of the tree on seven nodes


def test_locate_examples():
    assert btree.locate(H3, 0) == (1, 0)
    assert btree.locate(H3, 4) == (2, 1)
    assert btree.locate(H3, 5) == (3, 2)


def test_locate_index_roundtrip_exhaustive():
    for h in range(1, 8):
        for i in range((1 << h) - 1):
            level, pos = btree.locate(h, i)
            assert btree.index_of(h, level, pos) == i


@given(st.integers(min_value=1, max_value=16), st.data())
def test_locate_index_roundtrip_random(h, data):
    i = data.draw(st.integers(min_value=0, max_value=(1 << h) - 2))
    level, pos = btree.locate(h, i)
    assert btree.index_of(h, level, pos) == i
    assert 1 <= level <= h
    assert 0 <= pos < (1 << (level - 1))


def test_nav_root():
    # no parent, children 1 and 4, alone on its level, the whole tree below
    assert btree._locate(H3, 0) == (1, 0, -1)
    assert [btree.index_of(H3, 2, pos) for pos in (0, 1)] == [1, 4]
    with pytest.raises(IndexOutOfRange):
        btree.index_of(H3, 1, 1)
    assert btree.subtree_range(H3, 0) == (0, 6)


def test_nav_inner():
    # parent 0, children 5 and 6, left level-neighbor 1 and none to its right
    assert btree._locate(H3, 4) == (2, 1, 0)
    assert [btree.index_of(H3, 3, pos) for pos in (2, 3)] == [5, 6]
    assert btree.index_of(H3, 2, 0) == 1
    with pytest.raises(IndexOutOfRange):
        btree.index_of(H3, 2, 2)
    assert btree.subtree_range(H3, 4) == (4, 6)


def test_nav_leaf():
    # parent 1, no children, no left level-neighbor and 3 to its right
    assert btree._locate(H3, 2) == (3, 0, 1)
    with pytest.raises(IndexOutOfRange):
        btree.index_of(H3, 4, 0)
    assert btree.index_of(H3, 3, 1) == 3
    assert btree.subtree_range(H3, 2) == (2, 2)


def test_nav_consistency():
    # a child's parent, by `_locate` and by `index_of`, is the node itself,
    # and level-neighbors see each other, in every tree up to height 5
    for h in range(1, 6):
        for i in range((1 << h) - 1):
            level, pos, parent = btree._locate(h, i)
            assert btree.locate(h, i) == (level, pos)
            assert btree.index_of(h, level, pos) == i
            if level == 1:
                assert parent == -1
            else:
                assert parent == btree.index_of(h, level - 1, pos >> 1)
            if level < h:
                for child_pos in (2 * pos, 2 * pos + 1):
                    child = btree.index_of(h, level + 1, child_pos)
                    assert btree._locate(h, child) == (level + 1, child_pos, i)
            for z in (pos - 1, pos + 1):
                if 0 <= z < 1 << (level - 1):
                    # each sees the other as its neighbor on the other side
                    assert btree.locate(h, btree.index_of(h, level, z)) == (level, z)


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
        m = (1 << h) - 1
        by_key = sorted(range(m), key=lambda i: btree.height_key(h, i))
        assert by_key == sorted(range(m), key=lambda i: (btree.locate(h, i)[0], -i))


def test_height_keys_walk_matches_height_key():
    cases = [(UniversalGraph(n).h, n) for n in range(1, 131)]
    cases += [(7, 100), (7, 127), (8, 100), (UniversalGraph(4095).h, 4095)]
    for h, size in cases:
        for n in {size, (1 << h) - 1}:
            assert btree.height_keys(h, n) == [btree.height_key(h, i) for i in range(n)]
    assert btree.height_keys(H3, 0) == []
    with pytest.raises(IndexOutOfRange):
        btree.height_keys(H3, 8)


def test_key_location_inverts_height_key():
    for h in (H3, 9, UniversalGraph(10**9).h):
        m = (1 << h) - 1
        for i in {*range(min(m, 600)), m - 1, m // 2}:
            assert btree.key_location(h, btree.height_key(h, i)) == btree.locate(h, i)


def test_higher_is_total_strict_order():
    # height keys are distinct, so "higher" (a smaller key) orders all nodes
    keys = [btree.height_key(4, u) for u in range(15)]
    assert len(set(keys)) == 15


def test_interval_maximum_dominates_right_part():
    # the highest vertex k of any interval [i,j] has all of [k,j] in its subtree
    for h in range(1, 6):
        m = (1 << h) - 1
        for i in range(m):
            for j in range(i, m):
                k = btree.highest(h, range(i, j + 1))
                lo, hi = btree.subtree_range(h, k)
                assert lo <= k and j <= hi


def test_top_of_range_matches_the_height_order_and_locate():
    # one descent gives the interval maximum with the level and parent that
    # _locate gives it, on every interval of every tree up to height 6
    for h in range(1, 7):
        m = (1 << h) - 1
        for lo in range(m):
            for hi in range(lo, m):
                k = btree.highest(h, range(lo, hi + 1))
                level, _, parent = btree._locate(h, k)
                assert btree.top_of_range(h, lo, hi) == (k, level, parent)
                assert btree.highest_in_range(h, lo, hi) == k


@pytest.mark.parametrize("lo, hi", [(7, 7), (9, 12), (3, 7), (0, 8)])
def test_highest_in_range_past_the_tree_raises(lo, hi):
    # lo = m once returned the non-node m and lo > m never returned
    with pytest.raises(IndexOutOfRange):
        btree.highest_in_range(H3, lo, hi)
    with pytest.raises(IndexOutOfRange):
        btree.top_of_range(H3, lo, hi)


def test_subtree_size_and_membership():
    assert btree.subtree_range(4, 0) == (0, 14)
    assert btree.subtree_range(4, 1) == (1, 7)
    lo, hi = btree.subtree_range(4, 1)
    assert lo <= 6 <= hi
    assert not lo <= 8 <= hi


def least_height(n):
    # the least h with 2**h - 1 >= n, by search
    h = 1
    while (1 << h) - 1 < n:
        h += 1
    return h


def test_universal_host_height_is_the_least_that_holds_it():
    sizes = [*range(1, 4097), 10**18]
    sizes += [s for k in range(1, 65) for s in ((1 << k) - 1, 1 << k)]
    for n in sizes:
        assert UniversalGraph(n).h == least_height(n), n
    for n in (0, -1):
        with pytest.raises(InvalidSize, match=f"size must be >= 1, got {n}"):
            UniversalGraph(n)


def test_errors():
    with pytest.raises(IndexOutOfRange):
        btree.locate(H3, 7)
    with pytest.raises(IndexOutOfRange):
        btree.index_of(H3, 4, 0)
    with pytest.raises(IndexOutOfRange):
        btree.index_of(H3, 2, 2)
    with pytest.raises(InvalidSize):
        btree.highest(H3, [])
    with pytest.raises(IndexOutOfRange):
        btree.highest_in_range(H3, 4, 2)


@pytest.mark.parametrize("call, index", [
    ("btree.height_key(3, 100)", 100),
    ("btree.height_key(3, -1)", -1),
    ("btree.height_key(3, 7)", 7),
    ("btree.highest(3, [1, 9])", 9),
    ("geometry.height_ranks(3, [50])", 50),
    ("validate.roof_crossings(3, [(0, 100)])", 100),
    ("validate.pairwise_crossings(UniversalGraph(7), [(0, 100), (1, 2), (3, 4)])", 100),
])
def test_height_helpers_refuse_an_index_off_the_tree(call, index):
    # an unchecked descent to an index outside the tree never ends (or, at
    # 7, one past the last node, makes up a key), so each call runs in a fresh
    # interpreter under a timeout: a hang fails the test instead of stalling it
    src = str(Path(ugg.__file__).resolve().parents[1])
    code = ("from ugg import btree, geometry\n"
            "from ugg.ugraph import UniversalGraph\n"
            "from ugg.workbench import validate\n"
            f"try:\n    print('returned', {call})\n"
            "except Exception as e:\n    print(type(e).__name__, e)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                              filter(None, [src, os.environ.get("PYTHONPATH")]))),
                          timeout=20, check=True)
    assert done.stdout.startswith("IndexOutOfRange "), done.stdout
    assert f"index {index} " in done.stdout, done.stdout
