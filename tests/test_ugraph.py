"""Host graph construction: membership arithmetic vs a literal definition."""

import random

import pytest

from ugg import btree
from ugg.errors import EqualIndices, IndexOutOfRange, InvalidSize
from ugg.ugraph import UniversalGraph, build_universal
from ugg.workbench.selftest import EDGE_COUNT_REGRESSION


def naive_is_edge(G: UniversalGraph, u: int, v: int) -> bool:
    """Spell out the three edge groups one by one, no shortcuts."""
    h = G.h

    def in_subtree(a, b):
        lo, hi = btree.subtree_range(h, b)
        return lo <= a <= hi

    def groups(a, b):
        # ancestry, either direction
        if in_subtree(a, b) or in_subtree(b, a):
            return True
        # subtree of a level-neighbor of b (left or right)
        level, pos = btree.locate(h, b)
        for z in (pos - 1, pos + 1):
            if 0 <= z < 1 << (level - 1) and in_subtree(a, btree.index_of(h, level, z)):
                return True
        # subtree of the left level-neighbor of b's parent
        if level > 1 and pos >> 1 and in_subtree(a, btree.index_of(h, level - 1, (pos >> 1) - 1)):
            return True
        return False

    return groups(u, v) or groups(v, u)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 11, 15, 16, 31, 63, 100, 127])
def test_is_edge_matches_literal_definition(n):
    G = build_universal(n)
    for u in range(n):
        for v in range(u + 1, n):
            assert G.is_edge(u, v) == naive_is_edge(G, u, v), (n, u, v)


def test_joins_matches_literal_definition_and_is_edge_still_checks():
    # joins reads the unchecked locations; is_edge checks the pair first
    for n in range(1, 65):
        G = build_universal(n)
        for u in range(n):
            for v in range(u + 1, n):
                assert G.joins(u, v) == G.joins(v, u) == naive_is_edge(G, u, v), (n, u, v)
        for u, v in ((0, n), (n, 0), (-1, 0), (n - 1, n + 5)):
            with pytest.raises(IndexOutOfRange):
                G.is_edge(u, v)
        for u in (0, n - 1):
            with pytest.raises(EqualIndices):
                G.is_edge(u, u)


@pytest.mark.parametrize("n", [1, 2, 5, 7, 12, 15, 31])
def test_adjacency_lists_match_is_edge(n):
    G = build_universal(n)
    edges = set(G.edges())
    for u in range(n):
        for v in range(n):
            if u != v:
                assert ((min(u, v), max(u, v)) in edges) == G.is_edge(u, v)
        assert (u, u) not in edges


def test_seven_vertices_give_complete_graph():
    G = build_universal(7)
    assert G.edge_count() == 21
    for u in range(7):
        for v in range(u + 1, 7):
            assert G.is_edge(u, v)


def test_is_edge_examples():
    assert build_universal(7).is_edge(0, 5)
    assert build_universal(7).is_edge(5, 2)
    assert not build_universal(15).is_edge(3, 13)


def test_is_edge_symmetric():
    G = build_universal(31)
    for u in range(31):
        for v in range(31):
            if u != v:
                assert G.is_edge(u, v) == G.is_edge(v, u)


def test_root_adjacent_to_everything():
    for n in (2, 9, 33, 63):
        G = build_universal(n)
        assert all(G.is_edge(0, v) for v in range(1, n))


def test_tree_edges_are_host_edges():
    G = build_universal(63)
    for i in range(63):
        level, pos = btree.locate(G.h, i)
        if level < G.h:
            for child_pos in (2 * pos, 2 * pos + 1):
                assert G.is_edge(i, btree.index_of(G.h, level + 1, child_pos))


def star_centers(G, lo, hi):
    """Vertices adjacent to every other vertex of [lo, hi], hi > lo, from
    `highest_in_range`: the interval's highest vertex k, its second-highest,
    and the highest vertex of [k+1, hi] (None when k is the right endpoint)."""
    k = btree.highest_in_range(G.h, lo, hi)
    sides = [btree.highest_in_range(G.h, i, j)
             for i, j in ((lo, k - 1), (k + 1, hi)) if i <= j]
    return k, btree.highest(G.h, sides), sides[-1] if k < hi else None


def test_star_centers_examples():
    assert star_centers(build_universal(7), 0, 6) == (0, 4, 4)
    assert star_centers(build_universal(7), 2, 3) == (3, 2, None)
    assert star_centers(build_universal(15), 4, 6) == (5, 6, 6)


@pytest.mark.parametrize("n", [*range(2, 32), 63])
def test_star_centers_span_their_interval(n):
    G = build_universal(n)
    for lo in range(n):
        for hi in range(lo + 1, n):
            k, s, t = star_centers(G, lo, hi)
            for center in (k, s, t):
                if center is None:
                    continue
                assert lo <= center <= hi
                for v in range(lo, hi + 1):
                    if v != center:
                        assert G.is_edge(center, v), (n, lo, hi, center, v)


def test_edge_count_two_routes_and_regression():
    for h in range(2, 7):
        n = (1 << h) - 1
        G = build_universal(n)
        by_lists = G.edge_count()
        by_scan = sum(1 for u in range(n) for v in range(u + 1, n) if G.is_edge(u, v))
        assert by_lists == by_scan
        assert by_lists == EDGE_COUNT_REGRESSION[h]
        assert by_lists < 5 * (n + 1) * h


def test_single_vertex_host():
    G = build_universal(1)
    assert G.edge_count() == 0
    assert list(G.edges()) == []


def test_highest_in():
    G = build_universal(7)
    assert btree.highest_in_range(G.h, 0, 6) == 0
    assert btree.highest_in_range(G.h, 1, 6) == 4
    assert btree.highest_in_range(G.h, 2, 3) == 3
    assert btree.highest_in_range(G.h, 5, 5) == 5


def scan_centers(keys, lo, hi):
    """star_centers spelled out with scans of a `btree.height_keys` table."""
    def highest(vertices):
        return min(vertices, key=keys.__getitem__)
    k = highest(range(lo, hi + 1))
    s = highest(i for i in range(lo, hi + 1) if i != k)
    t = highest(range(k + 1, hi + 1)) if k < hi else None
    return k, s, t


@pytest.mark.parametrize("n", [*range(1, 32), 63, 100, 127])
def test_highest_in_and_star_centers_match_scan_on_every_interval(n):
    G = build_universal(n)
    keys = btree.height_keys(G.h, n)
    for lo in range(n):
        for hi in range(lo, n):
            assert btree.highest_in_range(G.h, lo, hi) == btree.highest(G.h, range(lo, hi + 1))
            if hi > lo:
                assert star_centers(G, lo, hi) == scan_centers(keys, lo, hi)


def test_highest_in_and_star_centers_match_scan_at_4095():
    G = build_universal(4095)
    keys = btree.height_keys(G.h, 4095)
    rng = random.Random(4095)
    for _ in range(2000):
        lo, hi = sorted(rng.sample(range(4095), 2))
        centers = scan_centers(keys, lo, hi)
        assert btree.highest_in_range(G.h, lo, hi) == centers[0]
        assert star_centers(G, lo, hi) == centers


def test_errors():
    with pytest.raises(InvalidSize):
        build_universal(0)
    G = build_universal(7)
    with pytest.raises(EqualIndices):
        G.is_edge(3, 3)
    with pytest.raises(IndexOutOfRange):
        G.is_edge(0, 7)
