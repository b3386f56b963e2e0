"""Crossing predicates: the combinatorial rule against exact coordinates."""

import itertools
import random
from fractions import Fraction

import pytest

from ugg import btree
from ugg.errors import DegenerateEdge, IndexOutOfRange, SizeTooLarge
from ugg.geometry import (
    QuarterPlane,
    above,
    edges_cross,
    height_ranks,
    orientation,
    point_in_quarter_plane,
    realize_coordinates,
    segment_hits_quarter_plane,
    segments_cross_exact,
)
from ugg.ugraph import UniversalGraph, build_universal


def height_for(n):
    return UniversalGraph(n).h


def test_realize_single_vertex():
    assert realize_coordinates(height_for(1), 1) == ((0, 0),)


def test_realize_three_vertices_regression():
    # y = 4**rank - 1 with rank 0 the lowest: vertex 1, then 2, then 0
    assert realize_coordinates(height_for(3), 3) == ((0, 15), (1, 0), (2, 3))


@pytest.mark.parametrize("n", list(range(1, 16)) + [31])
def test_realize_invariants(n):
    h = height_for(n)
    pts = realize_coordinates(h, n)
    assert all(pts[i][0] == i for i in range(n))
    # y-order equals the height order
    for u in range(n):
        for w in range(n):
            if u != w:
                higher = btree.height_key(h, u) < btree.height_key(h, w)
                assert higher == (pts[u][1] > pts[w][1])
    # every vertex above every line through two lower vertices
    by_y = sorted(range(n), key=lambda i: pts[i][1])
    for idx, v in enumerate(by_y):
        for a, b in itertools.combinations(by_y[:idx], 2):
            pa, pb = sorted((pts[a], pts[b]))
            assert orientation(pa, pb, pts[v]) > 0, (n, a, b, v)
    # general position
    if n <= 15:
        for a, b, c in itertools.combinations(range(n), 3):
            assert orientation(pts[a], pts[b], pts[c]) != 0


def test_realize_size_cap():
    h = height_for(1024)
    with pytest.raises(SizeTooLarge):
        realize_coordinates(h, 1024)
    points = realize_coordinates(h, 1023)
    assert max(y for _, y in points) == 1024 ** 1022 - 1


@pytest.mark.parametrize("n", [31, 63])
def test_above_matches_exact_orientation(n):
    h = height_for(n)
    pts = realize_coordinates(h, n)
    rank = height_ranks(h, range(n))
    for a, b, c in itertools.combinations(range(n), 3):
        assert above(rank, a, b, c) == (orientation(pts[a], pts[b], pts[c]) < 0), (a, b, c)


@pytest.mark.parametrize("h, vertices, shape", [
    (3, range(7), list), (3, {0, 3, 5}, list), (21, {2, 10**6}, dict)])
def test_height_ranks_is_a_prefix_list_or_a_dict_of_the_vertices(h, vertices, shape):
    # a prefix list when it is at most four times as long as the vertices
    # are many, else a dict that holds the given vertices alone
    ranks = height_ranks(h, vertices)
    assert type(ranks) is shape
    if shape is list:
        assert ranks == btree.height_keys(h, max(vertices) + 1)
    else:
        assert ranks.keys() == set(vertices)
    for v in vertices:
        assert ranks[v] == btree.height_key(h, v)


def test_edges_cross_examples():
    h = height_for(7)
    assert not edges_cross(h, (0, 3), (3, 5))  # shared endpoint
    assert not edges_cross(h, (1, 2), (5, 6))  # disjoint x-ranges
    assert edges_cross(h, (1, 3), (2, 5))


def test_segments_cross_examples():
    coords = realize_coordinates(height_for(7), 7)
    assert not segments_cross_exact(coords, (0, 3), (3, 5))
    assert segments_cross_exact(coords, (1, 3), (2, 5))
    assert not segments_cross_exact(coords, (0, 6), (1, 2))


@pytest.mark.parametrize("n", [7, 15])
def test_predicate_agrees_with_exact_oracle_on_host_edges(n):
    G = build_universal(n)
    coords = realize_coordinates(G.h, n)
    edges = list(G.edges())
    for e1, e2 in itertools.combinations(edges, 2):
        assert edges_cross(G.h, e1, e2) == segments_cross_exact(coords, e1, e2)


def test_predicate_agrees_on_all_vertex_pairs():
    # not only host edges: any two segments over host vertices
    n = 10
    h = height_for(n)
    coords = realize_coordinates(h, n)
    segs = list(itertools.combinations(range(n), 2))
    for e1, e2 in itertools.combinations(segs, 2):
        assert edges_cross(h, e1, e2) == segments_cross_exact(coords, e1, e2)


def test_highest_endpoint_shields_its_edge():
    # an edge hanging from a vertex higher than all four endpoints never
    # crosses an edge whose x-range stays on one side of its other endpoint
    n = 15
    h = height_for(n)
    for a, b, c, d in itertools.permutations(range(n), 4):
        if c > d:
            continue
        if not all(btree.height_key(h, a) < btree.height_key(h, w) for w in (b, c, d)):
            continue
        if not (b < c or b > d):
            continue
        assert not edges_cross(h, (a, b), (c, d)), (a, b, c, d)


def test_edges_cross_symmetries():
    h = height_for(7)
    pairs = list(itertools.combinations(range(7), 2))
    for e1, e2 in itertools.combinations(pairs, 2):
        base = edges_cross(h, e1, e2)
        assert edges_cross(h, e2, e1) == base
        assert edges_cross(h, (e1[1], e1[0]), e2) == base
        assert edges_cross(h, e1, (e2[1], e2[0])) == base


@pytest.mark.parametrize("n", [7, 15])
def test_quarter_plane_combinatorial_matches_coordinates(n):
    h = height_for(n)
    coords = realize_coordinates(h, n)
    for apex in range(n):
        for side in ("left", "right"):
            qp = QuarterPlane(apex, side)
            for v in range(n):
                if v == apex:
                    continue
                # higher than the apex, and on its x-side
                combinatorial = (btree.height_key(h, v) < btree.height_key(h, apex)
                                 and (v < apex) == (side == "left"))
                geometric = point_in_quarter_plane(coords, coords[v], qp)
                assert combinatorial == geometric, (n, apex, side, v)


def test_quarter_plane_hand_cases():
    coords = realize_coordinates(height_for(3), 3)
    # points are (0, 15), (1, 0), (2, 3)
    assert segment_hits_quarter_plane(coords, (1, 0), QuarterPlane(2, "left"))
    assert not segment_hits_quarter_plane(coords, (1, 2), QuarterPlane(0, "right"))
    assert point_in_quarter_plane(coords, (1, 5), QuarterPlane(2, "left"))
    assert not point_in_quarter_plane(coords, (1, 1), QuarterPlane(2, "left"))


def test_segment_hits_region_only_beyond_apex_height():
    # a segment wholly below the apex's y never enters either region
    n = 7
    coords = realize_coordinates(height_for(n), 7)
    apex = 0  # highest vertex overall
    for u, v in itertools.combinations(range(1, n), 2):
        assert not segment_hits_quarter_plane(coords, (u, v), QuarterPlane(apex, "left"))
        assert not segment_hits_quarter_plane(coords, (u, v), QuarterPlane(apex, "right"))


def hits_by_fraction(points, seg, qp):
    """The quarter-plane test with the clip value as an exact `Fraction`."""
    (x1, y1), (x2, y2) = points[seg[0]], points[seg[1]]
    ax, ay = points[qp.apex]
    if qp.side == "right":
        x1, x2, ax = -x1, -x2, -ax
    if x1 > x2:
        x1, x2, y1, y2 = x2, x1, y2, y1
    if x1 >= ax:
        return False
    if x2 < ax:
        return max(y1, y2) > ay
    if y1 > ay:
        return True
    return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (ax - x1) > ay


def test_segment_hits_quarter_plane_agrees_with_fractions():
    # small coordinates make ties common: an endpoint at the apex's x and a
    # clip value exactly at the apex's y, on either side of the apex
    rng = random.Random(25)
    seg = (0, 1)
    ties = {"x at apex": 0, "clip at apex": 0}
    for _ in range(30000):
        points = tuple((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3))
        for side in ("left", "right"):
            qp = QuarterPlane(2, side)
            assert segment_hits_quarter_plane(points, seg, qp) == \
                hits_by_fraction(points, seg, qp), (points, side)
        (x1, y1), (x2, y2), (ax, ay) = points
        if ax in (x1, x2):
            ties["x at apex"] += 1
        if min(x1, x2) < ax < max(x1, x2) and (y1 - ay) * (x2 - x1) == (y1 - y2) * (ax - x1):
            ties["clip at apex"] += 1
    assert min(ties.values()) > 100, ties


def test_quarter_plane_errors():
    with pytest.raises(ValueError):
        QuarterPlane(0, "up")
    coords = realize_coordinates(height_for(3), 3)
    with pytest.raises(DegenerateEdge):
        segment_hits_quarter_plane(coords, (1, 1), QuarterPlane(0, "left"))
    # no index is read past either end of the points
    coords = realize_coordinates(height_for(7), 7)
    for seg in ((-1, 2), (7, 2)):
        with pytest.raises(IndexOutOfRange):
            segment_hits_quarter_plane(coords, seg, QuarterPlane(0, "left"))
    for apex in (-6, -1, 7):
        qp = QuarterPlane(apex, "left")
        with pytest.raises(IndexOutOfRange):
            point_in_quarter_plane(coords, coords[1], qp)
        with pytest.raises(IndexOutOfRange):
            segment_hits_quarter_plane(coords, (1, 2), qp)
    with pytest.raises(DegenerateEdge):
        edges_cross(height_for(7), (2, 2), (0, 1))
    # a segment may join any two nodes of the tree of height h, and no others
    with pytest.raises(IndexOutOfRange):
        edges_cross(height_for(7), (0, 7), (1, 2))
