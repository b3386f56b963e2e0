"""Convex-position hosts: doubling sequence, caterpillar and two-chord embeddings."""

import itertools
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ugg.convex import (
    ChordedCycle,
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
from ugg.errors import (
    DegenerateEdge,
    InvalidSize,
    MalformedInput,
    NotTwoChord,
    SizeMismatch,
)
from ugg.trees import Caterpillar
from ugg.workbench.validate import validate_embedding


def brute_window_property(terms):
    n = len(terms)
    return all(
        max(terms[i:i + x]) >= x
        for x in range(1, n + 1)
        for i in range(n - x + 1)
    )


def test_pi_sequence_examples():
    assert pi_sequence(10) == [1, 3, 1, 7, 1, 3, 1, 15, 1, 3]
    assert pi_sequence(1) == [1]
    seq15 = pi_sequence(15)
    assert seq15 == [1, 3, 1, 7, 1, 3, 1, 15, 1, 3, 1, 7, 1, 3, 1]
    assert sum(seq15) == 49


def test_pi_sequence_is_the_doubling_construction():
    # stage h + 1 is stage h, then its length 2^(h+1) - 1, then stage h again
    stage = [1]
    while len(stage) < 4095:
        stage = stage + [2 * len(stage) + 1] + stage
    assert pi_sequence(4095) == stage


def test_pi_sequence_stage_sums():
    for h in range(1, 12):
        m = (1 << h) - 1
        assert sum(pi_sequence(m)) == (h - 1) * (1 << h) + 1


def test_pi_sequence_prefix_consistency():
    long = pi_sequence(255)
    for n in range(1, 256):
        assert pi_sequence(n) == long[:n]


def test_window_property_brute_force_small():
    for n in range(1, 130):
        assert brute_window_property(pi_sequence(n))


def test_window_property_fast_route_matches_brute():
    for n in range(1, 130):
        assert has_window_property(pi_sequence(n))
    assert not has_window_property([1, 1])
    assert not has_window_property([2, 1, 2])
    assert has_window_property([1])
    assert has_window_property([5, 5, 5, 5, 5])


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=40))
def test_window_property_agrees_with_oracle(terms):
    assert has_window_property(terms) == brute_window_property(terms)


def test_pi_errors():
    with pytest.raises(InvalidSize):
        pi_sequence(0)


def test_caterpillar_host_center_dominates():
    host = build_caterpillar_host(7)
    # the index carrying 7 reaches everything
    assert all(host.is_edge(3, v) for v in range(7) if v != 3)


def test_caterpillar_host_small_cases():
    assert build_caterpillar_host(1).edge_count() == 0
    host2 = build_caterpillar_host(2)
    assert host2.is_edge(0, 1)


def test_caterpillar_host_wraps_around():
    host = build_caterpillar_host(5)
    assert host.is_edge(4, 0)  # circular distance 1


def test_caterpillar_host_edge_budget():
    for n in range(1, 300):
        host = build_caterpillar_host(n)
        assert host.edge_count() <= 2 * sum(pi_sequence(n))


def test_caterpillar_host_edge_rule():
    # edge iff circular distance <= max of the two terms
    for n in (5, 9, 16):
        pi = pi_sequence(n)
        host = build_caterpillar_host(n)
        for u in range(n):
            for v in range(u + 1, n):
                dist = min(v - u, n - (v - u))
                expected = dist <= max(pi[u], pi[v])
                assert host.is_edge(u, v) == expected, (n, u, v)


def test_embed_caterpillar_two_star_example():
    host = build_caterpillar_host(7)
    cat = Caterpillar(spine=(0, 3), leaves=((1, 2), (4, 5, 6)))
    emb = embed_caterpillar(host, cat)
    assert emb.mapping[0] == 1 and emb.mapping[3] == 3
    assert {emb.mapping[v] for v in (1, 2)} == {0, 2}
    assert {emb.mapping[v] for v in (4, 5, 6)} == {4, 5, 6}
    assert validate_embedding(host, cat, emb).ok


def test_embed_single_star():
    host = build_caterpillar_host(7)
    cat = Caterpillar(spine=(0,), leaves=((1, 2, 3, 4, 5, 6),))
    emb = embed_caterpillar(host, cat)
    assert emb.mapping[0] == 3
    assert validate_embedding(host, cat, emb).ok


def test_embed_path_identity():
    n = 9
    host = build_caterpillar_host(n)
    cat = Caterpillar(spine=tuple(range(n)), leaves=((),) * n)
    emb = embed_caterpillar(host, cat)
    assert [emb.mapping[v] for v in range(n)] == list(range(n))
    assert validate_embedding(host, cat, emb).ok


def test_embed_caterpillar_size_mismatch():
    host = build_caterpillar_host(6)
    cat = Caterpillar(spine=(0,), leaves=((1, 2),))
    with pytest.raises(SizeMismatch):
        embed_caterpillar(host, cat)


def test_twochord_centers_examples():
    assert set(twochord_centers(10)) == {0, 1, 2, 3, 6, 9}
    assert set(twochord_centers(4)) == {0, 1, 2}  # perfect square wraps to 0
    assert set(twochord_centers(3)) == {0, 1}


def test_twochord_centers_cover_all_distances():
    for n in range(3, 300):
        centers = sorted(twochord_centers(n))
        diffs = {b - a for a, b in itertools.combinations(centers, 2)}
        assert all(d in diffs for d in range(1, n // 2 + 1)), n


def test_twochord_host_structure():
    n = 10
    host = build_twochord_host(n)
    for i in range(n):
        assert host.is_edge(i, (i + 1) % n)
    for s in twochord_centers(n):
        assert all(host.is_edge(s, v) for v in range(n) if v != s)
    r = isqrt(n)
    assert host.edge_count() <= n + 2 * (2 * r) * n


def test_chorded_cycle_model():
    cc = ChordedCycle(10, ((0, 3), (5, 9)))
    assert cc.h == 2
    edges = set(cc.edges())
    assert len(edges) == 12
    # ten cycle edges, normalized min-first, plus the two chords
    assert {(i, i + 1) for i in range(9)} <= edges
    assert (0, 9) in edges
    assert (0, 3) in edges and (5, 9) in edges


def test_chorded_cycle_rejects_bad_chords():
    with pytest.raises(MalformedInput):
        ChordedCycle(8, ((0, 1),))  # cycle edge, not a chord
    with pytest.raises(MalformedInput):
        ChordedCycle(8, ((0, 7),))  # wraps to a cycle edge
    with pytest.raises(MalformedInput):
        ChordedCycle(8, ((0, 3), (3, 6)))  # shared endpoint
    with pytest.raises(MalformedInput):
        ChordedCycle(8, ((0, 4), (2, 6)))  # interleaving
    with pytest.raises(MalformedInput):
        ChordedCycle(5, ((0, 2), (1, 3)))  # n < 2h + 2 and interleaving
    with pytest.raises(DegenerateEdge):
        ChordedCycle(8, ((2, 2),))


def test_convex_edges_cross_examples():
    assert convex_edges_cross(10, (0, 5), (2, 7))
    assert not convex_edges_cross(10, (0, 5), (1, 3))
    assert not convex_edges_cross(10, (0, 5), (5, 8))
    with pytest.raises(DegenerateEdge):
        convex_edges_cross(10, (4, 4), (0, 1))


def test_convex_edges_cross_symmetry():
    pairs = list(itertools.combinations(range(8), 2))
    for e1, e2 in itertools.combinations(pairs, 2):
        v = convex_edges_cross(8, e1, e2)
        assert convex_edges_cross(8, e2, e1) == v
        assert convex_edges_cross(8, (e1[1], e1[0]), e2) == v


def test_embed_twochord_spec_example():
    host = build_twochord_host(10)
    cc = ChordedCycle(10, ((0, 3), (5, 9)))
    emb = embed_twochord(host, cc)
    assert emb.mapping[9] == 0 and emb.mapping[0] == 1
    assert emb.mapping[3] == 4 and emb.mapping[5] == 6
    assert validate_embedding(host, cc, emb).ok


def test_embed_twochord_six_vertices():
    host = build_twochord_host(6)
    cc = ChordedCycle(6, ((0, 2), (3, 5)))
    emb = embed_twochord(host, cc)
    assert validate_embedding(host, cc, emb).ok


def test_embed_twochord_cycle_maps_to_cycle():
    host = build_twochord_host(12)
    cc = ChordedCycle(12, ((1, 4), (6, 9)))
    emb = embed_twochord(host, cc)
    for i in range(12):
        gu, gv = emb.mapping[i], emb.mapping[(i + 1) % 12]
        assert (gv - gu) % 12 == 1
    assert validate_embedding(host, cc, emb).ok


def test_embed_twochord_errors():
    host = build_twochord_host(8)
    with pytest.raises(NotTwoChord):
        embed_twochord(host, ChordedCycle(8, ((0, 2),)))
    with pytest.raises(SizeMismatch):
        embed_twochord(host, ChordedCycle(10, ((0, 3), (5, 9))))


def test_complete_and_cycle_hosts():
    comp = build_complete_host(6)
    assert comp.edge_count() == 15
    cyc = build_cycle_host(6)
    assert cyc.edge_count() == 6
    assert all(cyc.is_edge(i, (i + 1) % 6) for i in range(6))
