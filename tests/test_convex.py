"""Convex-position hosts: doubling sequence, caterpillar and two-chord embeddings."""

import hashlib
import itertools
import random
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ugg import convex
from ugg.convex import (
    ChordedCycle,
    _peak,
    _reach,
    build_caterpillar_host,
    build_complete_host,
    build_cycle_host,
    build_twochord_host,
    convex_edges_cross,
    embed_caterpillar,
    embed_twochord,
    has_window_property,
    nesting_crossing,
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
from ugg.host import Host
from ugg.trees import Caterpillar, Forest, caterpillar_spine
from ugg.workbench.families import (
    chorded_cycle_count,
    enumerate_caterpillars,
    enumerate_chorded_cycles,
)
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
    edges = set(cc.edges)
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


# ---------------------------------------------------------------------------
# pinned outputs of the convex embedders, and the oracles of their shortcuts
# ---------------------------------------------------------------------------


def random_caterpillar_forest(n, rng):
    """A spine of n // 2 vertices, every other vertex a leaf on a random
    spine vertex, labels shuffled."""
    s = n // 2
    edges = [(i, i + 1) for i in range(s - 1)]
    edges += [(rng.randrange(s), v) for v in range(s, n)]
    perm = rng.sample(range(n), n)
    return Forest(n, [(perm[u], perm[v]) for u, v in edges])


def random_twochord_cycle(n, rng):
    """Two chords on four random endpoints, nested or side by side."""
    while True:
        a, b, c, d = sorted(rng.sample(range(n), 4))
        chords = ((a, b), (c, d)) if rng.random() < 0.5 else ((a, d), (b, c))
        if all(min(v - u, n - (v - u)) >= 2 for u, v in chords):
            return ChordedCycle(n, chords)


# sha256 of embed_caterpillar's mapping and provenance on every caterpillar
# class with n <= 14, then, at n = 1023 and 4095, of caterpillar_spine's
# spine and leaf groups and the embedding of seeded random caterpillars
EMBED_CATERPILLAR_DIGEST = "d9474ef5f8f92324d99154265be455c833536f57aac69a2378e434d07772bf6a"
# sha256 of embed_twochord's mapping and provenance on every two-chord class
# with 6 <= n <= 30 and on seeded random two-chord cycles at n = 1023 and 4095
EMBED_TWOCHORD_DIGEST = "7afec54350655bd23b55bda3e68ab6f719338488a80961f328665238e2558ede"


def test_embed_caterpillar_output_is_pinned():
    digest, count = hashlib.sha256(), 0
    for n in range(1, 15):
        host = build_caterpillar_host(n)
        for cat in enumerate_caterpillars(n):
            emb = embed_caterpillar(host, cat)
            digest.update(repr((n, sorted(emb.mapping.items()), emb.provenance)).encode())
            count += 1
    for n in (1023, 4095):
        rng = random.Random(n)
        host = build_caterpillar_host(n)
        for _ in range(3):
            cat = caterpillar_spine(random_caterpillar_forest(n, rng))
            emb = embed_caterpillar(host, cat)
            digest.update(repr((cat.spine, cat.leaves, sorted(emb.mapping.items()),
                                emb.provenance)).encode())
            assert validate_embedding(host, cat, emb).ok
    # one class each at n <= 3, then 2^(n-4) + 2^floor((n-4)/2) classes
    assert count == 3 + sum(2 ** (n - 4) + 2 ** ((n - 4) // 2) for n in range(4, 15))
    assert digest.hexdigest() == EMBED_CATERPILLAR_DIGEST


def test_embed_twochord_output_is_pinned():
    digest, count = hashlib.sha256(), 0
    for n in range(6, 31):
        host = build_twochord_host(n)
        for cc in enumerate_chorded_cycles(n, 2):
            emb = embed_twochord(host, cc)
            digest.update(repr((n, cc.chords, sorted(emb.mapping.items()),
                                emb.provenance)).encode())
            count += 1
    for n in (1023, 4095):
        rng = random.Random(n)
        host = build_twochord_host(n)
        for _ in range(20):
            cc = random_twochord_cycle(n, rng)
            emb = embed_twochord(host, cc)
            digest.update(repr((n, cc.chords, sorted(emb.mapping.items()),
                                emb.provenance)).encode())
            assert validate_embedding(host, cc, emb).ok
    assert count == sum(chorded_cycle_count(n, 2) for n in range(6, 31))
    assert digest.hexdigest() == EMBED_TWOCHORD_DIGEST


def test_embed_twochord_reads_the_centers_from_its_host(monkeypatch):
    # the host stored its centers when it was built: embedding lists none
    hosts = {n: build_twochord_host(n) for n in (10, 1023)}
    calls = []
    monkeypatch.setattr(convex, "twochord_centers", lambda n: calls.append(n) or [])
    for n, host in hosts.items():
        rng = random.Random(n)
        for _ in range(20):
            cc = random_twochord_cycle(n, rng)
            assert validate_embedding(host, cc, embed_twochord(host, cc)).ok
    assert not calls


def test_every_twochord_class_embeds_into_the_complete_host():
    # every vertex of the complete host is a center, so the one its runs
    # list first, 0, starts the gap
    for n in range(6, 13):
        host = build_complete_host(n)
        for cc in enumerate_chorded_cycles(n, 2):
            emb = embed_twochord(host, cc)
            assert validate_embedding(host, cc, emb).ok, (n, cc.chords)


def test_peak_is_the_one_position_of_greatest_reach():
    # A running maximum over [off, off + k] that keeps the earlier index on
    # a tie is max(block, key=lambda i: (_reach(i), -i)); `ties` counts the
    # positions that share its reach.  Every off < 2^11 and k < 2^8.
    reach = [_reach(i) for i in range(2 ** 11 + 2 ** 8)]
    for off in range(2 ** 11):
        best, ties = off, 1
        for i in range(off, off + 2 ** 8):
            if reach[i] > reach[best]:
                best, ties = i, 1
            elif reach[i] == reach[best] and i != best:
                ties += 1
            assert ties == 1 and _peak(off, i) == best, (off, i)
    # and the literal maximum on a sample of the blocks
    for off in range(0, 2 ** 11, 37):
        for k in range(0, 2 ** 8, 13):
            block = range(off, off + k + 1)
            assert _peak(off, off + k) == max(block, key=lambda i: (_reach(i), -i))


def lambda_nesting_crossing(chords):
    """The nesting walk with the chords sorted by a Python key, the oracle
    for `nesting_crossing`'s two C-level sorts."""
    open_, checked = [], 0
    norm = [(u, v) if u < v else (v, u) for u, v in chords]
    for lo, hi in sorted(norm, key=lambda ch: (ch[0], -ch[1])):
        while open_:
            checked += 1
            if open_[-1][1] > lo:
                break
            open_.pop()
        if open_:
            checked += 1
            if open_[-1][1] < hi:
                return (open_[-1], (lo, hi)), checked
        open_.append((lo, hi))
    return None, checked


def test_nesting_crossing_matches_the_lambda_sorted_walk():
    rng = random.Random(23)
    outcomes = set()
    for _ in range(600):
        n = rng.randrange(3, 201)
        chords = []
        for _ in range(rng.randrange(1, 2 * n)):
            u, v = rng.sample(range(n), 2)
            chords.append((u, v))
        if rng.random() < 0.5:  # keep only chords that cross no kept one
            kept = []
            for ch in chords:
                if not any(convex_edges_cross(n, ch, k) for k in kept):
                    kept.append(ch)
            chords = kept
        got = nesting_crossing(chords)
        assert got == lambda_nesting_crossing(chords), (n, chords)
        outcomes.add(got[0] is None)
    assert outcomes == {True, False}


def test_chorded_cycle_edges_keep_their_order():
    for n in (6, 7, 30):
        cc = ChordedCycle(n, ((0, 2), (3, 5)))
        assert cc.edges == [(min(i, (i + 1) % n), max(i, (i + 1) % n))
                              for i in range(n)] + [(0, 2), (3, 5)]


def test_convex_validation_checks_no_pair(monkeypatch):
    # the edge pass reads `joins` once the images are known to be on the
    # host, distinct, and the edges no loops; `is_edge` would check each pair
    n = 1023
    cat = caterpillar_spine(random_caterpillar_forest(n, random.Random(n)))
    cc = random_twochord_cycle(n, random.Random(n))
    cases = [(build_caterpillar_host(n), cat), (build_twochord_host(n), cc)]
    embs = [embed_caterpillar(*cases[0]), embed_twochord(*cases[1])]
    calls = 0
    check = Host._check_pair

    def counting(self, u, v):
        nonlocal calls
        calls += 1
        return check(self, u, v)

    monkeypatch.setattr(Host, "_check_pair", counting)
    for (host, graph), emb in zip(cases, embs):
        assert validate_embedding(host, graph, emb).ok
    assert calls == 0
    assert cases[0][0].is_edge(0, 1) and calls == 1  # the count does count
