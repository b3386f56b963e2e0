"""The O(m log m) crossing detectors against the pairwise scan.

The roof sweep counts the crossing pairs and lists at most WITNESS_CAP of
them on every host, reading the height keys -v on convex hosts, where the
nesting walk decides first whether a crossing exists; the pairwise scan is
the oracle for all of them.  The universal host's list sweep, which
`validate_embedding` runs, is checked against the Fenwick sweep that
`roof_crossings` runs, and the 5h bound on its live roofs apart from both.
Tests that compare whole listings raise the cap.
"""

import hashlib
import itertools
import math
import random
import re
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import namedtuple
from contextlib import contextmanager
from itertools import accumulate

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ugg import btree
from ugg.convex import (
    ChordedCycle,
    build_caterpillar_host,
    build_complete_host,
    build_twochord_host,
    convex_edges_cross,
    embed_caterpillar,
    embed_twochord,
    nesting_crossing,
)
from ugg.embedder import Embedding, embed_forest
from ugg.errors import DegenerateEdge, IndexOutOfRange, InputError
from ugg.geometry import edges_cross, height_ranks, realize_coordinates, segments_cross_exact
from ugg.trees import Caterpillar, Forest
from ugg.ugraph import UniversalGraph
from ugg.workbench import validate
from ugg.workbench.families import random_tree
from ugg.workbench.validate import (
    WITNESS_CAP,
    pairwise_crossings,
    roof_crossings,
    validate_embedding,
)

CORRUPTIONS = st.sampled_from(["none", "swap", "move"])
# an input graph as the validator reads it, whose edges may repeat
Graph = namedtuple("Graph", "n edges")


def mapped_segments(edges, mapping):
    return [(min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in edges]


@contextmanager
def full_listing():
    """Reports and the roof sweep list every witness inside this context."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(validate, "WITNESS_CAP", 10**9)
        yield


def assert_witnesses_bounded(found, oracle):
    """At most WITNESS_CAP witnesses, all the oracle's, and every one of
    them, in its order, when the oracle has at most WITNESS_CAP."""
    assert len(found) <= WITNESS_CAP
    if len(oracle) <= WITNESS_CAP:
        assert found == oracle
    else:
        assert len(found) == WITNESS_CAP
        assert all(w in oracle for w in found)


def assert_detectors_agree(host, segments):
    """The roof sweep's count equals the oracle's, its witnesses are the
    oracle's, and on a convex host the nesting walk finds a crossing iff
    the oracle does."""
    oracle, _ = pairwise_crossings(host, segments)
    if isinstance(host, UniversalGraph):
        count, witnesses, _ = roof_crossings(host.h, segments)
    else:
        pair, _ = nesting_crossing(segments)
        assert (pair is None) == (not oracle), (segments, pair, oracle)
        if pair is not None:
            assert set(pair) in [set(w) for _, w in oracle]
        count, witnesses, _ = roof_crossings(None, segments, {v: -v for s in segments for v in s})
    assert count == len(oracle), (segments, count, oracle)
    assert_witnesses_bounded(witnesses, oracle)


def assert_report_matches_oracle(host, graph, emb):
    """Past the edge checks, the report is ok iff the oracle finds no
    crossing, it counts the oracle's crossings, and on failure it lists at
    most WITNESS_CAP of the oracle's witnesses, or with the cap raised
    exactly the oracle's witnesses."""
    report = validate_embedding(host, graph, emb)
    if any(kind != "Crossing" for kind, _ in report.failures):
        return
    witnesses, _ = pairwise_crossings(host, mapped_segments(graph.edges, emb.mapping))
    assert report.crossings == len(witnesses)
    assert report.ok == (not witnesses)
    assert_witnesses_bounded(report.failures, witnesses)
    with full_listing():
        assert validate_embedding(host, graph, emb).failures == witnesses


@st.composite
def forest_embeddings(draw):
    """A random forest embedded in its universal host, possibly corrupted by
    swapping two images or by moving one image onto an isolated vertex's."""
    n = draw(st.integers(2, 90))
    tree = random_tree(n, random.Random(draw(st.integers(0, 2**32 - 1))))
    keep = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    edges = [e for e, k in zip(tree.edges, keep) if k]
    host = UniversalGraph(n)
    mapping = dict(embed_forest(host, Forest(n, edges)).mapping)
    how = draw(CORRUPTIONS)
    touched = {v for e in edges for v in e}
    isolated = [v for v in range(n) if v not in touched]
    if how == "swap":
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        mapping[a], mapping[b] = mapping[b], mapping[a]
    elif how == "move" and touched and isolated:
        a = draw(st.sampled_from(sorted(touched)))
        b = draw(st.sampled_from(isolated))
        mapping[a], mapping[b] = mapping[b], mapping[a]
    return host, Graph(n, edges), Embedding(mapping)


@given(forest_embeddings())
def test_sweep_agrees_with_pairwise_on_forest_embeddings(case):
    host, graph, emb = case
    assert_detectors_agree(host, mapped_segments(graph.edges, emb.mapping))
    assert_report_matches_oracle(host, graph, emb)


@given(st.integers(3, 64), st.integers(0, 2**32 - 1), st.floats(0.05, 0.6))
def test_validator_matches_pairwise_on_host_edge_sets(n, seed, share):
    """Identity maps onto random sets of host edges reach the crossing phase
    and often cross."""
    host = UniversalGraph(n)
    rng = random.Random(seed)
    edges = [e for e in host.edges() if rng.random() < share]
    emb = Embedding({t: t for t in range(n)})
    assert_detectors_agree(host, edges)
    assert_report_matches_oracle(host, Graph(n, edges), emb)


@st.composite
def convex_embeddings(draw):
    """A caterpillar or two-chord cycle embedded in its convex host, then
    checked on a complete host with `extra` spare vertices, so that a moved
    image can land on an unused vertex and every edge is a host edge."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=12))
        spine, leaves, nxt = [], [], 0
        for size in sizes:
            spine.append(nxt)
            leaves.append(tuple(range(nxt + 1, nxt + size)))
            nxt += size
        cat = Caterpillar(tuple(spine), tuple(leaves))
        n, edges = cat.n, cat.to_forest().edges
        mapping = embed_caterpillar(build_caterpillar_host(n), cat).mapping
    else:
        n = draw(st.integers(6, 40))
        p = sorted(draw(st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)))
        chords = ((p[0], p[1]), (p[2], p[3]))
        assume(all(2 <= b - a <= n - 2 for a, b in chords))
        cc = ChordedCycle(n, chords)
        n, edges = cc.n, cc.edges
        mapping = embed_twochord(build_twochord_host(n), cc).mapping
    mapping = dict(mapping)
    extra = draw(st.integers(0, 3))
    how = draw(CORRUPTIONS)
    if how == "swap":
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        mapping[a], mapping[b] = mapping[b], mapping[a]
    elif how == "move" and extra:
        mapping[draw(st.integers(0, n - 1))] = n + draw(st.integers(0, extra - 1))
    return build_complete_host(n + extra), Graph(n, edges), Embedding(mapping)


@given(convex_embeddings())
def test_nesting_agrees_with_pairwise_on_convex_embeddings(case):
    host, graph, emb = case
    assert_detectors_agree(host, mapped_segments(graph.edges, emb.mapping))
    assert_report_matches_oracle(host, graph, emb)


def segment_sets(max_n):
    """Random segments on few vertices, so endpoints are often shared, with
    some segments repeated."""
    return st.integers(3, max_n).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
                 .map(tuple), max_size=30),
        st.lists(st.integers(0, 29), max_size=5)))


def with_duplicates(segments, repeats):
    return segments + [segments[i] for i in repeats if i < len(segments)]


@given(segment_sets(40))
# (0, 3) and (1, 2) cross but are neighbours only once (0, 2) leaves the status.
@example((4, [(0, 2), (0, 3), (1, 2)], []))
def test_sweep_agrees_with_pairwise_on_segment_sets(case):
    n, segments, repeats = case
    segments = with_duplicates(segments, repeats)
    host = UniversalGraph(n)
    assert_detectors_agree(host, [(min(e), max(e)) for e in segments])
    _, witnesses, _ = roof_crossings(host.h, segments)
    assert all(edges_cross(host.h, *pair) for _, pair in witnesses)


@given(segment_sets(24))
def test_nesting_agrees_with_pairwise_on_segment_sets(case):
    n, segments, repeats = case
    segments = with_duplicates(segments, repeats)
    assert_detectors_agree(build_complete_host(n), [(min(e), max(e)) for e in segments])


def test_sweep_matches_segments_cross_on_every_pair():
    """The roof rule decides every pair of segments on 7, 15 and 31 host
    vertices, host edges or not, as the pairwise scan's two-`above`
    predicate does."""
    for n in (7, 15, 31):
        host = UniversalGraph(n)
        keys = btree.height_keys(host.h, n)
        segments = list(itertools.combinations(range(n), 2))
        for s, t in itertools.combinations(segments, 2):
            count, _, _ = roof_crossings(host.h, [s, t], keys)
            assert count == len(pairwise_crossings(host, [s, t])[0]), (n, s, t)


def test_sweep_on_both_fans_of_one_vertex():
    # On the 15-vertex host, vertex 9 (level 3, pos 2) is lower than 0, 1, 8
    # and 12, higher than every other vertex.  Segments end at 9 from higher
    # and lower vertices on its left and start at 9 toward higher and lower
    # vertices on its right; none of them cross.  Adding any other segment
    # must give the exact coordinates' verdict.
    n, x = 15, 9
    host = UniversalGraph(n)
    coords = realize_coordinates(host.h, n)
    keys = btree.height_keys(host.h, n)
    assert [a for a in range(n) if a != x and keys[a] < keys[x]] == [0, 1, 8, 12]
    fans = [(0, x), (1, x), (2, x), (5, x), (x, 10), (x, 11), (x, 12), (x, 13), (x, 14)]
    assert roof_crossings(host.h, fans)[:2] == (0, [])
    for extra in itertools.combinations([v for v in range(n) if v != x], 2):
        crossing = sum(segments_cross_exact(coords, extra, s) for s in fans)
        count, witnesses, _ = roof_crossings(host.h, fans + [extra])
        assert count == crossing == len(pairwise_crossings(host, fans + [extra])[0]), extra
        assert len(witnesses) == count
        assert all(segments_cross_exact(coords, *pair) for _, pair in witnesses)


def test_star_sweep_costs_no_more_than_a_path():
    """All 65534 roofs of a star at its center are live at once and leave
    one per x; a path on the same vertices never has a live roof.  Live
    roofs kept as a flat sorted list would move about m**2 / 2 pointers on
    the star, over three times the path's time; counted in a tree they cost
    O(log m) per event on both.  Neither crosses; the pairwise scan would
    compare m**2 / 2 pairs of the star to say so."""
    n = 65535
    host = UniversalGraph(n)
    keys = btree.height_keys(host.h, n)
    star = [(0, i) for i in range(1, n)]
    path = [(i, i + 1) for i in range(n - 1)]
    best = {"star": math.inf, "path": math.inf}
    for _ in range(3):
        for name, segments in (("star", star), ("path", path)):
            start = time.process_time()
            assert roof_crossings(host.h, segments, keys) == (0, [], n - 1)
            best[name] = min(best[name], time.process_time() - start)
    assert best["star"] <= 2 * best["path"], best


def test_star_with_one_crossing_lists_it_in_linear_work():
    # vertex 3 re-hung from the star's center 0 onto 1: the one crossing is
    # (0, 2) with (1, 3), and the sweep that counts it lists it, with no
    # scan of every pair of segments that start at the center; on the
    # complete host the nesting walk finds it and the sweep counts it on
    # keys -v
    n = 4095
    edges = [(0, i) for i in range(1, n) if i != 3] + [(1, 3)]
    for host in (UniversalGraph(n), build_complete_host(n)):
        report = validate_embedding(host, Graph(n, edges), Embedding({t: t for t in range(n)}))
        assert report.failures == [("Crossing", ((0, 2), (1, 3)))], host.kind
        assert report.crossings == 1, host.kind
        assert report.checked <= 6 * len(edges), host.kind


def most_live_roofs(keys, edges) -> int:
    """The most distinct roofs live at one x among the segments `edges`, on
    the height keys `keys`, counted apart from any sweep.  Every segment
    whose roof is r has r as an end, so together they span the x in (a, r)
    and in (r, b), a the least and b the greatest of their lower ends; a
    difference list over x adds up those two runs of every roof."""
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    for u, v in edges:
        if u > v:
            u, v = v, u
        if keys[u] < keys[v]:  # u is the roof
            if right.get(u, u) < v:
                right[u] = v
        elif left.get(v, v) > u:
            left[v] = u
    diff = [0] * (len(keys) + 1)
    for r, a in left.items():
        diff[a + 1] += 1
        diff[r] -= 1
    for r, b in right.items():
        diff[r + 1] += 1
        diff[b] -= 1
    return max(accumulate(diff))


@pytest.mark.parametrize("sizes", [range(1, 301), (1023, 4095)])
def test_live_roofs_stay_within_five_per_level(sizes):
    """Over every edge of the universal host, at most 5h distinct roofs are
    live at any x: each is an ancestor of x or a level-neighbour near one
    (E1-E3).  That bounds the universal host's list of live roofs."""
    for n in sizes:
        host = UniversalGraph(n)
        live = most_live_roofs(btree.height_keys(host.h, n), host.edges())
        assert live <= 5 * host.h, (n, live)


def test_most_live_roofs_counts_each_roof_once():
    # on the 15-vertex host 0 is the highest vertex and 9 is higher than
    # every vertex but 0, 1, 8 and 12: three segments with roof 9 span
    # x = 3 to 13 but for 9 itself, one with roof 0 spans 1 to 13, and the
    # segment (14, 13) spans no x
    keys = btree.height_keys(4, 15)
    edges = [(2, 9), (4, 9), (9, 14), (0, 14), (14, 13)]
    assert most_live_roofs(keys, edges) == 2
    assert most_live_roofs(keys, edges[:3]) == 1
    assert most_live_roofs(keys, [(13, 14)]) == 0


def host_edge_sample(n: int, seed: int) -> list[tuple[int, int]]:
    """A seeded random share of the universal host's edges, a fifth of them
    copied once more, every other copy reversed, in random order."""
    rng = random.Random(seed)
    share = rng.choice([0.02, 0.1, 0.3]) * min(1.0, 1000 / n)
    edges = [e for e in UniversalGraph(n).edges() if rng.random() < share]
    edges += [edges[i][::-1] if i % 2 else edges[i]
              for i in rng.choices(range(len(edges)), k=len(edges) // 5)]
    rng.shuffle(edges)
    return edges


@pytest.mark.parametrize("n", [63, 255, 1023, 4095])
def test_list_sweep_equals_fenwick_sweep(n):
    """On host edges the universal host's list sweep returns what the
    Fenwick sweep returns: the count, the witnesses and the queries, with
    repeated and reversed segments counted once per copy; and so does the
    report of the identity map."""
    host = UniversalGraph(n)
    keys = btree.height_keys(host.h, n)
    identity = Embedding({v: v for v in range(n)})
    counts = []
    for seed in range(4):
        edges = host_edge_sample(n, 1000 * n + seed)
        lo, hi = [min(e) for e in edges], [max(e) for e in edges]
        fenwick = validate._sweep(keys, lo, hi)
        assert validate._list_sweep(keys, lo, hi) == fenwick, seed
        assert roof_crossings(host.h, edges) == fenwick
        report = validate_embedding(host, Graph(n, edges), identity)
        assert (report.crossings, report.failures, report.checked) == fenwick
        counts.append(fenwick[0])
    assert max(counts) > WITNESS_CAP, counts


def test_list_sweep_equals_fenwick_sweep_on_every_host_edge(monkeypatch):
    """Every edge of the universal host: 882,069 crossing pairs on 255
    vertices, where both sweeps list the first 10,000 alike, and 32,655 on
    63 vertices, where both list every pair as the pairwise scan does."""
    for n, count, cap in ((255, 882_069, 10_000), (63, 32_655, 10**9)):
        host = UniversalGraph(n)
        keys = btree.height_keys(host.h, n)
        edges = list(host.edges())
        lo, hi = [u for u, _ in edges], [v for _, v in edges]
        monkeypatch.setattr(validate, "WITNESS_CAP", cap)
        fenwick = validate._sweep(keys, lo, hi)
        assert fenwick[0] == count and len(fenwick[1]) == min(count, cap)
        assert validate._list_sweep(keys, lo, hi) == fenwick
    assert fenwick[1] == pairwise_crossings(host, edges)[0]


def sparse_tree_of_host_edges(host, points, rng):
    """A random spanning forest of the host edges among the given vertices,
    in random order, on 0..k-1 with `points` as their images: a random
    tree, if they are joined, mapped injectively into the host with each
    edge on a host edge."""
    k = len(points)
    pairs = [(i, j) for i, j in itertools.combinations(range(k), 2)
             if host.is_edge(points[i], points[j])]
    rng.shuffle(pairs)
    part, edges = list(range(k)), []
    for i, j in pairs:
        a, b = i, j
        while part[a] != a:
            a = part[a]
        while part[b] != b:
            b = part[b]
        if a != b:
            part[a] = b
            edges.append((i, j))
    return Graph(k, edges)


@pytest.mark.parametrize("n, table", [(4095, list), (2**30, dict)])
def test_one_pass_sweep_on_sparse_images(n, table):
    """The span rule: a segment gets roof events iff hi - lo >= 2, also when
    the images are sparse and most segments span host vertices that are no
    endpoint, some of them none at all.  The report of the universal host's
    one-pass sweep equals the Fenwick sweep's count, witnesses and queries,
    and lists the pairwise scan's crossing pairs.  Images below 4k for k
    vertices keep the key table a list, and images spread over 2**30 make
    it a dict."""
    host, rng = UniversalGraph(n), random.Random(n + 1)
    spans_none = crossed = 0
    for _ in range(60):
        k = rng.randrange(2, 65)
        if table is list:
            points = rng.sample(range(4 * k), k)
        else:  # spread over the host, the more often the nearer the root
            points = list({rng.randrange(n) >> rng.randrange(30) for _ in range(k)})
            rng.shuffle(points)
        graph = sparse_tree_of_host_edges(host, points, rng)
        assert isinstance(height_ranks(host.h, points), table)
        segments = mapped_segments(graph.edges, points)
        ends = sorted(points)
        spans_none += sum(bisect_right(ends, a) == bisect_left(ends, b) for a, b in segments)
        emb = Embedding(dict(enumerate(points)))
        report = validate_embedding(host, graph, emb)
        assert (report.crossings, report.failures, report.checked) == roof_crossings(
            host.h, segments)
        with full_listing():
            assert validate_embedding(host, graph, emb).failures == pairwise_crossings(
                host, segments)[0]
        crossed += not report.ok
    assert spans_none and 0 < crossed < 60, (spans_none, crossed)


@pytest.mark.parametrize("n, top", [(15, 15), (63, 63), (40, 4095), (30, 2**30)])
def test_one_pass_edge_test_is_the_host_rule(n, top):
    """The edge pass tests E1-E3 inline on decoded keys: with every ordered
    pair of n input vertices as an edge, mapped injectively at random into
    the host on `top` vertices, it names as missing exactly the edges whose
    images `is_edge` refuses, in input order."""
    host, rng = UniversalGraph(top), random.Random(top)
    points = rng.sample(range(top), n)
    edges = list(itertools.permutations(range(n), 2))
    rng.shuffle(edges)
    report = validate_embedding(host, Graph(n, edges), Embedding(dict(enumerate(points))))
    missing = [("MissingEdge", ((u, v), (points[u], points[v]))) for u, v in edges
               if not host.is_edge(points[u], points[v])]
    assert missing and report.failures == missing


def test_convex_sweep_on_sparse_images():
    """Random trees mapped injectively at random into the complete host on
    4096 vertices: the nesting walk finds a crossing and the Fenwick sweep
    counts the roof sweep's crossings and lists the pairwise scan's pairs,
    with its queries after the walk's comparisons."""
    host, rng = build_complete_host(4096), random.Random(4096)
    crossed = 0
    for _ in range(60):
        k = rng.randrange(2, 65)
        tree = random_tree(k, rng)
        points = rng.sample(range(host.n), k)
        segments = mapped_segments(tree.edges, points)
        emb = Embedding(dict(enumerate(points)))
        report = validate_embedding(host, tree, emb)
        count, witnesses, queries = roof_crossings(None, segments, {v: -v for v in points})
        assert (report.crossings, report.failures) == (count, witnesses)
        walk = nesting_crossing(segments)[1]
        assert report.checked == walk + (queries if count else 0)
        with full_listing():
            assert validate_embedding(host, tree, emb).failures == pairwise_crossings(
                host, segments)[0]
        crossed += not report.ok
    assert 0 < crossed < 60, crossed


def test_star_validation_costs_no_more_than_a_path():
    """The universal host's list sweep keeps each live roof once, with a
    count of its copies: a star's 65,534 segments share one roof, and a list
    that held every copy would move about m**2 / 2 pointers as they leave.
    Validating the star then costs at most twice the path."""
    n = 65535
    host = UniversalGraph(n)
    identity = Embedding({v: v for v in range(n)})
    shapes = {"star": Forest(n, [(0, i) for i in range(1, n)]),
              "path": Forest(n, [(i, i + 1) for i in range(n - 1)])}
    best = dict.fromkeys(shapes, math.inf)
    for _ in range(3):
        for name, forest in shapes.items():
            start = time.process_time()
            report = validate_embedding(host, forest, identity)
            best[name] = min(best[name], time.process_time() - start)
            assert report.ok and report.checked == n - 1, name
    assert best["star"] <= 2 * best["path"], best


def test_roof_crossings_needs_keys_without_a_height():
    segments = [(0, 2), (1, 3)]
    with pytest.raises(InputError, match="needs the height keys"):
        roof_crossings(None, segments)
    with pytest.raises(InputError, match="needs the height keys"):
        roof_crossings(None, [])
    count, witnesses, _ = roof_crossings(None, segments, {v: -v for v in range(4)})
    assert count == 1 and witnesses == [("Crossing", ((0, 2), (1, 3)))]


def test_roof_rule_on_keys_minus_v_is_the_chord_rule():
    """With height key -v the rightmost of three points is the highest, so
    the roof sweep decides every pair of segments on 3 to 12 points in
    convex position as the interleaving rule does."""
    for n in range(3, 13):
        keys = {v: -v for v in range(n)}
        segments = list(itertools.combinations(range(n), 2))
        for s, t in itertools.combinations(segments, 2):
            count, _, _ = roof_crossings(None, [s, t], keys)
            assert count == convex_edges_cross(n, s, t), (n, s, t)


@given(segment_sets(40))
def test_roof_listing_equals_pairwise_scan(case):
    n, segments, repeats = case
    segments = [(min(e), max(e)) for e in with_duplicates(segments, repeats)]
    host = UniversalGraph(n)
    oracle, _ = pairwise_crossings(host, segments)
    with full_listing():
        assert roof_crossings(host.h, segments)[:2] == (len(oracle), oracle)


def test_roof_listing_equals_exact_scan_on_a_scrambled_tree(monkeypatch):
    """A random tree on 255 vertices, relabeled by a random permutation,
    crosses itself thousands of times on the host.  The roof sweep lists
    exactly the pairs that cross on the exact coordinates, and the
    embedder's own map of the tree crosses nowhere on them."""
    n = 255
    rng = random.Random(n)
    tree = random_tree(n, rng)
    host = UniversalGraph(n)
    coords = realize_coordinates(host.h, n)

    def exact_crossings(mapping):
        segments = sorted(mapped_segments(tree.edges, mapping))
        return segments, [(s, t) for s, t in itertools.combinations(segments, 2)
                          if segments_cross_exact(coords, s, t)]

    segments, exact = exact_crossings(rng.sample(range(n), n))
    monkeypatch.setattr(validate, "WITNESS_CAP", len(exact))
    count, witnesses, _ = roof_crossings(host.h, segments)
    assert count == len(witnesses) == len(exact) > 1000
    assert all(segments_cross_exact(coords, *pair) for _, pair in witnesses)
    assert sorted(pair for _, pair in witnesses) == exact
    assert exact_crossings(embed_forest(host, tree).mapping)[1] == []


@pytest.mark.parametrize("host, segments, index", [
    (build_caterpillar_host(5), [(0, 7), (1, 3)], 7),
    (build_caterpillar_host(5), [(-1, 2), (0, 3)], -1),
    (UniversalGraph(5), [(0, 6), (1, 3)], 6),
])
def test_pairwise_oracle_refuses_an_end_off_the_host(host, segments, index):
    # `convex_edges_cross` reads ends mod n, and 6 is a node of the universal
    # host's index tree, so each of these would get a verdict on no host edge
    with pytest.raises(IndexOutOfRange, match=f"index {index} "):
        pairwise_crossings(host, segments)


def test_both_oracles_take_either_orientation_against_exact_coordinates():
    # every pair of the 105 segments on the 15-vertex host, the first given
    # as (hi, lo): both oracles agree with the exact integer realization
    host = UniversalGraph(15)
    points = realize_coordinates(host.h, host.n)
    segments = list(itertools.combinations(range(host.n), 2))
    for s, t in itertools.combinations(segments, 2):
        crossing = segments_cross_exact(points, s, t)
        listed, _ = pairwise_crossings(host, [s[::-1], t])
        assert listed == ([("Crossing", (s, t))] if crossing else []), (s, t)
        assert roof_crossings(host.h, [s[::-1], t])[0] == crossing, (s, t)


@pytest.mark.parametrize("host", [UniversalGraph(15), build_complete_host(8)],
                         ids=["universal", "complete"])
def test_both_oracles_refuse_a_segment_with_equal_ends(host):
    keys = {v: -v for v in range(host.n)} if host.kind == "complete" else None
    with pytest.raises(DegenerateEdge, match=re.escape("edge (2, 2) joins a vertex to itself")):
        roof_crossings(host.h if keys is None else None, [(0, 5), (2, 2)], keys)
    with pytest.raises(DegenerateEdge, match=re.escape("edge (2, 2) joins a vertex to itself")):
        pairwise_crossings(host, [(0, 5), (2, 2)])


def test_repeated_segments_count_once_per_copy():
    # (1, 3) crosses (2, 5) on the 7-vertex host, and (0, 5) crosses (2, 7)
    # on the complete host; four copies of one, one given backwards, and two
    # of the other make eight crossing pairs, listed as the pairwise scan
    # lists them.  Each of the six listed edges makes one roof query, after
    # the nesting walk on the complete host
    for host, s, t in ((UniversalGraph(7), (1, 3), (2, 5)),
                       (build_complete_host(8), (0, 5), (2, 7))):
        n, edges = host.n, [t, s, t, s, s, s[::-1]]
        segments = mapped_segments(edges, range(n))
        oracle, _ = pairwise_crossings(host, segments)
        assert oracle == [("Crossing", (s, t))] * 8
        assert_detectors_agree(host, segments)
        report = validate_embedding(host, Graph(n, edges), Embedding({v: v for v in range(n)}))
        assert report.crossings == 8 and report.failures == oracle, host.kind
        walk = 0 if host.kind == "universal" else nesting_crossing(segments)[1]
        assert report.checked == walk + 6, host.kind


@pytest.mark.parametrize("k", [WITNESS_CAP - 1, WITNESS_CAP, WITNESS_CAP + 1])
def test_witnesses_stop_at_the_cap(k):
    # On the complete host (0, 30) crosses each nested chord (i, 60 - i)
    # with i <= k, and those never cross each other: k crossings.  Up to the
    # cap they are listed in full; past it, WITNESS_CAP of them
    n = 61
    edges = [(0, 30)] + [(i, 60 - i) for i in range(1, k + 1)]
    host = build_complete_host(n)
    oracle, _ = pairwise_crossings(host, sorted(edges))
    assert len(oracle) == k
    report = validate_embedding(host, Graph(n, edges), Embedding({v: v for v in range(n)}))
    assert report.crossings == k and not report.ok
    assert_witnesses_bounded(report.failures, oracle)
    assert len(report.failures) == min(k, WITNESS_CAP)


def test_diameter_matching_on_the_complete_host_is_counted():
    # the 1023 chords (i, i + 1023) of the 2047-gon pairwise interleave:
    # 1023 * 1022 / 2 crossings, counted without listing them
    n, half = 2047, 1023
    edges = [(i, i + half) for i in range(half)]
    report = validate_embedding(build_complete_host(n), Forest(n, edges),
                                Embedding({v: v for v in range(n)}))
    assert report.crossings == half * (half - 1) // 2 == 522_753
    pairs = [pair for _, pair in report.failures]
    assert len(set(pairs)) == len(pairs) == WITNESS_CAP
    assert all(s in edges and t in edges and s < t for s, t in pairs)


def test_huge_host_tables_follow_the_input(monkeypatch):
    # on a host of 10**9 vertices the height table covers the input's
    # endpoints, not the host: a short list for endpoints near 0, a dict
    # for endpoints spread over the host
    host = UniversalGraph(10**9)
    height_keys, sizes = btree.height_keys, []

    def bounded(h, n):
        assert n <= 64, f"a table of {n} height keys for a small input"
        sizes.append(n)
        return height_keys(h, n)

    monkeypatch.setattr(btree, "height_keys", bounded)
    path = Forest(3, [(0, 1), (1, 2)])
    assert validate_embedding(host, path, Embedding({0: 0, 1: 1, 2: 2})).ok
    assert sizes == [3]
    # the root 0 is adjacent to every vertex, here its right child 2**29
    assert validate_embedding(host, path, Embedding({0: 1, 1: 0, 2: 1 << 29})).ok
    assert sizes == [3]

    rng, outcomes = random.Random(9), set()
    for _ in range(40):
        points = rng.sample(range(host.n), 8)
        segments = list({tuple(sorted(rng.sample(points, 2))) for _ in range(6)})
        assert_detectors_agree(host, segments)
        outcomes.add(roof_crossings(host.h, segments)[0] == 0)
    assert sizes == [3] and outcomes == {True, False}

    # no image, injectivity or key table is sized by the host: the path on
    # 10**9 and on 10**12 vertices validates within a few kilobytes
    top = 10**12
    for host, mapping in ((host, {0: 1, 1: 0, 2: 1 << 29}),
                          (build_complete_host(top), {0: 0, 1: top // 2, 2: top - 1})):
        tracemalloc.start()
        try:
            assert validate_embedding(host, path, Embedding(mapping)).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (host.kind, peak)


def report_corpus():
    """Seeded inputs for `validate_embedding` that reach every report: forests
    embedded in universal hosts, the same forests with their images shuffled
    so that they cross, random sets of host edges with repeated and reversed
    copies on universal and convex hosts, and one input per failure kind."""
    rng = random.Random(2021)
    for n in (2, 3, 7, 31, 100, 255, 600):
        tree = random_tree(n, rng)
        forest = Forest(n, [e for e in tree.edges if rng.random() < 0.85])
        host = UniversalGraph(n)
        yield host, forest, embed_forest(host, forest)
        shuffled = Embedding(dict(zip(range(n), rng.sample(range(n), n))))
        yield host, forest, shuffled
        yield build_complete_host(n), forest, shuffled
    for build in (UniversalGraph, build_caterpillar_host, build_twochord_host, build_complete_host):
        for n in (5, 16, 40, 120):
            host = build(n)
            edges = [e for e in host.edges() if rng.random() < min(1.0, 6 / n)]
            edges += [edges[i][::-1] if i % 2 else edges[i]
                      for i in rng.choices(range(len(edges)), k=len(edges) // 4)]
            rng.shuffle(edges)
            yield host, Graph(n, edges), Embedding({t: t for t in range(n)})
    host = UniversalGraph(10**9)
    points = [rng.randrange(host.n) >> rng.randrange(30) for _ in range(40)]
    points = sorted(set(points))
    edges = [(i, j) for i, j in itertools.combinations(range(len(points)), 2)
             if host.is_edge(points[i], points[j]) and rng.random() < 0.5]
    yield host, Graph(len(points), edges), Embedding(dict(enumerate(points)))
    for n, k in ((61, 25), (1001, 200)):
        edges = [(0, n // 2)] + [(i, n - 1 - i) for i in range(1, k)]
        yield build_complete_host(n), Graph(n, edges), Embedding({v: v for v in range(n)})
    for build, cat in ((build_caterpillar_host, Caterpillar((0, 1, 2), ((3, 4), (), (5,)))),
                       (build_twochord_host, ChordedCycle(14, ((0, 4), (7, 11))))):
        host = build(cat.n)
        embed = embed_caterpillar if isinstance(cat, Caterpillar) else embed_twochord
        yield host, cat, embed(host, cat)
    host, ids = UniversalGraph(15), {t: t for t in range(6)}
    for graph, mapping in (
            ((6, [(0, 1), (2, 2)]), ids),                     # DegenerateEdge
            ((6, [(0, 1), (3, 9)]), ids),                     # IndexOutOfRange
            ((6, [(0, 1)]), {0: 0, 1: 1}),                    # SizeMismatch: missing
            ((6, [(0, 1)]), {**ids, 8: 2, -1: 4}),            # SizeMismatch: extra
            ((6, [(0, 1)]), {**ids, 2: -3, 4: 15}),           # SizeMismatch: off the host
            ((6, [(0, 1)]), {**ids, 3: 0, 5: 1}),             # NotInjective
            ((15, [(3, 13), (0, 1)]), {t: t for t in range(15)}),  # MissingEdge
            ((15, [(1, 3), (2, 5), (1, 3)]), {t: t for t in range(15)})):  # Crossing
        yield host, Graph(*graph), Embedding(mapping)


# sha256 of every report on `report_corpus`: status, failures, checked and
# crossings, so any change to what the validator reports or counts shows.
VALIDATION_REPORT_DIGEST = "10bfd155a856d1505b336d3cca38b5eaf3507fb777051f045385402f375c0d2e"


def test_validation_reports_are_pinned():
    digest, kinds = hashlib.sha256(), set()
    for host, graph, emb in report_corpus():
        report = validate_embedding(host, graph, emb)
        kinds.update(kind for kind, _ in report.failures)
        digest.update(repr((report.status, report.failures, report.checked,
                            report.crossings)).encode())
        if host.kind == "universal":
            # the sweep alone on the mapped segments, host edges or not; it
            # refuses a segment whose ends are equal, which it once dropped
            segments = [(a, b) for a, b in ((emb.mapping.get(u, u), emb.mapping.get(v, v))
                                            for u, v in graph.edges) if a != b]
            digest.update(repr(roof_crossings(host.h, segments)).encode())
    assert kinds == {"DegenerateEdge", "IndexOutOfRange", "SizeMismatch", "NotInjective",
                     "MissingEdge", "Crossing"}
    assert digest.hexdigest() == VALIDATION_REPORT_DIGEST
