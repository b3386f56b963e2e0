"""Every host kind through the one host protocol: the lazy, sorted edge
list against the pairwise `is_edge` scan and against `edge_count()`."""

import hashlib
import random
import time
import tracemalloc
from itertools import islice

import pytest

from ugg.convex import (
    build_caterpillar_host,
    build_complete_host,
    build_cycle_host,
    build_twochord_host,
)
from ugg.errors import EqualIndices, IndexOutOfRange
from ugg.ugraph import build_universal
from ugg.workbench import fileio

KINDS = {
    "universal": (build_universal, [1, 2, 3, 6, 7, 12, 31, 63, 64, 100, 127]),
    "caterpillar": (build_caterpillar_host, [1, 2, 3, 4, 5, 9, 16, 31, 64, 100, 129]),
    "twochord": (build_twochord_host, [3, 4, 5, 9, 10, 16, 17, 50, 101]),
    "complete": (build_complete_host, [1, 2, 3, 6, 40]),
    "custom": (build_cycle_host, [3, 4, 17]),
}
CASES = [(kind, n) for kind, (_, sizes) in KINDS.items() for n in sizes]


@pytest.mark.parametrize("kind, n", CASES)
def test_edges_match_pairwise_scan(kind, n):
    host = KINDS[kind][0](n)
    assert host.kind == kind and host.n == n
    edges = list(host.edges())
    assert edges == sorted(edges)
    scan = {(u, v) for u in range(n) for v in range(u + 1, n) if host.is_edge(u, v)}
    assert set(edges) == scan
    assert len(edges) == len(scan) == host.edge_count()
    walk = list(host.ranges())
    assert len(walk) == n
    for u, ranges in enumerate(walk):  # sorted, disjoint and none empty, as the protocol says
        bounds = [b for lo, hi in ranges for b in (lo, hi)]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        assert all(a < b for a, b in zip([u, *bounds[1::2]], bounds[::2]))


@pytest.mark.parametrize("kind, n", [("universal", 1000), ("universal", 1023),
                                     ("caterpillar", 1000), ("caterpillar", 1023),
                                     ("twochord", 1000), ("complete", 300)])
def test_edge_count_matches_edge_list_at_larger_n(kind, n):
    host = KINDS[kind][0](n)
    assert sum(1 for _ in host.edges()) == host.edge_count()


@pytest.mark.parametrize("kind", ["universal", "caterpillar", "twochord"])
def test_later_ranges_are_exactly_the_later_neighbors(kind):
    # Every n up to 130 cuts the preorder of a complete binary tree of
    # height up to 8 at every length; the tail of a range list is trimmed at
    # n - 1, and the caterpillar's reaches wrap around the seam.
    build = KINDS[kind][0]
    for n in range(3 if kind == "twochord" else 1, 131):
        host = build(n)
        walk = list(host.ranges())
        assert len(walk) == n
        for u, ranges in enumerate(walk):
            assert all(u < lo <= hi < n for lo, hi in ranges), (n, u, ranges)
            assert all(hi < lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), (n, u, ranges)
            listed = [w for lo, hi in ranges for w in range(lo, hi + 1)]
            assert listed == [w for w in range(u + 1, n) if host.is_edge(u, w)], (n, u, ranges)


@pytest.mark.parametrize("n", [1000, 2047, 2048, 4095, 4097])
def test_universal_ranges_past_130_never_touch(n):
    # sizes at, just past and just short of a full tree; every list keeps
    # its ranges apart, and sampled vertices list exactly what joins finds
    host = build_universal(n)
    walk = list(host.ranges())
    assert len(walk) == n
    for u, ranges in enumerate(walk):
        assert all(u < lo <= hi < n for lo, hi in ranges), (n, u, ranges)
        assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), (n, u, ranges)
    for u in [0, n - 1, *random.Random(n).sample(range(n), 25)]:
        listed = [w for lo, hi in walk[u] for w in range(lo, hi + 1)]
        assert listed == [w for w in range(u + 1, n) if host.joins(u, w)], (n, u)


@pytest.mark.parametrize("n", [1000, 1023, 1024, 2047, 4097])
def test_caterpillar_ranges_past_130(n):
    # every list is sorted and disjoint (its ranges may touch), and sampled
    # vertices list exactly what joins finds
    host = build_caterpillar_host(n)
    walk = list(host.ranges())
    assert len(walk) == n
    for u, ranges in enumerate(walk):
        assert all(u < lo <= hi < n for lo, hi in ranges), (n, u, ranges)
        assert all(hi < lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])), (n, u, ranges)
    for u in [0, n - 1, *random.Random(n).sample(range(n), 25)]:
        listed = [w for lo, hi in walk[u] for w in range(lo, hi + 1)]
        assert listed == [w for w in range(u + 1, n) if host.joins(u, w)], (n, u)


def caterpillar_ranges_by_class(n):
    """The caterpillar's lists from one pass per reach class above each
    vertex: the slow oracle of the edited far-point walk."""
    for u in range(n - 1):
        r = 2 * ((u + 1) & -(u + 1)) - 1
        ahead, behind = min(u + r, n - 1), min(u + n - r, n)
        if behind <= ahead + 1:
            yield [(u + 1, n - 1)]
            continue
        # the first vertex of reach 2k - 1 after u, and the last before n
        # while it reaches u across the seam; the classes k <= (r + 1) / 2
        # lie inside u's own reach
        far = set()
        k = r + 1
        while k <= n:
            d = 2 * k
            i = u + 1 + (k - 2 - u) % d
            j = n - 1 - (n - k) % d
            if ahead < i < behind:
                far.add(i)
            if n - j + u < d and ahead < j < behind:
                far.add(j)
            k = d
        yield [(u + 1, ahead), *((w, w) for w in sorted(far))] + [(behind, n - 1)] * (behind < n)
    yield []


@pytest.mark.parametrize("n", [2047, 4097, 16385])
def test_caterpillar_walk_equals_the_per_class_scan(n):
    assert list(build_caterpillar_host(n).ranges()) == list(caterpillar_ranges_by_class(n))


def merged(ranges):
    """The same vertices as ranges that do not touch: one form per set."""
    out = []
    for lo, hi in ranges:
        if out and out[-1][1] + 1 == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


# sha256 over every n up to 700 and every vertex u of the host's later
# neighbors of u, as the repr of their merged ranges followed by ";".
RANGES_SHA256 = {
    "universal": "4a50527f2d8b693fcc639d01d2554d9ba9cdc33a662c93c182035386c9d4f5d2",
    "caterpillar": "98668eb336234811baecb9472157928f4240a54a2e5b0e023610a840428b7408",
    "twochord": "23508a1590b8bb898627318d872e6ee3da1d68c8adbad618165d212516c61408",
}


@pytest.mark.parametrize("kind", sorted(RANGES_SHA256))
def test_every_vertex_ranges_are_pinned(kind):
    digest = hashlib.sha256()
    for n in range(3 if kind == "twochord" else 1, 701):
        for ranges in KINDS[kind][0](n).ranges():
            digest.update(repr(merged(ranges)).encode() + b";")
    assert digest.hexdigest() == RANGES_SHA256[kind]


def test_universal_walk_starts_at_once_on_a_huge_host():
    # the walk keeps a descent's worth of state, nothing of size n; its first
    # 31 vertices run down the leftmost path to a leaf and back up
    host = build_universal(10**9)
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        first = list(islice(host.ranges(), 31))
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 1e-3
    tracemalloc.start()
    try:
        assert list(islice(host.ranges(), 31)) == first
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert first[0] == [(1, 10**9 - 1)]
    assert all(host.is_edge(u, w) for u, ranges in enumerate(first)
               for lo, hi in ranges for w in (lo, hi))


def test_caterpillar_walk_starts_at_once_on_a_huge_host():
    # the far-point list is built from the O(log n) reach classes, nothing
    # of size n
    host = build_caterpillar_host(10**9)
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        first = list(islice(host.ranges(), 31))
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 1e-3
    tracemalloc.start()
    try:
        assert list(islice(host.ranges(), 31)) == first
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert all(host.is_edge(u, w) for u, ranges in enumerate(first)
               for lo, hi in ranges for w in (lo, hi))


# sha256 of each explicit host file as `save_host` writes it.  Any change to
# the bytes of a host file, its header, its edges or their order, fails here.
RENDER_SHA256 = {
    ("universal", 1000): "b182cc3c4eece9ad8656d872b579aedde2c0276431eb9cc3c8089122eb47dcf0",
    ("universal", 1023): "c1d6365443858f79a57a4fc20615f8abcc37bf6486b7819d3c19f49d6b61f8cf",
    ("universal", 3000): "2bca6f875c88a91a1b2b803c3c09992928c5d06a74f1c7e754dc14ab2ddc12a4",
    ("universal", 4095): "09baf7c60b0ff49e350b44ae89487064276fa2fb6a579ece76a7cc4a208537c2",
    ("caterpillar", 1000): "c3c0f03ced7d77ce5488b72364e3ad593c33c8714227813e5a9227ecae88a079",
    ("caterpillar", 1023): "cb254868a77e6749278c1429015ba1bbec01dcc24441a8291ce76dc43b207772",
    ("caterpillar", 3000): "a32b8631c9724bd45b47a9256722d3543f8797418eba7a34f9d34aecba912c5c",
    ("caterpillar", 4095): "9c1ec189b9b611e2acc38ae049afe3bc274922df103c5372ea5eae043aa5c22e",
    ("twochord", 1000): "e37912f142acf48395ae5fdbc02c0638513519b7dcc9d183588a0d28508ea6d4",
    ("twochord", 1023): "57e8b283810417ff86aaa34d7874b5f9e2489d8ebe135359b4c29a5138717ac8",
    ("twochord", 3000): "bde6f705bda89b37c1ec7d6ec90e0192e11dec40870aedaaae1c5c84a2606a40",
    ("twochord", 4095): "48e8c14caa5475b58ed2b6dc2f0725f9885be6d5df1e1ceb95bdd749833db7bf",
    # the complete host at n = 3000 and 4095 has more edges than EXPLICIT_CAP
    ("complete", 1000): "4b5cb62dda6103732c4f051c7464cc22d11d0cac46221d5fa75cd556d1cecbc6",
    ("complete", 1023): "4f195bef0b3b037e1da02a47fb1fd65acd48d579be9bbbc163f6933c496952ab",
}


@pytest.mark.parametrize("kind, n", sorted(RENDER_SHA256))
def test_explicit_host_file_bytes_are_pinned(tmp_path, kind, n):
    p = tmp_path / "host.txt"
    fileio.save_host(KINDS[kind][0](n), p, explicit=True)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == RENDER_SHA256[kind, n]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_is_edge_rejects_bad_pairs(kind):
    host = KINDS[kind][0](8)
    assert all(host.is_edge(u, v) == host.is_edge(v, u) for u in range(8) for v in range(u))
    with pytest.raises(EqualIndices):
        host.is_edge(3, 3)
    with pytest.raises(IndexOutOfRange):
        host.is_edge(0, 8)


@pytest.mark.parametrize("build, n, count", [
    (build_universal, 16383, 786531),
    (build_twochord_host, 10**6, None),
    (build_complete_host, 10**6, 10**6 * (10**6 - 1) // 2),
    (build_caterpillar_host, 10**5, None),
])
def test_edge_count_allocates_no_edge_set(build, n, count):
    tracemalloc.start()
    try:
        got = build(n).edge_count()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count is None or got == count
    assert peak < 1 << 20
