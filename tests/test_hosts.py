"""Every host kind through the one host protocol: the lazy, sorted edge
list against the pairwise `is_edge` scan and against `edge_count()`."""

import tracemalloc

import pytest

from ugg.convex import (
    build_caterpillar_host,
    build_complete_host,
    build_cycle_host,
    build_twochord_host,
)
from ugg.errors import EqualIndices, IndexOutOfRange
from ugg.ugraph import build_universal

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
    for u in range(n):  # sorted, disjoint and none empty, as the protocol says
        bounds = [b for lo, hi in host.later_ranges(u) for b in (lo, hi)]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        assert all(a < b for a, b in zip([u, *bounds[1::2]], bounds[::2]))


@pytest.mark.parametrize("kind, n", [("universal", 1000), ("universal", 1023),
                                     ("caterpillar", 1000), ("caterpillar", 1023),
                                     ("twochord", 1000), ("complete", 300)])
def test_edge_count_matches_edge_list_at_larger_n(kind, n):
    host = KINDS[kind][0](n)
    assert sum(1 for _ in host.edges()) == host.edge_count()


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
