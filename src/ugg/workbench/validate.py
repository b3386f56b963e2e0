"""Embedding validator: injectivity, edge membership, crossing-freeness.

Crossings are found with O(m log m) predicate calls: a Shamos-Hoey sweep on
the universal host, a parenthesis-nesting walk on convex hosts.  But each
insert or delete in the sweep's list status moves O(m) pointers, so a star
validates in quadratic time (300 s at n = 2**20 - 1).  Only when a detector
finds a crossing does the pairwise scan run, to list every witness.

Failures are data, not exceptions; every failure carries a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..btree import BTreeShape
from ..convex import ChordedCycle, convex_edges_cross, nesting_crossing
from ..embedder import Embedding
from ..errors import InternalInvariantBroken
from ..geometry import edges_cross, height_ranks, segment_below, segments_cross
from ..trees import Caterpillar, Forest

Segment = tuple[int, int]


@dataclass
class ValidationReport:
    status: str  # "ok" | "failed"
    failures: list[tuple[str, tuple]] = field(default_factory=list)
    checked: int = 0  # crossing-predicate calls plus nesting-stack comparisons

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _input_shape(graph) -> tuple[int, list[tuple[int, int]]]:
    if isinstance(graph, Forest):
        return graph.n, list(graph.edges)
    if isinstance(graph, Caterpillar):
        f = graph.to_forest()
        return f.n, list(f.edges)
    if isinstance(graph, ChordedCycle):
        return graph.n, graph.edges()
    n, edges = graph
    return n, list(edges)


def _position(status: list[Segment], s: Segment, rank) -> int:
    """Index of s in the ordered status, or where it would be inserted."""
    lo, hi = 0, len(status)
    while lo < hi:
        mid = (lo + hi) // 2
        t = status[mid]
        if t == s:
            return mid
        if segment_below(rank, t, s):
            lo = mid + 1
        else:
            hi = mid
    return lo


def sweep_crossing(shape: BTreeShape,
                   segments) -> tuple[tuple[Segment, Segment] | None, int]:
    """Shamos-Hoey sweep over host segments: a crossing pair or None, and
    the number of crossing-predicate calls made.

    Every host vertex has its own x, so the events are vertex indices.  At
    each x the segments ending there leave the ordered status list, then the
    segments starting there enter it; every pair made adjacent is tested on
    the one rank table.  The leftmost crossing pair is adjacent before the
    sweep passes it, and until then the status order is consistent, so
    stopping at the first crossing keeps every comparison sound.
    """
    segs = sorted({(u, v) if u < v else (v, u) for u, v in segments})
    rank = height_ranks(shape, {w for seg in segs for w in seg})
    starts: dict[int, list[Segment]] = {}
    ends: dict[int, list[Segment]] = {}
    for seg in segs:
        starts.setdefault(seg[0], []).append(seg)
        ends.setdefault(seg[1], []).append(seg)
    status: list[Segment] = []
    checked = 0
    for x in sorted(starts.keys() | ends.keys()):
        for seg in ends.get(x, ()):
            i = _position(status, seg, rank)
            if i == len(status) or status[i] != seg:
                raise InternalInvariantBroken(f"segment {seg} lost from the sweep status")
            del status[i]
            if 0 < i < len(status):
                checked += 1
                if segments_cross(rank, status[i - 1], status[i]):
                    return (status[i - 1], status[i]), checked
        for seg in starts.get(x, ()):
            i = _position(status, seg, rank)
            status.insert(i, seg)
            for j in (i - 1, i + 1):
                if 0 <= j < len(status):
                    checked += 1
                    if segments_cross(rank, status[j], seg):
                        return (status[j], seg), checked
    return None, checked


def _crossing_rules(host):
    """The fast crossing detector and the pairwise crossing predicate:
    height order on the universal host, the circle on every other host."""
    if host.kind == "universal":
        return partial(sweep_crossing, host.shape), partial(edges_cross, host.shape)
    return nesting_crossing, partial(convex_edges_cross, host.n)


def pairwise_crossings(host, segments: list[Segment]) -> tuple[list[tuple[str, tuple]], int]:
    """Every crossing pair as a `Crossing` failure, and the number of
    predicate calls made.  The quadratic oracle for the two fast detectors."""
    _, cross = _crossing_rules(host)
    failures: list[tuple[str, tuple]] = []
    checked = 0
    # Sorted (lo, hi) segments cross only if the second starts strictly
    # inside the first: their x-ranges overlap, or their ends interleave.
    segments = sorted(segments)
    for i in range(len(segments)):
        e1 = segments[i]
        for j in range(i + 1, len(segments)):
            e2 = segments[j]
            if e2[0] >= e1[1]:
                break
            checked += 1
            if cross(e1, e2):
                failures.append(("Crossing", (e1, e2)))
    return failures, checked


def validate_embedding(host, graph, emb: Embedding) -> ValidationReport:
    """Check emb maps graph into host: injective on all input vertices, every
    input edge on a host edge, no two mapped segments crossing."""
    n_in, in_edges = _input_shape(graph)
    failures: list[tuple[str, tuple]] = []
    mp = emb.mapping

    missing = [t for t in range(n_in) if t not in mp]
    if missing:
        failures.append(("SizeMismatch", tuple(missing[:4])))
    extra = sorted(t for t in mp if not 0 <= t < n_in)
    if extra:
        failures.append(("SizeMismatch", tuple((t, mp[t]) for t in extra)))
    if failures:
        return ValidationReport("failed", failures)
    host_n = host.n
    out_of_range = [t for t in range(n_in) if not 0 <= mp[t] < host_n]
    if out_of_range:
        failures.append(("SizeMismatch", tuple((t, mp[t]) for t in out_of_range[:4])))
        return ValidationReport("failed", failures)

    by_image: dict[int, int] = {}
    for t in range(n_in):
        g = mp[t]
        if g in by_image:
            failures.append(("NotInjective", (by_image[g], t, g)))
        else:
            by_image[g] = t
    if failures:
        return ValidationReport("failed", failures)

    mapped: list[Segment] = []
    for u, v in in_edges:
        gu, gv = mp[u], mp[v]
        if not host.is_edge(gu, gv):
            failures.append(("MissingEdge", ((u, v), (gu, gv))))
        else:
            mapped.append((min(gu, gv), max(gu, gv)))
    if failures:
        return ValidationReport("failed", failures)

    detect, _ = _crossing_rules(host)
    witness, checked = detect(mapped)
    if witness is not None:
        failures, pairs = pairwise_crossings(host, mapped)
        checked += pairs
    return ValidationReport("failed" if failures else "ok", failures, checked)
