"""Embedding validator: injectivity, edge membership, crossing-freeness.

Crossings are counted in O(m log m) time by a roof sweep; on convex hosts a
parenthesis-nesting walk first decides whether there is any.  On the
universal host a vertex strictly inside the x-span of a segment lies above it
iff it is higher than both of its ends (`geometry.above`), so inside its span
every segment is a flat roof at the height of its higher end.  Hence the roof
rule: segments s and t cross iff the lower end e of t lies strictly inside
the span of s and roof(s) lies strictly between e and roof(t).  Why: between
the two ends of their common x-range the vertical order is the roofs' order,
and an end can disagree with it only if it is the lower end of the segment
with the higher roof and lies below the other roof; one segment has one lower
end, so at most one end disagrees, and the segments cross iff one does.
The edge test and the sweep read one table of height keys, sized by the
input and built in one walk of the index tree.  Points in convex position
obey the same rule with height keys -v: the middle one of any three is never
above the line through the other two, so the rule reads that (a, b) and
(c, d) with a < c cross iff a < c < b < d, the interleaving rule for chords.
The sweep's queries sum to the exact number of crossing pairs, which can be
quadratic in m, so a report holds that count and lists at most WITNESS_CAP
of the pairs, all of them when there are no more.

Failures are data, not exceptions; every failure carries a witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby, islice, repeat
from operator import itemgetter

from .. import btree
from ..btree import BTreeShape
from ..convex import ChordedCycle, convex_edges_cross, nesting_crossing
from ..embedder import Embedding
from ..geometry import height_ranks, segments_cross
from ..trees import Caterpillar, Forest
from ..ugraph import adjacent

Segment = tuple[int, int]
WITNESS_CAP = 20  # most `Crossing` witnesses that one report lists


@dataclass
class ValidationReport:
    status: str  # "ok" | "failed"
    failures: list[tuple[str, tuple]] = field(default_factory=list)
    # crossing tests made: the roof queries (universal host), or the stack
    # comparisons and, if there is a crossing, the roof queries (convex hosts)
    checked: int = 0
    # crossing pairs, a repeated segment once per copy; `failures` lists at
    # most WITNESS_CAP of them
    crossings: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _input_shape(graph) -> tuple[int, list[tuple[int, int]]]:
    if isinstance(graph, Forest):
        return graph.n, list(graph.edges)
    if isinstance(graph, (Caterpillar, ChordedCycle)):
        return graph.n, graph.edges()
    n, edges = graph
    return n, list(edges)


def _height_table(shape: BTreeShape, endpoints) -> list[int] | dict[int, int]:
    """Height keys of the given host vertices, read as keys[v].

    A list of every key up to the largest endpoint when that list is at
    most four times as long as the endpoints are many, else a dict of the
    endpoints alone, so the cost follows the input and not the host.
    """
    top = max(endpoints, default=-1) + 1
    if top <= 4 * len(endpoints):
        return btree.height_keys(shape, top)
    return height_ranks(shape, endpoints)


def _count(tree: list[int], r: int, d: int) -> None:
    """Add d to slot r of the Fenwick tree: a roof counted in (d > 0) or out
    (d < 0) once per copy of its segment."""
    size = len(tree)
    while r < size:
        tree[r] += d
        r += r & -r


def _between(tree: list[int], a: int, b: int) -> int:
    """The number of live roofs in the slots strictly between a and b, a < b."""
    c, b = 0, b - 1
    while b > a:  # the sums up to b - 1 and up to a meet where they agree
        c += tree[b]
        b &= b - 1
    while a > b:
        c -= tree[a]
        a &= a - 1
    return c


def _listed(pairs, times):
    """`Crossing` failures in the pairwise scan's order on (lo, hi) forms,
    each pair once per copy of each of its two segments."""
    for first, found in groupby(sorted((min(p), max(p)) for p in pairs), itemgetter(0)):
        found = list(found)
        for _ in range(times[first]):
            for p in found:
                yield from repeat(("Crossing", p), times[p[1]])


def roof_crossings(shape: BTreeShape | None, segments,
                   keys=None) -> tuple[int, list[tuple[str, tuple]], int]:
    """The roof sweep over host segments: the number of crossing pairs, at
    most WITNESS_CAP of them as `Crossing` failures, and the number of roof
    queries made, at most one per segment.

    The query at the lower end e of a segment t asks the roof rule of every
    segment s live at e at once: the roofs of the live segments, those whose
    x-span holds e strictly, are counted in a Fenwick tree with a slot per
    distinct roof, lowest first, so the sweep keeps no order of segments and
    takes O(m log m) time on every input.  At each x the segments ending at
    x leave; then each segment t whose lower end is x counts the live roofs
    strictly between x and roof(t); then the segments starting at x enter.
    A segment between two consecutive xs is never live at a query, so it
    skips the tree.  No pair meets the rule both ways round, so the sum of
    the queries is the exact number of crossing pairs, a repeated segment
    counted once per copy.  While fewer than WITNESS_CAP pairs are known, a
    query that counts any scans the segments started before x for them.
    The witnesses are listed as by the pairwise scan and cut at WITNESS_CAP,
    so a count up to WITNESS_CAP lists every pair.

    `keys` is a table of height keys covering every endpoint, read as
    keys[v]; without it the sweep builds one.  On a convex host pass
    keys[v] = -v and no shape.
    """
    times = Counter((u, v) if u < v else (v, u) for u, v in segments if u != v)
    xs = sorted({v for s in times for v in s})
    if keys is None:
        keys = _height_table(shape, xs)
    # A vertex's slot counts the roofs not higher than it, so a roof has
    # its own slot, and the roofs strictly between x and a higher roof y
    # are those in the slots strictly between slot[x] and slot[y].
    roofs = {u if keys[u] < keys[v] else v for u, v in times}
    slot, size = keys.copy(), 1
    for v in sorted(xs, key=keys.__getitem__, reverse=True):
        size += v in roofs
        slot[v] = size - 1
    tree = [0] * size
    starts, ends = sorted(times, key=itemgetter(0)), sorted(times, key=itemgetter(1))
    pairs: list[tuple[Segment, Segment]] = []
    count = queries = i = j = 0
    for before, x, after in zip([None] + xs, xs, xs[1:] + [None]):
        sx, kx, j0, i0 = slot[x], keys[x], j, i
        while j < len(ends) and ends[j][1] == x:
            s, j = ends[j], j + 1
            if s[0] != before:
                _count(tree, max(slot[s[0]], sx), -times[s])
        while i < len(starts) and starts[i][0] == x:
            i += 1
        for t in ends[j0:j] + starts[i0:i]:
            y = t[0] + t[1] - x  # the end of t that is not x
            if keys[y] < kx:  # x is the lower end of t
                queries += 1
                top = slot[y]
                c = _between(tree, sx, top)
                if c:
                    count += c * times[t]
                    if len(pairs) < WITNESS_CAP:
                        pairs += [(s, t) for s in islice(starts, i0) if x < s[1]
                                  and sx < max(slot[s[0]], slot[s[1]]) < top]
        for s in starts[i0:i]:
            if s[1] != after:
                _count(tree, max(slot[s[1]], sx), times[s])
    return count, list(islice(_listed(pairs, times), WITNESS_CAP)), queries


def _crossing_rules(host, endpoints):
    """The edge test and the crossing counter for segments on the given host
    vertices.  On the universal host both read one table of height keys,
    built here once.  On convex hosts the nesting walk looks for a crossing,
    and only when it finds one does the roof sweep count on the keys -v of
    the segments' ends."""
    if host.kind == "universal":
        h, keys = host.shape.h, _height_table(host.shape, endpoints)

        def is_edge(u: int, v: int) -> bool:
            # `key_location` of both keys, inlined: this runs once per edge
            ku, kv = keys[u], keys[v]
            lu, lv = -(-ku >> h), -(-kv >> h)
            return adjacent(lu, (lu << h) - ku, lv, (lv << h) - kv)

        return is_edge, partial(roof_crossings, host.shape, keys=keys)

    def crossings(segments):
        pair, checked = nesting_crossing(segments)
        if pair is None:
            return 0, [], checked
        keys = {v: -v for s in segments for v in s}
        count, witnesses, queries = roof_crossings(None, segments, keys)
        return count, witnesses, checked + queries

    return host.is_edge, crossings


def pairwise_crossings(host, segments: list[Segment]) -> tuple[list[tuple[str, tuple]], int]:
    """Every crossing pair as a `Crossing` failure, and the number of
    predicate calls made: the quadratic oracle for the detectors and the
    roof lister.  Segments are (lo, hi) pairs.  It decides a pair by
    `segments_cross` on the universal host and by `convex_edges_cross`,
    which reads no height keys, on convex hosts."""
    cross = (partial(segments_cross, _height_table(host.shape, {v for s in segments for v in s}))
             if host.kind == "universal" else partial(convex_edges_cross, host.n))
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
    # an input edge that is a loop or leaves [0, n_in) fails before any host test
    failures: list[tuple[str, tuple]] = [
        ("DegenerateEdge" if 0 <= u == v < n_in else "IndexOutOfRange", (u, v))
        for u, v in in_edges if not (0 <= u < n_in and 0 <= v < n_in and u != v)]
    if failures:
        return ValidationReport("failed", failures)
    mp = emb.mapping

    # one pass over the input vertices; reports keep their precedence:
    # missing and extra keys, then images off the host, then repeated images
    host_n = host.n
    missing: list[int] = []
    out_of_range: list[int] = []
    repeats: list[tuple[str, tuple]] = []
    by_image: dict[int, int] = {}
    for t in range(n_in):
        g = mp.get(t)
        if g is None:
            missing.append(t)
        elif not 0 <= g < host_n:
            out_of_range.append(t)
        else:
            first = by_image.setdefault(g, t)
            if first != t:
                repeats.append(("NotInjective", (first, t, g)))
    if missing:
        failures.append(("SizeMismatch", tuple(missing[:4])))
    # every key in [0, n_in) was met above, so extra keys exist iff mp is larger
    if len(mp) > n_in - len(missing):
        extra = sorted(t for t in mp if not 0 <= t < n_in)
        failures.append(("SizeMismatch", tuple((t, mp[t]) for t in extra)))
    if failures:
        return ValidationReport("failed", failures)
    if out_of_range:
        failures.append(("SizeMismatch", tuple((t, mp[t]) for t in out_of_range[:4])))
        return ValidationReport("failed", failures)
    if repeats:
        return ValidationReport("failed", repeats)

    is_edge, crossings = _crossing_rules(host, mp.values())
    mapped: list[Segment] = []
    for u, v in in_edges:
        gu, gv = mp[u], mp[v]
        if not is_edge(gu, gv):
            failures.append(("MissingEdge", ((u, v), (gu, gv))))
        else:
            mapped.append((gu, gv) if gu < gv else (gv, gu))
    if failures:
        return ValidationReport("failed", failures)

    count, failures, checked = crossings(mapped)
    return ValidationReport("failed" if count else "ok", failures, checked, count)
