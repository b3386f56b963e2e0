"""Embedding validator: injectivity, edge membership, crossing-freeness.

Crossings are found in O(m log m) time: a roof sweep on the universal host, a
parenthesis-nesting walk on convex hosts.  On the universal host a vertex
strictly inside the x-span of a segment lies above it iff it is higher than
both of its ends (`geometry.above`), so inside its span every segment is a
flat roof at the height of its higher end.  Hence the roof rule: segments s
and t cross iff the lower end e of t lies strictly inside the span of s and
roof(s) lies strictly between e and roof(t).  Why: between the two ends of
their common x-range the vertical order is the roofs' order, and an end can
disagree with it only if it is the lower end of the segment with the higher
roof and lies below the other roof; one segment has one lower end, so at most
one end disagrees, and the segments cross iff one does.
The edge test and the sweep read one table of height keys, sized by the
input and built in one walk of the index tree.  Only when a detector finds a
crossing are the witnesses listed, by the roof sweep on every host.  Points
in convex position obey the same rule with height keys -v: the middle one of
any three is never above the line through the other two, so the rule reads
that (a, b) and (c, d) with a < c cross iff a < c < b < d, the interleaving
rule for chords.

Failures are data, not exceptions; every failure carries a witness.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from operator import itemgetter

from .. import btree
from ..btree import BTreeShape
from ..convex import ChordedCycle, convex_edges_cross, nesting_crossing
from ..embedder import Embedding
from ..geometry import height_ranks, segments_cross
from ..trees import Caterpillar, Forest
from ..ugraph import adjacent

Segment = tuple[int, int]


@dataclass
class ValidationReport:
    status: str  # "ok" | "failed"
    failures: list[tuple[str, tuple]] = field(default_factory=list)
    # crossing tests made: the detector's roof queries (universal host) or
    # stack comparisons (convex hosts), then the roof queries that list the
    # witnesses when there is a crossing
    checked: int = 0

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


def _count(tree: list[int], live, r: int, s: Segment, d: int) -> None:
    """Count the roof of segment s in or out (d = 1 or -1) at slot r of the
    Fenwick tree, and add s to or take it from the slot's live segments
    unless `live` is None."""
    if live is not None:
        (live[r].add if d > 0 else live[r].discard)(s)
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


def _after(tree: list[int], r: int) -> int:
    """The first slot after r that holds a live roof, else len(tree)."""
    c, r, size = _between(tree, 0, r + 1), 0, len(tree)
    step = 1 << size.bit_length()
    while step:  # descend to the last slot with at most c roofs up to it
        if r + step < size and tree[r + step] <= c:
            r += step
            c -= tree[r]
        step >>= 1
    return r + 1


def _roof_sweep(shape: BTreeShape, segments, keys,
                every: bool) -> tuple[list[tuple[Segment, Segment]], int]:
    """Crossing pairs (s, t) among host segments by the roof rule, and the
    number of roof queries made: the first pair found or, with `every`, all
    of them, each once.

    The roofs of the live segments, those whose x-span holds x strictly, are
    counted in a Fenwick tree with a slot per distinct roof, lowest first.
    At each x the segments ending at x leave; then each segment t whose
    lower end is x asks for a live roof strictly between x and roof(t); then
    the segments starting at x enter.  A segment between two consecutive
    xs is never live at a query, so it skips the tree.  With `every` the
    live segments of each slot are kept as well, and a query walks its
    non-empty slots one Fenwick descent each.
    """
    segs = {(u, v) if u < v else (v, u) for u, v in segments if u != v}
    xs = sorted({v for s in segs for v in s})
    if keys is None:
        keys = _height_table(shape, xs)
    # A vertex's slot counts the roofs not higher than it, so a roof has
    # its own slot, and the roofs strictly between x and a higher roof y
    # are those in the slots strictly between slot[x] and slot[y].
    roofs = {u if keys[u] < keys[v] else v for u, v in segs}
    slot, size = keys.copy(), 1
    for v in sorted(xs, key=keys.__getitem__, reverse=True):
        size += v in roofs
        slot[v] = size - 1
    tree = [0] * size
    live: dict[int, set[Segment]] | None = defaultdict(set) if every else None
    starts, ends = sorted(segs, key=itemgetter(0)), sorted(segs, key=itemgetter(1))
    pairs: list[tuple[Segment, Segment]] = []
    queries = i = j = 0
    for before, x, after in zip([None] + xs, xs, xs[1:] + [None]):
        sx, kx, j0, i0 = slot[x], keys[x], j, i
        while j < len(ends) and ends[j][1] == x:
            s, j = ends[j], j + 1
            if s[0] != before:
                _count(tree, live, max(slot[s[0]], sx), s, -1)
        while i < len(starts) and starts[i][0] == x:
            i += 1
        for t in ends[j0:j] + starts[i0:i]:
            y = t[0] + t[1] - x  # the end of t that is not x
            if keys[y] < kx:  # x is the lower end of t
                queries += 1
                top = slot[y]
                if not _between(tree, sx, top):
                    continue
                if not every:
                    s = next(s for s in segs if s[0] < x < s[1]
                             and sx < max(slot[s[0]], slot[s[1]]) < top)
                    return [(s, t)], queries
                r = _after(tree, sx)
                while r < top:
                    pairs += [(s, t) for s in live[r]]
                    r = _after(tree, r)
        for s in starts[i0:i]:
            if s[1] != after:
                _count(tree, live, max(slot[s[1]], sx), s, 1)
    return pairs, queries


def sweep_crossing(shape: BTreeShape, segments,
                   keys=None) -> tuple[tuple[Segment, Segment] | None, int]:
    """The roof sweep over host segments: a crossing pair or None, and the
    number of roof queries made, at most one per segment.

    Inside its x-span a segment is a flat roof at the height of its higher
    end, so segments s and t cross iff the lower end e of t lies strictly
    inside the span of s and roof(s) lies strictly between e and roof(t).
    Between the two ends of their common x-range the vertical order is the
    roofs' order; at most one end can disagree with it, and that end is the
    e the rule names.  The query at e asks the rule of every live s at once,
    so the sweep keeps no order of segments, and it takes O(m log m) time
    on every input.

    `keys` is a table of height keys covering every endpoint, read as
    keys[v]; without it the sweep builds one.
    """
    pairs, queries = _roof_sweep(shape, segments, keys, False)
    return (pairs[0] if pairs else None), queries


def roof_crossings(shape: BTreeShape | None, segments: list[Segment],
                   keys=None) -> tuple[list[tuple[str, tuple]], int]:
    """Every crossing pair among host segments as a `Crossing` failure, in
    the order of the pairwise scan on their (lo, hi) forms, and the number
    of roof queries made: the witness lister of every host.  On a convex
    host pass keys[v] = -v and no shape.  No pair meets the roof rule both
    ways round, so the sweep finds each crossing once."""
    pairs, queries = _roof_sweep(shape, segments, keys, True)
    times, failures = Counter((min(s), max(s)) for s in segments), []
    for first, found in groupby(sorted((min(p), max(p)) for p in pairs), itemgetter(0)):
        failures += [("Crossing", p) for p in found for _ in range(times[p[1]])] * times[first]
    return failures, queries


def _crossing_rules(host, endpoints):
    """The edge test, the fast crossing detector and the witness lister for
    segments on the given host vertices.  On the universal host all three
    read one table of height keys, built here once.  On convex hosts the
    nesting walk detects, and the lister builds the keys -v of the
    segments' ends only when it is called."""
    if host.kind == "universal":
        h, keys = host.shape.h, _height_table(host.shape, endpoints)

        def is_edge(u: int, v: int) -> bool:
            # `key_location` of both keys, inlined: this runs once per edge
            ku, kv = keys[u], keys[v]
            lu, lv = -(-ku >> h), -(-kv >> h)
            return adjacent(lu, (lu << h) - ku, lv, (lv << h) - kv)

        return (is_edge, partial(sweep_crossing, host.shape, keys=keys),
                partial(roof_crossings, host.shape, keys=keys))
    return host.is_edge, nesting_crossing, lambda segments: roof_crossings(
        None, segments, {v: -v for s in segments for v in s})


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

    is_edge, detect, list_crossings = _crossing_rules(host, mp.values())
    mapped: list[Segment] = []
    for u, v in in_edges:
        gu, gv = mp[u], mp[v]
        if not is_edge(gu, gv):
            failures.append(("MissingEdge", ((u, v), (gu, gv))))
        else:
            mapped.append((gu, gv) if gu < gv else (gv, gu))
    if failures:
        return ValidationReport("failed", failures)

    witness, checked = detect(mapped)
    if witness is not None:
        failures, more = list_crossings(mapped)
        checked += more
    return ValidationReport("failed" if failures else "ok", failures, checked)
