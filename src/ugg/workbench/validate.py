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

The sweep is one pass over one sorted list of ints.  Segments are named by
their index in flat lists, and each event packs x, a phase and an index into
one int, the phases in the order a roof leaves, a query at its segment's
higher x, a query at its lower x, a roof enters; a query carries its
segment's index and a roof event its roof's rank in the height order.  One
C `list.sort` thus puts the events in sweep order, queries at one x in the
order their segments are listed, and the loop keeps no cursor per x into
lists sorted by start and by end.  Each listed segment is one segment, with
its own query and its own pair of roof events, so a segment listed twice
crosses as two.  Two sweeps share that front end and the witness listing,
and differ in how they keep the roofs live at x:
- `_list_sweep`, on the universal host once the edge pass has shown every
  segment to be a host edge: a sorted list of the live roofs' distinct
  height keys, with the number of live segments per key.  By E1-E3 every
  roof live at x is an ancestor of x or a level-neighbour near one, and
  over all edges of the host at most 5h distinct roofs are live at any x
  (the tests check every n <= 300, 1023 and 4095, and CI 65535, where the
  most is 68 of 80).  So an event costs O(log h) comparisons and an O(h)
  memmove in C, and a query that counts sums at most 5h counts.  The keys
  must be distinct: a star's segments share one roof, and a list with an
  entry per live segment would move m**2 / 2 pointers as they leave.
- `_sweep` wherever no rule bounds the live roofs: `roof_crossings` on any
  segments, and the count on convex hosts after the nesting walk finds a
  crossing, where all n / 2 diameters of the n-gon are live at once.  It
  counts the live roofs in a Fenwick tree with a slot per distinct roof,
  O(log m) per event on every input, and it is the list sweep's oracle.

`validate_embedding` reads the mapping once into an image list, checks
injectivity with a set of the images, a table sized by the input and never
by the host, and its edge pass hands the sweep two flat lists, the left and
the right ends of the segments.

Failures are data, not exceptions; every failure carries a witness.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import partial
from heapq import nsmallest
from itertools import accumulate, chain, count, islice
from operator import ne

from ..convex import convex_edges_cross, nesting_crossing
from ..errors import DegenerateEdge, IndexOutOfRange, InputError
from ..geometry import height_ranks, segments_cross
from ..host import Embedding
from ..ugraph import adjacent

Segment = tuple[int, int]
WITNESS_CAP = 20  # most `Crossing` witnesses that one report lists


@dataclass
class ValidationReport:
    status: str  # "ok" | "failed"
    failures: list[tuple[str, tuple]] = field(default_factory=list)
    # crossing tests made: one roof query per listed edge (universal host),
    # or the stack comparisons and, if there is a crossing, one roof query
    # per listed edge (convex hosts)
    checked: int = 0
    # crossing pairs, a repeated segment once per copy; `failures` lists at
    # most WITNESS_CAP of them
    crossings: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _ends(segments) -> tuple[list[int], list[int]]:
    """The left and the right ends of segments given either way round; a
    segment whose two ends are equal raises DegenerateEdge."""
    lo, hi = [], []
    for u, v in segments:
        if u > v:
            u, v = v, u
        elif u == v:
            raise DegenerateEdge(f"edge ({u}, {v}) joins a vertex to itself")
        lo.append(u)
        hi.append(v)
    return lo, hi


def _listed(pairs, lo, hi) -> list[tuple[str, tuple]]:
    """At most WITNESS_CAP `Crossing` failures on (lo, hi) forms for the
    pairs of segment indices, in the pairwise scan's order: by the smaller
    segment, its index, then the other segment."""
    found = []
    for s, t in pairs:
        a, b = (lo[s], hi[s]), (lo[t], hi[t])
        found.append((a, s, b) if a < b else (b, t, a))
    found.sort()
    return [("Crossing", (a, b)) for a, _, b in found[:WITNESS_CAP]]


def _events(rank, lo, hi):
    """The sweep's events, sorted, for the segments (lo[k], hi[k]); the rank
    of each segment's lower end and of its roof; and B, the bits of an event
    that name a segment or a roof.  `rank` reads an endpoint's rank as
    rank[v], an int >= 0: smaller is higher, and two endpoints share a rank
    only if the higher one is no roof and no roof lies between them.

    Each event is one int: x, then the phase (0 a roof leaves, 1 a query at
    the higher x of its segment, 2 a query at the lower x, 3 a roof
    enters), then a query's segment or a roof's rank, which a roof event
    needs alone: it counts one segment in or out.  One C `list.sort` thus
    puts the events in sweep order, queries at one x in the order their
    segments are listed.  A segment that spans no other endpoint, one
    between two consecutive xs, is never live at a query, so it makes its
    query event only."""
    m = len(lo)
    xs = sorted(set(lo).union(hi))
    after = dict(zip(xs, islice(xs, 1, None)))  # the next endpoint to the right
    del xs
    # table lookups in C-level passes first: on large inputs they miss the
    # cache, and these passes wait on several misses at once
    far = list(map(ne, map(after.__getitem__, lo), hi))
    del after
    # the ranks of the left and right ends, made those of the lower end and
    # the roof in place
    low, roof = list(map(rank.__getitem__, lo)), list(map(rank.__getitem__, hi))
    B = max(m, max(low, default=0), max(roof, default=0)).bit_length()
    S = B + 2
    events: list[int] = []
    for k, a, b, ra, rb, f in zip(count(), lo, hi, low, roof, far):
        if ra > rb:  # a is the lower end
            events.append(a << S | 2 << B | k)
        else:
            low[k], roof[k] = rb, ra
            events.append(b << S | 1 << B | k)
            rb = ra
        if f:
            events.append(b << S | rb)
            events.append(a << S | 3 << B | rb)
    del far
    events.sort()
    return low, roof, events, B


def _live(k, x, lo, hi, low, roof) -> list[tuple[int, int]]:
    """The pairs (s, k) for the segments s live at x, those whose span holds
    x strictly, with a roof strictly between the ranks low[k] and roof[k]."""
    a, b = low[k], roof[k]
    return [(s, k) for s in range(len(lo)) if lo[s] < x < hi[s] and b < roof[s] < a]


def _sweep(keys, lo, hi) -> tuple[int, list[tuple[str, tuple]], int]:
    """The roof sweep over the segments (lo[k], hi[k]), lo[k] < hi[k], on
    the height keys `keys`, the live roofs counted in a Fenwick tree; see
    `roof_crossings`."""
    # An endpoint's slot is 1 plus the number of roofs higher than it, so a
    # roof has its own slot, highest first, and the roofs strictly between a
    # roof and a lower endpoint are those in the slots strictly between
    # theirs.  A roof and an endpoint just above it share a slot, but never
    # a segment: that endpoint would be the segment's roof.
    roofs = {a if keys[a] < keys[b] else b for a, b in zip(lo, hi)}
    size = len(roofs) + 1
    up = sorted(set(lo).union(hi), key=keys.__getitem__)
    slot = dict(zip(up, accumulate(map(roofs.__contains__, up), initial=1)))
    del roofs, up
    low, roof, events, B = _events(slot, lo, hi)
    del slot
    mask = (1 << B) - 1
    tree = [0] * size
    pairs: list[tuple[int, int]] = []
    total = 0
    for e in events:
        k, phase = e & mask, e >> B & 3
        if phase == 3:  # the roof in slot k enters
            while k < size:
                tree[k] += 1
                k += k & -k
            continue
        if phase == 0:  # the roof in slot k leaves
            while k < size:
                tree[k] -= 1
                k += k & -k
            continue
        # the live roofs strictly between slots a and b: the sums up to b - 1
        # and up to a meet where they agree
        a, b, c = roof[k], low[k] - 1, 0
        while b > a:
            c += tree[b]
            b &= b - 1
        while a > b:
            c -= tree[a]
            a &= a - 1
        if c:
            total += c
            if len(pairs) < WITNESS_CAP:
                pairs += _live(k, e >> B + 2, lo, hi, low, roof)
    return total, _listed(pairs, lo, hi), len(lo)


def _list_sweep(keys, lo, hi) -> tuple[int, list[tuple[str, tuple]], int]:
    """The roof sweep over host edges (lo[k], hi[k]), lo[k] < hi[k], on the
    universal host's height keys `keys`, the live roofs kept as a sorted
    list of their distinct keys; see `_crossing_rules`."""
    low, roof, events, B = _events(keys, lo, hi)
    mask = (1 << B) - 1
    # the distinct keys of the live roofs, highest first, then a key lower
    # than every roof, so each query makes one bisection when it counts none
    live: list[int] = [1 << B]
    held: dict[int, int] = {}  # the live segments with each key as roof
    pairs: list[tuple[int, int]] = []
    total = 0
    for e in events:
        k, phase = e & mask, e >> B & 3
        if phase == 3:  # a segment with roof key k enters
            if k in held:
                held[k] += 1
            else:
                held[k] = 1
                insort(live, k)
            continue
        if phase == 0:  # a segment with roof key k leaves
            c = held[k] - 1
            if c:
                held[k] = c
            else:
                del held[k]
                del live[bisect_left(live, k)]
            continue
        # the live roofs lower than roof(k) and higher than its lower end
        i = bisect_right(live, roof[k])
        if live[i] < low[k]:
            j = bisect_left(live, low[k], i)
            total += sum(map(held.__getitem__, islice(live, i, j)))
            if len(pairs) < WITNESS_CAP:
                pairs += _live(k, e >> B + 2, lo, hi, low, roof)
    return total, _listed(pairs, lo, hi), len(lo)


def roof_crossings(h: int | None, segments,
                   keys=None) -> tuple[int, list[tuple[str, tuple]], int]:
    """The roof sweep over host segments: the number of crossing pairs, at
    most WITNESS_CAP of them as `Crossing` failures, and the number of roof
    queries made, one per listed segment.

    The query at the lower end e of a segment t asks the roof rule of every
    segment s live at e at once: the roofs of the live segments, those whose
    x-span holds e strictly, are counted in a Fenwick tree with a slot per
    distinct roof, highest first, so the sweep keeps no order of segments
    and takes O(m log m) time on every input, however many roofs are live
    at once.  The events are ints that sort into sweep order: at each x the
    segments ending at x leave; then each segment t whose lower end is x
    counts the live roofs strictly between x and roof(t), those ending at x
    first; then the segments starting at x enter.  A segment between two
    consecutive xs is never live at a query, so it makes its query event
    only.  Each listed segment is its own, with its own query and roof
    events.  No pair meets the rule both ways round, so the sum of the
    queries is the exact number of crossing pairs, a repeated segment
    counted once per copy.  While fewer than WITNESS_CAP pairs are known, a
    query that counts any scans the segments for the live ones it counted.
    The witnesses are listed as by the pairwise scan and cut at WITNESS_CAP,
    so a count up to WITNESS_CAP lists every pair.  This Fenwick sweep also
    counts on convex hosts, and it is the oracle for the universal host's
    list sweep (see `_crossing_rules`).

    `keys` is a table of height keys covering every endpoint, read as
    keys[v]; without it the sweep builds one, from the height h.  On a
    convex host pass keys[v] = -v and no height.  Without either,
    InputError.  Segments may be given either way round; one whose two
    ends are equal raises DegenerateEdge.
    """
    lo, hi = _ends(segments)
    if keys is None:
        if h is None:
            raise InputError("roof_crossings needs the height keys when no height is given")
        keys = height_ranks(h, set(lo).union(hi))
    return _sweep(keys, lo, hi)


def _crossing_rules(host, endpoints):
    """The edge test and the crossing counter for segments on the given host
    vertices.  The edge test is unchecked: it takes two distinct vertices of
    the host.  The counter takes the segments' ends as two flat lists, lo[k]
    < hi[k], one segment per listed edge, and it runs only once the edge
    test has passed every segment.  On the universal host both read one
    table of height keys, built here once, and the counter is the list
    sweep: the segments are host edges, so at most 5h distinct roofs are
    live at any x, and a sorted list of their keys stays short.  On convex
    hosts the edge test is the host's own `joins`; the nesting walk looks
    for a crossing, and only when it finds one does the Fenwick sweep count
    on the keys -v of the segments' ends, since there every chord can be
    live at once."""
    if host.kind == "universal":
        h, keys = host.h, height_ranks(host.h, endpoints)

        def is_edge(u: int, v: int) -> bool:
            # `key_location` of both keys, inlined: this runs once per edge
            ku, kv = keys[u], keys[v]
            lu, lv = -(-ku >> h), -(-kv >> h)
            return adjacent(lu, (lu << h) - ku, lv, (lv << h) - kv)

        return is_edge, partial(_list_sweep, keys)

    def crossings(lo, hi):
        pair, checked = nesting_crossing(zip(lo, hi))
        if pair is None:
            return 0, [], checked
        count, witnesses, queries = _sweep({v: -v for v in chain(lo, hi)}, lo, hi)
        return count, witnesses, checked + queries

    return host.joins, crossings


def pairwise_crossings(host, segments: list[Segment]) -> tuple[list[tuple[str, tuple]], int]:
    """Every crossing pair as a `Crossing` failure, and the number of
    predicate calls made: the quadratic oracle for the detectors and the
    roof lister.  Segments may be given either way round, and each is
    listed as (lo, hi).  It decides a pair by `segments_cross` on the
    universal host and by `convex_edges_cross`, which reads no height keys,
    on convex hosts.  An end off the host raises IndexOutOfRange, and a
    segment whose two ends are equal DegenerateEdge.  A test oracle:
    nothing in the package calls it."""
    ends = {v for s in segments for v in s}
    off = [v for v in ends if not 0 <= v < host.n]
    if off:
        raise IndexOutOfRange(f"segment end index {min(off)} not in [0, {host.n})")
    cross = (partial(segments_cross, height_ranks(host.h, ends))
             if host.kind == "universal" else partial(convex_edges_cross, host.n))
    failures: list[tuple[str, tuple]] = []
    checked = 0
    # Sorted (lo, hi) segments cross only if the second starts strictly
    # inside the first: their x-ranges overlap, or their ends interleave.
    segments = sorted(zip(*_ends(segments)))
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
    input edge on a host edge, no two mapped segments crossing.  The graph
    is read as `graph.n` and `graph.edges` alone: an input graph, or any
    object with those two fields, whose edges, a list, may repeat."""
    n_in, in_edges = graph.n, graph.edges
    # an input edge that is a loop or leaves [0, n_in) fails before any host test
    failures: list[tuple[str, tuple]] = [
        ("DegenerateEdge" if 0 <= u == v < n_in else "IndexOutOfRange", (u, v))
        for u, v in in_edges if not (0 <= u < n_in and 0 <= v < n_in and u != v)]
    if failures:
        return ValidationReport("failed", failures)
    mp = emb.mapping
    image = list(map(mp.get, range(n_in)))

    # reports keep their precedence: missing and extra keys, the four
    # smallest of each, then images off the host, then repeated images;
    # each is looked for only if the one pass of C-level checks below says
    # there is one
    missing = [t for t, g in enumerate(image) if g is None] if None in image else []
    if missing:
        failures.append(("SizeMismatch", tuple(missing[:4])))
    # every key in [0, n_in) was met above, so extra keys exist iff mp is larger
    if len(mp) > n_in - len(missing):
        extra = nsmallest(4, (t for t in mp if not 0 <= t < n_in))
        failures.append(("SizeMismatch", tuple((t, mp[t]) for t in extra)))
    if failures:
        return ValidationReport("failed", failures)
    host_n = host.n
    if image and not 0 <= min(image) <= max(image) < host_n:
        off = [(t, g) for t, g in enumerate(image) if not 0 <= g < host_n]
        return ValidationReport("failed", [("SizeMismatch", tuple(off[:4]))])
    if len(set(image)) < n_in:  # a table sized by the input, not the host
        by_image: dict[int, int] = {}
        return ValidationReport("failed", [
            ("NotInjective", (by_image[g], t, g)) for t, g in enumerate(image)
            if by_image.setdefault(g, t) != t])

    # every image is on the host, no two are equal and no edge is a loop, so
    # each pair below is two distinct host vertices: the unchecked rule
    is_edge, crossings = _crossing_rules(host, image)
    lo: list[int] = []
    hi: list[int] = []
    for u, v in in_edges:
        a, b = image[u], image[v]
        if not is_edge(a, b):
            failures.append(("MissingEdge", ((u, v), (a, b))))
        if a < b:
            lo.append(a)
            hi.append(b)
        else:
            lo.append(b)
            hi.append(a)
    if failures:
        return ValidationReport("failed", failures)
    del image  # the sweep's tables take its place

    count, failures, checked = crossings(lo, hi)
    return ValidationReport("failed" if count else "ok", failures, checked, count)
