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
segment's index and a roof event its roof's Fenwick slot.  One C
`list.sort` thus puts the events in sweep order, queries at one x in the
order their segments first appear, and the loop keeps no cursor per x into
lists sorted by start and by end.
`validate_embedding` reads the mapping once into an image list, checks
injectivity with a set of the images, a table sized by the input and never
by the host, and hands the sweep flat lists of segment ends.

Failures are data, not exceptions; every failure carries a witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, count, groupby, islice, repeat
from operator import add, itemgetter, mul, ne

from ..convex import ChordedCycle, convex_edges_cross, nesting_crossing
from ..geometry import height_ranks, segments_cross
from ..host import Embedding
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


def _input_shape(graph) -> tuple[int, list[tuple[int, int]], bool]:
    """The input's n, its edges, and whether they are known to be distinct:
    a `Forest` refuses a repeated edge, and the vertices of a `Caterpillar`
    and the chords of a `ChordedCycle` are distinct, so their edges are."""
    if isinstance(graph, Forest):
        return graph.n, list(graph.edges), True
    if isinstance(graph, (Caterpillar, ChordedCycle)):
        return graph.n, graph.edges(), True
    n, edges = graph
    return n, list(edges), False


def _listed(pairs, lo, hi, times):
    """`Crossing` failures in the pairwise scan's order on (lo, hi) forms,
    each pair of segment indices once per copy of each of its two segments."""
    seg = {k: (lo[k], hi[k]) for p in pairs for k in p}
    copies = {seg[k]: times[k] for k in seg}
    found = sorted(tuple(sorted((seg[s], seg[t]))) for s, t in pairs)
    for first, group in groupby(found, itemgetter(0)):
        group = list(group)
        for _ in range(copies[first]):
            for p in group:
                yield from repeat(("Crossing", p), copies[p[1]])


def _sweep(keys, us, vs, distinct: bool = False) -> tuple[int, list[tuple[str, tuple]], int]:
    """The roof sweep over the segments with ends us[k] != vs[k], on the
    height keys `keys`; see `roof_crossings`.  `distinct` says that no
    segment is listed twice, which spares the count of copies."""
    lo = [a if a < b else b for a, b in zip(us, vs)]
    hi = [b if a < b else a for a, b in zip(us, vs)]
    if distinct:
        times = [1] * len(lo)
    else:
        # the distinct segments in the order they first appear, each named
        # by its index, with its number of copies
        width = max(hi, default=0) + 1
        copies = Counter(map(add, map(mul, lo, repeat(width)), hi))
        times = list(copies.values())
        if len(times) < len(lo):
            lo, hi = [c // width for c in copies], [c % width for c in copies]
        del copies
    m = len(times)
    xs = sorted(set(lo).union(hi))
    after = dict(zip(xs, xs[1:]))  # the next endpoint to the right
    # A vertex's slot counts the roofs not higher than it, so a roof has its
    # own slot, and the roofs strictly between x and a higher roof y are
    # those in the slots strictly between slot[x] and slot[y].  The lowest
    # endpoint is no roof, so every count is an int from the first add on.
    roofs = {a if keys[a] < keys[b] else b for a, b in zip(lo, hi)}
    xs.sort(key=keys.__getitem__, reverse=True)
    slot = dict(zip(xs, accumulate(map(roofs.__contains__, xs))))
    size = len(roofs) + 1
    del xs, roofs
    # Events in sweep order, each one int: x, then the phase (0 a roof
    # leaves, 1 a query at the higher x of its segment, 2 a query at the
    # lower x, 3 a roof enters), then a query's segment or a roof's slot,
    # which a roof event needs alone: it counts one copy in or out, so a
    # repeated segment has one pair of roof events per copy.  A segment
    # between two consecutive xs is never live at a query, so it makes its
    # query event only.
    B = max(m, size).bit_length()
    S = B + 2
    low, roof, events = [0] * m, [0] * m, []
    # table lookups in C-level passes first: on large inputs they miss the
    # cache, and these passes wait on several misses at once
    sa, sb = list(map(slot.__getitem__, lo)), list(map(slot.__getitem__, hi))
    far = list(map(ne, map(after.__getitem__, lo), hi))
    del after, slot
    for k, a, b, ra, rb, f, t in zip(count(), lo, hi, sa, sb, far, times):
        if ra < rb:  # a is the lower end
            low[k], roof[k] = ra, rb
            events.append(a << S | 2 << B | k)
        else:
            low[k], roof[k] = rb, ra
            events.append(b << S | 1 << B | k)
            rb = ra
        if f and t == 1:
            events.append(b << S | rb)
            events.append(a << S | 3 << B | rb)
        elif f:
            events += [b << S | rb, a << S | 3 << B | rb] * t
    del sa, sb, far
    events.sort()
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
        a, b, c = low[k], roof[k] - 1, 0
        while b > a:
            c += tree[b]
            b &= b - 1
        while a > b:
            c -= tree[a]
            a &= a - 1
        if c:
            total += c * times[k]
            if len(pairs) < WITNESS_CAP:
                x, a, b = e >> S, low[k], roof[k]
                pairs += [(s, k) for s in range(m)
                          if lo[s] < x < hi[s] and a < roof[s] < b]
    witnesses = list(islice(_listed(pairs, lo, hi, times), WITNESS_CAP)) if pairs else []
    return total, witnesses, m


def roof_crossings(h: int | None, segments,
                   keys=None) -> tuple[int, list[tuple[str, tuple]], int]:
    """The roof sweep over host segments: the number of crossing pairs, at
    most WITNESS_CAP of them as `Crossing` failures, and the number of roof
    queries made, one per distinct segment.

    The query at the lower end e of a segment t asks the roof rule of every
    segment s live at e at once: the roofs of the live segments, those whose
    x-span holds e strictly, are counted in a Fenwick tree with a slot per
    distinct roof, lowest first, so the sweep keeps no order of segments and
    takes O(m log m) time on every input.  The events are ints that sort
    into sweep order: at each x the segments ending at x leave; then each
    segment t whose lower end is x counts the live roofs strictly between x
    and roof(t), those ending at x first; then the segments starting at x
    enter.  A segment between two consecutive xs is never live at a query,
    so it makes its query event only.  No pair meets the rule both ways
    round, so the sum of the queries is the exact number of crossing pairs,
    a repeated segment counted once per copy.  While fewer than WITNESS_CAP
    pairs are known, a query that counts any scans the segments for the
    live ones it counted.  The witnesses are listed as by the pairwise scan
    and cut at WITNESS_CAP, so a count up to WITNESS_CAP lists every pair.

    `keys` is a table of height keys covering every endpoint, read as
    keys[v]; without it the sweep builds one.  On a convex host pass
    keys[v] = -v and no height.
    """
    us, vs = [], []
    for u, v in segments:
        if u != v:
            us.append(u)
            vs.append(v)
    if keys is None:
        keys = height_ranks(h, set(us).union(vs))
    return _sweep(keys, us, vs)


def _crossing_rules(host, endpoints):
    """The edge test and the crossing counter for segments on the given host
    vertices.  The edge test is unchecked: it takes two distinct vertices of
    the host.  The counter takes the segments' ends as two flat lists and
    whether the segments are distinct.  On the universal host both read one
    table of height keys, built here once.  On convex hosts the edge test is
    the host's own `joins`; the nesting walk looks for a crossing, and only
    when it finds one does the roof sweep count on the keys -v of the
    segments' ends."""
    if host.kind == "universal":
        h, keys = host.h, height_ranks(host.h, endpoints)

        def is_edge(u: int, v: int) -> bool:
            # `key_location` of both keys, inlined: this runs once per edge
            ku, kv = keys[u], keys[v]
            lu, lv = -(-ku >> h), -(-kv >> h)
            return adjacent(lu, (lu << h) - ku, lv, (lv << h) - kv)

        return is_edge, partial(_sweep, keys)

    def crossings(us, vs, distinct):
        pair, checked = nesting_crossing(zip(us, vs), distinct)
        if pair is None:
            return 0, [], checked
        count, witnesses, queries = _sweep({v: -v for v in chain(us, vs)}, us, vs, distinct)
        return count, witnesses, checked + queries

    return host.joins, crossings


def pairwise_crossings(host, segments: list[Segment]) -> tuple[list[tuple[str, tuple]], int]:
    """Every crossing pair as a `Crossing` failure, and the number of
    predicate calls made: the quadratic oracle for the detectors and the
    roof lister.  Segments are (lo, hi) pairs.  It decides a pair by
    `segments_cross` on the universal host and by `convex_edges_cross`,
    which reads no height keys, on convex hosts."""
    cross = (partial(segments_cross, height_ranks(host.h, {v for s in segments for v in s}))
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
    n_in, in_edges, distinct = _input_shape(graph)
    # an input edge that is a loop or leaves [0, n_in) fails before any host test
    failures: list[tuple[str, tuple]] = [
        ("DegenerateEdge" if 0 <= u == v < n_in else "IndexOutOfRange", (u, v))
        for u, v in in_edges if not (0 <= u < n_in and 0 <= v < n_in and u != v)]
    if failures:
        return ValidationReport("failed", failures)
    mp = emb.mapping
    image = list(map(mp.get, range(n_in)))

    # reports keep their precedence: missing and extra keys, then images off
    # the host, then repeated images; each is looked for only if the one
    # pass of C-level checks below says there is one
    missing = [t for t, g in enumerate(image) if g is None] if None in image else []
    if missing:
        failures.append(("SizeMismatch", tuple(missing[:4])))
    # every key in [0, n_in) was met above, so extra keys exist iff mp is larger
    if len(mp) > n_in - len(missing):
        extra = sorted(t for t in mp if not 0 <= t < n_in)
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
    gu: list[int] = []
    gv: list[int] = []
    for u, v in in_edges:
        a, b = image[u], image[v]
        if not is_edge(a, b):
            failures.append(("MissingEdge", ((u, v), (a, b))))
        gu.append(a)
        gv.append(b)
    if failures:
        return ValidationReport("failed", failures)

    # distinct input edges under an injective map are distinct segments
    count, failures, checked = crossings(gu, gv, distinct)
    return ValidationReport("failed" if count else "ok", failures, checked, count)
