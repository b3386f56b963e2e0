"""Embedding validator: injectivity, edge membership, crossing-freeness.

Crossings are found with O(m log m) comparisons: a Shamos-Hoey sweep on the
universal host, a parenthesis-nesting walk on convex hosts.  On the universal
host the edge test and the sweep read one table of height keys, sized by the
input and built in one walk of the index tree, and the sweep's status is a
list of sorted blocks of about sqrt(m) segments, so its updates move
O(m sqrt(m)) pointers in all.
Only when a detector finds a crossing does the pairwise scan run, to list
every witness.

Failures are data, not exceptions; every failure carries a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from math import isqrt
from operator import itemgetter

from .. import btree
from ..btree import BTreeShape, key_location
from ..convex import ChordedCycle, convex_edges_cross, nesting_crossing
from ..embedder import Embedding
from ..errors import InternalInvariantBroken
from ..geometry import height_ranks, segments_cross
from ..trees import Caterpillar, Forest
from ..ugraph import adjacent

Segment = tuple[int, int]


@dataclass
class ValidationReport:
    status: str  # "ok" | "failed"
    failures: list[tuple[str, tuple]] = field(default_factory=list)
    # segment pairs compared: pairs made adjacent in the sweep status,
    # chord pairs compared on the nesting stack, pairs the pairwise scan tests
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


class _Status:
    """The sweep status, segments bottom to top, as a list of sorted blocks.

    Only a lone block may be empty, and a block that outgrows 2 * load is
    split into blocks of load, so there are O(m / load) blocks.  With load
    about sqrt(m), an update moves O(sqrt(m)) pointers plus the length of
    the run it inserts or deletes, where one flat list moves O(m); `shifted`
    counts the pointers moved.  Blocks are searched by their first segments,
    then one block is searched inside.
    """

    def __init__(self, m: int):
        self.load = max(32, isqrt(m))
        self.blocks: list[list[Segment]] = [[]]
        self.shifted = 0

    def splice(self, keys, x: int, k: int, run: list[Segment]):
        """At point x, take out the k segments that follow the segments
        below x and put `run` in their place.  Returns the segments taken
        out, and the segments just below and just above `run` (or None)."""
        blocks, kx = self.blocks, keys[x]
        # The last block whose first segment is below x (else block 0),
        # then the first segment in it that is not below x.
        lo, hi = 1, len(blocks)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = blocks[mid][0]
            if kx < keys[a] and kx < keys[b]:
                lo = mid + 1
            else:
                hi = mid
        j = lo - 1
        block = blocks[j]
        lo = 0
        size = hi = len(block)
        while lo < hi:
            mid = (lo + hi) // 2
            a, b = block[mid]
            if kx < keys[a] and kx < keys[b]:
                lo = mid + 1
            else:
                hi = mid
        off, cut = lo, lo + k
        lower = block[off - 1] if off else blocks[j - 1][-1] if j else None
        taken = block[off:cut]
        if cut > size:  # the run goes on into the next blocks
            cut = size
            while len(taken) < k and j + 1 < len(blocks):
                nxt, rest = blocks[j + 1], k - len(taken)
                taken += nxt[:rest]
                if rest < len(nxt):
                    del nxt[:rest]
                    self.shifted += len(nxt)
                else:
                    del blocks[j + 1]
                    self.shifted += len(blocks) - j - 1
        grow = len(run) - (cut - off)
        if grow:
            self.shifted += size - cut
            size += grow
        block[off:cut] = run
        end = off + len(run)
        upper = block[end] if end < size else blocks[j + 1][0] if j + 1 < len(blocks) else None
        if not size and len(blocks) > 1:
            del blocks[j]
            self.shifted += len(blocks) - j
        elif size > 2 * self.load:
            load = self.load
            blocks[j:j + 1] = [block[i:i + load] for i in range(0, size, load)]
            self.shifted += size + len(blocks) - j
        return taken, lower, upper


def _fan(keys, x: int, fan: list[Segment]) -> list[Segment]:
    """Segments (x, b), sorted by b, reordered bottom to top just right of x:
    first those whose b is lower than x, by b, then the rest from the lowest
    b up."""
    kx = keys[x]
    return ([s for s in fan if keys[s[1]] > kx]
            + sorted((s for s in fan if keys[s[1]] < kx), key=lambda s: keys[s[1]], reverse=True))


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


def sweep_crossing(shape: BTreeShape, segments,
                   keys=None) -> tuple[tuple[Segment, Segment] | None, int]:
    """Shamos-Hoey sweep over host segments: a crossing pair or None, and
    the number of segment pairs made adjacent in the status.

    Every host vertex has its own x, so the events are vertex indices, and
    all events at one x are handled together.  One search finds point x in
    the blocked status.  The segments ending at x lie right above the
    segments below x; they leave as one run, and the segments starting at x
    enter in their place as one run, sorted by `_fan`.  Segments sharing x
    never cross, so of the pairs an event makes adjacent only the one or two
    at the run's ends go to the crossing predicate.
    The leftmost crossing pair is adjacent before the sweep passes it, and
    until then the status order is consistent, so stopping at the first
    crossing keeps every comparison sound.  An event costs O(log m)
    comparisons plus the sorting of its runs, and O(sqrt(m)) pointer moves
    plus the runs' lengths, so a sweep makes O(m log m) comparisons and
    O(m sqrt(m)) pointer moves on every input.

    `keys` is a table of height keys covering every endpoint, read as
    keys[v]; without it the sweep builds one.
    """
    segs = sorted({(u, v) if u < v else (v, u) for u, v in segments})
    if not segs:
        return None, 0
    if keys is None:
        keys = _height_table(shape, {v for s in segs for v in s})
    starts = {a: list(g) for a, g in groupby(segs, itemgetter(0))}
    ends = {b: list(g) for b, g in groupby(sorted(segs, key=itemgetter(1)), itemgetter(1))}
    status = _Status(len(segs))
    checked = 0
    for x in sorted(starts.keys() | ends.keys()):
        gone = ends.get(x, [])
        run = starts.get(x, [])
        if len(run) > 1:
            run = _fan(keys, x, run)
        taken, lower, upper = status.splice(keys, x, len(gone), run)
        checked += max(len(run) - 1, 0)  # pairs in the run share x
        if taken != gone and sorted(taken) != gone:
            raise InternalInvariantBroken(f"segments ending at {x} lost from the sweep status")
        for s, t in ((lower, run[0]), (run[-1], upper)) if run else ((lower, upper),):
            if s is not None and t is not None:
                checked += 1
                if segments_cross(keys, s, t):
                    return (s, t), checked
    return None, checked


def _crossing_rules(host, endpoints):
    """The edge test, the fast crossing detector and the pairwise crossing
    predicate for segments on the given host vertices.  On the universal
    host all three read one table of height keys, built here once; every
    other host uses the circle."""
    if host.kind == "universal":
        h, keys = host.shape.h, _height_table(host.shape, endpoints)

        def is_edge(u: int, v: int) -> bool:
            return adjacent(*key_location(h, keys[u]), *key_location(h, keys[v]))

        detect = partial(sweep_crossing, host.shape, keys=keys)
        return is_edge, detect, partial(segments_cross, keys)
    return host.is_edge, nesting_crossing, partial(convex_edges_cross, host.n)


def _pairwise(cross, segments: list[Segment]) -> tuple[list[tuple[str, tuple]], int]:
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


def pairwise_crossings(host, segments: list[Segment]) -> tuple[list[tuple[str, tuple]], int]:
    """Every crossing pair as a `Crossing` failure, and the number of
    predicate calls made.  The quadratic oracle for the two fast detectors;
    segments are (lo, hi) pairs."""
    return _pairwise(_crossing_rules(host, {v for s in segments for v in s})[2], segments)


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

    is_edge, detect, cross = _crossing_rules(host, mp.values())
    mapped: list[Segment] = []
    for u, v in in_edges:
        gu, gv = mp[u], mp[v]
        if not is_edge(gu, gv):
            failures.append(("MissingEdge", ((u, v), (gu, gv))))
        else:
            mapped.append((min(gu, gv), max(gu, gv)))
    if failures:
        return ValidationReport("failed", failures)

    witness, checked = detect(mapped)
    if witness is not None:
        failures, pairs = _pairwise(cross, mapped)
        checked += pairs
    return ValidationReport("failed" if failures else "ok", failures, checked)
