"""Convex-position hosts: the doubling-sequence caterpillar host and the
square-root-star two-chord host, with their embedding algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .embedder import Embedding
from .errors import (
    DegenerateEdge,
    InvalidSize,
    MalformedInput,
    NoRealizingPair,
    NotTwoChord,
    SizeMismatch,
)
from .trees import Caterpillar


def pi_sequence(n: int) -> list[int]:
    """First n terms of the doubling sequence: start with (1); each stage
    glues two copies of the previous stage around the new stage's length.

    Stage of length m = 2^h - 1 reads previous + (m) + previous, so every
    window of x consecutive terms contains a term >= x.
    """
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    m = 1
    while m < n:
        m = 2 * m + 1
    seq = [1]
    size = 1
    while size < m:
        seq = seq + [2 * size + 1] + seq
        size = 2 * size + 1
    return seq[:n]


def has_window_property(terms: list[int]) -> bool:
    """True iff for every x, every x consecutive terms contain a term >= x.

    Equivalent run form: for each threshold x, every maximal run of terms
    < x is shorter than x.  Runs only change at distinct term values, so
    it suffices to check, for each distinct value v (and x = previous
    distinct value + 1), that runs of terms < x have length <= x - 1.
    """
    n = len(terms)
    if n == 0:
        return True
    values = sorted(set(terms))
    thresholds = [1] + [v + 1 for v in values if v + 1 <= n]
    for x in thresholds:
        run = 0
        for t in terms:
            if t >= x:
                run = 0
            else:
                run += 1
                if run >= x:
                    return False
    return True


@dataclass(frozen=True)
class ConvexHost:
    """Host graph on n vertices in counterclockwise convex position."""

    kind: str  # caterpillar-host | twochord-host | complete | custom
    n: int
    edges: frozenset[tuple[int, int]]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def edge_count(self) -> int:
        return len(self.edges)

    def has_spanning_cycle(self) -> bool:
        if self.n < 3:
            return False
        return all(self.has_edge(i, (i + 1) % self.n) for i in range(self.n))


def build_caterpillar_host(n: int) -> ConvexHost:
    """Each vertex i reaches the pi(i) vertices before and after it on the
    circle; the pair rule is symmetric, so {i,j} is an edge iff the circular
    distance is <= max(pi(i), pi(j))."""
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    pi = pi_sequence(n)
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        for d in range(1, pi[i] + 1):
            for j in ((i - d) % n, (i + d) % n):
                if j != i:
                    edges.add((min(i, j), max(i, j)))
    return ConvexHost("caterpillar-host", n, frozenset(edges))


def embed_caterpillar(host: ConvexHost, cat: Caterpillar) -> Embedding:
    """Successive stars take consecutive blocks; each spine vertex sits on
    its block's maximum-sequence-value position (ties toward the smallest
    index), which reaches the whole block and the neighboring spine image."""
    if cat.n != host.n:
        raise SizeMismatch(f"caterpillar has {cat.n} vertices, host has {host.n}")
    pi = pi_sequence(host.n)
    mapping: dict[int, int] = {}
    off = 0
    for u, leaves in zip(cat.spine, cat.leaves):
        block = range(off, off + 1 + len(leaves))
        best = max(block, key=lambda i: (pi[i], -i))
        mapping[u] = best
        rest = (i for i in block if i != best)
        for leaf, pos in zip(leaves, rest):
            mapping[leaf] = pos
        off += 1 + len(leaves)
    return Embedding(host.n, mapping, [("caterpillar", (0, host.n - 1))])


def twochord_centers(n: int) -> list[int]:
    """Star centers: the first floor(sqrt(n)) indices plus every multiple of
    floor(sqrt(n)) up to n, taken mod n (perfect squares wrap to 0)."""
    if n < 3:
        raise InvalidSize(f"n must be >= 3, got {n}")
    r = isqrt(n)
    centers = set(range(r)) | {(i * r) % n for i in range(1, r + 1)}
    return sorted(centers)


def build_twochord_host(n: int) -> ConvexHost:
    """Spanning cycle plus a full star at every center index."""
    centers = twochord_centers(n)
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        edges.add((min(i, (i + 1) % n), max(i, (i + 1) % n)))
    for s in centers:
        for j in range(n):
            if j != s:
                edges.add((min(s, j), max(s, j)))
    return ConvexHost("twochord-host", n, frozenset(edges))


@dataclass(frozen=True)
class ChordedCycle:
    """Labeled spanning cycle w_0..w_{n-1} plus vertex-disjoint,
    noninterleaving chords."""

    n: int
    chords: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n
        if n < 3:
            raise MalformedInput(f"cycle needs >= 3 vertices, got {n}")
        norm = []
        seen: set[int] = set()
        for u, v in self.chords:
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInput(f"chord endpoint outside [0, {n})")
            if u == v:
                raise DegenerateEdge(f"chord ({u},{v}) is a loop")
            d = min((u - v) % n, (v - u) % n)
            if d < 2:
                raise MalformedInput(f"chord ({u},{v}) is a cycle edge")
            if u in seen or v in seen:
                raise MalformedInput(f"chord ({u},{v}) shares a vertex with another chord")
            seen.update((u, v))
            norm.append((min(u, v), max(u, v)))
        object.__setattr__(self, "chords", tuple(sorted(norm)))
        if n < 2 * self.h + 2:
            raise MalformedInput(f"{self.h} disjoint chords need >= {2 * self.h + 2} vertices")
        pair, _ = nesting_crossing(norm)
        if pair is not None:
            raise MalformedInput(f"chords {pair[0]} and {pair[1]} interleave")

    @property
    def h(self) -> int:
        return len(self.chords)

    def edges(self) -> list[tuple[int, int]]:
        out = [(min(i, (i + 1) % self.n), max(i, (i + 1) % self.n))
               for i in range(self.n)]
        out.extend(self.chords)
        return out


def convex_edges_cross(n: int, e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """Chords of a convex polygon cross iff their endpoints interleave:
    exactly one endpoint of e2 falls in the open arc between e1's ends."""
    a, b = e1[0] % n, e1[1] % n
    c, d = e2[0] % n, e2[1] % n
    if a == b or c == d:
        raise DegenerateEdge(f"edge with equal endpoints: {e1} or {e2}")
    if {a, b} & {c, d}:
        return False
    span = (b - a) % n
    in1 = 0 < (c - a) % n < span
    in2 = 0 < (d - a) % n < span
    return in1 != in2


def nesting_crossing(chords) -> tuple[tuple[tuple[int, int], tuple[int, int]] | None, int]:
    """A crossing pair among chords of the convex n-gon on 0..n-1, or None,
    and the number of stack comparisons made.

    Chords (a, b) and (c, d), read as a < b and c < d with a <= c, cross iff
    a < c < b < d; chords sharing an endpoint never cross.  So the chords are
    crossing-free iff, taken by (lo, -hi), they nest like parentheses: pop
    every open chord that ends by lo, then the innermost open one must not
    end before hi.
    """
    open_: list[tuple[int, int]] = []
    checked = 0
    norm = {(u, v) if u < v else (v, u) for u, v in chords}
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


def _gaps(cc: ChordedCycle) -> list[tuple[int, int, int]]:
    """The two arcs between the chords of a two-chord cycle, as
    (length, start endpoint, end endpoint) with the arc running
    counterclockwise from start to end."""
    n = cc.n
    pts = sorted({p for ch in cc.chords for p in ch})
    chord_of = {}
    for idx, ch in enumerate(cc.chords):
        for p in ch:
            chord_of[p] = idx
    out = []
    for i in range(4):
        e, f = pts[i], pts[(i + 1) % 4]
        if chord_of[e] != chord_of[f]:
            out.append(((f - e) % n, e, f))
    return out


def embed_twochord(host: ConvexHost, cc: ChordedCycle) -> Embedding:
    """Rotate the input cycle so the shorter gap between the two chords
    starts at a star center a and ends at a star center b with b - a equal
    to the gap length; both chords then ride on star edges."""
    if cc.h != 2:
        raise NotTwoChord(f"expected exactly 2 chords, got {cc.h}")
    if cc.n != host.n:
        raise SizeMismatch(f"cycle has {cc.n} vertices, host has {host.n}")
    n = cc.n
    gaps = _gaps(cc)
    if len(gaps) != 2:
        raise NotTwoChord("chords do not leave exactly two arcs between them")
    d, e, _ = min(gaps, key=lambda g: (g[0], g[1]))
    centers = twochord_centers(n)
    pair = next(((a, b) for a in centers for b in centers if b - a == d), None)
    if pair is None:
        raise NoRealizingPair(f"no center pair at distance {d} for n={n}")
    a, _ = pair
    shift = (a - e) % n
    mapping = {t: (t + shift) % n for t in range(n)}
    return Embedding(host.n, mapping, [("twochord", (0, n - 1))])


def build_complete_host(n: int) -> ConvexHost:
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    return ConvexHost("complete", n, edges)


def build_cycle_host(n: int) -> ConvexHost:
    if n < 3:
        raise InvalidSize(f"n must be >= 3, got {n}")
    edges = frozenset((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))
    return ConvexHost("custom", n, edges)
