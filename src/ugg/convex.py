"""Convex-position hosts: the doubling-sequence caterpillar host and the
square-root-star two-chord host, with their embedding algorithms."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from math import isqrt
from operator import itemgetter
from typing import Iterator

from .errors import (
    DegenerateEdge,
    InvalidSize,
    MalformedInput,
    NoRealizingPair,
    NotTwoChord,
    SizeMismatch,
    SizeTooLarge,
)
from .host import Embedding, Host, Provenance
from .trees import Caterpillar

# Most vertices a two-chord host may have.  Its centers, about 2 * sqrt(n)
# ints, are the one part of a built-in host that grows with n, so a larger n
# is refused before any is listed.
TWOCHORD_CAP = 1 << 32


def _reach(i: int) -> int:
    """Term i of the doubling sequence: 2^(v2(i+1)+1) - 1, the ruler sequence."""
    return 2 * ((i + 1) & -(i + 1)) - 1


def pi_sequence(n: int) -> list[int]:
    """First n terms of the doubling sequence: start with (1); each stage
    glues two copies of the previous stage around the new stage's length.

    Stage of length m = 2^h - 1 reads previous + (m) + previous, so every
    window of x consecutive terms contains a term >= x.
    """
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    return [_reach(i) for i in range(n)]


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


class ConvexHost(Host):
    """Host graph on n vertices in counterclockwise convex position."""

    def __init__(self, n: int):
        self.n = n


class _CaterpillarHost(ConvexHost):
    kind = "caterpillar"

    def joins(self, u: int, v: int) -> bool:
        # adjacent iff the circular distance d is at most _reach(u) or
        # _reach(v), and _reach(u) = 2 * lowbit(u + 1) - 1
        d = u - v if u > v else v - u
        if 2 * d > self.n:
            d = self.n - d
        x, y = u + 1, v + 1
        return d < 2 * (x & -x) or d < 2 * (y & -y)

    def ranges(self) -> Iterator[list[tuple[int, int]]]:
        # With l = lowbit(u + 1), u reaches (u, u + 2l - 1] and, across the
        # seam, [u + n - 2l + 1, n).  The vertices of reach 2k - 1 sit at
        # k - 1 (mod 2k); of them only the first after u and the last before
        # n, j_k, can reach back to u, the first always and j_k while
        # u < t_k = 2k - (n - j_k).  `far` holds each such vertex once, as
        # (w, w), sorted, and is edited from one u to the next: u leaves, as
        # its class's first vertex after u - 1, and u + 2l takes its place.
        # A j_k that reaches 0 across the seam starts in `far` and leaves at
        # t_k, or at j_k - 2k if that comes first, where it enters again as
        # its class's first vertex; `ends` lists those exits.
        # u + 2l has reach 2l - 1, so it never reaches u, and the first
        # vertices of the classes k <= l lie in the forward reach, so u's far
        # points are the part of `far` past u + 2l and before the back reach.
        n = self.n
        first, ends = set(), [(n, None)]  # the sentinel ends no vertex
        k = 1
        while k <= n:
            first.add(k - 1)
            j = n - 1 - (n - k) % (2 * k)
            end = min(2 * k - n + j, j - 2 * k)
            if end > 0:
                first.add(j)
                ends.append((end, (j, j)))
            k *= 2
        far = [(w, w) for w in sorted(first)]
        ends.sort(reverse=True)
        for u in range(n - 1):
            del far[0]  # every vertex of far is past u - 1, and u is one
            while ends[-1][0] == u:
                far.remove(ends.pop()[1])
            l2 = 2 * ((u + 1) & -(u + 1))
            w = u + l2  # the next vertex of u's class
            if w < n:
                insort(far, (w, w))
            ahead, behind = min(w - 1, n - 1), u + n - l2 + 1  # behind >= n: none
            if behind <= ahead + 1:  # the two reaches meet
                yield [(u + 1, n - 1)]
                continue
            ranges = [(u + 1, ahead)]
            ranges += far[bisect_right(far, (w, w)):bisect_left(far, (behind,))]
            if behind < n:
                ranges.append((behind, n - 1))
            yield ranges
        yield []

    def edge_count(self) -> int:
        # By circular distance d, with t the largest power of two <= d:
        # pi(i) >= d iff t divides x = i + 1.  Of the n pairs {x, x + d} on
        # the circle, n // t have t | x and n // t have t | x + d; both hold
        # when t divides d (no wrap) or n - d (wrap).  At d = n/2 every pair
        # is met twice.
        n, total = self.n, 0
        for d in range(1, n // 2 + 1):
            t = 1 << (d.bit_length() - 1)
            k = (n - d) // t  # multiples of t up to n - d
            both = (d % t == 0) * k + ((n - d) % t == 0) * (n // t - k)
            total += (2 * (n // t) - both) // (2 if 2 * d == n else 1)
        return total


def build_caterpillar_host(n: int) -> ConvexHost:
    """Each vertex i reaches the pi(i) vertices before and after it on the
    circle; the pair rule is symmetric, so {i,j} is an edge iff the circular
    distance is <= max(pi(i), pi(j))."""
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    return _CaterpillarHost(n)


def _peak(lo: int, hi: int) -> int:
    """The one position of greatest reach in [lo, hi]: the i for which i + 1
    has the most trailing zeros.

    Let a = lo + 1 and b = hi + 1, and let bit t - 1 be the highest at which
    they differ, a's bit 0 and b's bit 1.  Above it they agree, so both lie
    in [p, p + 2^t) for a multiple p of 2^t, the one such multiple there,
    which is at most a.  So i + 1 is a if a's low t bits are zero; else it
    is b with its low t - 1 bits cleared, p + 2^(t-1), the one multiple of
    2^(t-1) in (a, b].  At a = b, t = 0 and i + 1 = a.
    """
    a, b = lo + 1, hi + 1
    t = (a ^ b).bit_length()
    return (a if a & ((1 << t) - 1) == 0 else b >> (t - 1) << (t - 1)) - 1


def embed_caterpillar(host: ConvexHost, cat: Caterpillar) -> Embedding:
    """Successive stars take consecutive blocks; each spine vertex sits on
    its block's position of greatest reach, which is unique (`_peak`) and
    reaches the whole block and the neighboring spine image.  The leaves
    fill the block's other positions in order."""
    if cat.n != host.n:
        raise SizeMismatch(f"caterpillar has {cat.n} vertices, host has {host.n}")
    mapping: dict[int, int] = {}
    off = 0
    for u, leaves in zip(cat.spine, cat.leaves):
        end = off + 1 + len(leaves)
        best = _peak(off, end - 1)
        mapping[u] = best
        pos = off  # the leaves fill [off, best) and then (best, end)
        for leaf in leaves:
            if pos == best:
                pos += 1
            mapping[leaf] = pos
            pos += 1
        off = end
    return Embedding(mapping, Provenance.whole("caterpillar", host.n))


def twochord_centers(n: int) -> list[int]:
    """Star centers: the first floor(sqrt(n)) indices plus every multiple of
    floor(sqrt(n)) up to n, taken mod n (perfect squares wrap to 0)."""
    if n < 3:
        raise InvalidSize(f"n must be >= 3, got {n}")
    if n > TWOCHORD_CAP:
        raise SizeTooLarge(f"two-chord host capped at n <= {TWOCHORD_CAP}, got {n}")
    r = isqrt(n)
    centers = set(range(r)) | {(i * r) % n for i in range(1, r + 1)}
    return sorted(centers)


class _StarHost(ConvexHost):
    """Spanning cycle plus a full star at every center: the two-chord host,
    or the complete host, where every vertex is a center.  `centers` answers
    membership; `runs` lists the same centers once as sorted maximal runs
    (lo, hi)."""

    def __init__(self, kind: str, n: int, centers, runs: tuple[tuple[int, int], ...]):
        super().__init__(n)
        self.kind, self.centers, self.runs = kind, centers, runs

    def joins(self, u: int, v: int) -> bool:
        return (u - v) % self.n in (1, self.n - 1) or u in self.centers or v in self.centers

    def ranges(self) -> Iterator[list[tuple[int, int]]]:
        # A center reaches every vertex after it; 0 is a center, so the seam
        # edge (0, n-1) falls in this case.  Any other u reaches u + 1 and
        # the runs of the centers above u, runs[j:], which are sorted and
        # apart, so the list is in order.
        n, runs, centers = self.n, self.runs, self.centers
        j = 0  # the first run above u; at most one run opens at each u
        for u in range(n):
            if j < len(runs) and runs[j][0] <= u:
                j += 1
            if u in centers:
                yield [(u + 1, n - 1)] if u + 1 < n else []
            elif u + 1 == n or j < len(runs) and runs[j][0] == u + 1:
                yield list(runs[j:])
            else:
                yield [(u + 1, u + 1), *runs[j:]]

    def edge_count(self) -> int:
        # Pairs touching a center, plus the n cycle edges less those that do.
        # A cycle edge joins two centers inside a run, or across the seam.
        n, runs = self.n, self.runs
        c = sum(hi - lo + 1 for lo, hi in runs)
        inner = c - len(runs) + (runs[0][0] == 0 and runs[-1][1] == n - 1)
        touching = 2 * c - inner
        return n * (n - 1) // 2 - (n - c) * (n - c - 1) // 2 + n - touching


def build_twochord_host(n: int) -> ConvexHost:
    """Spanning cycle plus a full star at every center index."""
    centers = twochord_centers(n)
    runs = []
    for c in centers:  # sorted, so each center extends the last run or opens one
        if runs and runs[-1][1] == c - 1:
            runs[-1] = (runs[-1][0], c)
        else:
            runs.append((c, c))
    return _StarHost("twochord", n, frozenset(centers), tuple(runs))


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

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The cycle edges (i, i + 1), then (0, n - 1), then the chords."""
        n = self.n
        out = list(zip(range(n - 1), range(1, n)))
        out.append((0, n - 1))
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
    """A crossing pair among chords of the convex n-gon on 0..n-1, given in
    either orientation, or None, and the number of stack comparisons made.
    Each listed chord is walked, a repeated one once per copy.

    Chords (a, b) and (c, d), read as a < b and c < d with a <= c, cross iff
    a < c < b < d; chords sharing an endpoint never cross.  So the chords are
    crossing-free iff, taken by (lo, -hi), they nest like parentheses: pop
    every open chord that ends by lo, then the innermost open one must not
    end before hi.  That order comes from two stable sorts in C, by hi
    descending and then by lo; it ties only copies of one chord, which nest
    in one another and cross nothing the first copy does not.
    """
    open_: list[tuple[int, int]] = []
    checked = 0
    order = [(u, v) if u < v else (v, u) for u, v in chords]
    order.sort(key=itemgetter(1), reverse=True)
    order.sort(key=itemgetter(0))
    for lo, hi in order:
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


def embed_twochord(host: ConvexHost, cc: ChordedCycle) -> Embedding:
    """Rotate the input cycle so the shorter gap between the two chords
    starts at a star center x and ends at a star center x + gap, where gap
    is its length; both chords then ride on star edges.  The host is a star
    host, two-chord or complete, and x is its first center, in the order of
    `host.runs`, with x + gap in `host.centers`."""
    if cc.h != 2:
        raise NotTwoChord(f"expected exactly 2 chords, got {cc.h}")
    if cc.n != host.n:
        raise SizeMismatch(f"cycle has {cc.n} vertices, host has {host.n}")
    n = cc.n
    # the chords, sorted and crossing-free, lie side by side (b < c) or
    # nested; each arc between them is (length, start) counterclockwise
    (a, b), (c, d) = cc.chords
    if b < c:
        gap, e = min((c - b, b), (n - d + a, d))
    else:
        gap, e = min((c - a, a), (b - d, d))
    centers = host.centers
    x = next((x for lo, hi in host.runs for x in range(lo, hi + 1) if x + gap in centers), None)
    if x is None:
        raise NoRealizingPair(f"no center pair at distance {gap} for n={n}")
    shift = (x - e) % n
    mapping = {t: (t + shift) % n for t in range(n)}
    return Embedding(mapping, Provenance.whole("twochord", n))


class _CustomHost(ConvexHost):
    """The one host that keeps an explicit edge set."""

    kind = "custom"

    def __init__(self, n: int, edges):
        super().__init__(n)
        self._edges = frozenset((min(u, v), max(u, v)) for u, v in edges)
        self._later: dict[int, list[tuple[int, int]]] = {}
        for u, w in sorted(self._edges):  # so each list is in order
            self._later.setdefault(u, []).append((w, w))

    def joins(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edges

    def ranges(self) -> Iterator[list[tuple[int, int]]]:
        return (self._later.get(u, []) for u in range(self.n))

    def edge_count(self) -> int:
        return len(self._edges)


def build_complete_host(n: int) -> ConvexHost:
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    return _StarHost("complete", n, range(n), ((0, n - 1),))


def build_custom_host(n: int, edges) -> ConvexHost:
    """A convex host with the given edges, each a pair of distinct vertices."""
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise MalformedInput(f"bad edge ({u}, {v})")
    return _CustomHost(n, edges)


def build_cycle_host(n: int) -> ConvexHost:
    if n < 3:
        raise InvalidSize(f"n must be >= 3, got {n}")
    return _CustomHost(n, ((i, (i + 1) % n) for i in range(n)))
