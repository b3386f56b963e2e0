"""Crossing decisions for host edges, combinatorially and on exact coordinates.

Host vertices sit at x = index, and y follows the height order: higher in the
tree order means larger y.  Whether two host edges cross is decided purely
from the height ranks of their four endpoints (`segments_cross`; `edges_cross`
is its checked form).  `segments_cross_exact` is the independent geometric
route, with exact orientation signs on the integer points of
`realize_coordinates`, a tuple of points (v, y): vertex v at
y = (n + 1)**rank(v) - 1, one walk, one sort and n powers, in general
position and up to REALIZE_CAP vertices.  Every function takes the height h
of the host's index tree as an int.  Heights come only from `btree`'s height
keys, and a rank table is a table of height keys: smaller is higher.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import btree
from .errors import (
    DegenerateEdge,
    IndexOutOfRange,
    SizeTooLarge,
)

REALIZE_CAP = 1023


def realize_coordinates(h: int, n: int) -> tuple[tuple[int, int], ...]:
    """Exact integer points of host vertices 0..n-1 of the tree of height h:
    vertex v at (v, (n + 1)**rank(v) - 1), rank 0 the lowest in the height
    order.  The "- 1" shifts every point alike, so read Y = y + 1.
    For a < b < c in x, b lies strictly above the line ac iff b is the highest:
    - if it is, Y_b > max(Y_a, Y_c), above every point of the segment ac;
    - if not, the line at b is at least max(Y_a, Y_c) / (c - a) > Y_b, as
      the ranks differ by at least 1 and c - a < n + 1.
    The points hold about n**2 * log2(n + 1) / 2 bits, hence the size cap.
    """
    m = (1 << h) - 1
    if not 1 <= n <= m:
        raise IndexOutOfRange(f"n {n} not in [1, {m}]")
    if n > REALIZE_CAP:
        raise SizeTooLarge(f"coordinate realization capped at n <= {REALIZE_CAP}, got {n}")
    keys = btree.height_keys(h, n)
    ys = [0] * n
    for rank, v in enumerate(sorted(range(n), key=keys.__getitem__, reverse=True)):
        ys[v] = (n + 1) ** rank - 1
    return tuple(enumerate(ys))


def _check_edge(n: int, e: tuple[int, int]) -> tuple[int, int]:
    u, v = e
    for w in (u, v):
        if not 0 <= w < n:
            raise IndexOutOfRange(f"edge endpoint {w} not in [0, {n})")
    if u == v:
        raise DegenerateEdge(f"edge ({u}, {v}) joins a vertex to itself")
    return (u, v) if u < v else (v, u)


def height_ranks(h: int, vertices) -> list[int] | dict[int, int]:
    """Rank of each of a collection of vertices in the height order, its
    `height_key` (smaller means higher), read as ranks[v].

    A list of every key up to the largest vertex when that list is at most
    four times as long as the vertices are many, else a dict of the given
    vertices alone, so the cost follows the vertices and not the tree.
    """
    top = max(vertices, default=-1) + 1
    if top <= 4 * len(vertices):
        return btree.height_keys(h, top)
    return {v: btree.height_key(h, v) for v in vertices}


def above(rank, a: int, b: int, c: int) -> bool:
    """For a < b < c in x: does b lie above the line through a and c?

    It does iff b is the highest of the three: `realize_coordinates` proves
    this of its points, and no three of them are collinear.
    """
    rb = rank[b]
    return rb < rank[a] and rb < rank[c]


def segments_cross(rank, s: tuple[int, int], t: tuple[int, int]) -> bool:
    """Do two (left, right) host segments cross?  Segments sharing an endpoint
    never do (general position); otherwise they cross iff their vertical order
    differs at the two ends of their common x-range, one `above` call each."""
    (p, q), (r, u) = (s, t) if s[0] < t[0] else (t, s)
    if q <= r or p == r or q == u:
        return False  # disjoint x-ranges or a shared endpoint
    # The common x-range is [r, min(q, u)].  At x = r, (r, u) is above (p, q)
    # iff r is above line pq; at the right end compare u with line pq when
    # (r, u) is nested, or q with line ru when the segments interleave.
    if u < q:
        return above(rank, p, r, q) != above(rank, p, u, q)
    return above(rank, p, r, q) == above(rank, r, q, u)


def edges_cross(h: int, e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """`segments_cross` on two segments between nodes of the tree of height
    h, each checked and given either way round."""
    m = (1 << h) - 1
    s, t = _check_edge(m, e1), _check_edge(m, e2)
    return segments_cross(height_ranks(h, (*s, *t)), s, t)


def orientation(p: tuple[int, int], q: tuple[int, int], r: tuple[int, int]) -> int:
    """Sign of the cross product (q - p) x (r - p): +1 left turn, -1 right, 0 collinear."""
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def segments_cross_exact(points: tuple[tuple[int, int], ...],
                         e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """True iff the two closed segments meet at a point interior to both.

    Endpoints are realized points in general position, so edges sharing an
    endpoint yield a zero orientation and come out non-crossing.
    """
    n = len(points)
    a, b = _check_edge(n, e1)
    c, d = _check_edge(n, e2)
    pa, pb, pc, pd = (points[i] for i in (a, b, c, d))
    o1 = orientation(pa, pb, pc)
    o2 = orientation(pa, pb, pd)
    o3 = orientation(pc, pd, pa)
    o4 = orientation(pc, pd, pb)
    return o1 * o2 < 0 and o3 * o4 < 0


@dataclass(frozen=True)
class QuarterPlane:
    """Open region above and strictly to one side of an apex vertex.

    side 'left'  : { (x, y) : x < x(apex), y > y(apex) }
    side 'right' : { (x, y) : x > x(apex), y > y(apex) }
    """

    apex: int
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")


def _apex(points: tuple[tuple[int, int], ...], qp: QuarterPlane) -> tuple[int, int]:
    if not 0 <= qp.apex < len(points):
        raise IndexOutOfRange(f"apex {qp.apex} not in [0, {len(points)})")
    return points[qp.apex]


def point_in_quarter_plane(points: tuple[tuple[int, int], ...], p: tuple[int, int],
                           qp: QuarterPlane) -> bool:
    ax, ay = _apex(points, qp)
    if p[1] <= ay:
        return False
    return p[0] < ax if qp.side == "left" else p[0] > ax


def segment_hits_quarter_plane(points: tuple[tuple[int, int], ...],
                               seg: tuple[int, int], qp: QuarterPlane) -> bool:
    """Exact test: does the closed segment meet the open quarter-plane region?

    The part of the segment on the apex's open x-side is a sub-segment; y is
    linear along it, so it enters the region iff its y-supremum exceeds the
    apex's y.  The supremum is attained at an endpoint or approached at the
    clip boundary, which suffices because the region is open in x.
    """
    u, v = _check_edge(len(points), seg)
    (x1, y1), (x2, y2) = points[u], points[v]
    ax, ay = _apex(points, qp)
    if qp.side == "right":
        x1, x2, ax = -x1, -x2, -ax  # mirror so both sides read x < ax
    if x1 > x2:
        x1, x2, y1, y2 = x2, x1, y2, y1
    if x1 >= ax:
        return False
    if x2 < ax:
        return max(y1, y2) > ay
    if y1 > ay:
        return True
    # y at the clip x = ax exceeds ay; x2 >= ax > x1, so multiplying by
    # x2 - x1 > 0 keeps the comparison exact in ints
    return (y1 - ay) * (x2 - x1) + (y2 - y1) * (ax - x1) > 0
