"""Sparse host graph on the binary-tree index structure.

Vertices are the first n preorder indices of a complete binary tree, the
smallest with at least n nodes: its height is h = n.bit_length().  Two
distinct vertices u, w are adjacent iff one of three containment rules holds:

  (E1) one lies in the subtree of the other;
  (E2) one lies in the subtree of a left or right level-neighbor of the other;
  (E3) one lies in the subtree of the left level-neighbor of the other's parent.

Every rule is a subtree containment test, so membership is arithmetic on
(level, pos): the ancestor of a node d levels up sits at pos >> d.  No edge
is stored; `edges()` reads O(h) neighbor ranges per vertex from one preorder
walk of the index tree.  The rules make those lists a recurrence: a child's
neighbors above it are its parent's less two or three holes, index ranges
below the parent and below the children of the parent's right
level-neighbor (see `UniversalGraph.ranges`).  The edge count stays below
5 * (n+1) * log2(n+1).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from . import btree
from .errors import InvalidSize
from .host import Host


def adjacent(lu: int, pu: int, lv: int, pv: int) -> bool:
    """Rules E1-E3 on two distinct nodes given as (level, pos)."""
    if lu > lv:
        lu, pu, lv, pv = lv, pv, lu, pu
    a = pv >> (lv - lu)  # position of v or its ancestor on u's level
    # (E1) a is u; (E2) a is a level-neighbor of u; (E3) a's parent is
    # the left level-neighbor of u's parent.
    if abs(a - pu) <= 1 or a >> 1 == (pu >> 1) - 1:
        return True
    # (E3) with the roles swapped: u lies under the left level-neighbor
    # of v's parent, so u is at most one level above v.
    return lv - lu <= 1 and pu >> (lu - lv + 1) == (pv >> 1) - 1


class UniversalGraph(Host):
    """Host graph universal for forests on n vertices."""

    kind = "universal"

    def __init__(self, n: int):
        if n < 1:
            raise InvalidSize(f"size must be >= 1, got {n}")
        self.n = n
        self.h = n.bit_length()  # the least h with 2**h - 1 >= n

    def joins(self, u: int, v: int) -> bool:
        lu, pu, _ = btree._locate(self.h, u)
        lv, pv, _ = btree._locate(self.h, v)
        return adjacent(lu, pu, lv, pv)

    def ranges(self) -> Iterator[list[tuple[int, int]]]:
        # With s the step from node u to its right child u + s and r its
        # right level-neighbor (-1 if none), the neighbors above u are its
        # subtree (u, u + 2s - 2] (E1), r's subtree [r, r + 2s - 2] (E2) and,
        # for each strict ancestor a with a right level-neighbor r_a, r_a
        # (E2) and its children r_a + 1 and r_a + s_a (E3).  So each child's
        # list is u's less a few holes: the left child u + 1, whose right
        # level-neighbor is u + s, loses u + 1, [r + 2, r + s - 1] and
        # [r + s + 1, r + 2s - 2]; the right child u + s, whose right
        # level-neighbor is r + 1 (none if r is none), loses (u, u + s] and
        # [r + s + 1, r + 2s - 2].  Ancestors give nodes on u's level or
        # above, never in a hole, so the holes at r cut the one range (a, b)
        # that holds r's subtree, those at u cut the first range, which u + 1
        # opens, and no cut leaves two ranges touching.  The preorder walk
        # keeps a stack of O(h) lists of O(h) ranges, each cut at n when it
        # is yielded.
        n, s = self.n, 1 << (self.h - 1)
        stack = [(0, s, -1, [(1, 2 * s - 2)] if s > 1 else [])]
        while stack:
            u, s, r, above = stack.pop()
            out = above
            if out and out[-1][1] >= n:
                out = out[:bisect_left(out, (n,))]
                if out and out[-1][1] >= n:
                    out[-1] = (out[-1][0], n - 1)
            if s > 1:
                left, right = above.copy(), above.copy()
                if r >= 0 and s > 2:  # for s = 2 the holes at r are empty
                    i = bisect_left(above, (r + 1,)) - 1
                    a, b = above[i]
                    rest = [(r + 2 * s - 1, b)] if b > r + 2 * s - 2 else []
                    left[i:i + 1] = [(a, r + 1), (r + s, r + s), *rest]
                    right[i:i + 1] = [(a, r + s), *rest]
                left[0] = (u + 2, left[0][1])  # u's subtree reaches u + 2s - 2
                b = right[0][1]
                right[:1] = [(u + s + 1, b)] if b > u + s else []
                if u + s < n:
                    stack.append((u + s, s >> 1, r + 1 if r >= 0 else -1, right))
                if u + 1 < n:
                    stack.append((u + 1, s >> 1, u + s, left))
            yield out


def build_universal(n: int) -> UniversalGraph:
    return UniversalGraph(n)
