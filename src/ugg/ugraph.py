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
walk of the index tree.  The edge count stays below 5 * (n+1) * log2(n+1).
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
        # Walk the index tree in preorder, keeping the state of the descent
        # to the current node: rln, its right level-neighbor (the right
        # sibling after a left step, else the left child of the parent's
        # rln), and `above`, the ranges its strict ancestors give.  After a
        # node come only the rln of each strict ancestor and its two
        # children (E2, E3 from their side), the node's subtree (E1) and the
        # subtree of its own rln (E2).  A node's state is shared by its
        # whole subtree, so each step down changes the last range of
        # `above` or appends one, and a step back up restores that range
        # and length, kept in `pending` with the node whose right child is
        # still to come: O(h) state, and O(1) steps per vertex beside the
        # copy of `above` it yields.
        #
        # The ranges come out from the top down in descending order: each
        # rln's right child follows everything below its left child and below
        # the ancestor.  After a right step the child's rln is the rln's left
        # child, so the rln, held in `lo`, opens the child's range.  A range
        # that ends just below the one before it joins that one.
        n = self.n
        node, step, rln, lo = 0, 1 << (self.h - 1), None, None
        above: list[tuple[int, int]] = []
        pending = []
        while True:
            # The node's subtree and its rln's span 2 * step - 1 nodes each
            # and make one range: the subtree ends where that of c, the
            # node's lowest ancestor-or-self left child, ends, and c's
            # sibling opens the range of the node's rln.  If any ancestor has
            # an rln, the parent has one, and the lowest range above, which
            # the parent's rln gave, opens just after this one.
            if above:
                out = above[::-1]
                out[0] = (node + 1, out[0][1])
            elif rln is not None or step > 1:
                out = [(node + 1, (node if rln is None else rln) + 2 * step - 2)]
            else:
                out = []
            if out and out[-1][1] >= n:
                del out[bisect_left(out, (n,)):]
                if out and out[-1][1] >= n:
                    out[-1] = (out[-1][0], n - 1)
            yield out
            # the next node in preorder: the left child, or the right child
            # of the lowest node left of whose subtree the walk is; none at
            # or past n, nor any after them
            right = step == 1 or node + 1 == n
            if not right:
                pending.append((node, step, rln, lo, len(above), above[-1] if above else None))
            elif not pending:
                return
            else:
                node, step, rln, lo, k, last = pending.pop()
                if node + step >= n:
                    return
                del above[k:]
                if k:
                    above[-1] = last
            if rln is not None:
                c = rln + step
                if above and above[-1][0] == c + 1:
                    above[-1] = (c, above[-1][1])
                else:
                    above.append((c, c))
                if right:
                    lo = rln if lo is None else lo
                else:
                    a = rln if lo is None else lo
                    if above[-1][0] == rln + 2:
                        above[-1] = (a, above[-1][1])
                    else:
                        above.append((a, rln + 1))
                    lo = None
            if right:
                node, rln = node + step, None if rln is None else rln + 1
            else:
                node, rln = node + 1, node + step
            step >>= 1


def build_universal(n: int) -> UniversalGraph:
    return UniversalGraph(n)
