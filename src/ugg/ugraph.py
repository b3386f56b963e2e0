"""Sparse host graph on the binary-tree index structure.

Vertices are the first n preorder indices of a complete binary tree (the
smallest tree with at least n nodes).  Two distinct vertices u, w are adjacent
iff one of three containment rules holds:

  (E1) one lies in the subtree of the other;
  (E2) one lies in the subtree of a left or right level-neighbor of the other;
  (E3) one lies in the subtree of the left level-neighbor of the other's parent.

Every rule is a subtree containment test, so membership is arithmetic on
(level, pos): the ancestor of a node d levels up sits at pos >> d.  No edge
is stored; `edges()` walks O(h) neighbor ranges per vertex.  The edge count
stays below 5 * (n+1) * log2(n+1).
"""

from __future__ import annotations

from . import btree
from .btree import BTreeShape
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
        self.shape = BTreeShape.from_size(n)
        self.n = n

    def is_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return adjacent(*btree.locate(self.shape, u), *btree.locate(self.shape, v))

    def later_ranges(self, v: int) -> list[tuple[int, int]]:
        # Descend to v, keeping rln, the current node's right level-neighbor:
        # the right sibling after a left step, else the left child of the
        # parent's rln.  After v come only the rln of each strict ancestor
        # and its two children (E2, E3 from their side), v's subtree (E1)
        # and the subtree of v's own rln (E2).
        #
        # The ranges come out from the top down in descending order: each
        # rln's right child follows everything below its left child and below
        # the ancestor.  After a right step the child's rln is the rln's left
        # child, so the rln, held in `lo`, opens the child's range.  A range
        # that ends just below the one before it joins that one.
        h, n = self.shape.h, self.n
        node, step, rln, lo = 0, 1 << (h - 1), None, None
        ranges = []
        while node != v:
            right = v >= node + step  # step: right child minus node
            if rln is not None:
                c = rln + step
                if ranges and ranges[-1][0] == c + 1:
                    ranges[-1] = (c, ranges[-1][1])
                else:
                    ranges.append((c, c))
                if right:
                    lo = rln if lo is None else lo
                else:
                    a = rln if lo is None else lo
                    if ranges[-1][0] == rln + 2:
                        ranges[-1] = (a, ranges[-1][1])
                    else:
                        ranges.append((a, rln + 1))
                    lo = None
            if right:
                node, rln = node + step, None if rln is None else rln + 1
            else:
                node, rln = node + 1, node + step
            step >>= 1
        # v's subtree and its rln's span 2 * step - 1 nodes each and make one
        # range: v's subtree ends where that of c, v's lowest ancestor-or-self
        # left child, ends, and c's sibling opens the range of v's rln.  If
        # any ancestor has an rln, the parent has one, and the lowest range
        # so far, which the parent's rln gave, opens just after this one.
        if ranges:
            ranges[-1] = (v + 1, ranges[-1][1])
        elif rln is not None or step > 1:
            ranges.append((v + 1, (v if rln is None else rln) + 2 * step - 2))
        ranges.reverse()
        while ranges and ranges[-1][0] >= n:
            ranges.pop()
        if ranges and ranges[-1][1] >= n:
            ranges[-1] = (ranges[-1][0], n - 1)
        return ranges


def build_universal(n: int) -> UniversalGraph:
    return UniversalGraph(n)
