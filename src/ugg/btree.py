"""Index arithmetic for complete rooted ordered binary trees in preorder.

A tree of height h has m = 2**h - 1 nodes, indexed 0..m-1 in preorder
(root first, then the left subtree, then the right subtree).  Levels are
1-based from the root; positions are 0-based from the left within a level.
Nothing is materialized: every query walks at most h steps of arithmetic.
Every function takes the height h as an int; the smallest tree with at
least n nodes has h = n.bit_length().
"""

from __future__ import annotations

from .errors import IndexOutOfRange, InvalidSize


def _check_index(h: int, i: int) -> None:
    m = (1 << h) - 1
    if not 0 <= i < m:
        raise IndexOutOfRange(f"node index {i} not in [0, {m})")


def _locate(h: int, i: int) -> tuple[int, int, int]:
    # Descend from the root, keeping x, the offset of i below the current
    # node.  On level `level` the right child is node + step, step =
    # 2**(h - level), because the left subtree holds step - 1 nodes.
    # Returns (level, pos, parent); parent is -1 for the root.
    x, pos, step = i, 0, 1 << (h - 1)
    while x:
        if x < step:
            x, pos = x - 1, 2 * pos
        else:
            x, pos = x - step, 2 * pos + 1
        step >>= 1
    level = h + 1 - step.bit_length()
    return level, pos, -1 if level == 1 else i - (2 * step if pos & 1 else 1)


def locate(h: int, i: int) -> tuple[int, int]:
    """Map a preorder index to its (level, pos)."""
    _check_index(h, i)
    level, pos, _ = _locate(h, i)
    return level, pos


def index_of(h: int, level: int, pos: int) -> int:
    """Inverse of locate: preorder index of the node at (level, pos)."""
    if not 1 <= level <= h:
        raise IndexOutOfRange(f"level {level} not in [1, {h}]")
    if not 0 <= pos < (1 << (level - 1)):
        raise IndexOutOfRange(f"pos {pos} not in [0, {1 << (level - 1)})")
    # Read pos as the root-to-node path: each step adds 1 for a left child;
    # a right child at depth d adds 2**(h-d) instead, 2**(h-d) - 1 more.
    # Summed over the 1 bits of pos that is pos * 2**(h-level+1) - popcount.
    return level - 1 + (pos << (h - level + 1)) - bin(pos).count("1")


def subtree_range(h: int, i: int) -> tuple[int, int]:
    """Closed preorder index range of the subtree rooted at i."""
    _check_index(h, i)
    level, _, _ = _locate(h, i)
    return i, i + (1 << (h - level + 1)) - 2


def height_key(h: int, i: int) -> int:
    """The height order as one int: smaller means higher.

    Lower level wins; within a level, larger pos wins.  This is the order in
    which a breadth-first traversal that expands right children before left
    ones visits the nodes.  pos < 2**h, so the level term dominates.
    """
    _check_index(h, i)
    level, pos, _ = _locate(h, i)
    return (level << h) - pos


def key_location(h: int, key: int) -> tuple[int, int]:
    """Inverse of `height_key` in a tree of height h: the (level, pos) of a key."""
    # key = (level << h) - pos with 0 <= pos < 2**h, so level = ceil(key / 2**h)
    level = -(-key >> h)
    return level, (level << h) - key


def height_keys(h: int, n: int) -> list[int]:
    """`height_key` of every index below n, in one preorder walk.

    The node after (level, pos) in preorder is its left child, or, from a
    leaf, the right sibling of the lowest ancestor-or-self that is a left
    child: climb one level per trailing 1 bit of pos, then add 1.
    """
    m = (1 << h) - 1
    if not 0 <= n <= m:
        raise IndexOutOfRange(f"prefix size {n} not in [0, {m}]")
    keys = [0] * n
    level, pos = 1, 0
    for i in range(n):
        keys[i] = (level << h) - pos
        if level < h:
            level, pos = level + 1, pos << 1
        else:
            up = (pos ^ (pos + 1)).bit_length() - 1
            level, pos = level - up, (pos >> up) + 1
    return keys


def highest_in_range(h: int, lo: int, hi: int) -> int:
    """The highest node of the index range [lo, hi], 0 <= lo <= hi < m."""
    return top_of_range(h, lo, hi)[0]


def top_of_range(h: int, lo: int, hi: int) -> tuple[int, int, int]:
    """The highest node of [lo, hi], 0 <= lo <= hi < m, with its level and
    parent as `_locate` gives them (parent -1 at the root).

    Descends from the root while [lo, hi] lies in one child subtree; if it
    straddles both, the right child is higher than the rest of them.
    """
    if not 0 <= lo <= hi < (1 << h) - 1:
        raise IndexOutOfRange(f"range [{lo}, {hi}] not within [0, {(1 << h) - 1})")
    node, parent, step = 0, -1, 1 << (h - 1)  # step: right child minus node
    while node < lo:
        parent, right = node, node + step
        if lo >= right:
            node = right
        elif right <= hi:
            return right, h + 2 - step.bit_length(), parent
        else:
            node += 1
        step >>= 1
    return node, h + 1 - step.bit_length(), parent


def highest(h: int, indices) -> int:
    """The index that is higher than all other given indices."""
    best = min(indices, key=lambda i: height_key(h, i), default=None)
    if best is None:
        raise InvalidSize("highest() needs at least one index")
    return best
