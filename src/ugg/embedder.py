"""Crossing-free embedding of forests into the universal host graph.

The recursion embeds a tree onto a host interval so that a designated portal
vertex lands on the interval's highest host vertex (single portal), or two
portals land left/right with empty upper-left / upper-right quarter planes
(two portals).  Every recursive return re-checks the portal postcondition and
that the piece fills its interval exactly; violations raise
InternalInvariantBroken rather than producing a bad embedding.  The fill
costs O(1) to prove: each placement is written once, into one array indexed
by tree position and one indexed by host vertex; every write lands on an
empty vertex inside the current call's interval, every child interval (after
its interval isomorphism) lies inside its parent's, and the writes less the
lifts made during a call number the interval's length.

Each return appends one provenance record to the run's list, packed as an
int inline, ((lo << h | hi) << 4) | code, with code its label's index in
`host.LABELS` (the constants below); `Embedding.provenance` decodes them.

`embed_forest` takes each component rooted once, at its smallest vertex, by
`Forest.trees`; `embed_tree` takes a `RootedTree` whose root is its first
portal.  Each subproblem is a piece of that rooting: its portal is its
topmost vertex, and it is the portal's subtree minus a few excluded
preorder ranges.

The recursion, about 2h levels deep on a host of height h, runs in
generators: `single`, `two` and the helpers that recurse make every recursive
call with `yield from`, and `_drive` runs the root piece.  A generator keeps
its interpreter frame in the generator object, so only `_drive` and short
leaf calls (`_put`, `top_of_range`, `kids`, `keep`) go on the thread's stack
of interpreter frames.  CPython 3.11+ keeps that stack in 16 KiB chunks: it
maps a chunk when a push passes the end of the last one and unmaps it when
the chunk's first frame pops.  Plain recursive calls, about 1 KiB of frames
per level, kept crossing such an end and paid a map, an unmap and fresh page
faults on each crossing.
"""

from __future__ import annotations

from typing import Generator

from . import btree
from .errors import (
    EqualIndices,
    IndexOutOfRange,
    InternalInvariantBroken,
    PreconditionViolated,
    SizeMismatch,
)
from .host import Embedding, Provenance
from .trees import Forest, RootedTree
from .ugraph import UniversalGraph

# Nested single-portal calls allowed per level of a host of height h.  The
# deepest measured run nests 2h + 2 (all trees up to 8 vertices with every
# portal and host placement, random trees and the six bench shapes up to
# 65535 vertices).
DEPTH_PER_LEVEL = 4

# Provenance codes of the recursion's returns: indices into host.LABELS.
(BASE, CASE_1_1, CASE_1_2_1, CASE_1_2_2, CASE_1_2_3, CASE_1_2_4, CASE_1_2_5_1,
 CASE_1_2_5_2, CASE_2, FOREST_COMPONENT) = range(10)

# A step of the recursion: a generator that yields nothing and returns the
# step's result, so that `yield from` makes each recursive call.
Steps = Generator[None, None, object]


# ---------------------------------------------------------------------------
# supporting operations of the recursion
# ---------------------------------------------------------------------------


def _iso_interior(h: int, lo: int, hi: int, k: int, level: int, parent: int) -> int:
    """The interval isomorphism: [lo, hi] minus its interior highest vertex k,
    in a host of height h, maps onto [lo - d, hi - d - 1] by
    u -> u - d - [u > k], keeping host edges, crossings and the height order.
    Returns d; `_lift` is the inverse.

    The interval may contain neither the right child of v_k nor any vertex
    from the subtree of the left child of v_k's left sibling; both clauses
    are checked.  That k is the highest vertex of [lo, hi], on the given
    level under the given parent, is the caller's to vouch for: the
    recursion takes all three from the one `top_of_range` descent.
    """
    if not lo < k < hi:
        raise PreconditionViolated(f"k={k} not interior to [{lo}, {hi}]")
    if parent < 0 or parent + 1 == k:
        raise InternalInvariantBroken(
            f"interior interval maximum {k} is not a right child")
    if level == h:
        raise InternalInvariantBroken(
            f"interior interval maximum {k} is a leaf yet [{lo}, {hi}] extends past it")
    ls, d = parent + 1, (1 << (h - level)) - 1  # d: size of each subtree below v_k
    right_child = k + 1 + d
    if right_child <= hi:
        raise PreconditionViolated(
            f"right child {right_child} of the highest vertex lies in [{lo}, {hi}]")
    # subtree of the left sibling's left child is [ls+1, ls+d]
    if ls + d >= lo:
        raise PreconditionViolated(
            f"subtree [{ls + 1}, {ls + d}] of the left sibling's left child "
            f"meets [{lo}, {hi}]")
    if lo - d < 0:
        raise InternalInvariantBroken("shift would leave the host")
    return d


def _lift(g: int, k: int, d: int) -> int:
    # vertex g of the image of the shift by d that removed k, back in its source
    g += d
    return g + (g >= k)


def _check_replace(G: UniversalGraph, lo: int, hi: int, k: int, x: int) -> None:
    """Check that the tree vertex on the highest vertex k of [lo, hi] may move
    to host vertex x: x must lie outside [lo, hi] and be higher than every
    other vertex of it, that is, than the highest on each side of k."""
    if lo <= x <= hi:
        raise PreconditionViolated(f"replacement vertex {x} lies inside [{lo}, {hi}]")
    h = G.h
    level = btree._locate(h, x)[0]
    for a, b in ((lo, k - 1), (k + 1, hi)):
        if a <= b:
            # w is higher than x iff it is on a lower level, or on x's level
            # to its right: preorder runs left to right along a level, so
            # (level, -index) orders the nodes as `height_key` does
            w, w_level, _ = btree.top_of_range(h, a, b)
            if w_level < level or w_level == level and w > x:
                raise PreconditionViolated(
                    f"replacement vertex {x} is not higher than interval vertex {w}")


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------


class _Recursion:
    """One embedding run onto the host interval [base, base + T.n).

    Each placement is written once: `out[t]` is the host vertex of tree
    position t and `own[g - base]` the position on host vertex g, -1 where
    empty.  A call works in its frame, an interval in its own coordinates;
    `shifts` holds the (k, d) of each interval isomorphism the frame sits
    under, and a frame vertex reaches the host through their lifts,
    innermost first.  The methods that recurse are generators, run by
    `_drive`; they never yield, and each returns its result to the
    `yield from` that called it.  Each return appends its packed provenance
    record to `prov`, a list the caller owns and may share between runs.
    """

    def __init__(self, G: UniversalGraph, T: RootedTree, base: int, prov: list[int]):
        self.G, self.h, self.T, self.prov = G, G.h, T, prov
        self.max_depth = DEPTH_PER_LEVEL * G.h
        self.base, self.out, self.own = base, [-1] * T.n, [-1] * T.n
        self.placed, self.shifts, self.frame = 0, [], (base, base + T.n - 1)

    def _host(self, g: int) -> int:
        # host vertex of frame vertex g, which must lie in the current frame
        lo, hi = self.frame
        if not lo <= g <= hi:
            raise InternalInvariantBroken(f"vertex {g} outside the frame [{lo}, {hi}]")
        if self.shifts:
            for k, d in reversed(self.shifts):
                g += d  # _lift, inlined: about two lifts per placement
                g += g >= k
        return g

    def _put(self, t: int, g: int) -> None:
        """Place tree position t, not yet placed, on the empty frame vertex g."""
        # _host, inlined: one placement per tree vertex, and one frame less
        # on the thread's stack under each
        lo, hi = self.frame
        if not lo <= g <= hi:
            raise InternalInvariantBroken(f"vertex {g} outside the frame [{lo}, {hi}]")
        u = g
        if self.shifts:
            for k, d in reversed(self.shifts):
                u += d
                u += u >= k
        i = u - self.base
        if self.own[i] >= 0:
            raise InternalInvariantBroken(f"vertex {g} written twice")
        if self.out[t] >= 0:
            raise InternalInvariantBroken(f"tree vertex {self.T.order[t]} placed twice")
        self.own[i], self.out[t] = t, u
        self.placed += 1

    def _take(self, g: int) -> int:
        """Lift the tree position off frame vertex g and return it."""
        i = self._host(g) - self.base
        t = self.own[i]
        if t < 0:
            raise InternalInvariantBroken(f"no tree vertex on {g} to lift")
        self.own[i] = self.out[t] = -1
        self.placed -= 1
        return t

    def _enter(self, lo: int, hi: int) -> tuple[int, int]:
        # make [lo, hi], which must lie in the current frame, the frame
        outer = self.frame
        if lo < outer[0] or hi > outer[1]:
            raise InternalInvariantBroken(f"[{lo}, {hi}] leaves its frame {list(outer)}")
        self.frame = (lo, hi)
        return outer

    def single(self, a: int, ex: list, lo: int, hi: int, depth: int) -> Steps:
        """Embed the piece (a, ex) onto [lo, hi]; portal a lands on the
        interval's highest vertex, which is returned.

        The piece fills [lo, hi] exactly: every write lands on an empty
        vertex of its own frame, every frame lies in its parent's, and the
        writes less the lifts made during the call number hi - lo + 1.
        """
        if depth > self.max_depth:
            raise InternalInvariantBroken(f"recursion deeper than {self.max_depth} levels")
        T = self.T
        size = T.size[a]  # T.count, inlined
        for s, e in ex:
            size -= e - s
        if size != hi - lo + 1:
            raise InternalInvariantBroken(
                f"tree has {size} vertices for interval [{lo}, {hi}]")
        if lo == hi:  # one write, checked to land on lo inside the frame
            self._put(a, lo)
            self.prov.append((lo << self.h | lo) << 4 | BASE)
            return lo
        outer = self._enter(lo, hi)
        placed = self.placed
        # the interval maximum k with its level and parent
        top = btree.top_of_range(self.h, lo, hi)
        k, level, parent = top
        depth += 1
        kids = T.kids(a, ex)
        g = k
        if len(kids) >= 2:
            # Branching portal: lay the child subtrees left-to-right over the
            # interval minus k; the chunk next to k absorbs k and keeps the portal.
            g = yield from self._spread(a, ex, kids, lo, (k,), k, top, depth)
            code = CASE_1_1
        else:
            a2 = kids[0][0]
            tp = T.keep(ex, a2)
            ls = parent + 1
            if k == hi or k == lo:
                yield from self.single(a2, tp, lo + (k == lo), hi - (k == hi), depth)
                self._put(a, k)
                code = CASE_1_2_1 if k == hi else CASE_1_2_2
            elif ls == k:
                raise InternalInvariantBroken(f"interior maximum {k} is not a right child")
            elif ls >= lo:
                # The left sibling sits in the interval; it must be the left
                # endpoint and is higher than everything but k, so the deg-1
                # portal moves there.
                if ls != lo:
                    raise InternalInvariantBroken(
                        f"left sibling {ls} inside [{lo}, {hi}] but not at its left end")
                x = yield from self.single(a2, tp, lo + 1, hi, depth)  # a2 took k
                _check_replace(self.G, lo + 1, hi, x, lo)
                self._put(self._take(x), lo)
                self._put(a, k)
                code = CASE_1_2_3
            else:
                d = (1 << (self.h - level)) - 1  # size of each subtree one level below v_k
                if d == 0 or k + 1 + d > hi:
                    code = yield from self._case_1_2_4(a, a2, tp, lo, hi, top, depth)
                else:
                    code = yield from self._case_1_2_5(a, a2, tp, lo, hi, top, k + 1 + d,
                                                       depth)
        if g != k:
            raise InternalInvariantBroken(
                f"portal {T.order[a]} landed on {g}, expected interval maximum {k}")
        self.prov.append((lo << self.h | hi) << 4 | code)
        if self.placed - placed != hi - lo + 1:
            raise InternalInvariantBroken(f"piece does not fill [{lo}, {hi}] exactly")
        self.frame = outer
        return k

    def _under(self, v: int, ex: list, lo: int, hi: int, top: tuple[int, int, int],
               depth: int) -> Steps:
        # single() of the piece (v, ex) on the image of [lo, hi], which must
        # lie in the current frame, minus its interior maximum k, top[0];
        # returns v's vertex lifted back
        k = top[0]
        d = _iso_interior(self.h, lo, hi, *top)
        outer = self._enter(lo, hi)
        self.shifts.append((k, d))
        self.frame = (lo - d, hi - d - 1)
        g = yield from self.single(v, ex, lo - d, hi - d - 1, depth)
        self.shifts.pop()
        self.frame = outer
        return _lift(g, k, d)

    def _spread(self, v: int, ex: list, kids: list[tuple[int, int]], lo: int,
                gaps: tuple, x: int, top: tuple[int, int, int], depth: int) -> Steps:
        # Lay v's children in the piece from lo rightwards over the vertices
        # not in gaps (sorted), one chunk each; the chunk beside host vertex x
        # (or the first, if x is lo) absorbs x and keeps v, whose vertex is
        # returned.  A chunk that spans the frame's maximum k, top[0], is
        # embedded beside it and shifted back.
        T, p, q, k = self.T, lo, None, top[0]
        for child, sz in kids:
            first, last = p, p + sz - 1
            for gap in gaps:
                first += first >= gap
                last += last >= gap
            p += sz
            if q is None and (x == lo or first <= x - 1 <= last):
                q = child, sz, first, last
                continue
            cex = T.keep(ex, child) if ex else []  # a star's leaves skip the call
            if last - first + 1 == sz:
                yield from self.single(child, cex, first, last, depth)
            elif last - first == sz and first < k < last:
                # k, the frame's maximum, is the chunk's
                yield from self._under(child, cex, first, last, top, depth)
            else:
                raise InternalInvariantBroken("chunk neither interval nor maximum-split")
        if q is None:
            raise InternalInvariantBroken(f"no chunk borders {x}")
        kq, sz, first, last = q
        qlo, qhi = min(first, x), max(last, x)
        if qhi - qlo != sz:
            raise InternalInvariantBroken(f"chunk beside {x} plus {x} is not an interval")
        return (yield from self.single(v, T.keep(ex, v, kq, kq + T.size[kq]), qlo, qhi,
                                       depth))

    def _rest(self, a2: int, tp: list, c: int, lo: int, hi: int, depth: int) -> Steps:
        # The piece (a2, tp) minus c's subtree, portaled at a2 and c's parent;
        # its steps return the parent's vertex.
        cp = self.T.parent[c]
        rem = self.T.cut(tp, c)
        if cp == a2:
            return self.single(a2, rem, lo, hi, depth)
        return self.two(a2, rem, cp, lo, hi, depth)

    def _case_1_2_4(self, a: int, a2: int, tp: list, lo: int, hi: int,
                    top: tuple[int, int, int], depth: int) -> Steps:
        # Interval maximum k is interior; its right child and left sibling
        # both lie outside.
        # Cut the rest of the tree so that a piece H with s <= |H| <= 2s-2
        # vertices fills [hi-|H|, hi] minus v_k via the interval isomorphism.
        T, k = self.T, top[0]
        s = hi - k + 1
        c = T.cut_vertex(a2, tp, s)
        kids = T.kids(c, tp)
        acc, l = 1, 0
        while acc < s:
            acc += kids[l][1]
            l += 1
        m = acc
        if not s <= m <= 2 * s - 2:
            raise InternalInvariantBroken(f"cut piece size {m} outside [s, 2s-2] for s={s}")

        h_ex = T.keep(tp, c, c + 1, kids[l][0] if l < len(kids) else None)
        g = yield from self._under(c, h_ex, hi - m, hi, top, depth)
        if g != k + 1:
            raise InternalInvariantBroken(
                f"cut vertex landed on {g}, expected second-highest {k + 1}")
        self._put(a, k)

        cur = hi - m - sum(sz for _, sz in kids[l:])
        rem_hi = cur - 1
        for child, sz in kids[l:]:
            yield from self.single(child, T.keep(tp, child), cur, cur + sz - 1, depth)
            cur += sz

        if c != a2:
            yield from self._rest(a2, tp, c, lo, rem_hi, depth)
        elif rem_hi != lo - 1:
            raise InternalInvariantBroken("pieces do not tile the interval")
        return CASE_1_2_4

    def _case_1_2_5(self, a: int, a2: int, tp: list, lo: int, hi: int,
                    top: tuple[int, int, int], r: int, depth: int) -> Steps:
        # The right child v_r of the interval maximum lies in the interval; it is
        # the second-highest vertex of [lo, hi].
        T, k = self.T, top[0]
        s = hi - r + 1
        c = T.cut_vertex(a2, tp, s)
        m = T.count(c, T.keep(tp, c))

        if m <= hi - k - 1:
            # 1.2.5.1: the window [hi-m, hi] contains v_r but not v_k.  Embed the
            # rest with two portals, move whichever vertex took v_k up to v_r,
            # and hang {c's parent} + T(c) over the window, discarding the
            # parent's scaffold position v_r.  The parent is placed in the rest
            # too, so it is lifted off that vertex while the window is embedded.
            g = yield from self._rest(a2, tp, c, lo, hi - m - 1, depth)  # the parent's vertex
            _check_replace(self.G, lo, hi - m - 1, k, r)
            moved = self._take(k)
            if g != k:
                self._take(g)
            cp = T.parent[c]
            if (yield from self.single(cp, T.keep(tp, cp, c, c + T.size[c]), hi - m, hi,
                                       depth)) != r:
                raise InternalInvariantBroken(f"scaffold portal did not land on {r}")
            self._take(r)
            if g != k:
                self._put(cp, g)
            self._put(moved, r)
            self._put(a, k)
            return CASE_1_2_5_1

        # 1.2.5.2: the window [hi-m, hi] contains both v_k and v_r.  Children of c
        # tile the window minus {k, r}; the chunk beside r absorbs r and keeps c.
        wlo = hi - m
        if not wlo <= k < r <= hi:
            raise InternalInvariantBroken("window misses k or r")
        kids = T.kids(c, tp)
        if not kids:
            raise InternalInvariantBroken("cut vertex is a leaf yet its subtree spans the window")
        g = yield from self._spread(c, tp, kids, wlo, (k, r), r, top, depth)
        if g != r:
            raise InternalInvariantBroken(f"cut vertex landed on {g}, expected {r}")

        if c != a2:
            yield from self._rest(a2, tp, c, lo, wlo - 1, depth)
        elif wlo != lo:
            raise InternalInvariantBroken("window does not reach the interval start")
        self._put(a, k)
        return CASE_1_2_5_2

    def two(self, a: int, ex: list, b: int, lo: int, hi: int, depth: int) -> Steps:
        """Embed with two portals: split along the a-b path into one block per
        path vertex, left to right, each block embedded with a single portal.
        Returns b's vertex."""
        T = self.T
        path = [b]
        while path[-1] > a:
            path.append(T.parent[path[-1]])
        if path[-1] != a:
            raise InternalInvariantBroken(f"portal {T.order[b]} is not below {T.order[a]}")
        path.reverse()
        outer = self._enter(lo, hi)
        cur, tops, size = lo, [], T.size
        for cx, block in zip(path, T.path_blocks(ex, path)):
            end = cur + size[cx]  # T.count, inlined: one block per path vertex
            for s, e in block:
                end -= e - s
            tops.append((yield from self.single(cx, block, cur, end - 1, depth)))
            cur = end
        if cur != hi + 1:
            raise InternalInvariantBroken("path blocks do not tile the interval")
        pa, pb = tops[0], tops[-1]
        if pa >= pb:
            raise InternalInvariantBroken("left portal not left of right portal")
        # The blocks tile [lo, hi], so a quarter plane is empty iff its portal
        # is the highest vertex from it out to that end of the interval.
        h = self.h
        if btree.highest_in_range(h, lo, pa) != pa:
            raise InternalInvariantBroken("vertex in upper-left quarter plane of left portal")
        if btree.highest_in_range(h, pb, hi) != pb:
            raise InternalInvariantBroken("vertex in upper-right quarter plane of right portal")
        self.prov.append((lo << h | hi) << 4 | CASE_2)
        self.frame = outer
        return pb


def _drive(steps: Steps) -> None:
    # Run the root piece: every nested call is a generator frame that
    # `yield from` resumes, so only this frame and the leaf calls
    # made from the recursion go on the thread's frame stack.
    for _ in steps:
        raise InternalInvariantBroken("the recursion yielded")


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def embed_tree(G: UniversalGraph, tree: RootedTree, *, lo: int = 0,
               second: int | None = None) -> Embedding:
    """Embed a tree onto the host interval [lo, lo + tree.n - 1].

    The root is the first portal and lands on the interval's highest vertex.
    With `second`, a tree vertex other than the root, the embedding has two
    portals: `second` lands right of the root, with the root's upper-left
    and `second`'s upper-right quarter planes empty.  The recursion nests at
    most DEPTH_PER_LEVEL * h single-portal calls on a host of height h and
    raises InternalInvariantBroken past that.
    """
    hi = lo + tree.n - 1
    if lo < 0 or hi >= G.n:
        raise IndexOutOfRange(f"[{lo}, {hi}] outside host [0, {G.n})")
    run = _Recursion(G, tree, lo, [])
    if second is None:
        _drive(run.single(0, [], lo, hi, 1))
    else:
        try:
            b = tree.order.index(second)
        except ValueError:
            raise IndexOutOfRange(f"portal {second} not a tree vertex") from None
        if b == 0:
            raise EqualIndices(f"second portal {second} is the root")
        _drive(run.two(0, [], b, lo, hi, 1))
    return Embedding(dict(zip(tree.order, run.out)), Provenance(run.prov, G.h))


def embed_forest(G: UniversalGraph, forest: Forest) -> Embedding:
    """Embed a forest: components, ordered by smallest vertex id, go onto
    consecutive host intervals; each is rooted at its smallest vertex, which
    serves as the component's single portal.  Every component's run appends
    its provenance records to one list, and a "forest-component" record
    follows each component's."""
    if forest.n != G.n:
        raise SizeMismatch(f"forest has {forest.n} vertices, host has {G.n}")
    verts, image = [-1] * forest.n, [-1] * forest.n
    prov: list[int] = []
    cur, h = 0, G.h
    for tree in forest.trees():
        run = _Recursion(G, tree, cur, prov)
        end = cur + tree.n - 1
        _drive(run.single(0, [], cur, end, 1))
        for v, g in zip(tree.order, run.out):
            verts[v], image[v] = v, g
        prov.append((cur << h | end) << 4 | FOREST_COMPONENT)
        cur = end + 1
    # keyed in vertex order, which later lookups by vertex walk fastest, by
    # the forest's own vertex ints rather than new ones
    return Embedding(dict(zip(verts, image)), Provenance(prov, h))
