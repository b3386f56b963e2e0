"""Crossing-free embedding of forests into the universal host graph.

The recursion embeds a tree onto a host interval so that a designated portal
vertex lands on the interval's highest host vertex (single portal), or two
portals land left/right with empty upper-left / upper-right quarter planes
(two portals).  Every recursive return re-checks the portal postcondition and
that the piece fills its interval exactly; violations raise
InternalInvariantBroken rather than producing a bad embedding.

`embed_forest` roots each component once, at its smallest vertex, straight
from the forest's adjacency lists; `embed_tree` takes a `RootedTree` rooted
at its first portal.  Each subproblem is a piece of that rooting: its portal
is its topmost vertex, and it is the portal's subtree minus a few excluded
preorder ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import btree
from .errors import (
    EqualIndices,
    IndexOutOfRange,
    InternalInvariantBroken,
    IntervalTooSmall,
    DomainMismatch,
    PreconditionViolated,
    SizeMismatch,
)
from .trees import Forest, RootedTree
from .ugraph import Interval, UniversalGraph

# Nested single-portal calls allowed per level of a host of height h.  The
# deepest measured run nests 2h + 2 (all trees up to 8 vertices with every
# portal and host placement, random trees and the six bench shapes up to
# 65535 vertices).
DEPTH_PER_LEVEL = 4

# Optional observer for recursive returns, used by verification sweeps.
# Receives ("single", portal, lo, hi, mapping) or ("two", (a, b), lo, hi,
# mapping) after a piece has passed its own postcondition checks.
TRACE_HOOK = None


@dataclass
class Embedding:
    """A vertex map from an input graph into a host on n vertices."""

    host_n: int
    mapping: dict[int, int]
    provenance: list[tuple[str, tuple[int, int]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# supporting operations of the recursion
# ---------------------------------------------------------------------------


def cut_vertex(tree: RootedTree, s: int) -> int:
    """Deepest-found vertex whose subtree has >= s vertices while every child
    subtree has <= s-1.

    Walks down from the root, always entering the first child (stored order)
    whose subtree still has >= s vertices.
    """
    return tree.order[tree.cut_vertex(0, [], s)]


@dataclass(frozen=True)
class CrossingIso:
    """Order-preserving bijection from an interval minus its highest vertex
    onto a plain interval, preserving host edges, crossings, and the height
    maximum (identity when the removed vertex is an interval endpoint)."""

    source: Interval
    removed: int
    target: Interval

    def source_vertices(self) -> list[int]:
        return [i for i in self.source if i != self.removed]

    def forward(self, u: int) -> int:
        if u not in self.source or u == self.removed:
            raise IndexOutOfRange(f"{u} not in source {self.source} minus {self.removed}")
        rank = u - self.source.lo - (1 if u > self.removed else 0)
        return self.target.lo + rank

    def inverse(self, w: int) -> int:
        if w not in self.target:
            raise IndexOutOfRange(f"{w} not in target {self.target}")
        rank = w - self.target.lo
        u = self.source.lo + rank
        return u if u < self.removed else u + 1

    def pull_back(self, mapping: dict[int, int]) -> dict[int, int]:
        """A map onto the target carried back to the source minus the
        removed vertex."""
        return {t: self.inverse(g) for t, g in mapping.items()}


def iso_interval(G: UniversalGraph, interval: Interval, k: int) -> tuple[Interval, CrossingIso]:
    """Crossing-preserving isomorphism from G(interval) - v_k onto an interval.

    k must be the interval's highest vertex.  For interior k the interval may
    contain neither the right child of v_k nor any vertex from the subtree of
    the left child of v_k's left sibling; both clauses are checked.
    """
    lo, hi = interval.lo, interval.hi
    if len(interval) < 2:
        raise IntervalTooSmall(f"iso_interval needs >= 2 vertices, got {interval}")
    if k not in interval:
        raise PreconditionViolated(f"k={k} outside {interval}")
    if k != G.highest_in(lo, hi):
        raise PreconditionViolated(f"k={k} is not the highest vertex of {interval}")
    if k == lo:
        target = Interval(lo + 1, hi)
    elif k == hi:
        target = Interval(lo, hi - 1)
    else:
        shape = G.shape
        ls = btree.left_sibling(shape, k)
        if ls is None:
            raise InternalInvariantBroken(
                f"interior interval maximum {k} is not a right child")
        w = btree.subtree_size(shape, k)
        if w < 3:
            raise InternalInvariantBroken(
                f"interior interval maximum {k} is a leaf yet {interval} extends past it")
        d = (w - 1) // 2  # size of each subtree one level below v_k
        right_child = k + 1 + d
        if right_child <= hi:
            raise PreconditionViolated(
                f"right child {right_child} of the highest vertex lies in {interval}")
        # subtree of the left sibling's left child is [ls+1, ls+d]
        if ls + d >= lo:
            raise PreconditionViolated(
                f"subtree [{ls + 1}, {ls + d}] of the left sibling's left child "
                f"meets {interval}")
        if lo - d < 0:
            raise InternalInvariantBroken("shift would leave the host")
        target = Interval(lo - d, hi - d - 1)
    return target, CrossingIso(source=interval, removed=k, target=target)


def transfer_via_isomorphism(iso: CrossingIso, emb: Embedding) -> Embedding:
    """Pull an embedding on the iso's target interval back to the source minus
    its highest vertex."""
    if set(emb.mapping.values()) != set(iso.target):
        raise DomainMismatch(
            f"embedding image does not cover target {iso.target} exactly")
    return Embedding(emb.host_n, iso.pull_back(emb.mapping),
                     emb.provenance + [("transfer", (iso.source.lo, iso.source.hi))])


def replace_highest(G: UniversalGraph, interval: Interval, emb: Embedding,
                    x: int) -> Embedding:
    """Remap the tree vertex sitting on the interval's highest host vertex to
    host vertex x, which must lie outside the interval and be higher than
    every interval vertex except possibly the highest one."""
    lo, hi = interval.lo, interval.hi
    if set(emb.mapping.values()) != set(interval):
        raise DomainMismatch(f"embedding image does not cover {interval} exactly")
    k = G.highest_in(lo, hi)
    mapping = dict(emb.mapping)
    _replace(G, lo, hi, mapping, next(t for t, g in mapping.items() if g == k), x)
    return Embedding(emb.host_n, mapping,
                     emb.provenance + [("replace", (lo, hi))])


def _replace(G: UniversalGraph, lo: int, hi: int, mapping: dict[int, int],
             t0: int, x: int) -> None:
    """Move tree vertex t0 from the highest vertex k of [lo, hi], where it
    sits, to host vertex x, which must lie outside [lo, hi] and be higher
    than every other vertex of it: than the highest on each side of k."""
    if lo <= x <= hi:
        raise PreconditionViolated(f"replacement vertex {x} lies inside [{lo}, {hi}]")
    k = mapping[t0]
    for a, b in ((lo, k - 1), (k + 1, hi)):
        if a <= b and not G.higher(x, w := G.highest_in(a, b)):
            raise PreconditionViolated(
                f"replacement vertex {x} is not higher than interval vertex {w}")
    mapping[t0] = x


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------


class _Recursion:
    """One embedding run: the host, the rooting, the provenance list, and
    the depth bound."""

    def __init__(self, G: UniversalGraph, T: RootedTree):
        self.G, self.T, self.prov = G, T, []
        self.max_depth = DEPTH_PER_LEVEL * G.shape.h

    def single(self, a: int, ex: list, lo: int, hi: int, depth: int) -> dict[int, int]:
        """Embed the piece (a, ex) onto [lo, hi]; portal a lands on the
        interval's highest vertex."""
        if depth > self.max_depth:
            raise InternalInvariantBroken(f"recursion deeper than {self.max_depth} levels")
        k = self.G.highest_in(lo, hi)
        mp, label = self._single_cases(a, ex, lo, hi, k, depth + 1)
        self.prov.append((label, (lo, hi)))
        a = self.T.order[a]
        if mp.get(a) != k:
            raise InternalInvariantBroken(
                f"portal {a} landed on {mp.get(a)}, expected interval maximum {k}")
        if len(mp) != hi - lo + 1 or set(mp.values()) != set(range(lo, hi + 1)):
            raise InternalInvariantBroken(f"piece does not fill [{lo}, {hi}] exactly")
        if TRACE_HOOK is not None:
            TRACE_HOOK(("single", a, lo, hi, dict(mp)))
        return mp

    def _single_cases(self, a: int, ex: list, lo: int, hi: int, k: int,
                      depth: int) -> tuple[dict[int, int], str]:
        T = self.T
        nverts = hi - lo + 1
        if T.count(a, ex) != nverts:
            raise InternalInvariantBroken(
                f"tree has {T.count(a, ex)} vertices for interval [{lo}, {hi}]")
        if nverts == 1:
            return {T.order[a]: lo}, "base"

        shape = self.G.shape
        kids = T.kids(a, ex)

        if len(kids) >= 2:
            # Branching portal: lay the child subtrees left-to-right over the
            # interval minus k; the chunk next to k absorbs k and keeps the portal.
            cells = [i for i in range(lo, hi + 1) if i != k]
            return self._spread(a, ex, kids, lo, cells, k, k, depth), "case-1.1"

        a2 = kids[0][0]
        tp = T.keep(ex, a2)

        if k == hi or k == lo:
            mp = self.single(a2, tp, lo + (k == lo), hi - (k == hi), depth)
            mp[T.order[a]] = k
            return mp, "case-1.2.1" if k == hi else "case-1.2.2"

        ls = btree.left_sibling(shape, k)
        if ls is None:
            raise InternalInvariantBroken(f"interior maximum {k} is not a right child")
        if ls >= lo:
            # The left sibling sits in the interval; it must be the left endpoint
            # and is higher than everything but k, so the deg-1 portal moves there.
            if ls != lo:
                raise InternalInvariantBroken(
                    f"left sibling {ls} inside [{lo}, {hi}] but not at its left end")
            mp = self.single(a2, tp, lo + 1, hi, depth)
            _replace(self.G, lo + 1, hi, mp, T.order[a2], lo)  # a2 took k
            mp[T.order[a]] = k
            return mp, "case-1.2.3"

        w = btree.subtree_size(shape, k)
        d = (w - 1) // 2
        right_child = k + 1 + d if w >= 3 else None

        if right_child is None or right_child > hi:
            return self._case_1_2_4(a, a2, tp, lo, hi, k, depth)
        return self._case_1_2_5(a, a2, tp, lo, hi, k, right_child, depth)

    def _spread(self, v: int, ex: list, kids: list[tuple[int, int]], lo: int,
                cells: list[int], x: int, k: int, depth: int) -> dict[int, int]:
        # Lay v's children in the piece over cells, left to right, one chunk
        # each; the chunk beside host vertex x (or the first, if x is lo)
        # absorbs x and keeps v.  A chunk that spans the interval maximum k
        # is embedded beside it and shifted back.
        T, chs, i = self.T, [], 0
        for _, sz in kids:
            chs.append(cells[i:i + sz])
            i += sz
        q = next((j for j, ch in enumerate(chs) if ch[0] <= x - 1 <= ch[-1]),
                 0 if x == lo else None)
        if q is None:
            raise InternalInvariantBroken(f"no chunk borders {x}")
        mp: dict[int, int] = {}
        for j, ((child, _), ch) in enumerate(zip(kids, chs)):
            if j == q:
                continue
            span = ch[-1] - ch[0] + 1
            if span == len(ch):
                mp.update(self.single(child, T.keep(ex, child), ch[0], ch[-1], depth))
            elif span == len(ch) + 1 and ch[0] < k < ch[-1]:
                target, iso = iso_interval(self.G, Interval(ch[0], ch[-1]), k)
                piece = self.single(child, T.keep(ex, child), target.lo, target.hi, depth)
                mp.update(iso.pull_back(piece))
            else:
                raise InternalInvariantBroken("chunk neither interval nor maximum-split")
        qlo, qhi = min(chs[q][0], x), max(chs[q][-1], x)
        if qhi - qlo + 1 != len(chs[q]) + 1:
            raise InternalInvariantBroken(f"chunk beside {x} plus {x} is not an interval")
        kq = kids[q][0]
        mp.update(self.single(v, T.keep(ex, v, kq, kq + T.size[kq]), qlo, qhi, depth))
        return mp

    def _rest(self, a2: int, tp: list, c: int, lo: int, hi: int,
              depth: int) -> dict[int, int]:
        # The piece (a2, tp) minus c's subtree, portaled at a2 and c's parent.
        cp = self.T.parent[c]
        rem = self.T.cut(tp, c)
        if cp == a2:
            return self.single(a2, rem, lo, hi, depth)
        return self.two(a2, rem, cp, lo, hi, depth)

    def _case_1_2_4(self, a: int, a2: int, tp: list, lo: int, hi: int, k: int,
                    depth: int) -> tuple[dict[int, int], str]:
        # Interval maximum is interior, right child and left sibling both outside.
        # Cut the rest of the tree so that a piece H with s <= |H| <= 2s-2
        # vertices fills [hi-|H|, hi] minus v_k via the interval isomorphism.
        T = self.T
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
        target, iso = iso_interval(self.G, Interval(hi - m, hi), k)
        phi_h = self.single(c, h_ex, target.lo, target.hi, depth)
        mp = iso.pull_back(phi_h)
        c_id = T.order[c]
        if mp[c_id] != k + 1:
            raise InternalInvariantBroken(
                f"cut vertex landed on {mp[c_id]}, expected second-highest {k + 1}")
        mp[T.order[a]] = k

        cur = hi - m - sum(sz for _, sz in kids[l:])
        rem_hi = cur - 1
        for child, sz in kids[l:]:
            mp.update(self.single(child, T.keep(tp, child), cur, cur + sz - 1, depth))
            cur += sz

        if c != a2:
            mp.update(self._rest(a2, tp, c, lo, rem_hi, depth))
        elif rem_hi != lo - 1:
            raise InternalInvariantBroken("pieces do not tile the interval")
        return mp, "case-1.2.4"

    def _case_1_2_5(self, a: int, a2: int, tp: list, lo: int, hi: int, k: int,
                    r: int, depth: int) -> tuple[dict[int, int], str]:
        # The right child v_r of the interval maximum lies in the interval; it is
        # the second-highest vertex of [lo, hi].
        T = self.T
        s = hi - r + 1
        c = T.cut_vertex(a2, tp, s)
        m = T.count(c, T.keep(tp, c))

        if m <= hi - k - 1:
            # 1.2.5.1: the window [hi-m, hi] contains v_r but not v_k.  Embed the
            # rest with two portals, move whichever vertex took v_k up to v_r,
            # and hang {c's parent} + T(c) over the window, discarding the
            # parent's scaffold position v_r.
            psi1 = self._rest(a2, tp, c, lo, hi - m - 1, depth)
            _replace(self.G, lo, hi - m - 1, psi1,
                     next(t for t, g in psi1.items() if g == k), r)
            cp = T.parent[c]
            psi2 = self.single(cp, T.keep(tp, cp, c, c + T.size[c]), hi - m, hi, depth)
            cp_id = T.order[cp]
            if psi2[cp_id] != r:
                raise InternalInvariantBroken(
                    f"scaffold portal landed on {psi2[cp_id]}, expected {r}")
            del psi2[cp_id]
            mp = psi1
            mp.update(psi2)
            mp[T.order[a]] = k
            return mp, "case-1.2.5.1"

        # 1.2.5.2: the window [hi-m, hi] contains both v_k and v_r.  Children of c
        # tile the window minus {k, r}; the chunk beside r absorbs r and keeps c.
        wlo = hi - m
        if not wlo <= k < r <= hi:
            raise InternalInvariantBroken("window misses k or r")
        kids = T.kids(c, tp)
        if not kids:
            raise InternalInvariantBroken("cut vertex is a leaf yet its subtree spans the window")
        cells = [i for i in range(wlo, hi + 1) if i != k and i != r]
        mp = self._spread(c, tp, kids, wlo, cells, r, k, depth)
        if mp[T.order[c]] != r:
            raise InternalInvariantBroken(
                f"cut vertex landed on {mp[T.order[c]]}, expected {r}")

        if c != a2:
            mp.update(self._rest(a2, tp, c, lo, wlo - 1, depth))
        elif wlo != lo:
            raise InternalInvariantBroken("window does not reach the interval start")
        mp[T.order[a]] = k
        return mp, "case-1.2.5.2"

    def two(self, a: int, ex: list, b: int, lo: int, hi: int,
            depth: int) -> dict[int, int]:
        """Embed with two portals: split along the a-b path into one block per
        path vertex, left to right, each block embedded with a single portal."""
        T, G = self.T, self.G
        path = [b]
        while path[-1] > a:
            path.append(T.parent[path[-1]])
        if path[-1] != a:
            raise InternalInvariantBroken(f"portal {T.order[b]} is not below {T.order[a]}")
        path.reverse()
        mp: dict[int, int] = {}
        cur = lo
        for idx, cx in enumerate(path):
            block = T.keep(ex, cx)
            if idx + 1 < len(path):
                block = T.cut(block, path[idx + 1])
            size = T.count(cx, block)
            mp.update(self.single(cx, block, cur, cur + size - 1, depth))
            cur += size
        if cur != hi + 1:
            raise InternalInvariantBroken("path blocks do not tile the interval")
        a, b = T.order[a], T.order[b]
        pa, pb = mp[a], mp[b]
        if pa >= pb:
            raise InternalInvariantBroken("left portal not left of right portal")
        # The blocks tile [lo, hi], so the highest vertex on each side decides.
        if lo < pa and G.higher(G.highest_in(lo, pa - 1), pa):
            raise InternalInvariantBroken("vertex in upper-left quarter plane of left portal")
        if pb < hi and G.higher(G.highest_in(pb + 1, hi), pb):
            raise InternalInvariantBroken("vertex in upper-right quarter plane of right portal")
        self.prov.append(("case-2", (lo, hi)))
        if TRACE_HOOK is not None:
            TRACE_HOOK(("two", (a, b), lo, hi, dict(mp)))
        return mp


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def embed_tree(G: UniversalGraph, tree: RootedTree,
               portals: int | tuple[int, int],
               interval: Interval | None = None) -> Embedding:
    """Embed one tree onto a host interval with one or two portal vertices.

    The tree must be rooted at the first portal.  The recursion nests at
    most DEPTH_PER_LEVEL * h single-portal calls on a host of height h and
    raises InternalInvariantBroken past that.
    """
    if interval is None:
        interval = Interval(0, G.n - 1)
    if not (0 <= interval.lo and interval.hi < G.n):
        raise IndexOutOfRange(f"{interval} outside host [0, {G.n})")
    if len(interval) != tree.n:
        raise SizeMismatch(
            f"tree has {tree.n} vertices but interval {interval} has {len(interval)}")
    a, b = portals if isinstance(portals, tuple) else (portals, None)
    if isinstance(portals, tuple) and a == b:
        raise EqualIndices(f"two-portal embedding needs distinct portals, got {a}")
    if a != tree.root:
        raise PreconditionViolated(f"first portal {a} is not the root {tree.root}")
    run = _Recursion(G, tree)
    if b is None:
        mapping = run.single(0, [], interval.lo, interval.hi, 1)
    else:
        if b not in tree.order:
            raise IndexOutOfRange(f"portal {b} not a tree vertex")
        mapping = run.two(0, [], tree.order.index(b), interval.lo, interval.hi, 1)
    return Embedding(G.n, mapping, run.prov)


def embed_forest(G: UniversalGraph, forest: Forest) -> Embedding:
    """Embed a forest: components, ordered by smallest vertex id, go onto
    consecutive host intervals; each is rooted at its smallest vertex, which
    serves as the component's single portal."""
    if forest.n != G.n:
        raise SizeMismatch(f"forest has {forest.n} vertices, host has {G.n}")
    mapping: dict[int, int] = {}
    prov: list = []
    placed = [False] * forest.n
    cur = 0
    for root in range(forest.n):
        if placed[root]:
            continue
        tree = RootedTree.from_adjacency(forest.adj, root)
        for v in tree.order:
            placed[v] = True
        span = Interval(cur, cur + tree.n - 1)
        sub = embed_tree(G, tree, root, span)
        mapping.update(sub.mapping)
        prov.extend(sub.provenance)
        prov.append(("forest-component", (span.lo, span.hi)))
        cur += tree.n
    return Embedding(G.n, mapping, prov)
