"""Input graphs: forests, rooted trees, caterpillars.

Vertices are 0-based global ids.  Child order everywhere is the order in
which edges were supplied, which keeps every downstream construction
deterministic for a given input.

`RootedTree` is the one rooted-tree format in the package, the workbench
included: a tree rooted once, held as preorder arrays, with the helpers
that describe a piece of it (a subtree minus a few preorder ranges) without
copying anything.  `from_adjacency` roots a component of a `Forest`, and
`Forest.trees` roots each component in one walk over the forest;
`from_levels` is the one decoder of level sequences, the form in which the
workbench enumerates ordered and rooted trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count
from typing import Iterator

from .errors import (
    DegenerateEdge,
    IndexOutOfRange,
    InvalidS,
    InvalidSize,
    MalformedInput,
    NotACaterpillar,
)


@dataclass
class Forest:
    """Simple acyclic graph on vertices 0..n-1."""

    n: int
    edges: list[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise MalformedInput(f"forest needs n >= 1, got {self.n}")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        parent = list(range(self.n))  # union-find for the acyclicity check

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IndexOutOfRange(f"edge ({u}, {v}) outside [0, {self.n})")
            if u == v:
                raise DegenerateEdge(f"self-loop at {u}")
            ru, rv = find(u), find(v)
            if ru == rv:  # a repeated edge closes a cycle of two
                if v in adj[u]:
                    raise MalformedInput(f"duplicate edge {(min(u, v), max(u, v))}")
                raise MalformedInput(f"edge ({u}, {v}) closes a cycle")
            parent[ru] = rv
            adj[u].append(v)
            adj[v].append(u)
        self.adj = adj

    def trees(self) -> Iterator["RootedTree"]:
        """Each component rooted at its smallest vertex, in order of that
        vertex, by `RootedTree.from_adjacency`."""
        seen = [False] * self.n
        for root in range(self.n):
            if not seen[root]:
                tree = RootedTree.from_adjacency(self.adj, root)
                for v in tree.order:
                    seen[v] = True
                yield tree

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        return [sorted(t.order) for t in self.trees()]

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


@dataclass
class RootedTree:
    """A tree rooted once, in preorder.

    Position i holds vertex `order[i]`; its subtree is the positions
    [i, i + size[i]), and its children, in adjacency order, start at i + 1
    and follow each other by subtree size.  `parent[i]` is the position of
    its parent, -1 at the root.

    A piece (v, ex) is the subtree at position v minus the sorted position
    ranges ex, which lie in (v, v + size[v]).  Each range is a run of
    consecutive sibling subtrees, so it holds no piece vertex and holds or
    misses any piece subtree whole.
    """

    order: list[int]
    parent: list[int]
    size: list[int]

    @property
    def root(self) -> int:
        return self.order[0]

    @property
    def n(self) -> int:
        return len(self.order)

    @classmethod
    def from_adjacency(cls, adj, root: int) -> "RootedTree":
        """Root the component of `root` in one pass over `adj[v]` lists."""
        order: list[int] = []
        parent: list[int] = []
        todo = [(root, -1)]  # (vertex, parent position), next on top
        while todo:
            v, p = todo.pop()
            i = len(order)
            order.append(v)
            parent.append(p)
            up = order[p] if p >= 0 else -1
            for w in reversed(adj[v]):
                if w != up:
                    todo.append((w, i))
        size = [1] * len(order)
        for i in range(len(order) - 1, 0, -1):
            size[parent[i]] += size[i]
        return cls(order, parent, size)

    @classmethod
    def from_levels(cls, level: list[int]) -> "RootedTree":
        """Decode a level sequence: the depths of an ordered tree in
        preorder, the root at 1, each next depth between 2 and one more than
        the last.  Vertex i sits at position i, and its parent is the last
        vertex before it one level up."""
        last = [-1] * (len(level) + 1)
        parent = []
        for i, lv in enumerate(level):
            parent.append(last[lv - 1])
            last[lv] = i
        size = [1] * len(level)
        for i in range(len(level) - 1, 0, -1):
            size[parent[i]] += size[i]
        return cls(list(range(len(level))), parent, size)

    def count(self, v: int, ex: list) -> int:
        n = self.size[v]
        for s, e in ex:
            n -= e - s
        return n

    def kids(self, v: int, ex: list) -> list[tuple[int, int]]:
        """Children of v in the piece, in order, with their piece sizes.

        One pass over the children and ex together: ex is sorted, so the
        ranges inside a child's subtree are the next ones starting before
        the subtree ends."""
        size, out = self.size, []
        c, end = v + 1, v + size[v]
        if not ex:
            while c < end:
                out.append((c, size[c]))
                c += size[c]
            return out
        i, m = 0, len(ex)
        while i < m and ex[i][0] <= v:  # ranges left of v's subtree
            i += 1
        while c < end:
            if i < m and ex[i][0] == c:  # a run of excluded children
                c = ex[i][1]
                i += 1
                continue
            nxt = c + size[c]
            sz = size[c]
            while i < m and ex[i][0] < nxt:
                sz -= ex[i][1] - ex[i][0]
                i += 1
            out.append((c, sz))
            c = nxt
        return out

    def keep(self, ex: list, v: int, start: int | None = None,
             stop: int | None = None) -> list:
        """Ranges of the piece made of v and the part [start, stop) of its
        subtree (all of it by default), which starts and ends at children."""
        end = v + self.size[v]
        if start is None and stop is None:
            return [r for r in ex if v < r[0] and r[1] <= end] if ex else []
        start = v + 1 if start is None else start
        stop = end if stop is None else stop
        return ([(v + 1, start)] if v + 1 < start else []) + [
            r for r in ex if start <= r[0] and r[1] <= stop] + (
            [(stop, end)] if stop < end else [])

    def cut(self, ex: list, x: int) -> list:
        """Ranges of the piece with x's subtree removed too."""
        end = x + self.size[x]
        if not ex:
            return [(x, end)]
        return [r for r in ex if r[1] <= x] + [(x, end)] + [r for r in ex if r[0] >= end]

    def path_blocks(self, ex: list, path: list[int]):
        """Ranges of the blocks of the piece (path[0], ex) along a path down
        from it, each vertex the parent of the next, yielded in path order:
        path[i]'s block is its piece less path[i + 1]'s subtree, and
        path[-1]'s is its piece.  Each range of ex falls in one block; of
        those left over, the ones before the next subtree come first in ex
        and the ones after it last."""
        size, i, j = self.size, 0, len(ex)
        for x in path[1:]:
            end, left, right = x + size[x], i, j
            while i < j and ex[i][0] < x:
                i += 1
            while j > i and ex[j - 1][0] >= end:
                j -= 1
            yield ex[left:i] + [(x, end)] + ex[j:right]
        yield ex[i:j]

    def cut_vertex(self, v: int, ex: list, s: int) -> int:
        """Walk down from v, always into the first child whose piece subtree
        still has >= s vertices; return where the walk stops.

        One pass in preorder: a child too small is stepped over with the
        ranges inside it, and the walk enters the first one big enough."""
        n = self.count(v, ex)
        if n < 2:
            raise InvalidSize(f"cut_vertex needs a tree on >= 2 vertices, got {n}")
        if not 1 <= s <= n:
            raise InvalidS(f"s {s} not in [1, {n}]")
        size, i, m = self.size, 0, len(ex)
        c, d, end = v, v + 1, v + size[v]  # d: the next child of c to weigh
        while d < end:
            if i < m and ex[i][0] == d:
                d = ex[i][1]
                i += 1
                continue
            nxt, sz, j = d + size[d], size[d], i
            while j < m and ex[j][0] < nxt:
                sz -= ex[j][1] - ex[j][0]
                j += 1
            if sz >= s:
                c, d, end = d, d + 1, nxt
            else:
                d, i = nxt, j
        return c


@dataclass(frozen=True)
class Caterpillar:
    """A tree whose non-leaf vertices form a path (the spine).

    `leaves[i]` lists the leaf vertices hanging off spine vertex `spine[i]`.
    Single vertices and single edges use a one-vertex spine.
    """

    spine: tuple[int, ...]
    leaves: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.spine:
            raise MalformedInput("caterpillar needs a nonempty spine")
        if len(self.leaves) != len(self.spine):
            raise MalformedInput("one leaf group per spine vertex required")
        if len(set(chain(self.spine, chain.from_iterable(self.leaves)))) != self.n:
            raise MalformedInput("duplicate vertex id in caterpillar")

    @property
    def n(self) -> int:
        return len(self.spine) + sum(map(len, self.leaves))

    def star_sizes(self) -> tuple[int, ...]:
        return tuple(1 + len(g) for g in self.leaves)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The spine path, then each spine vertex's leaf edges."""
        return (list(zip(self.spine, self.spine[1:]))
                + [(u, leaf) for u, group in zip(self.spine, self.leaves) for leaf in group])

    def to_forest(self) -> Forest:
        return Forest(self.n, self.edges)


def caterpillar_spine(forest: Forest) -> Caterpillar:
    """Recognize a caterpillar and extract its spine, or raise NotACaterpillar.

    The spine is the set of non-leaf vertices, ordered along the path starting
    from its endpoint with the smaller id.  Trees on one or two vertices get
    the smallest vertex as a one-vertex spine.

    On n >= 3 vertices the non-leaf vertices induce a nonempty subtree.  One
    walk reads the degree array and each spine vertex's adjacency once: from
    the smallest non-leaf vertex it goes both ways, taking the leaves of each
    spine vertex as its group and its one other non-leaf neighbor as the next
    step.  A vertex with more non-leaf neighbors than that is a branch, and a
    walk without one has met every vertex of the subtree, which is then a
    path whose ends are the walk's.
    """
    if not forest.is_tree():  # n - 1 edges and no cycle: connected
        raise NotACaterpillar("input is not a connected tree")
    n = forest.n
    if n <= 2:
        spine = [0]
        leaves = [tuple(v for v in range(1, n))]
        return Caterpillar(tuple(spine), tuple(leaves))
    adj = forest.adj
    deg = list(map(len, adj))
    branch = "non-leaf vertices do not form a path"
    x = next(compress(count(), map((1).__lt__, deg)))
    ways = [w for w in adj[x] if deg[w] > 1]
    if len(ways) > 2:
        raise NotACaterpillar(branch)
    ways += [-1, -1]  # -1: no step that way
    halves = []
    for nxt in ways[:2]:
        spine, groups, prev = [], [], x
        while nxt >= 0:
            cur, nxt, group = nxt, -1, []
            for w in adj[cur]:
                if deg[w] == 1:
                    group.append(w)
                elif w != prev:
                    if nxt >= 0:
                        raise NotACaterpillar(branch)
                    nxt = w
            if len(group) > 1:
                group.sort()
            spine.append(cur)
            groups.append(tuple(group))
            prev = cur
        halves.append((spine, groups))
    (spine, groups), (back, back_groups) = halves
    spine.reverse()
    groups.reverse()
    spine.append(x)
    groups.append(tuple(sorted(w for w in adj[x] if deg[w] == 1)))
    spine += back
    groups += back_groups
    if spine[-1] < spine[0]:
        spine.reverse()
        groups.reverse()
    return Caterpillar(tuple(spine), tuple(groups))
