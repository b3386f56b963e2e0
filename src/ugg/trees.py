"""Input graphs: forests, rooted trees, caterpillars.

Vertices are 0-based global ids.  Child order everywhere is the order in
which edges were supplied, which keeps every downstream construction
deterministic for a given input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateEdge,
    IndexOutOfRange,
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
        seen: set[tuple[int, int]] = set()
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
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise MalformedInput(f"duplicate edge {key}")
            seen.add(key)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise MalformedInput(f"edge ({u}, {v}) closes a cycle")
            parent[ru] = rv
            adj[u].append(v)
            adj[v].append(u)
        self.adj = adj

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        seen = [False] * self.n
        comps: list[list[int]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


@dataclass
class RootedTree:
    """A tree with a distinguished root and ordered children.

    `children` preserves input adjacency order; `size[v]` is the number of
    vertices in the subtree rooted at v.
    """

    root: int
    vertices: list[int]
    children: dict[int, list[int]]
    parent: dict[int, int | None]
    size: dict[int, int]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def subtree_vertices(self, v: int) -> list[int]:
        out: list[int] = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self.children[u])
        return out

    @classmethod
    def from_adjacency(cls, adj: dict[int, list[int]], root: int) -> "RootedTree":
        children: dict[int, list[int]] = {}
        parent: dict[int, int | None] = {root: None}
        vertices: list[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            vertices.append(v)
            kids = [w for w in adj[v] if w != parent[v]]
            children[v] = kids
            for w in kids:
                parent[w] = v
            stack.extend(reversed(kids))
        size: dict[int, int] = {}
        for v in reversed(vertices):  # preorder: children come after their parent
            size[v] = 1 + sum(size[c] for c in children[v])
        return cls(root=root, vertices=vertices, children=children, parent=parent, size=size)


def root_component(forest: Forest, comp: list[int], root: int) -> RootedTree:
    adj = {v: list(forest.adj[v]) for v in comp}
    return RootedTree.from_adjacency(adj, root)


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
        ids = list(self.spine) + [v for g in self.leaves for v in g]
        if len(set(ids)) != len(ids):
            raise MalformedInput("duplicate vertex id in caterpillar")

    @property
    def n(self) -> int:
        return len(self.spine) + sum(len(g) for g in self.leaves)

    def star_sizes(self) -> tuple[int, ...]:
        return tuple(1 + len(g) for g in self.leaves)

    def to_forest(self) -> Forest:
        edges: list[tuple[int, int]] = []
        for i in range(len(self.spine) - 1):
            edges.append((self.spine[i], self.spine[i + 1]))
        for u, group in zip(self.spine, self.leaves):
            for leaf in group:
                edges.append((u, leaf))
        return Forest(self.n, edges)


def caterpillar_spine(forest: Forest) -> Caterpillar:
    """Recognize a caterpillar and extract its spine, or raise NotACaterpillar.

    The spine is the set of non-leaf vertices, ordered along the path starting
    from its endpoint with the smaller id.  Trees on one or two vertices get
    the smallest vertex as a one-vertex spine.
    """
    if not forest.is_tree() or len(forest.components()) != 1:
        raise NotACaterpillar("input is not a connected tree")
    n = forest.n
    if n <= 2:
        spine = [0]
        leaves = [tuple(v for v in range(1, n))]
        return Caterpillar(tuple(spine), tuple(leaves))
    deg = [len(forest.adj[v]) for v in range(n)]
    spine_set = [v for v in range(n) if deg[v] >= 2]
    if not spine_set:
        raise NotACaterpillar("no non-leaf vertices")  # unreachable for n >= 3
    inner_deg = {v: sum(1 for w in forest.adj[v] if deg[w] >= 2) for v in spine_set}
    if any(d > 2 for d in inner_deg.values()):
        raise NotACaterpillar("non-leaf vertices do not form a path")
    ends = [v for v in spine_set if inner_deg[v] <= 1]
    if len(spine_set) == 1:
        order = [spine_set[0]]
    else:
        if len(ends) != 2:
            raise NotACaterpillar("non-leaf vertices do not form a single path")
        order = [min(ends)]
        prev = None
        while True:
            nxt = [w for w in forest.adj[order[-1]]
                   if deg[w] >= 2 and w != prev]
            if not nxt:
                break
            prev = order[-1]
            order.append(nxt[0])
        if len(order) != len(spine_set):
            raise NotACaterpillar("non-leaf vertices do not form a single path")
    leaves = tuple(
        tuple(sorted(w for w in forest.adj[v] if deg[w] == 1)) for v in order
    )
    return Caterpillar(tuple(order), leaves)
