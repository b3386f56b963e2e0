"""Seeded input generators for the benchmark.

They live here, not in ugg.workbench, so that a change to the program cannot
change the inputs it is measured on.  Trees come back as edge lists on
vertices 0..n-1; two-chord cycles as a pair of chords on the n-cycle.
"""

from __future__ import annotations

import heapq
import random
from math import isqrt


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree: decode a random Pruefer sequence."""
    if n < 3:
        return [(i, i + 1) for i in range(n - 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def path_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def binary_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Complete binary tree in heap order."""
    return [((i - 1) // 2, i) for i in range(1, n)]


def caterpillar_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A spine of half the vertices; every other vertex is a leaf on a random
    spine vertex.  The spine length is fixed so that a seed cannot turn the
    caterpillar into a near-star, whose cost is the star's."""
    if n < 3:
        return path_tree(n, rng)
    s = n // 2
    edges = [(i, i + 1) for i in range(s - 1)]
    edges.extend((rng.randrange(s), v) for v in range(s, n))
    return edges


def spider_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """isqrt(n) legs of near-equal length around vertex 0."""
    legs = isqrt(n)
    edges, nxt = [], 1
    for leg in range(legs):
        prev = 0
        for _ in range((n - 1) // legs + (leg < (n - 1) % legs)):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


SHAPES = {
    "random": random_tree,
    "path": path_tree,
    "star": star_tree,
    "binary": binary_tree,
    "caterpillar": caterpillar_tree,
    "spider": spider_tree,
}


def shuffle_labels(n: int, edges: list[tuple[int, int]],
                   rng: random.Random) -> list[tuple[int, int]]:
    """Rename vertices by a random permutation; shuffle edge order and
    orientation too."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in edges]
    rng.shuffle(out)
    return out


def two_chord_cycle(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Two vertex-disjoint, non-interleaving chords of the n-cycle (n >= 6),
    neither of them a cycle edge, under a random rotation and reflection."""
    while True:
        a, b, c, d = sorted(rng.sample(range(n), 4))
        chords = ((a, b), (c, d)) if rng.random() < 0.5 else ((a, d), (b, c))
        if all(min(v - u, n - (v - u)) >= 2 for u, v in chords):
            break
    r, flip = rng.randrange(n), rng.random() < 0.5
    moved = []
    for u, v in chords:
        u, v = ((r - u) % n, (r - v) % n) if flip else ((u + r) % n, (v + r) % n)
        moved.append((min(u, v), max(u, v)))
    return tuple(sorted(moved))
