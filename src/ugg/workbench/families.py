"""Exhaustive enumerators and counting oracles for small input families.

Enumeration and counting are deliberately independent routes.  Trees and
forests come from canonical level sequences with canonical-form rejection,
caterpillars from star-size compositions up to reversal, and chorded cycles
from endpoint sequences: the 2h chord endpoints in cyclic order, a
non-crossing perfect matching on them and the arcs between them, kept when
no symmetry sending an endpoint to 0 gives a smaller chord tuple.  The
counting functions use arithmetic recurrences and, for chorded cycles,
Burnside's lemma over the same endpoint sequences.  Tests compare the two,
and the labeled chorded-cycle census stays as the slow oracle for both.

Canonical forms are computed on `RootedTree`, rooted once.  A level
sequence is decoded by `RootedTree.from_levels`, and each component of a
forest is rooted at its smallest vertex by `Forest.trees`.  `free_code`
then codes the free tree from that rooting alone: one bottom-up pass of
rooted codes, and one walk down the tallest children to the center that
carries the code of the part it leaves behind.  A forest's code is the
sorted tuple of its components' codes.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from operator import sub

from ..convex import ChordedCycle, ConvexHost, convex_edges_cross
from ..errors import (
    InvalidSize,
    NoSpanningCycle,
    SizeMismatch,
    SizeTooLarge,
)
from ..trees import Caterpillar, Forest, RootedTree

FOREST_CAP = 12
CATERPILLAR_CAP = 14
CHORDED_N_CAP = 30
CHORDED_H_CAP = 3


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def free_code(tree: RootedTree) -> str:
    """Canonical code of a free tree from any one rooting of it: equal
    strings iff the trees are isomorphic.

    Bottom up over `parent`, each position gets the code of its subtree,
    its children's codes sorted inside one pair of parentheses, and its
    height.  The free code is the tree rooted at its center, the smaller
    code of the two at two centers.  The walk from the root down a tallest
    child ends at a deepest vertex, which ends a longest path, so the
    centers lie on it.  The walk carries the code and height of the part it
    leaves behind (the tree minus the current subtree, hung from the current
    vertex) and stops where a step down would not bring the farthest vertex
    nearer."""
    parent = tree.parent
    parts: list[list[str]] = [[] for _ in parent]
    code, height = [""] * len(parent), [0] * len(parent)

    def wrap(codes: list[str]) -> str:
        return "(" + "".join(sorted(codes)) + ")"

    for i in range(len(parent) - 1, -1, -1):
        code[i] = wrap(parts[i])
        if i:
            parts[parent[i]].append(code[i])
            height[parent[i]] = max(height[parent[i]], height[i] + 1)
    v, up, up_h = 0, [], 0
    while height[v] > up_h:
        kids = sorted((height[c], c) for c, _ in tree.kids(v, []))
        c = kids[-1][1]
        left_h = 1 + max(kids[-2][0] + 1 if len(kids) > 1 else 0, up_h)
        if left_h > height[v]:  # two tallest children: v is the center
            break
        rest = parts[v] + up
        rest.remove(code[c])
        if left_h == height[v]:  # v and c are the two centers
            return min(wrap(parts[v] + up), wrap(parts[c] + [wrap(rest)]))
        v, up, up_h = c, [wrap(rest)], left_h
    return wrap(parts[v] + up)


def forest_code(n: int, edges: list[tuple[int, int]]) -> tuple[str, ...]:
    """Sorted tuple of component free codes; equal iff forests isomorphic."""
    return tuple(sorted(map(free_code, Forest(n, edges).trees())))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def rooted_level_sequences(n: int):
    """Canonical level sequences of all rooted trees on n vertices, in
    lexicographically decreasing order (path first, star last)."""
    level = list(range(1, n + 1))
    while True:
        yield level[:]
        p = next((i for i in range(n - 1, -1, -1) if level[i] > 2), None)
        if p is None:
            return
        q = next(i for i in range(p - 1, -1, -1) if level[i] == level[p] - 1)
        for i in range(p, n):
            level[i] = level[i - (p - q)]


def ordered_level_sequences(n: int) -> list[list[int]]:
    """Level sequences of all ordered rooted trees on n vertices, one per
    tree, in lexicographic order: every 1, l2, ..., ln with
    2 <= l(i+1) <= l(i) + 1.  There are Catalan(n - 1) of them."""
    _check_size(n, FOREST_CAP)
    seqs = [[1]]
    for _ in range(n - 1):
        seqs = [seq + [lv] for seq in seqs for lv in range(2, seq[-1] + 2)]
    return seqs


def _check_size(n: int, cap: int) -> None:
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    if n > cap:
        raise SizeTooLarge(f"n={n} above the cap {cap}")


def enumerate_trees(n: int) -> list[Forest]:
    """One representative per isomorphism class of free trees on n vertices."""
    _check_size(n, FOREST_CAP)
    seen: set[str] = set()
    out = []
    for level in rooted_level_sequences(n):
        tree = RootedTree.from_levels(level)
        code = free_code(tree)
        if code not in seen:
            seen.add(code)
            out.append(Forest(n, [(p, i) for i, p in enumerate(tree.parent) if i]))
    return out


def _partitions_desc(n: int, maxp: int):
    if n == 0:
        yield []
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in _partitions_desc(n - p, p):
            yield [p] + rest


@lru_cache(maxsize=FOREST_CAP)
def _tree_edges(s: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The edges of `enumerate_trees(s)`, enumerated once per size."""
    return tuple(tuple(tree.edges) for tree in enumerate_trees(s))


def enumerate_forests(n: int) -> list[Forest]:
    """One representative per isomorphism class of forests on n vertices:
    parts of each partition of n carry a multiset of tree classes."""
    _check_size(n, FOREST_CAP)
    trees = {s: _tree_edges(s) for s in range(1, n + 1)}
    out = []
    for part in _partitions_desc(n, n):
        sizes = sorted(Counter(part).items(), reverse=True)
        pools = [list(combinations_with_replacement(range(len(trees[s])), mult))
                 for s, mult in sizes]
        for combo in product(*pools):
            edges: list[tuple[int, int]] = []
            off = 0
            for (s, _), picks in zip(sizes, combo):
                for idx in picks:
                    edges.extend((u + off, v + off) for u, v in trees[s][idx])
                    off += s
            out.append(Forest(n, edges))
    return out


def _compositions(n: int, parts: int):
    # cut points 0 < c1 < ... < c(parts-1) < n in lexicographic order give
    # the part sizes in lexicographic order too.  Unpacking sizes each tuple
    # once; tuple(map(...)) would shrink a ten-slot guess and fragment the heap.
    for cuts in combinations(range(1, n), parts - 1):
        yield (*map(sub, (*cuts, n), (0, *cuts)),)


def _caterpillar_from_sizes(sizes: tuple[int, ...]) -> Caterpillar:
    s = len(sizes)
    spine = tuple(range(s))
    leaves = []
    nxt = s
    for sz in sizes:
        leaves.append(tuple(range(nxt, nxt + sz - 1)))
        nxt += sz - 1
    return Caterpillar(spine, tuple(leaves))


def enumerate_caterpillars(n: int) -> list[Caterpillar]:
    """One representative per isomorphism class.  A class is a sequence of
    star sizes along the spine, up to reversal; end stars need >= 2 vertices
    (a bare end spine vertex would itself be a leaf)."""
    _check_size(n, CATERPILLAR_CAP)
    if n == 1:
        return [Caterpillar((0,), ((),))]
    seen: set[tuple[int, ...]] = set()
    out = []
    for s in range(1, n + 1):
        for comp in _compositions(n, s):
            if s >= 2 and (comp[0] < 2 or comp[-1] < 2):
                continue
            canon = min(comp, tuple(reversed(comp)))
            if canon not in seen:
                seen.add(canon)
                out.append(_caterpillar_from_sizes(canon))
    return out


def _dihedral_images(n: int, chords: tuple[tuple[int, int], ...]):
    for r in range(n):
        for refl in (False, True):
            img = []
            for u, v in chords:
                fu = (r - u) % n if refl else (u + r) % n
                fv = (r - v) % n if refl else (v + r) % n
                img.append((min(fu, fv), max(fu, fv)))
            yield tuple(sorted(img))


def _dihedral_canonical(n: int, chords) -> tuple[tuple[int, int], ...]:
    return min(_dihedral_images(n, tuple(chords)))


def _chord_sets(n: int, h: int):
    """Backtracking over vertex-disjoint, noninterleaving chord h-sets on the
    labeled n-cycle, each set produced exactly once (sorted chord order)."""
    chords = [(u, v) for u in range(n) for v in range(u + 1, n)
              if min((v - u) % n, (u - v) % n) >= 2]

    def ok(c, chosen):
        for d in chosen:
            if set(c) & set(d) or convex_edges_cross(n, c, d):
                return False
        return True

    def bt(start: int, chosen: list):
        if len(chosen) == h:
            yield tuple(chosen)
            return
        for i in range(start, len(chords)):
            if ok(chords[i], chosen):
                chosen.append(chords[i])
                yield from bt(i + 1, chosen)
                chosen.pop()

    yield from bt(0, [])


def _check_chorded_caps(n: int, h: int) -> None:
    if n > CHORDED_N_CAP or h > CHORDED_H_CAP:
        raise SizeTooLarge(f"n={n}, h={h} beyond caps ({CHORDED_N_CAP}, {CHORDED_H_CAP})")
    if h < 0 or n < 2 * h + 2 or n < 3:
        raise InvalidSize(f"need n >= max(3, 2h+2), got n={n}, h={h}")


def _noncrossing_matchings(m: int) -> list[tuple[int, ...]]:
    """Every non-crossing perfect matching of the endpoint indices 0..m-1
    (m even), as a partner tuple: index i is matched to partner[i]."""
    if m == 0:
        return [()]
    out = []
    for j in range(1, m, 2):
        for inner in _noncrossing_matchings(j - 1):
            for outer in _noncrossing_matchings(m - j - 1):
                out.append((j,) + tuple(i + 1 for i in inner) + (0,)
                           + tuple(i + j + 1 for i in outer))
    return out


def _image_plans(h: int):
    """Per matching: partner[0], the chords as index pairs, and the other
    4h - 1 symmetries that send an endpoint to 0.  A symmetry (k, step)
    walks the endpoints k, k + step, k + 2*step, ... (indices mod 2h); its
    chords are listed by the first endpoint the walk meets, so the image's
    chord tuple comes out sorted."""
    m = 2 * h
    plans = []
    for partner in _noncrossing_matchings(m):
        chords = [(i, partner[i]) for i in range(m) if i < partner[i]]
        images = []
        for k in range(m):
            for step in (1, -1):
                if (k, step) == (0, 1):
                    continue
                walk = [(k + step * t) % m for t in range(m)]
                rank = {i: t for t, i in enumerate(walk)}
                images.append((k, step, [(i, partner[i]) for i in walk
                                         if rank[partner[i]] > rank[i]]))
        plans.append((partner[0], chords, images))
    return plans


def enumerate_chorded_cycles(n: int, h: int) -> list[ChordedCycle]:
    """One representative per dihedral class of the cycle-plus-h-chords
    family, sorted by chord tuple.

    A class is an endpoint sequence: its 2h chord endpoints in cyclic order,
    one of the Catalan(h) non-crossing perfect matchings on them and the arcs
    between them.  Candidates put endpoint 0 at vertex 0 and the others at
    each (2h - 1)-subset of 1..n-1.  Every symmetry of the cycle that sends
    an endpoint to 0 gives a chord tuple starting (0, s), with s a chord's
    length measured one way round; the smallest of these 4h images is the
    tuple `_dihedral_canonical` returns, because the least sorted image has
    a chord at 0.  A candidate is kept iff no image is smaller than itself:
    its chord at 0 must be a shortest chord (which also rules out chords of
    length below 2), and only then are the images built.  O(h^2) work per
    candidate, against O(n*h) per labeled chord set for the census."""
    _check_chorded_caps(n, h)
    if h == 0:
        return [ChordedCycle(n, ())]
    plans = _image_plans(h)
    found = []
    for rest in combinations(range(1, n), 2 * h - 1):
        p = (0,) + rest
        for partner0, index_chords, images in plans:
            s = p[partner0]
            if s < 2 or 2 * s > n:
                continue
            for i, j in index_chords:
                d = p[j] - p[i]
                if d < s or n - d < s:
                    break
            else:
                chords = tuple((p[i], p[j]) for i, j in index_chords)
                for k, step, index_pairs in images:
                    base = p[k]
                    img = tuple((step * (p[i] - base) % n, step * (p[j] - base) % n)
                                for i, j in index_pairs)
                    if img < chords:
                        break
                else:
                    found.append(chords)
    found.sort()
    return [ChordedCycle(n, chords) for chords in found]


def chorded_cycle_census(n: int, h: int) -> tuple[int, int, int]:
    """(class count, labeled count, sum of class orbit sizes); the last two
    must agree, double-counting the enumeration."""
    _check_chorded_caps(n, h)
    seen: set = set()
    labeled = 0
    orbit_sum = 0
    for chosen in _chord_sets(n, h):
        labeled += 1
        canon = _dihedral_canonical(n, chosen)
        if canon not in seen:
            seen.add(canon)
            orbit_sum += len(set(_dihedral_images(n, canon)))
    return len(seen), labeled, orbit_sum


# ---------------------------------------------------------------------------
# counting oracles (arithmetic, no enumeration)
# ---------------------------------------------------------------------------


def chorded_cycle_count(n: int, h: int) -> int:
    """Number of dihedral classes of the cycle-plus-h-chords family by
    Burnside's lemma, without listing or canonicalizing any class.

    Classes are the orbits of (arc sequence, matching) pairs under the 4h
    symmetries of the endpoint indices 0..2h-1; arc t joins endpoints t and
    t + 1.  Each side of a chord is at least as long as the number of arcs
    on it, so a chord is too short only when one side is a single arc of
    length 1: an arc between two matched endpoints must be at least 2,
    every other arc at least 1.  A symmetry g fixes an arc sequence iff the
    arcs are constant on g's orbits, so for each matching g fixes, the fixed
    pairs are the ways to write n minus the lower bounds as a sum over g's
    arc orbits of orbit size times a value >= 0."""
    _check_chorded_caps(n, h)
    if h == 0:
        return 1
    m = 2 * h
    matchings = _noncrossing_matchings(m)
    fixed = 0
    for k in range(m):
        for step in (1, -1):
            # endpoint i goes to k + step*i; arc t to the arc between the
            # images of its ends, k + t (rotation) or k - t - 1 (reflection)
            g = [(k + step * i) % m for i in range(m)]
            arc = [(k + t) % m if step == 1 else (k - t - 1) % m for t in range(m)]
            sizes = []
            seen = [False] * m
            for start in range(m):
                size, t = 0, start
                while not seen[t]:
                    seen[t] = True
                    size += 1
                    t = arc[t]
                if size:
                    sizes.append(size)
            for partner in matchings:
                if any(partner[g[i]] != g[partner[i]] for i in range(m)):
                    continue
                free = n - m - sum(partner[i] == (i + 1) % m for i in range(m))
                if free < 0:
                    continue
                ways = [1] + [0] * free
                for size in sizes:
                    for x in range(size, free + 1):
                        ways[x] += ways[x - size]
                fixed += ways[free]
    if fixed % (2 * m):
        raise ArithmeticError("Burnside orbit count not integral")
    return fixed // (2 * m)


def rooted_tree_counts(nmax: int) -> list[int]:
    """counts[k] = rooted trees on k vertices, via the divisor-sum
    convolution recurrence."""
    a = [0] * (nmax + 1)
    if nmax >= 1:
        a[1] = 1
    for n in range(1, nmax):
        total = 0
        for k in range(1, n + 1):
            c = sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
            total += c * a[n - k + 1]
        if total % n:
            raise ArithmeticError("rooted count recurrence not integral")
        a[n + 1] = total // n
    return a


def free_tree_counts(nmax: int) -> list[int]:
    """counts[k] = free trees on k vertices, from rooted counts by removing
    the root choice (pairs of rooted trees joined at an edge)."""
    a = rooted_tree_counts(nmax)
    t = [0] * (nmax + 1)
    for n in range(1, nmax + 1):
        s = sum(a[i] * a[n - i] for i in range(1, n))
        extra = a[n // 2] if n % 2 == 0 else 0
        if (s - extra) % 2:
            raise ArithmeticError("free count correction not integral")
        t[n] = a[n] - (s - extra) // 2
    return t


def forest_counts(nmax: int) -> list[int]:
    """counts[k] = forests on k vertices: multisets of free trees, via the
    Euler transform of the free tree counts."""
    t = free_tree_counts(nmax)
    c = [0] * (nmax + 1)
    for k in range(1, nmax + 1):
        c[k] = sum(d * t[d] for d in range(1, k + 1) if k % d == 0)
    b = [0] * (nmax + 1)
    b[0] = 1
    for n in range(1, nmax + 1):
        total = sum(c[k] * b[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError("forest Euler transform not integral")
        b[n] = total // n
    return b


def labeled_forest_survey(n: int) -> tuple[int, int]:
    """(labeled forest count, isomorphism class count) by brute force over
    all acyclic edge subsets of the complete graph."""
    _check_size(n, 8)
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    classes: set[tuple[str, ...]] = set()
    labeled = 0
    chosen: list[tuple[int, int]] = []

    def bt(start: int, comp: list[int]) -> None:
        # comp[v]: a label shared by exactly the vertices of v's component
        nonlocal labeled
        labeled += 1
        classes.add(forest_code(n, chosen))
        for i in range(start, len(all_edges)):
            u, v = all_edges[i]
            if comp[u] != comp[v]:
                chosen.append(all_edges[i])
                bt(i + 1, [comp[v] if c == comp[u] else c for c in comp])
                chosen.pop()

    bt(0, list(range(n)))
    return labeled, len(classes)


def random_tree(n: int, rng: random.Random) -> Forest:
    """Uniform random labeled tree via sequence decoding."""
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    if n == 1:
        return Forest(1, [])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Forest(n, edges)


# ---------------------------------------------------------------------------
# convex universality checker
# ---------------------------------------------------------------------------


def check_universal_convex(host: ConvexHost, family) -> tuple[bool, ChordedCycle | None]:
    """True iff every family member embeds with its cycle on the host's
    convex order (all 2n dihedral placements tried, the census's
    `_dihedral_images`); else the first failure.

    The spanning cycle is checked once with `is_edge`; a rotated or reflected
    chord is two distinct vertices of the host, so the placements ask the
    unchecked `joins`."""
    n = host.n
    if n < 3 or not all(host.is_edge(i, (i + 1) % n) for i in range(n)):
        raise NoSpanningCycle(f"host of kind {host.kind} has no spanning cycle")
    joins = host.joins
    for cc in family:
        if cc.n != n:
            raise SizeMismatch(f"family member has n={cc.n}, host has n={n}")
        if not any(all(joins(u, v) for u, v in image)
                   for image in _dihedral_images(n, cc.chords)):
            return False, cc
    return True, None
