"""The eight acceptance suites, runnable via `ugg selftest` or the test suite.

Each criterion function is self-contained, measures its own wall time, and
returns a CriterionResult; run_all prints one PASS/FAIL line per criterion.
Passing a limit shrinks the instance sizes for a quick smoke run; the
acceptance configuration is limit=None.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from math import isqrt

from .. import btree
from ..convex import (
    build_caterpillar_host,
    build_complete_host,
    build_cycle_host,
    build_twochord_host,
    embed_caterpillar,
    embed_twochord,
    has_window_property,
    pi_sequence,
    twochord_centers,
)
from ..embedder import embed_forest, embed_tree
from ..errors import InvalidSize
from ..geometry import (
    QuarterPlane,
    edges_cross,
    point_in_quarter_plane,
    realize_coordinates,
    segment_hits_quarter_plane,
    segments_cross_exact,
)
from ..trees import RootedTree
from ..ugraph import UniversalGraph, build_universal
from .families import (
    check_universal_convex,
    chorded_cycle_census,
    enumerate_caterpillars,
    enumerate_chorded_cycles,
    enumerate_forests,
    forest_counts,
    ordered_level_sequences,
    random_tree,
)
from .validate import validate_embedding


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float


# Exact host edge counts for n = 2^h - 1, frozen after computing them through
# two routes (adjacency-union enumeration and the quadratic pair scan).
EDGE_COUNT_REGRESSION: dict[int, int] = {
    2: 3,
    3: 21,
    4: 87,
    5: 285,
    6: 819,
    7: 2169,
    8: 5439,
    9: 13125,
    10: 30795,
}


def _result(name: str, ok: bool, detail: str, t0: float) -> CriterionResult:
    return CriterionResult(name, ok, detail, time.perf_counter() - t0)


def _cap(value: int, limit: int | None) -> int:
    return value if limit is None else min(value, limit)


def criterion_1(limit: int | None = None) -> CriterionResult:
    """Host edge counts stay below 5(n+1)log2(n+1), built in under 5 s."""
    t0 = time.perf_counter()
    problems = []
    last = ""
    for h in range(2, 11):
        n = (1 << h) - 1
        if limit is not None and n > limit:
            break
        t1 = time.perf_counter()
        G = build_universal(n)
        count = G.edge_count()
        dt = time.perf_counter() - t1
        bound = 5 * (n + 1) * h
        if count >= bound:
            problems.append(f"h={h}: {count} >= bound {bound}")
        if dt >= 5.0:
            problems.append(f"h={h}: build took {dt:.1f}s")
        expected = EDGE_COUNT_REGRESSION.get(h)
        if expected is None:
            problems.append(f"h={h}: no frozen regression value")
        elif count != expected:
            problems.append(f"h={h}: count {count} != regression {expected}")
        last = f"n={n}: {count} < {bound}"
    return _result("criterion-1-edge-bound", not problems,
                   "; ".join(problems[:4]) if problems else last, t0)


def criterion_2(limit: int | None = None) -> CriterionResult:
    """Every forest class with n <= 10 embeds and validates; class counts
    from the generator match the arithmetic recurrence."""
    t0 = time.perf_counter()
    nmax = _cap(10, limit)
    expected = forest_counts(nmax)
    problems = []
    total = 0
    for n in range(1, nmax + 1):
        forests = enumerate_forests(n)
        if len(forests) != expected[n]:
            problems.append(f"n={n}: generator {len(forests)} != recurrence {expected[n]}")
            continue
        G = build_universal(n)
        for forest in forests:
            total += 1
            report = validate_embedding(G, forest, embed_forest(G, forest))
            if not report.ok:
                problems.append(f"n={n}, edges={forest.edges}: {report.failures[:2]}")
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        problems.append(f"runtime {dt:.1f}s >= 60s")
    return _result("criterion-2-universality-small", not problems,
                   "; ".join(problems[:4]) if problems else
                   f"{total} forest classes embedded and validated", t0)


def criterion_3(limit: int | None = None) -> CriterionResult:
    """Combinatorial crossing predicate agrees with the exact geometric one
    on all host edge pairs."""
    t0 = time.perf_counter()
    problems = []
    pairs = 0
    for n in (7, 15, 31):
        if limit is not None and n > limit:
            break
        G = UniversalGraph(n)
        coords = realize_coordinates(G.h, n)
        edges = list(G.edges())
        for i in range(len(edges)):
            e1 = edges[i]
            for j in range(i + 1, len(edges)):
                e2 = edges[j]
                pairs += 1
                fast = edges_cross(G.h, e1, e2)
                slow = segments_cross_exact(coords, e1, e2)
                if fast != slow:
                    problems.append(f"n={n}: {e1} vs {e2}: {fast} != {slow}")
    return _result("criterion-3-predicate-oracle", not problems,
                   "; ".join(problems[:4]) if problems else
                   f"{pairs} edge pairs agree at n in (7, 15, 31)", t0)


def criterion_4(limit: int | None = None, seed: int = 20250814) -> CriterionResult:
    """100 random labeled trees at n = 255 and n = 1023 each embed and
    validate in under 10 s."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    problems = []
    worst = 0.0
    cases = 0
    for n in (255, 1023):
        if limit is not None and n > limit:
            break
        G = build_universal(n)
        for case in range(100):
            t1 = time.perf_counter()
            tree = random_tree(n, rng)
            report = validate_embedding(G, tree, embed_forest(G, tree))
            dt = time.perf_counter() - t1
            worst = max(worst, dt)
            cases += 1
            if not report.ok:
                problems.append(f"n={n} case {case}: {report.failures[:2]}")
            if dt >= 10.0:
                problems.append(f"n={n} case {case}: {dt:.1f}s")
    return _result("criterion-4-large-smoke", not problems,
                   "; ".join(problems[:4]) if problems else
                   f"{cases} random trees ok, worst case {worst:.2f}s", t0)


def criterion_5(limit: int | None = None) -> CriterionResult:
    """The two embedding lemmas on every instance up to 9 vertices.

    Every ordered tree on s <= 9 vertices is embedded by `embed_tree` onto
    every interval of length s in every host with s <= n <= 9: once with its
    root as the single portal, and once with the root and b as its two
    portals for every other vertex b.  Each result must map the tree one to
    one onto its interval.  A single portal must land on the interval's
    highest vertex, and no tree vertex or edge may enter its upper-left
    quarter plane.  With two portals, the left portal's upper-left and the
    right portal's upper-right quarter planes stay empty.  The quarter planes are tested
    on exact coordinates, and the sweep takes under 10 s.
    """
    t0 = time.perf_counter()
    problems = []
    counts = {"single": 0, "two": 0}
    nmax = _cap(9, limit)
    hosts = []
    for n in range(1, nmax + 1):
        G = build_universal(n)
        hosts.append((G, realize_coordinates(G.h, n)))
    for s in range(1, nmax + 1):
        for level in ordered_level_sequences(s):
            tree = RootedTree.from_levels(level)
            edges = [(p, i) for i, p in enumerate(tree.parent) if i]
            for G, coords in hosts[s - 1:]:
                for lo in range(G.n - s + 1):
                    for second in (None, *range(1, s)):
                        counts["single" if second is None else "two"] += 1
                        problems.extend(
                            f"n={G.n} [{lo},{lo + s - 1}] levels={level} "
                            f"second={second}: {problem}"
                            for problem in _lemma_problems(G, coords, tree, edges,
                                                           lo, second))
    dt = time.perf_counter() - t0
    if dt >= 10.0:
        problems.append(f"runtime {dt:.1f}s >= 10s")
    return _result("criterion-5-recursion-invariants", not problems,
                   "; ".join(problems[:4]) if problems else
                   f"{counts['single']} single-portal and {counts['two']} "
                   f"two-portal instances verified", t0)


def _lemma_problems(G, coords, tree, edges, lo: int, second) -> list[str]:
    # embed the tree from lo on with its root as portal, and `second` as
    # the other portal unless None, and say what breaks the portal lemma
    hi = lo + tree.n - 1
    mp = embed_tree(G, tree, lo=lo, second=second).mapping
    if sorted(mp.values()) != list(range(lo, hi + 1)):
        return ["not onto the interval"]
    problems = []
    regions = [QuarterPlane(mp[tree.root], "left")]
    if second is None:
        if regions[0].apex != btree.highest_in_range(G.h, lo, hi):
            problems.append(f"portal at {regions[0].apex}")
    else:
        regions.append(QuarterPlane(mp[second], "right"))
    segs = [(mp[u], mp[v]) for u, v in edges]
    for region in regions:
        for g in mp.values():
            if g != region.apex and point_in_quarter_plane(
                    coords, coords[g], region):
                problems.append(f"vertex {g} in {region.side}")
        for seg in segs:
            if segment_hits_quarter_plane(coords, seg, region):
                problems.append(f"edge enters {region.side}")
    return problems


def _window_property_sliding(terms: list[int]) -> bool:
    # independent oracle: sliding-window maximum per window length
    n = len(terms)
    for x in range(1, n + 1):
        dq: deque[int] = deque()
        for i, t in enumerate(terms):
            while dq and terms[dq[-1]] <= t:
                dq.pop()
            dq.append(i)
            if dq[0] <= i - x:
                dq.popleft()
            if i >= x - 1 and terms[dq[0]] < x:
                return False
    return True


def criterion_6(limit: int | None = None) -> CriterionResult:
    """Window property of the doubling sequence, stage sums, host edge
    budget, and embedding of every caterpillar class with n <= 12."""
    t0 = time.perf_counter()
    problems = []
    # windows: check the 4095 stage; every shorter sequence is its prefix
    # and inherits the property
    if not has_window_property(pi_sequence(_cap(4095, limit))):
        problems.append("window property fails at 4095")
    if not _window_property_sliding(pi_sequence(_cap(1023, limit))):
        problems.append("sliding oracle fails at 1023")
    for h in range(1, 12):
        m = (1 << h) - 1
        if limit is not None and m > limit:
            break
        want = (h - 1) * (1 << h) + 1
        got = sum(pi_sequence(m))
        if got != want:
            problems.append(f"stage sum h={h}: {got} != {want}")
    hosts_checked = 0
    for n in [*range(1, 257), 511, 1023, 2047, 4095]:
        if limit is not None and n > limit:
            continue
        host = build_caterpillar_host(n)
        hosts_checked += 1
        budget = 2 * sum(pi_sequence(n))
        if host.edge_count() > budget:
            problems.append(f"host n={n}: {host.edge_count()} > {budget}")
    embedded = 0
    for n in range(1, _cap(12, limit) + 1):
        host = build_caterpillar_host(n)
        for cat in enumerate_caterpillars(n):
            emb = embed_caterpillar(host, cat)
            spine_images = [emb.mapping[u] for u in cat.spine]
            if spine_images != sorted(spine_images):
                problems.append(f"n={n} sizes={cat.star_sizes()}: spine order broken")
            report = validate_embedding(host, cat, emb)
            if not report.ok:
                problems.append(f"n={n} sizes={cat.star_sizes()}: {report.failures[:2]}")
            embedded += 1
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        problems.append(f"runtime {dt:.1f}s >= 60s")
    return _result("criterion-6-caterpillar", not problems,
                   "; ".join(problems[:4]) if problems else
                   f"{embedded} caterpillar classes embedded; "
                   f"{hosts_checked} host budgets hold", t0)


def criterion_7(limit: int | None = None) -> CriterionResult:
    """Every two-chord class on 6..30 vertices embeds; host edge budget;
    center-set covering property up to n = 2000."""
    t0 = time.perf_counter()
    problems = []
    embedded = 0
    for n in range(6, _cap(30, limit) + 1):
        host = build_twochord_host(n)
        budget = n + 2 * (2 * isqrt(n)) * n
        if host.edge_count() > budget:
            problems.append(f"host n={n}: {host.edge_count()} > {budget}")
        for cc in enumerate_chorded_cycles(n, 2):
            emb = embed_twochord(host, cc)
            report = validate_embedding(host, cc, emb)
            if not report.ok:
                problems.append(f"n={n} chords={cc.chords}: {report.failures[:2]}")
            embedded += 1
    top = _cap(2000, limit)
    for n in range(3, top + 1):
        centers = twochord_centers(n)
        diffs = {b - a for a in centers for b in centers if b > a}
        missing = [d for d in range(1, n // 2 + 1) if d not in diffs]
        if missing:
            problems.append(f"covering fails at n={n}: missing {missing[:3]}")
    return _result("criterion-7-twochord", not problems,
                   "; ".join(problems[:4]) if problems else
                   f"{embedded} two-chord classes embedded; covering holds to {top}", t0)


def criterion_8(limit: int | None = None) -> CriterionResult:
    """Complete convex host is universal for the chorded-cycle families at
    desk scale, the bare cycle is not, and class counts double-check."""
    t0 = time.perf_counter()
    problems = []
    for n in range(4, _cap(12, limit) + 1):
        for h in range(0, 4):
            if n < 2 * h + 2:
                continue
            family = enumerate_chorded_cycles(n, h)
            ok, witness = check_universal_convex(build_complete_host(n), family)
            if not ok:
                problems.append(f"complete host fails n={n}, h={h}: {witness.chords}")
            classes, labeled, orbit_sum = chorded_cycle_census(n, h)
            if classes != len(family):
                problems.append(f"census classes {classes} != {len(family)} at n={n}, h={h}")
            if orbit_sum != labeled:
                problems.append(f"orbit sum {orbit_sum} != labeled {labeled} at n={n}, h={h}")
    ok, _ = check_universal_convex(build_cycle_host(6), enumerate_chorded_cycles(6, 1))
    if ok:
        problems.append("bare cycle wrongly universal for one chord at n=6")
    return _result("criterion-8-lower-bound-side", not problems,
                   "; ".join(problems[:4]) if problems else
                   "complete host universal at desk scale; bare cycle is not; counts agree", t0)


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
]


def run_all(limit: int | None = None, seed: int = 20250814) -> bool:
    if limit is not None and limit < 1:
        raise InvalidSize(f"size limit must be >= 1, got {limit}")
    all_ok = True
    for fn in ALL_CRITERIA:
        res = fn(limit, seed) if fn is criterion_4 else fn(limit)
        all_ok &= res.ok
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name} ({res.seconds:.1f}s): {res.detail}")
    return all_ok
