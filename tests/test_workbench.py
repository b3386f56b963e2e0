"""Enumerators against counting formulas, the validator, rendering, file I/O."""

import math
import random
import re
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from collections import namedtuple

import pytest

import ugg
import ugg.workbench
from ugg.convex import ChordedCycle, build_complete_host, build_custom_host, build_cycle_host, build_twochord_host, build_caterpillar_host, embed_caterpillar
from ugg.embedder import Embedding, embed_forest
from ugg.errors import InvalidSize, MalformedInput, NotACaterpillar, SizeTooLarge
from ugg.trees import Caterpillar, Forest, RootedTree, caterpillar_spine
from ugg.ugraph import UniversalGraph, build_universal
from ugg.workbench import fileio
from ugg.workbench import families
from ugg.workbench.families import (
    chorded_cycle_census,
    chorded_cycle_count,
    enumerate_caterpillars,
    enumerate_chorded_cycles,
    enumerate_forests,
    enumerate_trees,
    forest_code,
    forest_counts,
    free_code,
    free_tree_counts,
    labeled_forest_survey,
    ordered_level_sequences,
    random_tree,
    rooted_tree_counts,
    check_universal_convex,
)
from ugg.workbench.render import render_svg
from ugg.workbench.validate import validate_embedding

# an input graph as the validator reads it, whose edges need not form a forest
Graph = namedtuple("Graph", "n edges")


def test_ordered_level_sequences_count_ordered_trees():
    for s in range(1, 11):
        seqs = ordered_level_sequences(s)
        assert len(seqs) == math.comb(2 * s - 2, s - 1) // s  # Catalan(s - 1)
        assert len({tuple(seq) for seq in seqs}) == len(seqs)
        for seq in seqs:
            assert seq[0] == 1 and all(2 <= b <= a + 1 for a, b in zip(seq, seq[1:]))


def test_rooted_tree_counts():
    assert rooted_tree_counts(10) == [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_free_tree_counts():
    assert free_tree_counts(10) == [0, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_forest_counts():
    assert forest_counts(10) == [1, 1, 2, 3, 6, 10, 20, 37, 76, 153, 329]


def test_tree_enumerator_matches_recurrence():
    counts = free_tree_counts(12)
    for n in range(1, 13):
        assert len(enumerate_trees(n)) == counts[n], n


def test_forest_enumerator_matches_recurrence():
    counts = forest_counts(12)
    for n in range(1, 13):
        assert len(enumerate_forests(n)) == counts[n], n


def test_forest_enumerator_enumerates_each_tree_size_once(monkeypatch):
    # a census round asks for every n up to the cap; each size's trees are
    # enumerated once, and each call still returns new forests equal to a
    # fresh enumeration
    def edge_lists(forests):
        return [f.edges for f in forests]

    fresh = {}
    for n in range(1, 9):
        families._tree_edges.cache_clear()
        fresh[n] = edge_lists(enumerate_forests(n))
    families._tree_edges.cache_clear()
    calls = []
    trees = families.enumerate_trees
    monkeypatch.setattr(families, "enumerate_trees", lambda s: calls.append(s) or trees(s))
    for n in range(1, 9):
        assert edge_lists(enumerate_forests(n)) == fresh[n], n
    assert calls == list(range(1, 9))
    changed = enumerate_forests(8)
    changed[-1].edges.append((0, 1))
    assert changed[-1] is not enumerate_forests(8)[-1]
    assert edge_lists(enumerate_forests(8)) == fresh[8]


def test_forest_enumerator_yields_distinct_valid_forests():
    for n in range(1, 8):
        forests = enumerate_forests(n)
        for f in forests:
            assert f.n == n
        codes = {forest_code(f.n, f.edges) for f in forests}
        assert len(codes) == len(forests)


def test_free_code_is_the_same_from_every_root():
    for n in range(1, 10):
        seen = set()
        for tree in enumerate_trees(n):
            codes = {free_code(RootedTree.from_adjacency(tree.adj, r)) for r in range(n)}
            assert len(codes) == 1, tree.edges
            assert not codes & seen, tree.edges
            seen |= codes


def test_forest_code_ignores_labels_and_edge_order():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 40)
        # components of random sizes, each a random recursive tree
        edges, start = [], 0
        while start < n:
            size = rng.randint(1, n - start)
            edges += [(start + rng.randrange(i), start + i) for i in range(1, size)]
            start += size
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
                 for u, v in edges]
        rng.shuffle(moved)
        assert forest_code(n, moved) == forest_code(n, edges), (n, edges)


def test_from_levels_matches_rooting_the_decoded_forest():
    for s in range(1, 9):
        for level in ordered_level_sequences(s):
            path, edges = [], []  # path: the vertices from the root to the last one
            for i, lv in enumerate(level):
                del path[lv - 1:]
                if path:
                    edges.append((path[-1], i))
                path.append(i)
            assert RootedTree.from_levels(level) == RootedTree.from_adjacency(
                Forest(s, edges).adj, 0), level


def labeled_forest_count_formula(nmax: int) -> list[int]:
    """Independent route: f(n) = sum over k of C(n-1, k-1) * t(k) * f(n-k),
    where t(k) = k^(k-2) labeled trees contain a fixed vertex; k is the size
    of the component containing vertex n."""
    f = [1]
    for n in range(1, nmax + 1):
        total = 0
        for k in range(1, n + 1):
            t_k = k ** (k - 2) if k >= 2 else 1
            total += math.comb(n - 1, k - 1) * t_k * f[n - k]
        f.append(total)
    return f


def test_labeled_survey_against_formula_and_classes():
    formula = labeled_forest_count_formula(7)
    class_counts = forest_counts(7)
    for n in range(1, 8):
        labeled, classes = labeled_forest_survey(n)
        assert labeled == formula[n], n
        assert classes == class_counts[n], n


def test_labeled_survey_cap():
    with pytest.raises(SizeTooLarge):
        labeled_forest_survey(9)
    for n in (0, -1):
        with pytest.raises(InvalidSize):
            labeled_forest_survey(n)


def test_caterpillar_enumeration_matches_recognizer_filter():
    for n in range(1, 11):
        by_filter = 0
        for t in enumerate_trees(n):
            try:
                caterpillar_spine(t)
            except NotACaterpillar:
                continue
            by_filter += 1
        assert len(enumerate_caterpillars(n)) == by_filter, n


def test_caterpillar_enumeration_small_values():
    # one class each at n=1..3; the star and the path at n=4
    assert len(enumerate_caterpillars(1)) == 1
    assert len(enumerate_caterpillars(2)) == 1
    assert len(enumerate_caterpillars(3)) == 1
    assert len(enumerate_caterpillars(4)) == 2
    assert len(enumerate_caterpillars(5)) == 3


def test_chorded_cycle_enumeration_basics():
    # single class of a bare cycle at h=0
    assert len(enumerate_chorded_cycles(6, 0)) == 1
    # only one chord shape fits a square
    assert len(enumerate_chorded_cycles(4, 1)) == 1
    # hexagon: chord of circular length 2 or 3
    assert len(enumerate_chorded_cycles(6, 1)) == 2
    # n=6, h=2: chords must cut off disjoint ears; one class up to symmetry
    classes6 = enumerate_chorded_cycles(6, 2)
    assert len(classes6) == 1
    for n in range(6, 13):
        classes = enumerate_chorded_cycles(n, 2)
        count, labeled, orbit_sum = chorded_cycle_census(n, 2)
        assert count == len(classes)
        assert orbit_sum == labeled, n


def _labeled_classes(n, h):
    """The slow route: canonicalize every labeled chord set."""
    canon = {families._dihedral_canonical(n, s) for s in families._chord_sets(n, h)}
    return [ChordedCycle(n, c) for c in sorted(canon)]


@pytest.mark.parametrize("h, top", [(0, 14), (1, 14), (2, 18), (3, 14)])
def test_chorded_classes_equal_the_labeled_oracle(h, top):
    for n in range(max(3, 2 * h + 2), top + 1):
        got = enumerate_chorded_cycles(n, h)
        want = _labeled_classes(n, h)
        assert len(got) == len(want), (n, h)
        for a, b in zip(got, want):
            assert a.chords == b.chords, (n, h)


@pytest.mark.parametrize("h, top", [(0, 30), (1, 30), (2, 30), (3, 20)])
def test_chorded_class_count_by_burnside(h, top):
    for n in range(max(3, 2 * h + 2), top + 1):
        assert len(enumerate_chorded_cycles(n, h)) == chorded_cycle_count(n, h), (n, h)


def test_chorded_cycle_count_small_values():
    # bare cycle; the square's one chord; the hexagon's chords of length 2, 3
    assert [chorded_cycle_count(n, h) for n, h in [(6, 0), (4, 1), (6, 1), (6, 2)]] == [1, 1, 2, 1]
    with pytest.raises(SizeTooLarge):
        chorded_cycle_count(31, 2)
    with pytest.raises(InvalidSize):
        chorded_cycle_count(5, 2)


def test_chorded_enumeration_never_canonicalizes_labeled_sets(monkeypatch):
    def refuse(*args):
        raise AssertionError("labeled canonicalization called")

    monkeypatch.setattr(families, "_dihedral_images", refuse)
    monkeypatch.setattr(families, "_chord_sets", refuse)
    classes = enumerate_chorded_cycles(24, 2)
    assert len(classes) == chorded_cycle_count(24, 2) == 385
    assert [c.chords for c in classes] == sorted(c.chords for c in classes)


@pytest.mark.parametrize("enumerate_, cap", [
    (enumerate_trees, 12), (enumerate_forests, 12), (enumerate_caterpillars, 14)])
def test_enumeration_sizes(enumerate_, cap):
    with pytest.raises(InvalidSize):
        enumerate_(0)
    with pytest.raises(InvalidSize):
        enumerate_(-1)
    with pytest.raises(SizeTooLarge):
        enumerate_(cap + 1)


def test_chorded_cycle_enumeration_caps():
    with pytest.raises(SizeTooLarge):
        enumerate_chorded_cycles(31, 2)
    with pytest.raises(SizeTooLarge):
        enumerate_chorded_cycles(12, 4)
    with pytest.raises(InvalidSize):
        enumerate_chorded_cycles(5, 2)


def test_random_tree_is_a_tree():
    import random

    rng = random.Random(7)
    for n in (1, 2, 3, 17, 64):
        for _ in range(5):
            t = random_tree(n, rng)
            assert t.n == n
            assert len(t.edges) == n - 1
            assert len(t.components()) == 1


def test_check_universal_convex():
    family = enumerate_chorded_cycles(8, 2)
    ok, witness = check_universal_convex(build_complete_host(8), family)
    assert ok and witness is None
    ok, witness = check_universal_convex(build_cycle_host(8), family)
    assert not ok and witness is not None


def test_bare_cycle_not_universal_for_single_chord():
    ok, witness = check_universal_convex(build_cycle_host(6),
                                         enumerate_chorded_cycles(6, 1))
    assert not ok and witness is not None


def test_twochord_host_certified_at_20():
    ok, witness = check_universal_convex(build_twochord_host(20),
                                         enumerate_chorded_cycles(20, 2))
    assert ok and witness is None


def test_validator_accepts_identity_on_empty_graph():
    G = build_universal(3)
    report = validate_embedding(G, Forest(3, []), Embedding({0: 0, 1: 1, 2: 2}))
    assert report.ok and report.failures == []


def test_validator_catches_non_injective():
    G = build_universal(3)
    report = validate_embedding(G, Forest(3, []), Embedding({0: 1, 1: 1, 2: 2}))
    assert not report.ok
    assert report.failures[0][0] == "NotInjective"


def test_validator_catches_missing_vertex_and_range():
    G = build_universal(3)
    report = validate_embedding(G, Forest(3, []), Embedding({0: 0, 1: 1}))
    assert not report.ok and report.failures[0][0] == "SizeMismatch"
    report = validate_embedding(G, Forest(3, []), Embedding({0: 0, 1: 1, 2: 5}))
    assert not report.ok and report.failures[0][0] == "SizeMismatch"


def test_validator_reports_extra_mapping_keys():
    G = build_universal(15)
    mapping = {t: t for t in range(15)}
    mapping[99] = 3
    mapping[-1] = 7
    report = validate_embedding(G, Forest(15, [(0, 1)]), Embedding(mapping))
    assert not report.ok
    assert report.failures == [("SizeMismatch", ((-1, 7), (99, 3)))]


@pytest.mark.parametrize("mapping, failures", [
    # missing keys: the first four
    ({0: 0}, [("SizeMismatch", (1, 2, 3, 4))]),
    # extra keys: the first four, sorted, with their images
    ({**{t: t for t in range(6)}, 9: 1, -2: 3}, [("SizeMismatch", ((-2, 3), (9, 1)))]),
    # missing and extra keys together, missing first; the rest is not looked at
    ({0: 99, 1: 1, 2: 1, 7: 2}, [("SizeMismatch", (3, 4, 5)), ("SizeMismatch", ((7, 2),))]),
    # images off the host: the first four, alone, before repeated images
    ({0: 0, 1: 0, 2: -1, 3: 15, 4: 20, 5: 16},
     [("SizeMismatch", ((2, -1), (3, 15), (4, 20), (5, 16)))]),
    # repeated images: every repeat against the first vertex with that image
    ({0: 4, 1: 4, 2: 1, 3: 4, 4: 1, 5: 0},
     [("NotInjective", (0, 1, 4)), ("NotInjective", (0, 3, 4)), ("NotInjective", (2, 4, 1))]),
])
def test_validator_mapping_failures_keep_their_precedence(mapping, failures):
    G = build_universal(15)
    report = validate_embedding(G, Forest(6, [(0, 1)]), Embedding(mapping))
    assert not report.ok
    assert report.failures == failures


def test_validator_lists_four_of_many_extra_keys():
    # a 5-vertex path against a long identity map: the report names the
    # four smallest extra keys, as it does missing keys, not every one
    n = 10**5
    mapping = {t: t for t in range(n - 1, -1, -1)}
    mapping[-7] = 2
    report = validate_embedding(build_universal(n), Forest(5, [(i, i + 1) for i in range(4)]),
                                Embedding(mapping))
    assert report.failures == [("SizeMismatch", ((-7, 2), (5, 5), (6, 6), (7, 7)))]


def test_validator_checked_is_linear_on_star():
    n = 1023
    G = build_universal(n)
    star = Forest(n, [(0, i) for i in range(1, n)])
    report = validate_embedding(G, star, embed_forest(G, star))
    assert report.ok
    assert 0 < report.checked <= 6 * (n - 1)


def test_validator_checked_is_linear_on_caterpillar():
    n = 1023
    spine = tuple(range(512))
    cat = Caterpillar(spine, tuple((512 + i,) for i in range(511)) + ((),))
    host = build_caterpillar_host(n)
    report = validate_embedding(host, cat, embed_caterpillar(host, cat))
    assert report.ok
    assert 0 < report.checked <= 6 * (n - 1)


@pytest.mark.parametrize("cat", [Caterpillar((0,), ((5,),)),
                                 Caterpillar((0, -1), ((2,), ()))])
def test_validator_reports_caterpillar_ids_off_range(cat):
    # a caterpillar's ids name its vertices 0..n-1; an id outside that is a
    # failure of the input, as for any other input
    host = build_caterpillar_host(cat.n)
    report = validate_embedding(host, cat, Embedding({t: t for t in range(cat.n)}))
    assert not report.ok
    assert [kind for kind, _ in report.failures] == ["IndexOutOfRange"]


def test_validator_catches_missing_edge():
    G = build_universal(15)
    # (3, 13) is a non-edge of the 15-vertex host
    emb = Embedding({t: t for t in range(15)})
    report = validate_embedding(G, Graph(15, [(3, 13)]), emb)
    assert not report.ok
    assert report.failures[0][0] == "MissingEdge"


def test_validator_catches_crossing():
    G = build_universal(7)
    emb = Embedding({t: t for t in range(7)})
    report = validate_embedding(G, Graph(7, [(1, 3), (2, 5)]), emb)
    assert not report.ok
    assert ("Crossing", ((1, 3), (2, 5))) in report.failures


def test_validator_convex_crossing():
    host = build_complete_host(10)
    emb = Embedding({t: t for t in range(10)})
    report = validate_embedding(host, Graph(10, [(0, 5), (2, 7)]), emb)
    assert not report.ok
    assert report.failures[0][0] == "Crossing"


BAD_EDGE_HOSTS = {
    "universal": build_universal,
    "caterpillar": build_caterpillar_host,
    "twochord": build_twochord_host,
    "complete": build_complete_host,
    "custom": lambda n: build_custom_host(n, [(i, i + 1) for i in range(n - 1)]),
}


@pytest.mark.parametrize("kind", sorted(BAD_EDGE_HOSTS))
@pytest.mark.parametrize("edges, failures", [
    ([(1, 1), (0, 2)], [("DegenerateEdge", (1, 1))]),
    ([(0, 99)], [("IndexOutOfRange", (0, 99))]),
    ([(0, 1), (-1, 2)], [("IndexOutOfRange", (-1, 2))]),
    ([(3, 3), (7, 0)], [("DegenerateEdge", (3, 3)), ("IndexOutOfRange", (7, 0))]),
])
def test_validator_reports_bad_input_edges(kind, edges, failures):
    # a loop or an endpoint outside [0, n) is a failure of the input, found
    # before any host test, on every host kind
    report = validate_embedding(BAD_EDGE_HOSTS[kind](7), Graph(7, edges),
                                Embedding({t: t for t in range(7)}))
    assert not report.ok
    assert report.failures == failures


def test_validator_ok_case():
    G = build_universal(5)
    f = Forest(5, [(0, 1), (1, 2), (3, 4)])
    assert validate_embedding(G, f, embed_forest(G, f)).ok


def svg_counts(svg: str) -> dict[str, int]:
    root = ET.fromstring(svg)
    counts: dict[str, int] = {}
    for el in root.iter():
        cls = el.attrib.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


def test_render_universal_schematic_counts():
    G = build_universal(7)
    counts = svg_counts(render_svg(G))
    assert counts["vertex"] == 7
    assert counts["edge"] == 21
    assert counts["label"] == 7


def test_render_universal_exact_counts():
    G = build_universal(15)
    counts = svg_counts(render_svg(G, layout="exact"))
    assert counts["vertex"] == 15
    assert counts["edge"] == 87


def test_render_exact_layout_matches_schematic_with_straight_edges():
    # the exact layout plots the height rank, as the schematic one does, and
    # draws every host edge straight; nothing caps it below DRAW_CAP
    G = build_universal(100)
    exact, schematic = (ET.fromstring(render_svg(G, layout=layout))
                        for layout in ("exact", "schematic"))
    assert not exact.findall(".//{*}path")
    assert len(exact.findall(".//{*}line")) == G.edge_count()

    def centers(root):
        return [(c.get("cx"), c.get("cy")) for c in root.iter()
                if c.get("class") == "vertex"]

    assert centers(exact) == centers(schematic)
    assert len(set(centers(exact))) == 100


def test_render_single_vertex():
    counts = svg_counts(render_svg(build_universal(1)))
    assert counts["vertex"] == 1
    assert counts.get("edge", 0) == 0


def test_render_embedding_overlay():
    G = build_universal(5)
    f = Forest(5, [(0, 1), (1, 2), (3, 4)])
    emb = embed_forest(G, f)
    counts = svg_counts(render_svg(G, emb))
    assert counts["mapped"] == 5


def test_render_convex_host():
    for host in (build_twochord_host(10), build_caterpillar_host(10)):
        counts = svg_counts(render_svg(host))
        assert counts["vertex"] == 10
        assert counts["edge"] == host.edge_count()


def test_host_roundtrip_universal(tmp_path):
    G = build_universal(12)
    p = tmp_path / "host.txt"
    fileio.save_host(G, p)
    back = fileio.load_host(p)
    assert isinstance(back, UniversalGraph) and back.n == 12
    fileio.save_host(G, p, explicit=True)
    assert fileio.load_host(p).n == 12


def test_host_roundtrip_convex(tmp_path):
    for build in (build_caterpillar_host, build_twochord_host):
        host = build(9)
        p = tmp_path / "host.txt"
        fileio.save_host(host, p)
        back = fileio.load_host(p)
        assert back.kind == host.kind
        assert list(back.edges()) == list(host.edges())


def test_host_roundtrip_custom(tmp_path):
    host = build_cycle_host(6)
    p = tmp_path / "host.txt"
    fileio.save_host(host, p)
    back = fileio.load_host(p)
    assert back.kind == "custom"
    assert list(back.edges()) == list(host.edges())


def write_lines(p, lines):
    """An input file as `ugg enumerate` writes each class."""
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def test_forest_roundtrip(tmp_path):
    f = Forest(6, [(0, 3), (3, 5), (1, 2)])
    back = fileio.load_input(write_lines(tmp_path / "forest.txt", fileio.forest_lines(f)))
    assert isinstance(back, Forest)
    assert back.n == 6 and back.edges == f.edges


def test_chorded_roundtrip(tmp_path):
    cc = ChordedCycle(10, ((0, 3), (5, 9)))
    back = fileio.load_input(write_lines(tmp_path / "cc.txt", fileio.chorded_lines(cc)))
    assert isinstance(back, ChordedCycle)
    assert back.n == 10 and back.chords == cc.chords


def test_load_input_distinguishes_formats(tmp_path):
    p1 = write_lines(tmp_path / "forest.txt", fileio.forest_lines(Forest(3, [(0, 1)])))
    assert isinstance(fileio.load_input(p1), Forest)
    p2 = write_lines(tmp_path / "cc.txt", fileio.chorded_lines(ChordedCycle(6, ((0, 2), (3, 5)))))
    assert isinstance(fileio.load_input(p2), ChordedCycle)


@pytest.mark.parametrize("package", [ugg, ugg.workbench])
def test_every_exported_name_resolves(package):
    # `import` alone never reads __all__, so a stale entry shows only here
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    # ugg.workbench resolves its names on first use: dir() must still list
    # each, and each must be the very object of the module that defines it
    assert sorted(set(package.__all__) - set(dir(package))) == []
    for name in package.__all__:
        obj = getattr(package, name)
        assert obj.__module__.startswith(f"{package.__name__}."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_embedding_roundtrip(tmp_path):
    mapping = {0: 4, 1: 3, 2: 0, 3: 1, 4: 2}
    p = tmp_path / "emb.txt"
    fileio.save_embedding(mapping, p)
    assert fileio.load_embedding(p) == mapping


def test_malformed_files(tmp_path):
    cases = {
        "bad_magic.txt": "ugg-graph v2\nkind universal\nn 3\n",
        "bad_kind.txt": "ugg-graph v1\nkind hexagon\nn 3\n",
        "bad_count.txt": "ugg-graph v1\nkind universal\nn 3\nedges 2\ne 0 1\n",
        "custom_without_edges.txt": "ugg-graph v1\nkind custom\nn 3\n",
        "bad_forest.txt": "n 3\nx 0 1\n",
        "bad_chorded.txt": "n 6\nh 2\nc 0 2\n",
        "dup_embedding.txt": "m 0 1\nm 0 2\n",
        "non_utf8_host.txt": b"\xff\xfe",
        "non_utf8_input.txt": b"n 3\ne 0 \xff\n",
        "non_utf8_embedding.txt": b"m 0 0\nm 1 \xfe\n",
    }
    loaders = {
        "bad_magic.txt": fileio.load_host,
        "bad_kind.txt": fileio.load_host,
        "bad_count.txt": fileio.load_host,
        "custom_without_edges.txt": fileio.load_host,
        "bad_forest.txt": fileio.load_input,
        "bad_chorded.txt": fileio.load_input,
        "dup_embedding.txt": fileio.load_embedding,
        "non_utf8_host.txt": fileio.load_host,
        "non_utf8_input.txt": fileio.load_input,
        "non_utf8_embedding.txt": fileio.load_embedding,
    }
    for name, text in cases.items():
        p = tmp_path / name
        if isinstance(text, bytes):
            p.write_bytes(text)
        else:
            p.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedInput):
            loaders[name](p)


def edge_by_edge(host):
    """An explicit host file as written one f-string per edge."""
    edges = [f"e {u} {v}" for u, v in host.edges()]
    head = [fileio.MAGIC, f"kind {host.kind}", f"n {host.n}", f"edges {len(edges)}"]
    return "\n".join(head + edges) + "\n"


@pytest.mark.parametrize("kind", sorted(fileio.KINDS))
def test_render_equals_the_edge_by_edge_writer(tmp_path, kind):
    # every n up to 130: the two-chord host's runs of one center, the
    # caterpillar's far points of one vertex and the ranges that end at n - 1
    p = tmp_path / "host.txt"
    for n in range(3 if kind == "twochord" else 1, 131):
        host = fileio.KINDS[kind].build(n)
        fileio.save_host(host, p, explicit=True)
        assert p.read_bytes() == edge_by_edge(host).encode(), (kind, n)


@pytest.mark.parametrize("kind", sorted(fileio.KINDS))
def test_explicit_host_files_load_the_same_by_either_path(tmp_path, monkeypatch, kind):
    # The written file is the host's rendering and loads without the
    # row-by-row parse; every other layout of the same edges loads through
    # it, and every damaged list still fails with its message.
    lines_read = []
    rows = fileio._lines
    monkeypatch.setattr(fileio, "_lines", lambda text: lines_read.append(text) or rows(text))
    rng = random.Random(kind)
    p = tmp_path / "host.txt"

    def load(text):
        p.write_text(text, encoding="utf-8")
        lines_read.clear()
        host = fileio.load_host(p)
        return host.kind, host.n, bool(lines_read)

    for n in range(3 if kind == "twochord" else 1, 65):
        host = fileio.KINDS[kind].build(n)
        fileio.save_host(host, p, explicit=True)
        written = p.read_text(encoding="utf-8")
        assert p.read_bytes() == edge_by_edge(host).encode()
        assert load(written) == (kind, n, n < 3)  # n < 3 skips the rendering
        head, edges = written.splitlines()[:4], written.splitlines()[4:]
        for variant in (
            head[:3] + ["# a comment"] + head[3:] + edges,
            head + [f"e {v} {u}" for _, u, v in map(str.split, edges)],
            head + rng.sample(edges, len(edges)),
            head + edges + [""],
        ):
            text = "\n".join(variant) + "\n"
            assert load(text) == (kind, n, n < 3 or text != written)
        if len(edges) < 2:
            continue
        i = len(edges) // 2
        stray = next(((u, v) for u in range(n) for v in range(u + 1, n)
                      if not host.is_edge(u, v)), None)
        for variant, message in (
            (edges[:i] + [f"e {u} {v}" for u, v in [stray or (0, n)]] + edges[i + 1:],
             f"edge {stray} is not an edge of the {kind} host" if stray else f"bad edge {(0, n)}"),
            (edges[:i] + edges[i + 1:], f"explicit edge list disagrees with {kind} host"),
            (edges[:i] + [edges[i]] + edges[i:], "an edge is listed twice"),
        ):
            text = "\n".join(head[:3] + [f"edges {len(variant)}"] + variant) + "\n"
            with pytest.raises(MalformedInput, match=re.escape(message)):
                load(text)


@pytest.mark.parametrize("kind", ["universal", "caterpillar", "twochord"])
def test_damaged_host_files_are_read_row_by_row(tmp_path, monkeypatch, kind):
    # Each file below differs from the host's rendering, so the block-by-block
    # check refuses it and the row-by-row read decides: the same edge set in
    # another layout loads, and anything else fails with its message.
    lines_read = []
    rows = fileio._lines
    monkeypatch.setattr(fileio, "_lines", lambda text: lines_read.append(text) or rows(text))
    n = 1023
    host = fileio.KINDS[kind].build(n)
    p = tmp_path / "host.txt"
    fileio.save_host(host, p, explicit=True)
    written = p.read_text(encoding="utf-8")
    lines = written.splitlines(keepends=True)
    head, edges = lines[:4], lines[4:]
    count, listed = len(edges), set(host.edges())

    def verdict(line):
        """What one listed edge line other than the host's gets."""
        e = tuple(sorted(map(int, line.split()[1:])))
        if not 0 <= e[0] < e[1] < n:
            return f"bad edge {e}"
        return "an edge is listed twice" if e in listed else f"edge {e} is not an edge"

    variants = []
    for i in (0, count // 2, count - 1):
        _, u, w = edges[i].split()
        other = f"e {u} {w[:-1]}{(int(w[-1]) + 1) % 10}\n"  # one digit changed
        for line, message in ((f"e {u}\t{w}\n", None), (other, verdict(other))):
            variants.append(("".join(head + edges[:i] + [line] + edges[i + 1:]), message))
    cut = written[:-3]  # inside the last line
    variants += [
        (written[:-1], None),
        (cut, verdict(cut.splitlines()[-1])),
        ("".join(head + edges[:count // 2]), f"declared {count} edges, found {count // 2}"),
        (written + "# trailing text\n", None),
        (written + "\n", None),
        (written + "e 0 1\n", f"declared {count} edges, found more than {count}"),
        (written.replace(f"edges {count}\n", f"edges {count + 1}\n"),
         f"declared {count + 1} edges, found {count}"),
        (written.replace(f"edges {count}\n", f"edges 0{count}\n"), None),
    ]
    for text, message in variants:
        assert text != written
        p.write_text(text, encoding="utf-8")
        lines_read.clear()
        if message is None:
            loaded = fileio.load_host(p)
            assert (loaded.kind, loaded.n) == (kind, n)
        else:
            with pytest.raises(MalformedInput, match=re.escape(message)):
                fileio.load_host(p)
        assert lines_read

    # a count in other digits is no header that `save_host` writes: the file
    # is read row by row and never compared with the host's rendering
    checks = []
    is_rendering = fileio._is_rendering
    monkeypatch.setattr(fileio, "_is_rendering",
                        lambda *args: checks.append(args) or is_rendering(*args))
    p.write_text(written.replace(f"edges {count}\n", f"edges 0{count}\n"), encoding="utf-8")
    lines_read.clear()
    assert fileio.load_host(p).n == n and lines_read and not checks
    p.write_text(written, encoding="utf-8")
    assert fileio.load_host(p).n == n and len(checks) == 1


def test_large_explicit_host_loads_without_a_second_text(tmp_path):
    # the 16383-vertex universal file is 9.8 MB; reading it as one text
    # peaked at 19.6 MB, while the block-by-block check holds one table of
    # labels, one block of the host's walk and one block of the file
    host = build_universal(16383)
    p = tmp_path / "host.txt"
    fileio.save_host(host, p, explicit=True)
    tracemalloc.start()
    try:
        loaded = fileio.load_host(p)
        load = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (loaded.kind, loaded.n) == ("universal", 16383)
    assert load < 4 << 20


@pytest.mark.parametrize("fmt, text", [
    ("forest", "n 6\ne 0 1\ne 1 2\ne 4 5\n"),
    ("forest", "n 1\n"),
    ("chorded", "n 10\nh 2\nc 0 3\nc 5 9\n"),
    ("embedding", "m 0 4\nm 1 3\nm 2 0\n"),
])
def test_bulk_parse_agrees_with_the_row_parse(tmp_path, monkeypatch, fmt, text):
    # the written layout skips the row-by-row parse; any other spacing,
    # comments, blank lines or int spellings take it and load the same
    lines_read = []
    rows = fileio._lines
    monkeypatch.setattr(fileio, "_lines", lambda text: lines_read.append(text) or rows(text))
    load = fileio.load_embedding if fmt == "embedding" else fileio.load_input
    p = tmp_path / "file.txt"

    def parse(text):
        p.write_bytes(text.encode())
        lines_read.clear()
        return load(p), bool(lines_read)

    want, by_rows = parse(text)
    assert not by_rows
    for other in (text.replace(" ", "  "), text.replace(" ", "\t"), "# c\n" + text,
                  text + "\n", text.replace("\n", "\r\n"), text.rstrip("\n"),
                  text.replace("\ne 0", "\ne +0").replace("c 0", "c +0").replace("m 0", "m +0")):
        # text mode reads \r\n as \n
        assert parse(other) == (want, other.replace("\r\n", "\n") != text)


@pytest.mark.parametrize("loader, text, message", [
    (fileio.load_input, "n 5\ne 1 2 e\n3 4\n", "unexpected forest line: e 1 2 e"),
    (fileio.load_input, "n 5\ne 1\x0b2\n", "unexpected forest line: e 1"),
    (fileio.load_input, "n 6\nh 1\nc 0 2 c\n3 5\n", "unexpected chorded line: c 0 2 c"),
    (fileio.load_embedding, "m 0 1 m\n1 0\n", "unexpected embedding line: m 0 1 m"),
    (fileio.load_embedding, "m 0 1\nm 1 2\nm 0 3\n", "vertex 0 mapped twice"),
    (fileio.load_embedding, f"m 0 {'9' * 5000}\n", "bad host vertex"),
])
def test_one_pair_per_line_stays_strict(tmp_path, loader, text, message):
    p = tmp_path / "file.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedInput, match=re.escape(message)):
        loader(p)


def test_comments_and_blank_lines_ignored(tmp_path):
    p = tmp_path / "forest.txt"
    p.write_text("# a comment\n\nn 3\n# another\ne 0 1\n\n", encoding="utf-8")
    f = fileio.load_input(p)
    assert f.n == 3 and f.edges == [(0, 1)]
