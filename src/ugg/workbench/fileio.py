"""Line-oriented file formats.

Host:       `ugg-graph v1` / `kind <kind>` / `n <int>` / optional `edges <count>`
            followed by `e <u> <v>` lines (written with --explicit).
Forest:     `n <int>` then zero or more `e <u> <v>` lines.
Chorded:    `n <int>` / `h <int>` / h lines `c <u> <v>` (cycle edges implicit).
Embedding:  `m <t> <g>` lines sorted by t.
UTF-8 everywhere; blank lines and `#` comments ignored.  A forest or chorded
file may declare at most INPUT_CAP vertices; a larger `n` raises SizeTooLarge,
as does a host past EXPLICIT_CAP vertices or edges written with its edges.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter, ne
from pathlib import Path

from ..convex import (
    ChordedCycle,
    build_caterpillar_host,
    build_complete_host,
    build_custom_host,
    build_twochord_host,
)
from ..errors import MalformedInput, SizeTooLarge
from ..trees import Forest
from ..ugraph import build_universal

MAGIC = "ugg-graph v1"
# Most vertices a forest or chorded-cycle file may declare.  Loading one
# builds lists of n entries, so a larger n is refused before anything is built.
INPUT_CAP = 1 << 20
# Most vertices, and most edges, that a host file lists explicitly.  Writing
# one builds every edge line in memory, so a larger host is refused before
# any edge is listed.
EXPLICIT_CAP = 1 << 20
# Every host kind but `custom`, which a file defines by its edge list.
HOST_BUILDERS = {
    "universal": build_universal,
    "caterpillar": build_caterpillar_host,
    "twochord": build_twochord_host,
    "complete": build_complete_host,
}


def _lines(path) -> list[list[str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    return [row for row in map(str.split, text.splitlines()) if row and row[0][0] != "#"]


def _value(row: list[str], key: str) -> str:
    """The value of a `key <value>` header line."""
    if row[0] != key or len(row) != 2:
        raise MalformedInput(f"expected `{key} <value>`, got `{' '.join(row)}`")
    return row[1]


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise MalformedInput(f"bad {what}: {tok!r}") from exc


def _pairs(rows: list[list[str]], tag: str, what: str,
           names: tuple[str, str] = ("endpoint", "endpoint")) -> list[tuple[int, int]]:
    """The integer pairs of `<tag> <a> <b>` rows, parsed in bulk.  On
    failure the first bad row, or the first bad token, is named."""
    if set(map(len, rows)) - {3} or set(map(itemgetter(0), rows)) - {tag}:
        row = next(r for r in rows if len(r) != 3 or r[0] != tag)
        raise MalformedInput(f"unexpected {what} line: {' '.join(row)}")
    try:
        return [(int(a), int(b)) for _, a, b in rows]
    except ValueError:  # name the first bad token
        return [(_int(a, names[0]), _int(b, names[1])) for _, a, b in rows]


def _input_size(row: list[str]) -> int:
    """The `n <int>` header of an input file, at most INPUT_CAP."""
    n = _int(_value(row, "n"), "n")
    if n > INPUT_CAP:
        raise SizeTooLarge(f"n={n} exceeds the input cap {INPUT_CAP}")
    return n


def save_host(host, path, explicit: bool = False) -> int | None:
    """Write a host file; return how many edges it lists, None if none.
    An edge list past EXPLICIT_CAP raises SizeTooLarge before the file is
    touched."""
    n = host.n
    lines = [MAGIC, f"kind {host.kind}", f"n {n}"]
    count = None
    if explicit or host.kind == "custom":
        # n first; within it count at most EXPLICIT_CAP + 1 edges, and skip
        # even that when all n (n - 1) / 2 pairs are within the cap
        if n > EXPLICIT_CAP or n * (n - 1) // 2 > EXPLICIT_CAP and next(
                islice(host.edges(), EXPLICIT_CAP, None), None) is not None:
            raise SizeTooLarge(f"an explicit host file lists at most {EXPLICIT_CAP} "
                               "vertices and edges each")
        edges = [f"e {u} {v}" for u, v in host.edges()]
        count = len(edges)
        lines += [f"edges {count}", *edges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return count


def load_host(path):
    """The host a file names.  An explicit edge list must be exactly the
    host's edges: each in range, listed once, and, sorted, equal to the
    host's own `edges()` stream."""
    rows = _lines(path)
    if not rows or rows[0] != MAGIC.split():
        raise MalformedInput(f"missing `{MAGIC}` header in {path}")
    if len(rows) < 3:
        raise MalformedInput("host file needs `kind` and `n` lines")
    kind = _value(rows[1], "kind")
    n = _int(_value(rows[2], "n"), "n")
    if kind not in HOST_BUILDERS and kind != "custom":
        raise MalformedInput(f"unknown host kind {kind!r}")
    pairs = _pairs([row for row in rows[3:] if row[0] != "edges"], "e", "host")
    declared = [_int(_value(row, "edges"), "edge count") for row in rows[3:] if row[0] == "edges"]
    if declared and declared[-1] != len(pairs):
        raise MalformedInput(f"declared {declared[-1]} edges, found {len(pairs)}")
    edges = [(u, v) if u < v else (v, u) for u, v in pairs]
    if kind != "custom":
        host = HOST_BUILDERS[kind](n)
        # Walk the sorted list and the host's stream in lockstep, stopping at
        # the first difference; the None ends make the two end together or
        # differ.  Equal, the list is in range and free of repeats.
        listed, stream = chain(sorted(edges), [None]), chain(host.edges(), [None])
        if not edges or not any(map(ne, listed, stream)):
            return host
    bad = next((e for e in edges if not 0 <= e[0] < e[1] < n), None)
    if bad is not None:
        raise MalformedInput(f"bad edge {bad}")
    if len(set(edges)) != len(edges):
        raise MalformedInput("an edge is listed twice")
    if kind == "custom":
        if not edges:
            raise MalformedInput("custom host requires explicit edges")
        return build_custom_host(n, edges)
    stray = next((e for e in edges if not host.is_edge(*e)), None)
    if stray is not None:
        raise MalformedInput(f"edge {stray} is not an edge of the {kind} host")
    raise MalformedInput(f"explicit edge list disagrees with {kind} host")


def forest_lines(forest: Forest) -> list[str]:
    lines = [f"n {forest.n}"]
    lines.extend(f"e {u} {v}" for u, v in forest.edges)
    return lines


def save_forest(forest: Forest, path) -> None:
    Path(path).write_text("\n".join(forest_lines(forest)) + "\n", encoding="utf-8")


def load_forest(path) -> Forest:
    return _forest(_lines(path))


def _forest(rows: list[list[str]]) -> Forest:
    if not rows:
        raise MalformedInput("forest file must start with `n <int>`")
    n = _input_size(rows[0])
    return Forest(n, _pairs(rows[1:], "e", "forest"))


def chorded_lines(cc: ChordedCycle) -> list[str]:
    lines = [f"n {cc.n}", f"h {cc.h}"]
    lines.extend(f"c {u} {v}" for u, v in cc.chords)
    return lines


def save_chorded(cc: ChordedCycle, path) -> None:
    Path(path).write_text("\n".join(chorded_lines(cc)) + "\n", encoding="utf-8")


def load_chorded(path) -> ChordedCycle:
    return _chorded(_lines(path))


def _chorded(rows: list[list[str]]) -> ChordedCycle:
    if len(rows) < 2:
        raise MalformedInput("chorded file needs `n` and `h` lines")
    n = _input_size(rows[0])
    h = _int(_value(rows[1], "h"), "h")
    chords = _pairs(rows[2:], "c", "chorded")
    if len(chords) != h:
        raise MalformedInput(f"declared h={h} but found {len(chords)} chords")
    return ChordedCycle(n, tuple(chords))


def load_input(path):
    """A forest file or a chorded-cycle file, told apart by the `h` line."""
    rows = _lines(path)
    if len(rows) >= 2 and rows[1][0] == "h":
        return _chorded(rows)
    return _forest(rows)


def save_embedding(mapping: dict[int, int], path) -> None:
    lines = [f"m {t} {g}" for t, g in sorted(mapping.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_embedding(path) -> dict[int, int]:
    pairs = _pairs(_lines(path), "m", "embedding", ("input vertex", "host vertex"))
    mapping: dict[int, int] = {}
    for t, g in pairs:
        if t in mapping:
            raise MalformedInput(f"vertex {t} mapped twice")
        mapping[t] = g
    return mapping
