"""Line-oriented file formats.

Host:       `ugg-graph v1` / `kind <kind>` / `n <int>` / optional `edges <count>`
            followed by `e <u> <v>` lines (written with --explicit).
Forest:     `n <int>` then zero or more `e <u> <v>` lines.
Chorded:    `n <int>` / `h <int>` / h lines `c <u> <v>` (cycle edges implicit).
Embedding:  `m <t> <g>` lines sorted by t.
UTF-8 everywhere; blank lines and `#` comments ignored.
"""

from __future__ import annotations

from pathlib import Path

from ..convex import (
    ChordedCycle,
    ConvexHost,
    build_caterpillar_host,
    build_complete_host,
    build_twochord_host,
)
from ..embedder import Embedding
from ..errors import MalformedInput
from ..trees import Forest
from ..ugraph import UniversalGraph

MAGIC = "ugg-graph v1"
HOST_KINDS = ("universal", "caterpillar", "twochord", "complete", "custom")


def _lines(path) -> list[list[str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line.split())
    return out


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


def save_host(host, path, explicit: bool = False) -> None:
    if isinstance(host, UniversalGraph):
        kind, n, edges = "universal", host.n, sorted(host.edges())
    else:
        kind, n = host.kind, host.n
        if kind.endswith("-host"):
            kind = kind.split("-")[0]
        edges = sorted(host.edges)
    lines = [MAGIC, f"kind {kind}", f"n {n}"]
    if explicit or kind == "custom":
        lines.append(f"edges {len(edges)}")
        lines.extend(f"e {u} {v}" for u, v in edges)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_host(path):
    rows = _lines(path)
    if not rows or rows[0] != MAGIC.split():
        raise MalformedInput(f"missing `{MAGIC}` header in {path}")
    if len(rows) < 3:
        raise MalformedInput("host file needs `kind` and `n` lines")
    kind = _value(rows[1], "kind")
    n = _int(_value(rows[2], "n"), "n")
    if kind not in HOST_KINDS:
        raise MalformedInput(f"unknown host kind {kind!r}")
    declared = None
    edges: list[tuple[int, int]] = []
    for row in rows[3:]:
        if row[0] == "edges":
            declared = _int(_value(row, "edges"), "edge count")
        elif row[0] == "e" and len(row) == 3:
            edges.append((_int(row[1], "endpoint"), _int(row[2], "endpoint")))
        else:
            raise MalformedInput(f"unexpected host line: {' '.join(row)}")
    if declared is not None and declared != len(edges):
        raise MalformedInput(f"declared {declared} edges, found {len(edges)}")

    if kind == "universal":
        host = UniversalGraph(n)
        if edges and len(edges) != host.edge_count():
            raise MalformedInput("explicit edge list disagrees with universal host")
        return host
    if kind == "caterpillar":
        host = build_caterpillar_host(n)
    elif kind == "twochord":
        host = build_twochord_host(n)
    elif kind == "complete":
        host = build_complete_host(n)
    else:
        if not edges:
            raise MalformedInput("custom host requires explicit edges")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise MalformedInput(f"bad edge ({u}, {v})")
        return ConvexHost("custom", n, frozenset((min(u, v), max(u, v)) for u, v in edges))
    if edges and len(edges) != host.edge_count():
        raise MalformedInput(f"explicit edge list disagrees with {kind} host")
    return host


def forest_lines(forest: Forest) -> list[str]:
    lines = [f"n {forest.n}"]
    lines.extend(f"e {u} {v}" for u, v in forest.edges)
    return lines


def save_forest(forest: Forest, path) -> None:
    Path(path).write_text("\n".join(forest_lines(forest)) + "\n", encoding="utf-8")


def load_forest(path) -> Forest:
    rows = _lines(path)
    if not rows:
        raise MalformedInput("forest file must start with `n <int>`")
    n = _int(_value(rows[0], "n"), "n")
    edges = []
    for row in rows[1:]:
        if row[0] != "e" or len(row) != 3:
            raise MalformedInput(f"unexpected forest line: {' '.join(row)}")
        edges.append((_int(row[1], "endpoint"), _int(row[2], "endpoint")))
    return Forest(n, edges)


def chorded_lines(cc: ChordedCycle) -> list[str]:
    lines = [f"n {cc.n}", f"h {cc.h}"]
    lines.extend(f"c {u} {v}" for u, v in cc.chords)
    return lines


def save_chorded(cc: ChordedCycle, path) -> None:
    Path(path).write_text("\n".join(chorded_lines(cc)) + "\n", encoding="utf-8")


def load_chorded(path) -> ChordedCycle:
    rows = _lines(path)
    if len(rows) < 2:
        raise MalformedInput("chorded file needs `n` and `h` lines")
    n = _int(_value(rows[0], "n"), "n")
    h = _int(_value(rows[1], "h"), "h")
    chords = []
    for row in rows[2:]:
        if row[0] != "c" or len(row) != 3:
            raise MalformedInput(f"unexpected chorded line: {' '.join(row)}")
        chords.append((_int(row[1], "endpoint"), _int(row[2], "endpoint")))
    if len(chords) != h:
        raise MalformedInput(f"declared h={h} but found {len(chords)} chords")
    return ChordedCycle(n, tuple(chords))


def load_input(path):
    """A forest file or a chorded-cycle file, told apart by the `h` line."""
    rows = _lines(path)
    if len(rows) >= 2 and rows[1][0] == "h":
        return load_chorded(path)
    return load_forest(path)


def save_embedding(emb, path) -> None:
    mapping = emb.mapping if isinstance(emb, Embedding) else emb
    lines = [f"m {t} {g}" for t, g in sorted(mapping.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_embedding(path) -> dict[int, int]:
    rows = _lines(path)
    mapping: dict[int, int] = {}
    for row in rows:
        if row[0] != "m" or len(row) != 3:
            raise MalformedInput(f"unexpected embedding line: {' '.join(row)}")
        t = _int(row[1], "input vertex")
        if t in mapping:
            raise MalformedInput(f"vertex {t} mapped twice")
        mapping[t] = _int(row[2], "host vertex")
    return mapping
