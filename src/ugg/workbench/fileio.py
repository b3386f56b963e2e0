"""Line-oriented file formats.

Host:       `ugg-graph v1` / `kind <kind>` / `n <int>` / optional `edges <count>`
            followed by `e <u> <v>` lines (written with --explicit).
Forest:     `n <int>` then zero or more `e <u> <v>` lines.
Chorded:    `n <int>` / `h <int>` / h lines `c <u> <v>` (cycle edges implicit).
Embedding:  `m <t> <g>` lines sorted by t.
UTF-8 everywhere; blank lines and `#` comments ignored.  A forest or chorded
file may declare at most INPUT_CAP vertices; a larger `n` raises SizeTooLarge,
as does a host past EXPLICIT_CAP vertices or edges written with its edges.

Every file is read in one of two ways.  A file laid out exactly as this
module writes it takes a bulk path: an explicit host file equal to the
host's own rendering is accepted block by block, each vertex's edge lines
built from the host's walk and compared in place with the file's text, and
a forest, chorded or embedding file of single-spaced lines is parsed with
one `split()` of the whole text.  Any other file, with comments, blank lines,
other spacing, edges in another order or an error, is read row by row,
which accepts every valid layout and names what is wrong.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterator

from ..convex import (
    ChordedCycle,
    build_caterpillar_host,
    build_complete_host,
    build_custom_host,
    build_twochord_host,
)
from ..errors import MalformedInput, SizeTooLarge
from ..trees import Caterpillar, Forest
from ..ugraph import build_universal

MAGIC = "ugg-graph v1"
# Most vertices a forest or chorded-cycle file may declare.  Loading one
# builds lists of n entries, so a larger n is refused before anything is built.
INPUT_CAP = 1 << 20
# Most vertices, and most edges, that a host file lists explicitly.  Writing
# one builds every edge line in memory, so a larger host is refused before
# the file is touched.
EXPLICIT_CAP = 1 << 20
# Every host kind but `custom`, which a file defines by its edge list.
HOST_BUILDERS = {
    "universal": build_universal,
    "caterpillar": build_caterpillar_host,
    "twochord": build_twochord_host,
    "complete": build_complete_host,
}
# The layout each writer below produces: `<key> <int>` header lines, then
# one `<tag> <int> <int>` line per pair, single-spaced, each ending in "\n".
# Its number of header lines, and a pattern only that layout matches.  An
# int of at most 18 digits is well inside what `int()` parses.
_LAYOUTS = {
    fmt: (len(keys), re.compile("".join(f"{key} [0-9]{{1,18}}\n" for key in keys)
                                + f"(?:{tag} [0-9]{{1,18}} [0-9]{{1,18}}\n)*"))
    for fmt, keys, tag in (("forest", "n", "e"), ("chorded", "nh", "c"), ("embedding", "", "m"))
}
# The first three lines of a host file as `save_host` writes them.
_HOST_HEAD = re.compile(f"{re.escape(MAGIC)}\nkind ([a-z]+)\nn ([0-9]{{1,18}})\n")
# Pairs as two columns of ints.
_Columns = tuple[list[int], list[int]]


def _read(path) -> str:
    """The text of a file; unreadable or not UTF-8 is malformed input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8: {exc}") from exc


def _lines(text: str) -> list[list[str]]:
    return [row for row in map(str.split, text.splitlines()) if row and row[0][0] != "#"]


def _parse(text: str, *fmts: str) -> tuple[list[list[str]], _Columns | None]:
    """The rows of a file and its pairs.  A file in the written layout of
    one of `fmts` is parsed with one `split()` and no per-line work: its
    header rows and its pairs.  Any other file: every row, and None for the
    pairs, which the caller parses after it has checked the header."""
    for fmt in fmts:
        k, layout = _LAYOUTS[fmt]
        if layout.fullmatch(text):
            tokens = text.split()
            heads = [tokens[i:i + 2] for i in range(0, 2 * k, 2)]
            first, second = tokens[2 * k + 1::3], tokens[2 * k + 2::3]
            return heads, (list(map(int, first)), list(map(int, second)))
    return _lines(text), None


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
           names: tuple[str, str] = ("endpoint", "endpoint")) -> _Columns:
    """The integer pairs of `<tag> <a> <b>` rows.  On failure the first bad
    row, or the first bad token, is named."""
    if set(map(len, rows)) - {3} or set(map(itemgetter(0), rows)) - {tag}:
        row = next(r for r in rows if len(r) != 3 or r[0] != tag)
        raise MalformedInput(f"unexpected {what} line: {' '.join(row)}")
    try:
        return [int(row[1]) for row in rows], [int(row[2]) for row in rows]
    except ValueError:  # name the first bad token
        for _, a, b in rows:
            _int(a, names[0]), _int(b, names[1])
        raise


def _input_size(row: list[str]) -> int:
    """The `n <int>` header of an input file, at most INPUT_CAP."""
    n = _int(_value(row, "n"), "n")
    if n > INPUT_CAP:
        raise SizeTooLarge(f"n={n} exceeds the input cap {INPUT_CAP}")
    return n


def _blocks(host) -> Iterator[tuple[str, int]]:
    """The `e <u> <w>` lines of `host`'s explicit file, one string per vertex
    with later neighbors, and how many lines each holds, in `edges()` order.
    Each block is one `join` over a table of label tails.  A range of one
    vertex, as most of a two-chord vertex's are, appends its tail with no
    slice."""
    tails = [f" {w}\n" for w in range(host.n)]
    for u, ranges in enumerate(host.ranges()):
        picked: list[str] = []
        for lo, hi in ranges:
            if lo == hi:
                picked.append(tails[lo])
            else:
                picked += tails[lo:hi + 1]
        if picked:
            head = f"e {u}"
            yield head + head.join(picked), len(picked)


def _header(host) -> str:
    """The lines that start every file of `host`: magic, kind and n."""
    return f"{MAGIC}\nkind {host.kind}\nn {host.n}\n"


def _render(host, limit: int) -> str | None:
    """The text of `host`'s explicit file; None once it has listed more than
    `limit` edges."""
    out, count = [""], 0
    for block, k in _blocks(host):
        out.append(block)
        count += k
        if count > limit:
            return None
    out[0] = f"{_header(host)}edges {count}\n"
    return "".join(out)


def _is_rendering(host, text: str) -> bool:
    """Whether `text` is `host`'s explicit file, checked block by block
    against the host's walk in place: no list of blocks and no second text,
    and the walk stops at the first difference."""
    head = _header(host) + "edges "
    start = text.find("\n", len(head)) + 1  # where the edge lines start
    if not (start and text.startswith(head)):
        return False
    pos, count = start, 0
    for block, k in _blocks(host):
        # a block of k lines is longer than k characters
        if k > len(text) - pos or not text.startswith(block, pos):
            return False
        pos += len(block)
        count += k
    return pos == len(text) and text[len(head):start] == f"{count}\n"


def save_host(host, path, explicit: bool = False) -> int | None:
    """Write a host file; return how many edges it lists, None if none.
    An edge list past EXPLICIT_CAP raises SizeTooLarge before the file is
    touched."""
    if not (explicit or host.kind == "custom"):
        Path(path).write_text(_header(host), encoding="utf-8")
        return None
    text = None if host.n > EXPLICIT_CAP else _render(host, EXPLICIT_CAP)
    if text is None:
        raise SizeTooLarge(f"an explicit host file lists at most {EXPLICIT_CAP} "
                           "vertices and edges each")
    Path(path).write_text(text, encoding="utf-8")
    return text.count("\n") - 4  # the lines after the four header lines


def load_host(path):
    """The host a file names.  A file equal to what `save_host` writes for
    a built-in host is accepted block by block (`_is_rendering`).  In any
    other file an explicit edge list must be exactly the host's edges: each
    in range, listed once, and, sorted, equal to the host's own `edges()`
    stream."""
    text = _read(path)
    # A file as `save_host` writes it equals the host's rendering.  Check
    # it only when that costs no more than the file's length: n labels, and
    # blocks of at most one edge per character.  Every built-in kind builds
    # for n >= 3; a smaller n takes the general path, which reports a
    # builder's error.
    head = _HOST_HEAD.match(text)
    if head and head[1] in HOST_BUILDERS and 3 <= int(head[2]) <= len(text):
        host = HOST_BUILDERS[head[1]](int(head[2]))
        if _is_rendering(host, text):
            return host
    rows = _lines(text)
    if not rows or rows[0] != MAGIC.split():
        raise MalformedInput(f"missing `{MAGIC}` header in {path}")
    if len(rows) < 3:
        raise MalformedInput("host file needs `kind` and `n` lines")
    kind = _value(rows[1], "kind")
    n = _int(_value(rows[2], "n"), "n")
    if kind not in HOST_BUILDERS and kind != "custom":
        raise MalformedInput(f"unknown host kind {kind!r}")
    us, vs = _pairs([row for row in rows[3:] if row[0] != "edges"], "e", "host")
    declared = [_int(_value(row, "edges"), "edge count") for row in rows[3:] if row[0] == "edges"]
    if declared and declared[-1] != len(us):
        raise MalformedInput(f"declared {declared[-1]} edges, found {len(us)}")
    edges = [(u, v) if u < v else (v, u) for u, v in zip(us, vs)]
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


def forest_lines(forest: Forest | Caterpillar) -> list[str]:
    lines = [f"n {forest.n}"]
    lines.extend(f"e {u} {v}" for u, v in forest.edges)
    return lines


def _forest(rows: list[list[str]], pairs: _Columns | None) -> Forest:
    if not rows:
        raise MalformedInput("forest file must start with `n <int>`")
    n = _input_size(rows[0])
    return Forest(n, list(zip(*(pairs or _pairs(rows[1:], "e", "forest")))))


def chorded_lines(cc: ChordedCycle) -> list[str]:
    lines = [f"n {cc.n}", f"h {cc.h}"]
    lines.extend(f"c {u} {v}" for u, v in cc.chords)
    return lines


def _chorded(rows: list[list[str]], pairs: _Columns | None) -> ChordedCycle:
    n = _input_size(rows[0])
    h = _int(_value(rows[1], "h"), "h")
    chords = tuple(zip(*(pairs or _pairs(rows[2:], "c", "chorded"))))
    if len(chords) != h:
        raise MalformedInput(f"declared h={h} but found {len(chords)} chords")
    return ChordedCycle(n, chords)


def load_input(path):
    """A forest file or a chorded-cycle file, told apart by the `h` line."""
    rows, pairs = _parse(_read(path), "chorded", "forest")
    if len(rows) >= 2 and rows[1][0] == "h":
        return _chorded(rows, pairs)
    return _forest(rows, pairs)


def save_embedding(mapping: dict[int, int], path) -> None:
    lines = [f"m {t} {g}" for t, g in sorted(mapping.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_embedding(path) -> dict[int, int]:
    rows, pairs = _parse(_read(path), "embedding")
    ts, gs = pairs or _pairs(rows, "m", "embedding", ("input vertex", "host vertex"))
    mapping = dict(zip(ts, gs))
    if len(mapping) < len(ts):  # name the first repeat
        seen: set[int] = set()
        for t in ts:
            if t in seen:
                raise MalformedInput(f"vertex {t} mapped twice")
            seen.add(t)
    return mapping
