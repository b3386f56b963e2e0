"""Line-oriented file formats.

Host:       `ugg-graph v1` / `kind <kind>` / `n <int>` / optional `edges <count>`
            followed by `e <u> <v>` lines (written with --explicit).
Forest:     `n <int>` then zero or more `e <u> <v>` lines.
Chorded:    `n <int>` / `h <int>` / h lines `c <u> <v>` (cycle edges implicit).
Embedding:  `m <t> <g>` lines sorted by t.
UTF-8 everywhere; blank lines and `#` comments ignored.  A forest or chorded
file may declare at most INPUT_CAP vertices; a larger `n` raises SizeTooLarge,
as does a host past EXPLICIT_CAP vertices or edges written with its edges.

No reader holds a file's text, and no writer joins one.  Every file is read
in one of two ways.  A host file whose four header lines are, byte for
byte, those `save_host` writes for a built-in kind is matched once, and
its edge lines alone are then compared with the host's own rendering as
they are read, 16 blocks at a time: each vertex's edge lines are built
from the host's walk and compared in place with the bytes read, and the
walk stops at the first difference.  Any other file is read in pieces of
whole lines, one BLOCK at a time, header rows first.  A piece in the
layout the writers produce (`<key> <int>` lines, then single-spaced
`<tag> <int> <int>` lines) is split as bytes, with no per-line work; any
other piece, with comments, blank lines, other spacing or an error, is
decoded and read row by row, which accepts every valid layout.

Every reader names the first fault in file order and reads nothing after
it, at every block size: a line that is not UTF-8, a bad row, a bad token
or, in a host file, an edge out of range.  Header rows are checked as they
are read.  The checks of the whole list run after a clean read: `Forest`'s
and `ChordedCycle`'s, the declared `h` and `edges` counts, repeats and
edges not on the host.  Every reader of a file with a header is bounded by
it, and reads at most one row past what the header allows: a forest file
n pair rows, since n edges are one more than a forest on n vertices has; a
chorded file min(h, n) chord rows, since a valid one has 2h + 2 <= n; and
a host file its declared edge count, or with no `edges` row EXPLICIT_CAP
edges, either at most EXPLICIT_CAP.  A host file that is not its host's
rendering keeps each listed edge as one packed int, u·n + v, in one array,
sorted in place and walked in lockstep with the host's edges.
"""

from __future__ import annotations

import heapq
import os
import re
from array import array
from contextlib import contextmanager, suppress
from itertools import chain, islice
from operator import eq, ne
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
# one holds every edge line in memory, so a larger host is refused before
# the file is touched.
EXPLICIT_CAP = 1 << 20
# Every host kind but `custom`, which a file defines by its edge list.
HOST_BUILDERS = {
    "universal": build_universal,
    "caterpillar": build_caterpillar_host,
    "twochord": build_twochord_host,
    "complete": build_complete_host,
}
# Bytes of a file parsed at a time.  Raw bytes and packed ints cost a
# fraction of a parsed block's tokens: the host check reads 16 blocks at a
# time, and the general host path sorts its edges in runs of 16 blocks.
BLOCK = 1 << 12
# The layout the writers produce: `<key> <int>` header lines, then one
# `<tag> <int> <int>` line per pair, single-spaced, each ending in "\n".
# `split()` reads such lines as `_lines` reads their text.  An int of at
# most 18 digits is well inside what `int()` parses.
_KEYS = re.compile(rb"(?:[a-z]+ [0-9]{1,18}\n)*")
_PAIRS = re.compile(rb"(?:[a-z] [0-9]{1,18} [0-9]{1,18}\n)*")
# The four header lines of an explicit host file as `save_host` writes them,
# ints in canonical digits, and a length that holds them for every built-in
# kind.
_HOST_HEAD = re.compile(re.escape(MAGIC.encode())
                        + rb"\nkind ([a-z]+)\nn (0|[1-9][0-9]{0,17})\nedges (0|[1-9][0-9]{0,17})\n")
_HOST_HEAD_BYTES = 100
# The rows of one piece of a file, then the tokens of the written pair lines
# that follow them in the piece.
_Piece = tuple[list[list[str]], list[bytes]]


@contextmanager
def _opened(path):
    """The file, open for binary reads; unreadable is malformed input."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def _not_utf8(path, exc: UnicodeDecodeError, offset: int) -> MalformedInput:
    """The error for bytes that are not UTF-8, with positions counted from
    the file's start, as decoding the whole file names them."""
    start, end = offset + exc.start, offset + exc.end - 1
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if start == end
             else f"bytes in position {start}-{end}")
    return MalformedInput(f"{path} is not UTF-8: '{exc.encoding}' codec can't decode "
                          f"{where}: {exc.reason}")


def _lines(lines: list[str]) -> list[list[str]]:
    return [row for row in map(str.split, lines) if row and row[0][0] != "#"]


def _pieces(f) -> Iterator[tuple[int, bytes]]:
    """The bytes of `f` in pieces of whole lines, one per BLOCK read (the
    last may lack its line break), each with its offset in the file."""
    parts: list[bytes] = []
    offset = 0
    while data := f.read(BLOCK):
        cut = data.rfind(b"\n") + 1
        if not cut:  # a line longer than a block
            parts.append(data)
            continue
        piece = b"".join([*parts, data[:cut]])
        yield offset, piece
        offset += len(piece)
        parts = [data[cut:]]
    piece = b"".join(parts)
    if piece:
        yield offset, piece


def _items(f, path) -> Iterator[_Piece]:
    """Each piece of `f` as rows and pair tokens.  A piece in the written
    layout is split as bytes: its `<key> <int>` rows, then the tokens of its
    pair lines.  Any other piece is decoded and read row by row; at a byte
    that is not UTF-8 the rows of the whole lines before it are yielded,
    then the fault is raised."""
    for offset, piece in _pieces(f):
        # text mode reads "\r\n" and "\r" as "\n"; neither byte occurs
        # inside a multi-byte UTF-8 character
        flat = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in piece else piece
        keys = _KEYS.match(flat).end()
        if _PAIRS.fullmatch(flat, keys):
            tokens = flat.split()
            k = 2 * flat.count(b"\n", 0, keys)
            rows = [[key.decode(), value.decode()]
                    for key, value in zip(tokens[:k:2], tokens[1:k:2])]
            del tokens[:k]
            yield rows, tokens
        else:
            try:
                text = piece.decode()
            except UnicodeDecodeError as exc:
                # the whole lines before the byte: a mark after them ends
                # the line that holds it, which is dropped
                text = piece[:exc.start].decode() + "-"
                yield _lines(text.splitlines()[:-1]), []
                raise _not_utf8(path, exc, offset) from exc
            yield _lines(text.splitlines()), []


def _row(items: Iterator[_Piece]) -> tuple[list[str] | None, Iterator[_Piece]]:
    """A file's next row, None at its end, and its pieces after it."""
    for rows, tokens in items:
        if rows:
            return rows[0], chain([(rows[1:], tokens)], items)
        if tokens:
            return [t.decode() for t in tokens[:3]], chain([([], tokens[3:])], items)
    return None, items


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


def _upto(items: Iterator[_Piece], limit: int) -> Iterator[_Piece]:
    """A file's pieces up to its limit-th row; nothing past it is read."""
    for rows, tokens in items:
        rows = rows[:limit]
        del tokens[3 * (limit - len(rows)):]
        limit -= len(rows) + len(tokens) // 3
        yield rows, tokens
        if limit <= 0:
            return


def _pairs(items: Iterator[_Piece], tag: str, what: str,
           names: tuple[str, str] = ("endpoint", "endpoint"),
           ) -> Iterator[tuple[list[int], list[int]]]:
    """The integer pairs of `<tag> <a> <b>` rows, one piece at a time, as two
    columns.  At the first bad row or bad token the pairs before it are
    yielded, then its fault is raised; nothing after it is read."""
    code = tag.encode()
    for rows, tokens in items:
        firsts, seconds = tokens[1::3], tokens[2::3]
        if (tokens[::3].count(code) * 3 == len(tokens)
                and all(len(row) == 3 and row[0] == tag for row in rows)):
            firsts[:0], seconds[:0] = [row[1] for row in rows], [row[2] for row in rows]
            with suppress(ValueError):  # a bad token: read the piece row by row
                yield list(map(int, firsts)), list(map(int, seconds))
                continue
        # the piece holds a fault: its pairs up to the first one, then the fault
        pairs: list[tuple[int, int]] = []
        for row in chain(rows, ([t.decode() for t in tokens[i:i + 3]]
                                for i in range(0, len(tokens), 3))):
            try:
                if len(row) != 3 or row[0] != tag:
                    raise MalformedInput(f"unexpected {what} line: {' '.join(row)}")
                pairs.append((_int(row[1], names[0]), _int(row[2], names[1])))
            except MalformedInput as exc:
                yield [u for u, _ in pairs], [v for _, v in pairs]
                raise exc


def _input_size(row: list[str]) -> int:
    """The `n <int>` header of an input file, at most INPUT_CAP."""
    n = _int(_value(row, "n"), "n")
    if n > INPUT_CAP:
        raise SizeTooLarge(f"n={n} exceeds the input cap {INPUT_CAP}")
    return n


def _blocks(host) -> Iterator[tuple[bytes, int]]:
    """The `e <u> <w>` lines of `host`'s explicit file, one bytes object per
    vertex with later neighbors, and how many lines each holds, in `edges()`
    order.  Each block is one `join` over a table of label tails.  A range
    of one vertex, as most of a two-chord vertex's are, appends its tail
    with no slice."""
    tails = [b" %d\n" % w for w in range(host.n)]
    for u, ranges in enumerate(host.ranges()):
        picked: list[bytes] = []
        for lo, hi in ranges:
            if lo == hi:
                picked.append(tails[lo])
            else:
                picked += tails[lo:hi + 1]
        if picked:
            head = b"e %d" % u
            yield head + head.join(picked), len(picked)


def _header(host) -> bytes:
    """The lines that start every file of `host`: magic, kind and n."""
    return f"{MAGIC}\nkind {host.kind}\nn {host.n}\n".encode()


def _is_rendering(host, f, declared: int) -> bool:
    """Whether the rest of `f`, read from where it stands, is the edge lines
    of `host`'s explicit file, `declared` lines in all.  The file is read 16
    blocks at a time and each block of the host's walk is compared in place
    with the bytes read: no list of blocks and no text, and the walk stops
    at the first difference."""
    data, pos, count = b"", 0, 0
    for block, k in _blocks(host):
        while pos + len(block) > len(data):
            more = f.read(BLOCK << 4)  # bytes cost a fraction of a block's tokens
            if not more:
                return False
            data, pos = data[pos:] + more, 0
        if not data.startswith(block, pos):
            return False
        pos += len(block)
        count += k
    return pos == len(data) and not f.read(1) and count == declared


def save_host(host, path, explicit: bool = False) -> int | None:
    """Write a host file; return how many edges it lists, None if none.
    An edge list past EXPLICIT_CAP raises SizeTooLarge before the file is
    touched.  The blocks are written as they are, never joined into one
    text."""
    if not (explicit or host.kind == "custom"):
        Path(path).write_bytes(_header(host))
        return None
    blocks: list[bytes] = []
    count = 0
    if host.n <= EXPLICIT_CAP:
        for block, k in _blocks(host):
            blocks.append(block)
            count += k
            if count > EXPLICIT_CAP:
                break
    if host.n > EXPLICIT_CAP or count > EXPLICIT_CAP:
        raise SizeTooLarge(f"an explicit host file lists at most {EXPLICIT_CAP} "
                           "vertices and edges each")
    with open(path, "wb") as f:
        f.write(_header(host) + b"edges %d\n" % count)
        f.writelines(blocks)
    return count


def _sort(packed) -> None:
    """Sort `packed` in place.  A list is sorted at once.  An array is sorted
    in runs of 16 blocks' worth of entries, so that no list ever holds all
    its ints, and then, if the runs overlap, merged through a second array."""
    if isinstance(packed, list):
        packed.sort()
        return
    run = BLOCK << 4
    starts = range(0, len(packed), run)
    for i in starts:
        packed[i:i + run] = array("q", sorted(packed[i:i + run]))
    if any(packed[i - 1] > packed[i] for i in starts[1:]):
        packed[:] = array("q", heapq.merge(*(islice(packed, i, i + run) for i in starts)))


def _host_head(items: Iterator[_Piece], path):
    """A host file's kind, n, declared edge count (None without an `edges`
    row) and pieces after its header, each header row checked as it is
    read."""
    row, items = _row(items)
    if row != MAGIC.split():
        raise MalformedInput(f"missing `{MAGIC}` header in {path}")
    row, items = _row(items)
    kind = row and _value(row, "kind")
    if kind and kind not in HOST_BUILDERS and kind != "custom":
        raise MalformedInput(f"unknown host kind {kind!r}")
    row, items = _row(items)
    if not row:  # the file ends before its `kind` or its `n` row
        raise MalformedInput("host file needs `kind` and `n` lines")
    n = _int(_value(row, "n"), "n")
    row, items = _row(items)
    if row and row[0] == "edges":
        return kind, n, _int(_value(row, "edges"), "edge count"), items
    return kind, n, None, chain([([row] if row else [], [])], items)


def _listed(f, path):
    """The host a file names that is not the host's rendering.  Its
    explicit edge list must be exactly the host's edges: each in range,
    listed once, and, sorted, equal to the host's own `edges()` stream."""
    kind, n, declared, items = _host_head(_items(f, path), path)
    host = None if kind == "custom" else HOST_BUILDERS[kind](n)
    # the most edge rows the header allows: its count, or with none the
    # writer's cap; one row past it is read, and nothing after that
    limit = EXPLICIT_CAP if declared is None else max(0, min(declared, EXPLICIT_CAP))
    # each edge (u, v), u < v < n, as the int u·n + v: in an array while
    # that fits in 64 bits, and in a list past it
    listed = array("q") if n * n < 1 << 63 else []
    for us, vs in _pairs(_upto(items, limit + 1), "e", "host"):
        for u, v in zip(us, vs):
            if u > v:
                u, v = v, u
            if not 0 <= u < v < n:
                raise MalformedInput(f"bad edge {(u, v)}")
            listed.append(u * n + v)
    count = len(listed)
    if count > limit:
        if declared is None or declared > EXPLICIT_CAP:
            raise SizeTooLarge(f"an explicit host file lists at most {EXPLICIT_CAP} edges")
        raise MalformedInput(f"declared {declared} edges, found more than {limit}")
    if declared is not None and declared != count:
        raise MalformedInput(f"declared {declared} edges, found {count}")
    _sort(listed)
    if host is not None:
        # Walk the sorted list and the host's stream in lockstep, stopping at
        # the first difference; the None ends make the two end together or
        # differ.  Equal, the list is in range and free of repeats.
        stream = (u * n + w for u, w in host.edges())
        if not count or not any(map(ne, chain(listed, [None]), chain(stream, [None]))):
            return host
    if any(map(eq, listed, islice(listed, 1, None))):
        raise MalformedInput("an edge is listed twice")
    if host is None:
        if not count:
            raise MalformedInput("custom host requires explicit edges")
        return build_custom_host(n, [divmod(e, n) for e in listed])
    # the first listed edge off the host, in the file's order: a second read
    f.seek(0)
    for us, vs in _pairs(_host_head(_items(f, path), path)[3], "e", "host"):
        for u, v in zip(us, vs):
            e = (u, v) if u < v else (v, u)
            if not host.is_edge(*e):
                raise MalformedInput(f"edge {e} is not an edge of the {kind} host")
    raise MalformedInput(f"explicit edge list disagrees with {kind} host")


def load_host(path):
    """The host a file names.  A file equal to what `save_host` writes for
    a built-in host is accepted block by block (`_is_rendering`); any other
    file is checked edge by edge (`_listed`)."""
    with _opened(path) as f:
        # A file as `save_host` writes it equals the host's rendering.  Check
        # it only when that costs no more than the file's length: n labels,
        # and blocks of at most one edge per byte.  Every built-in kind builds
        # for n >= 3; a smaller n takes the general path, which reports a
        # builder's error.
        head = _HOST_HEAD.match(f.read(_HOST_HEAD_BYTES))
        build = head and HOST_BUILDERS.get(head[1].decode())
        if build and 3 <= int(head[2]) <= os.fstat(f.fileno()).st_size:
            host = build(int(head[2]))
            f.seek(head.end())
            if _is_rendering(host, f, int(head[3])):
                return host
        f.seek(0)
        return _listed(f, path)


def forest_lines(forest: Forest | Caterpillar) -> list[str]:
    lines = [f"n {forest.n}"]
    lines.extend(f"e {u} {v}" for u, v in forest.edges)
    return lines


def chorded_lines(cc: ChordedCycle) -> list[str]:
    lines = [f"n {cc.n}", f"h {cc.h}"]
    lines.extend(f"c {u} {v}" for u, v in cc.chords)
    return lines


def _chorded(n: int, h: int, items: Iterator[_Piece]) -> ChordedCycle:
    # a valid file has 2h + 2 <= n, so at most min(h, n) chord rows are
    # read before the one that shows too many
    limit = max(0, min(h, n))
    chords: list[tuple[int, int]] = []
    for us, vs in _pairs(_upto(items, limit + 1), "c", "chorded"):
        chords += zip(us, vs)
    if len(chords) > limit:
        raise MalformedInput(f"declared h={h} but found more than {limit} chords")
    if len(chords) != h:
        raise MalformedInput(f"declared h={h} but found {len(chords)} chords")
    return ChordedCycle(n, tuple(chords))


def load_input(path):
    """A forest file or a chorded-cycle file, told apart by the `h` line."""
    with _opened(path) as f:
        row, items = _row(_items(f, path))
        if row is None:
            raise MalformedInput("forest file must start with `n <int>`")
        n = _input_size(row)
        row, items = _row(items)
        if row and row[0] == "h":
            return _chorded(n, _int(_value(row, "h"), "h"), items)
        edges: list[tuple[int, int]] = []
        items = chain([([row] if row else [], [])], items)
        for us, vs in _pairs(_upto(items, max(n, 0)), "e", "forest"):
            edges += zip(us, vs)
        return Forest(n, edges)


def save_embedding(mapping: dict[int, int], path) -> None:
    """Write an embedding file, a few thousand lines at a time."""
    lines = (f"m {t} {g}\n" for t, g in sorted(mapping.items()))
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(islice(lines, 4096)) or "\n")  # an empty mapping: one blank line
        while block := "".join(islice(lines, 4096)):
            f.write(block)


def load_embedding(path) -> dict[int, int]:
    names = ("input vertex", "host vertex")
    with _opened(path) as f:
        mapping: dict[int, int] = {}
        count = 0
        for ts, gs in _pairs(_items(f, path), "m", "embedding", names):
            mapping.update(zip(ts, gs))
            count += len(ts)
        if len(mapping) < count:  # name the first repeat: a second read
            f.seek(0)
            seen: set[int] = set()
            for ts, _ in _pairs(_items(f, path), "m", "embedding", names):
                for t in ts:
                    if t in seen:
                        raise MalformedInput(f"vertex {t} mapped twice")
                    seen.add(t)
    return mapping
