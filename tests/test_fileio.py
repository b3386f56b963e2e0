"""File I/O one block at a time: memory bounds, faults past the first block,
and the pieces read as the whole text was."""

import random
import re
import tracemalloc

import pytest

from ugg.convex import build_twochord_host
from ugg.errors import IndexOutOfRange, InputError, MalformedInput
from ugg.ugraph import build_universal
from ugg.workbench import fileio


def traced(call):
    """The result of call(), its traced peak and what it leaves allocated."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
        return result, peak, current
    finally:
        tracemalloc.stop()


def test_explicit_host_file_is_written_and_read_in_a_fraction_of_its_size(tmp_path):
    # Writing the 1.8 MB universal file at n = 4095 peaked at 2.1 times its
    # size with the blocks joined into one text and encoded; loading it
    # peaked at 2.0 times with its bytes and text held at once.  Now the
    # writer holds its blocks (1.2 times) and the loader a table of labels
    # and a block of each side (0.4 times).
    host = build_universal(4095)
    p = tmp_path / "host.txt"
    count, save, _ = traced(lambda: fileio.save_host(host, p, explicit=True))
    size = p.stat().st_size
    assert count == host.edge_count() and size > 1 << 20
    loaded, load, _ = traced(lambda: fileio.load_host(p))
    assert (loaded.kind, loaded.n) == ("universal", 4095)
    assert save < 1.5 * size, save / size
    assert load < 0.6 * size, load / size


def test_forest_file_is_parsed_without_its_text_and_tokens(tmp_path, monkeypatch):
    # With `Forest` kept out (a stand-in holds the edge list), the loader's
    # peak above what it returns is the parse's own.  Reading the whole text
    # and splitting it held both at once: 495 KB above the edges for this
    # 45 KB file, close to its token list alone (534 KB).  One block at a
    # time it is 137 KB.
    rng = random.Random(4095)
    n = 4095
    text = f"n {n}\n" + "".join(f"e {rng.randrange(v)} {v}\n" for v in range(1, n))
    p = tmp_path / "forest.txt"
    p.write_text(text, encoding="utf-8")
    _, _, tokens = traced(text.split)

    class Held:
        def __init__(self, n, edges):
            self.n, self.edges = n, edges

    monkeypatch.setattr(fileio, "Forest", Held)
    forest, peak, kept = traced(lambda: fileio.load_input(p))
    assert len(forest.edges) == n - 1
    assert peak - kept < tokens // 2, (peak - kept, tokens)


class Counted:
    """A binary file that counts the bytes read from it."""

    def __init__(self, f, reads):
        self.f, self.reads = f, reads

    def read(self, size=-1):
        data = self.f.read(size)
        self.reads.append(len(data))
        return data

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_forest_file_past_its_edges_is_read_no_further(tmp_path, monkeypatch):
    # n rows already list one edge more than a forest on n vertices has, so
    # the loader stops there, and the message is the one for the whole file:
    # its 10th edge leaves the vertex range
    p = tmp_path / "forest.txt"
    p.write_text("n 10\n" + "".join(f"e {i} {i + 1}\n" for i in range(10**5)), encoding="utf-8")
    reads = []
    monkeypatch.setattr(fileio, "open", lambda path, mode: Counted(open(path, mode), reads),
                        raising=False)
    with pytest.raises(IndexOutOfRange, match=re.escape("edge (9, 10) outside [0, 10)")):
        fileio.load_input(p)
    assert sum(reads) <= 2 * fileio.BLOCK and p.stat().st_size > 100 * fileio.BLOCK


def rendered(host):
    """The bytes of `host`'s explicit file and its edge lines."""
    lines = [f"e {u} {v}\n" for u, v in host.edges()]
    head = f"{fileio.MAGIC}\nkind {host.kind}\nn {host.n}\nedges {len(lines)}\n"
    return head, lines


def forest_text(line=None, at=30):
    """A path on 50 vertices, its line `at` (0 is the header) replaced."""
    lines = ["n 50\n"] + [f"e {i} {i + 1}\n" for i in range(49)]
    if line is not None:
        lines[at] = line
    return "".join(lines)


def host_cases():
    head, lines = rendered(build_universal(63))
    count = len(lines)
    changed = lines.copy()
    changed[200] = "e 3 60\n"  # (3, 60) is not an edge of the host
    assert not build_universal(63).is_edge(3, 60)
    return [
        ("host", head + "".join(lines[:-1]), f"declared {count} edges, found {count - 1}",
         "edge-count"),
        ("host", head + "".join(changed), "edge (3, 60) is not an edge of the universal host",
         "changed-line"),
        ("host", head + "".join(lines[:100] + [lines[99]] + lines[101:]),
         "an edge is listed twice", "repeat"),
        ("host", head + "".join(lines[:100] + ["e 70 3\n"] + lines[101:]), "bad edge (3, 70)",
         "out-of-range"),
    ]


CASES = [
    ("input", forest_text("x 1 2\n"), "unexpected forest line: x 1 2", "bad-row"),
    ("input", forest_text("e 29 3z\n"), "bad endpoint: '3z'", "bad-token"),
    ("input", forest_text("e 29  30 31\n"), "unexpected forest line: e 29 30 31", "long-row"),
    # a bad row names the fault even past an earlier bad token
    ("input", forest_text("e 1 q\n", 3).replace("e 29 30\n", "e 29\n"),
     "unexpected forest line: e 29", "row-after-token"),
    ("input", forest_text("e 29 29\n"), "self-loop at 29", "self-loop"),
    ("input", "n 100\nh 3\n" + "# a comment\n" * 20 + "c 0 2\nc 5 9\n",
     "declared h=3 but found 2 chords", "chord-count"),
    ("input", "n 100\nh 2\n" + "# a comment\n" * 20 + "c 0 2\nc 2 9\n",
     "chord (2,9) shares a vertex with another chord", "chord-vertex"),
    ("embedding", "".join(f"m {t} {t}\n" for t in range(40)) + "m 5 77\n",
     "vertex 5 mapped twice", "mapped-twice"),
    ("embedding", "".join(f"m {t} {t}\n" for t in range(40)) + "m 41 -\n",
     "bad host vertex: '-'", "bad-image"),
    *host_cases(),
]


@pytest.mark.parametrize("block", [5, 16, 64])
@pytest.mark.parametrize("role, text, message", [pytest.param(*case[:3], id=case[3])
                                                  for case in CASES])
def test_faults_past_the_first_block_keep_their_message(tmp_path, monkeypatch, block,
                                                        role, text, message):
    monkeypatch.setattr(fileio, "BLOCK", block)
    p = tmp_path / "file.txt"
    p.write_text(text, encoding="utf-8")
    load = {"input": fileio.load_input, "embedding": fileio.load_embedding,
            "host": fileio.load_host}[role]
    with pytest.raises(InputError) as exc:
        load(p)
    assert str(exc.value) == message
    assert len(text) > 2 * block


@pytest.mark.parametrize("block", [5, 16, 1 << 13])
@pytest.mark.parametrize("bad, what", [
    (b"\xff", "byte 0xff in position {0}: invalid start byte"),
    (b"\xe2(", "byte 0xe2 in position {0}: invalid continuation byte"),
    (b"\xe2\x82", "bytes in position {0}-{1}: invalid continuation byte"),
])
def test_bytes_that_are_not_utf8_are_named_at_their_file_position(tmp_path, monkeypatch,
                                                                   block, bad, what):
    # the position counts from the start of the file, as decoding it whole
    # names it, whichever block holds the byte
    monkeypatch.setattr(fileio, "BLOCK", block)
    data = forest_text().encode()
    at = data.index(b"e 29 30\n") + 5
    data = data[:at] + bad + data[at:]
    p = tmp_path / "forest.txt"
    p.write_bytes(data)
    with pytest.raises(MalformedInput) as exc:
        fileio.load_input(p)
    where = what.format(at, at + 1)
    assert str(exc.value) == f"{p} is not UTF-8: 'utf-8' codec can't decode {where}"
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode()
    assert str(exc.value) == f"{p} is not UTF-8: {whole.value}"


@pytest.mark.parametrize("block", [5, 16, 64, 1 << 13])
def test_pieces_load_as_the_whole_text(tmp_path, monkeypatch, block):
    # every layout loads the same at every block size: the written one, and
    # others read row by row, with pair lines split across blocks
    monkeypatch.setattr(fileio, "BLOCK", block)
    rng = random.Random(block)
    n = 300
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    written = f"n {n}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    p = tmp_path / "forest.txt"
    for text in (written, written.replace("\n", "\r\n"), "# c\n\n" + written.replace(" ", "\t"),
                 written.replace("e 1", "e  01").rstrip("\n")):
        p.write_text(text, encoding="utf-8", newline="")
        forest = fileio.load_input(p)
        assert (forest.n, forest.edges) == (n, edges)
    mapping = dict(zip(rng.sample(range(5000), 5000), range(5000)))
    fileio.save_embedding(mapping, p)
    lines = [f"m {t} {g}\n" for t, g in sorted(mapping.items())]
    assert p.read_text(encoding="utf-8") == "".join(lines)
    assert fileio.load_embedding(p) == mapping


@pytest.mark.parametrize("block", [5, 16, 1 << 13])
@pytest.mark.parametrize("build", [build_universal, build_twochord_host])
def test_explicit_host_files_load_at_every_block_size(tmp_path, monkeypatch, block, build):
    # the written file passes the block-by-block check; the same edges
    # shuffled pass the general check, whose sort merges runs of a block
    monkeypatch.setattr(fileio, "BLOCK", block)
    host = build(63)
    p = tmp_path / "host.txt"
    fileio.save_host(host, p, explicit=True)
    head, lines = rendered(host)
    assert p.read_text(encoding="utf-8") == head + "".join(lines)
    assert fileio.load_host(p).kind == host.kind
    random.Random(block).shuffle(lines)
    p.write_text(head + "".join(lines), encoding="utf-8")
    assert fileio.load_host(p).kind == host.kind
    p.write_text(head.replace("edges", "# edges") + "".join(lines + lines[:1]), encoding="utf-8")
    with pytest.raises(MalformedInput, match="an edge is listed twice"):
        fileio.load_host(p)


def test_custom_host_past_64_bit_packing_loads(tmp_path):
    # u·n + v outgrows 64 bits for n > 3,037,000,499; those edges go in a list
    n = 1 << 32
    p = tmp_path / "host.txt"
    p.write_text(f"{fileio.MAGIC}\nkind custom\nn {n}\ne {n - 1} {n - 2}\ne 0 {n - 1}\n",
                 encoding="utf-8")
    host = fileio.load_host(p)
    assert (host.kind, host.n) == ("custom", n)
    assert host.is_edge(n - 2, n - 1) and host.is_edge(0, n - 1) and not host.is_edge(0, 1)
