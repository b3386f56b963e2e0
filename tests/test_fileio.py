"""File I/O one block at a time: memory bounds, faults past the first block,
and the pieces read as the whole text was."""

import random
import re
import tracemalloc

import pytest

from ugg.convex import build_twochord_host
from ugg.errors import IndexOutOfRange, InputError, MalformedInput, SizeTooLarge
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


def read_counted(monkeypatch):
    """The sizes of the reads that fileio makes from here on."""
    reads = []
    monkeypatch.setattr(fileio, "open", lambda path, mode: Counted(open(path, mode), reads),
                        raising=False)
    return reads


def test_forest_file_past_its_edges_is_read_no_further(tmp_path, monkeypatch):
    # n rows already list one edge more than a forest on n vertices has, so
    # the loader stops there, and the message is the one for the whole file:
    # its 10th edge leaves the vertex range
    p = tmp_path / "forest.txt"
    p.write_text("n 10\n" + "".join(f"e {i} {i + 1}\n" for i in range(10**5)), encoding="utf-8")
    reads = read_counted(monkeypatch)
    with pytest.raises(IndexOutOfRange, match=re.escape("edge (9, 10) outside [0, 10)")):
        fileio.load_input(p)
    assert sum(reads) <= 2 * fileio.BLOCK and p.stat().st_size > 100 * fileio.BLOCK


def test_chorded_file_past_its_chords_is_read_no_further(tmp_path, monkeypatch):
    # h + 1 chord rows already list one chord too many, so the loader stops
    # there and names the declared h
    p = tmp_path / "chorded.txt"
    p.write_text("n 10\nh 2\n" + "c 0 2\n" * 10**5, encoding="utf-8")
    reads = read_counted(monkeypatch)
    with pytest.raises(MalformedInput, match=re.escape("declared h=2 but found more than 2 chords")):
        fileio.load_input(p)
    assert sum(reads) <= 2 * fileio.BLOCK and p.stat().st_size > 100 * fileio.BLOCK


def test_chorded_file_past_its_vertex_count_is_read_no_further(tmp_path, monkeypatch):
    # a valid file has 2h + 2 <= n, so an h past n bounds nothing: min(h, n)
    # chord rows bound the read, and one more shows too many.  Fewer rows
    # keep the message for a short file
    p = tmp_path / "chorded.txt"
    head = "n 10\nh 1000000000\n"
    p.write_text(head + "c 0 2\n" * 10**5, encoding="utf-8")
    reads = read_counted(monkeypatch)
    with pytest.raises(MalformedInput,
                       match=re.escape("declared h=1000000000 but found more than 10 chords")):
        fileio.load_input(p)
    assert sum(reads) <= 2 * fileio.BLOCK and p.stat().st_size > 100 * fileio.BLOCK
    p.write_text(head + "c 0 2\n" * 10, encoding="utf-8")
    with pytest.raises(MalformedInput, match=re.escape("declared h=1000000000 but found 10 chords")):
        fileio.load_input(p)


@pytest.mark.parametrize("kind", ["custom", "universal"])
def test_host_file_past_its_edge_count_is_read_no_further(tmp_path, monkeypatch, kind):
    # the declared count bounds the read, and one row more shows too many;
    # a built-in kind's file is first compared with the host's rendering,
    # which refuses it in the rendering's first read
    p = tmp_path / "host.txt"
    p.write_text(f"{fileio.MAGIC}\nkind {kind}\nn 63\nedges 5\n" + "e 0 1\n" * 10**5,
                 encoding="utf-8")
    reads = read_counted(monkeypatch)
    with pytest.raises(MalformedInput, match=re.escape("declared 5 edges, found more than 5")):
        fileio.load_host(p)
    checked = 0 if kind == "custom" else fileio.BLOCK << 4
    assert sum(reads) <= checked + 2 * fileio.BLOCK and p.stat().st_size > 100 * fileio.BLOCK


@pytest.mark.parametrize("edges", ["", "edges 1000000000000\n"])
def test_host_file_past_the_explicit_cap_is_read_no_further(tmp_path, monkeypatch, edges):
    # with no `edges` row, or one past the cap, the writer's cap bounds the
    # read: one row past it is too large
    monkeypatch.setattr(fileio, "EXPLICIT_CAP", 10)
    p = tmp_path / "host.txt"
    p.write_text(f"{fileio.MAGIC}\nkind custom\nn 63\n{edges}"
                 + "".join(f"e 0 {v}\n" for v in range(1, 63)) * 2000, encoding="utf-8")
    reads = read_counted(monkeypatch)
    with pytest.raises(SizeTooLarge, match="at most 10 edges"):
        fileio.load_host(p)
    assert sum(reads) <= 2 * fileio.BLOCK and p.stat().st_size > 100 * fileio.BLOCK


@pytest.mark.parametrize("explicit", [False, True])
def test_host_file_builds_its_host_once(tmp_path, monkeypatch, explicit):
    # the header is matched once: a file of the header alone goes straight
    # to the general path, which builds the host, and a rendering is
    # checked against the one host built from its header
    p = tmp_path / "host.txt"
    fileio.save_host(build_twochord_host(10), p, explicit=explicit)
    calls = []
    monkeypatch.setitem(fileio.KINDS, "twochord", fileio.KINDS["twochord"]._replace(
        build=lambda n: calls.append(n) or build_twochord_host(n)))
    host = fileio.load_host(p)
    assert (host.kind, host.n) == ("twochord", 10) and calls == [10]


@pytest.mark.parametrize("role, head, tag, message", [
    pytest.param("embedding", "", "m", "bad host vertex: 'x'", id="embedding"),
    pytest.param("host", f"{fileio.MAGIC}\nkind custom\nn 10\n", "e", "bad endpoint: 'x'",
                 id="host"),
])
def test_pair_file_with_a_bad_first_row_is_read_no_further(tmp_path, monkeypatch, role, head,
                                                           tag, message):
    # the first fault ends the read: nothing past the piece that holds it
    p = tmp_path / "file.txt"
    p.write_text(head + f"{tag} 0 x\n" + "".join(f"{tag} {i} {i + 1}\n" for i in range(10**5)),
                 encoding="utf-8")
    reads = read_counted(monkeypatch)
    load = fileio.load_embedding if role == "embedding" else fileio.load_host
    with pytest.raises(MalformedInput, match=re.escape(message)):
        load(p)
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
    # the first fault in file order is named: a bad token before a bad row
    ("input", forest_text("e 1 q\n", 3).replace("e 29 30\n", "e 29\n"),
     "bad endpoint: 'q'", "row-after-token"),
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


# Each role: its loader, the name of a bad row in its messages, its pair
# tag, the names of its two tokens and its header rows, each with a bad
# replacement and the message that names it.
ROLES = {
    "forest": (fileio.load_input, "e", ("endpoint", "endpoint"),
               [("n 40", "n q", "bad n: 'q'")]),
    "chorded": (fileio.load_input, "c", ("endpoint", "endpoint"),
                [("n 40", "n q", "bad n: 'q'"), ("h 2", "h q", "bad h: 'q'")]),
    "embedding": (fileio.load_embedding, "m", ("input vertex", "host vertex"), []),
    "host": (fileio.load_host, "e", ("endpoint", "endpoint"),
             [(fileio.MAGIC, "ugg-graph v2", "missing `ugg-graph v1` header in {path}"),
              ("kind universal", "kind bogus", "unknown host kind 'bogus'"),
              ("n 15", "n q", "bad n: 'q'"),
              (f"edges {build_universal(15).edge_count()}", "edges q", "bad edge count: 'q'")]),
}


def clean_rows(role, rng):
    """The header and pair rows of a valid file of the role."""
    if role == "forest":
        return [f"e {rng.randrange(v)} {v}" for v in range(1, 40)]
    if role == "chorded":
        return ["c 0 2", "c 4 7"]
    if role == "embedding":
        return [f"m {t} {t}" for t in range(40)]
    return [f"e {u} {v}" for u, v in build_universal(15).edges()]


def body_faults(role):
    """Lines that are a fault wherever they stand past the header, each with
    its message; None for a line that is not UTF-8."""
    _, tag, names = ROLES[role][:3]
    faults = [("x 1 2", f"unexpected {role} line: x 1 2"),
              (f"{tag} 5", f"unexpected {role} line: {tag} 5"),
              (f"{tag} 1 2 3", f"unexpected {role} line: {tag} 1 2 3"),
              (f"{tag} q 1", f"bad {names[0]}: 'q'"),
              (f"{tag} 1 z", f"bad {names[1]}: 'z'"),
              (f"{tag} 1 \udcff2", None),
              (f"{tag} \udce2(1 2", None)]
    if role == "host":
        faults += [("e 3 70", "bad edge (3, 70)"), ("edges 5", "unexpected host line: edges 5")]
    return faults


def damaged(role, rng):
    """A file of the role with one or two faults, and the message of the
    first in file order, None for a line that is not UTF-8."""
    header = [row for row, _, _ in ROLES[role][3]]
    rows = clean_rows(role, rng)
    faults = []
    for _ in range(rng.randrange(1, 3)):
        line, message = rng.choice(body_faults(role))
        at = rng.randrange(len(rows) + 1)
        rows.insert(at, line)
        faults = [(i + (i >= at), m) for i, m in faults] + [(at, message)]
    first = min(faults)[1]
    if header and rng.random() < 0.3:  # a bad header row comes before them
        i = rng.randrange(len(header))
        _, header[i], first = ROLES[role][3][i]
    text = "".join(f"{line}\n" for line in header + rows)
    return text.encode("utf-8", "surrogateescape"), first


# Files with a byte that is not UTF-8 past their first fault: at some block
# sizes it lands in the fault's piece, at others in a later one.
EXPLICIT = {
    # a bad token, then a line that is not UTF-8 past the 12th pair row
    "forest": [(b"n 12\ne 1 q\n" + b"".join(b"e 0 %d\n" % i for i in range(1, 12)) + b"\xff\n",
                "bad endpoint: 'q'")],
    # a bad first row, then a chorded file's `h` row and a byte that is not UTF-8
    "chorded": [(b"e 1 2 3\nh 2\nc 0 2\n\xffc 4 7\n", "expected `n <value>`, got `e 1 2 3`")],
}


@pytest.mark.parametrize("role", sorted(ROLES))
def test_damaged_files_name_their_first_fault_at_every_block_size(tmp_path, monkeypatch, role):
    # one or two faults, anywhere past the header or in it: at every block
    # size the same exception and message, the one of the fault read first
    rng = random.Random(role)
    p = tmp_path / "file.txt"
    load = ROLES[role][0]
    for data, first in [damaged(role, rng) for _ in range(60)] + EXPLICIT.get(role, []):
        p.write_bytes(data)
        if first is None:  # a line that is not UTF-8 holds the first bad byte
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode()
            first = f"{p} is not UTF-8: {whole.value}"
        seen = set()
        for block in (5, 16, 64, 4096):
            monkeypatch.setattr(fileio, "BLOCK", block)
            with pytest.raises(InputError) as exc:
                load(p)
            seen.add((type(exc.value), str(exc.value)))
        assert seen == {(MalformedInput, first.format(path=p))}, data


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
