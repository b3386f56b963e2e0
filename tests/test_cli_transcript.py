"""A pinned transcript of the command line, run in process through cli.main.

A fixed corpus of commands: `build` (implicit and --explicit), `embed`,
`verify` and `render` on the universal, caterpillar and two-chord hosts at
n = 63 and 1023; `enumerate` of each family; a crossed star verified on each
host; and the error paths, a malformed file, a size past a cap and a missing
file.  Each command runs in one working directory, by relative paths, and
its record is its argv, exit code, stdout, stderr and every file it wrote or
changed, in name order.  One sha256 covers every record in order.  Each
record's own digest is pinned too, so a mismatch names the first command
whose output differs.  A change that alters a byte on purpose re-pins both
and says which commands changed and why.
"""

import hashlib
import random
from pathlib import Path

from ugg import cli

SIZES = (63, 1023)
KINDS = ("universal", "caterpillar", "twochord")


def forest_file(n: int, seed: int) -> str:
    """A random recursive tree on n shuffled labels, about a tenth of its
    edges dropped."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[rng.randrange(i)], label[i]) for i in range(1, n) if rng.random() < 0.9]
    return "".join([f"n {n}\n", *(f"e {u} {v}\n" for u, v in edges)])


def caterpillar_file(n: int, seed: int) -> str:
    """A caterpillar tree: a spine of n // 3 vertices, every other vertex a
    leaf on a random spine vertex, the labels shuffled."""
    rng = random.Random(seed)
    label = list(range(n))
    rng.shuffle(label)
    spine = n // 3
    edges = [(i - 1, i) for i in range(1, spine)] + [(rng.randrange(spine), i)
                                                      for i in range(spine, n)]
    return "".join([f"n {n}\n", *(f"e {label[u]} {label[v]}\n" for u, v in edges)])


def twochord_file(n: int) -> str:
    return f"n {n}\nh 2\nc {n // 9} {n // 3}\nc {n // 2} {5 * n // 6}\n"


def inputs() -> dict[str, str]:
    """The input files the corpus reads, by name."""
    files = {}
    for n in SIZES:
        files[f"universal-{n}.in"] = forest_file(n, n)
        files[f"caterpillar-{n}.in"] = caterpillar_file(n, n)
        files[f"twochord-{n}.in"] = twochord_file(n)
    # vertex 3 re-hung from the star's center 0 onto 1, under the identity:
    # (1, 3) crosses (0, 2)
    star = [(0, i) for i in range(1, 63) if i != 3] + [(1, 3)]
    files["star.in"] = "".join(["n 63\n", *(f"e {u} {v}\n" for u, v in star)])
    files["identity.emb"] = "".join(f"m {t} {t}\n" for t in range(63))
    files["malformed.in"] = "n 5\ne 0 1\ne 1 x\n"
    files["malformed-host.txt"] = "ugg-graph v1\nkind universal\nn 7\ne 0 9\n"
    files["huge.in"] = f"n {(1 << 20) + 1}\n"
    return files


def corpus() -> list[list[str]]:
    commands = []
    for n in SIZES:
        for kind in KINDS:
            host, explicit = f"{kind}-{n}.txt", f"{kind}-{n}-explicit.txt"
            given, emb = f"{kind}-{n}.in", f"{kind}-{n}.emb"
            commands += [
                ["build", "--kind", kind, "--n", str(n), "--out", host],
                ["build", "--kind", kind, "--n", str(n), "--explicit", "--out", explicit],
                ["embed", "--host", host, "--input", given, "--out", emb],
                ["verify", "--host", explicit, "--input", given, "--embedding", emb],
                ["render", "--host", host, "--embedding", emb, "--out", f"{kind}-{n}.svg"],
            ]
    commands += [
        ["enumerate", "--what", "forests", "--n", "6", "--out", "forests.txt"],
        ["enumerate", "--what", "caterpillars", "--n", "7", "--out", "caterpillars.txt"],
        ["enumerate", "--what", "chorded", "--n", "9", "--h", "2", "--out", "chorded.txt"],
    ]
    commands += [["verify", "--host", f"{kind}-63.txt", "--input", "star.in",
                  "--embedding", "identity.emb"] for kind in KINDS]
    commands += [
        ["verify", "--host", "universal-63.txt", "--input", "malformed.in",
         "--embedding", "identity.emb"],
        ["embed", "--host", "malformed-host.txt", "--input", "universal-63.in",
         "--out", "never.emb"],
        ["embed", "--host", "twochord-63.txt", "--input", "universal-63.in",
         "--out", "never.emb"],
        ["verify", "--host", "universal-63.txt", "--input", "huge.in",
         "--embedding", "identity.emb"],
        ["build", "--kind", "universal", "--n", str((1 << 20) + 1), "--explicit",
         "--out", "never.txt"],
        ["verify", "--host", "missing.txt", "--input", "star.in",
         "--embedding", "identity.emb"],
    ]
    return commands


def transcript(workdir: Path, capsys) -> list[bytes]:
    """Each command's record, run in `workdir` after the inputs are written."""
    for name, text in inputs().items():
        (workdir / name).write_text(text, encoding="utf-8")
    seen = {p.name: p.read_bytes() for p in workdir.iterdir()}
    records = []
    for argv in corpus():
        capsys.readouterr()
        code = cli.main(argv)
        out, err = capsys.readouterr()
        parts = [repr(argv), str(code), out, err]
        for path in sorted(workdir.iterdir()):
            data = path.read_bytes()
            if seen.get(path.name) != data:
                seen[path.name] = data
                parts += [path.name, data.decode("utf-8")]
        records.append("\0".join(parts).encode("utf-8"))
    return records


# sha256 over the records' own sha256s in corpus order, and the first 8 hex
# digits of each record's sha256
TRANSCRIPT_DIGEST = "3ef02a02ea33c8ef33d3201399eb487c583ae80e83c2a78a4c1ee2e615482c05"
RECORD_DIGESTS = (
    'af3c0b68', '03b3d682', 'da1a71e1', 'b1a3002c', '34ed71dd', '4e927e41', '38a5298c', '441ca75c',
    '2ccdb4f0', 'e683db36', '2cfe4223', '787d2b91', '5a0b5cce', '939c26d3', '282ae3c9', 'b6a708a3',
    '4aefeef8', '45e0f671', '6397d477', '281d3c2a', '18a7081c', '09a78bb4', '1c72f1b5', 'b1e5accf',
    '9a5d8b2f', '676feadc', '326c837a', 'e7fcc7e2', 'a310773c', '0835c548', 'ac62cbde', '4a2706c9',
    '4d85b416', 'debcc457', 'af54a75b', '5c7b1f39', '21285ab0', 'e7093719', 'e6b349b3', 'ef283435',
    '2088909f', '20a10604',
)


def test_cli_transcript_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    records = transcript(tmp_path, capsys)
    digest = hashlib.sha256(b"".join(hashlib.sha256(r).digest() for r in records)).hexdigest()
    steps = tuple(hashlib.sha256(r).hexdigest()[:8] for r in records)
    if digest != TRANSCRIPT_DIGEST:
        first = next((i for i, (a, b) in enumerate(zip(steps, RECORD_DIGESTS)) if a != b),
                     min(len(steps), len(RECORD_DIGESTS)))
        argv = corpus()[first] if first < len(records) else "the end of the corpus"
        raise AssertionError(f"command {first} differs first: {argv}\n"
                             f"digest {digest}\nrecords {steps}")
