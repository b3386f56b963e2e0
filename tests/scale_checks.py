"""Scale checks: the paper's three constructions at n = 2^20 − 1, and
explicit host files at n = 16383, through the installed `ugg`.  Each row of
ROWS writes its input into the current directory and runs build, embed and
verify, each under a timeout; the script prints one line per row and exits 1
if any failed.  Run it from an empty directory: python tests/scale_checks.py
"""

import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BIG = 2**20 - 1


# forest shapes: (n, rng) -> edges
SHAPES = {
    "star": lambda n, rng: [(0, v) for v in range(1, n)],
    # vertex 3 hung from vertex 1: under the identity map (1, 3) crosses (0, 2)
    "crossed star": lambda n, rng: [(1 if v == 3 else 0, v) for v in range(1, n)],
    "binary": lambda n, rng: [((v - 1) // 2, v) for v in range(1, n)],
    "path": lambda n, rng: [(v, v + 1) for v in range(n - 1)],
    # a random recursive tree: each vertex hangs off a random earlier one
    "random": lambda n, rng: [(rng.randrange(v), v) for v in range(1, n)],
    # a spine of half the vertices, each other vertex a leaf on a random one
    "caterpillar": lambda n, rng: [(i, i + 1) for i in range(n // 2 - 1)]
    + [(rng.randrange(n // 2), v) for v in range(n // 2, n)],
    "spider": lambda n, rng: [(max(0, v - int(n ** 0.5)), v) for v in range(1, n)],
    # the chords (i, i + (n − 1) / 2), which pairwise interleave
    "diameters": lambda n, rng: [(i, i + (n - 1) // 2) for i in range((n - 1) // 2)],
}


def input_lines(generator: str, n: int, seed: int) -> list[str]:
    """The lines of an input file: a forest shape, "shuffled" and a shape
    (labels permuted after the edges are drawn), or "two chords", a random
    pair nested or side by side, each skipping a vertex on both sides."""
    rng = random.Random(seed)
    if generator == "two chords":
        while True:
            a, b, c, d = sorted(rng.sample(range(n), 4))
            chords = ((a, b), (c, d)) if rng.random() < 0.5 else ((a, d), (b, c))
            if all(min(v - u, n - (v - u)) >= 2 for u, v in chords):
                return [f"n {n}", "h 2"] + [f"c {u} {v}" for u, v in chords]
    shape = generator.removeprefix("shuffled ")
    edges = SHAPES[shape](n, rng)
    if shape != generator:
        perm = rng.sample(range(n), n)
        edges = [(perm[u], perm[v]) for u, v in edges]
    return [f"n {n}"] + [f"e {u} {v}" for u, v in edges]


@dataclass(frozen=True)
class Row:
    name: str
    kind: str  # a kind `ugg build` makes, or "complete", a header-only host file
    n: int
    generator: str
    seed: int = 0
    explicit: int | None = None  # build --explicit: the `e ` lines the host file holds
    identity: bool = False  # map each vertex to itself instead of running `ugg embed`
    expect: tuple[str, ...] = ()  # () reads `ok`; else patterns verify's exit-1 report has
    changed: tuple[str, str] | None = None  # a line 10 for a host copy; verify's exit-2 error


CROSSING = ("Crossing",)
ROWS = [
    Row("star", "universal", BIG, "star"),  # every roof live at once in the sweep
    Row("binary", "universal", BIG, "binary"),
    Row("random", "universal", BIG, "random", seed=1),  # every recursion case fires
    Row("path", "universal", BIG, "path"),  # path and spider: two()'s long path blocks
    Row("caterpillar", "universal", BIG, "caterpillar", seed=BIG),
    Row("spider", "universal", BIG, "spider"),
    Row("caterpillar-host", "caterpillar", BIG, "shuffled caterpillar", seed=1),
    Row("twochord-host", "twochord", BIG, "two chords", seed=1),
    # one crossing each, listed where a scan of the star's pairs takes hours
    Row("crossed-star", "universal", BIG, "crossed star", identity=True, expect=CROSSING),
    Row("crossed-star-2chord", "twochord", BIG, "crossed star", identity=True, expect=CROSSING),
    # all 137,438,167,041 crossing pairs counted, 20 of them listed
    Row("diameters", "complete", BIG, "diameters", identity=True,
        expect=("Crossing", r"^failed: 137438167041 problem\(s\)$")),
    # explicit host files load by the block-by-block check; a copy with one
    # edge line changed takes the general check and is refused
    Row("explicit-random", "universal", 16383, "random", seed=1, explicit=786531,
        changed=("e 3 16000", "(3, 16000) is not an edge")),
    Row("explicit-universal", "universal", 16383, "shuffled random", seed=16383,
        explicit=786531),
    Row("explicit-caterpillar", "caterpillar", 16383, "shuffled caterpillar", seed=16383,
        explicit=376851),
    Row("explicit-twochord", "twochord", 4095, "two chords", seed=4095, explicit=511875),
]


class Failed(Exception):
    """A row's check that did not hold."""


def write(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{line}\n" for line in lines)


def ugg(limit: int, code: int, *args: str) -> subprocess.CompletedProcess:
    """Run `ugg args` for at most `limit` seconds; Failed unless it exits `code`."""
    proc = subprocess.run(["ugg", *args], capture_output=True, text=True, timeout=limit)
    if proc.returncode != code:
        raise Failed(f"ugg {args[0]} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc


def run(row: Row) -> None:
    """Run `row` in the current directory; Failed at its first unmet check."""
    limit = 150 if row.n == BIG else 60
    src, host, emb = (f"{row.name}-{part}.txt" for part in ("input", "host", "emb"))
    write(src, input_lines(row.generator, row.n, row.seed))
    if row.kind == "complete":
        write(host, ["ugg-graph v1", "kind complete", f"n {row.n}"])
    else:
        explicit = ["--explicit"] if row.explicit is not None else []
        ugg(limit, 0, "build", "--kind", row.kind, "--n", str(row.n), *explicit, "--out", host)
    if row.explicit is not None:
        count = sum(line.startswith("e ") for line in Path(host).read_text().splitlines())
        if count != row.explicit:
            raise Failed(f"the host file lists {count} edges, not {row.explicit}")
    if row.identity:
        write(emb, (f"m {v} {v}" for v in range(row.n)))
    else:
        ugg(limit, 0, "embed", "--host", host, "--input", src, "--out", emb)
    verify = ["verify", "--input", src, "--embedding", emb, "--host"]
    out = ugg(limit, 1 if row.expect else 0, *verify, host).stdout
    if not (all(re.search(p, out, re.M) for p in row.expect) if row.expect else out == "ok\n"):
        raise Failed(f"verify printed\n{out}")
    if row.changed:
        line, error = row.changed
        lines = Path(host).read_text().split("\n")
        lines[9] = line
        Path(f"changed-{host}").write_text("\n".join(lines))
        if error not in ugg(limit, 2, *verify, f"changed-{host}").stderr:
            raise Failed(f"verify of the changed host file did not say {error!r}")


def main() -> int:
    failed = 0
    for row in ROWS:
        t0, problem = time.perf_counter(), ""
        try:
            run(row)
        except (Failed, subprocess.TimeoutExpired) as exc:
            problem, failed = str(exc), failed + 1
        print(f"{'FAILED' if problem else 'ok':6} {row.name} ({time.perf_counter() - t0:.1f} s)")
        print("".join(f"    {line}\n" for line in problem.splitlines()[:20]), end="", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
