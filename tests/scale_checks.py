"""Scale checks: the paper's three constructions at n = 2^20 − 1, and
explicit host files at n = 16383, through the installed `ugg`.  Each row of
ROWS writes its input into the current directory and runs build, embed and
verify, each under a timeout; the script prints one line per row, with each
command's peak RSS, and exits 1 if any failed.  Run it from an empty
directory: python tests/scale_checks.py
"""

import os
import random
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BIG = 2**20 - 1
# `ugg embed`'s peak RSS ceiling on the binary and random trees, in MB.  It
# read 650-659 MB there with provenance packed one int per record, and
# 831-891 MB with a tuple pair per record (Python 3.10 and 3.11).
EMBED_MB = 780
# `ugg verify`'s peak RSS ceiling on the same rows, in MB, with EMBED_MB's
# margin of 18% over the highest reading.  It read 542-556 MB there with the
# universal host's live roofs in a sorted list, and 616-634 MB with them in
# a Fenwick tree indexed by a slot table (Python 3.11).
VERIFY_MB = 660
# `ugg verify`'s peak RSS ceiling on an explicit host file at n = 16383, in
# MB, for the file as written and for a copy with one edge line changed.
# The copy read 427 MB with its rows, tuples and a set held at once; with
# one packed int per listed edge, read one block at a time, it reads 26 MB,
# and the file as written 25 MB (Python 3.11).
EXPLICIT_VERIFY_MB = 100


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
    kind: str  # a kind `ugg build` makes, one of `fileio.KINDS`
    n: int
    generator: str
    seed: int = 0
    explicit: int | None = None  # build --explicit: the `e ` lines the host file holds
    identity: bool = False  # map each vertex to itself instead of running `ugg embed`
    expect: tuple[str, ...] = ()  # () reads `ok`; else patterns verify's exit-1 report has
    changed: tuple[str, str] | None = None  # a line 10 for a host copy; verify's exit-2 error
    embed_mb: int | None = None  # a ceiling on `ugg embed`'s peak RSS, in MB
    verify_mb: int | None = None  # a ceiling on each `ugg verify`'s peak RSS, in MB


CROSSING = ("Crossing",)
ROWS = [
    Row("star", "universal", BIG, "star"),  # every roof live at once in the sweep
    Row("binary", "universal", BIG, "binary", embed_mb=EMBED_MB, verify_mb=VERIFY_MB),
    Row("random", "universal", BIG, "random", seed=1,  # every recursion case fires
        embed_mb=EMBED_MB, verify_mb=VERIFY_MB),
    Row("path", "universal", BIG, "path"),  # path and spider: two()'s long path blocks
    Row("caterpillar", "universal", BIG, "caterpillar", seed=BIG),
    Row("spider", "universal", BIG, "spider"),
    Row("caterpillar-host", "caterpillar", BIG, "shuffled caterpillar", seed=1),
    Row("twochord-host", "twochord", BIG, "two chords", seed=1),
    Row("twochord-on-complete", "complete", BIG, "two chords", seed=1),
    # one crossing each, listed where a scan of the star's pairs takes hours
    Row("crossed-star", "universal", BIG, "crossed star", identity=True, expect=CROSSING),
    Row("crossed-star-2chord", "twochord", BIG, "crossed star", identity=True, expect=CROSSING),
    # all 137,438,167,041 crossing pairs counted, 20 of them listed
    Row("diameters", "complete", BIG, "diameters", identity=True,
        expect=("Crossing", r"^failed: 137438167041 problem\(s\)$")),
    # explicit host files load by the block-by-block check; a copy with one
    # edge line changed takes the general check and is refused
    Row("explicit-random", "universal", 16383, "random", seed=1, explicit=786531,
        changed=("e 3 16000", "(3, 16000) is not an edge"), verify_mb=EXPLICIT_VERIFY_MB),
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


def command(argv: list[str], limit: float) -> tuple[subprocess.CompletedProcess, float]:
    """Run argv for at most `limit` seconds; its result and its peak RSS in
    MB, read from os.wait4.  subprocess.TimeoutExpired past the limit."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        # A preexec_fn makes Popen fork rather than vfork.  A vforked child
        # execs from this process's address space, and Linux carries that
        # space's high-water RSS, this script's own peak, into the child's
        # ru_maxrss; a forked copy carries only its size at the fork.
        proc = subprocess.Popen(argv, stdout=out, stderr=err, preexec_fn=lambda: None)
        deadline = time.monotonic() + limit
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise subprocess.TimeoutExpired(argv, limit)
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        result = subprocess.CompletedProcess(argv, proc.returncode, out.read(), err.read())
    return result, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def ugg(limit: int, code: int, peaks: list[tuple[str, float]],
        *args: str) -> subprocess.CompletedProcess:
    """Run `ugg args` for at most `limit` seconds and add its peak RSS to
    `peaks`; Failed unless it exits `code`."""
    proc, mb = command(["ugg", *args], limit)
    peaks.append((args[0], mb))
    if proc.returncode != code:
        raise Failed(f"ugg {args[0]} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return proc


def ceiling(peaks: list[tuple[str, float]], mb: int | None, what: str) -> None:
    """Failed if the last command's peak RSS is over `mb`, if one is set."""
    if mb is not None and peaks[-1][1] > mb:
        raise Failed(f"{what} peaked at {peaks[-1][1]:.0f} MB, over {mb} MB")


def changed_copy(host: str, line: str) -> str:
    """Write a copy of the host file with its 10th line replaced; its path.
    The lines are gone before a command runs, since a command's peak RSS
    starts from this process's size when it forks."""
    lines = Path(host).read_text().split("\n")
    lines[9] = line
    Path(f"changed-{host}").write_text("\n".join(lines))
    return f"changed-{host}"


def run(row: Row, peaks: list[tuple[str, float]]) -> None:
    """Run `row` in the current directory, adding each command's peak RSS to
    `peaks`; Failed at its first unmet check."""
    limit = 150 if row.n == BIG else 60
    src, host, emb = (f"{row.name}-{part}.txt" for part in ("input", "host", "emb"))
    write(src, input_lines(row.generator, row.n, row.seed))
    explicit = ["--explicit"] if row.explicit is not None else []
    ugg(limit, 0, peaks, "build", "--kind", row.kind, "--n", str(row.n), *explicit,
        "--out", host)
    if row.explicit is not None:
        count = sum(line.startswith("e ") for line in Path(host).read_text().splitlines())
        if count != row.explicit:
            raise Failed(f"the host file lists {count} edges, not {row.explicit}")
    if row.identity:
        write(emb, (f"m {v} {v}" for v in range(row.n)))
    else:
        ugg(limit, 0, peaks, "embed", "--host", host, "--input", src, "--out", emb)
        ceiling(peaks, row.embed_mb, "ugg embed")
    verify = ["verify", "--input", src, "--embedding", emb, "--host"]
    out = ugg(limit, 1 if row.expect else 0, peaks, *verify, host).stdout
    if not (all(re.search(p, out, re.M) for p in row.expect) if row.expect else out == "ok\n"):
        raise Failed(f"verify printed\n{out}")
    ceiling(peaks, row.verify_mb, "ugg verify")
    if row.changed:
        line, error = row.changed
        if error not in ugg(limit, 2, peaks, *verify, changed_copy(host, line)).stderr:
            raise Failed(f"verify of the changed host file did not say {error!r}")
        ceiling(peaks, row.verify_mb, "ugg verify of the changed host file")


def main() -> int:
    failed = 0
    for row in ROWS:
        t0, problem, peaks = time.perf_counter(), "", []
        try:
            run(row, peaks)
        except (Failed, subprocess.TimeoutExpired) as exc:
            problem, failed = str(exc), failed + 1
        seconds = time.perf_counter() - t0
        print(f"{'FAILED' if problem else 'ok':6} {row.name} ({seconds:.1f} s; "
              f"{', '.join(f'{name} {mb:.0f} MB' for name, mb in peaks)})")
        print("".join(f"    {line}\n" for line in problem.splitlines()[:20]), end="", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
