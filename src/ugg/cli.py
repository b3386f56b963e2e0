"""Command-line front end.

Subcommands: build, embed, verify, enumerate, selftest, render.  Exit codes:
0 success, 1 validation or universality failure, 2 malformed input (an
`InputError` or an unreadable file), 3 size cap exceeded.  Each command's
handler imports the modules it runs, so a process compiles only those.
The host kinds `build` makes and `embed` embeds into are `fileio.KINDS`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import InputError, MalformedInput, SizeTooLarge, UggError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MALFORMED = 2
EXIT_TOO_LARGE = 3


def _build(args) -> int:
    from .workbench import fileio

    host = fileio.KINDS[args.kind].build(args.n)
    count = fileio.save_host(host, args.out, explicit=args.explicit)
    edges = "" if count is None else f", {count} edges"
    print(f"wrote {args.kind} host, n={args.n}{edges}, to {args.out}")
    return EXIT_OK


def _embed(args) -> int:
    from .workbench import fileio
    from .workbench.validate import validate_embedding

    host = fileio.load_host(args.host)
    graph = fileio.load_input(args.input)
    kind = fileio.KINDS.get(host.kind)
    if kind is None:
        raise MalformedInput(f"no embedder for host kind {host.kind!r}")
    if not isinstance(graph, kind.embeds):
        raise MalformedInput(f"a {host.kind} host embeds {kind.what}")
    emb = kind.embed(host, graph)
    report = validate_embedding(host, graph, emb)
    if not report.ok:
        print("embedding failed validation:")
        for failure in report.failures[:10]:
            print(f"  {failure}")
        return EXIT_FAILURE
    fileio.save_embedding(emb.mapping, args.out)
    print(f"embedded {graph.n} vertices into {args.host}; wrote {args.out}")
    return EXIT_OK


def _verify(args) -> int:
    from .host import Embedding
    from .workbench import fileio
    from .workbench.validate import validate_embedding

    host = fileio.load_host(args.host)
    graph = fileio.load_input(args.input)
    mapping = fileio.load_embedding(args.embedding)
    report = validate_embedding(host, graph, Embedding(mapping))
    if report.ok:
        print("ok")
        return EXIT_OK
    # crossings are counted in full but listed only up to WITNESS_CAP
    print(f"failed: {report.crossings or len(report.failures)} problem(s)")
    for failure in report.failures[:20]:
        print(f"  {failure}")
    return EXIT_FAILURE


def _enumerate(args) -> int:
    from pathlib import Path

    from .workbench import fileio
    from .workbench.families import (
        enumerate_caterpillars,
        enumerate_chorded_cycles,
        enumerate_forests,
    )

    if args.what == "forests":
        blocks = [fileio.forest_lines(f) for f in enumerate_forests(args.n)]
    elif args.what == "caterpillars":
        blocks = [fileio.forest_lines(c) for c in enumerate_caterpillars(args.n)]
    else:
        blocks = [fileio.chorded_lines(cc) for cc in enumerate_chorded_cycles(args.n, args.h)]
    out: list[str] = []
    for i, block in enumerate(blocks):
        out.append(f"# class {i}")
        out.extend(block)
        out.append("")
    Path(args.out).write_text("\n".join(out), encoding="utf-8")
    print(f"wrote {len(blocks)} classes of {args.what} at n={args.n} to {args.out}")
    return EXIT_OK


def _selftest(args) -> int:
    from .workbench.selftest import run_all

    # without --seed, criterion 4 keeps the seed the criteria default to
    ok = run_all(args.max_n) if args.seed is None else run_all(args.max_n, args.seed)
    return EXIT_OK if ok else EXIT_FAILURE


def _render(args) -> int:
    from pathlib import Path

    from .host import Embedding
    from .workbench import fileio
    from .workbench.render import render_svg

    host = fileio.load_host(args.host)
    emb = None if args.embedding is None else Embedding(fileio.load_embedding(args.embedding))
    svg = render_svg(host, emb, args.layout)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later `main` call in the process."""
    from .workbench import fileio

    p = argparse.ArgumentParser(
        prog="ugg",
        description="Build sparse universal host graphs, embed forests, "
                    "caterpillars, and two-chord cycles into them, and verify "
                    "the results.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a host graph and save it")
    b.add_argument("--kind", required=True, choices=fileio.KINDS)
    b.add_argument("--n", type=int, required=True, help="number of vertices")
    b.add_argument("--explicit", action="store_true",
                   help="serialize the full edge list")
    b.add_argument("--out", required=True)

    e = sub.add_parser("embed", help="embed an input graph into a host")
    e.add_argument("--host", required=True)
    e.add_argument("--input", required=True,
                   help="forest or chorded-cycle file")
    e.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="validate a saved embedding")
    v.add_argument("--host", required=True)
    v.add_argument("--input", required=True)
    v.add_argument("--embedding", required=True)

    n = sub.add_parser("enumerate", help="list all classes of a family")
    n.add_argument("--what", required=True,
                   choices=("forests", "caterpillars", "chorded"))
    n.add_argument("--n", type=int, required=True)
    n.add_argument("--h", type=int, default=2, help="chord count (chorded only)")
    n.add_argument("--out", required=True)

    s = sub.add_parser("selftest", help="run the acceptance suites")
    s.add_argument("--max-n", type=int, default=None, dest="max_n",
                   help="cap instance sizes for a quick smoke run")
    s.add_argument("--seed", type=int, default=None,
                   help="seed for the random-tree smoke test")

    r = sub.add_parser("render", help="draw a host (and embedding) as SVG")
    r.add_argument("--host", required=True)
    r.add_argument("--embedding", default=None)
    r.add_argument("--layout", choices=("schematic", "exact"), default="schematic")
    r.add_argument("--out", required=True)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # the handler is looked up per call, so one patched on the module is used
    handler = globals()[f"_{args.command}"]
    try:
        return handler(args)
    except SizeTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except UggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
