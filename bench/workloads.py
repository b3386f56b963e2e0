"""The three workloads.  Each is a closed loop with one client: the next op
starts when the previous one has returned.

A workload sets itself up in its constructor (inputs, hosts, temp files in
the working directory it is given), then runs ops through a runner: `warmup` runs one untimed op and `round` runs
the workload's repeating unit.  An op calls the program, checks the result
and returns what it verified; any exception marks it failed.

Import after `ugg` is importable (see worker.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from ugg import (
    Forest,
    build_caterpillar_host,
    build_twochord_host,
    build_universal,
    embed_caterpillar,
    embed_forest,
    embed_twochord,
)
from ugg.cli import main as ugg_main
from ugg.workbench.families import (
    enumerate_caterpillars,
    enumerate_chorded_cycles,
    enumerate_forests,
)
from ugg.workbench.validate import validate_embedding

import gen

HERE = Path(__file__).resolve().parent


class OpFailed(Exception):
    pass


def _check_bijection(mapping: dict[int, int], n: int) -> None:
    if sorted(mapping) != list(range(n)) or sorted(mapping.values()) != list(range(n)):
        raise OpFailed("embedding is not a bijection onto the host vertices")


def _validate(tracer, host, graph, emb) -> None:
    with tracer.span("workbench.validate.validate"):
        report = validate_embedding(host, graph, emb)
    if not report.ok:
        raise OpFailed(f"validation failed: {report.failures[:2]}")


def _result(n, edges, forest_vertices=0, provenance=None, validations=1):
    return {"vertices": n, "validated_edges": edges * validations,
            "forest_vertices": forest_vertices, "provenance": provenance}


class ForestLarge:
    """Large forests on one universal host, six tree shapes per round.  Each
    shape has a pool of inputs and a round takes the next of each, so that a
    run averages over several random trees: one random tree's peak memory
    and time moved by a fifth from seed to seed."""

    name = "forest-large"
    POOL = 4  # inputs per shape

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.n = 63 if tiny else 4095
        rng = random.Random(seed)
        self.inputs = [[(shape, gen.shuffle_labels(self.n, make(self.n, rng), rng))
                        for shape, make in gen.SHAPES.items()]
                       for _ in range(self.POOL)]
        self.host = build_universal(self.n)
        self.turn = 0

    def _op(self, tracer, edges):
        n, host = self.n, self.host
        with tracer.span("trees.forest"):
            forest = Forest(n, edges)
        with tracer.span("embedder.embed_forest"):
            emb = embed_forest(host, forest)
        _validate(tracer, host, forest, emb)
        _check_bijection(emb.mapping, n)
        return _result(n, len(edges), n, emb.provenance)

    def warmup(self, runner):
        shape, edges = self.inputs[0][0]
        runner.op(shape, self._op, edges)

    def round(self, runner):
        inputs = self.inputs[self.turn % self.POOL]
        self.turn += 1
        for shape, edges in inputs:
            runner.op(shape, self._op, edges)


class FamilyCensus:
    """Every class of three exhaustive families, each embedded and checked
    on the host of its size; a round re-enumerates the families."""

    name = "family-census"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        frozen = json.loads((HERE / "census_counts.json").read_text(encoding="utf-8"))
        forest_max, cat_max, cycle_max = (7, 8, 9) if tiny else (12, 14, 24)
        self.sizes = {
            "forest": range(1, forest_max + 1),
            "caterpillar": range(1, cat_max + 1),
            "twochord": range(6, cycle_max + 1),
        }
        self.frozen = {
            "forest": frozen["forests"],
            "caterpillar": frozen["caterpillars"],
            "twochord": frozen["chorded_cycles_h2"],
        }
        self.hosts = {
            "forest": {n: build_universal(n) for n in self.sizes["forest"]},
            "caterpillar": {n: build_caterpillar_host(n) for n in self.sizes["caterpillar"]},
            "twochord": {n: build_twochord_host(n) for n in self.sizes["twochord"]},
        }
        self.warm_edges = gen.path_tree(self.sizes["forest"][-1], random.Random(seed))

    def _op(self, tracer, family, n, item, count_ok):
        host = self.hosts[family][n]
        if family == "forest":
            with tracer.span("embedder.embed_forest"):
                emb = embed_forest(host, item)
            result = _result(n, len(item.edges), n, emb.provenance)
        elif family == "caterpillar":
            with tracer.span("convex.embed_caterpillar"):
                emb = embed_caterpillar(host, item)
            result = _result(n, n - 1, 0, emb.provenance)
        else:
            with tracer.span("convex.embed_twochord"):
                emb = embed_twochord(host, item)
            result = _result(n, n + item.h, 0, emb.provenance)
        _validate(tracer, host, item, emb)
        _check_bijection(emb.mapping, n)
        if not count_ok:
            raise OpFailed(f"{family} class count at n={n} differs from the frozen value")
        return result

    def _enumerate(self, tracer):
        out = {}
        with tracer.span("workbench.families.enumerate_forests"):
            out["forest"] = {n: enumerate_forests(n) for n in self.sizes["forest"]}
        with tracer.span("workbench.families.enumerate_caterpillars"):
            out["caterpillar"] = {n: enumerate_caterpillars(n) for n in self.sizes["caterpillar"]}
        with tracer.span("workbench.families.enumerate_chorded_cycles"):
            out["twochord"] = {n: enumerate_chorded_cycles(n, 2) for n in self.sizes["twochord"]}
        return out

    def warmup(self, runner):
        n = self.sizes["forest"][-1]
        runner.op("forest", self._op, "forest", n, Forest(n, self.warm_edges), True)

    def round(self, runner):
        classes = runner.step("enumerate", self._enumerate)
        runner.counts["twochord_classes"] += sum(map(len, classes["twochord"].values()))
        ops = []
        for family, by_n in classes.items():
            for n, items in by_n.items():
                count_ok = len(items) == self.frozen[family][str(n)]
                ops.extend((family, n, item, count_ok) for item in items)
        random.Random(self.seed).shuffle(ops)
        for family, n, item, count_ok in ops:
            runner.op(family, self._op, family, n, item, count_ok)


class CliRoundtrip:
    """build --explicit, embed and verify through ugg.cli.main on temp files,
    host kinds in rotation."""

    name = "cli-roundtrip"
    KINDS = ("caterpillar", "twochord", "universal")
    POOL = 8  # inputs per host kind

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.n = n = 63 if tiny else 1023
        self.dir = workdir
        rng = random.Random(seed)
        self.inputs = {kind: [] for kind in self.KINDS}
        for i in range(self.POOL):
            for kind in self.KINDS:
                path = workdir / f"{kind}-{i}.txt"
                if kind == "twochord":
                    chords = gen.two_chord_cycle(n, rng)
                    lines = [f"n {n}", "h 2"] + [f"c {u} {v}" for u, v in chords]
                    edges = n + 2
                else:
                    make = gen.caterpillar_tree if kind == "caterpillar" else gen.random_tree
                    tree = gen.shuffle_labels(n, make(n, rng), rng)
                    lines = [f"n {n}"] + [f"e {u} {v}" for u, v in tree]
                    edges = n - 1
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                self.inputs[kind].append((path, edges))
        self.turn = 0

    def _cli(self, tracer, name, argv):
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(name), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ugg_main(argv)
        if rc != 0:
            raise OpFailed(f"ugg {argv[0]} exited {rc}: {err.getvalue().strip()[:200]}")
        return out.getvalue()

    def _op(self, tracer, kind, path, edges):
        n, d = self.n, self.dir
        host, emb = d / f"host-{kind}.txt", d / f"emb-{kind}.txt"
        self._cli(tracer, "cli.build", ["build", "--kind", kind, "--n", str(n),
                                         "--explicit", "--out", str(host)])
        self._cli(tracer, "cli.embed", ["embed", "--host", str(host), "--input", str(path),
                                         "--out", str(emb)])
        said = self._cli(tracer, "cli.verify", ["verify", "--host", str(host), "--input",
                                                 str(path), "--embedding", str(emb)])
        if said.strip() != "ok":
            raise OpFailed(f"verify printed {said.strip()[:200]!r}")
        rows = [line.split() for line in emb.read_text(encoding="utf-8").splitlines() if line]
        mapping = {int(t): int(g) for _m, t, g in rows}
        _check_bijection(mapping, n)
        return _result(n, edges, n if kind == "universal" else 0, None, validations=2)

    def warmup(self, runner):
        kind = self.KINDS[0]
        path, edges = self.inputs[kind][0]
        runner.op(kind, self._op, kind, path, edges)

    def round(self, runner):
        i = self.turn % self.POOL
        self.turn += 1
        for kind in self.KINDS:
            path, edges = self.inputs[kind][i]
            runner.op(kind, self._op, kind, path, edges)


WORKLOADS = {w.name: w for w in (ForestLarge, FamilyCensus, CliRoundtrip)}
