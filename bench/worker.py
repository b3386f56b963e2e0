"""One phase of one workload, in a fresh process.

    python3 bench/worker.py --phase setup|measure|trace --workload NAME
        --seed N --seconds S [--rounds R] [--tiny] --out FILE

Each phase runs in its own interpreter so that process-global state of the
program (the btree._locate cache, the recursion limit embed_tree raises)
never leaks from one workload, or one pass, into the next.  The phase writes
a JSON report to FILE.

setup    imports the program and builds the workload's inputs, then stops.
measure  sets up, runs one untimed warm-up op, then runs rounds untraced
         until S scaled seconds, or 1.5 S wall seconds, have passed (or
         exactly R rounds).  The host clock (hostclock.py) runs from the
         start of set-up to the end, so every time is scaled.
trace    the same after set-up and warm-up, with spans and the stdlib
         profiler on, for exactly R rounds; reports the per-layer numbers.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()  # set-up starts here; interpreter start-up is not measured

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import NEAR, HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

CASES = ("base", "1.1", "1.2.1", "1.2.2", "1.2.3", "1.2.4", "1.2.5.1", "1.2.5.2", "2")
SPAN_MS = ("trees.forest", "embedder.embed_forest", "convex.embed_caterpillar",
           "convex.embed_twochord", "workbench.validate.validate",
           "cli.build", "cli.embed", "cli.verify")
SPAN_S = ("workbench.families.enumerate_forests",
          "workbench.families.enumerate_caterpillars",
          "workbench.families.enumerate_chorded_cycles")
CALLS = (("geometry", "edges_cross"), ("convex", "convex_edges_cross"),
         ("ugraph", "is_edge"), ("ugraph", "highest_in"),
         ("btree", "height_key"), ("trees", "from_adjacency"))
PREDICATES = (("geometry", "edges_cross"), ("convex", "convex_edges_cross"))
WALL_CAP = 1.5  # a timed phase also ends after this many times S of wall time


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Runner:
    """Runs ops for a workload: times each, counts failures instead of
    stopping, and, when tracing, turns on the op's profiler group.  Ops and
    steps are stamped with the host clock's marks when there is a clock."""

    def __init__(self, tracer, profile: bool, timed: bool, clock=None):
        self.tracer = tracer
        self.profiles: dict[str, cProfile.Profile] | None = {} if profile else None
        self.timed = timed
        self.clock = clock
        # start and end marks of each timed op and step, flat; as compact as
        # the program's own memory allows, since peak_rss_mb reads the process
        self.ops = array("d")
        self.steps = array("d")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.totals: Counter = Counter()
        self.by_group: dict[str, Counter] = {}
        self.cases: Counter = Counter()
        self.counts: Counter = Counter()

    def _profiler(self, group: str):
        if self.profiles is None:
            return None
        if group not in self.profiles:
            self.profiles[group] = cProfile.Profile()
        return self.profiles[group]

    def mark(self) -> tuple[float, float]:
        return self.clock.mark() if self.clock is not None else (perf_counter(), 0.0)

    def step(self, group: str, fn, *args):
        """Work inside a round that is not an op (family enumeration)."""
        prof = self._profiler(group)
        start = self.mark()
        if prof is not None:
            prof.enable()
        try:
            return fn(self.tracer, *args)
        finally:
            if prof is not None:
                prof.disable()
            if self.timed:
                self.steps.extend((*start, *self.mark()))

    def op(self, group: str, fn, *args) -> None:
        self.attempted += 1
        self.tracer.op_id = self.attempted
        prof = self._profiler(group)
        result = None
        start = self.mark()
        if prof is not None:
            prof.enable()
        try:
            with self.tracer.span(f"op.{group}"):
                result = fn(self.tracer, *args)
        except Exception as exc:  # a failed op is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{group}: {type(exc).__name__}: {exc}"[:300])
        finally:
            if prof is not None:
                prof.disable()
        end = self.mark()
        self.tracer.op_id = None
        if self.timed:
            self.ops.extend((*start, *end))
        if result is None:
            return
        group_totals = self.by_group.setdefault(group, Counter())
        for key in ("vertices", "validated_edges", "forest_vertices"):
            self.totals[key] += result[key]
            group_totals[key] += result[key]
        for label, _span in result["provenance"] or ():
            self.totals["returns"] += 1
            if label == "base" or label.startswith("case-"):
                self.cases[label.removeprefix("case-")] += 1


def intervals(marks: array):
    """(start, end) mark pairs from a Runner's flat record."""
    for k in range(0, len(marks), 4):
        yield (marks[k], marks[k + 1]), (marks[k + 2], marks[k + 3])


def _fresh_state() -> dict:
    from ugg import btree

    locate = getattr(btree, "_locate", None)
    info = getattr(locate, "cache_info", None)
    return {"recursion_limit": sys.getrecursionlimit(),
            "locate_cache_size": info().currsize if info else None}


def _per_layer(runner: Runner, tracer) -> tuple[dict, dict]:
    from tracing import ProfileReading

    reading = ProfileReading(pstats.Stats(*runner.profiles.values()), SRC)
    metrics: dict[str, float] = {}
    for layer, seconds in reading.self_seconds().items():
        metrics[f"{layer}.self_s"] = seconds
    spans = tracer.span_summary()
    for name in SPAN_MS:
        count, total = spans.get(name, (0, 0.0))
        metrics[f"{name}_ms"] = 1000 * total / count if count else 0.0
    for name in SPAN_S:
        metrics[f"{name}_s"] = spans.get(name, (0, 0.0))[1]
    for module, func in CALLS:
        metrics[f"{module}.{func}.calls"] = reading.calls(module, func)
    metrics["embedder.returns"] = runner.totals["returns"]
    for case in CASES:
        metrics[f"embedder.case.{case}"] = runner.cases[case]

    def pairs_per_edge(rd, totals) -> float:
        pairs = sum(rd.calls(m, f, from_module="workbench.validate") for m, f in PREDICATES)
        return pairs / totals["validated_edges"] if totals["validated_edges"] else 0.0

    def rootings_per_vertex(rd, totals) -> float:
        rootings = rd.calls("trees", "from_adjacency")
        return rootings / totals["forest_vertices"] if totals["forest_vertices"] else 0.0

    metrics["workbench.validate.pairs_per_edge"] = pairs_per_edge(reading, runner.totals)
    metrics["embedder.rootings_per_vertex"] = rootings_per_vertex(reading, runner.totals)
    candidates = reading.calls("workbench.families", "_dihedral_canonical")
    classes = runner.counts["twochord_classes"]
    metrics["workbench.families.classes_per_candidate"] = (
        classes / candidates if candidates else 0.0)

    groups = {}
    for group, prof in runner.profiles.items():
        rd = ProfileReading(pstats.Stats(prof), SRC)
        totals = runner.by_group.get(group, Counter())
        groups[group] = {
            "ops": sum(1 for s in tracer.spans if s["name"] == f"op.{group}"),
            "pairs_per_edge": pairs_per_edge(rd, totals),
            "rootings_per_vertex": rootings_per_vertex(rd, totals),
            "self_s": rd.self_seconds(),
        }
    return metrics, groups


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with HostClock() as clock:
        return _main(args, clock)


def _main(args, clock: HostClock) -> int:
    if not (SRC / "ugg" / "__init__.py").is_file():
        print(f"worker: no program source at {SRC / 'ugg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ugg

    if Path(ugg.__file__).resolve().parent != (SRC / "ugg").resolve():
        print(f"worker: imported ugg from {ugg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    fresh = _fresh_state()
    from workloads import WORKLOADS

    workdir = RESULTS / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        setup = (_T0, 0.0), clock.mark()
        for _ in range(NEAR):
            clock.sample()
        report = {"setup_s": clock.scaled(*setup), "setup_wall_s": clock.work(*setup),
                  "fresh": fresh}
        if args.phase == "trace":
            # no clock samples inside profiled code: they would count as ugg's time
            clock.stop()
            report.update(_run(workload, args, None))
        elif args.phase == "measure":
            report.update(_run(workload, args, clock))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


def _run(workload, args, clock: HostClock | None) -> dict:
    from tracing import Tracer

    warm = Runner(Tracer(False), profile=False, timed=False)
    workload.warmup(warm)

    tracing = clock is None
    tracer = Tracer(tracing)
    runner = Runner(tracer, profile=tracing, timed=True, clock=clock)
    rounds = 0
    mark = runner.mark
    work = clock.work if clock is not None else lambda a, b: b[0] - a[0]
    start = mark()
    while True:
        workload.round(runner)
        rounds += 1
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif (clock.scaled if clock else work)(start, mark()) >= args.seconds \
                or perf_counter() - start[0] >= WALL_CAP * args.seconds:
            break
    wall = perf_counter() - start[0]

    out = {
        "wall_s": wall,
        "rounds": rounds,
        "vertices": runner.totals["vertices"],
        "attempted": warm.attempted + runner.attempted,
        "failed": warm.failed + runner.failed,
        "errors": warm.errors + runner.errors,
        "op_wall_s": [work(a, b) for a, b in intervals(runner.ops)],
        "work_wall_s": sum(work(a, b) for a, b in intervals(runner.ops + runner.steps)),
        "peak_rss_mb": peak_rss_mb(),
    }
    if clock is not None:
        for _ in range(NEAR):
            clock.sample()
        out["op_s"] = [clock.scaled(a, b) for a, b in intervals(runner.ops)]
        out["work_s"] = sum(clock.scaled(a, b) for a, b in intervals(runner.ops + runner.steps))
        out["ref_samples"] = len(clock.refs)
    if tracing:
        metrics, groups = _per_layer(runner, tracer)
        out["metrics"] = metrics
        out["groups"] = groups
        trace_file = RESULTS / f"{args.workload}-seed{args.seed}.trace.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "metrics": metrics, "groups": groups,
                                          "spans": tracer.spans}), encoding="utf-8")
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
