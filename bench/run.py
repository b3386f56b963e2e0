"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.  Each
phase runs in a fresh worker process (worker.py).  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics, the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.

--trace 0  five set-ups in separate processes (setup_s is their median), and
           one untraced timed phase of whole rounds lasting at least S
           scaled seconds, after one untimed warm-up op.  Every reported
           time is scaled to a fixed host speed by a reference loop timed
           on a timer during the run (hostclock.py); the wall-clock figures
           are printed beside.
--trace 1  one round untraced, then the same round with spans and the
           profiler on, each in its own process; tracing_overhead is the
           ratio of the wall times of their ops and steps.  Spans go to
           bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYERS
from worker import CALLS, CASES, SPAN_MS, SPAN_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("forest-large", "family-census", "cli-roundtrip")
SETUPS = 5
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "vertices_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({f"{name}_ms": "ms" for name in SPAN_MS})
PER_LAYER.update({f"{name}_s": "s" for name in SPAN_S})
PER_LAYER.update({f"{module}.{func}.calls": "count" for module, func in CALLS})
PER_LAYER["embedder.returns"] = "count"
PER_LAYER.update({f"embedder.case.{case}": "count" for case in CASES})
PER_LAYER.update({
    "workbench.validate.pairs_per_edge": "ratio",
    "embedder.rootings_per_vertex": "ratio",
    "workbench.families.classes_per_candidate": "ratio",
    "tracing_overhead": "ratio",
})


class BenchError(Exception):
    pass


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 ops
    beyond it (the 11th slowest op, or the slowest when there are fewer),
    capped at p99.  Past p99 of the census's sub-millisecond ops the reading
    is collector pauses and host preemption, and it scattered by half from
    seed to seed."""
    ordered = sorted(durations)
    n = len(ordered)
    k = min(n - 11 if n > 10 else n - 1, math.ceil(0.99 * n) - 1)
    return ordered[k], 100 * (k + 1) / len(ordered)


def _worker(phase: str, args, deadline: float, **extra) -> dict:
    out = RESULTS / f"worker-{os.getpid()}-{phase}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"{phase} worker exited {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} worker passed the {DEADLINE_S} s deadline") from exc
    finally:
        out.unlink(missing_ok=True)


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    setups = [_worker("setup", args, deadline) for _ in range(SETUPS - 1)]
    run = _worker("measure", args, deadline)
    setups.append(run)
    tail_s, tail_pct = tail(run["op_s"])
    print(f"{args.workload}: {len(run['op_s'])} timed ops in {run['rounds']} rounds, "
          f"{run['wall_s']:.2f} s, {run['ref_samples']} reference samples; "
          f"op_tail_ms is p{tail_pct:.2f}")
    print(f"  wall clock, unscaled: setup_s "
          f"{statistics.median(s['setup_wall_s'] for s in setups):.4f}, vertices_per_s "
          f"{run['vertices'] / run['work_wall_s']:.1f}, op_p50_ms "
          f"{1000 * statistics.median(run['op_wall_s']):.3f}, op_tail_ms "
          f"{1000 * tail(run['op_wall_s'])[0]:.3f}")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "vertices_per_s": run["vertices"] / run["work_s"],
        "op_p50_ms": 1000 * statistics.median(run["op_s"]),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, [run]


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    plain = _worker("measure", args, deadline, rounds=1)
    traced = _worker("trace", args, deadline, rounds=1)
    metrics = dict(traced["metrics"])
    metrics["tracing_overhead"] = traced["work_wall_s"] / plain["work_wall_s"]
    print(f"{args.workload}: spans and per-group numbers in {traced['trace_file']}")
    for group, g in traced["groups"].items():
        print(f"  {group}: {g['ops']} ops, pairs_per_edge {g['pairs_per_edge']:.2f}, "
              f"rootings_per_vertex {g['rootings_per_vertex']:.2f}")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ugg benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "ugg" / "__init__.py").is_file():
        print(f"run.py: the program's source is missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, runs = per_layer(args, deadline)
            units = PER_LAYER
        else:
            metrics, runs = end_to_end(args, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for err in r["errors"]:
            print(f"failed op: {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
