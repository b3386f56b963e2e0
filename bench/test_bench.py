"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench      (or: python3 -m pytest bench)
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from math import isqrt
from pathlib import Path

import gen
import hostclock
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def degrees(n, edges):
    deg = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return [deg[v] for v in range(n)]


def assert_tree(test, n, edges):
    test.assertEqual(len(edges), n - 1)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        test.assertTrue(0 <= u < n and 0 <= v < n and u != v)
        ru, rv = find(u), find(v)
        test.assertNotEqual(ru, rv, "edge closes a cycle")
        parent[ru] = rv


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class Generators(unittest.TestCase):
    SIZES = (7, 64, 255, 4095)

    def test_every_shape_is_a_tree_on_n_vertices(self):
        for n in self.SIZES:
            for shape, make in gen.SHAPES.items():
                with self.subTest(shape=shape, n=n):
                    edges = make(n, random.Random(n))
                    assert_tree(self, n, edges)
                    shuffled = gen.shuffle_labels(n, edges, random.Random(1))
                    assert_tree(self, n, shuffled)
                    self.assertEqual(sorted(degrees(n, edges)), sorted(degrees(n, shuffled)))

    def test_shape_signatures(self):
        for n in self.SIZES:
            rng = random.Random(n)
            self.assertEqual(max(degrees(n, gen.star_tree(n, rng))), n - 1)
            self.assertEqual(max(degrees(n, gen.path_tree(n, rng))), 2)
            self.assertLessEqual(max(degrees(n, gen.binary_tree(n, rng))), 3)
            spider = degrees(n, gen.spider_tree(n, rng))
            self.assertEqual(spider[0], isqrt(n))
            self.assertLessEqual(max(spider[1:]), 2)
            edges = gen.caterpillar_tree(n, rng)
            deg = degrees(n, edges)
            spine = {v for v in range(n) if deg[v] >= 2}
            inner = [(u, v) for u, v in edges if u in spine and v in spine]
            self.assertEqual(len(inner), len(spine) - 1)  # spine is a subtree...
            self.assertLessEqual(max(degrees(n, inner)), 2)  # ...and a path

    def test_two_chord_cycles_are_valid(self):
        for n in (6, 7, 10, 1023):
            rng = random.Random(n)
            for _ in range(200):
                (a, b), (c, d) = gen.two_chord_cycle(n, rng)
                self.assertEqual(len({a, b, c, d}), 4)
                for u, v in ((a, b), (c, d)):
                    self.assertTrue(0 <= u < v < n)
                    self.assertGreaterEqual(min(v - u, n - (v - u)), 2)
                self.assertEqual(a < c < b, a < d < b, "chords interleave")

    def test_same_seed_same_inputs(self):
        for make in (*gen.SHAPES.values(), gen.two_chord_cycle):
            self.assertEqual(make(255, random.Random(5)), make(255, random.Random(5)))


class Clock(unittest.TestCase):
    def test_samples_inside_an_interval_are_not_its_work(self):
        with hostclock.HostClock() as clock:
            a = clock.mark()
            while len(clock.refs) < 4:
                hostclock.reference_loop()
            b = clock.mark()
        self.assertLess(clock.work(a, b), b[0] - a[0])
        self.assertAlmostEqual(clock.work(a, b) + b[1] - a[1], b[0] - a[0])
        self.assertGreater(clock.scaled(a, b), 0)

    def test_scale_is_ref_s_over_the_median_sample(self):
        clock = hostclock.HostClock()
        clock.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        clock.refs = [0.004, 0.001, 0.002, 0.008, 0.002, 0.004]
        ref_s = hostclock.REF_S
        # fewer than NEAR samples inside: three on each side join them
        self.assertAlmostEqual(clock.scale(3.5, 3.6), ref_s / 0.003)
        # enough inside: only those count
        self.assertAlmostEqual(clock.scale(1.5, 4.5), ref_s / 0.002)


class Contract(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(listed, run.END_TO_END)
        listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(listed, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)
        for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS]:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_tail_is_the_eleventh_slowest_op(self):
        self.assertEqual(run.tail(list(range(100))), (89, 90.0))
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0))
        self.assertEqual(run.tail(list(range(10000))), (9899, 99.0))

    def test_frozen_census_counts(self):
        sys.path.insert(0, str(ROOT / "src"))
        from ugg.workbench.families import chorded_cycle_census, forest_counts

        frozen = json.loads((HERE / "census_counts.json").read_text(encoding="utf-8"))
        counts = forest_counts(12)
        self.assertEqual({int(n): c for n, c in frozen["forests"].items()},
                         {n: counts[n] for n in range(1, 13)})
        for n, c in frozen["caterpillars"].items():
            n = int(n)
            if n >= 4:
                self.assertEqual(c, 2 ** (n - 4) + 2 ** ((n - 4) // 2))
        for n in range(6, 13):
            self.assertEqual(frozen["chorded_cycles_h2"][str(n)],
                             chorded_cycle_census(n, 2)[0])


class Smoke(unittest.TestCase):
    """Tiny inputs through the whole benchmark, each workload in its own
    processes."""

    def check(self, trace: int, names: dict):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                                 "--trace", str(trace), "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)  # error_rate 0
                self.assertEqual(set(result["metrics"]), set(names))
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], names[name])
                    self.assertIsInstance(m["value"], (int, float))
                yield workload, result["metrics"]

    def test_end_to_end(self):
        for _workload, metrics in self.check(0, run.END_TO_END):
            for name, m in metrics.items():
                self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        for workload, metrics in self.check(1, run.PER_LAYER):
            self.assertGreater(metrics["tracing_overhead"]["value"], 0)
            self.assertGreater(metrics["workbench.validate.self_s"]["value"], 0)
            if workload == "family-census":
                self.assertGreater(metrics["workbench.families.self_s"]["value"], 0)

    def test_each_phase_starts_fresh(self):
        out = HERE / "results" / "fresh-test.json"
        (HERE / "results").mkdir(exist_ok=True)
        default = subprocess.run([sys.executable, "-c", "import sys; print(sys.getrecursionlimit())"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        try:
            for workload in run.WORKLOADS:
                subprocess.run([sys.executable, str(HERE / "worker.py"), "--phase", "setup",
                                "--workload", workload, "--seed", "1", "--tiny",
                                "--out", str(out)], cwd=ROOT, check=True, timeout=60)
                fresh = json.loads(out.read_text(encoding="utf-8"))["fresh"]
                self.assertEqual(fresh["recursion_limit"], int(default))
                self.assertIn(fresh["locate_cache_size"], (0, None))
        finally:
            out.unlink(missing_ok=True)

    def test_fails_without_the_program(self):
        bare = HERE / "results" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(
                "results", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = run_bench("--workload", "forest-large", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("metrics", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
