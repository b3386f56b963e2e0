"""Spans around the benchmark's calls into each layer, and the per-module
reading of the stdlib profiler.

Nothing here touches the program: spans wrap calls made from the benchmark,
and the profiler is attached by the benchmark process.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from time import perf_counter

# The measured layers, named by module under ugg/.  render, selftest,
# errors and the package __init__ are not layers of the benchmark.
LAYERS = ("btree", "ugraph", "geometry", "trees", "embedder", "convex", "cli",
          "workbench.families", "workbench.validate", "workbench.fileio")


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1]["id"] if t.stack else None
        self.record = {"id": len(t.spans), "name": self.name, "start": perf_counter(),
                       "end": None, "parent": parent, "op": t.op_id}
        t.spans.append(self.record)
        t.stack.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer.stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory spans: name, start, end, parent span and op id."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.op_id: int | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def span_summary(self) -> dict[str, tuple[int, float]]:
        """name -> (count, total seconds)."""
        out: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            count, total = out.get(s["name"], (0, 0.0))
            out[s["name"]] = (count + 1, total + s["end"] - s["start"])
        return out


def _module_of(filename: str, src: Path) -> str | None:
    """Dotted module name under ugg/ for a profiled code file, else None."""
    try:
        rel = Path(filename).resolve().relative_to(src / "ugg")
    except ValueError:
        return None
    return ".".join(rel.with_suffix("").parts)


class ProfileReading:
    """Per-module self time and exact call counts from cProfile stats.

    A function outside ugg/ (a builtin, or stdlib code) has its self time
    split over its callers in proportion to the time spent on each caller's
    behalf, up the call graph until it reaches ugg code: time a layer spends
    in the builtins it calls is that layer's time.
    """

    def __init__(self, stats: pstats.Stats, src: Path):
        self.stats = stats.stats
        self.module = {f: _module_of(f[0], src) for f in self.stats}
        self._share: dict = {}

    def _shares(self, func, visiting: frozenset = frozenset()) -> dict[str, float]:
        if func in self._share:
            return self._share[func]
        mod = self.module.get(func)
        if mod is not None:
            return {mod: 1.0}
        callers = self.stats[func][4] if func in self.stats else {}
        weights = {c: v[2] for c, v in callers.items() if c not in visiting}
        total = sum(weights.values())
        out: dict[str, float] = {}
        if total > 0:
            for c, w in weights.items():
                for m, x in self._shares(c, visiting | {func}).items():
                    out[m] = out.get(m, 0.0) + x * w / total
        if not visiting:
            self._share[func] = out
        return out

    def self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            if tt <= 0:
                continue
            for mod, share in self._shares(func).items():
                if mod in out:
                    out[mod] += tt * share
        return out

    def calls(self, module: str, name: str, from_module: str | None = None) -> int:
        """Calls of module.name, counting recursive ones; with from_module,
        only the calls made by functions of that module."""
        total = 0
        for func, (_cc, nc, _tt, _ct, callers) in self.stats.items():
            if func[2] != name or self.module[func] != module:
                continue
            if from_module is None:
                total += nc
            else:
                total += sum(v[0] for c, v in callers.items()
                             if self.module.get(c) == from_module)
        return total
