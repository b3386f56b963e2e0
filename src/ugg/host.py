"""The protocol every host graph follows: `n` vertices 0..n-1, a `kind` (its
name in host files), `is_edge(u, v)`, and lazy `edges()` / `edge_count()`.

Only a custom host stores edges.  Every other host lists the neighbors above
a vertex as a few index ranges, and both edge queries walk those ranges.
"""

from __future__ import annotations

from typing import Iterator

from .errors import EqualIndices, IndexOutOfRange


class Host:
    kind: str
    n: int

    def _check_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexOutOfRange(f"vertex pair ({u}, {v}) not in [0, {self.n})")
        if u == v:
            raise EqualIndices(f"is_edge needs two distinct vertices, got {u}")

    def later_ranges(self, u: int) -> list[tuple[int, int]]:
        """The neighbors w > u of u, as sorted, disjoint, nonempty closed ranges."""
        raise NotImplementedError

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge (u, w) with u < w, in sorted order."""
        for u in range(self.n):
            for lo, hi in self.later_ranges(u):
                for w in range(lo, hi + 1):
                    yield u, w

    def edge_count(self) -> int:
        return sum(hi - lo + 1 for u in range(self.n) for lo, hi in self.later_ranges(u))


def merge_ranges(ranges, lo: int, hi: int) -> list[tuple[int, int]]:
    """Closed ranges clipped to [lo, hi], sorted, and merged where they
    overlap or touch."""
    out: list[tuple[int, int]] = []
    for a, b in sorted(ranges):
        a, b = max(a, lo), min(b, hi)
        if a > b:
            continue
        if out and a <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(b, out[-1][1]))
        else:
            out.append((a, b))
    return out
