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
        """The neighbors w > u of u, as closed ranges (lo, hi): sorted,
        disjoint and nonempty, each hi below the next lo.  Two ranges may
        touch (hi + 1 == next lo), as the custom host's ranges of one do."""
        raise NotImplementedError

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge (u, w) with u < w, in sorted order."""
        for u in range(self.n):
            for lo, hi in self.later_ranges(u):
                for w in range(lo, hi + 1):
                    yield u, w

    def edge_count(self) -> int:
        return sum(hi - lo + 1 for u in range(self.n) for lo, hi in self.later_ranges(u))

