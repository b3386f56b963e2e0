"""The protocol every host graph follows: `n` vertices 0..n-1, a `kind` (its
name in host files), the pair rule `joins(u, v)`, and lazy `edges()` /
`edge_count()`.

`joins` is unchecked: it takes two distinct vertices of the host and nothing
else, and each host defines it once.  `is_edge` is the checked wrapper, which
refuses a pair off the host or a repeated vertex and then asks `joins`; a
caller that has already proved its pairs sound, as the validator has, calls
`joins` directly.

Only a custom host stores edges.  Every other host lists the neighbors above
each vertex as a few index ranges, in one lazy walk over its vertices that
holds at most O(log n) such lists at once (the universal host's stack, one
per level, or the caterpillar host's sorted list of far vertices, one or two
per reach class) and no table of size n, and both edge queries read that
walk.

`Embedding` is what every embedder returns and what the validator, the
renderer and the CLI read: a vertex map into a host, and which construction
placed each host interval.  Its `Provenance` keeps one int per record, with
the label as an index into `LABELS`, and decodes each record on access.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator

from .errors import EqualIndices, IndexOutOfRange


# The labels of provenance records; a record keeps its label's index here.
LABELS = ("base", "case-1.1", "case-1.2.1", "case-1.2.2", "case-1.2.3", "case-1.2.4",
          "case-1.2.5.1", "case-1.2.5.2", "case-2", "forest-component", "caterpillar",
          "twochord")


class Provenance(Sequence):
    """Which construction placed each host interval: a read-only sequence of
    (label, (lo, hi)) records, in the order they were made.

    Each record is kept as one int, ((lo << h | hi) << 4) | code, where code
    is the label's index in LABELS and h a bit width that holds every host
    vertex (a universal host's height); it is decoded on access.  A writer
    appends such ints to the list it passes in, with no object per record.
    """

    __slots__ = ("_records", "_h")

    def __init__(self, records: list[int] | None = None, h: int = 0):
        self._records = [] if records is None else records
        self._h = h

    @classmethod
    def whole(cls, label: str, n: int) -> Provenance:
        """One record: `label` placed the whole host [0, n - 1]."""
        return cls([(n - 1) << 4 | LABELS.index(label)], n.bit_length())

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(Provenance(self._records[i], self._h))
        x = self._records[i]
        return LABELS[x & 15], (x >> (self._h + 4), x >> 4 & ((1 << self._h) - 1))

    def __iter__(self) -> Iterator[tuple[str, tuple[int, int]]]:
        h, mask = self._h + 4, (1 << self._h) - 1
        for x in self._records:
            yield LABELS[x & 15], (x >> h, x >> 4 & mask)

    def __repr__(self) -> str:
        return repr(list(self))


class Embedding:
    """A vertex map from an input graph into a host, and its provenance."""

    def __init__(self, mapping: dict[int, int], provenance: Provenance | None = None):
        self.mapping = mapping
        self.provenance = Provenance() if provenance is None else provenance


class Host:
    kind: str
    n: int

    def _check_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexOutOfRange(f"vertex pair ({u}, {v}) not in [0, {self.n})")
        if u == v:
            raise EqualIndices(f"is_edge needs two distinct vertices, got {u}")

    def is_edge(self, u: int, v: int) -> bool:
        self._check_pair(u, v)
        return self.joins(u, v)

    def joins(self, u: int, v: int) -> bool:
        """Whether u and v are adjacent, for distinct vertices u, v in
        [0, n); no check."""
        raise NotImplementedError

    def ranges(self) -> Iterator[list[tuple[int, int]]]:
        """For u = 0, 1, ..., n - 1 in turn, the neighbors w > u of u as
        closed ranges (lo, hi): sorted, disjoint and nonempty, each hi below
        the next lo.  Two ranges may touch (hi + 1 == next lo).  The walk is
        lazy; a caller may stop it at any vertex."""
        raise NotImplementedError

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge (u, w) with u < w, in sorted order."""
        for u, ranges in enumerate(self.ranges()):
            for lo, hi in ranges:
                for w in range(lo, hi + 1):
                    yield u, w

    def edge_count(self) -> int:
        return sum(hi - lo + 1 for ranges in self.ranges() for lo, hi in ranges)
