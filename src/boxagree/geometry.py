"""Exact geometry of axis-parallel boxes and their combinatorial invariants.

Boxes are cartesian products of closed rational intervals, so emptiness of an
intersection is a bit-exact question, never a floating-point judgement.
Boundary contact counts as intersection, and degenerate (zero-width) sides
are legal: a single point is a valid box.

Depth and the f-vector are read off the intersection graph alone.
Axis-parallel boxes have Helly number 2 (Danzer-Gruenbaum-Klee 1963): boxes
that meet pairwise share a point.  So the depth of an arrangement is the
clique number of its intersection graph, and f_k counts its (k+1)-cliques.

`intersection_graph` sweeps each axis once.  Endpoints are scaled to
integers over the lcm of their denominators; the scale is positive, so the
integers order exactly as the rationals do and no float is involved.  With
the boxes sorted by lower and by upper endpoint, the boxes that meet box i
on an axis are those with lo <= hi_i (a prefix of the lower order, found by
binary search) that also have hi >= lo_i (a suffix of the upper order).  The
graph is the AND of these rows over the axes: O(d n log n) integer
comparisons plus n word-sized bitset ANDs per axis.

Every value here is immutable.  An `Arrangement` builds its intersection
graph on first use and keeps it (a `functools.cached_property`, outside
equality, hashing and `repr`), so the invariants below share one build.
Concurrent first uses may each build the graph; they build equal graphs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .graphs import Graph, clique_counts, clique_number

RationalLike = Fraction | int | str


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):  # a float is rounded already, a bool is a flag
        raise TypeError(f"endpoint must be an int, a Fraction or a 'p/q' string, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class RationalInterval:
    """Closed, non-empty interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _frac(self.lo))
        object.__setattr__(self, "hi", _frac(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    def intersect(self, other: RationalInterval) -> RationalInterval | None:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return RationalInterval(lo, hi) if lo <= hi else None

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class Box:
    """Product of d closed intervals, one per coordinate axis."""

    sides: tuple[RationalInterval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sides", tuple(self.sides))
        if len(self.sides) < 1:
            raise ValueError("a box needs at least one side")
        for s in self.sides:
            if not isinstance(s, RationalInterval):
                raise TypeError(f"box side must be a RationalInterval, got {s!r}")

    @classmethod
    def of(cls, pairs) -> Box:
        """Build a box from (lo, hi) pairs of ints, strings or Fractions."""
        return cls(tuple(RationalInterval(lo, hi) for lo, hi in pairs))

    @property
    def dimension(self) -> int:
        return len(self.sides)

    def contains(self, point: tuple[Fraction, ...]) -> bool:
        if len(point) != self.dimension:
            raise ValueError("point dimension mismatch")
        return all(s.contains(x) for s, x in zip(self.sides, point))

    def __repr__(self) -> str:
        return " x ".join(repr(s) for s in self.sides)


def intersect_boxes(a: Box, b: Box) -> Box | None:
    """Coordinate-wise intersection; None when any side comes up empty.

    Commutative and associative where defined.
    """
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    sides = []
    for sa, sb in zip(a.sides, b.sides):
        s = sa.intersect(sb)
        if s is None:
            return None
        sides.append(s)
    return Box(tuple(sides))


@dataclass(frozen=True)
class Arrangement:
    """An indexed family of same-dimension boxes; indices run 1..n."""

    dimension: int
    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.boxes) < 1:
            raise ValueError("an arrangement needs at least one box")
        for i, b in enumerate(self.boxes, start=1):
            if b.dimension != self.dimension:
                raise ValueError(
                    f"box {i} has dimension {b.dimension}, expected {self.dimension}"
                )

    @classmethod
    def of(cls, dimension: int, box_specs) -> Arrangement:
        """Build from per-box lists of (lo, hi) coordinate pairs."""
        return cls(dimension, tuple(Box.of(spec) for spec in box_specs))

    @property
    def n(self) -> int:
        return len(self.boxes)

    def box(self, i: int) -> Box:
        """1-based access, matching the index family convention."""
        if not 1 <= i <= self.n:
            raise IndexError(f"box index {i} out of range 1..{self.n}")
        return self.boxes[i - 1]

    @cached_property
    def _graph(self) -> Graph:
        return _sweep(self)


@dataclass(frozen=True)
class FVector:
    """Entry k counts the non-empty (k+1)-fold intersections, k = 0..n-1."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        seen_zero = False
        for e in self.entries:
            if e < 0:
                raise ValueError("f-vector entries must be non-negative")
            if seen_zero and e > 0:
                raise ValueError("f-vector support must be an initial segment")
            seen_zero = seen_zero or e == 0

    def f(self, k: int) -> int:
        """f_k, with the natural 0 beyond the stored range."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self.entries[k] if k < len(self.entries) else 0

    def __len__(self) -> int:
        return len(self.entries)


def _integer_endpoints(sides) -> tuple[list[int], list[int]]:
    """The sides' endpoints times the lcm of their denominators."""
    scale = lcm(*(x.denominator for s in sides for x in (s.lo, s.hi)))
    return ([s.lo.numerator * (scale // s.lo.denominator) for s in sides],
            [s.hi.numerator * (scale // s.hi.denominator) for s in sides])


def _sweep(arr: Arrangement) -> Graph:
    n = arr.n
    rows = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    for axis in range(arr.dimension):
        lo, hi = _integer_endpoints([b.sides[axis] for b in arr.boxes])
        by_lo = sorted(range(n), key=lo.__getitem__)
        by_hi = sorted(range(n), key=hi.__getitem__)
        los = [lo[i] for i in by_lo]
        his = [hi[i] for i in by_hi]
        prefix = [0]  # prefix[k]: the boxes by_lo[:k]
        for i in by_lo:
            prefix.append(prefix[-1] | 1 << i)
        suffix = [0]  # suffix[k], once reversed: the boxes by_hi[k:]
        for i in reversed(by_hi):
            suffix.append(suffix[-1] | 1 << i)
        suffix.reverse()
        for i in range(n):
            rows[i] &= prefix[bisect_right(los, hi[i])] & suffix[bisect_left(his, lo[i])]
    return Graph.from_masks(n, rows)


def intersection_graph(arr: Arrangement) -> Graph:
    """Graph on 1..n with an edge exactly where two boxes meet: closed boxes
    meet iff on every axis each side starts no later than the other ends.
    Built once per arrangement by the sweep above; raises ValueError above
    the graph's 64-vertex cap."""
    return arr._graph


def agreement_number(arr: Arrangement) -> int:
    """Maximum number of boxes sharing a point: by the Helly property, the
    clique number of the intersection graph.  Raises ValueError above the
    graph's 64-vertex cap."""
    return clique_number(intersection_graph(arr))


def agreement_proportion(arr: Arrangement) -> Fraction:
    """agreement_number / n as a reduced fraction."""
    return Fraction(agreement_number(arr), arr.n)


def f_vector(arr: Arrangement) -> FVector:
    """Exact intersection counts: by the Helly property, f_k is the number of
    (k+1)-cliques of the intersection graph, and 0 from k = omega on.  Raises
    ValueError above the graph's 64-vertex cap."""
    counts = clique_counts(intersection_graph(arr))
    return FVector(tuple(counts) + (0,) * (arr.n - len(counts)))
