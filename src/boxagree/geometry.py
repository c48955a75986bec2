"""Exact geometry of axis-parallel boxes and their combinatorial invariants.

Boxes are cartesian products of closed rational intervals, so emptiness of an
intersection is a bit-exact question, never a floating-point judgement.
Boundary contact counts as intersection, and degenerate (zero-width) sides
are legal: a single point is a valid box.

Depth and the f-vector are read off the intersection graph alone.
Axis-parallel boxes have Helly number 2 (Danzer-Gruenbaum-Klee 1963): boxes
that meet pairwise share a point.  So the depth of an arrangement is the
clique number of its intersection graph, and f_k counts its (k+1)-cliques.

An `Arrangement` holds one exact integer grid, its single source of truth.
Per axis it stores a scale, the least common denominator of that axis's
endpoints, and the endpoints times that scale: one integer low and one
integer high per box.  The scale is positive, so the integers order exactly
as the rationals do and no float is involved; it is the least one, so equal
families have equal grids, and equality and hashing compare grids.  The
`boxes` are a read-only view of `Fraction` intervals, built on first read;
its only readers are `repr` and callers outside the library.  Everything in
the library reads the grid.

`intersection_graph` sweeps each axis of the grid once.  With the boxes
sorted by lower and by upper endpoint, the boxes that meet box i on an axis
are those with lo <= hi_i (a prefix of the lower order, found by binary
search) that also have hi >= lo_i (a suffix of the upper order).  The graph
is the AND of these rows over the axes: O(d n log n) integer comparisons
plus n word-sized bitset ANDs per axis.

Every value here is immutable.  An `Arrangement` builds its intersection
graph on first use and keeps it (a `functools.cached_property`, outside
equality, hashing and `repr`), so the invariants below share one build.
The graph in turn keeps its clique number and its clique counts, the one
copy of them, also outside equality and hashing: depth and the f-vector
come from one clique traversal of one graph, and so do callers' own clique
questions on that graph.  Concurrent first uses may each build a value;
they build equal ones.

Endpoints are read from ints, `Fraction`s and strings by `_pair` alone (the
grammar is in its docstring), as integer pairs (p, q) with q > 0.  Every
arrangement comes in through `_read_axes`, which checks each side non-empty
by cross-multiplying, exact because denominators are positive, and puts
each axis on the grid; `Arrangement.of` and the file parser both call it.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .graphs import Graph, _check_order, clique_counts, clique_number

RationalLike = Fraction | int | str


def _is_digits(s: str) -> bool:
    """Whether `s` is ASCII digits alone: `isdigit` would also pass other
    scripts' digits, and `int` reads those, signs and underscores."""
    return s.isascii() and s.isdigit()


# [0-9], not \d: a digit of another script is no part of a literal
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?").fullmatch


def _pair(x: RationalLike) -> tuple[int, int]:
    """`x` as integers (p, q) with q > 0 and x = p/q, not always in lowest
    terms.  A string must be a rational literal: an optional sign, decimal
    digits, then optionally a slash and decimal digits, such as "7", "-3/4"
    or "+10/20"; the digits are ASCII.  Anything else raises ValueError,
    including forms that `Fraction` itself reads ("1.5", "1e3", " 1/2 ",
    "1_000"), and a zero denominator raises ZeroDivisionError.  Any other
    type raises TypeError, subclasses too: a float is rounded already, and a
    bool is a flag, not a number."""
    kind = type(x)
    if kind is int:
        return x, 1
    if kind is Fraction:
        return x.numerator, x.denominator
    if kind is str:
        literal = _LITERAL(x)
        if literal:
            num, den = literal.groups()
            q = int(den) if den else 1
            if q == 0:
                raise ZeroDivisionError(f"{x!r} has a zero denominator")
            return int(num), q
        raise ValueError(f"{x!r} is not a rational literal: an optional sign and"
                         " digits, then optionally '/' and digits")
    raise TypeError(f"endpoint must be an int, a Fraction or a 'p/q' string, got {x!r}")


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi], lo <= hi, of the `boxes` view.  Only
    `Arrangement.boxes` builds these records, from a grid whose sides
    `_read_axes` has checked, so they check nothing themselves."""

    lo: Fraction
    hi: Fraction

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class Box:
    """Product of d closed intervals, one per coordinate axis, in the
    `boxes` view."""

    sides: tuple[RationalInterval, ...]

    def __repr__(self) -> str:
        return " x ".join(repr(s) for s in self.sides)


def _grid_axis(nums: list[int], dens: list[int]) -> tuple[int, list[int], list[int]]:
    """One axis of a grid from its endpoints nums[k] / dens[k], each box's
    low then its high: their common denominator and the endpoints on it."""
    scale = lcm(*set(dens))
    ints = nums if scale == 1 else [p * (scale // q) for p, q in zip(nums, dens)]
    return scale, ints[0::2], ints[1::2]


def _coordinate(x) -> tuple[int, int]:
    """`_pair(x)`, with its errors worded for a coordinate of a box."""
    try:
        return _pair(x)
    except TypeError:
        raise TypeError(
            f"coordinates must be integers or 'p/q' strings, got {x!r}") from None
    except ValueError as exc:
        raise ValueError(f"bad rational: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"bad rational {x!r}: zero denominator") from None


def _read_axes(dimension: int, boxes) -> list[tuple[int, list[int], list[int]]]:
    """The grid axes (see `_grid_axis`) of `boxes`, a non-empty list of
    boxes, each a list of `dimension` [lo, hi] pairs (tuples serve for
    lists).  A malformed or empty side raises ValueError, and a coordinate
    of the wrong type TypeError; the messages are the file format's."""
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise ValueError(f"'dimension' must be a positive integer, got {dimension!r}")
    if not isinstance(boxes, (list, tuple)) or not boxes:
        raise ValueError("'boxes' must be a non-empty list")
    # box 1's shape bounds `dimension` by the input's size before anything
    # is set up per axis
    if not isinstance(boxes[0], (list, tuple)) or len(boxes[0]) != dimension:
        raise ValueError(f"box 1 must list exactly {dimension} [lo, hi] pairs")
    # per axis, each box's low then its high, as numerators and denominators
    nums: list[list[int]] = [[] for _ in range(dimension)]
    dens: list[list[int]] = [[] for _ in range(dimension)]
    for i, box in enumerate(boxes, start=1):
        if not isinstance(box, (list, tuple)) or len(box) != dimension:
            raise ValueError(f"box {i} must list exactly {dimension} [lo, hi] pairs")
        for pair, num, den in zip(box, nums, dens):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"box {i}: each side must be a [lo, hi] pair")
            lo, hi = pair
            lp, lq = (lo, 1) if type(lo) is int else _coordinate(lo)
            hp, hq = (hi, 1) if type(hi) is int else _coordinate(hi)
            if hp * lq < lp * hq:
                raise ValueError(
                    f"box {i}: empty side [{Fraction(lp, lq)}, {Fraction(hp, hq)}]")
            num += (lp, hp)
            den += (lq, hq)
    return list(map(_grid_axis, nums, dens))


@dataclass(frozen=True, init=False, repr=False)
class Arrangement:
    """An indexed family of same-dimension boxes; indices run 1..n.

    Stored as an integer grid (see the module docstring): axis a has the
    positive scale `_scales[a]`, and box i spans `_lows[a][i - 1]` to
    `_highs[a][i - 1]` on it.  Equality and hashing compare the grid, the
    least one for the family, so they are by value; `boxes` is a view."""

    dimension: int
    _scales: tuple[int, ...]
    _lows: tuple[tuple[int, ...], ...]
    _highs: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, dimension: int, box_specs) -> Arrangement:
        """Build from per-box lists of (lo, hi) coordinate pairs, read and
        checked by `_read_axes`."""
        return cls._of_grid(dimension, _read_axes(dimension, box_specs))

    @classmethod
    def _of_grid(cls, dimension: int, axes) -> Arrangement:
        """Trusted constructor from per-axis (scale, lows, highs): a positive
        scale and n >= 1 integer lows and highs with lows[k] <= highs[k].
        Each axis is stored at its least scale."""
        scales, lows, highs = [], [], []
        for scale, lo, hi in axes:
            if scale != 1:
                common = gcd(scale, *lo, *hi)
                if common != 1:
                    scale //= common
                    lo = [x // common for x in lo]
                    hi = [x // common for x in hi]
            scales.append(scale)
            lows.append(tuple(lo))
            highs.append(tuple(hi))
        arr = object.__new__(cls)
        vars(arr).update(dimension=dimension, _scales=tuple(scales),
                         _lows=tuple(lows), _highs=tuple(highs))
        return arr

    @property
    def n(self) -> int:
        return len(self._lows[0])

    @cached_property
    def boxes(self) -> tuple[Box, ...]:
        """The boxes as `Fraction` intervals, read off the grid."""
        axes = [[RationalInterval(Fraction(lo, scale), Fraction(hi, scale))
                 for lo, hi in zip(lows, highs)]
                for scale, lows, highs in zip(self._scales, self._lows, self._highs)]
        return tuple(Box(sides) for sides in zip(*axes))

    def __repr__(self) -> str:
        return f"Arrangement(dimension={self.dimension!r}, boxes={self.boxes!r})"

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


def _sweep(arr: Arrangement) -> Graph:
    n = arr.n
    _check_order(n)  # before n rows of n bits are set up
    rows = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    for lo, hi in zip(arr._lows, arr._highs):
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
    ValueError above the graph's 64-vertex cap.  The counts are the graph's,
    counted once per graph and kept there."""
    counts = clique_counts(intersection_graph(arr))
    return FVector(tuple(counts) + (0,) * (arr.n - len(counts)))
