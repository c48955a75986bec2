"""Boxicity bounds and exact small-graph decisions.

box(g) <= d exactly when g is the intersection of d interval supergraphs on
its vertex set.  Each such axis graph leaves out ("separates") a set of
non-edges, a mask over them.  One scan per graph visits every mask, builds
its axis graph as bitset rows and records the clique order of each maximal
mask whose axis graph is interval; a cover then picks at most d recorded
masks that separate every non-edge, and their orders place the witness
boxes.  Only d = 1 changes the scan: one axis must separate every non-edge,
so the full mask is the only one tried.  Otherwise the scan costs
2^(non-edges) nodes and serves every d, which makes n = 8 exhaustible.

A "no" is only ever reported after that space is exhausted; hitting the node
budget yields "inconclusive" instead.  Every "yes" carries a realizing
arrangement whose intersection graph is re-derived and compared bit-exactly
before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Arrangement, Box, RationalInterval, intersection_graph
from .graphs import Graph, _bits, interval_clique_order, strip_universal

DEFAULT_BUDGET = 10**8


class BudgetExhausted(Exception):
    """Internal signal: the configured node budget ran out."""


class _Budget:
    __slots__ = ("remaining", "spent")

    def __init__(self, limit: int) -> None:
        self.remaining = limit
        self.spent = 0

    def spend(self, k: int = 1) -> None:
        self.remaining -= k
        self.spent += k
        if self.remaining < 0:
            raise BudgetExhausted


@dataclass(frozen=True)
class BoxicityDecision:
    status: str  # "yes" | "no" | "inconclusive"
    witness: Arrangement | None
    nodes: int


@dataclass(frozen=True)
class BoxicityReport:
    lower: int
    upper: int
    exact: int | None
    witness: Arrangement | None
    notes: tuple[str, ...] = ()


def adiga_lower_bound(g: Graph) -> int:
    """ceil(n / (2(n - delta - 1))) for graphs without universal vertices."""
    n = g.n
    degs = g.degrees()
    if any(d == n - 1 for d in degs):
        raise ValueError("graph has a universal vertex; strip_universal first")
    delta = min(degs)
    return math.ceil(Fraction(n, 2 * (n - delta - 1)))


def roberts_upper_bound(g: Graph) -> int:
    """floor(n/2), with complete graphs pinned at 0 by convention."""
    return 0 if g.is_complete() else g.n // 2


def _interval_witness_axis(order: list[int]) -> dict[int, tuple[Fraction, Fraction]]:
    """Vertex -> (lo, hi) positions from a consecutive clique order."""
    spans: dict[int, tuple[int, int]] = {}
    for pos, clique in enumerate(order, start=1):
        for v in _bits(clique):
            first, _ = spans.get(v, (pos, pos))
            spans[v] = (first, pos)
    return {v: (Fraction(a), Fraction(b)) for v, (a, b) in spans.items()}


def _build_witness(g: Graph, d: int, orders: list[list[int]]) -> Arrangement:
    """The d-box arrangement with one axis per consecutive clique order."""
    axes = [_interval_witness_axis(order) for order in orders]
    while len(axes) < d:
        axes.append({v: (Fraction(0), Fraction(1)) for v in range(g.n)})
    boxes = []
    for v in range(g.n):
        sides = tuple(RationalInterval(*axis[v]) for axis in axes)
        boxes.append(Box(sides))
    witness = Arrangement(d, tuple(boxes))
    if intersection_graph(witness) != g:  # pragma: no cover - construction invariant
        raise RuntimeError("witness arrangement does not realize the graph")
    return witness


def _is_chordal(g: Graph) -> bool:
    """Quick interval-graph pre-filter: peel simplicial vertices."""
    adj = list(g._adj)
    alive = (1 << g.n) - 1
    for _ in range(g.n):
        found = False
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nb = adj[v] & alive
            ok = True
            t = nb
            while t:
                u = (t & -t).bit_length() - 1
                t &= t - 1
                if nb & ~adj[u] & ~(1 << u):
                    ok = False
                    break
            if ok:
                alive &= ~(1 << v)
                found = True
                break
        if not found:
            return False
    return True


def _scan(g: Graph, d: int, tracker: _Budget) -> tuple[int, dict[int, list[int]]]:
    """The mask of all non-edges, and each maximal realizable mask with the
    clique order of its axis graph.  Bit i of a mask is the i-th non-edge in
    row order; a mask is realizable when its axis graph (g plus the
    non-edges it does not separate) is an interval graph.

    Masks are visited in descending order, so every superset of a mask comes
    before it: a mask inside one already kept is skipped, and the kept masks
    are exactly the maximal realizable ones.  A single axis must separate
    every non-edge, so at d = 1 only the full mask is tried.
    """
    adj = g._adj
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if not adj[u] >> v & 1]
    k = len(non_edges)
    full = (1 << k) - 1
    if d == 1:
        masks = (full,)
    elif k >= 63 or (1 << k) > tracker.remaining:
        raise BudgetExhausted  # cannot exhaust the separated-set space
    else:
        masks = range(full, -1, -1)
    maximal: dict[int, list[int]] = {}
    for mask in masks:
        tracker.spend()
        if any(mask & m == mask for m in maximal):
            continue
        rows = list(adj)
        for i in _bits(full ^ mask):  # the non-edges this axis keeps
            u, v = non_edges[i]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        h = Graph.from_masks(g.n, rows)
        if _is_chordal(h):
            order = interval_clique_order(h)
            if order is not None:
                maximal[mask] = order
    return full, maximal


def _cover(g: Graph, d: int, full: int, maximal: dict[int, list[int]],
           tracker: _Budget) -> Arrangement | None:
    """A d-box realization from at most d of the scan's maximal masks that
    together separate every non-edge, or None when no such masks exist."""
    per_element = [[m for m in maximal if m >> i & 1] for i in range(full.bit_length())]
    chosen: list[int] = []

    def cover(uncovered: int, axes_left: int) -> bool:
        tracker.spend()
        if uncovered == 0:
            return True
        if axes_left == 0:
            return False
        i = (uncovered & -uncovered).bit_length() - 1
        for m in per_element[i]:
            chosen.append(m)
            if cover(uncovered & ~m, axes_left - 1):
                return True
            chosen.pop()
        return False

    if not cover(full, d):
        return None
    return _build_witness(g, d, [maximal[m] for m in chosen])


def decide_boxicity_leq(g: Graph, d: int, budget: int = DEFAULT_BUDGET) -> BoxicityDecision:
    """Decide box(g) <= d exactly, within a node budget.

    Returns "yes" with a realizing d-box arrangement, "no" after exhausting
    the symmetry-reduced search space, or "inconclusive" when the budget
    runs out first.  Complete graphs are rejected (their boxicity is 0 by
    convention, so there is nothing to search).
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if g.is_complete():
        raise ValueError("complete graph: boxicity is 0 by convention")
    tracker = _Budget(budget)
    try:
        witness = _cover(g, d, *_scan(g, d, tracker), tracker)
    except BudgetExhausted:
        return BoxicityDecision("inconclusive", None, tracker.spent)
    return BoxicityDecision("no" if witness is None else "yes", witness, tracker.spent)


def boxicity_report(g: Graph, budget: int = DEFAULT_BUDGET) -> BoxicityReport:
    """Lower/upper bounds with the exact value filled in when the decision
    search can close the gap within budget.  One scan serves every d >= 2;
    the budget covers the whole report."""
    if g.is_complete():
        return BoxicityReport(0, 0, 0, None, ("complete graph: boxicity 0",))
    notes: list[str] = []
    upper = roberts_upper_bound(g)
    tracker = _Budget(budget)
    lower = d = 1
    try:
        witness = _cover(g, 1, *_scan(g, 1, tracker), tracker)
        if witness is not None:
            return BoxicityReport(1, upper, 1, witness, ("interval graph: boxicity 1",))
        lower = 2
        stripped, k = strip_universal(g)
        if k:
            notes.append(
                f"adiga bound computed on the graph with {k} universal vertices removed"
            )
        if not stripped.is_complete():
            adiga = adiga_lower_bound(stripped)
            lower = max(lower, adiga)
            notes.append(f"adiga lower bound {adiga}")
        if lower >= upper:
            notes.append("bounds meet: exact without search")
            return BoxicityReport(lower, upper, upper, None, tuple(notes))
        d = lower
        scan = _scan(g, d, tracker)
        for d in range(lower, upper + 1):
            witness = _cover(g, d, *scan, tracker)
            if witness is not None:
                notes.append(f"search realized the graph with {d}-boxes")
                return BoxicityReport(lower, upper, d, witness, tuple(notes))
            lower = d + 1
            notes.append(f"search exhausted: no {d}-box realization")
            if lower == upper:
                notes.append("bounds meet: exact without further search")
                return BoxicityReport(lower, upper, upper, None, tuple(notes))
    except BudgetExhausted:
        notes.append(f"budget exhausted while deciding boxicity <= {d}")
        return BoxicityReport(lower, upper, None, None, tuple(notes))
    # unreachable: the roberts bound always admits a realization
    return BoxicityReport(lower, upper, None, None, tuple(notes))  # pragma: no cover
