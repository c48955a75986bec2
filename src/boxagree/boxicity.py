"""Boxicity bounds and exact small-graph decisions.

box(g) <= d exactly when g is the intersection of d interval supergraphs on
its vertex set.  Each such axis graph leaves out ("separates") a set of
non-edges, a mask over them; only the maximal masks whose axis graph is
interval matter, the complements of the minimal interval supergraphs of g.
A graph is interval exactly when some vertex order has uv an edge whenever
u < v < w and uw is one (Olariu 1991), so each minimal interval supergraph
closes g under an order, and one DP over vertex subsets (Bodlaender et al.
2012) finds them all, for every d at once.  Every order of a placed set P
turns the non-edges between two vertices with neighbours outside P into
axis edges, so once one order of P adds no more than those, the DP closes
P without looking at its other orders.  The DP runs top-down from the full
set, so a placed set that no larger one asks for is never built; the
budget is still charged the worst case, paid before the DP starts, so
`nodes` does not depend on how many sets it builds (`dp_sets` counts
those).  A cover then picks at most d of the maximal masks that together
separate every non-edge.

One chain, `_decide`, answers for the public decision, the report's d = 1
stage and the orderly walk's filter (`_at_most`): one node tests g for
being interval, since an interval graph is its own single axis graph and
at d = 1 the one axis must separate every non-edge; above d = 1 one DP and
one cover follow.  It returns the chosen axis graphs, and a witness gets
one axis per axis graph, so at most d dimensions: LexBFS sweeps find an
umbrella-free order of that graph's vertices, and each vertex spans its
position to its last neighbour's.  "No" comes only from the interval test
at d = 1 or a finished DP and cover; a budget too small for them yields
"inconclusive".  Every "yes" carries a realizing arrangement whose
intersection graph is re-derived and compared bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .geometry import Arrangement, intersection_graph
from .graphs import Graph, _interval_model, is_interval_graph, strip_universal

DEFAULT_BUDGET = 10**8


class BudgetExhausted(Exception):
    """Internal signal: the configured node budget ran out; args[0] is the
    charge it could not pay."""


class _Budget:
    """The node budget of one call, and the work it has seen done: `spent`
    nodes, and `dp_sets` placed sets the DP evaluated."""

    __slots__ = ("remaining", "spent", "dp_sets")

    def __init__(self, limit: int) -> None:
        self.remaining = limit
        self.spent = 0
        self.dp_sets = 0

    def spend(self, k: int = 1) -> None:
        if k > self.remaining:
            raise BudgetExhausted(k)
        self.remaining -= k
        self.spent += k


@dataclass(frozen=True)
class BoxicityDecision:
    status: str  # "yes" | "no" | "inconclusive"
    witness: Arrangement | None
    nodes: int  # budget spent, the DP's worst-case charge included
    dp_sets: int = 0  # nonempty placed sets the DP evaluated


@dataclass(frozen=True)
class BoxicityReport:
    lower: int
    upper: int
    exact: int | None
    witness: Arrangement | None
    notes: tuple[str, ...] = ()
    nodes: int = 0  # budget spent across the whole report
    dp_sets: int = 0  # nonempty placed sets its DP evaluated


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


def _axis_graphs(g: Graph, non_edges: list[tuple[int, int]],
                 chosen: list[int]) -> list[tuple[int, ...]]:
    """The adjacency rows of each chosen mask's axis graph: g plus the
    non-edges the mask does not separate."""
    graphs = []
    for m in chosen:
        adj = list(g._adj)
        for i, (u, v) in enumerate(non_edges):
            if not m >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        graphs.append(tuple(adj))
    return graphs


def _build_witness(g: Graph, axis_graphs: list[tuple[int, ...]]) -> Arrangement:
    """The arrangement with one scale-1 grid axis per axis graph: each
    vertex spans its position to its last neighbour's in an umbrella-free
    order of that graph's vertices, so the coordinates are positions 1..n."""
    witness = Arrangement._of_grid(len(axis_graphs),
                                   [(1, *_interval_model(adj)) for adj in axis_graphs])
    if intersection_graph(witness) != g:  # pragma: no cover - construction invariant
        raise RuntimeError("witness arrangement does not realize the graph")
    return witness


def _minimal(sets) -> list[int]:
    """The inclusion-minimal bitsets among `sets`, fewest bits first."""
    kept: list[int] = []
    for s in sorted(set(sets), key=int.bit_count):
        if all(t & ~s for t in kept):
            kept.append(s)
    return kept


def _unions(masks: list[int]) -> list[int]:
    """The OR of masks[i] over the bits i of x, at index x."""
    table = [0]
    for mask in masks:
        table += [t | mask for t in table]
    return table


def _masks(g: Graph, tracker: _Budget) -> tuple[list[tuple[int, int]], list[int]]:
    """The non-edges in row order and, in descending order, every maximal
    mask over them whose axis graph (g plus the non-edges the mask does not
    separate) is interval.  Bit i of a mask is the i-th non-edge.

    Placing v after the set P adds the non-edges uv with u in P and N(u)
    not inside P, so `solve(P)` gives the non-edges at P's open vertices
    (those with a neighbour outside P) and the minimal sets P's orders add,
    pulled from the sets P - v in ascending order of v.  Every order of P
    adds forced(P), the non-edges joining two open vertices: the earlier
    one still has a neighbour to place when the later one is placed.  So
    once some P - v yields a set equal to forced(P), that set is P's only
    minimal one and the other P - v are never asked for.  Evaluated from
    the full set down and memoised within this call, the DP builds only
    the sets some larger set asks for, and each of them gets the same
    minimal sets as in a level-by-level pass over all 2^m.  Universal
    vertices add nothing and start placed; the m others could visit
    m 2^(m-1) pairs (P, v), and that worst case is charged before the DP
    starts.  The sets built, the empty one aside, count in
    `tracker.dp_sets`.
    """
    n, adj = g.n, g._adj
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1]
    low = [0] * n  # low[u] / high[u]: the mask bits of the non-edges uw with u < w / u > w
    high = [0] * n
    for i, (u, v) in enumerate(non_edges):
        low[u] |= 1 << i
        high[v] |= 1 << i
    others = [v for v in range(n) if low[v] | high[v]]  # below, vertex j is others[j]
    m = len(others)
    tracker.spend(m << m - 1)
    nbrs = [sum(1 << j for j, w in enumerate(others) if adj[v] >> w & 1) for v in others]
    low = [low[v] for v in others]
    high = [high[v] for v in others]
    sep = [a | b for a, b in zip(low, high)]
    # unions over a vertex set x, read as the unions over x's two halves
    h = m // 2
    split = (1 << h) - 1
    everyone = (1 << m) - 1
    nbrs0, nbrs1 = _unions(nbrs[:h]), _unions(nbrs[h:])
    low0, low1 = _unions(low[:h]), _unions(low[h:])
    high0, high1 = _unions(high[:h]), _unions(high[h:])
    memo = {0: (0, [0])}  # P -> (non-edges at P's open vertices, P's minimal added sets)

    def solve(placed: int) -> tuple[int, list[int]]:
        rest = everyone ^ placed
        open_ = placed & (nbrs0[rest & split] | nbrs1[rest >> h])
        lo = low0[open_ & split] | low1[open_ >> h]
        hi = high0[open_ & split] | high1[open_ >> h]
        forced = lo & hi
        found: list[int] = []
        left = placed
        while left:
            bit = left & -left
            left ^= bit
            pending, added = memo.get(placed ^ bit) or solve(placed ^ bit)
            extra = pending & sep[bit.bit_length() - 1]
            if added[0] | extra == forced:  # no order of P adds less
                found = [forced]
                break
            found += [a | extra for a in added]
        else:
            found = _minimal(found)
        memo[placed] = result = (lo | hi, found)
        return result

    top = solve(everyone)[1]
    tracker.dp_sets += len(memo) - 1
    full = (1 << len(non_edges)) - 1
    return non_edges, sorted((full ^ a for a in top), reverse=True)


def _cover(d: int, non_edges: list[tuple[int, int]], masks: list[int],
           tracker: _Budget) -> list[int] | None:
    """At most d of the maximal masks that together separate every
    non-edge, or None when no such masks exist."""
    per_element = [[m for m in masks if m >> i & 1] for i in range(len(non_edges))]
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

    return chosen if cover((1 << len(non_edges)) - 1, d) else None


def _decide(g: Graph, d: int, tracker: _Budget) -> list[tuple[int, ...]] | None:
    """At most d axis graphs whose intersection is g, or None when there
    are none.  One node pays for the interval test; above d = 1 one DP and
    one cover follow.  Raises `BudgetExhausted` when the budget cannot pay."""
    tracker.spend()
    if is_interval_graph(g):
        return [g._adj]
    if d == 1:
        return None
    non_edges, masks = _masks(g, tracker)
    chosen = _cover(d, non_edges, masks, tracker)
    return None if chosen is None else _axis_graphs(g, non_edges, chosen)


def _at_most(g: Graph, d: int) -> bool:
    """box(g) <= d, decided without a witness: true within Roberts' bound,
    else `_decide` at the default budget.  A budget that cannot pay for it
    raises `RuntimeError` naming the graph."""
    if roberts_upper_bound(g) <= d:
        return True
    try:
        return _decide(g, d, _Budget(DEFAULT_BUDGET)) is not None
    except BudgetExhausted:
        raise RuntimeError(f"boxicity of {g!r} undecided within the default budget") from None


def decide_boxicity_leq(g: Graph, d: int, budget: int = DEFAULT_BUDGET) -> BoxicityDecision:
    """Decide box(g) <= d exactly, within a node budget.

    Returns "yes" with a realizing arrangement of at most d dimensions,
    one per axis graph the cover used, "no" once no d of
    the maximal realizable masks separate every non-edge, or "inconclusive"
    when the budget cannot pay for the search.  Complete graphs are rejected
    (their boxicity is 0 by convention, so there is nothing to search), and
    so is a negative budget; budget 0 is "inconclusive" at once.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    if g.is_complete():
        raise ValueError("complete graph: boxicity is 0 by convention")
    tracker = _Budget(budget)
    try:
        axis_graphs = _decide(g, d, tracker)
    except BudgetExhausted:
        return BoxicityDecision("inconclusive", None, tracker.spent, tracker.dp_sets)
    witness = None if axis_graphs is None else _build_witness(g, axis_graphs)
    return BoxicityDecision("no" if witness is None else "yes", witness, tracker.spent,
                            tracker.dp_sets)


def boxicity_report(g: Graph, budget: int = DEFAULT_BUDGET) -> BoxicityReport:
    """Lower/upper bounds with the exact value filled in when the decision
    search can close the gap within budget.  One DP serves every d >= 2;
    the budget covers the whole report, and `nodes` is what it spent.
    A negative budget raises ValueError."""
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    tracker = _Budget(budget)
    return replace(_report(g, tracker), nodes=tracker.spent, dp_sets=tracker.dp_sets)


def _report(g: Graph, tracker: _Budget) -> BoxicityReport:
    if g.is_complete():
        return BoxicityReport(0, 0, 0, None, ("complete graph: boxicity 0",))
    notes: list[str] = []
    upper = roberts_upper_bound(g)
    lower = 1
    phase = "the d = 1 interval test"
    try:
        axis_graphs = _decide(g, 1, tracker)
        if axis_graphs is not None:
            return BoxicityReport(1, upper, 1, _build_witness(g, axis_graphs),
                                  ("interval graph: boxicity 1",))
        lower = 2
        stripped, k = strip_universal(g)
        if k:
            notes.append(
                f"adiga bound computed on the graph with {k} universal vertices removed"
            )
        adiga = adiga_lower_bound(stripped)
        lower = max(lower, adiga)
        notes.append(f"adiga lower bound {adiga}")
        if lower >= upper:
            notes.append("bounds meet: exact without search")
            return BoxicityReport(lower, upper, upper, None, tuple(notes))
        phase = "the vertex-order DP, which needs {:,} nodes"  # the unpaid charge
        non_edges, masks = _masks(g, tracker)
        for d in range(lower, upper):
            phase = f"the cover for d = {d}"
            chosen = _cover(d, non_edges, masks, tracker)
            if chosen is not None:
                notes.append(f"search realized the graph with {d}-boxes")
                witness = _build_witness(g, _axis_graphs(g, non_edges, chosen))
                return BoxicityReport(lower, upper, d, witness, tuple(notes))
            lower = d + 1
            notes.append(f"search exhausted: no {d}-box realization")
    except BudgetExhausted as short:
        notes.append("budget exhausted in " + phase.format(short.args[0]))
        return BoxicityReport(lower, upper, None, None, tuple(notes))
    notes.append("bounds meet: exact without further search")  # lower == upper
    return BoxicityReport(lower, upper, upper, None, tuple(notes))
