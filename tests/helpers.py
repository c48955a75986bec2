"""Shared generators and independent oracles for the test suite.

The oracles here recompute quantities by direct definition (subset scans,
point grids, triple loops) so the library's optimized paths are always
checked against something that cannot share their bugs.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from random import Random

from boxagree import (
    Arrangement,
    Graph,
    RationalInterval,
    clique_number,
    decide_boxicity_leq,
    intersect_boxes,
    is_interval_graph,
    roberts_upper_bound,
)
from boxagree.graphs import (
    _bits,
    _canonical_labelling,
    _clique_order,
    _max_clique_size,
    _orbit_roots,
    canonical_certificate,
)
from boxagree.search import _levels, _set_orbit_min, default_eta_table


def random_arrangement(rng: Random, max_n: int = 8, max_d: int = 3,
                       coord_range: int = 8) -> Arrangement:
    d = rng.randint(1, max_d)
    n = rng.randint(1, max_n)
    boxes = []
    for _ in range(n):
        sides = []
        for _ in range(d):
            a = rng.randint(0, coord_range)
            b = rng.randint(0, coord_range)
            sides.append((min(a, b), max(a, b)))
        boxes.append(sides)
    return Arrangement.of(d, boxes)


def random_graph(rng: Random, max_n: int = 10, p: float = 0.5) -> Graph:
    n = rng.randint(1, max_n)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, edges)


def pairwise_intersection_graph(arr: Arrangement) -> Graph:
    """The intersection graph by comparing every pair of boxes: closed boxes
    meet iff on every axis each side starts no later than the other ends."""
    sides = [[(s.lo, s.hi) for s in b.sides] for b in arr.boxes]
    edges = [
        (i + 1, j + 1)
        for i, a in enumerate(sides)
        for j in range(i + 1, arr.n)
        if all(la <= hb and lb <= ha for (la, ha), (lb, hb) in zip(a, sides[j]))
    ]
    return Graph(arr.n, edges)


def brute_force_f_vector(arr: Arrangement) -> list[int]:
    """f_k by scanning every index subset and intersecting from scratch."""
    counts = [0] * arr.n
    for size in range(1, arr.n + 1):
        for subset in combinations(range(arr.n), size):
            running = arr.boxes[subset[0]]
            for idx in subset[1:]:
                running = intersect_boxes(running, arr.boxes[idx])
                if running is None:
                    break
            if running is not None:
                counts[size - 1] += 1
    return counts


def interval_meet_oracle(a: RationalInterval,
                         b: RationalInterval) -> RationalInterval | None:
    """The meet of two closed intervals by `Fraction`'s own max, min and
    <=, with no integer shortcut."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return RationalInterval(lo, hi) if lo <= hi else None


def lower_endpoint_depth(arr: Arrangement) -> int:
    """Max overlap count over the grid of lower endpoints (at most n^d
    points): any deepest cell is itself a box whose lower corner lies on
    that grid."""
    axes = [sorted({b.sides[a].lo for b in arr.boxes}) for a in range(arr.dimension)]
    best = 0
    for point in product(*axes):
        best = max(best, sum(1 for b in arr.boxes if b.contains(point)))
    return best


def brute_force_depth(arr: Arrangement) -> int:
    """Max overlap count over the full endpoint grid (lows and highs)."""
    axes = []
    for a in range(arr.dimension):
        coords = {b.sides[a].lo for b in arr.boxes}
        coords |= {b.sides[a].hi for b in arr.boxes}
        axes.append(sorted(coords))
    best = 0
    for point in product(*axes):
        best = max(best, sum(1 for b in arr.boxes if b.contains(point)))
    return best


def geometric_triple_property(arr: Arrangement) -> bool:
    """Form 1 of (2,3)-agreeability, straight from the geometry."""
    for i, j, k in combinations(range(arr.n), 3):
        bi, bj, bk = arr.boxes[i], arr.boxes[j], arr.boxes[k]
        if (intersect_boxes(bi, bj) is None
                and intersect_boxes(bi, bk) is None
                and intersect_boxes(bj, bk) is None):
            return False
    return True


def triple_induced_edge_property(g: Graph) -> bool:
    """Form 2: every three vertices induce at least one edge."""
    for a, b, c in combinations(range(1, g.n + 1), 3):
        if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
            return False
    return True


def agreeable_classes_oracle(n: int, r: int) -> set[bytes]:
    """Canonical certificates of every (2,3)-agreeable graph on n vertices
    with clique number <= r, found by scanning all 2^C(n,2) labelled graphs."""
    pairs = list(combinations(range(n), 2))
    seen: set[bytes] = set()
    for bits in range(1 << len(pairs)):
        masks = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if bits >> idx & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        g = Graph.from_masks(n, tuple(masks))
        if clique_number(g) <= r and triple_induced_edge_property(g):
            seen.add(canonical_certificate(n, g._adj))
    return seen


def automorphism_orbits_oracle(g: Graph) -> set[frozenset[int]]:
    """Orbits of Aut(g), found by trying all n! permutations."""
    edges = set(g.edges())
    orbits = {v: {v} for v in range(1, g.n + 1)}
    for perm in permutations(range(1, g.n + 1)):
        if all(tuple(sorted((perm[u - 1], perm[v - 1]))) in edges for u, v in edges):
            for v in range(1, g.n + 1):
                orbits[v].add(perm[v - 1])
    return {frozenset(orbit) for orbit in orbits.values()}


def subset_clique_oracle(g: Graph, s: int) -> int:
    """Count s-cliques by scanning every s-subset."""
    count = 0
    for subset in combinations(range(1, g.n + 1), s):
        if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
            count += 1
    return count


def cliques_oracle(g: Graph, hit=()) -> list[int]:
    """Bitsets of every clique of g, the empty one included, that meets
    every bitset in `hit`, ascending, by scanning every vertex subset."""
    return [
        mask for mask in range(1 << g.n)
        if all(mask & h for h in hit)
        and all(g.has_edge(u + 1, v + 1) for u, v in combinations(_bits(mask), 2))
    ]


def max_clique_oracle(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        if subset_clique_oracle(g, size):
            return size
    return 0


def is_chordal_oracle(g: Graph) -> bool:
    """Simplicial elimination by set arithmetic (interval => chordal)."""
    alive = set(range(1, g.n + 1))
    adj = {v: set(g.neighbors(v)) for v in alive}
    while alive:
        simplicial = None
        for v in alive:
            nb = adj[v] & alive
            if all(u in adj[w] for u, w in combinations(sorted(nb), 2)):
                simplicial = v
                break
        if simplicial is None:
            return False
        alive.remove(simplicial)
    return True


def maximal_cliques_oracle(g: Graph) -> list[int]:
    """Every maximal clique of g as a bitset, ascending, by Bron-Kerbosch
    with pivoting: it needs no chordality, unlike the library's search."""
    adj = g._adj
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        pivot = max(_bits(pool), key=lambda u: (p & adj[u]).bit_count())
        for v in _bits(p & ~adj[pivot]):
            bk(r | 1 << v, p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, (1 << g.n) - 1, 0)
    return sorted(out)


def interval_order_oracle(g: Graph) -> bool:
    """Interval by the definition (Gilmore-Hoffman): some order of the
    maximal cliques keeps every vertex's cliques consecutive, found by the
    library's backtracking search, exponential on a "no"."""
    return _clique_order(g.n, maximal_cliques_oracle(g)) is not None


def is_agreeable_oracle(g: Graph, k: int, m: int) -> bool:
    """Every m-subset of vertices holds a k-subset whose pairs are all edges,
    by scanning the subsets."""
    return all(
        any(all(g.has_edge(u, v) for u, v in combinations(sub, 2))
            for sub in combinations(subset, k))
        for subset in combinations(range(1, g.n + 1), m)
    )


def is_agreeable_by_clique_number(g: Graph, k: int, m: int) -> bool:
    """The (k, m) test through full clique numbers, with no early stop: for
    k = 2 the complement's clique number is below m, and for k >= 3 every
    m-subset's clique number reaches k."""
    if k == 2:
        return clique_number(g.complement()) < m
    return all(
        _max_clique_size(g._adj, sum(1 << v for v in subset)) >= k
        for subset in combinations(range(g.n), m)
    )


def maximal_interval_masks_oracle(g: Graph) -> list[int]:
    """Every maximal mask of separated non-edges whose axis graph is an
    interval graph, in descending order.  Bit i of a mask is the i-th
    non-edge in row order; the axis graph is g plus the non-edges the mask
    does not separate.  All 2^(non-edges) masks are visited from the top, so
    every superset of a mask comes before it and a mask inside one already
    kept is skipped."""
    non_edges = [e for e in combinations(range(1, g.n + 1), 2) if not g.has_edge(*e)]
    maximal: list[int] = []
    for mask in range((1 << len(non_edges)) - 1, -1, -1):
        if any(mask & m == mask for m in maximal):
            continue
        kept = tuple(e for i, e in enumerate(non_edges) if not mask >> i & 1)
        if is_interval_graph(Graph(g.n, g.edges() + kept)):
            maximal.append(mask)
    return maximal


def layered_masks_oracle(g: Graph) -> list[int]:
    """The maximal masks of `maximal_interval_masks_oracle`, from a DP that
    pushes every placement: placing v after the set P adds the non-edges uv
    with u in P and N(u) not inside P, each P keeps the minimal sets its
    orders add, and the complements of those at the full set are the masks.
    Its cost follows 2^n, not 2^(non-edges), and it takes no early exit."""
    n, adj = g.n, g._adj
    everyone = (1 << n) - 1
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1]
    sep = [0] * n  # sep[u]: the mask bits of the non-edges at u
    for i, (u, v) in enumerate(non_edges):
        sep[u] |= 1 << i
        sep[v] |= 1 << i
    layer = {0: [0]}
    for _ in range(n):
        nxt: dict[int, list[int]] = {}
        for placed, added in layer.items():
            pending = 0  # the non-edges at placed vertices with a neighbour to place
            for u in range(n):
                if placed >> u & 1 and adj[u] & ~placed:
                    pending |= sep[u]
            for v in range(n):
                if not placed >> v & 1:
                    extra = pending & sep[v]
                    nxt.setdefault(placed | 1 << v, []).extend(a | extra for a in added)
        layer = {}
        for placed, found in nxt.items():
            distinct = set(found)
            layer[placed] = [a for a in distinct
                             if not any(b != a and b & a == b for b in distinct)]
    full = (1 << len(non_edges)) - 1
    return sorted((full ^ a for a in layer[everyone]), reverse=True)


def minimal_interval_supergraphs_oracle(n: int) -> list[list[int]]:
    """For every labelled graph on 1..n, written as a bitset over the pairs
    of combinations(range(1, n + 1), 2) and used as the index, its minimal
    interval supergraphs in the same code.  An interval graph is its own;
    every interval supergraph of any other graph contains one of its
    one-edge extensions, so the graphs are visited from the complete one
    down."""
    pairs = list(combinations(range(1, n + 1), 2))
    least: list[list[int]] = [[] for _ in range(1 << len(pairs))]
    for e in range(len(least) - 1, -1, -1):
        if is_interval_graph(Graph(n, [p for i, p in enumerate(pairs) if e >> i & 1])):
            least[e] = [e]
            continue
        found = {h for i in range(len(pairs)) if not e >> i & 1 for h in least[e | 1 << i]}
        least[e] = [h for h in found if not any(t != h and t & h == t for t in found)]
    return least


def refine_oracle(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> None:
    """`graphs._refine` by the general rule alone: every splitter groups
    every non-singleton cell by neighbour counts, with no shortcut for
    singleton splitters or for cells outside the splitter's reach."""
    n = len(cells)
    queued = 0
    for s in queue:
        queued |= 1 << s
    while queue:
        s = queue.pop()
        queued &= ~(1 << s)
        w = cells[s]
        t = 0
        while t < n:
            x = cells[t]
            size = x.bit_count()
            if size == 1:
                t += 1
                continue
            groups: dict[int, int] = {}
            m = x
            while m:
                low = m & -m
                m ^= low
                c = (adj[low.bit_length() - 1] & w).bit_count()
                groups[c] = groups.get(c, 0) | low
            if len(groups) > 1:
                pieces = [groups[c] for c in sorted(groups)]
                skip = -1 if queued >> t & 1 else max(
                    range(len(pieces)), key=lambda i: (pieces[i].bit_count(), -i))
                pos = t
                for i, piece in enumerate(pieces):
                    cells[pos] = piece
                    if i != skip and not queued >> pos & 1:
                        queued |= 1 << pos
                        queue.append(pos)
                    pos += piece.bit_count()
            t += size


def all_cliques(adj: tuple[int, ...]) -> list[int]:
    """Every clique of the graph with adjacency rows `adj`, the empty one
    first, as bitsets: each grown by one vertex above its largest, with no
    pruning."""
    out = [0]

    def grow(clique: int, cand: int) -> None:
        for v in _bits(cand):
            out.append(clique | 1 << v)
            grow(clique | 1 << v, cand & adj[v] & -(2 << v))

    grow(0, (1 << len(adj)) - 1)
    return out


def attachments_oracle(adj: tuple[int, ...], r: int, degree_cap: int) -> list[int]:
    """The cliques C whose complements the walk may attach a new vertex to,
    with no shortcut: every clique of k - degree_cap to k - max(deg)
    vertices that meets every r-clique, less those that leave an old
    vertex's degree above the new vertex's degree k - |C|."""
    k = len(adj)
    fullk = (1 << k) - 1
    deg = [m.bit_count() for m in adj]
    cliques = all_cliques(adj)
    r_cliques = [c for c in cliques if c.bit_count() == r]
    out = []
    for clique in cliques:
        if not k - degree_cap <= clique.bit_count() <= k - max(deg):
            continue
        if not all(clique & h for h in r_cliques):
            continue
        attach = fullk ^ clique
        if all(deg[v] + (attach >> v & 1) <= attach.bit_count() for v in range(k)):
            out.append(clique)
    return out


def levels_oracle(n: int, r: int):
    """The levels of `search._levels`, by canonical augmentation with each
    test run in full: every attachment of `attachments_oracle`, listed
    afresh per parent, is built into a child; the parent is labelled for
    every orbit test and the child for every tie.  Yields, per level, a
    list of (adjacency rows, automorphism generators or None)."""
    degree_cap = default_eta_table().entry(r - 1).upper_bound
    level: list[tuple[tuple[int, ...], list | None]] = [((0,), [])]
    yield level
    for k in range(1, n):
        nxt: list[tuple[tuple[int, ...], list | None]] = []
        fullk = (1 << k) - 1
        for adj, parent_aut in level:
            deg = [m.bit_count() for m in adj]
            orbit_min: dict[int, int] = {}
            for clique in attachments_oracle(adj, r, degree_cap):
                attach = fullk ^ clique
                d = attach.bit_count()
                newdeg = [deg[v] + (attach >> v & 1) for v in range(k)] + [d]
                newadj = tuple(
                    adj[v] | ((attach >> v & 1) << k) for v in range(k)
                ) + (attach,)
                score = [
                    sum(newdeg[w] for w in _bits(newadj[v])) if newdeg[v] == d else -1
                    for v in range(k + 1)
                ]
                top = max(score)
                if score[k] < top:
                    continue
                if parent_aut is None:
                    parent_aut = _canonical_labelling(k, adj)[2]
                if _set_orbit_min(attach, parent_aut, orbit_min) != attach:
                    continue
                child_aut = None
                if score.count(top) > 1:
                    _, order, child_aut = _canonical_labelling(k + 1, newadj)
                    first = next(v for v in order if score[v] == top)
                    roots = _orbit_roots(k + 1, child_aut)
                    if roots[first] != roots[k]:
                        continue
                nxt.append((newadj, child_aut))
        level = nxt
        yield level


def box_at_most(g: Graph, d: int) -> bool:
    """Exact box(g) <= d: the Roberts and interval shortcuts, then one
    decision at the default budget."""
    if roberts_upper_bound(g) <= d or is_interval_graph(g):
        return True
    decision = decide_boxicity_leq(g, d)
    if decision.status == "inconclusive":
        raise RuntimeError(f"boxicity of {g!r} undecided within the default budget")
    return decision.status == "yes"


def post_hoc_levels(n: int, r: int, d: int):
    """The levels of `search._levels(n, r, work, d)` the slow way: walk every
    class with clique number <= r, and only then drop the classes of
    boxicity above d.  Yields, per level, the set of adjacency rows kept."""
    work = {"examined": 0, "labellings": 0, "orbit": 0, "not_canonical": 0}
    for k, level in enumerate(_levels(n, r, work), start=1):
        yield {adj for adj, _, _ in level if box_at_most(Graph.from_masks(k, adj), d)}


def cycle(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])
