"""Simple undirected graphs with the queries the box-society combinatorics needs.

Vertices are labelled 1..n with n capped at 64 so each adjacency row fits in
one machine word; all the heavy queries (cliques, canonical forms with
automorphism generators, interval recognition) run on those bitsets.  One
maximum cardinality search both decides chordality and lists the maximal
cliques that a consecutive clique order arranges.  Graphs are immutable
values and every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

MAX_VERTICES = 64


class Graph:
    """Immutable simple graph; adjacency stored as one int bitset per vertex."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges=()) -> None:
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def from_masks(cls, n: int, masks) -> Graph:
        """Trusted constructor from per-vertex bitsets (0-based bits); only
        the vertex count is checked."""
        _check_order(n)
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        return g

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u - 1] >> (v - 1) & 1)

    def degree(self, v: int) -> int:
        return self._adj[v - 1].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u + 1 for u in _bits(self._adj[v - 1]))

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(1, self.n + 1):
            rest = self._adj[u - 1] >> u  # bits for labels > u
            w = u + 1
            while rest:
                if rest & 1:
                    out.append((u, w))
                rest >>= 1
                w += 1
        return tuple(out)

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(m == full ^ (1 << v) for v, m in enumerate(self._adj))

    # -- derived graphs ------------------------------------------------

    def complement(self) -> Graph:
        full = (1 << self.n) - 1
        return Graph.from_masks(
            self.n, tuple((full ^ m ^ (1 << v)) for v, m in enumerate(self._adj))
        )

    def induced(self, labels) -> Graph:
        """Subgraph induced by the given labels, relabelled 1..k in sorted order."""
        keep = sorted(set(labels))
        if not keep:
            raise ValueError("induced subgraph needs at least one vertex")
        pos = {v: i for i, v in enumerate(keep)}
        masks = []
        for v in keep:
            m = 0
            row = self._adj[v - 1]
            for w in keep:
                if row >> (w - 1) & 1:
                    m |= 1 << pos[w]
            masks.append(m)
        return Graph.from_masks(len(keep), tuple(masks))

    # -- value semantics -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


def _bits(mask: int):
    """0-based indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


@dataclass(frozen=True)
class DegreeProfile:
    min_degree: int
    max_degree: int
    degrees: tuple[int, ...]  # sorted multiset


def degree_profile(g: Graph) -> DegreeProfile:
    degs = tuple(sorted(g.degrees()))
    return DegreeProfile(degs[0], degs[-1], degs)


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------


def _max_clique_size(adj: tuple[int, ...], cand: int) -> int:
    """The clique number of the subgraph induced on the bitset `cand`, by
    branch and bound: a branch stops once its vertices cannot beat the best."""
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(cand & adj[v], size + 1)

    expand(cand, 0)
    return best


def _has_clique(adj: tuple[int, ...], cand: int, target: int) -> bool:
    """Whether the subgraph induced on the bitset `cand` holds a clique of
    `target` vertices.  It returns at the first one found, and a branch
    stops once its vertices cannot reach `target`."""

    def grow(cand: int, size: int) -> bool:
        if size == target:
            return True
        while size + cand.bit_count() >= target:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if grow(cand & adj[v], size + 1):
                return True
        return False

    return grow(cand, 0)


def clique_number(g: Graph) -> int:
    """Exact clique number via bitset branch and bound."""
    return _max_clique_size(g._adj, (1 << g.n) - 1)


def _membership(n: int, sets) -> list[int]:
    """Entry v is the bitset of the indices of the bitsets in `sets` that
    hold vertex v, so that a vertex set meets all of them exactly when the
    OR of its vertices' entries is (1 << len(sets)) - 1."""
    member = [0] * n
    for i, s in enumerate(sets):
        while s:
            low = s & -s
            s ^= low
            member[low.bit_length() - 1] |= 1 << i
    return member


def _cliques_within(adj: tuple[int, ...], cand: int, floor: int, ceiling: int,
                    member=(), need: int = 0) -> list[int]:
    """Every clique of `floor` to `ceiling` vertices inside the bitset `cand`
    whose vertices' `member` entries (see `_membership`) OR to a superset of
    `need`, each once, as a bitset; grown by ascending vertex index, in
    depth-first preorder.  A branch stops as soon as the vertices it can
    still add are too few, or the OR of their entries misses a bit of what
    is still unmet."""
    out: list[int] = []

    def grow(clique: int, cand: int, floor: int, ceiling: int, need: int) -> None:
        count = cand.bit_count()
        if need:
            covers = []  # covers[j]: the OR of the entries of the j + 1 highest candidates
            cover = 0
            m = cand
            while m:
                v = m.bit_length() - 1
                m ^= 1 << v
                cover |= member[v]
                covers.append(cover)
        m = cand
        while m:
            if count < floor or need and need & ~covers[count - 1]:
                return
            count -= 1
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            rest = need & ~member[v] if need else 0
            if floor <= 1 and not rest:
                out.append(clique | low)
            if ceiling > 1:
                nxt = m & adj[v]  # the neighbours above v
                if nxt:
                    grow(clique | low, nxt, floor - 1, ceiling - 1, rest)

    if floor <= 0 <= ceiling and not need:
        out.append(0)
    if ceiling >= 1:
        grow(0, cand, floor, ceiling, need)
    return out


def _is_clique(mask: int, adj: tuple[int, ...]) -> bool:
    """Whether the vertices of `mask` are pairwise adjacent.  A candidate set
    that is a clique needs no branching: its subsets are counted by binomials."""
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        if mask & ~adj[v]:
            return False
    return True


def count_cliques_of_size(g: Graph, s: int) -> int:
    """Number of s-element vertex sets inducing complete subgraphs."""
    if not 1 <= s <= g.n:
        raise ValueError(f"s must be in 1..{g.n}, got {s}")
    if s == 1:
        return g.n
    if s == 2:
        return g.edge_count()
    adj = g._adj
    total = 0

    # extend by ascending vertex index so each subset is generated once
    def extend(cand: int, depth: int) -> None:
        nonlocal total
        if depth == s:
            total += 1
            return
        if _is_clique(cand, adj):
            total += math.comb(cand.bit_count(), s - depth)
            return
        c = cand
        while c:
            if c.bit_count() + depth < s:
                return
            v = (c & -c).bit_length() - 1
            c &= c - 1
            extend(c & adj[v], depth + 1)

    extend((1 << g.n) - 1, 0)
    return total


def clique_counts(g: Graph) -> list[int]:
    """Entry s - 1 is the number of s-cliques, for s = 1..omega, all from
    one traversal.  `count_cliques_of_size` prunes by its one size and
    stays the faster way to ask for a single s."""
    adj = g._adj
    counts = [0] * (g.n + 1)  # counts[s]: the s-cliques

    # each clique is reached once, extended by ascending vertex index
    def extend(cand: int, depth: int) -> None:
        if _is_clique(cand, adj):
            c = cand.bit_count()
            for j in range(1, c + 1):
                counts[depth + j] += math.comb(c, j)
            return
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            counts[depth + 1] += 1
            extend(cand & adj[v], depth + 1)

    extend((1 << g.n) - 1, 0)
    omega = max(s for s, c in enumerate(counts) if c)
    return counts[1:omega + 1]


# ---------------------------------------------------------------------------
# Agreeability
# ---------------------------------------------------------------------------


def is_agreeable(g: Graph, k: int, m: int) -> bool:
    """True iff every m-subset of vertices contains a k-clique.

    Vacuously true when m exceeds the vertex count.  Every k = 2 query is
    answered through the complement: every m-subset holds an edge exactly
    when no m vertices are independent, that is when the complement has no
    m-clique.  Only k >= 3 scans the m-subsets, asking each for a k-clique.
    Each question stops at the first clique that answers it.
    """
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    if k == 2:
        return not _has_clique(g.complement()._adj, (1 << g.n) - 1, m)
    for subset in combinations(range(g.n), m):
        mask = 0
        for v in subset:
            mask |= 1 << v
        if not _has_clique(g._adj, mask, k):
            return False
    return True


def strip_universal(g: Graph) -> tuple[Graph, int]:
    """Drop every vertex adjacent to all others; returns (subgraph, count).

    The clique number drops by exactly the stripped count and the agreement
    proportion cannot increase.  Refuses complete graphs, where nothing
    would remain.
    """
    if g.is_complete():
        raise ValueError("cannot strip a complete graph")
    full = (1 << g.n) - 1
    keep = [
        v + 1 for v in range(g.n) if g._adj[v] != full ^ (1 << v)
    ]
    stripped = g.n - len(keep)
    return g.induced(keep), stripped


# ---------------------------------------------------------------------------
# Interval recognition
# ---------------------------------------------------------------------------


def is_interval_graph(g: Graph) -> bool:
    """True iff some vertex-interval family on a line realizes g exactly.

    Lekkerkerker-Boland (1962): g is an interval graph exactly when it is
    chordal and has no asteroidal triple, three pairwise non-adjacent
    vertices each two of which a path joins that avoids the closed
    neighbourhood of the third.  Both tests are polynomial.
    """
    return (_chordal_cliques(g.n, g._adj) is not None
            and not _has_asteroidal_triple(g.n, g._adj))


def _chordal_cliques(n: int, adj: tuple[int, ...]) -> list[int] | None:
    """The maximal cliques of a chordal graph as bitsets, in visit order, or
    None when the graph is not chordal.

    Maximum cardinality search visits next a vertex with the most visited
    neighbours, the lowest such one; `buckets[c]` holds the unvisited
    vertices with c visited neighbours.  The graph is chordal exactly when
    every vertex's visited neighbours form a clique (Tarjan-Yannakakis
    1984: the reversed visit order is then a perfect elimination order).
    A vertex and its visited neighbours form a maximal clique exactly when
    the next vertex has no more visited neighbours than it, or it is the
    last (Blair-Peyton 1993)."""
    buckets = [0] * (n + 1)
    buckets[0] = (1 << n) - 1
    top = 0
    visited = 0
    cliques: list[int] = []
    clique = 0  # the vertex visited last and its visited neighbours
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        row = adj[low.bit_length() - 1]
        earlier = row & visited
        if not _is_clique(earlier, adj):
            return None
        if top < clique.bit_count():
            cliques.append(clique)
        clique = earlier | low
        visited |= low
        later = row & ~visited
        c = top
        while later:  # each unvisited neighbour moves up one bucket
            moved = buckets[c] & later
            buckets[c] ^= moved
            buckets[c + 1] |= moved
            later ^= moved
            c -= 1
        top += 1
    cliques.append(clique)
    return cliques


def _components(adj: tuple[int, ...], within: int):
    """The connected components of the subgraph induced on the bitset
    `within`, each a bitset grown by breadth-first search."""
    while within:
        seen = frontier = within & -within
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            frontier = reach & within & ~seen
            seen |= frontier
        within ^= seen
        yield seen


def _has_asteroidal_triple(n: int, adj: tuple[int, ...]) -> bool:
    """Whether some x < y < z are an asteroidal triple: y and z share a
    component of g - N[x], x and z one of g - N[y], and x and y one of
    g - N[z].  Such a triple lies in one component of g, so each g - N[x]
    is searched within x's own."""
    far = [0] * n  # far[x]: x's component of g less N[x]
    comp = [[0] * n for _ in range(n)]  # comp[x][v]: v's component of g - N[x] within far[x]
    for part in _components(adj, (1 << n) - 1):
        for x in _bits(part):
            far[x] = part & ~adj[x] & ~(1 << x)
            for c in _components(adj, far[x]):
                for v in _bits(c):
                    comp[x][v] = c
    for x in range(n):
        for y in _bits(far[x] & -(2 << x)):  # -(2 << x) keeps the bits above x
            for z in _bits(comp[x][y] & comp[y][x] & -(2 << y)):
                if comp[z][x] >> y & 1:
                    return True
    return False


def interval_clique_order(g: Graph) -> list[int] | None:
    """A linear order of the maximal cliques in which every vertex's cliques
    are consecutive (Gilmore-Hoffman), or None when g is not an interval
    graph.  The search that decides chordality lists the cliques, and only
    an interval graph reaches the order search."""
    cliques = _chordal_cliques(g.n, g._adj)
    if cliques is None or _has_asteroidal_triple(g.n, g._adj):
        return None
    return _clique_order(g.n, cliques)


def _clique_order(n: int, cliques: list[int]) -> list[int] | None:
    """A consecutive order of the maximal cliques `cliques` of a graph on n
    vertices, or None when there is none.

    Backtracking over clique sequences, trying the cliques in ascending
    order; at each step any open vertex that still has unplaced cliques
    forces membership in the next clique, which keeps the branching narrow.
    Proving that no order exists can take every order of the cliques, so
    callers pass only interval graphs: the graphs that `is_interval_graph`
    accepts and the axis graphs of a boxicity cover.
    """
    cliques = sorted(cliques)
    mcount = len(cliques)
    member = _membership(n, cliques)  # clique-index bitset per vertex
    order: list[int] = []

    def dfs(used: int, opened: int, closed: int) -> bool:
        if used == (1 << mcount) - 1:
            return True
        # open vertices with pending cliques must all sit in the next clique
        required = 0
        m = opened
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if member[v] & ~used:
                required |= 1 << v
        for ci in range(mcount):
            bit = 1 << ci
            if used & bit:
                continue
            cl = cliques[ci]
            if cl & closed:
                continue
            if required & ~cl:
                continue
            newly_closed = opened & ~cl
            order.append(ci)
            if dfs(used | bit, (opened | cl) & ~newly_closed, closed | newly_closed):
                return True
            order.pop()
        return False

    if dfs(0, 0, 0):
        return [cliques[ci] for ci in order]
    return None


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _refine(adj: tuple[int, ...], cells: list[int], queue: list[int]) -> None:
    """Split the ordered partition `cells` in place until it is equitable.

    `cells[s]` is the bitset of the cell that starts at position s (0 at the
    other positions).  Each splitter popped from `queue` (a cell start)
    splits every cell by its vertices' neighbour counts in the splitter, in
    ascending count order, so the result depends on the graph and the input
    partition alone, never on vertex labels.  A cell that misses the
    splitter's neighbourhood has count 0 throughout and stays whole, and a
    singleton splitter {u} has counts 0 and 1, so one AND with u's row
    splits a cell.  A split cell enqueues all of its pieces but its first
    largest, unless it was queued already: its counts with respect to that
    piece follow from the others'.
    """
    n = len(cells)
    queued = 0
    for s in queue:
        queued |= 1 << s
    while queue:
        s = queue.pop()
        queued &= ~(1 << s)
        w = cells[s]
        single = not w & (w - 1)
        if single:
            reach = adj[w.bit_length() - 1]
        else:
            reach = 0
            m = w
            while m:
                low = m & -m
                m ^= low
                reach |= adj[low.bit_length() - 1]
        t = 0
        while t < n:
            x = cells[t]
            size = x.bit_count()
            if size == 1 or not x & reach:
                t += size
                continue
            if single:
                inside = x & reach
                if inside != x:
                    # pieces x - inside and inside; the first largest is not queued
                    outside = x ^ inside
                    pos = t + outside.bit_count()
                    cells[t] = outside
                    cells[pos] = inside
                    if queued >> t & 1 or outside.bit_count() >= inside.bit_count():
                        queued |= 1 << pos
                        queue.append(pos)
                    else:
                        queued |= 1 << t
                        queue.append(t)
            else:
                groups: dict[int, int] = {}
                m = x
                while m:
                    low = m & -m
                    m ^= low
                    c = (adj[low.bit_length() - 1] & w).bit_count()
                    groups[c] = groups.get(c, 0) | low
                if len(groups) > 1:
                    pieces = [groups[c] for c in sorted(groups)]
                    skip = -1  # the first largest piece, unless x was queued
                    if not queued >> t & 1:
                        largest = 0
                        for i, piece in enumerate(pieces):
                            if piece.bit_count() > largest:
                                skip, largest = i, piece.bit_count()
                    pos = t
                    for i, piece in enumerate(pieces):
                        cells[pos] = piece
                        if i != skip and not queued >> pos & 1:
                            queued |= 1 << pos
                            queue.append(pos)
                        pos += piece.bit_count()
            t += size


def _root_partition(n: int, adj: tuple[int, ...]) -> list[int]:
    """The equitable refinement of the unit partition, in `_refine`'s cell
    layout: the root of `_canonical_labelling`'s search.  Each cell is a
    union of automorphism orbits, and every leaf's vertex order lists the
    cells in this order."""
    cells = [0] * n
    cells[0] = (1 << n) - 1
    _refine(adj, cells, [0])
    return cells


def _orbit_roots(n: int, generators) -> list[int]:
    """Entry v is the least vertex of v's orbit under the group the
    permutations generate."""
    roots = list(range(n))
    for gamma in generators:
        _join_orbits(roots, gamma)
    return roots


def _join_orbits(roots: list[int], gamma) -> None:
    """Add the permutation `gamma` to the group whose orbits `roots` holds,
    as `_orbit_roots` lays them out: each two orbits that gamma links merge
    under the lesser root."""
    for v, w in enumerate(gamma):
        a, b = roots[v], roots[w]
        if a != b:
            if a > b:
                a, b = b, a
            roots[:] = [a if x == b else x for x in roots]


def _canonical_labelling(
    n: int, adj: tuple[int, ...], root: list[int] | None = None
) -> tuple[bytes, list[int], list[tuple[int, ...]]]:
    """Certificate, canonical vertex order and automorphism generators.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): each node of the search tree holds an
    equitable ordered partition; a child individualizes one vertex of the
    first largest non-singleton cell, which stays a singleton at that cell's
    start from then on.  A leaf is a discrete partition, i.e. a vertex order,
    and the certificate is the least adjacency matrix over the leaves.

    Two leaves with the same relabelled graph differ by an automorphism,
    which is recorded; the search then returns to their deepest common
    ancestor, since the current child there is the image of a sibling
    already explored.  A node skips every child in the orbit of an explored
    sibling under the recorded automorphisms that fix the node's
    individualized vertices.  The generators found this way generate the
    whole automorphism group.

    `root` is `_root_partition(n, adj)` when the caller has it already; the
    search only reads it.
    """
    cells = _root_partition(n, adj) if root is None else root
    leaves: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    generators: list[tuple[int, ...]] = []
    best_key: tuple[int, ...] | None = None  # least relabelled graph
    best_lab: list[int] = []  # and its vertex order

    def leaf(cells: list[int], seq: list[int]) -> int:
        nonlocal best_key, best_lab
        lab = [c.bit_length() - 1 for c in cells]
        at = [0] * n  # at[v]: the bit of v's position in the order
        for i, v in enumerate(lab):
            at[v] = 1 << i
        rows = []
        for v in lab:
            m = adj[v]
            row = 0
            while m:
                low = m & -m
                m ^= low
                row |= at[low.bit_length() - 1]
            rows.append(row)
        key = tuple(rows)
        seen = leaves.get(key)
        if seen is None:
            leaves[key] = (lab, seq)
            if best_key is None or key < best_key:
                best_key, best_lab = key, lab
            return len(seq)
        other_lab, other_seq = seen
        gamma = [0] * n
        for u, v in zip(other_lab, lab):
            gamma[u] = v
        generators.append(tuple(gamma))
        common = 0
        while other_seq[common] == seq[common]:
            common += 1
        return common

    def descend(cells: list[int], seq: list[int]) -> int:
        """Explore the subtree; return the depth of the node to resume at."""
        depth = len(seq)
        target = -1
        size = 1
        s = 0
        while s < n:
            c = cells[s].bit_count()
            if c > size:
                target, size = s, c
            s += c
        if target < 0:
            return leaf(cells, seq)
        explored = 0
        roots = list(range(n))  # the orbits of the recorded generators that fix seq
        used = 0  # the generators folded into roots so far
        cell = cells[target]
        for v in _bits(cell):
            if explored:
                for gamma in generators[used:]:
                    if all(gamma[u] == u for u in seq):
                        _join_orbits(roots, gamma)
                used = len(generators)
                if any(roots[u] == roots[v] for u in _bits(explored)):
                    continue
            explored |= 1 << v
            child = cells[:]
            child[target] = 1 << v
            child[target + 1] = cell ^ 1 << v
            _refine(adj, child, [target])
            back = descend(child, seq + [v])
            if back < depth:
                return back
        return depth

    descend(cells, [])
    width = (n + 7) // 8
    cert = bytes([n]) + b"".join(row.to_bytes(width, "big") for row in best_key)
    return cert, best_lab, generators


def canonical_certificate(n: int, adj: tuple[int, ...]) -> bytes:
    """Isomorphism-invariant certificate: two graphs get equal certificates
    exactly when they are isomorphic.  It holds n, then the rows of the
    least relabelled adjacency matrix (see `_canonical_labelling`)."""
    return _canonical_labelling(n, adj)[0]


def canonical_form(g: Graph) -> bytes:
    """Canonical certificate of g; equal certificates iff isomorphic."""
    return canonical_certificate(g.n, g._adj)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_form(g) == canonical_form(h)
