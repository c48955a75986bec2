"""Simple undirected graphs with the queries the box-society combinatorics needs.

Vertices are labelled 1..n with n capped at 64 so each adjacency row fits in
one machine word; all the heavy queries (cliques, canonical forms, interval
recognition) run on those bitsets.  Graphs are immutable values and every
function here is pure.
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
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
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
        """Trusted constructor from per-vertex bitsets (0-based bits)."""
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        return g

    # -- basic queries -------------------------------------------------

    def adjacency_mask(self, v: int) -> int:
        return self._adj[v - 1]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u - 1] >> (v - 1) & 1)

    def degree(self, v: int) -> int:
        return self._adj[v - 1].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_labels(self._adj[v - 1]))

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


def _labels(mask: int):
    v = 1
    while mask:
        if mask & 1:
            yield v
        mask >>= 1
        v += 1


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


def _max_clique_size(n: int, adj: tuple[int, ...]) -> int:
    """Branch and bound over candidate bitsets."""
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

    expand((1 << n) - 1, 0)
    return best


def clique_number(g: Graph) -> int:
    """Exact clique number via bitset branch and bound."""
    return _max_clique_size(g.n, g._adj)


def has_clique_of_size(g: Graph, s: int, within: int | None = None) -> bool:
    """True iff some s-clique exists (restricted to the `within` bitset if given)."""
    if s <= 0:
        return True
    adj = g._adj
    start = (1 << g.n) - 1 if within is None else within
    found = False

    def expand(cand: int, size: int) -> None:
        nonlocal found
        if found or size + cand.bit_count() < s:
            return
        if size == s:
            found = True
            return
        while cand and not found:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(cand & adj[v], size + 1)

    expand(start, 0)
    return found


def count_cliques_of_size(g: Graph, s: int) -> int:
    """Number of s-element vertex sets inducing complete subgraphs."""
    if not 1 <= s <= g.n:
        raise ValueError(f"s must be in 1..{g.n}, got {s}")
    if s == 1:
        return g.n
    adj = g._adj
    total = 0

    # extend by ascending vertex index so each subset is generated once
    def extend(cand: int, depth: int) -> None:
        nonlocal total
        if depth == s:
            total += 1
            return
        # a candidate set that is itself a clique needs no further branching
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if m & ~adj[v]:
                break
        else:
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


# ---------------------------------------------------------------------------
# Agreeability
# ---------------------------------------------------------------------------


def is_agreeable(g: Graph, k: int, m: int) -> bool:
    """True iff every m-subset of vertices contains a k-clique.

    Vacuously true when m exceeds the vertex count.  The (2,3) case is
    answered through the complement: g has no independent triple exactly
    when its complement has no triangle.
    """
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    if m > g.n:
        return True
    if (k, m) == (2, 3):
        return clique_number(g.complement()) <= 2
    for subset in combinations(range(1, g.n + 1), m):
        mask = 0
        for v in subset:
            mask |= 1 << (v - 1)
        if not has_clique_of_size(g, k, within=mask):
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


def maximal_cliques(g: Graph) -> list[int]:
    """All maximal cliques as bitsets (Bron-Kerbosch with pivoting)."""
    adj = g._adj
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        pivot = (pool & -pool).bit_length() - 1
        best = -1
        m = pool
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            c = (p & adj[u]).bit_count()
            if c > best:
                best = c
                pivot = u
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            cand &= cand - 1
            bk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    bk(0, (1 << g.n) - 1, 0)
    return sorted(out)


def interval_clique_order(g: Graph) -> list[int] | None:
    """A linear order of the maximal cliques in which every vertex's cliques
    are consecutive, or None when no such order exists (Gilmore-Hoffman).

    Backtracking over clique sequences; at each step any open vertex that
    still has unplaced cliques forces membership in the next clique, which
    keeps the branching narrow.  Exponential in the clique count in the
    worst case, which is fine at this scale.
    """
    cliques = maximal_cliques(g)
    mcount = len(cliques)
    if mcount <= 1:
        return cliques
    member: list[int] = [0] * g.n  # clique-index bitset per vertex
    for ci, cl in enumerate(cliques):
        m = cl
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            member[v] |= 1 << ci

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


def is_interval_graph(g: Graph) -> bool:
    """True iff some vertex-interval family on a line realizes g exactly."""
    return interval_clique_order(g) is not None


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def _refine(n: int, adj: tuple[int, ...], colors: tuple[int, ...]) -> tuple[int, ...]:
    while True:
        sigs = []
        for v in range(n):
            row = adj[v]
            nb = []
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                nb.append(colors[u])
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(ranking[s] for s in sigs)
        if new == colors:
            return new
        colors = new


def canonical_certificate(n: int, adj: tuple[int, ...]) -> bytes:
    """Isomorphism-invariant certificate: two graphs get equal certificates
    exactly when they are isomorphic.

    Colour refinement plus individualization on the first non-singleton
    cell; the certificate is the minimum adjacency bitstring over the
    canonical labellings the search reaches.
    """
    best: bytes | None = None

    def descend(colors: tuple[int, ...]) -> None:
        nonlocal best
        colors = _refine(n, adj, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = sorted(range(n), key=lambda v: colors[v])
            bits = bytearray()
            acc = 0
            nbits = 0
            for i in range(n):
                for j in range(i + 1, n):
                    acc = (acc << 1) | (adj[perm[i]] >> perm[j] & 1)
                    nbits += 1
                    if nbits == 8:
                        bits.append(acc)
                        acc = 0
                        nbits = 0
            if nbits:
                bits.append(acc << (8 - nbits))
            cert = bytes([n]) + bytes(bits)
            if best is None or cert < best:
                best = cert
            return
        for v in target:
            branched = tuple(
                c * 2 if u == v else c * 2 + 1 for u, c in enumerate(colors)
            )
            descend(branched)

    descend(tuple([0] * n))
    assert best is not None
    return best


def canonical_form(g: Graph) -> bytes:
    """Canonical certificate of g; equal certificates iff isomorphic."""
    return canonical_certificate(g.n, g._adj)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_form(g) == canonical_form(h)
