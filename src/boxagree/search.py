"""Exhaustive, isomorphism-free enumeration of (2,3)-agreeable graphs with
bounded clique number, and the table of maximal sizes eta(r) it certifies.

The complement of such a graph is triangle-free (it has no independent
triple) with independence number at most r, so eta(r) = R(3, r+1) - 1 for
the Ramsey number R(3, r+1); `eta_upper` is the Greenwood-Gleason degree
bound on it, and `default_eta_table` confirms eta(r) wherever a registered
witness meets that bound.

The enumerator grows graphs one vertex at a time by canonical augmentation,
so each level holds exactly one graph per isomorphism class and no two
graphs are ever compared.  A new vertex attaches to the complement of a
clique of the current graph, since its non-neighbours must be pairwise
adjacent; every such attachment keeps the graph agreeable, and the clique
cap and the degree cap eta(r-1) are built into which cliques are generated.
All three constraints are hereditary for vertex deletion, so every valid
n-vertex graph is reachable from the graph one level down that its
canonical vertex leaves.  So is box <= d: a boxicity cap filters inside the
walk, exactly, as a kept graph's canonical parent has box <= d too.  The
survivors are re-validated post hoc through the public queries,
independent of the pruned search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import fixtures
from .boxicity import _at_most, adiga_lower_bound
from .graphs import (
    Graph,
    _canonical_labelling,
    _cliques_within,
    _is_clique,
    _orbit_roots,
    _root_partition,
    canonical_form,
    clique_number,
    is_agreeable,
)


class MissingEtaError(LookupError):
    """A required eta table entry is not available."""

    def __init__(self, entry: str) -> None:
        super().__init__(f"missing eta table entry: {entry}")
        self.entry = entry


@dataclass(frozen=True)
class EtaUpperCertificate:
    """Why no (2,3)-agreeable graph with clique number <= r exceeds `value`
    vertices: at `excluded_n` either the degree bounds cross outright
    (rule "degree") or they force an impossible odd-regular graph
    (rule "parity")."""

    r: int
    value: int
    rule: str  # "degree" | "parity"
    excluded_n: int
    detail: str


@dataclass(frozen=True)
class EtaEntry:
    confirmed: int | None
    upper_bound: int
    witness: Graph | None
    impossibility: EtaUpperCertificate | None


class EtaTable:
    """Read-only per-r record of eta(r): confirmed for r = 0..`top`, and
    only bracketed by the degree rule at r = `top` + 1."""

    def __init__(self, entries: dict[int, EtaEntry]) -> None:
        self._entries = dict(entries)
        self.top = max(r for r, e in self._entries.items() if e.confirmed is not None)

    def entry(self, r: int) -> EtaEntry:
        if r not in self._entries:
            raise MissingEtaError(f"eta({r})")
        return self._entries[r]

    def confirmed(self, r: int) -> int:
        e = self.entry(r)
        if e.confirmed is None:
            raise MissingEtaError(f"eta({r}) (only an upper bound is known)")
        return e.confirmed

    def eta_dim(self, r: int, d: int) -> int:
        """eta(r, d): exact for d = 0 (all 0-boxes coincide, so the graph is
        complete and n <= r) and d = 1 (2r); the dimension-free value serves
        as the upper-bound fallback for d >= 2."""
        if r < 0 or d < 0:
            raise ValueError(f"need r, d >= 0, got r={r}, d={d}")
        if r == 0:
            return 0
        if d == 0:
            return r
        if d == 1:
            return 2 * r
        return self.entry(r).upper_bound


def _degree_bound(r: int, prev: int) -> tuple[int, EtaUpperCertificate]:
    """`eta_upper` given prev = eta(r-1)."""
    borderline = prev + r + 1
    if (borderline * prev) % 2 == 1:
        cert = EtaUpperCertificate(
            r, borderline - 1, "parity", borderline,
            f"n={borderline} forces a {prev}-regular graph, but "
            f"{borderline}*{prev} is odd",
        )
        return borderline - 1, cert
    cert = EtaUpperCertificate(
        r, borderline, "degree", borderline + 1,
        f"n={borderline + 1} needs minimum degree {borderline - r} "
        f"> eta({r - 1}) = {prev}",
    )
    return borderline, cert


def eta_upper(r: int) -> tuple[int, EtaUpperCertificate]:
    """Largest n not excluded by the degree bounds, with its certificate,
    as the default table stores them: the Greenwood-Gleason bound (1955)
    R(3, r+1) <= R(3, r) + r + 1 with its parity step, read through
    eta(r) = R(3, r+1) - 1.

    A vertex's non-neighbours form a clique, so the minimum degree is at
    least n - r - 1; its neighbourhood is agreeable with clique number at
    most r - 1, so no degree exceeds eta(r-1).  The bounds cross for
    n > eta(r-1) + r + 1; at the borderline n the graph would be forced
    eta(r-1)-regular, which parity kills when n * eta(r-1) is odd.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    e = default_eta_table().entry(r)
    return e.upper_bound, e.impossibility


def _witnesses() -> list[Graph]:
    """Entry r - 1 is a graph on eta(r) vertices with clique number r: two
    isolated vertices, the 5-cycle, and the `fig38a` and `fig134` fixtures."""
    return [
        Graph(2),
        Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
        fixtures.expected_graph("fig38a"),
        fixtures.expected_graph("fig134"),
    ]


@cache
def default_eta_table() -> EtaTable:
    """eta(r) for every r with a registered witness, each the degree bound
    met by its witness, re-validated for agreeability and clique number at
    build; the next r is bracketed by the degree bound alone."""
    entries = {0: EtaEntry(confirmed=0, upper_bound=0, witness=None, impossibility=None)}
    for r, witness in enumerate(_witnesses(), start=1):
        upper, cert = _degree_bound(r, entries[r - 1].confirmed)
        if witness.n != upper:
            raise RuntimeError(
                f"registered witness for eta({r}) has {witness.n} vertices, "
                f"upper bound is {upper}"
            )
        if not is_agreeable(witness, 2, 3):
            raise RuntimeError(f"registered witness for eta({r}) is not (2,3)-agreeable")
        if clique_number(witness) > r:
            raise RuntimeError(f"registered witness for eta({r}) has clique number > {r}")
        entries[r] = EtaEntry(upper, upper, witness, cert)
    r = len(entries)
    upper, cert = _degree_bound(r, entries[r - 1].confirmed)
    entries[r] = EtaEntry(None, upper, None, cert)
    return EtaTable(entries)


def confirm_eta(r: int) -> EtaEntry:
    """The confirmed entry of eta(r), r >= 1: its degree bound met by a
    registered witness graph."""
    table = default_eta_table()
    if not 1 <= r <= table.top:
        raise ValueError(f"confirm_eta covers r in 1..{table.top}, got {r}")
    return table.entry(r)


@dataclass(frozen=True)
class SearchCertificate:
    n: int
    r: int
    graphs_examined: int
    survivors: tuple[Graph, ...]
    pruning: dict[str, int]
    level_sizes: tuple[int, ...]  # isomorphism classes on 1..n vertices
    labellings: int  # full canonical labellings in the walk, not the final sort


def _set_orbit_min(s: int, generators, known: dict[int, int]) -> int:
    """Least bitset in the orbit of `s` under the generated group; every
    orbit met is cached in `known`."""
    if s in known:
        return known[s]
    orbit = {s}
    stack = [s]
    while stack:
        t = stack.pop()
        for gamma in generators:
            image = 0
            m = t
            while m:
                low = m & -m
                m ^= low
                image |= 1 << gamma[low.bit_length() - 1]
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    least = min(orbit)
    for t in orbit:
        known[t] = least
    return least


def enumerate_agreeable(n: int, r: int) -> SearchCertificate:
    """All (2,3)-agreeable graphs on n vertices with clique number <= r, up
    to isomorphism.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    1998): level k holds one graph per isomorphism class of valid k-vertex
    graphs, and a child G + v of a level-k graph G is kept only when

    - v's attachment is the least in its orbit under Aut(G), so that G has
      one child per orbit of attachments ("orbit"); and
    - v is canonical in G + v ("not_canonical"): it has the largest
      (degree, sum of neighbour degrees), and on a tie it lies in the
      Aut(G + v)-orbit of the first such vertex in the canonical order.

    Every valid graph H then arises exactly once: deleting its canonical
    vertex leaves a valid graph (all three constraints are hereditary), the
    one graph of that class in the level below, and exactly one orbit of
    attachments of it rebuilds H.

    A new vertex's non-neighbours must form a clique (two non-adjacent ones
    would make an independent triple with it), so each attachment is the
    complement of a clique C of G.  Only the admissible ones are generated:
    C meets every r-clique of G, which keeps the clique number at most r;
    it has at least k - eta(r-1) vertices, which caps the new vertex's
    degree d = k - |C|; d reaches the largest degree of G, and C contains
    every old vertex of degree at least d, so none ends above the new
    vertex.  Each class carries its r-cliques as per-vertex bitsets: a
    child's are its parent's plus the new vertex with each (r-1)-clique of
    its attachment.

    Before a full labelling, the equitable refinement of the unit partition
    (the labeller's own root step) is tried: each of its cells is a union
    of automorphism orbits and holds one score.  An attachment that is a
    union of the parent's cells is its own orbit; a discrete partition
    makes the graph rigid, and a rigid parent whose new vertex every
    automorphism of the child fixes gives a rigid child; and the new vertex
    is canonical when its first top-score cell is {v}, and is not when v
    lies outside it.  `labellings` counts the full labellings the rest
    need, parents for an orbit test and children for a tie, each started
    from the root partition the test already refined; a labelled child
    serves as a parent on the next level.  `level_sizes` counts the
    classes on 1..n vertices; the survivors are re-validated through the
    public queries and sorted by certificate.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n, r >= 1, got n={n}, r={r}")
    work: dict[str, int] = {}
    sizes = []
    for level in _levels(n, r, work):
        sizes.append(len(level))
    examined = work.pop("examined")
    labellings = work.pop("labellings")
    survivors = tuple(sorted(_survivors(n, r, level), key=canonical_form))
    return SearchCertificate(n, r, examined, survivors, work, tuple(sizes), labellings)


def _admissible_cliques(adj, deg, member, floor: int, ceiling: int) -> list[int]:
    """The cliques C of a k-vertex graph, of `floor` to `ceiling` vertices,
    that meet every r-clique and leave no old vertex above the new one's
    degree d = k - |C|, given a ceiling of at most k - max(deg), so that d
    is no less than any old degree; `member[v]` is the bitset of the
    r-cliques that hold v.  An old vertex ends with degree deg(v) + [v not
    in C], so every v with deg(v) >= d is forced into C; a size whose forced
    set is not a clique, or outgrows the size, has no such C, and otherwise
    C is the forced set plus a clique of its common neighbourhood that
    meets the r-cliques the forced set misses."""
    k = len(adj)
    everyone = 0
    for m in member:
        everyone |= m
    out: list[int] = []
    for size in range(max(floor, 0), ceiling + 1):
        forced = 0
        common = (1 << k) - 1
        met = 0
        for v in range(k):
            if deg[v] >= k - size:
                forced |= 1 << v
                common &= adj[v]
                met |= member[v]
        free = size - forced.bit_count()
        if free < 0 or not _is_clique(forced, adj):
            continue
        unmet = everyone & ~met
        out += [forced | c for c in _cliques_within(adj, common, free, free, member, unmet)]
    return out


def _levels(n: int, r: int, work: dict[str, int], dim: int | None = None):
    """Yield the levels k = 1..n of the canonical augmentation in
    `enumerate_agreeable`, each a list of (adjacency rows, automorphism
    generators or None until labelled, r-clique membership), one per
    isomorphism class: entry v of the membership is the bitset of the
    class's r-cliques that hold v, and a child numbers its new r-cliques
    after its parent's.  `work` counts the attachments "examined", those
    pruned by each rule, and the full "labellings", creating each key it
    counts.  Given `dim`, a child that passes the canonicity tests is kept
    only if its boxicity is at most `dim` (exact, as its canonical parent
    then is too), else it counts under "boxicity".  `boxicity._at_most`
    answers that yes or no without building a witness; on <= 13 vertices
    its DP charges at most 13 * 2^12 nodes, far within the default budget.

    A child's scores follow from its parent's: attaching the new vertex to
    A raises the degree of each vertex of A by one, so a vertex's sum of
    neighbour degrees grows by its neighbours in A, plus d = |A| when it
    lies in A itself, and only vertices that end with degree d are scored."""
    for key in ("examined", "labellings", "orbit", "not_canonical"):
        work.setdefault(key, 0)
    if dim is not None:
        work.setdefault("boxicity", 0)
    degree_cap = default_eta_table().entry(r - 1).upper_bound
    level: list[tuple[tuple[int, ...], list | None, list[int]]] = [
        ((0,), [], [1] if r == 1 else [0])]  # one vertex
    yield level
    for k in range(1, n):
        nxt: list[tuple[tuple[int, ...], list | None, list[int]]] = []
        fullk = (1 << k) - 1
        newbit = 1 << k
        for adj, parent_aut, member in level:
            deg = [m.bit_count() for m in adj]
            total = sum(deg)
            by_degree = [0] * (k + 1)  # by_degree[j]: the vertices of degree j
            nsum = []  # nsum[v]: the sum of v's neighbours' degrees
            for v, row in enumerate(adj):
                by_degree[deg[v]] |= 1 << v
                t = 0
                while row:
                    low = row & -row
                    row ^= low
                    t += deg[low.bit_length() - 1]
                nsum.append(t)
            held = max(member).bit_length()  # the parent's r-cliques, each in some entry
            root = None  # the parent's root partition, once an orbit test needs it
            orbit_min: dict[int, int] = {}
            # the new vertex's degree k - |clique| must reach max(deg)
            cliques = _admissible_cliques(adj, deg, member, k - degree_cap, k - max(deg))
            work["examined"] += len(cliques)
            for clique in cliques:
                attach = fullk ^ clique
                d = k - clique.bit_count()
                # the new vertex's score: the sum of its neighbours' new degrees
                mine = total + d
                m = clique
                while m:
                    low = m & -m
                    m ^= low
                    mine -= deg[low.bit_length() - 1]
                ties = newbit  # the vertices that score as high as the new one
                beaten = False
                # degree d in the child: degree d - 1 in A, or d outside it
                # (when d = 0, A is empty)
                m = attach & by_degree[d - 1] | clique & by_degree[d]
                while m:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    score = nsum[v] + (adj[v] & attach).bit_count()
                    if attach & low:
                        score += d
                    if score > mine:
                        beaten = True
                        break
                    if score == mine:
                        ties |= low
                if beaten:
                    work["not_canonical"] += 1
                    continue
                if parent_aut is None:
                    if root is None:
                        root = _root_partition(k, adj)
                        if all(root):  # a discrete root partition: G is rigid
                            parent_aut = []
                    # a union of root cells is fixed by Aut(G): its own orbit
                    if parent_aut is None and any(attach & c not in (0, c) for c in root):
                        parent_aut = _canonical_labelling(k, adj, root)[2]
                        work["labellings"] += 1
                if parent_aut and _set_orbit_min(attach, parent_aut, orbit_min) != attach:
                    work["orbit"] += 1
                    continue
                newadj = tuple([row | newbit if attach >> v & 1 else row
                                for v, row in enumerate(adj)]) + (attach,)
                child_aut = None
                if ties != newbit:
                    # the first top-score vertex in canonical order lies in
                    # the first top-score cell of the root partition
                    cells = _root_partition(k + 1, newadj)
                    cell = next(c for c in cells
                                if c and ties >> ((c & -c).bit_length() - 1) & 1)
                    if not cell & newbit:
                        work["not_canonical"] += 1
                        continue
                    if cell != newbit:
                        _, order, child_aut = _canonical_labelling(k + 1, newadj, cells)
                        work["labellings"] += 1
                        first = next(v for v in order if ties >> v & 1)
                        roots = _orbit_roots(k + 1, child_aut)
                        if roots[first] != roots[k]:
                            work["not_canonical"] += 1
                            continue
                if dim is not None and not _at_most(Graph.from_masks(k + 1, newadj), dim):
                    work["boxicity"] += 1
                    continue
                if child_aut is None and parent_aut == []:
                    # Aut(G + k) fixes k, so it restricts into the trivial Aut(G)
                    child_aut = []
                child = member.copy()
                bit = 1 << held
                for c in _cliques_within(adj, attach, r - 1, r - 1):
                    while c:
                        low = c & -c
                        c ^= low
                        child[low.bit_length() - 1] |= bit
                    bit <<= 1
                child.append(bit - (1 << held))  # the new vertex is in every new r-clique
                nxt.append((newadj, child_aut, child))
        level = nxt
        yield level


def _survivors(n: int, r: int, level) -> list[Graph]:
    """The graphs of a level, each re-validated through the public queries,
    independent of the pruned search."""
    survivors = []
    for adj, _, _ in level:
        g = Graph.from_masks(n, adj)
        if not is_agreeable(g, 2, 3):  # pragma: no cover - search invariant
            raise RuntimeError("survivor failed agreeability re-validation")
        if clique_number(g) > r:  # pragma: no cover - search invariant
            raise RuntimeError("survivor failed clique re-validation")
        survivors.append(g)
    return survivors


@dataclass(frozen=True)
class ProportionResult:
    value: Fraction
    minimizers: tuple[Graph, ...]
    level_sizes: tuple[int, ...]  # classes within the boxicity cap on 1..eta(r) vertices
    # the walk's counters: attachments "examined", full "labellings", and
    # those pruned by "orbit", "not_canonical" and, under a cap, "boxicity"
    work: dict[str, int] = field(default_factory=dict)


def min_agreement_proportion(r: int, d_constraint: int | None = None) -> ProportionResult:
    """Minimum of omega/n over all (2,3)-agreeable graphs with clique number
    at most r (and boxicity at most d_constraint when given), together with
    the graphs attaining it.

    One walk of the levels up to eta(r) serves every n.  The cap filters
    inside it, exactly, as a kept graph's canonical parent passes it too;
    the last non-empty level is eta(r, d).  At floor(eta(r)/2) or above the
    cap is vacuous (every candidate passes by the floor(n/2) bound).
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if d_constraint is not None and d_constraint < 1:
        raise ValueError(f"need d_constraint >= 1, got {d_constraint}")
    table = default_eta_table()
    if r > table.top:
        raise ValueError(f"minima are limited to r <= {table.top}")
    best: Fraction | None = None
    minimizers: list[Graph] = []
    sizes = []
    work: dict[str, int] = {}
    for n, level in enumerate(_levels(table.confirmed(r), r, work, d_constraint), start=1):
        sizes.append(len(level))
        for g in _survivors(n, r, level):
            prop = Fraction(clique_number(g), n)
            if best is None or prop < best:
                best = prop
                minimizers = [g]
            elif prop == best:
                minimizers.append(g)
    if best is None:  # pragma: no cover - K1 always qualifies
        raise RuntimeError("no graphs enumerated")
    minimizers.sort(key=lambda g: (g.n, canonical_form(g)))
    return ProportionResult(best, tuple(minimizers), tuple(sizes), work)


def verify_main_theorem(d: int, r: int) -> bool:
    """`main_theorem_holds` on the minimum over clique number <= r and
    boxicity <= d."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return main_theorem_holds(min_agreement_proportion(r, d), d)


def main_theorem_holds(result: ProportionResult, d: int) -> bool:
    """Check the 1/(2d) bound on a minimum computed under the boxicity cap d
    and re-run the proof chain on every minimizer: no universal vertices,
    the boxicity lower bound n/(2(n - delta - 1)) <= d, and
    omega >= n - delta - 1."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if result.value < Fraction(1, 2 * d):
        return False
    for g in result.minimizers:
        if g.n < 2:
            continue
        degs = g.degrees()
        if any(deg == g.n - 1 for deg in degs):
            return False
        if adiga_lower_bound(g) > d:
            return False
        if clique_number(g) < g.n - min(degs) - 1:
            return False
    return True
