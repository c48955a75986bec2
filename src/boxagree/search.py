"""Exhaustive, isomorphism-free enumeration of (2,3)-agreeable graphs with
bounded clique number, and the table of maximal sizes eta(r) it certifies.

The enumerator grows graphs one vertex at a time by canonical augmentation,
so each level holds exactly one graph per isomorphism class and no two
graphs are ever compared.  A new vertex attaches to the complement of a
clique of the current graph, since its non-neighbours must be pairwise
adjacent; every such attachment keeps the graph agreeable, and the clique
cap and the degree cap eta(r-1) are built into which cliques are generated.
All three constraints are hereditary for vertex deletion, so every valid
n-vertex graph is reachable from the graph one level down that its
canonical vertex leaves; the survivors are re-validated post hoc through
the public queries, independent of the pruned search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .boxicity import DEFAULT_BUDGET, decide_boxicity_leq, roberts_upper_bound
from .graphs import (
    Graph,
    _bits,
    _canonical_labelling,
    _orbit_roots,
    canonical_form,
    clique_number,
    is_agreeable,
    is_interval_graph,
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
    """Per-r record of confirmed values / upper bounds for eta(r)."""

    def __init__(self) -> None:
        self._entries: dict[int, EtaEntry] = {
            0: EtaEntry(confirmed=0, upper_bound=0, witness=None, impossibility=None)
        }

    def entry(self, r: int) -> EtaEntry:
        if r not in self._entries:
            raise MissingEtaError(f"eta({r})")
        return self._entries[r]

    def confirmed(self, r: int) -> int:
        e = self.entry(r)
        if e.confirmed is None:
            raise MissingEtaError(f"eta({r}) (only an upper bound is known)")
        return e.confirmed

    def best_upper(self, r: int) -> int:
        """Confirmed value when known, otherwise the recorded upper bound."""
        e = self.entry(r)
        return e.confirmed if e.confirmed is not None else e.upper_bound

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
        return self.best_upper(r)

    def _set(self, r: int, entry: EtaEntry) -> None:
        self._entries[r] = entry

    def known(self) -> dict[int, EtaEntry]:
        return dict(self._entries)


def eta_upper(r: int, table: EtaTable) -> tuple[int, EtaUpperCertificate]:
    """Largest n not excluded by the degree bounds, with its certificate.

    At n the minimum degree must reach n - r - 1 while no degree may exceed
    eta(r-1).  The bounds cross for n > eta(r-1) + r + 1; at the borderline
    n the graph would be forced eta(r-1)-regular, which parity kills when
    n * eta(r-1) is odd.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    prev = table.confirmed(r - 1)
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


def _witness_for(r: int) -> Graph | None:
    if r == 1:
        return Graph(2)
    if r == 2:
        return Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    if r == 3:
        return fixtures.expected_graph("fig38a")
    if r == 4:
        return fixtures.expected_graph("fig134")
    return None


def confirm_eta(r: int, table: EtaTable | None = None) -> EtaEntry:
    """Confirmed eta(r) for r <= 4: the rule-based upper bound met by a
    registered witness graph, re-validated for agreeability and clique
    number at load."""
    if not 1 <= r <= 4:
        raise ValueError(f"confirm_eta covers r in 1..4, got {r}")
    if table is None:
        table = EtaTable()
    for rr in range(1, r + 1):
        try:
            entry = table.entry(rr)
            if entry.confirmed is not None:
                continue
        except MissingEtaError:
            pass
        upper, cert = eta_upper(rr, table)
        witness = _witness_for(rr)
        if witness is None:  # pragma: no cover - registry covers 1..4
            raise MissingEtaError(f"witness for eta({rr})")
        if witness.n != upper:
            raise RuntimeError(
                f"registered witness for eta({rr}) has {witness.n} vertices, "
                f"upper bound is {upper}"
            )
        if not is_agreeable(witness, 2, 3):
            raise RuntimeError(f"registered witness for eta({rr}) is not (2,3)-agreeable")
        if clique_number(witness) > rr:
            raise RuntimeError(f"registered witness for eta({rr}) has clique number > {rr}")
        table._set(rr, EtaEntry(upper, upper, witness, cert))
    return table.entry(r)


_DEFAULT_TABLE: EtaTable | None = None


def default_eta_table() -> EtaTable:
    """eta confirmed for r <= 4, plus the parity upper bound 18 at r = 5."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        table = EtaTable()
        confirm_eta(4, table)
        upper, cert = eta_upper(5, table)
        table._set(5, EtaEntry(None, upper, None, cert))
        _DEFAULT_TABLE = table
    return _DEFAULT_TABLE


@dataclass(frozen=True)
class SearchCertificate:
    n: int
    r: int
    graphs_examined: int
    survivors: tuple[Graph, ...]
    pruning: dict[str, int]
    level_sizes: tuple[int, ...]  # isomorphism classes on 1..n vertices


def _cliques_within(adj: tuple[int, ...], cand: int, floor: int, ceiling: int, hit=()):
    """Every clique of `floor` to `ceiling` (at least 1) vertices inside the
    bitset `cand` that meets every bitset in `hit`, each once, as a bitset;
    grown by ascending vertex index.  A branch stops as soon as some bitset
    in `hit` lies outside what it can still add."""
    if floor <= 0 and not hit:
        yield 0
    while cand and cand.bit_count() >= floor:
        if any(not h & cand for h in hit):
            return
        low = cand & -cand
        cand ^= low
        rest = [h for h in hit if not h & low]
        if ceiling == 1:
            if floor <= 1 and not rest:
                yield low
            continue
        for clique in _cliques_within(
            adj, cand & adj[low.bit_length() - 1], floor - 1, ceiling - 1, rest
        ):
            yield clique | low


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
            for v in _bits(t):
                image |= 1 << gamma[v]
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    least = min(orbit)
    for t in orbit:
        known[t] = least
    return least


def enumerate_agreeable(n: int, r: int, table: EtaTable | None = None) -> SearchCertificate:
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
    complement of a clique of G.  That clique meets every r-clique of G,
    which keeps the clique number at most r, and has at least
    k - eta(r-1) vertices, which caps the new vertex's degree; it has at
    most k - max(deg G) vertices, since the new vertex needs the largest
    degree.  The same degree test then keeps every old vertex within the
    cap.  Labelling runs only on parents with an attachment that passes
    the degree tests, and on children with a tie, whose automorphisms then
    serve them as parents on the next level.  `level_sizes` counts
    the classes on 1..n vertices; the survivors are re-validated through
    the public queries and sorted by certificate.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n, r >= 1, got n={n}, r={r}")
    if table is None:
        table = default_eta_table()
    work = {"examined": 0, "orbit": 0, "not_canonical": 0}
    sizes = []
    for level in _levels(n, r, table, work):
        sizes.append(len(level))
    examined = work.pop("examined")
    survivors = tuple(sorted(_survivors(n, r, level), key=canonical_form))
    return SearchCertificate(n, r, examined, survivors, work, tuple(sizes))


def _levels(n: int, r: int, table: EtaTable, work: dict[str, int]):
    """Yield the levels k = 1..n of the canonical augmentation in
    `enumerate_agreeable`, each a list of (adjacency rows, automorphism
    generators or None until labelled), one per isomorphism class.  `work`
    counts the attachments "examined" and those pruned by each rule."""
    degree_cap = table.best_upper(r - 1)
    level: list[tuple[tuple[int, ...], list | None]] = [((0,), [])]  # one vertex
    yield level
    for k in range(1, n):
        nxt: list[tuple[tuple[int, ...], list | None]] = []
        fullk = (1 << k) - 1
        for adj, parent_aut in level:
            deg = [m.bit_count() for m in adj]
            # omega(G) <= r, so the cliques of at least r vertices are its r-cliques
            r_cliques = list(_cliques_within(adj, fullk, r, r))
            orbit_min: dict[int, int] = {}
            # the new vertex's degree k - |clique| must reach max(deg)
            for clique in _cliques_within(adj, fullk, k - degree_cap, k - max(deg), r_cliques):
                work["examined"] += 1
                attach = fullk ^ clique
                d = attach.bit_count()
                # the old vertices' degrees in the child; none may beat d
                newdeg = [deg[v] + (attach >> v & 1) for v in range(k)]
                if max(newdeg) > d:
                    work["not_canonical"] += 1
                    continue
                newdeg.append(d)
                newadj = tuple(
                    adj[v] | ((attach >> v & 1) << k) for v in range(k)
                ) + (attach,)
                score = [
                    sum(newdeg[w] for w in _bits(newadj[v])) if newdeg[v] == d else -1
                    for v in range(k + 1)
                ]
                top = max(score)
                if score[k] < top:
                    work["not_canonical"] += 1
                    continue
                if parent_aut is None:
                    parent_aut = _canonical_labelling(k, adj)[2]
                if _set_orbit_min(attach, parent_aut, orbit_min) != attach:
                    work["orbit"] += 1
                    continue
                child_aut = None
                if score.count(top) > 1:
                    _, order, child_aut = _canonical_labelling(k + 1, newadj)
                    first = next(v for v in order if score[v] == top)
                    roots = _orbit_roots(k + 1, child_aut)
                    if roots[first] != roots[k]:
                        work["not_canonical"] += 1
                        continue
                nxt.append((newadj, child_aut))
        level = nxt
        yield level


def _survivors(n: int, r: int, level) -> list[Graph]:
    """The graphs of a level, each re-validated through the public queries,
    independent of the pruned search."""
    survivors = []
    for adj, _ in level:
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
    dimension_cap: int | None


def _box_at_most(g: Graph, d: int, budget: int) -> bool:
    """Exact box(g) <= d with the cheap certain routes tried first."""
    if roberts_upper_bound(g) <= d:
        return True
    if is_interval_graph(g):
        return True
    decision = decide_boxicity_leq(g, d, budget)
    if decision.status == "inconclusive":
        raise RuntimeError(
            f"boxicity of {g!r} undecided within budget; cannot filter"
        )
    return decision.status == "yes"


def min_agreement_proportion(
    r: int,
    d_constraint: int | None = None,
    table: EtaTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ProportionResult:
    """Minimum of omega/n over all (2,3)-agreeable graphs with clique number
    at most r (and boxicity at most d_constraint when given), together with
    the graphs attaining it.

    With the dimension cap at floor(eta(r)/2) or above the filter is
    vacuous (every candidate passes by the floor(n/2) bound), so that call
    coincides with the unconstrained minimum.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if d_constraint is not None and d_constraint < 1:
        raise ValueError(f"need d_constraint >= 1, got {d_constraint}")
    if r > 4:
        raise ValueError("minima are limited to r <= 4")
    if table is None:
        table = default_eta_table()
    n_max = table.confirmed(r)
    best: Fraction | None = None
    minimizers: list[Graph] = []
    undecided: list[Graph] = []
    work = {"examined": 0, "orbit": 0, "not_canonical": 0}
    for n, level in enumerate(_levels(n_max, r, table, work), start=1):
        for g in _survivors(n, r, level):
            if d_constraint is not None:
                try:
                    if not _box_at_most(g, d_constraint, budget):
                        continue
                except RuntimeError:
                    undecided.append(g)
                    continue
            prop = Fraction(clique_number(g), n)
            if best is None or prop < best:
                best = prop
                minimizers = [g]
            elif prop == best:
                minimizers.append(g)
    if undecided:
        raise RuntimeError(
            f"boxicity undecided within budget for {len(undecided)} graphs: "
            + "; ".join(repr(g) for g in undecided)
        )
    if best is None:  # pragma: no cover - K1 always qualifies
        raise RuntimeError("no graphs enumerated")
    minimizers.sort(key=lambda g: (g.n, canonical_form(g)))
    return ProportionResult(best, tuple(minimizers), d_constraint)


def verify_main_theorem(
    d: int,
    r: int,
    table: EtaTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Check the 1/(2d) bound on the computed minimum and re-run the proof
    chain on every minimizer: no universal vertices, the boxicity lower
    bound n/(2(n - delta - 1)) <= d, and omega >= n - delta - 1."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    result = min_agreement_proportion(r, d, table, budget)
    if result.value < Fraction(1, 2 * d):
        return False
    for g in result.minimizers:
        degs = g.degrees()
        if g.n >= 2 and any(deg == g.n - 1 for deg in degs):
            return False
        if g.n >= 2:
            delta = min(degs)
            if Fraction(g.n, 2 * (g.n - delta - 1)) > d:
                return False
            if clique_number(g) < g.n - delta - 1:
                return False
    return True
