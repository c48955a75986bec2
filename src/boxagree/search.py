"""Exhaustive, isomorphism-pruned enumeration of (2,3)-agreeable graphs with
bounded clique number, and the table of maximal sizes eta(r) it certifies.

The enumerator grows graphs one vertex at a time, keeping one canonical
representative per isomorphism class per level.  A new vertex attaches to
the complement of a clique of the current graph, since its non-neighbours
must be pairwise adjacent; every such attachment keeps the graph
agreeable, so only the clique cap and the degree cap eta(r-1) prune.  All
three constraints are hereditary for vertex deletion, so every valid
n-vertex graph is reachable from some representative one level down; the
survivors are re-validated post hoc through the public queries,
independent of the pruned search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import fixtures
from .boxicity import DEFAULT_BUDGET, decide_boxicity_leq, roberts_upper_bound
from .graphs import (
    Graph,
    canonical_certificate,
    clique_number,
    has_clique_of_size,
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


def _cliques_within(adj: tuple[int, ...], cand: int, floor: int):
    """Every clique of at least `floor` vertices inside the bitset `cand`,
    each once, as a bitset; grown by ascending vertex index."""
    if floor <= 0:
        yield 0
    while cand and cand.bit_count() >= floor:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        for clique in _cliques_within(adj, cand & adj[v], floor - 1):
            yield clique | 1 << v


def enumerate_agreeable(n: int, r: int, table: EtaTable | None = None) -> SearchCertificate:
    """All (2,3)-agreeable graphs on n vertices with clique number <= r, up
    to isomorphism.

    Orderly vertex-by-vertex extension: level k holds one canonical
    representative per isomorphism class of valid k-vertex prefixes.  A new
    vertex's non-neighbours must form a clique (two non-adjacent ones would
    make an independent triple with it), so each attachment is the
    complement of a clique of the prefix with at least k - eta(r-1)
    vertices, which caps the new vertex's degree.  Branches die when they
    push an old vertex's degree above eta(r-1) or close an (r+1)-clique.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n, r >= 1, got n={n}, r={r}")
    if table is None:
        table = default_eta_table()
    degree_cap = table.best_upper(r - 1)

    examined = 0
    pruning = {"degree_cap": 0, "clique_cap": 0, "isomorph": 0}

    # level 1: the single vertex (trivially valid for every n, r >= 1)
    start = (0,)
    level: dict[bytes, tuple[int, ...]] = {canonical_certificate(1, start): start}

    for k in range(1, n):
        nxt: dict[bytes, tuple[int, ...]] = {}
        for adj in level.values():
            prefix = Graph.from_masks(k, adj)
            fullk = (1 << k) - 1
            saturated = sum(1 << v for v in range(k) if adj[v].bit_count() >= degree_cap)
            # ascending attachments fix which labelled representative each class keeps
            for attach in sorted(
                fullk ^ clique for clique in _cliques_within(adj, fullk, k - degree_cap)
            ):
                examined += 1
                if attach & saturated:
                    pruning["degree_cap"] += 1
                    continue
                if has_clique_of_size(prefix, r, within=attach):
                    pruning["clique_cap"] += 1
                    continue
                newadj = tuple(
                    adj[v] | ((attach >> v & 1) << k) for v in range(k)
                ) + (attach,)
                cert = canonical_certificate(k + 1, newadj)
                if cert in nxt:
                    pruning["isomorph"] += 1
                else:
                    nxt[cert] = newadj
        level = nxt

    survivors = []
    for cert in sorted(level):
        g = Graph.from_masks(n, level[cert])
        # post-hoc re-validation through the public queries
        if not is_agreeable(g, 2, 3):  # pragma: no cover - search invariant
            raise RuntimeError("survivor failed agreeability re-validation")
        if clique_number(g) > r:  # pragma: no cover - search invariant
            raise RuntimeError("survivor failed clique re-validation")
        survivors.append(g)
    return SearchCertificate(n, r, examined, tuple(survivors), pruning)


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
    if d_constraint is not None and r > 3:
        raise ValueError("boxicity-filtered minima are limited to r <= 3")
    if r > 4:
        raise ValueError("unconstrained minima are limited to r <= 4")
    if table is None:
        table = default_eta_table()
    n_max = table.confirmed(r)
    best: Fraction | None = None
    minimizers: list[Graph] = []
    undecided: list[Graph] = []
    for n in range(1, n_max + 1):
        for g in enumerate_agreeable(n, r, table).survivors:
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
