import math
from itertools import combinations, permutations
from random import Random
from time import perf_counter

import pytest

from boxagree import (
    Graph,
    adiga_lower_bound,
    boxicity_report,
    decide_boxicity_leq,
    intersection_graph,
    is_interval_graph,
    roberts_upper_bound,
)
from boxagree import fixtures
from boxagree.boxicity import DEFAULT_BUDGET, _at_most, _Budget, _masks

from helpers import (
    complete,
    cycle,
    layered_masks_oracle,
    maximal_interval_masks_oracle,
    minimal_interval_supergraphs_oracle,
    path,
    random_graph,
)


def test_adiga_examples():
    assert adiga_lower_bound(fixtures.k_partite(3)) == 3
    assert adiga_lower_bound(cycle(5)) == 2
    two_edges = Graph(4, [(1, 2), (3, 4)])
    assert adiga_lower_bound(two_edges) == 1


def test_adiga_on_pair_partite_exact():
    for d in range(1, 9):
        assert adiga_lower_bound(fixtures.k_partite(d)) == d


def test_adiga_rejects_universal_vertex():
    with pytest.raises(ValueError):
        adiga_lower_bound(fixtures.load("w4"))


def test_roberts_examples():
    assert roberts_upper_bound(complete(7)) == 0
    assert roberts_upper_bound(fixtures.expected_graph("fig38a")) == 4
    assert roberts_upper_bound(fixtures.k_partite(4)) == 4


def test_decide_five_cycle():
    c5 = cycle(5)
    no1 = decide_boxicity_leq(c5, 1)
    yes2 = decide_boxicity_leq(c5, 2)
    assert no1.status == "no"
    assert yes2.status == "yes"
    assert intersection_graph(yes2.witness) == c5


def test_decide_k_partite_three():
    k32 = fixtures.k_partite(3)
    assert decide_boxicity_leq(k32, 2).status == "no"
    yes3 = decide_boxicity_leq(k32, 3)
    assert yes3.status == "yes"
    assert intersection_graph(yes3.witness) == k32


def test_decide_k_partite_four_no_at_three():
    assert decide_boxicity_leq(fixtures.k_partite(4), 3).status == "no"


def test_decide_fig38_graphs_at_two():
    for name in ("fig38a", "fig38b"):
        g = fixtures.expected_graph(name)
        decision = decide_boxicity_leq(g, 2)
        assert decision.status == "yes"
        assert intersection_graph(decision.witness) == g
        assert decision.witness.dimension == 2


def test_decide_rejects_complete_and_bad_d():
    with pytest.raises(ValueError):
        decide_boxicity_leq(complete(3), 2)
    with pytest.raises(ValueError):
        decide_boxicity_leq(cycle(4), 0)


def test_decide_monotone_in_d():
    rng = Random(30)
    for _ in range(20):
        g = random_graph(rng, max_n=7)
        if g.is_complete():
            continue
        statuses = [decide_boxicity_leq(g, d).status for d in (1, 2, 3)]
        assert "inconclusive" not in statuses
        first_yes = statuses.index("yes") if "yes" in statuses else len(statuses)
        assert all(s == "no" for s in statuses[:first_yes])
        assert all(s == "yes" for s in statuses[first_yes:])


def test_decide_interval_at_one_is_outside_the_exhaustive_budget():
    # 171 non-edges: 2^171 masks would exhaust any budget, but one axis
    # must separate them all, so d = 1 tries the full mask alone
    g = path(20)
    decision = decide_boxicity_leq(g, 1)
    assert decision.status == "yes"
    assert decision.witness.dimension == 1
    assert intersection_graph(decision.witness) == g


def test_witness_has_one_axis_per_axis_graph_the_cover_used():
    # no [0, 1] axes pad the witness up to d, so a huge d costs no more
    # than the cover: at most one axis per non-edge of fig38a
    g = fixtures.expected_graph("fig38a")
    start = perf_counter()
    decision = decide_boxicity_leq(g, 10 ** 9)
    assert perf_counter() - start < 1.0
    assert decision.status == "yes"
    assert decision.witness.dimension == 5
    assert intersection_graph(decision.witness) == g


def test_the_filter_the_decision_and_the_report_agree():
    graphs = []
    for n in range(2, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        graphs += [Graph(n, [p for i, p in enumerate(pairs) if e >> i & 1])
                   for e in range((1 << len(pairs)) - 1)]  # all but the complete graph
    rng = Random(2012)
    for n in range(6, 10):
        for _ in range(4):
            g = Graph(n, [p for p in combinations(range(1, n + 1), 2) if rng.random() < 0.6])
            if not g.is_complete():
                graphs.append(g)
    for g in graphs:
        exact = boxicity_report(g).exact
        for d in range(1, 5):
            yes = decide_boxicity_leq(g, d).status == "yes"
            assert _at_most(g, d) == yes, (g, d)
            if exact is not None:
                assert (exact <= d) == yes, (g, d)
    # a long path is interval: the decision needs no DP at any d, only the
    # one node of the interval test, and its witness has one axis
    for n in (30, 64):
        g = path(n)
        assert boxicity_report(g).exact == 1
        for d in (2, 3):
            decision = decide_boxicity_leq(g, d)
            assert (decision.status, decision.nodes) == ("yes", 1), (n, d)
            assert decision.witness.dimension == 1
            assert intersection_graph(decision.witness) == g
            assert _at_most(g, d)


def test_budget_exhaustion_is_inconclusive():
    g = fixtures.expected_graph("fig38a")
    decision = decide_boxicity_leq(g, 2, budget=10)
    assert decision.status == "inconclusive"
    assert decision.witness is None


def test_negative_budget_is_refused_and_zero_is_inconclusive():
    g = fixtures.load("fig38c")
    with pytest.raises(ValueError, match="need budget >= 0"):
        decide_boxicity_leq(g, 2, budget=-5)
    with pytest.raises(ValueError, match="need budget >= 0"):
        boxicity_report(g, -5)
    decision = decide_boxicity_leq(g, 2, budget=0)
    assert (decision.status, decision.nodes) == ("inconclusive", 0)
    report = boxicity_report(g, 0)
    assert report.exact is None
    assert report.notes == ("budget exhausted in the d = 1 interval test",)


def test_report_path_is_interval():
    rep = boxicity_report(path(3))
    assert rep.exact == 1
    assert intersection_graph(rep.witness) == path(3)


def test_report_complete_graph_is_zero():
    rep = boxicity_report(complete(5))
    assert (rep.lower, rep.upper, rep.exact) == (0, 0, 0)


def test_report_fig38b_exact_two():
    rep = boxicity_report(fixtures.expected_graph("fig38b"))
    assert rep.exact == 2
    assert rep.lower <= 2 <= rep.upper


def test_report_k_partite_four_without_search():
    rep = boxicity_report(fixtures.k_partite(4))
    assert rep.exact == 4
    assert rep.lower == rep.upper == 4
    assert any("without search" in note for note in rep.notes)


def test_report_fig38c_settles_at_three():
    rep = boxicity_report(fixtures.load("fig38c"))
    assert rep.exact == 3
    assert any("no 2-box realization" in note for note in rep.notes)


def test_report_reaches_roberts_bound_after_the_last_cover():
    # the join of the complements of P3, K2 and K2 has boxicity 1 + 1 + 1 =
    # floor(7/2), above the adiga bound 2: once d = 2 fails, the bounds meet
    non_edges = {(1, 2), (2, 3), (4, 5), (6, 7)}
    g = Graph(7, [p for p in combinations(range(1, 8), 2) if p not in non_edges])
    rep = boxicity_report(g)
    assert (rep.lower, rep.upper, rep.exact, rep.witness) == (3, 3, 3, None)
    assert rep.notes == ("adiga lower bound 2", "search exhausted: no 2-box realization",
                         "bounds meet: exact without further search")
    assert (rep.nodes, rep.dp_sets) == (452, 28)
    assert decide_boxicity_leq(g, 3).status == "yes"


def test_report_exact_is_least_yes_decision_random():
    rng = Random(34)
    for _ in range(20):
        g = random_graph(rng, max_n=7)
        if g.is_complete():
            continue
        rep = boxicity_report(g)
        least = next(d for d in range(1, g.n + 1)
                     if decide_boxicity_leq(g, d).status == "yes")
        assert rep.exact == least


def test_report_scans_once_for_every_d():
    # decide(fig38c, 2) spends 1,041 nodes and decide(fig38c, 3) 1,030: 1
    # for the interval test every decision starts with, 1,024 for the DP's
    # transitions (8 vertices: 8 * 2^7) and the rest in the cover; one DP
    # leaves budget for the d = 1 test and both covers, two DPs would not fit
    rep = boxicity_report(fixtures.load("fig38c"), budget=1500)
    assert rep.exact == 3
    assert intersection_graph(rep.witness) == fixtures.load("fig38c")


def test_report_nodes_is_the_budget_it_spent():
    g = fixtures.load("fig38c")
    rep = boxicity_report(g)
    # 1 for the interval test, 8 * 2^7 DP transitions, the rest in covers
    assert rep.nodes > 1 + 8 * 2**7
    assert boxicity_report(g, budget=rep.nodes) == rep
    short = boxicity_report(g, budget=rep.nodes - 1)
    assert short.exact is None and short.nodes < rep.nodes
    assert boxicity_report(complete(5)).nodes == 0


def test_masks_match_oracle_on_every_labelled_graph_up_to_six_vertices():
    for n in range(2, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        least = minimal_interval_supergraphs_oracle(n)
        for e in range(len(least) - 1):  # every graph but the complete one
            g = Graph(n, [p for i, p in enumerate(pairs) if e >> i & 1])
            absent = [i for i in range(len(pairs)) if not e >> i & 1]  # the non-edges
            # an interval supergraph h separates the non-edges it leaves out
            expected = sorted(
                (sum(1 << j for j, i in enumerate(absent) if not h >> i & 1) for h in least[e]),
                reverse=True,
            )
            assert _masks(g, _Budget(DEFAULT_BUDGET))[1] == expected, g


def test_masks_match_scan_oracle_on_fixtures_and_seeded_graphs():
    graphs = [fixtures.expected_graph("fig38a"), fixtures.expected_graph("fig38b"),
              fixtures.load("fig38c"), fixtures.load("w4"),
              intersection_graph(fixtures.load("z5")),
              fixtures.k_partite(3), fixtures.k_partite(4)]
    rng = Random(37)
    seeded = 0
    while seeded < 200:
        n, p = rng.randint(7, 9), rng.uniform(0.7, 0.95)
        g = Graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])
        if 0 < math.comb(n, 2) - g.edge_count() <= 16:
            graphs.append(g)
            seeded += 1
    for g in graphs:
        assert _masks(g, _Budget(DEFAULT_BUDGET))[1] == maximal_interval_masks_oracle(g), g


def test_masks_match_layered_oracle_at_bench_scale():
    # the scan oracle stops near 16 non-edges; the push DP reaches the
    # 10-12 vertex, 10-20 non-edge graphs the decisions meet in practice,
    # and the sparse ones (the 10-cycle, G(10, 0.3)) where few placed sets
    # close at their forced set, so the lazy DP visits most of them
    graphs = [fixtures.load("fig134"), fixtures.k_partite(5), fixtures.k_partite(6),
              fixtures.k_partite(7), cycle(10)]
    rng = Random(2718)
    while len(graphs) < 5 + 40:
        n = rng.randint(10, 12)
        pairs = list(combinations(range(1, n + 1), 2))
        missing = set(rng.sample(pairs, rng.randint(10, 20)))
        graphs.append(Graph(n, [p for p in pairs if p not in missing]))
    graphs += [Graph(10, [p for p in combinations(range(1, 11), 2) if rng.random() < 0.3])
               for _ in range(10)]
    for g in graphs:
        assert _masks(g, _Budget(DEFAULT_BUDGET))[1] == layered_masks_oracle(g), g


def test_dp_evaluates_only_the_placed_sets_the_full_set_asks_for():
    # (graph, d, nonempty placed sets evaluated); the charge stays the worst
    # case, m 2^(m-1) for m non-universal vertices, of 2^m - 1 sets
    cases = [(fixtures.load("fig38c"), 2, 133, 8),
             (fixtures.load("fig134"), 3, 1300, 13),
             (fixtures.k_partite(8), 7, 136, 16)]
    for g, d, dp_sets, m in cases:
        decision = decide_boxicity_leq(g, d)
        assert (decision.status, decision.dp_sets) == ("no", dp_sets), g
        assert decision.nodes > m << m - 1
    # a report runs one DP; k_partite 8 settles without one, at its bounds
    assert [boxicity_report(g).dp_sets for g, _, _, _ in cases] == [133, 1300, 0]
    # 20 vertices: the charge is 20 * 2^19 nodes, but few of the 2^20 sets are built
    decision = decide_boxicity_leq(fixtures.k_partite(10), 9)
    assert decision.status == "no"
    assert decision.dp_sets < 1000
    # past 23 non-universal vertices the charge alone exceeds the default
    # budget; only the interval test's 1 node is spent
    decision = decide_boxicity_leq(fixtures.k_partite(12), 11)
    assert (decision.status, decision.nodes, decision.dp_sets) == ("inconclusive", 1, 0)


def _olariu_added(nbrs, order):
    """The non-edges uv, u before v in `order`, where u has a neighbour w
    after v or outside `order`: u < v < w with uw an edge makes uv one."""
    pos = {v: i for i, v in enumerate(order)}
    return {
        frozenset((u, v))
        for i, u in enumerate(order) for v in order[i + 1:]
        if v not in nbrs[u] and any(pos.get(w, len(order)) > pos[v] for w in nbrs[u])
    }


def _forced(nbrs, placed, open_ends):
    """The non-edges inside `placed` with at least `open_ends` endpoints
    that have a neighbour outside `placed`."""
    open_ = {u for u in placed if not nbrs[u] <= placed}
    return {frozenset((u, v)) for u, v in combinations(sorted(placed), 2)
            if v not in nbrs[u] and len({u, v} & open_) >= open_ends}


def test_every_order_of_a_placed_set_adds_its_forced_set():
    graphs = []
    for n in range(2, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        graphs += [Graph(n, [p for i, p in enumerate(pairs) if e >> i & 1])
                   for e in range(1 << len(pairs))]
    rng = Random(1991)
    for _ in range(8):
        n = rng.randint(6, 7)
        graphs.append(Graph(n, [p for p in combinations(range(1, n + 1), 2)
                                if rng.random() < 0.6]))
    one_open_end_fails = False
    for g in graphs:
        nbrs = {v: g.neighbors(v) for v in range(1, g.n + 1)}
        for k in range(2, g.n + 1):
            for placed in map(set, combinations(nbrs, k)):
                forced, weaker = _forced(nbrs, placed, 2), _forced(nbrs, placed, 1)
                if not weaker:  # forced is inside weaker, so both hold trivially
                    continue
                for order in permutations(sorted(placed)):
                    added = _olariu_added(nbrs, order)
                    assert forced <= added, (g, order)
                    one_open_end_fails |= not weaker <= added
    # the control: one open endpoint is not enough (a u whose neighbours all
    # lie in the placed set need not add uv when it comes first), and the
    # check above is strong enough to see that
    assert one_open_end_fails


def test_fig134_has_boxicity_four():
    g = fixtures.load("fig134")
    # each decision counts the interval test's 1 node before the DP
    no3 = decide_boxicity_leq(g, 3)
    assert (no3.status, no3.nodes) == ("no", 57618)
    assert decide_boxicity_leq(g, 4).nodes == 53256
    rep = boxicity_report(g)
    assert rep.exact == 4
    assert rep.nodes == 57898
    assert rep.witness.dimension == 4
    assert intersection_graph(rep.witness) == g


def test_inconclusive_report_names_the_phase_that_spent_the_budget():
    # fig38c: 1 node for the d = 1 test, 8 * 2^7 = 1,024 DP transitions,
    # 16 nodes in the d = 2 cover and 5 in the d = 3 one
    g = fixtures.load("fig38c")
    assert boxicity_report(g).nodes == 1 + 1024 + 16 + 5
    cases = {
        0: "budget exhausted in the d = 1 interval test",
        500: "budget exhausted in the vertex-order DP, which needs 1,024 nodes",
        1030: "budget exhausted in the cover for d = 2",
        1045: "budget exhausted in the cover for d = 3",
    }
    for budget, note in cases.items():
        rep = boxicity_report(g, budget=budget)
        assert rep.exact is None
        assert rep.notes[-1] == note


def test_report_bounds_sandwich_random():
    rng = Random(31)
    for _ in range(15):
        g = random_graph(rng, max_n=7)
        rep = boxicity_report(g)
        assert rep.lower <= rep.upper
        if rep.exact is not None:
            assert rep.lower <= rep.exact <= rep.upper
            if rep.witness is not None:
                assert intersection_graph(rep.witness) == g


def test_induced_subgraph_monotonicity():
    rng = Random(32)
    for _ in range(12):
        g = random_graph(rng, max_n=7)
        rep = boxicity_report(g)
        if rep.exact is None:
            continue
        labels = sorted(rng.sample(range(1, g.n + 1), rng.randint(1, g.n)))
        sub = g.induced(labels)
        sub_rep = boxicity_report(sub)
        if sub_rep.exact is not None:
            assert sub_rep.exact <= rep.exact


def test_interval_filter_agrees_with_search():
    rng = Random(33)
    for _ in range(25):
        g = random_graph(rng, max_n=6)
        if g.is_complete():
            continue
        assert (decide_boxicity_leq(g, 1).status == "yes") == is_interval_graph(g)


def test_boxicity_two_graphs_get_exact_planar_coordinates():
    g = fixtures.expected_graph("fig38a")
    witness = decide_boxicity_leq(g, 2).witness
    assert witness.n == 8
    assert witness.dimension == 2
