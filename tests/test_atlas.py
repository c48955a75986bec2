"""The clique, interval and agreeability kernels against networkx, an oracle
this repository did not write, on every graph of its atlas: the 1,252
graphs on 1 to 7 vertices, one per isomorphism class (the atlas's empty
graph on no vertices is left out).  networkx ships the atlas with the
package, so nothing is downloaded; without networkx the module is skipped."""

from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from boxagree import (
    Graph,
    clique_counts,
    clique_number,
    count_cliques_of_size,
    decide_boxicity_leq,
    intersection_graph,
    is_agreeable,
    is_interval_graph,
)
from boxagree.graphs import _interval_model

nx = pytest.importorskip("networkx")


@cache
def atlas() -> tuple:
    """(networkx graph, its clique-size histogram) for every atlas graph
    with a vertex; its vertices 0..n-1 are the library's 1..n."""
    return tuple((h, Counter(len(c) for c in nx.enumerate_all_cliques(h)))
                 for h in nx.graph_atlas_g() if h.number_of_nodes())


def to_graph(h) -> Graph:
    """A fresh library graph, its clique memo empty."""
    return Graph(h.number_of_nodes(), [(u + 1, v + 1) for u, v in h.edges()])


def test_atlas_holds_every_graph_on_up_to_seven_vertices():
    assert len(atlas()) == 1252
    assert Counter(h.number_of_nodes() for h, _ in atlas()) \
        == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_clique_number_and_counts_match_networkx():
    for h, sizes in atlas():
        expected = [sizes[s] for s in range(1, max(sizes) + 1)]
        g = to_graph(h)
        assert clique_number(g) == len(expected), h.edges()
        assert clique_counts(g) == expected, h.edges()


def test_count_cliques_of_size_matches_networkx_on_a_fresh_graph():
    for h, sizes in atlas():
        g = to_graph(h)
        assert [count_cliques_of_size(g, s) for s in range(1, g.n + 1)] \
            == [sizes[s] for s in range(1, g.n + 1)], h.edges()


def test_interval_verdict_matches_chordal_and_asteroidal_triple_free():
    # Lekkerkerker-Boland, through networkx's own two tests
    verdicts = Counter()
    for h, _ in atlas():
        expected = nx.is_chordal(h) and nx.is_at_free(h)
        assert is_interval_graph(to_graph(h)) == expected, h.edges()
        verdicts[expected] += 1
    assert verdicts == {True: 505, False: 747}


def test_interval_model_realizes_every_interval_graph():
    models = 0
    for h, _ in atlas():
        if not (nx.is_chordal(h) and nx.is_at_free(h)):
            continue
        lows, highs = _interval_model(to_graph(h)._adj)
        assert sorted(lows) == list(range(1, len(lows) + 1)), h.edges()
        # each interval starts at its own position, so it names its vertex
        vertex = {interval: v for v, interval in enumerate(zip(lows, highs))}
        model = nx.relabel_nodes(nx.interval_graph(vertex), vertex)
        assert set(map(frozenset, model.edges())) == set(map(frozenset, h.edges())), h.edges()
        models += 1
    assert models == 505


def test_is_agreeable_with_k_2_matches_the_complements_cliques():
    # every m vertices hold an edge exactly when no m are independent
    for h, _ in atlas():
        g = to_graph(h)
        independence = max(len(c) for c in nx.find_cliques(nx.complement(h)))
        for m in range(2, g.n + 2):
            assert is_agreeable(g, 2, m) == (independence < m), (h.edges(), m)


@pytest.mark.parametrize("k, m", [(3, 4), (3, 5), (4, 5)])
def test_is_agreeable_matches_a_subset_scan_of_networkx_cliques(k, m):
    verdicts = Counter()
    for h, _ in atlas():
        cliques = [set(c) for c in nx.enumerate_all_cliques(h) if len(c) == k]
        expected = all(any(c <= set(subset) for c in cliques)
                       for subset in combinations(h.nodes(), m))
        assert is_agreeable(to_graph(h), k, m) == expected, h.edges()
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


def test_every_non_complete_interval_graph_has_boxicity_1():
    checked = 0
    for h, _ in atlas():
        g = to_graph(h)
        if g.is_complete() or not (nx.is_chordal(h) and nx.is_at_free(h)):
            continue
        decision = decide_boxicity_leq(g, 1)
        assert decision.status == "yes", h.edges()
        assert decision.witness.dimension == 1
        assert intersection_graph(decision.witness) == g, h.edges()
        checked += 1
    assert checked == 505 - 7  # the interval graphs less K1..K7
