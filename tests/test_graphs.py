import math
import time
from itertools import combinations, permutations
from random import Random

import pytest

from boxagree import (
    Graph,
    are_isomorphic,
    Arrangement,
    canonical_form,
    clique_counts,
    clique_number,
    count_cliques_of_size,
    degree_profile,
    is_agreeable,
    intersection_graph,
    is_interval_graph,
    strip_universal,
)
from boxagree import fixtures
from boxagree import graphs
from boxagree.graphs import (
    _canonical_labelling,
    _cliques_within,
    _max_clique_size,
    _membership,
    _root_partition,
)

from helpers import (
    automorphism_orbits_oracle,
    clique_counts_oracle,
    clique_order_oracle,
    cliques_oracle,
    complete,
    cycle,
    has_clique_oracle,
    interval_order_oracle,
    is_agreeable_by_clique_number,
    is_agreeable_oracle,
    is_chordal_oracle,
    max_clique_oracle,
    maximal_cliques_oracle,
    path,
    random_chordal_graph,
    random_graph,
    refine_oracle,
    subset_clique_oracle,
    triple_induced_edge_property,
)


# -- construction and basics --------------------------------------------------


def test_rejects_self_loops_and_bad_labels():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(65)


def test_edges_and_degrees():
    g = Graph(4, [(1, 2), (2, 3), (1, 3)])
    assert g.edges() == ((1, 2), (1, 3), (2, 3))
    assert g.degrees() == (2, 2, 2, 0)
    assert g.neighbors(2) == frozenset({1, 3})


def test_complement_involution():
    rng = Random(10)
    for _ in range(30):
        g = random_graph(rng, max_n=9)
        assert g.complement().complement() == g


def test_induced_subgraph_relabels():
    g = Graph(5, [(1, 3), (3, 5), (2, 4)])
    h = g.induced([1, 3, 5])
    assert h.n == 3
    assert h.edges() == ((1, 2), (2, 3))


def _induced_oracle(g: Graph, keep: list[int]) -> Graph:
    """The induced subgraph pair by pair, through `has_edge`."""
    pos = {v: i for i, v in enumerate(keep, start=1)}
    return Graph(len(keep), [(pos[u], pos[v]) for u, v in combinations(keep, 2)
                             if g.has_edge(u, v)])


def test_induced_subgraph_matches_pairwise_oracle():
    # label sets with many runs, single labels, the whole graph and G - i
    rng = Random(12)
    for _ in range(300):
        g = random_graph(rng, max_n=64, p=rng.random())
        k = rng.randint(1, g.n)
        keep = sorted(rng.sample(range(1, g.n + 1), k))
        assert g.induced(reversed(keep)) == _induced_oracle(g, keep)
        i = rng.randint(1, g.n)
        rest = [v for v in range(1, g.n + 1) if v != i]
        if rest:
            assert g.induced(rest) == _induced_oracle(g, rest)


@pytest.mark.parametrize("labels", [[0], [1, 0], [4], [2, 4], [-1, 2]])
def test_induced_rejects_labels_out_of_range(labels):
    # 0 once shifted by a negative count, 4 once indexed past the rows
    with pytest.raises(ValueError, match="out of range 1..3"):
        Graph(3, [(2, 3)]).induced(labels)


def test_vertex_queries_reject_labels_out_of_range():
    g = Graph(3, [(2, 3)])
    for v in (0, 4, -1):
        # 0 once read vertex 3's row, through index -1
        with pytest.raises(ValueError, match="out of range 1..3"):
            g.degree(v)
        with pytest.raises(ValueError, match="out of range 1..3"):
            g.neighbors(v)
        with pytest.raises(ValueError, match="out of range 1..3"):
            g.has_edge(1, v)
        with pytest.raises(ValueError, match="out of range 1..3"):
            g.has_edge(v, 1)
    assert g.degree(3) == 1 and g.neighbors(3) == {2}
    assert g.has_edge(3, 2) and not g.has_edge(1, 3)


# -- cliques ------------------------------------------------------------------


def test_clique_number_examples():
    assert clique_number(complete(6)) == 6
    assert clique_number(cycle(5)) == 2
    assert clique_number(fixtures.load("fig134")) == 4


def test_clique_number_random_against_oracle():
    rng = Random(11)
    for _ in range(60):
        g = random_graph(rng, max_n=8)
        assert clique_number(g) == max_clique_oracle(g)


def test_count_cliques_examples():
    assert count_cliques_of_size(fixtures.load("fig134"), 4) == 39
    assert count_cliques_of_size(fixtures.expected_graph("fig38a"), 3) == 8
    assert count_cliques_of_size(complete(4), 2) == 6


def test_count_cliques_random_against_oracle():
    rng = Random(12)
    for _ in range(40):
        g = random_graph(rng, max_n=8)
        for s in range(1, g.n + 1):
            assert count_cliques_of_size(g, s) == subset_clique_oracle(g, s)


def test_count_cliques_prunes_by_size_on_cocktail_party():
    # K_{2x32} has 3^32 cliques, so a traversal of all of them cannot finish;
    # counting one size must stop at that size
    g = Graph(64, [(u, v) for u in range(1, 65) for v in range(u + 1, 65) if v - u != 32])
    start = time.perf_counter()
    assert count_cliques_of_size(g, 2) == 1984
    assert time.perf_counter() - start < 1.0


def test_max_clique_size_bounds_away_the_other_cliques_of_k64():
    # K_64 has C(64, 32) cliques of 32 vertices, so only a search that stops
    # a branch once it cannot beat the best clique so far can answer
    adj = complete(64)._adj
    start = time.perf_counter()
    assert graphs._max_clique_size(adj, (1 << 32) - 1) == 32
    assert graphs._max_clique_size(adj, (1 << 64) - 1) == 64
    assert time.perf_counter() - start < 1.0


def test_clique_counts_match_per_size_counts_and_oracle_random():
    rng = Random(13)
    for _ in range(60):
        g = random_graph(rng, max_n=9, p=rng.random())
        counts = clique_counts(g)
        assert len(counts) == clique_number(g)
        assert counts == [count_cliques_of_size(g, s) for s in range(1, len(counts) + 1)]
        assert counts == [subset_clique_oracle(g, s) for s in range(1, len(counts) + 1)]


def test_clique_counts_edgeless_complete_and_nested_boxes():
    assert clique_counts(Graph(7)) == [7]
    assert clique_counts(complete(12)) == [math.comb(12, s) for s in range(1, 13)]
    nested = Arrangement.of(2, [[(i, 60 - i), (i, 60 - i)] for i in range(30)])
    assert clique_counts(intersection_graph(nested)) == [math.comb(30, k + 1) for k in range(30)]


def _memo_graphs() -> list[Graph]:
    """Seeded G(n, p) with n <= 20 and every graph fixture, each a fresh
    copy: the fixtures are shared objects that other tests may have warmed."""
    rng = Random(31)
    gs = [random_graph(rng, max_n=20, p=0.8 * rng.random()) for _ in range(24)]
    for name, _ in fixtures.names():
        if name == "k_partite":
            gs += [fixtures.k_partite(d) for d in (1, 2, 5, 10)]
        elif name == "two_camps":
            gs += [intersection_graph(fixtures.two_camps(r)) for r in (1, 4, 10)]
        else:
            obj = fixtures.load(name)
            gs.append(obj if isinstance(obj, Graph) else intersection_graph(obj))
    return [Graph(g.n, g.edges()) for g in gs]


@pytest.mark.parametrize("order", list(permutations(("number", "counts", "by_size"))))
def test_clique_memo_answers_alike_in_every_first_use_order(order):
    for g in _memo_graphs():
        counts = clique_counts_oracle(g)
        omega = len(counts)
        for step in order:
            if step == "number":
                assert clique_number(g) == omega
            elif step == "counts":
                assert clique_counts(g) == counts
            else:
                # cold when it comes first, warm after `clique_counts`
                assert [count_cliques_of_size(g, s) for s in range(1, g.n + 1)] \
                    == counts + [0] * (g.n - omega), g


def test_clique_counts_hands_out_a_fresh_list():
    g = fixtures.k_partite(4)
    counts = clique_counts(g)
    counts[2] = -1
    counts.append(5)
    assert clique_counts(g) == [8, 24, 32, 16]
    assert count_cliques_of_size(g, 3) == 32 and clique_number(g) == 4


def test_warm_graph_is_the_same_value_as_a_cold_one():
    for g in _memo_graphs():
        warm = Graph(g.n, g.edges())
        clique_counts(warm)
        assert warm == g and g == warm
        assert hash(warm) == hash(g) and repr(warm) == repr(g)
        assert len({warm, g}) == 1


def test_graphs_derived_from_a_warm_graph_start_cold():
    rng = Random(37)
    for g in _memo_graphs():
        clique_counts(g)
        keep = sorted(rng.sample(range(1, g.n + 1), rng.randint(1, g.n)))
        for h in (g.complement(), g.induced(keep)):
            assert h._clique_number is None and h._clique_counts is None
            counts = clique_counts_oracle(h)
            assert count_cliques_of_size(h, 1) == h.n
            assert clique_number(h) == len(counts)
            assert clique_counts(h) == counts


def test_count_cliques_of_size_on_a_cold_graph_never_counts_every_size(monkeypatch):
    calls = []
    real = graphs.clique_counts

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "clique_counts", counted)
    # 3^32 cliques: a walk over every size would not finish
    g = fixtures.k_partite(32)
    assert count_cliques_of_size(g, 3) == math.comb(32, 3) * 8
    assert calls == [] and g._clique_counts is None
    small = fixtures.k_partite(5)
    assert [count_cliques_of_size(small, s) for s in range(1, 11)] \
        == [math.comb(5, s) * 2 ** s for s in range(1, 6)] + [0] * 5
    assert calls == [] and small._clique_counts is None


def test_count_cliques_rejects_bad_size():
    with pytest.raises(ValueError):
        count_cliques_of_size(complete(3), 0)
    with pytest.raises(ValueError):
        count_cliques_of_size(complete(3), 4)


def test_cliques_within_matches_subset_oracle():
    # every size window in -1..4, including the empty and inverted ones, on
    # every labelled graph on <= 5 vertices, with and without a hit list
    rng = Random(29)
    for n in range(1, 6):
        full = (1 << n) - 1
        for g in _all_labeled_graphs(n):
            for hit in ((), [rng.randint(1, full) for _ in range(rng.randint(1, 2))]):
                cliques = cliques_oracle(g, hit)
                member = _membership(n, hit)
                for floor in range(-1, 5):
                    for ceiling in range(-1, 5):
                        found = _cliques_within(g._adj, full, floor, ceiling,
                                                member, (1 << len(hit)) - 1)
                        assert len(found) == len(set(found)), (g, hit, floor, ceiling)
                        assert sorted(found) == [
                            c for c in cliques if floor <= c.bit_count() <= ceiling
                        ], (g, hit, floor, ceiling)


# -- agreeability -------------------------------------------------------------


def test_is_agreeable_examples():
    assert is_agreeable(cycle(5), 2, 3)
    assert not is_agreeable(Graph(3), 2, 3)
    two_cliques = Graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert is_agreeable(two_cliques, 2, 3)


def test_is_agreeable_vacuous_and_preconditions():
    assert is_agreeable(Graph(2), 2, 3)  # m > n
    with pytest.raises(ValueError):
        is_agreeable(Graph(4), 1, 3)
    with pytest.raises(ValueError):
        is_agreeable(Graph(4), 3, 2)


def test_is_agreeable_general_km():
    # every 4-subset of K5 minus an edge still holds a triangle
    g = Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)
                  if (u, v) != (1, 2)])
    assert is_agreeable(g, 3, 4)
    assert not is_agreeable(cycle(6), 3, 4)


def test_is_agreeable_k2_matches_subset_scan():
    # every m-subset holds an edge, checked pair by pair
    rng = Random(14)
    for _ in range(60):
        g = random_graph(rng, max_n=9, p=rng.choice((0.3, 0.5, 0.7)))
        for m in range(2, 6):
            brute = all(any(g.has_edge(u, v) for u, v in combinations(subset, 2))
                        for subset in combinations(range(1, g.n + 1), m))
            assert is_agreeable(g, 2, m) == brute, (g, m)


def test_is_agreeable_k3_k4_matches_subset_scan():
    rng = Random(17)
    agreeable = 0
    for _ in range(60):
        g = random_graph(rng, max_n=9, p=rng.choice((0.5, 0.7, 0.9)))
        for k in (3, 4):
            for m in range(k, g.n + 2):
                verdict = is_agreeable(g, k, m)
                assert verdict == is_agreeable_oracle(g, k, m), (g, k, m)
                agreeable += verdict and m <= g.n  # m > n is vacuous
    assert agreeable > 100


def test_agreeable_matches_triple_scan_random():
    rng = Random(13)
    for _ in range(80):
        g = random_graph(rng, max_n=9)
        if g.n < 3:
            continue
        assert is_agreeable(g, 2, 3) == triple_induced_edge_property(g)


def test_is_agreeable_matches_clique_number_forms():
    rng = Random(2205)
    for _ in range(300):
        g = random_graph(rng, max_n=12, p=rng.choice((0.2, 0.5, 0.8, 0.95)))
        for m in range(2, 6):
            for k in range(2, min(m, 3) + 1):
                verdict = is_agreeable(g, k, m)
                assert verdict == is_agreeable_by_clique_number(g, k, m), (g, k, m)


def test_is_agreeable_stops_at_the_first_independent_triple():
    # the complement of C_64 is dense; its clique number is 32
    start = time.perf_counter()
    assert not is_agreeable(cycle(64), 2, 3)
    assert time.perf_counter() - start < 1.0


def test_has_clique_matches_clique_number():
    rng = Random(2206)
    for _ in range(200):
        g = random_graph(rng, max_n=10, p=rng.choice((0.3, 0.6, 0.9)))
        omega = max_clique_oracle(g)
        full = (1 << g.n) - 1
        for target in range(g.n + 2):
            assert (_max_clique_size(g._adj, full, target) >= target) == (target <= omega), \
                (g, target)


# -- universal stripping --------------------------------------------------------


def test_strip_w4():
    stripped, k = strip_universal(fixtures.load("w4"))
    assert k == 1
    assert stripped == Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def test_strip_no_universal_is_identity():
    c5 = cycle(5)
    stripped, k = strip_universal(c5)
    assert (stripped, k) == (c5, 0)


def test_strip_k4_minus_edge():
    g = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])  # non-edge {3,4}
    stripped, k = strip_universal(g)
    assert k == 2
    assert stripped.n == 2 and stripped.edge_count() == 0


def test_strip_complete_rejected():
    with pytest.raises(ValueError):
        strip_universal(complete(4))


def test_strip_drops_omega_by_count_and_proportion():
    rng = Random(14)
    from fractions import Fraction

    checked = 0
    while checked < 40:
        g = random_graph(rng, max_n=8, p=0.7)
        if g.is_complete() or not any(d == g.n - 1 for d in g.degrees()):
            continue
        stripped, k = strip_universal(g)
        assert clique_number(g) - clique_number(stripped) == k
        assert Fraction(clique_number(stripped), stripped.n) < Fraction(
            clique_number(g), g.n
        )
        checked += 1


# -- interval recognition --------------------------------------------------------


def test_interval_examples():
    assert is_interval_graph(path(3))
    assert not is_interval_graph(cycle(4))
    assert not is_chordal_oracle(cycle(4))  # oracle agrees: not even chordal
    assert not is_interval_graph(fixtures.expected_graph("fig38a"))


def _seeded_interval_test_graphs() -> list[Graph]:
    rng = Random(41)
    return [random_graph(rng, max_n=10, p=rng.uniform(0.2, 0.9)) for _ in range(1200)]


def test_interval_order_consecutive():
    for g in [path(4)] + [g for g in _seeded_interval_test_graphs() if is_interval_graph(g)]:
        cliques = graphs._chordal_cliques(g.n, g._adj)
        order = graphs._clique_order(g.n, cliques)
        assert order is not None and sorted(order) == sorted(cliques), g
        # every vertex's cliques occupy consecutive positions
        for v in range(g.n):
            positions = [i for i, cl in enumerate(order) if cl >> v & 1]
            assert positions == list(range(positions[0], positions[-1] + 1)), (g, v)


def test_interval_implies_chordal_random():
    rng = Random(15)
    for _ in range(80):
        g = random_graph(rng, max_n=8)
        if is_interval_graph(g):
            assert is_chordal_oracle(g)


def test_claw_is_interval_but_not_proper():
    claw = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert is_interval_graph(claw)


def test_interval_verdict_matches_order_search_on_every_small_graph():
    for n in range(1, 7):
        for g in _all_labeled_graphs(n):
            assert is_interval_graph(g) == interval_order_oracle(g), g


def test_interval_verdict_matches_order_search_on_seeded_graphs():
    verdicts = []
    for g in _seeded_interval_test_graphs():
        verdicts.append(is_interval_graph(g))
        assert verdicts[-1] == interval_order_oracle(g), g
        assert (graphs._chordal_cliques(g.n, g._adj) is None) == (not is_chordal_oracle(g)), g
        if verdicts[-1]:
            assert graphs._clique_order(g.n, graphs._chordal_cliques(g.n, g._adj)) is not None
    assert 200 < sum(verdicts) < 1000


class _CountedRows(tuple):
    """Adjacency rows that count how often a search reads them."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


def _assert_kernels_match_their_oracles(g: Graph, cliques: list[int] | None):
    """The targeted branch and bound against `has_clique_oracle` at every
    target, and, given cliques, the order search against the one that also
    tracks closed vertices: equal verdicts with equal adjacency reads, equal
    orders, equal Nones."""
    full = (1 << g.n) - 1
    for target in range(g.n + 2):
        new, old = _CountedRows(g._adj), _CountedRows(g._adj)
        assert (_max_clique_size(new, full, target) >= target) \
            == has_clique_oracle(old, full, target), (g, target)
        assert new.reads == old.reads, (g, target)
    if cliques is not None:
        order = graphs._clique_order(g.n, cliques)
        assert order == clique_order_oracle(g.n, cliques), g
        return order is not None


def test_clique_kernels_match_their_oracles_on_every_small_graph():
    # any clique list, not only a chordal graph's: the order search's proof
    # that a left-out vertex has no clique to come does not use chordality
    found = [_assert_kernels_match_their_oracles(g, maximal_cliques_oracle(g))
             for n in range(1, 7) for g in _all_labeled_graphs(n)]
    assert len(found) == 33867 and 0 < found.count(False) < found.count(True)


def test_clique_kernels_match_their_oracles_on_seeded_graphs():
    rng = Random(29)
    found = []
    for i in range(1500):
        if i % 2:
            g = random_chordal_graph(rng)
        else:
            g = random_graph(rng, max_n=14, p=rng.uniform(0.1, 0.95))
        found.append(_assert_kernels_match_their_oracles(g, graphs._chordal_cliques(g.n, g._adj)))
    # chordal graphs with and without a consecutive order, and others
    assert found.count(True) > 800 and found.count(False) > 50 and found.count(None) > 200


def _assert_chordal_cliques(g: Graph) -> bool:
    cliques = graphs._chordal_cliques(g.n, g._adj)
    chordal = is_chordal_oracle(g)
    assert (cliques is not None) == chordal, g
    if chordal:
        assert sorted(cliques) == maximal_cliques_oracle(g), g
    return chordal


def test_chordal_cliques_match_oracles_on_every_small_graph():
    for n in range(1, 7):
        for g in _all_labeled_graphs(n):
            _assert_chordal_cliques(g)


def test_chordal_cliques_match_oracles_on_seeded_graphs():
    rng = Random(43)
    chordal = sum(_assert_chordal_cliques(random_graph(rng, max_n=13, p=rng.uniform(0.1, 0.95)))
                  for _ in range(2000))
    assert 500 < chordal < 1800


def _padded(g: Graph, extra: int) -> Graph:
    return Graph.from_masks(g.n + extra, g._adj + (0,) * extra)


@pytest.mark.parametrize("name, g", [
    ("4-cycle", cycle(4)),
    # a 4-cycle with a pendant hub of 8 leaves: connected, not chordal
    ("4-cycle with hub", Graph(13, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5)]
                               + [(5, leaf) for leaf in range(6, 14)])),
    # three legs of length 2: chordal, the leg ends an asteroidal triple
    ("3-leg spider", Graph(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])),
])
def test_interval_no_is_fast_with_many_isolated_vertices(name, g):
    # every order of the padded graph's cliques fails; the verdict must not
    # try them all
    padded = _padded(g, 40)
    start = time.perf_counter()
    assert not is_interval_graph(padded)
    assert time.perf_counter() - start < 1.0, name


# -- canonical forms ---------------------------------------------------------


def test_canonical_invariant_under_relabeling():
    rng = Random(16)
    for _ in range(40):
        g = random_graph(rng, max_n=8)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        relabeled = Graph(
            g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()]
        )
        assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_separates_non_isomorphic():
    assert canonical_form(fixtures.expected_graph("fig38a")) != canonical_form(
        fixtures.expected_graph("fig38b")
    )
    assert canonical_form(complete(3)) != canonical_form(path(3))


def test_canonical_separates_same_degree_sequence():
    # C6 vs two triangles: both 2-regular on 6 vertices
    two_tri = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not are_isomorphic(cycle(6), two_tri)


def test_canonical_regular_hard_case():
    g134 = fixtures.load("fig134")
    relabeled = Graph(13, [(14 - u, 14 - v) for u, v in g134.edges()])
    assert are_isomorphic(g134, relabeled)


def _all_labeled_graphs(n):
    from itertools import combinations

    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        masks = [0] * n
        for idx, (u, v) in enumerate(pairs):
            if bits >> idx & 1:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        yield Graph.from_masks(n, tuple(masks))


def test_canonical_counts_match_unlabeled_graph_numbers():
    # distinct certificates over all labeled graphs = unlabeled graph counts
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, want in expected.items():
        certs = {canonical_form(g) for g in _all_labeled_graphs(n)}
        assert len(certs) == want


def _generated_orbits(n, generators):
    """Orbits (1-based) of the group the 0-based permutations generate."""
    orbits = set()
    for v in range(n):
        seen = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for gamma in generators:
                if gamma[w] not in seen:
                    seen.add(gamma[w])
                    stack.append(gamma[w])
        orbits.add(frozenset(u + 1 for u in seen))
    return orbits


def _check_generators(g, generators):
    edges = set(g.edges())
    for gamma in generators:
        image = {tuple(sorted((gamma[u - 1] + 1, gamma[v - 1] + 1))) for u, v in edges}
        assert image == edges


def test_labeller_orbits_match_brute_force_small():
    for n in range(1, 6):
        for g in _all_labeled_graphs(n):
            _, _, generators = _canonical_labelling(g.n, g._adj)
            _check_generators(g, generators)
            assert _generated_orbits(n, generators) == automorphism_orbits_oracle(g)


def test_labeller_orbits_match_brute_force_six():
    # brute force over all 720 permutations once per isomorphism class; the
    # other members get those orbits through an isomorphism that is checked
    # edge by edge, so the library's canonical order only proposes it
    first: dict[bytes, tuple] = {}
    for g in _all_labeled_graphs(6):
        cert, order, generators = _canonical_labelling(g.n, g._adj)
        _check_generators(g, generators)
        if cert not in first:
            first[cert] = (g, order, automorphism_orbits_oracle(g))
        rep, rep_order, rep_orbits = first[cert]
        sigma = {u + 1: v + 1 for u, v in zip(rep_order, order)}
        assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in rep.edges()} == set(g.edges())
        expected = {frozenset(sigma[v] for v in orbit) for orbit in rep_orbits}
        assert _generated_orbits(6, generators) == expected
    assert len(first) == 156


def test_labeller_orbits_match_brute_force_seven():
    rng = Random(19)
    for p in (0.3, 0.5, 0.7) * 8:
        g = Graph(7, [(u, v) for u in range(1, 8) for v in range(u + 1, 8) if rng.random() < p])
        _, _, generators = _canonical_labelling(g.n, g._adj)
        _check_generators(g, generators)
        assert _generated_orbits(7, generators) == automorphism_orbits_oracle(g)


@pytest.mark.parametrize("d", [6, 7, 8])
def test_canonical_k_partite_relabelled(d):
    g = fixtures.load(f"k_partite {d}")
    want = canonical_form(g)
    rng = Random(20 + d)
    for _ in range(3):
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        relabeled = Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])
        assert canonical_form(relabeled) == want


def test_labelling_identical_under_the_general_refinement(monkeypatch):
    # the singleton-splitter AND and the skip of cells outside the
    # splitter's reach must not change a certificate, order or generator,
    # nor must handing the labeller a root partition computed beforehand
    rng = Random(31)
    cases = [random_graph(rng, max_n=16, p=rng.choice((0.2, 0.5, 0.8)))
             for _ in range(1000)]
    cases += [fixtures.k_partite(d) for d in range(3, 7)]
    cases += [fixtures.expected_graph(name) for name, _ in fixtures.names()
              if name not in ("k_partite", "two_camps")]
    fast = [_canonical_labelling(g.n, g._adj) for g in cases]
    assert fast == [_canonical_labelling(g.n, g._adj, _root_partition(g.n, g._adj))
                    for g in cases]
    monkeypatch.setattr(graphs, "_refine", refine_oracle)
    general = [_canonical_labelling(g.n, g._adj) for g in cases]
    assert fast == general


def test_interval_counts_match_known_sequence():
    # unlabeled interval graph counts: 1, 2, 4, 10, 27
    expected = {1: 1, 2: 2, 3: 4, 4: 10, 5: 27}
    for n, want in expected.items():
        certs = {
            canonical_form(g)
            for g in _all_labeled_graphs(n)
            if is_interval_graph(g)
        }
        assert len(certs) == want


# -- degree profiles -----------------------------------------------------------


def test_degree_profiles():
    p = degree_profile(fixtures.expected_graph("fig38a"))
    assert p.min_degree == p.max_degree == 4
    assert degree_profile(fixtures.expected_graph("fig38b")).max_degree == 5
    p134 = degree_profile(fixtures.load("fig134"))
    assert p134.min_degree == p134.max_degree == 8


def test_degree_sum_even_random():
    rng = Random(17)
    for _ in range(50):
        g = random_graph(rng)
        assert sum(degree_profile(g).degrees) % 2 == 0


def test_w4_degree_slack_witness():
    w4 = fixtures.load("w4")
    assert min(w4.degrees()) == 3
    assert 3 > w4.n - clique_number(w4) - 1 == 1


def test_degree_lower_bound_lemma_on_agreeable_graphs():
    rng = Random(18)
    seen = 0
    while seen < 60:
        g = random_graph(rng, max_n=9, p=0.75)
        if g.n < 3 or not is_agreeable(g, 2, 3):
            continue
        omega = clique_number(g)
        assert all(d >= g.n - omega - 1 for d in g.degrees())
        assert g.edge_count() * 2 >= g.n * (g.n - omega - 1)
        seen += 1
