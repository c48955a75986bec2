from fractions import Fraction

import pytest

from boxagree import (
    Graph,
    MissingEtaError,
    are_isomorphic,
    clique_number,
    confirm_eta,
    default_eta_table,
    enumerate_agreeable,
    eta_upper,
    is_agreeable,
    ProportionResult,
    main_theorem_holds,
    min_agreement_proportion,
    verify_main_theorem,
)
from boxagree import boxicity, decide_boxicity_leq, fixtures, intersection_graph, search
from boxagree.boxicity import BudgetExhausted
from boxagree.graphs import (
    _canonical_labelling,
    _orbit_roots,
    canonical_certificate,
    canonical_form,
)

from helpers import (
    agreeable_classes_oracle,
    all_cliques,
    attachments_oracle,
    cycle,
    levels_oracle,
    post_hoc_levels,
)


# -- enumeration ----------------------------------------------------------------


def test_enumerate_six_two_empty():
    cert = enumerate_agreeable(6, 2)
    assert cert.survivors == ()


def test_enumerate_five_two_is_exactly_the_five_cycle():
    cert = enumerate_agreeable(5, 2)
    assert len(cert.survivors) == 1
    assert are_isomorphic(cert.survivors[0], cycle(5))


def test_enumerate_three_one_empty():
    assert enumerate_agreeable(3, 1).survivors == ()


def test_enumerate_nine_three_empty():
    assert enumerate_agreeable(9, 3).survivors == ()


def test_enumerate_matches_unpruned_oracle():
    for r in (1, 2, 3):
        for n in range(1, 6):
            mine = {
                canonical_certificate(g.n, g._adj)
                for g in enumerate_agreeable(n, r).survivors
            }
            assert mine == agreeable_classes_oracle(n, r), (n, r)


@pytest.mark.parametrize(("n", "r", "count"), [(7, 3, 9), (8, 3, 3), (7, 4, 71), (8, 4, 179)])
def test_enumerate_survivor_counts_beyond_oracle_range(n, r, count):
    # past the brute-force oracle's reach; at r = 3 both the degree cap and
    # the clique cap prune
    assert len(enumerate_agreeable(n, r).survivors) == count


def test_enumerate_level_sizes_and_accounting():
    cert = enumerate_agreeable(13, 4)
    assert cert.level_sizes == (1, 2, 3, 7, 13, 32, 71, 179, 290, 313, 105, 12, 1)
    assert len(cert.survivors) == cert.level_sizes[-1]
    # only degree-admissible attachments are generated, and the root
    # partition settles what it can before a full labelling runs
    assert cert.graphs_examined == 3071
    assert cert.pruning == {"orbit": 855, "not_canonical": 1188}
    assert cert.labellings == 533
    # every attachment examined is pruned by one rule or kept as a class
    assert cert.graphs_examined == sum(cert.pruning.values()) + sum(cert.level_sizes[1:])
    assert enumerate_agreeable(9, 3).level_sizes == (1, 2, 3, 6, 9, 15, 9, 3, 0)


@pytest.mark.parametrize(("n", "r"), [(13, 4), (9, 3), (8, 3), (7, 2), (6, 2), (2, 1)])
def test_levels_match_the_unshortcut_walk(n, r):
    # the same representatives, not only the same class counts
    mine = search._levels(n, r, {"examined": 0, "labellings": 0, "orbit": 0, "not_canonical": 0})
    for k, (level, expected) in enumerate(zip(mine, levels_oracle(n, r), strict=True), start=1):
        assert {adj for adj, _, _ in level} == {adj for adj, _ in expected}, k


@pytest.mark.parametrize(("n", "r"), [(13, 4), (9, 3), (8, 3)])
def test_admissible_cliques_match_the_unshortcut_list(n, r):
    # every parent of the walk: each admissible clique once, and exactly
    # the ones the unshortcut scan keeps
    degree_cap = default_eta_table().entry(r - 1).upper_bound
    parents = 0
    for k, level in enumerate(search._levels(n - 1, r, {}), start=1):
        for adj, _, r_cliques in level:
            deg = [m.bit_count() for m in adj]
            found = list(search._admissible_cliques(
                adj, deg, r_cliques, k - degree_cap, k - max(deg)))
            assert len(found) == len(set(found)), (k, adj)
            assert set(found) == set(attachments_oracle(adj, r, degree_cap)), (k, adj)
            parents += 1
    assert parents == sum(enumerate_agreeable(n - 1, r).level_sizes)


@pytest.mark.parametrize(("n", "r"), [(13, 4), (9, 3), (2, 1)])
def test_levels_carry_their_r_cliques(n, r):
    work = {"examined": 0, "labellings": 0, "orbit": 0, "not_canonical": 0}
    for k, level in enumerate(search._levels(n, r, work), start=1):
        for adj, _, r_cliques in level:
            assert sorted(r_cliques) == sorted(c for c in all_cliques(adj) if c.bit_count() == r)


def test_levels_carry_true_automorphism_orbits():
    # generators inherited as [] by rigid children included
    work = {"examined": 0, "labellings": 0, "orbit": 0, "not_canonical": 0}
    carried = 0
    for k, level in enumerate(search._levels(13, 4, work), start=1):
        for adj, aut, _ in level:
            if aut is None:
                continue
            carried += 1
            fresh = _canonical_labelling(k, adj)[2]
            assert _orbit_roots(k, aut) == _orbit_roots(k, fresh), (k, adj)
    assert carried > 0


def test_levels_create_their_counters():
    # an empty dict is enough, with or without the boxicity filter
    work = {}
    sizes = [len(level) for level in search._levels(8, 4, work, dim=1)]
    assert tuple(sizes) == min_agreement_proportion(4, 1).level_sizes[:8]
    assert set(work) == {"examined", "labellings", "orbit", "not_canonical", "boxicity"}
    assert work["boxicity"] > 0
    work = {}
    sizes = [len(level) for level in search._levels(6, 2, work)]
    assert tuple(sizes) == enumerate_agreeable(6, 2).level_sizes
    assert set(work) == {"examined", "labellings", "orbit", "not_canonical"}


@pytest.mark.parametrize(("r", "d"), [(r, d) for r in (1, 2, 3) for d in (1, 2, 3)] + [(4, 1)])
def test_capped_levels_match_the_post_hoc_filter(r, d):
    # box <= d is hereditary, so filtering inside the walk keeps the same
    # representatives as filtering the unconstrained levels afterwards
    n = default_eta_table().confirmed(r)
    work = {"examined": 0, "labellings": 0, "orbit": 0, "not_canonical": 0, "boxicity": 0}
    sizes = []
    mine = search._levels(n, r, work, d)
    for k, (level, expected) in enumerate(zip(mine, post_hoc_levels(n, r, d), strict=True),
                                           start=1):
        assert {adj for adj, _, _ in level} == expected, k
        sizes.append(len(level))
    examined = work.pop("examined")
    work.pop("labellings")
    assert examined == sum(work.values()) + sum(sizes[1:])


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_min_proportion_matches_the_unshortcut_walk(r):
    ranked = [
        (Fraction(clique_number(g), n), g)
        for n, level in enumerate(levels_oracle(default_eta_table().confirmed(r), r), start=1)
        for g in (Graph.from_masks(n, adj) for adj, _ in level)
    ]
    best = min(prop for prop, _ in ranked)
    expected = sorted((g for prop, g in ranked if prop == best),
                      key=lambda g: (g.n, canonical_form(g)))
    result = min_agreement_proportion(r)
    assert result.value == best
    assert result.minimizers == tuple(expected)


def test_enumerate_survivors_validate_independently():
    for n, r in ((7, 3), (8, 3)):
        for g in enumerate_agreeable(n, r).survivors:
            assert is_agreeable(g, 2, 3)
            assert clique_number(g) <= r
            omega = clique_number(g)
            assert all(d >= n - omega - 1 for d in g.degrees())


def test_enumerate_deterministic():
    a = enumerate_agreeable(6, 3)
    b = enumerate_agreeable(6, 3)
    assert a.survivors == b.survivors
    assert a.graphs_examined == b.graphs_examined


def test_enumerate_missing_eta_entry_named():
    with pytest.raises(MissingEtaError) as err:
        enumerate_agreeable(4, 7)
    assert "eta(6)" in str(err.value)


def test_eight_three_contains_both_extremal_graphs():
    survivors = enumerate_agreeable(8, 3).survivors
    g38a = fixtures.expected_graph("fig38a")
    g38b = fixtures.expected_graph("fig38b")
    assert any(are_isomorphic(g, g38a) for g in survivors)
    assert any(are_isomorphic(g, g38b) for g in survivors)


# -- eta table -------------------------------------------------------------------


def test_eta_upper_values_and_rules():
    value2, cert2 = eta_upper(2)
    assert (value2, cert2.rule, cert2.excluded_n) == (5, "degree", 6)
    value3, cert3 = eta_upper(3)
    assert (value3, cert3.rule, cert3.excluded_n) == (8, "parity", 9)
    value4, cert4 = eta_upper(4)
    assert (value4, cert4.rule) == (13, "degree")
    value5, cert5 = eta_upper(5)
    assert (value5, cert5.rule, cert5.excluded_n) == (18, "parity", 19)


def test_confirm_eta_values():
    assert confirm_eta(1).confirmed == 2
    assert confirm_eta(2).confirmed == 5
    assert confirm_eta(3).confirmed == 8
    assert confirm_eta(4).confirmed == 13


def test_confirm_eta_witnesses_revalidated():
    entry = confirm_eta(3)
    w = entry.witness
    assert w.n == 8 and is_agreeable(w, 2, 3) and clique_number(w) == 3
    entry4 = confirm_eta(4)
    assert entry4.witness.n == 13 and clique_number(entry4.witness) == 4


def test_confirm_eta_out_of_range():
    with pytest.raises(ValueError):
        confirm_eta(5)


def test_confirm_eta_reads_the_one_default_table():
    table = default_eta_table()
    for r in range(1, 5):
        assert confirm_eta(r) is table.entry(r)


def test_eta_upper_reads_the_table_entry():
    table = default_eta_table()
    for r in range(1, 6):
        entry = table.entry(r)
        assert eta_upper(r) == (entry.upper_bound, entry.impossibility)
    with pytest.raises(MissingEtaError, match=r"eta\(6\)"):
        eta_upper(6)


def test_eta_upper_meets_witness_sizes():
    table = default_eta_table()
    for r in range(1, 5):
        entry = table.entry(r)
        assert entry.confirmed == entry.upper_bound == entry.witness.n


def test_eta_dim_conventions():
    table = default_eta_table()
    assert table.eta_dim(1, 0) == 1  # coincident points: complete graph
    assert table.eta_dim(3, 0) == 3
    assert table.eta_dim(2, 1) == 4  # interval societies cap at 2r
    assert table.eta_dim(3, 2) == 8  # dimension-free fallback
    assert table.eta_dim(5, 3) == 18  # upper bound fallback


# -- minimal proportions -----------------------------------------------------------


def test_min_proportion_line():
    result = min_agreement_proportion(2, 1)
    assert result.value == Fraction(1, 2)
    # the 5-cycle is excluded by the interval filter; 2K2 qualifies
    two_edges = Graph(4, [(1, 2), (3, 4)])
    assert any(are_isomorphic(g, two_edges) for g in result.minimizers)
    assert all(not are_isomorphic(g, cycle(5)) for g in result.minimizers)


def test_min_proportion_plane():
    result = min_agreement_proportion(2, 2)
    assert result.value == Fraction(2, 5)
    assert all(are_isomorphic(g, cycle(5)) for g in result.minimizers)


def test_min_proportion_trivial_r():
    result = min_agreement_proportion(1, 1)
    assert result.value == Fraction(1, 2)
    assert any(g.n == 2 and g.edge_count() == 0 for g in result.minimizers)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_min_proportion_interval_levels_end_at_2r(r):
    # eta(r, 1) = 2r, read off the filtered walk rather than assumed
    sizes = min_agreement_proportion(r, 1).level_sizes
    assert len(sizes) == default_eta_table().confirmed(r)
    assert max(n for n, size in enumerate(sizes, start=1) if size) == 2 * r


def test_min_proportion_unconstrained_r2():
    assert min_agreement_proportion(2).value == Fraction(2, 5)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_min_proportion_walk_matches_enumeration_per_n(r):
    # one walk of the levels serves every n; it must find the graphs that
    # enumerate_agreeable finds for each n, in (n, certificate) order
    ranked = [
        (Fraction(clique_number(g), n), g)
        for n in range(1, default_eta_table().confirmed(r) + 1)
        for g in enumerate_agreeable(n, r).survivors
    ]
    best = min(prop for prop, _ in ranked)
    result = min_agreement_proportion(r)
    assert result.value == best
    assert result.minimizers == tuple(g for prop, g in ranked if prop == best)


def test_min_proportion_inconclusive_boxicity_names_the_graph(monkeypatch):
    asked = []

    def inconclusive(g, tracker):
        asked.append(g)
        raise BudgetExhausted(0)

    # at d = 1 the interval test alone decides, so the walk asks at d = 2
    monkeypatch.setattr(boxicity, "_masks", inconclusive)
    with pytest.raises(RuntimeError) as err:
        min_agreement_proportion(3, 2)
    assert len(asked) == 1
    assert repr(asked[0]) in str(err.value)


def test_min_proportion_lets_a_decision_error_through(monkeypatch):
    def broken(g, tracker):
        raise RuntimeError("witness axis order is not a clique order")

    monkeypatch.setattr(boxicity, "_masks", broken)
    with pytest.raises(RuntimeError, match="^witness axis order is not a clique order$"):
        min_agreement_proportion(3, 2)


def test_min_proportion_at_d1_runs_no_exact_decision(monkeypatch):
    def never(g, tracker):
        raise AssertionError(f"boxicity DP on {g!r} asked at d = 1")

    monkeypatch.setattr(boxicity, "_masks", never)
    result = min_agreement_proportion(4, 1)
    assert result.value == Fraction(1, 2)
    assert result.level_sizes == (1, 2, 3, 6, 9, 14, 13, 10, 0, 0, 0, 0, 0)


def test_min_proportion_builds_no_witness(monkeypatch):
    # the walk's filter reads only the cover's yes or no
    def never(g, d, orders):
        raise AssertionError(f"witness for {g!r} built inside the walk")

    monkeypatch.setattr(boxicity, "_build_witness", never)
    assert min_agreement_proportion(3, 2).value == Fraction(3, 8)
    assert min_agreement_proportion(4, 2).value == Fraction(3, 8)
    monkeypatch.undo()
    g38a = fixtures.expected_graph("fig38a")
    witness = decide_boxicity_leq(g38a, 2).witness
    assert witness.dimension == 2 and intersection_graph(witness) == g38a


@pytest.mark.parametrize(("d", "work"), [
    (2, {"examined": 2259, "labellings": 382, "orbit": 601, "not_canonical": 927,
         "boxicity": 227}),
    (3, {"examined": 3071, "labellings": 533, "orbit": 855, "not_canonical": 1188,
         "boxicity": 13}),
])
def test_min_proportion_reports_its_walk(d, work):
    result = min_agreement_proportion(4, d)
    assert result.work == work
    # every attachment examined is pruned by one rule or kept as a class
    pruned = work["orbit"] + work["not_canonical"] + work["boxicity"]
    assert work["examined"] == pruned + sum(result.level_sizes[1:])
    assert ProportionResult(Fraction(1, 5), (), ()).work == {}


def test_min_proportion_desk_scale_limits():
    with pytest.raises(ValueError):
        min_agreement_proportion(5, 2)
    with pytest.raises(ValueError):
        min_agreement_proportion(5)


def test_min_proportion_dimension_cap_coincides_with_unconstrained():
    # at d = floor(eta(r)/2) the boxicity filter is vacuous
    unconstrained = min_agreement_proportion(2)
    capped = min_agreement_proportion(2, 2)  # floor(5/2) = 2
    assert capped.value == unconstrained.value
    assert capped.level_sizes == unconstrained.level_sizes == (1, 2, 2, 3, 1)


def test_verify_main_theorem_small_cases():
    assert verify_main_theorem(1, 1)
    assert verify_main_theorem(1, 2)
    assert verify_main_theorem(1, 3)
    assert verify_main_theorem(2, 2)


def test_verify_main_theorem_plane_omega_three():
    assert verify_main_theorem(2, 3)


def test_main_theorem_holds_rejects_a_value_below_the_bound():
    planar = min_agreement_proportion(2, 2)
    assert main_theorem_holds(planar, 2)
    assert not main_theorem_holds(ProportionResult(Fraction(1, 5), (), ()), 2)
    with pytest.raises(ValueError):
        main_theorem_holds(planar, 0)


def test_min_proportion_matches_theorem_bound():
    for r, d in ((1, 1), (2, 1), (2, 2), (3, 1)):
        assert min_agreement_proportion(r, d).value >= Fraction(1, 2 * d)
