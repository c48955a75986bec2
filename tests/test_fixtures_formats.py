from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from boxagree import Arrangement, Graph, intersection_graph, is_agreeable
from boxagree import fixtures
from boxagree.formats import (
    FormatError,
    parse_any,
    parse_arrangement,
    parse_graph,
    serialize_arrangement,
    serialize_graph,
)

from helpers import random_arrangement, random_graph


# -- fixtures --------------------------------------------------------------------


def test_every_arrangement_fixture_matches_registered_graph():
    for name in ("z5", "fig38a", "fig38b", "exposure"):
        arr = fixtures.load(name)
        assert intersection_graph(arr) == fixtures.expected_graph(name)


def test_z5_shape():
    z5 = fixtures.load("z5")
    assert z5.n == 5 and z5.dimension == 2
    assert z5.box(1).sides[0].lo == 1


def test_fig134_construction():
    g = fixtures.load("fig134")
    assert g.n == 13 and g.edge_count() == 52
    assert set(g.degrees()) == {8}


def test_k_partite_generator():
    oct_graph = fixtures.load("k_partite 3")
    assert oct_graph.n == 6 and oct_graph.edge_count() == 12
    assert not oct_graph.has_edge(1, 2)
    assert oct_graph.has_edge(1, 3)
    assert is_agreeable(oct_graph, 2, 3)


def test_two_camps_generator():
    camp = fixtures.load("two_camps 3")
    assert camp.n == 6 and camp.dimension == 1
    g = intersection_graph(camp)
    assert g.edge_count() == 6  # two disjoint triangles
    assert is_agreeable(g, 2, 3)


def test_unknown_fixture_lists_names():
    with pytest.raises(fixtures.UnknownFixtureError) as err:
        fixtures.load("nonsense")
    assert "z5" in str(err.value) and "fig134" in str(err.value)


def test_parametric_fixture_needs_argument():
    with pytest.raises(fixtures.UnknownFixtureError):
        fixtures.load("k_partite")
    with pytest.raises(fixtures.UnknownFixtureError):
        fixtures.load("k_partite x")


def test_graph_fixtures_are_agreeable():
    for name in ("fig38c", "fig134", "w4"):
        assert is_agreeable(fixtures.load(name), 2, 3)


def test_graph_fixtures_are_their_own_expected_graphs():
    static = [name for name, _ in fixtures.names() if name not in ("k_partite", "two_camps")]
    graph_names = [name for name in static if isinstance(fixtures.load(name), Graph)]
    assert sorted(graph_names) == ["fig134", "fig38c", "w4"]
    for name in graph_names + ["k_partite 2", "k_partite 5"]:
        assert fixtures.expected_graph(name) == fixtures.load(name)
    # the edge lists these fixtures were registered with, written out again
    fig38a = [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 7), (2, 8),
              (3, 5), (3, 7), (4, 6), (4, 8), (5, 6), (5, 7), (6, 8), (7, 8)]
    assert fixtures.expected_graph("fig38c") == Graph(8, fig38a + [(1, 2), (6, 7)])
    assert fixtures.expected_graph("w4") == Graph(
        5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5)])
    fig134_complement = Graph(13, [
        (1, 2), (1, 3), (1, 7), (1, 9), (2, 4), (2, 8), (2, 10), (3, 4), (3, 6),
        (3, 12), (4, 5), (4, 11), (5, 7), (5, 9), (5, 12), (6, 8), (6, 9), (6, 10),
        (7, 10), (7, 11), (8, 11), (8, 12), (9, 13), (10, 13), (11, 13), (12, 13)])
    assert fixtures.expected_graph("fig134") == fig134_complement.complement()
    with pytest.raises(fixtures.UnknownFixtureError):
        fixtures.expected_graph("two_camps 2")


# -- arrangement format -------------------------------------------------------------


def test_arrangement_round_trip_fixtures():
    for name in ("z5", "fig38a", "fig38b", "exposure"):
        arr = fixtures.load(name)
        assert parse_arrangement(serialize_arrangement(arr)) == arr


def test_arrangement_rationals_as_strings():
    text = '{"dimension": 1, "boxes": [[["1/2", "7/3"]], [[0, 2]]]}'
    arr = parse_arrangement(text)
    assert arr.box(1).sides[0].lo == Fraction(1, 2)
    assert arr.box(2).sides[0].hi == 2


def test_arrangement_parse_errors():
    with pytest.raises(FormatError):
        parse_arrangement("not json")
    with pytest.raises(FormatError):
        parse_arrangement('{"dimension": 2}')
    with pytest.raises(FormatError):
        parse_arrangement('{"dimension": 2, "boxes": [[[0, 1]]]}')  # wrong arity
    with pytest.raises(FormatError):
        parse_arrangement('{"dimension": 1, "boxes": [[[2, 1]]]}')  # empty side
    with pytest.raises(FormatError):
        parse_arrangement('{"dimension": 1, "boxes": [[[0.5, 1]]]}')  # float
    for flag in ("true", "false"):  # an int to isinstance, written back as a bool
        with pytest.raises(FormatError, match="dimension"):
            parse_arrangement(f'{{"dimension": {flag}, "boxes": [[[0, 1]], [[1, 2]]]}}')


def test_arrangement_round_trip_random():
    rng = Random(60)
    for _ in range(50):
        arr = random_arrangement(rng)
        assert parse_arrangement(serialize_arrangement(arr)) == arr


# -- graph format --------------------------------------------------------------------


def test_graph_round_trip():
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert parse_graph(serialize_graph(g)) == g


def test_graph_round_trip_random():
    rng = Random(61)
    for _ in range(50):
        g = random_graph(rng)
        assert parse_graph(serialize_graph(g)) == g


def test_graph_parse_error_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_graph("n 3\n1 2\n2 2\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        parse_graph("n 3\n1 2\n1 2\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_graph("n 3\n2 1\n")
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_graph("")
    with pytest.raises(FormatError):
        parse_graph("vertices 3\n")


def test_graph_blank_lines_tolerated():
    g = parse_graph("\nn 3\n\n1 2\n\n")
    assert g.edges() == ((1, 2),)


def test_parse_any_sniffs():
    assert isinstance(parse_any('{"dimension": 1, "boxes": [[[0, 1]]]}'), Arrangement)
    assert isinstance(parse_any("n 2\n1 2\n"), Graph)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda p: p[0] < p[1]
                ),
                unique=True,
                max_size=n * (n - 1) // 2,
            ),
        )
    )
)
def test_graph_round_trip_hypothesis(spec):
    n, edges = spec
    g = Graph(n, edges)
    assert parse_graph(serialize_graph(g)) == g
