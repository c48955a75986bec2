import tracemalloc
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
    assert z5.boxes[0].sides[0].lo == 1


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


def test_k_partite_checks_the_vertex_cap_before_listing_edges():
    assert fixtures.k_partite(32).n == 64
    tracemalloc.start()
    try:
        for d in (33, 300, 10 ** 9):
            with pytest.raises(ValueError, match=f"need 1 <= d <= 32, got {d}"):
                fixtures.load(f"k_partite {d}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ValueError, match="need 1 <= d <= 32, got 0"):
        fixtures.k_partite(0)


def test_two_camps_generator():
    camp = fixtures.load("two_camps 3")
    assert camp.n == 6 and camp.dimension == 1
    g = intersection_graph(camp)
    assert g.edge_count() == 6  # two disjoint triangles
    assert is_agreeable(g, 2, 3)


def test_two_camps_checks_the_vertex_cap_before_building_boxes():
    assert fixtures.two_camps(32).n == 64
    tracemalloc.start()
    try:
        for r in (33, 300, 10 ** 9):
            with pytest.raises(ValueError, match=f"need 1 <= r <= 32, got {r}"):
                fixtures.load(f"two_camps {r}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ValueError, match="need 1 <= r <= 32, got 0"):
        fixtures.two_camps(0)


def test_unknown_fixture_lists_names():
    with pytest.raises(fixtures.UnknownFixtureError) as err:
        fixtures.load("nonsense")
    assert "z5" in str(err.value) and "fig134" in str(err.value)


def test_parametric_fixture_needs_argument():
    with pytest.raises(fixtures.UnknownFixtureError):
        fixtures.load("k_partite")
    with pytest.raises(fixtures.UnknownFixtureError):
        fixtures.load("k_partite x")


def test_fixture_parameter_is_ascii_digits_alone():
    # `int` would read "1_0" as 10, and a fullwidth or signed 3 as 3
    for arg in ("1_0", "\uff13", "+3"):
        with pytest.raises(fixtures.UnknownFixtureError, match="takes an integer argument"):
            fixtures.load(f"k_partite {arg}")
    assert fixtures.load("k_partite 03") == fixtures.k_partite(3)


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
    assert arr.boxes[0].sides[0].lo == Fraction(1, 2)
    assert arr.boxes[1].sides[0].hi == 2


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


LITERAL = "is not a rational literal: an optional sign and digits, then optionally '/' and digits"


@pytest.mark.parametrize("text, message", [
    ("not json", "line 1: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{\n"dimension": 1,\n', "line 3: invalid JSON: Expecting property name enclosed"
                             " in double quotes: line 3 column 1 (char 18)"),
    ("[]", "arrangement file must be a JSON object"),
    ('"x"', "arrangement file must be a JSON object"),
    ('{"dimension": 2}', "arrangement file needs 'dimension' and 'boxes' keys"),
    ('{"boxes": []}', "arrangement file needs 'dimension' and 'boxes' keys"),
    ('{"dimension": true, "boxes": [[[0, 1]]]}', "'dimension' must be a positive integer, got True"),
    ('{"dimension": 0, "boxes": [[[0, 1]]]}', "'dimension' must be a positive integer, got 0"),
    ('{"dimension": "2", "boxes": [[[0, 1]]]}', "'dimension' must be a positive integer, got '2'"),
    ('{"dimension": 1.0, "boxes": [[[0, 1]]]}', "'dimension' must be a positive integer, got 1.0"),
    ('{"dimension": 1, "boxes": {}}', "'boxes' must be a non-empty list"),
    ('{"dimension": 1, "boxes": "ab"}', "'boxes' must be a non-empty list"),
    ('{"dimension": 1, "boxes": []}', "'boxes' must be a non-empty list"),
    ('{"dimension": 2, "boxes": [[[0, 1]]]}', "box 1 must list exactly 2 [lo, hi] pairs"),
    ('{"dimension": 1, "boxes": [{"a": 1}]}', "box 1 must list exactly 1 [lo, hi] pairs"),
    ('{"dimension": 1, "boxes": [[[0, 1]], [[0, 1], [0, 1]]]}',
     "box 2 must list exactly 1 [lo, hi] pairs"),
    ('{"dimension": 1, "boxes": [[[0, 1]], "x"]}', "box 2 must list exactly 1 [lo, hi] pairs"),
    ('{"dimension": 1, "boxes": [[{"a": 0, "b": 1}]]}', "box 1: each side must be a [lo, hi] pair"),
    ('{"dimension": 1, "boxes": [[[0, 1, 2]]]}', "box 1: each side must be a [lo, hi] pair"),
    ('{"dimension": 1, "boxes": [["ab"]]}', "box 1: each side must be a [lo, hi] pair"),
    ('{"dimension": 1, "boxes": [[[0, 1]], [[[0, 1]]]]}', "box 2: each side must be a [lo, hi] pair"),
    ('{"dimension": 2, "boxes": [[[2, 1], [0]]]}', "box 1: empty side [2, 1]"),
    ('{"dimension": 2, "boxes": [[[0, 1], [0]]]}', "box 1: each side must be a [lo, hi] pair"),
    ('{"dimension": 1, "boxes": [[[0.5, 1]]]}', "coordinates must be integers or 'p/q' strings, got 0.5"),
    ('{"dimension": 1, "boxes": [[[0, 1.0]]]}', "coordinates must be integers or 'p/q' strings, got 1.0"),
    ('{"dimension": 1, "boxes": [[[true, 1]]]}', "coordinates must be integers or 'p/q' strings, got True"),
    ('{"dimension": 1, "boxes": [[[null, 1]]]}', "coordinates must be integers or 'p/q' strings, got None"),
    ('{"dimension": 1, "boxes": [[[[0], 1]]]}', "coordinates must be integers or 'p/q' strings, got [0]"),
    ('{"dimension": 1, "boxes": [[["1.5", 2]]]}', f"bad rational: '1.5' {LITERAL}"),
    ('{"dimension": 1, "boxes": [[[5, "x"]]]}', f"bad rational: 'x' {LITERAL}"),
    ('{"dimension": 1, "boxes": [[["", 2]]]}', f"bad rational: '' {LITERAL}"),
    ('{"dimension": 1, "boxes": [[[0, "1/0"]]]}', "bad rational '1/0': zero denominator"),
    ('{"dimension": 1, "boxes": [[["1/0", "x"]]]}', "bad rational '1/0': zero denominator"),
    ('{"dimension": 1, "boxes": [[[2, 1]]]}', "box 1: empty side [2, 1]"),
    ('{"dimension": 2, "boxes": [[[0, 1], [0, 1]], [[0, 1], ["1/2", "1/3"]]]}',
     "box 2: empty side [1/2, 1/3]"),
    ('{"dimension": 1, "boxes": [[["4/6", "-2/3"]]]}', "box 1: empty side [2/3, -2/3]"),
])
def test_arrangement_format_error_messages(text, message):
    # each check, in the order it runs; only a JSON error carries a line
    with pytest.raises(FormatError) as err:
        parse_arrangement(text)
    assert str(err.value) == message
    assert err.value.line == (int(message.split(":")[0][5:]) if message.startswith("line ")
                              else None)


def test_arrangement_dimension_is_checked_against_box_1_before_any_setup():
    # a large 'dimension' with a short box is refused with memory kept to the
    # input's size; nothing is set up per axis before box 1 matches it
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="box 1 must list exactly 1000000 "):
            parse_arrangement('{"dimension": 1000000, "boxes": [[]]}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    with pytest.raises(FormatError, match="box 1 must list exactly"):
        parse_arrangement('{"dimension": 1000000000000, "boxes": [[[0, 1]]]}')
    with pytest.raises(FormatError, match="box 1 must list exactly"):
        parse_arrangement('{"dimension": 1000000000000, "boxes": ["x"]}')

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


@pytest.mark.parametrize("text, line", [
    ("n 3\n1 1_0\n", 2),       # int() reads "1_0" as 10
    ("n 3\n+1 2\n", 2),
    ("n 3\n1 \u0662\n", 2),   # an Arabic-Indic 2
    ("n 3\n-1 2\n", 2),
    ("n +3\n1 2\n", 1),
    ("n \u0663\n1 2\n", 1),
    ("n 1_0\n1 2\n", 1),
])
def test_graph_counts_and_labels_are_ascii_digits(text, line):
    with pytest.raises(FormatError) as err:
        parse_graph(text)
    assert err.value.line == line


@pytest.mark.parametrize("count", [0, 65, 10 ** 20])
def test_graph_vertex_count_out_of_range_is_a_format_error(count):
    with pytest.raises(FormatError, match=f"vertex count must be in 1..64, got {count}") as err:
        parse_graph(f"\nn {count}\n")
    assert err.value.line == 2
    assert parse_graph("n 64\n1 64\n").edges() == ((1, 64),)


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
