import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from boxagree import (
    Arrangement,
    FVector,
    agreement_number,
    agreement_proportion,
    clique_number,
    f_vector,
    intersection_graph,
    is_agreeable,
    split,
)
from boxagree import fixtures, graphs
from boxagree.formats import FormatError, parse_arrangement, serialize_arrangement
from boxagree.geometry import _pair

from helpers import (
    box_specs,
    brute_force_depth,
    brute_force_f_vector,
    intersect_boxes,
    interval_meet_oracle,
    lower_endpoint_depth,
    pair_oracle,
    pairwise_intersection_graph,
    random_arrangement,
    random_rational_specs,
    rational_literal,
    serialize_oracle,
)


# -- intervals and boxes ----------------------------------------------------


def test_degenerate_interval_is_legal():
    arr = Arrangement.of(1, [[(3, 3)], [(3, 5)]])
    assert box_specs(arr.boxes)[0] == ((3, 3),)
    assert split(arr, 2) == ((1,), Arrangement.of(1, [[(3, 3)]]))


def test_box_coerces_mixed_rational_inputs():
    arr = Arrangement.of(2, [[("1/2", 2), (0, "7/3")], [(Fraction(1, 3), 1), (0, 0)]])
    assert box_specs(arr.boxes) == [((Fraction(1, 2), 2), (0, Fraction(7, 3))),
                                    ((Fraction(1, 3), 1), (0, 0))]


# -- rational literals and exact comparison ------------------------------------

# an optional sign, digits, then optionally "/" and digits
ACCEPTED_LITERALS = ["0", "7", "-7", "+7", "007", "1/2", "-3/4", "+10/20", "0/5",
                     "-0/3", "6/3", "00/01", "123456789012345678901234567890/7"]
# the first nine are read by Fraction(str) but lie outside the grammar
REFUSED_LITERALS = ["1.5", "1e3", " 1/2", " 1/2 ", "1_000", "1/2\n", "\u0661",
                    "\u0661/2", "1/\u0662", "1/-2", "1/+2", "/2", "3/", "", "+", "-",
                    "1/2/3", "--1", "+-1", "1 /2", "0x10", "\u00bd"]


@pytest.mark.parametrize("text", ACCEPTED_LITERALS)
def test_rational_literal_reads_as_fraction_does(text):
    assert Fraction(*_pair(text)) == Fraction(text)
    assert box_specs(Arrangement.of(1, [[(text, text)]]).boxes) == [((Fraction(text),) * 2,)]
    arr = parse_arrangement(json.dumps({"dimension": 1, "boxes": [[[text, text]]]}))
    assert arr.boxes[0].sides[0].hi == Fraction(text)


@pytest.mark.parametrize("text", REFUSED_LITERALS)
def test_rational_literal_outside_the_grammar_is_refused(text):
    with pytest.raises(ValueError):
        _pair(text)
    with pytest.raises(FormatError):
        parse_arrangement(json.dumps({"dimension": 1, "boxes": [[[text, 9]]]}))


def test_rational_literal_reader_matches_the_split_and_test_oracle():
    # strings over the grammar's characters and its near misses: both
    # readers accept the same ones, read them alike and refuse the rest
    # with the same exception type
    alphabet = "0123456789" * 2 + "+-/ _.e\n\u0663"
    rng = Random(41)
    accepted = 0
    for _ in range(100_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
        try:
            expected = pair_oracle(text)
        except (ValueError, ZeroDivisionError) as refusal:
            with pytest.raises((ValueError, ZeroDivisionError)) as info:
                _pair(text)
            assert info.type is type(refusal), text
        else:
            assert _pair(text) == expected, text
            accepted += 1
    assert accepted > 10_000


def test_rational_literal_with_zero_denominator_is_refused():
    with pytest.raises(ZeroDivisionError):
        _pair("1/0")
    with pytest.raises(FormatError, match="zero denominator"):
        parse_arrangement('{"dimension": 1, "boxes": [[["1/0", 9]]]}')


@pytest.mark.parametrize("endpoint", [Decimal("1.5"), Decimal(2), None, 2.0, True, [1], 0.1, False])
def test_endpoint_of_another_type_is_refused(endpoint):
    # only int, Fraction and str are read: 0.1 would be stored as
    # 3602879701896397/36028797018963968 (a file's null is pinned with the
    # other parse errors in test_fixtures_formats.py)
    with pytest.raises(TypeError, match="endpoint must be an int, a Fraction or a 'p/q' string"):
        _pair(endpoint)
    with pytest.raises(TypeError, match="coordinates must be integers or 'p/q' strings"):
        Arrangement.of(1, [[(0, endpoint)]])


def test_arrangement_of_and_the_parser_share_one_reader():
    # the same checks and messages, lists or tuples alike
    cases = [(0, [[(0, 1)]]), (1, []), (2, [[(0, 1)]]), (1, [[(0, 1)], [(0, 1, 2)]]),
             (1, [[("1/2", "1/3")]]), (1, [[(0, "1.5")]]), (1, [[("1/0", 1)]])]
    for dimension, specs in cases:
        with pytest.raises(ValueError) as built:
            Arrangement.of(dimension, specs)
        text = json.dumps({"dimension": dimension, "boxes": specs})
        with pytest.raises(FormatError) as parsed:
            parse_arrangement(text)
        assert str(built.value) == str(parsed.value)
    with pytest.raises(TypeError):
        Arrangement(1, Arrangement.of(1, [[(0, 1)]]).boxes)  # no second way in


def test_interval_emptiness_and_intersect_match_fraction_order():
    rng = Random(2204)

    def endpoint():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 4))

    for _ in range(2000):
        lo, hi = endpoint(), endpoint()
        if hi < lo:
            with pytest.raises(ValueError, match="empty side"):
                Arrangement.of(1, [[(lo, hi)]])
            continue
        a, b = (lo, hi), tuple(sorted((endpoint(), endpoint())))
        meet = interval_meet_oracle(a, b)
        # the grid's meet, through the split of a two-box arrangement
        _, got = split(Arrangement.of(1, [[a], [b]]), 1)
        assert got == (None if meet is None else Arrangement.of(1, [[meet]])), (a, b)


# -- the intersect_boxes oracle ------------------------------------------------


def test_intersect_idempotent():
    b = ((1, 4), (0, 5))
    assert intersect_boxes(b, b) == b


def test_intersect_z5_boxes_one_two():
    z5 = fixtures.load("z5")
    boxes = box_specs(z5.boxes)
    assert intersect_boxes(boxes[0], boxes[1]) == ((1, 2), (3, 5))


def test_intersect_disjoint_boxes():
    a = ((0, 1), (0, 1))
    b = ((2, 3), (2, 3))
    assert intersect_boxes(a, b) is None


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect_boxes(((0, 1),), ((0, 1), (0, 1)))


def test_boundary_touch_counts_as_intersection():
    assert intersect_boxes(((0, 1),), ((1, 2),)) == ((1, 1),)


boxes_2d = st.builds(
    lambda pairs: tuple((min(p), max(p)) for p in pairs),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=2, max_size=2),
)


@given(boxes_2d, boxes_2d)
def test_intersect_commutative(a, b):
    assert intersect_boxes(a, b) == intersect_boxes(b, a)


@given(boxes_2d, boxes_2d, boxes_2d)
def test_intersect_associative_where_defined(a, b, c):
    ab = intersect_boxes(a, b)
    bc = intersect_boxes(b, c)
    if ab is not None and bc is not None:
        assert intersect_boxes(ab, c) == intersect_boxes(a, bc)


# -- the integer grid ---------------------------------------------------------


def test_parsed_grid_equals_the_built_one():
    # unreduced literals ("2/4"), signs, zero-width sides and coprime
    # denominators near 10^9: parsing and `Arrangement.of` meet on one grid
    rng = Random(2301)
    unreduced = big = degenerate = 0
    for _ in range(400):
        specs = random_rational_specs(rng)
        literals = [[[rational_literal(rng, lo), rational_literal(rng, hi)] for lo, hi in box]
                    for box in specs]
        text = json.dumps({"dimension": len(specs[0]), "boxes": literals})
        parsed, built = parse_arrangement(text), Arrangement.of(len(specs[0]), specs)
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed._scales == built._scales and parsed._lows == built._lows
        assert repr(parsed) == repr(built)
        assert parsed.boxes == built.boxes
        assert [[(s.lo, s.hi) for s in b.sides] for b in parsed.boxes] == specs
        # the grid's serializer writes what a Fraction one writes
        written = serialize_arrangement(parsed)
        assert written == serialize_oracle(len(specs[0]), specs)
        assert parse_arrangement(written) == parsed
        unreduced += any(isinstance(x, str) and math.gcd(*map(int, x.split("/"))) > 1
                         for box in literals for side in box for x in side)
        big += max(parsed._scales) > 10 ** 9
        degenerate += any(lo == hi for box in specs for lo, hi in box)
    assert unreduced > 100 and big > 100 and degenerate > 100


def test_grid_scale_is_the_least_common_denominator():
    arr = parse_arrangement('{"dimension": 2, "boxes": [[["2/4", "6/4"], [-3, "10/5"]],'
                            ' [["-1/6", "-1/6"], ["+0/7", 1]]]}')
    assert arr._scales == (6, 1)
    assert arr._lows == ((3, -1), (-3, 0)) and arr._highs == ((9, -1), (2, 1))
    assert arr == Arrangement.of(2, [[("1/2", "3/2"), (-3, 2)], [("-1/6", "-1/6"), (0, 1)]])


def test_boxes_are_a_view_built_on_first_read():
    arr = parse_arrangement('{"dimension": 1, "boxes": [[["1/2", 2]], [[0, "2/3"]]]}')
    assert "boxes" not in vars(arr)
    assert intersection_graph(arr).edges() == ((1, 2),)
    assert "boxes" not in vars(arr)
    assert box_specs(arr.boxes)[1] == ((0, Fraction(2, 3)),) and arr.boxes is arr.boxes


def test_grid_equality_tells_arrangements_apart():
    base = Arrangement.of(1, [[(0, "1/2")], [(1, 2)]])
    assert base != Arrangement.of(1, [[(0, "1/3")], [(1, 2)]])
    assert base != Arrangement.of(1, [[(1, 2)], [(0, "1/2")]])
    assert base != Arrangement.of(2, [[(0, "1/2"), (0, 1)], [(1, 2), (0, 1)]])
    assert base == Arrangement.of(1, box_specs(base.boxes))
    assert base == Arrangement.of(1, [[(0, "2/4")], [(1, 2)]])


# -- intersection graphs ----------------------------------------------------


def test_z5_graph_is_five_cycle():
    g = intersection_graph(fixtures.load("z5"))
    assert g.edges() == ((1, 2), (1, 3), (2, 5), (3, 4), (4, 5))
    assert all(g.degree(v) == 2 for v in range(1, 6))


def test_fig38a_graph_matches_registered():
    g = intersection_graph(fixtures.load("fig38a"))
    assert g == fixtures.expected_graph("fig38a")
    assert g.edge_count() == 16
    assert set(g.degrees()) == {4}


def test_single_box_graph():
    g = intersection_graph(Arrangement.of(1, [[(0, 1)]]))
    assert g.n == 1
    assert g.edges() == ()


def _sweep_case(rng: Random) -> Arrangement:
    """Up to 64 boxes in up to 5 dimensions on a coarse grid of mixed
    denominators, so endpoints are shared, and some sides (or whole boxes)
    repeat or have zero width."""
    d, n = rng.randint(1, 5), rng.randint(1, 64)

    def coord() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7)))

    boxes: list[list[tuple[Fraction, Fraction]]] = []
    for _ in range(n):
        if boxes and rng.random() < 0.1:
            boxes.append(list(rng.choice(boxes)))
            continue
        sides = []
        for _ in range(d):
            a = coord()
            b = a if rng.random() < 0.15 else coord()
            sides.append((min(a, b), max(a, b)))
        boxes.append(sides)
    return Arrangement.of(d, boxes)


def test_sweep_matches_pairwise_oracle_random():
    rng = Random(904)
    for _ in range(1000):
        arr = _sweep_case(rng)
        g = intersection_graph(arr)
        assert g._adj == pairwise_intersection_graph(arr)._adj, arr


def test_sweep_touching_and_degenerate_sides():
    arr = Arrangement.of(2, [
        [(0, 1), (0, 1)],
        [(1, 2), (1, 2)],        # touches box 1 at a corner
        [("1/2", "1/2"), (-3, 5)],  # a zero-width slab through box 1
        [("7/3", 3), (0, 2)],    # misses box 2 by 1/3 on the first axis
        [(0, 1), (0, 1)],        # identical to box 1
    ])
    assert intersection_graph(arr).edges() == ((1, 2), (1, 3), (1, 5), (2, 5), (3, 5))


# -- the cached graph ---------------------------------------------------------


def test_graph_is_built_once_per_arrangement():
    arr = fixtures.load("fig38a")
    assert intersection_graph(arr) is intersection_graph(arr)


def test_cached_graph_stays_out_of_equality_hash_and_repr():
    specs = [[(0, 2), (0, 1)], [(1, 3), ("1/2", 4)], [(5, 6), (0, 1)]]
    built, fresh = Arrangement.of(2, specs), Arrangement.of(2, specs)
    before = repr(built)
    intersection_graph(built)
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == before == repr(fresh)
    intersection_graph(fresh)
    assert built == fresh and hash(built) == hash(fresh)


def test_f_vector_is_counted_once_per_arrangement(monkeypatch):
    # every node of a clique traversal asks `_is_clique`, so a second call
    # that asks nothing reads the counts the first one kept on the graph
    calls = []
    real = graphs._is_clique

    def counted(mask, adj):
        calls.append(mask)
        return real(mask, adj)

    monkeypatch.setattr(graphs, "_is_clique", counted)
    arr = parse_arrangement(serialize_arrangement(fixtures.load("fig38a")))  # a fresh one
    first = f_vector(arr)
    assert calls
    calls.clear()
    assert f_vector(arr) == first and calls == []


def test_cached_f_vector_stays_out_of_equality_hash_and_repr():
    specs = [[(0, 2), (0, 1)], [(1, 3), ("1/2", 4)], [(5, 6), (0, 1)]]
    built, fresh = Arrangement.of(2, specs), Arrangement.of(2, specs)
    before = repr(built)
    f_vector(built)
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == before == repr(fresh)
    assert f_vector(fresh) == f_vector(built)
    assert built == fresh and hash(built) == hash(fresh)


def test_dropped_box_graph_is_induced_subgraph():
    rng = Random(905)
    for _ in range(100):
        arr = _sweep_case(rng)
        if arr.n < 2:
            continue
        i = rng.randint(1, arr.n)
        rest = [v for v in range(1, arr.n + 1) if v != i]
        dropped = Arrangement.of(arr.dimension, box_specs(arr.boxes[:i - 1] + arr.boxes[i:]))
        assert intersection_graph(dropped) == intersection_graph(arr).induced(rest)


# -- agreement number and proportion ---------------------------------------


def test_z5_agreement():
    z5 = fixtures.load("z5")
    assert agreement_number(z5) == 2
    assert agreement_proportion(z5) == Fraction(2, 5)


def test_identical_boxes_agreement():
    arr = Arrangement.of(2, [[(0, 2), (0, 2)]] * 6)
    assert agreement_number(arr) == 6
    assert agreement_proportion(arr) == 1
    arr = Arrangement.of(2, [[(0, 2), (0, 2)]] * 30)
    assert agreement_number(arr) == 30
    assert list(f_vector(arr).entries) == [math.comb(30, k + 1) for k in range(30)]


def test_arrangement_invariants_cap_at_64_boxes():
    arr = Arrangement.of(1, [[(0, 1)]] * 65)
    for invariant in (agreement_number, f_vector, intersection_graph):
        with pytest.raises(ValueError, match="vertex count"):
            invariant(arr)


def test_box_cap_is_checked_before_the_sweep_sets_up_rows():
    # n rows of n bits, and their prefix and suffix masks, would take over
    # 100 MB here; the cap is checked first
    arr = Arrangement.of(1, [[(k, k + 1)] for k in range(20_000)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex count must be in 1..64, got 20000"):
            intersection_graph(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_fig38b_agreement_number():
    assert agreement_number(fixtures.load("fig38b")) == 3


def test_fig134_proportion_from_graph():
    g = fixtures.load("fig134")
    assert Fraction(clique_number(g), g.n) == Fraction(4, 13)


# -- f-vectors ---------------------------------------------------------------


def test_z5_f_vector_against_brute_force():
    z5 = fixtures.load("z5")
    assert brute_force_f_vector(z5) == [5, 5, 0, 0, 0]
    assert f_vector(z5).entries == (5, 5, 0, 0, 0)


def test_fig38_f_vectors():
    assert f_vector(fixtures.load("fig38a")).entries[:3] == (8, 16, 8)
    assert f_vector(fixtures.load("fig38b")).entries[:3] == (8, 17, 10)


def test_single_box_f_vector():
    assert f_vector(Arrangement.of(2, [[(0, 1), (0, 1)]])).entries == (1,)


def test_f_vector_monotone_support_enforced():
    with pytest.raises(ValueError):
        FVector((3, 0, 1))
    with pytest.raises(ValueError):
        FVector((3, -1))


def test_f_vector_random_against_brute_force():
    rng = Random(900)
    for _ in range(60):
        arr = random_arrangement(rng, max_n=6, max_d=3)
        assert list(f_vector(arr).entries) == brute_force_f_vector(arr)


# -- invariants ---------------------------------------------------------------


def test_helly_depth_equals_clique_number_random():
    rng = Random(901)
    for _ in range(120):
        arr = random_arrangement(rng, max_n=7, max_d=3)
        assert agreement_number(arr) == lower_endpoint_depth(arr)


def test_lower_endpoint_grid_matches_full_grid():
    rng = Random(902)
    for _ in range(120):
        arr = random_arrangement(rng, max_n=6, max_d=3)
        assert agreement_number(arr) == brute_force_depth(arr)


def test_f1_is_edge_count_and_support_ends_at_omega():
    rng = Random(903)
    for _ in range(80):
        arr = random_arrangement(rng, max_n=7, max_d=2)
        fv = f_vector(arr)
        g = intersection_graph(arr)
        omega = agreement_number(arr)
        assert fv.f(1) == g.edge_count()
        assert fv.f(omega - 1) > 0
        assert fv.f(omega) == 0


def test_agreeability_forms_match_on_fixture():
    z5 = fixtures.load("z5")
    g = intersection_graph(z5)
    assert is_agreeable(g, 2, 3)
    assert clique_number(g.complement()) <= 2
