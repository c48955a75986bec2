import json
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from boxagree import (
    Arrangement,
    Box,
    FVector,
    RationalInterval,
    agreement_number,
    agreement_proportion,
    clique_number,
    f_vector,
    intersect_boxes,
    intersection_graph,
    is_agreeable,
)
from boxagree import fixtures
from boxagree.formats import FormatError, parse_arrangement
from boxagree.geometry import _frac, _lt

from helpers import (
    brute_force_depth,
    brute_force_f_vector,
    interval_meet_oracle,
    lower_endpoint_depth,
    pairwise_intersection_graph,
    random_arrangement,
)


# -- intervals and boxes ----------------------------------------------------


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(2), Fraction(1))


def test_degenerate_interval_is_legal():
    point = RationalInterval(Fraction(3), Fraction(3))
    assert point.contains(Fraction(3))
    assert point.intersect(RationalInterval(Fraction(3), Fraction(5))) == point


def test_box_coerces_mixed_rational_inputs():
    b = Box.of([("1/2", 2), (0, "7/3")])
    assert b.sides[0].lo == Fraction(1, 2)
    assert b.sides[1].hi == Fraction(7, 3)
    kept = Fraction(1, 3)
    assert Box.of([(kept, 1)]).sides[0].lo is kept


@pytest.mark.parametrize("endpoint", [0.1, 2.0, True, False])
def test_box_refuses_float_and_bool_endpoints(endpoint):
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        Box.of([(endpoint, 3)])
    with pytest.raises(TypeError):
        RationalInterval(Fraction(0), endpoint)


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
    assert _frac(text) == Fraction(text)
    assert Box.of([(text, text)]).sides[0].lo == Fraction(text)
    arr = parse_arrangement(json.dumps({"dimension": 1, "boxes": [[[text, text]]]}))
    assert arr.box(1).sides[0].hi == Fraction(text)


@pytest.mark.parametrize("text", REFUSED_LITERALS)
def test_rational_literal_outside_the_grammar_is_refused(text):
    with pytest.raises(ValueError):
        _frac(text)
    with pytest.raises(FormatError):
        parse_arrangement(json.dumps({"dimension": 1, "boxes": [[[text, 9]]]}))


def test_rational_literal_with_zero_denominator_is_refused():
    with pytest.raises(ZeroDivisionError):
        _frac("1/0")
    with pytest.raises(FormatError, match="zero denominator"):
        parse_arrangement('{"dimension": 1, "boxes": [[["1/0", 9]]]}')


def test_cross_multiplied_less_than_agrees_with_fraction():
    rng = Random(2203)
    small = [Fraction(p, q) for p in range(-6, 7) for q in range(1, 7)]  # many ties
    for _ in range(3000):
        if rng.random() < 0.5:
            a, b = rng.choice(small), rng.choice(small)
        else:
            big = 10 ** rng.randint(1, 60)
            a = Fraction(rng.randint(-big, big), rng.randint(1, big))
            b = rng.choice((a, Fraction(rng.randint(-big, big), rng.randint(1, big))))
        assert _lt(a, b) == (a < b), (a, b)
        assert _lt(b, a) == (b < a), (a, b)


def test_interval_emptiness_and_intersect_match_fraction_order():
    rng = Random(2204)

    def endpoint():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 4))

    for _ in range(2000):
        lo, hi = endpoint(), endpoint()
        if hi < lo:
            with pytest.raises(ValueError):
                RationalInterval(lo, hi)
            continue
        a = RationalInterval(lo, hi)
        b = RationalInterval(*sorted((endpoint(), endpoint())))
        assert a.intersect(b) == interval_meet_oracle(a, b), (a, b)


def test_intersect_idempotent():
    b = Box.of([(1, 4), (0, 5)])
    assert intersect_boxes(b, b) == b


def test_intersect_z5_boxes_one_two():
    z5 = fixtures.load("z5")
    got = intersect_boxes(z5.box(1), z5.box(2))
    assert got == Box.of([(1, 2), (3, 5)])


def test_intersect_disjoint_boxes():
    a = Box.of([(0, 1), (0, 1)])
    b = Box.of([(2, 3), (2, 3)])
    assert intersect_boxes(a, b) is None


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect_boxes(Box.of([(0, 1)]), Box.of([(0, 1), (0, 1)]))


def test_boundary_touch_counts_as_intersection():
    a = Box.of([(0, 1)])
    b = Box.of([(1, 2)])
    assert intersect_boxes(a, b) == Box.of([(1, 1)])


boxes_2d = st.builds(
    lambda pairs: Box.of([(min(p), max(p)) for p in pairs]),
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


def test_f_vector_is_counted_once_per_arrangement():
    arr = fixtures.load("fig38a")
    assert f_vector(arr) is f_vector(arr)


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
        dropped = Arrangement(arr.dimension, arr.boxes[:i - 1] + arr.boxes[i:])
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
