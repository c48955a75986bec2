import importlib.util
from fractions import Fraction
from random import Random

import pytest

from boxagree import (
    Arrangement,
    ExposureCertificate,
    intersection_graph,
    e_upper_closed,
    e_upper_recurrence,
    find_exposed,
    split,
    split_identity_failures,
    validate_exposure,
    verify_split_identity,
)
from boxagree import MissingEtaError, fixtures, geometry, verify
from boxagree.formats import parse_arrangement, serialize_arrangement

from helpers import (
    box_specs,
    exposure_oracle,
    random_arrangement,
    random_rational_specs,
    serialize_oracle,
    split_oracle,
)


def test_exposure_figure_claim_validates():
    expo = fixtures.load("exposure")
    claim = ExposureCertificate(1, 2, "lower", Fraction(5, 2))
    assert validate_exposure(expo, claim)


def test_find_exposed_scan_order_on_figure():
    # the lemma's candidate is the axis-1 lower-face extremum: box 3 at x=5/2
    cert = find_exposed(fixtures.load("exposure"))
    assert (cert.box_index, cert.axis, cert.side) == (3, 1, "lower")
    assert cert.coordinate == Fraction(5, 2)


def test_single_box_exposed_by_own_lower_face():
    arr = Arrangement.of(2, [[(1, 2), (3, 4)]])
    cert = find_exposed(arr)
    assert cert == ExposureCertificate(1, 1, "lower", Fraction(1))
    assert validate_exposure(arr, cert)


def test_z5_certificate_validates():
    z5 = fixtures.load("z5")
    assert validate_exposure(z5, find_exposed(z5))


def test_validator_rejects_bogus_certificates():
    z5 = fixtures.load("z5")
    # hyperplane through the middle of the box: not supporting
    assert not validate_exposure(z5, ExposureCertificate(1, 1, "lower", Fraction(2)))
    # wrong face
    assert not validate_exposure(z5, ExposureCertificate(1, 1, "upper", Fraction(1)))
    # sweep-in-from-above reading: the max upper endpoint box need not be exposed
    line = Arrangement.of(1, [[(0, 10)], [(2, 3)]])
    assert not validate_exposure(line, ExposureCertificate(1, 1, "upper", Fraction(10)))
    assert validate_exposure(line, ExposureCertificate(2, 1, "lower", Fraction(2)))


def test_validator_reads_an_int_coordinate():
    # the coordinate field is typed Fraction, but an int reads as p/1 alike
    fig38a = fixtures.load("fig38a")
    for c, ok in ((15, True), (16, False)):
        assert validate_exposure(fig38a, ExposureCertificate(2, 1, "lower", c)) is ok
        assert validate_exposure(fig38a, ExposureCertificate(2, 1, "lower", Fraction(c))) is ok


def test_validator_rejects_a_box_index_out_of_range():
    z5 = fixtures.load("z5")
    for index in (0, 6, -1):
        assert not validate_exposure(z5, ExposureCertificate(index, 1, "lower", Fraction(1)))


def test_split_two_disjoint_boxes():
    arr = Arrangement.of(2, [[(0, 1), (0, 1)], [(2, 3), (2, 3)]])
    assert split(arr, 1) == ((), None)


def test_split_fig38a_at_exposed_box_has_four_pieces():
    a38 = fixtures.load("fig38a")
    idx = find_exposed(a38).box_index
    met, pieces = split(a38, idx)
    assert len(met) == pieces.n == 4 and idx not in met and list(met) == sorted(met)


def test_split_z5_at_box_one():
    met, pieces = split(fixtures.load("z5"), 1)
    assert met == (2, 3)
    assert pieces == Arrangement.of(2, [[(1, 2), (3, 5)], [(3, 4), (4, 5)]])


def test_split_pieces_match_the_intersect_boxes_oracle():
    rng = Random(2302)
    present = absent = 0
    for _ in range(300):
        specs = random_rational_specs(rng)
        arr = Arrangement.of(len(specs[0]), specs)
        if arr.n < 2:
            continue
        for i in range(1, arr.n + 1):
            met, pieces = split(arr, i)
            oracle = {j: b for j, b in split_oracle(arr, i).items() if b is not None}
            assert met == tuple(oracle)
            assert pieces == (Arrangement.of(arr.dimension, list(oracle.values()))
                              if oracle else None)
            present += len(met)
            absent += arr.n - 1 - len(met)
    assert present > 1000 and absent > 1000


def test_split_index_out_of_range():
    with pytest.raises(IndexError):
        split(fixtures.load("z5"), 6)


def test_split_single_box_rejected():
    with pytest.raises(ValueError):
        split(Arrangement.of(1, [[(0, 1)]]), 1)


@pytest.mark.parametrize("specs, swept", [
    # the exposed box (largest lower endpoint) meets others: B and B''
    ([[(0, 2)], [(1, 3)], [(4, 6)], [(5, 7)]], [4, 1]),
    ([[(0, 4), (0, 4)], [(2, 4), (1, 5)], [(3, 5), (3, 5)]], [3, 2]),
    # it meets none, so B'' is empty: B alone
    ([[(0, 2)], [(1, 3)], [(5, 6)]], [3]),
    ([[(0, 1)], [(2, 3)]], [2]),
])
def test_split_identity_sweeps_the_arrangement_and_the_pieces_only(monkeypatch, specs, swept):
    # B' is G - i on the arrangement's cached graph, never swept on its own
    sizes = []
    real_sweep = geometry._sweep

    def counted(arr):
        sizes.append(arr.n)
        return real_sweep(arr)

    monkeypatch.setattr(geometry, "_sweep", counted)
    arr = Arrangement.of(len(specs[0]), specs)
    assert split_identity_failures(arr) == ()
    assert sizes == swept


def test_split_identity_on_z5_all_k():
    z5 = fixtures.load("z5")
    for k in range(1, z5.n):
        assert verify_split_identity(z5, k)


def test_split_identity_trivial_at_top_k():
    arr = Arrangement.of(2, [[(0, 1), (0, 1)], [(2, 3), (2, 3)], [(5, 6), (5, 6)]])
    assert verify_split_identity(arr, arr.n - 1)


def test_split_identity_k_out_of_range():
    z5 = fixtures.load("z5")
    with pytest.raises(ValueError):
        verify_split_identity(z5, 0)
    with pytest.raises(ValueError):
        verify_split_identity(z5, z5.n)


def test_split_identity_randomized():
    rng = Random(40)
    for _ in range(100):
        arr = random_arrangement(rng, max_n=8, max_d=3)
        if arr.n < 2:
            continue
        for k in range(1, arr.n):
            assert verify_split_identity(arr, k)
        assert split_identity_failures(arr) == ()


def test_exposure_certificates_randomized():
    rng = Random(41)
    for _ in range(200):
        arr = random_arrangement(rng, max_n=8, max_d=4)
        assert validate_exposure(arr, find_exposed(arr))


def test_find_exposed_is_the_lemma_candidate():
    # axis 1, lower face, the largest lower endpoint and the least index
    # reaching it; a narrow coordinate range makes zero-width sides and
    # ties common, and some boxes are repeated outright
    rng = Random(42)
    zero_width = repeated = 0
    for _ in range(2000):
        arr = random_arrangement(rng, max_n=7, max_d=3, coord_range=3)
        boxes = list(arr.boxes)
        for _ in range(rng.randint(0, 3)):
            boxes.insert(rng.randint(0, len(boxes)), rng.choice(boxes))
        arr = Arrangement.of(arr.dimension, box_specs(boxes))
        zero_width += any(s.lo == s.hi for b in boxes for s in b.sides)
        repeated += len(set(boxes)) < len(boxes)
        lows = [b.sides[0].lo for b in boxes]
        cert = find_exposed(arr)
        assert cert == ExposureCertificate(lows.index(max(lows)) + 1, 1, "lower", max(lows))
        assert validate_exposure(arr, cert)
    assert zero_width > 1000 and repeated > 1000


def test_find_exposed_matches_a_fraction_oracle_on_rational_coordinates():
    # the largest axis-1 lower endpoint by Fraction order, least index on
    # ties; repeated boxes and shared endpoints make the ties
    rng = Random(2303)
    ties = 0
    for _ in range(1000):
        specs = random_rational_specs(rng, max_n=10, max_d=3)
        arr = Arrangement.of(len(specs[0]), specs)
        lows = [b.sides[0].lo for b in arr.boxes]
        top = max(lows)
        cert = find_exposed(arr)
        assert cert == ExposureCertificate(lows.index(top) + 1, 1, "lower", top)
        assert type(cert.coordinate) is Fraction
        ties += lows.count(top) > 1
    assert ties > 100


def test_validator_matches_a_fraction_oracle_on_rational_coordinates():
    # every box, axis and face, at the face's own coordinate and 1/q to
    # either side of it, q its denominator: the grid's cross-multiplied
    # check and the Fraction definition agree on each
    rng = Random(2701)
    verdicts = [0, 0]
    for _ in range(1000):
        specs = random_rational_specs(rng, max_n=8, max_d=3)
        arr = Arrangement.of(len(specs[0]), specs)
        for i, box in enumerate(specs, start=1):
            for axis, (lo, hi) in enumerate(box, start=1):
                for side, c in (("lower", lo), ("upper", hi)):
                    step = Fraction(1, c.denominator)
                    for coordinate in (c, c - step, c + step):
                        cert = ExposureCertificate(i, axis, side, coordinate)
                        verdict = validate_exposure(arr, cert)
                        assert verdict == exposure_oracle(specs, cert), (specs, cert)
                        verdicts[verdict] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 10000
    # a box that is not exposed, and a coordinate off the face
    line = Arrangement.of(1, [[(0, 10)], [(2, 3)]])
    z5 = fixtures.load("z5")
    for arr, cert in ((line, ExposureCertificate(1, 1, "upper", Fraction(10))),
                      (z5, ExposureCertificate(1, 1, "lower", Fraction(2)))):
        assert not validate_exposure(arr, cert)
        assert not exposure_oracle(box_specs(arr.boxes), cert)


def test_exposure_and_split_identity_build_no_fraction_intervals(monkeypatch):
    # building, parsing, graph, f-vector, exposure, the split, the split
    # identity and the serializer read the grid: none builds the view
    names = ("z5", "fig38a", "fig38b", "exposure")
    texts = [serialize_arrangement(fixtures.load(name)) for name in names]
    rng = Random(2702)
    for _ in range(1000):
        specs = random_rational_specs(rng)
        texts.append(serialize_oracle(len(specs[0]), specs))
    # a fresh copy of the fixtures module builds each fixture with `Arrangement.of`
    spec = importlib.util.spec_from_file_location("boxagree._fixtures_copy", fixtures.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    arrangements = [fresh.load(name) for name in names]
    arrangements += map(parse_arrangement, texts)
    for arr in arrangements:
        intersection_graph(arr)
        geometry.f_vector(arr)
        assert validate_exposure(arr, find_exposed(arr))
        assert parse_arrangement(serialize_arrangement(arr)) == arr
        pieces = []
        if arr.n > 1:  # a split needs two boxes
            pieces = [split(arr, i)[1] for i in range(1, arr.n + 1)]
            assert split_identity_failures(arr) == ()
        for a in [arr, *filter(None, pieces)]:
            assert "boxes" not in vars(a)
    assert arrangements[:4] == [fixtures.load(name) for name in names]
    # nor does a pass of the paper checks read the view, of any arrangement
    views = []
    real_view = geometry.Arrangement.boxes
    monkeypatch.setattr(geometry.Arrangement, "boxes",
                        property(lambda arr: views.append(arr) or real_view.func(arr)))
    assert all(c.ok for c in verify.run_paper_checks())
    assert views == []
    # `repr` is the view's reader
    repr(arrangements[0])
    assert views == [arrangements[0]]


# -- recurrences ---------------------------------------------------------------


def test_recurrence_base_case():
    for r in (2, 3, 4):
        assert e_upper_recurrence(r, r, 2) == r * (r - 1) // 2


def test_recurrence_line_case_uses_point_eta():
    assert e_upper_recurrence(5, 2, 1) == 4  # 1 + 3 * eta(1, 0) with eta(1,0)=1


def test_recurrence_plane_case():
    assert e_upper_recurrence(8, 3, 2) == 23  # 3 + 5 * eta(2,1), eta(2,1)=4
    assert 23 >= fixtures.expected_graph("fig38b").edge_count()


def test_recurrence_missing_entry_is_named():
    with pytest.raises(MissingEtaError) as err:
        e_upper_recurrence(10, 7, 3)  # needs eta(6), not tabulated
    assert "eta(6)" in str(err.value)


def test_recurrence_preconditions():
    with pytest.raises(ValueError):
        e_upper_recurrence(3, 5, 2)
    with pytest.raises(ValueError):
        e_upper_recurrence(5, 2, 0)


def test_closed_form_values():
    assert e_upper_closed(4, 4, 2, 0.5) == 6  # n == r base case
    assert e_upper_closed(5, 2, 2, 0.5) == 7
    assert e_upper_closed(8, 3, 2, Fraction(1, 2)) == 23


def test_closed_form_rejects_bad_gamma():
    with pytest.raises(ValueError):
        e_upper_closed(5, 2, 2, 0.0)
    with pytest.raises(ValueError):
        e_upper_closed(5, 2, 2, -1)
