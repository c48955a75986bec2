"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
come; the randomized suites use fixed seeds and at least a thousand cases.
"""

import math
import time
from fractions import Fraction
from functools import wraps
from random import Random

import pytest

import boxagree as ba
from boxagree import bounds, fixtures
from boxagree.verify import PRINTED_TABLE, printed_value_matches

from helpers import (
    agreeable_classes_oracle,
    geometric_triple_property,
    lower_endpoint_depth,
    random_arrangement,
    triple_induced_edge_property,
)


def criterion(num, label):
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL - {label}")
                raise
            print(f"ACCEPTANCE {num} PASS - {label}")

        return wrapper

    return decorate


# -- 1. fixture reproduction ---------------------------------------------------


@criterion(1, "fixture reproduction (z5, fig38a, fig38b, fig134), exact, < 1 s each")
def test_fixture_reproduction():
    t0 = time.perf_counter()
    z5 = fixtures.load("z5")
    g = ba.intersection_graph(z5)
    assert g.edges() == ((1, 2), (1, 3), (2, 5), (3, 4), (4, 5))
    assert set(g.degrees()) == {2}  # the 5-cycle
    assert ba.agreement_number(z5) == 2
    assert ba.agreement_proportion(z5) == Fraction(2, 5)
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    g38a = ba.intersection_graph(fixtures.load("fig38a"))
    assert g38a.edge_count() == 16
    assert set(g38a.degrees()) == {4}
    assert ba.clique_number(g38a) == 3
    assert ba.count_cliques_of_size(g38a, 3) == 8
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    g38b = ba.intersection_graph(fixtures.load("fig38b"))
    assert g38b.edge_count() == 17
    assert max(g38b.degrees()) == 5
    assert ba.clique_number(g38b) == 3
    assert ba.count_cliques_of_size(g38b, 3) == 10
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    g134 = fixtures.load("fig134")
    assert set(g134.degrees()) == {8}
    assert ba.clique_number(g134) == 4
    assert ba.count_cliques_of_size(g134, 4) == 39
    assert Fraction(ba.clique_number(g134), g134.n) == Fraction(4, 13)
    assert time.perf_counter() - t0 < 1.0


# -- 2. eta table ----------------------------------------------------------------


@criterion(2, "eta table 2,5,8,13 with witnesses; eta(5)<=18 by parity; exhaustions empty")
def test_eta_table():
    expected = {1: 2, 2: 5, 3: 8, 4: 13}
    for r, value in expected.items():
        entry = ba.confirm_eta(r)
        assert entry.confirmed == value
        assert entry.witness is not None and entry.witness.n == value
        assert ba.is_agreeable(entry.witness, 2, 3)
        assert ba.clique_number(entry.witness) <= r

    upper5, cert5 = ba.eta_upper(5)
    assert upper5 == 18
    assert cert5.rule == "parity" and cert5.excluded_n == 19

    assert ba.enumerate_agreeable(6, 2).survivors == ()
    t0 = time.perf_counter()
    assert ba.enumerate_agreeable(9, 3).survivors == ()
    assert time.perf_counter() - t0 < 600.0  # well under the 10 minute target


# -- 3. bounds table --------------------------------------------------------------


@criterion(3, "printed bound tables; F(1/2) = (5-sqrt(13))/6; beta values")
def test_bounds_table():
    for d, (main_str, gamma_str) in PRINTED_TABLE.items():
        assert printed_value_matches(float(ba.main_lower_bound(d)), main_str)
        assert printed_value_matches(ba.gamma_lower(d), gamma_str)

    exact = bounds.ROOT_MAP_AT_HALF
    assert (exact.rational, exact.coeff, exact.radicand) == (
        Fraction(5, 6),
        Fraction(-1, 6),
        Fraction(13),
    )
    assert abs(ba.root_map(0.5) - (5 - math.sqrt(13)) / 6) < 1e-12
    assert abs(exact.value() - ba.root_map(0.5)) < 1e-12

    assert abs(ba.beta_convex(2, 3, 1) - (1 - math.sqrt(2 / 3))) < 1e-12
    assert ba.beta_convex(2, 3, 2) == 0.0


# -- 4. boxicity ------------------------------------------------------------------


@criterion(4, "boxicity certificates: fig38a/b at 2, K_3(2) = 3, K_4(2) = 4, adiga exact")
def test_boxicity_certificates():
    for name in ("fig38a", "fig38b"):
        target = fixtures.expected_graph(name)
        decision = ba.decide_boxicity_leq(target, 2)
        assert decision.status == "yes"
        assert ba.intersection_graph(decision.witness) == target  # bit-exact

    k32 = fixtures.k_partite(3)
    assert ba.decide_boxicity_leq(k32, 2).status == "no"  # exhaustive refutation
    yes3 = ba.decide_boxicity_leq(k32, 3)
    assert yes3.status == "yes"
    assert ba.intersection_graph(yes3.witness) == k32

    k42 = fixtures.k_partite(4)
    report = ba.boxicity_report(k42)
    assert report.exact == 4
    assert ba.adiga_lower_bound(k42) == 4 == ba.roberts_upper_bound(k42)
    assert any("without search" in note for note in report.notes)

    for d in range(1, 9):
        assert ba.adiga_lower_bound(fixtures.k_partite(d)) == d


# -- 5. randomized property suites -------------------------------------------------


@criterion(5, "helly depth suite (1000 random arrangements)")
def test_property_helly_depth():
    rng = Random(20090823)
    for _ in range(1000):
        arr = random_arrangement(rng, max_n=10, max_d=4, coord_range=9)
        assert ba.agreement_number(arr) == lower_endpoint_depth(arr)


@criterion(5, "agreeability three-forms suite (1000 random arrangements)")
def test_property_agreeability_forms():
    rng = Random(20090824)
    for _ in range(1000):
        arr = random_arrangement(rng, max_n=9, max_d=3)
        g = ba.intersection_graph(arr)
        form1 = geometric_triple_property(arr)
        form2 = triple_induced_edge_property(g)
        form3 = ba.clique_number(g.complement()) <= 2
        assert form1 == form2 == form3
        if g.n >= 3:
            assert ba.is_agreeable(g, 2, 3) == form1


@criterion(5, "split identity suite (>= 1000 exposed-split checks, all k)")
def test_property_split_identity():
    rng = Random(20090825)
    checks = 0
    while checks < 1000:
        arr = random_arrangement(rng, max_n=8, max_d=3)
        if arr.n < 2:
            continue
        for k in range(1, arr.n):
            assert ba.verify_split_identity(arr, k)
            checks += 1


@criterion(5, "exposure certificate suite (1000 random arrangements)")
def test_property_exposure_certificates():
    rng = Random(20090826)
    for _ in range(1000):
        arr = random_arrangement(rng, max_n=9, max_d=4)
        cert = ba.find_exposed(arr)
        assert ba.validate_exposure(arr, cert)


@criterion(5, "pruned enumeration equals unpruned oracle for n <= 6")
def test_property_pruned_vs_unpruned():
    scanned = 0
    for r in (1, 2, 3, 4):
        for n in range(1, 7):
            oracle = agreeable_classes_oracle(n, r)
            scanned += 1 << math.comb(n, 2)
            mine = {
                ba.canonical_form(g)
                for g in ba.enumerate_agreeable(n, r).survivors
            }
            assert mine == oracle, (n, r)
    assert scanned >= 1000


@criterion(5, "edge sandwich on box-realized fixtures")
def test_property_edge_sandwich():
    cases = []
    for name in ("z5", "fig38a", "fig38b"):
        cases.append((ba.intersection_graph(fixtures.load(name)), 2, Fraction(1, 2)))
    for r in range(2, 9):  # the closed form needs omega >= 2
        # gamma(0) = 1: all 0-boxes coincide, full overlap
        cases.append((ba.intersection_graph(fixtures.two_camps(r)), 1, Fraction(1)))
    for g, d, gamma_prev in cases:
        omega = ba.clique_number(g)
        low = ba.edge_lower_bound(g.n, omega)
        high = ba.e_upper_closed(g.n, omega, d, gamma_prev)
        assert low <= g.edge_count() <= high


# -- 6. main theorem ---------------------------------------------------------------


@criterion(6, "main theorem checks and quadratic-root asymptotics")
def test_main_theorem():
    for r in (1, 2, 3):
        assert ba.verify_main_theorem(1, r)
    assert ba.verify_main_theorem(2, 2)
    assert ba.min_agreement_proportion(2, 1).value == Fraction(1, 2)
    assert ba.min_agreement_proportion(3, 1).value == Fraction(1, 2)
    assert ba.min_agreement_proportion(2, 2).value == Fraction(2, 5)
    n = 10**6
    assert abs(ba.quadratic_min_root(n, 0.5) / n - ba.root_map(0.5)) < 1e-4


# -- 7. humility: out-of-reach values stay out of reach ------------------------------


@criterion(7, "desk-scale limits declared: eta(5); rho(4, 2), rho(4, 3) computed; fig38c attempted")
def test_desk_scale_limits():
    with pytest.raises(ValueError):
        ba.confirm_eta(5)
    table = ba.default_eta_table()
    assert table.entry(5).confirmed is None
    assert table.entry(5).upper_bound == 18

    rho42 = ba.min_agreement_proportion(4, 2)
    assert rho42.value == Fraction(3, 8)
    assert [g.n for g in rho42.minimizers] == [8, 8]
    # the filtered walk's last non-empty level: eta(4, 2) = 10
    assert rho42.level_sizes == (1, 2, 3, 7, 13, 31, 65, 145, 163, 75, 0, 0, 0)
    rho43 = ba.min_agreement_proportion(4, 3)
    assert rho43.value == Fraction(1, 3)
    assert [g.n for g in rho43.minimizers] == [12] * 11
    # eta(4, 3) = 12
    assert rho43.level_sizes[11] == 11 and rho43.level_sizes[12] == 0

    # the open fig38c question is attempted; its outcome is reported, not gated
    report = ba.boxicity_report(fixtures.load("fig38c"))
    print(f"  fig38c boxicity attempt: lower {report.lower}, upper {report.upper}, "
          f"exact {report.exact}")
    assert report.lower >= 2
