"""One-shot reproduction suite: re-derives every pinned fixture fact, the
eta table, the boxicity certificates and the bound tables, and reports one
pass/fail line per check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import bounds, fixtures
from .boxicity import adiga_lower_bound, boxicity_report, decide_boxicity_leq, roberts_upper_bound
from .exposure import (
    ExposureCertificate,
    e_upper_closed,
    e_upper_recurrence,
    find_exposed,
    split,
    split_identity_failures,
    validate_exposure,
)
from .geometry import (
    agreement_number,
    agreement_proportion,
    f_vector,
    intersection_graph,
)
from .graphs import (
    Graph,
    clique_number,
    count_cliques_of_size,
    degree_profile,
    is_agreeable,
    strip_universal,
)
from .search import (
    confirm_eta,
    default_eta_table,
    enumerate_agreeable,
    eta_upper,
    main_theorem_holds,
    min_agreement_proportion,
)

#: Printed comparison-table values: d -> (1/(2d) at 1-3 decimals, iterated
#: root map at 2 decimals).  Matching is within one unit in the last printed
#: place, which covers both the rounded and the truncated entries.
PRINTED_TABLE = {
    1: ("0.5", "0.5"),
    2: ("0.25", "0.23"),
    3: ("0.167", "0.11"),
    4: ("0.125", "0.05"),
    5: ("0.1", "0.02"),
}

EXPECTED_ETA = {1: 2, 2: 5, 3: 8, 4: 13}


def printed_value_matches(computed: float, printed: str) -> bool:
    places = len(printed.split(".")[1])
    return abs(computed - float(printed)) < 10.0 ** (-places)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(results: list[CheckResult], name: str, ok: bool, detail: str) -> None:
    results.append(CheckResult(name, bool(ok), detail))


def run_paper_checks() -> list[CheckResult]:
    results: list[CheckResult] = []

    # --- fixture reproduction -------------------------------------------
    z5 = fixtures.load("z5")
    g_z5 = intersection_graph(z5)
    _check(results, "z5 graph", g_z5 == fixtures.expected_graph("z5"),
           f"edges {list(g_z5.edges())}")
    omega_z5, prop_z5 = agreement_number(z5), agreement_proportion(z5)
    _check(results, "z5 agreement", omega_z5 == 2 and prop_z5 == Fraction(2, 5),
           f"omega {omega_z5}, proportion {prop_z5}")
    fz = f_vector(z5)
    _check(results, "z5 f-vector", fz.entries == (5, 5, 0, 0, 0), f"{fz.entries}")

    a38 = fixtures.load("fig38a")
    g38a = intersection_graph(a38)
    p38a = degree_profile(g38a)
    _check(results, "fig38a graph", g38a == fixtures.expected_graph("fig38a"),
           f"16 edges expected, got {g38a.edge_count()}")
    _check(results, "fig38a regular", p38a.min_degree == p38a.max_degree == 4,
           f"degrees {p38a.degrees}")
    omega38a, tri38a = clique_number(g38a), count_cliques_of_size(g38a, 3)
    _check(results, "fig38a omega/triangles", omega38a == 3 and tri38a == 8,
           f"omega {omega38a}, triangles {tri38a}")
    f38a = f_vector(a38)
    _check(results, "fig38a f-vector", f38a.f(1) == 16 and f38a.f(2) == 8,
           f"f1={f38a.f(1)}, f2={f38a.f(2)}")

    b38 = fixtures.load("fig38b")
    g38b = intersection_graph(b38)
    p38b = degree_profile(g38b)
    _check(results, "fig38b graph", g38b == fixtures.expected_graph("fig38b"),
           f"17 edges expected, got {g38b.edge_count()}")
    omega38b, tri38b = clique_number(g38b), count_cliques_of_size(g38b, 3)
    _check(results, "fig38b degrees/omega", p38b.max_degree == 5 and omega38b == 3,
           f"max degree {p38b.max_degree}, omega {omega38b}")
    _check(results, "fig38b triangles", tri38b == 10, f"{tri38b}")
    f38b = f_vector(b38)
    _check(results, "fig38b f-vector", f38b.f(1) == 17 and f38b.f(2) == 10,
           f"f1={f38b.f(1)}, f2={f38b.f(2)}")

    c38 = fixtures.load("fig38c")
    _check(results, "fig38c graph",
           c38.edge_count() == 18 and clique_number(c38) == 3
           and count_cliques_of_size(c38, 3) == 12 and is_agreeable(c38, 2, 3),
           f"18 edges, omega 3, 12 triangles expected")

    g134 = fixtures.load("fig134")
    p134 = degree_profile(g134)
    _check(results, "fig134 shape",
           g134.n == 13 and g134.edge_count() == 52
           and p134.min_degree == p134.max_degree == 8,
           f"n={g134.n}, |E|={g134.edge_count()}, degrees {p134.degrees}")
    omega134, quads134 = clique_number(g134), count_cliques_of_size(g134, 4)
    _check(results, "fig134 cliques",
           omega134 == 4 and quads134 == 39 and is_agreeable(g134, 2, 3),
           f"omega {omega134}, size-4 cliques {quads134}")
    _check(results, "fig134 proportion",
           Fraction(omega134, g134.n) == Fraction(4, 13),
           "4/13")

    w4 = fixtures.load("w4")
    hub_stripped, k = strip_universal(w4)
    four_cycle = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    omega_w4, min_deg_w4 = clique_number(w4), min(w4.degrees())
    _check(results, "w4 wheel",
           is_agreeable(w4, 2, 3) and omega_w4 == 3 and k == 1
           and hub_stripped == four_cycle,
           f"stripped {k}, remainder edges {list(hub_stripped.edges())}")
    slack = w4.n - omega_w4 - 1
    _check(results, "w4 strict degree slack", min_deg_w4 == 3 > slack,
           f"min degree {min_deg_w4} vs n-omega-1 = {slack}")

    for r in (1, 2, 3):
        camp = fixtures.two_camps(r)
        _check(results, f"two_camps {r}",
               agreement_proportion(camp) == Fraction(1, 2)
               and is_agreeable(intersection_graph(camp), 2, 3),
               "proportion 1/2")

    # --- eta table -------------------------------------------------------
    eta_line = []
    ok_eta = True
    for r, expected in EXPECTED_ETA.items():
        entry = confirm_eta(r)
        ok_eta = ok_eta and entry.confirmed == expected
        eta_line.append(f"eta({r})={entry.confirmed} (expected {expected})")
    upper5, cert5 = eta_upper(5)
    ok_eta = ok_eta and upper5 == 18 and cert5.rule == "parity"
    eta_line.append(f"eta(5)<={upper5} via {cert5.rule} at n={cert5.excluded_n}")
    _check(results, "eta table", ok_eta, "; ".join(eta_line))

    empty62 = enumerate_agreeable(6, 2)
    _check(results, "no graphs at n=6, omega<=2", not empty62.survivors,
           f"examined {empty62.graphs_examined}")
    empty93 = enumerate_agreeable(9, 3)
    _check(results, "no graphs at n=9, omega<=3", not empty93.survivors,
           f"examined {empty93.graphs_examined}")

    # --- bound tables ----------------------------------------------------
    rows = []
    ok_table = True
    for d, (main_str, gamma_str) in PRINTED_TABLE.items():
        main = float(bounds.main_lower_bound(d))
        gamma = bounds.gamma_lower(d)
        ok_row = printed_value_matches(main, main_str) and printed_value_matches(
            gamma, gamma_str
        )
        ok_table = ok_table and ok_row
        rows.append(f"d={d}: 1/(2d)={main:.4f} (printed {main_str}), "
                    f"iterated={gamma:.4f} (printed {gamma_str})")
    _check(results, "comparison table", ok_table, " | ".join(rows))

    exact = bounds.ROOT_MAP_AT_HALF
    _check(results, "root map at 1/2",
           exact.rational == Fraction(5, 6) and exact.coeff == Fraction(-1, 6)
           and exact.radicand == 13
           and abs(bounds.root_map(0.5) - exact.value()) < 1e-12
           and abs(exact.value() - (5 - math.sqrt(13)) / 6) < 1e-15,
           f"(5 - sqrt(13))/6 = {exact.value():.6f}")
    beta231 = bounds.beta_convex(2, 3, 1)
    _check(results, "beta(2,3,1)", abs(beta231 - (1 - math.sqrt(2 / 3))) < 1e-12,
           f"{beta231:.6f} vs 1 - sqrt(2/3)")
    _check(results, "beta(2,3,2)", bounds.beta_convex(2, 3, 2) == 0.0, "0 exactly")
    _check(results, "main bound dominates",
           all(float(bounds.main_lower_bound(d)) >= bounds.gamma_lower(d) - 1e-12
               for d in range(1, 21)),
           "1/(2d) >= iterated bound for d = 1..20")

    # --- boxicity --------------------------------------------------------
    d38a = decide_boxicity_leq(fixtures.expected_graph("fig38a"), 2)
    _check(results, "fig38a boxicity 2",
           d38a.status == "yes" and d38a.witness is not None
           and intersection_graph(d38a.witness) == fixtures.expected_graph("fig38a"),
           f"status {d38a.status}")
    d38b = decide_boxicity_leq(fixtures.expected_graph("fig38b"), 2)
    _check(results, "fig38b boxicity 2",
           d38b.status == "yes" and d38b.witness is not None
           and intersection_graph(d38b.witness) == fixtures.expected_graph("fig38b"),
           f"status {d38b.status}")
    k32 = fixtures.k_partite(3)
    no2 = decide_boxicity_leq(k32, 2)
    yes3 = decide_boxicity_leq(k32, 3)
    _check(results, "k_partite 3 boxicity 3",
           no2.status == "no" and yes3.status == "yes"
           and adiga_lower_bound(k32) == 3,
           f"d=2 {no2.status}, d=3 {yes3.status}")
    k42 = fixtures.k_partite(4)
    rep42 = boxicity_report(k42)
    _check(results, "k_partite 4 boxicity 4",
           rep42.exact == 4 and roberts_upper_bound(k42) == 4
           and adiga_lower_bound(k42) == 4,
           f"report exact {rep42.exact}")
    _check(results, "adiga on vertex pairs",
           all(adiga_lower_bound(fixtures.k_partite(d)) == d for d in range(1, 9)),
           "equals d for d = 1..8")
    k7 = Graph(7, [(u, v) for u in range(1, 8) for v in range(u + 1, 8)])
    _check(results, "roberts on K7", roberts_upper_bound(k7) == 0, "box(K_n) = 0")

    # --- exposure and edge bounds ----------------------------------------
    expo = fixtures.load("exposure")
    claimed = ExposureCertificate(1, 2, "lower", Fraction(5, 2))
    _check(results, "exposure figure claim", validate_exposure(expo, claimed),
           "box 1 exposed by {y = 5/2}")
    auto = find_exposed(expo)
    _check(results, "exposure lemma validates", validate_exposure(expo, auto),
           f"box {auto.box_index} by axis {auto.axis} {auto.side} face at "
           f"{auto.coordinate}")
    idx = find_exposed(a38).box_index
    met, _ = split(a38, idx)
    _check(results, "fig38a split degree", len(met) == 4,
           f"{len(met)} present entries at exposed box {idx}")
    ok_split = True
    split_detail = []
    for name, arr in (("z5", z5), ("fig38a", a38), ("fig38b", b38), ("exposure", expo)):
        failures = split_identity_failures(arr)
        ok_split = ok_split and not failures
        split_detail.append(f"{name} k=1..{arr.n - 1}"
                            + (f" fails at k={list(failures)}" if failures else " holds"))
    _check(results, "split identity on fixtures", ok_split, "; ".join(split_detail))

    rec = e_upper_recurrence(8, 3, 2)
    _check(results, "edge recurrence at n=8", rec == 23 and rec >= 17,
           f"bound {rec} >= 17")
    closed = e_upper_closed(8, 3, 2, Fraction(1, 2))
    _check(results, "closed edge bound at n=8", closed == 23, f"bound {closed}")
    sandwich_ok = True
    detail = []
    for name in ("z5", "fig38a", "fig38b"):
        arr = fixtures.load(name)
        g = intersection_graph(arr)
        om = clique_number(g)
        lo = bounds.edge_lower_bound(g.n, om)
        hi = e_upper_closed(g.n, om, 2, Fraction(1, 2))
        sandwich_ok = sandwich_ok and lo <= g.edge_count() <= hi
        detail.append(f"{name}: {lo} <= {g.edge_count()} <= {hi}")
    _check(results, "edge sandwich", sandwich_ok, "; ".join(detail))

    # --- minimal proportions ---------------------------------------------
    lin = min_agreement_proportion(2, 1)
    _check(results, "linear minimum", lin.value == Fraction(1, 2),
           f"rho(2,1) = {lin.value}")
    planar = min_agreement_proportion(2, 2)
    _check(results, "planar minimum", planar.value == Fraction(2, 5),
           f"rho(2,2) = {planar.value}")
    # each walk above serves its main-theorem check too
    _check(results, "main theorem d=1", main_theorem_holds(lin, 1),
           f"rho(2,1) = {lin.value} >= 1/2")
    _check(results, "main theorem d=2", main_theorem_holds(planar, 2),
           f"rho(2,2) = {planar.value} >= 1/4")

    return results


def format_eta_table() -> str:
    table = default_eta_table()
    cells = [f"eta({r}) = {table.confirmed(r)}" for r in range(1, table.top + 1)]
    cells.append(f"eta({table.top + 1}) <= {table.entry(table.top + 1).upper_bound}")
    return "  ".join(cells)


def format_comparison_table(d_max: int = 5) -> str:
    lines = [f"{'d':>3} {'1/(2d)':>10} {'iterated':>10}"]
    for d, main, gamma in bounds.comparison_table(d_max):
        lines.append(f"{d:>3} {float(main):>10.4f} {gamma:>10.4f}")
    return "\n".join(lines)
