"""Command-line surface.

Subcommands: analyze, bounds, search-eta, boxicity, verify-paper, fixtures.
Exit codes: 0 success, 1 assertion failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import fixtures, formats, verify
from .boxicity import DEFAULT_BUDGET, BoxicityReport, boxicity_report, decide_boxicity_leq
from .geometry import Arrangement, f_vector, intersection_graph
from .graphs import Graph, clique_number, degree_profile, is_agreeable
from .search import default_eta_table, enumerate_agreeable

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _load_source(source: str, as_arrangement: bool) -> Arrangement | Graph:
    path = Path(source)
    if path.is_file():
        try:
            obj = formats.parse_any(path.read_text())
        except formats.FormatError as exc:
            raise SystemExit(_usage(f"{source}: {exc}"))
    else:
        try:
            obj = fixtures.load(source)
        except fixtures.UnknownFixtureError as exc:
            raise SystemExit(_usage(str(exc)))
    if as_arrangement and not isinstance(obj, Arrangement):
        raise SystemExit(_usage(f"{source} is a graph; no arrangement is available"))
    return obj


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cmd_analyze(args) -> int:
    obj = _load_source(args.source, args.as_arrangement)
    if isinstance(obj, Arrangement):
        g = intersection_graph(obj)
        kind = "arrangement"
    else:
        g = obj
        kind = "graph"
    profile = degree_profile(g)
    omega = clique_number(g)
    agreeable = is_agreeable(g, 2, 3)
    report: dict = {
        "source": args.source,
        "type": kind,
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "agreement_number": omega,
        "agreement_proportion": _frac_str(Fraction(omega, g.n)),
        "agreeable_2_3": agreeable,
        "degree_min": profile.min_degree,
        "degree_max": profile.max_degree,
        "degrees": list(profile.degrees),
    }
    if isinstance(obj, Arrangement):
        report["dimension"] = obj.dimension
        report["f_vector"] = list(f_vector(obj).entries)
    rep = boxicity_report(g, args.boxicity_budget) if args.boxicity else None
    if rep is not None:
        report["boxicity"] = {
            "lower": rep.lower,
            "upper": rep.upper,
            "exact": rep.exact,
            "nodes": rep.nodes,
            "dp_sets": rep.dp_sets,
            "notes": list(rep.notes),
        }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"{args.source}: {kind} on {g.n} vertices")
    if isinstance(obj, Arrangement):
        print(f"dimension: {obj.dimension}")
    print(f"edges ({g.edge_count()}): "
          + " ".join(f"{u}-{v}" for u, v in g.edges()))
    print(f"agreement number: {report['agreement_number']}")
    print(f"agreement proportion: {report['agreement_proportion']}")
    print(f"(2,3)-agreeable: {'yes' if agreeable else 'no'}")
    print(f"degrees: min {profile.min_degree}, max {profile.max_degree}")
    if "f_vector" in report:
        print(f"f-vector: {report['f_vector']}")
    if rep is not None:
        _print_report(rep, "boxicity: ")
    return 0


def _print_report(rep: BoxicityReport, prefix: str = "") -> None:
    exact = rep.exact if rep.exact is not None else "undetermined"
    print(f"{prefix}lower {rep.lower}, upper {rep.upper}, exact {exact} ({rep.nodes} nodes)")
    for note in rep.notes:
        print(f"  - {note}")


def cmd_bounds(args) -> int:
    print(verify.format_comparison_table(args.d_max))
    exact = bounds_mod.ROOT_MAP_AT_HALF
    print(f"root map at 1/2: {exact} = {exact.value():.12f}")
    print(f"beta(2,3,1) = {bounds_mod.beta_convex(2, 3, 1):.12f}")
    print(f"beta(2,3,2) = {bounds_mod.beta_convex(2, 3, 2)}")
    return 0


def cmd_search_eta(args) -> int:
    if args.r is not None:
        table = default_eta_table()
        if not 1 <= args.r <= table.top + 1:
            return _usage(f"eta is only tabulated for r in 1..{table.top + 1}")
        entry = table.entry(args.r)
        if entry.confirmed is not None:
            print(f"eta({args.r}) = {entry.confirmed}")
            print(f"  upper bound rule: {entry.impossibility.detail}")
            print(f"  witness: {entry.witness!r}")
        else:
            print(f"eta({args.r}) <= {entry.upper_bound}")
            print(f"  rule: {entry.impossibility.detail}")
        return 0
    print(verify.format_eta_table())
    for n, r in ((6, 2), (9, 3), (14, 4)):
        cert = enumerate_agreeable(n, r)
        print(f"exhaustion n={n}, omega<={r}: {len(cert.survivors)} graphs "
              f"({cert.graphs_examined} examined, {cert.labellings} labellings)")
    return 0


def cmd_boxicity(args) -> int:
    obj = _load_source(args.source, as_arrangement=False)
    g = intersection_graph(obj) if isinstance(obj, Arrangement) else obj
    if args.decide is not None:
        decision = decide_boxicity_leq(g, args.decide, args.budget)
        print(f"boxicity <= {args.decide}: {decision.status} "
              f"({decision.nodes} nodes)")
        if decision.witness is not None:
            print(formats.serialize_arrangement(decision.witness), end="")
        return 0 if decision.status != "inconclusive" else CHECK_FAILURE
    _print_report(boxicity_report(g, args.budget))
    return 0


def cmd_verify_paper(args) -> int:
    results = verify.run_paper_checks()
    failures = 0
    for res in results:
        mark = "ok  " if res.ok else "FAIL"
        print(f"{mark} {res.name}: {res.detail}")
        failures += 0 if res.ok else 1
    print()
    print("eta table:", verify.format_eta_table())
    print(verify.format_comparison_table())
    print()
    if failures:
        print(f"{failures} of {len(results)} checks failed")
        return CHECK_FAILURE
    print(f"all {len(results)} checks passed")
    return 0


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for name, desc in fixtures.names():
            print(f"{name:12} {desc}")
        return 0
    if not args.name:
        return _usage("fixtures dump needs a name")
    name = " ".join(args.name)
    try:
        obj = fixtures.load(name)
    except fixtures.UnknownFixtureError as exc:
        return _usage(str(exc))
    if isinstance(obj, Arrangement):
        print(formats.serialize_arrangement(obj), end="")
    else:
        print(formats.serialize_graph(obj), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxagree",
        description="Exact analysis of (2,3)-agreeable box societies: "
        "intersection graphs, agreement proportions, boxicity, and the "
        "associated bound tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze an arrangement/graph file or fixture")
    p.add_argument("source", help="path or fixture name")
    p.add_argument("--json", action="store_true", help="structured output")
    p.add_argument("--boxicity", action="store_true", help="include a boxicity report")
    p.add_argument("--boxicity-budget", type=int, default=DEFAULT_BUDGET, metavar="N")
    p.add_argument("--as-arrangement", action="store_true",
                   help="fail unless the source is an arrangement")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="print the bound tables")
    p.add_argument("--d-max", type=int, default=5, metavar="N")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search-eta", help="confirm the eta table by search")
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=cmd_search_eta)

    p = sub.add_parser("boxicity", help="boxicity bounds / exact decision")
    p.add_argument("source", help="graph file or fixture name")
    p.add_argument("--decide", type=int, default=None, metavar="D",
                   help="decide boxicity <= D exactly")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N")
    p.set_defaults(func=cmd_boxicity)

    p = sub.add_parser("verify-paper", help="run the full reproduction suite")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("fixtures", help="list or dump built-in fixtures")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("name", nargs="*", help="fixture name (for dump)")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR
    except (ValueError, formats.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
