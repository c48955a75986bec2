"""The benchmark's four workloads: seeded input generators, job lists and
correctness checks.

Each workload is built in two steps.  The constructor generates the inputs
from the seed with stdlib `random` alone, before the library is imported;
`texts()` gives them in the library's file formats, which is all the library
receives.  `jobs(lib, parsed)` then turns the parsed inputs into a fixed
list of closed-loop jobs.  A job returns its
output; `check` compares that output with references computed by the
benchmark's own code (see `oracle`), outside the timed interval, and
`counters` picks out the work counts that must repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle
from tracing import PRUNING_RULES


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right
    counters: Callable[[Any], dict] = lambda out: {}


def _first_error(*pairs) -> str | None:
    for ok, message in pairs:
        if not ok:
            return message
    return None


def _graph_text(n: int, edges) -> str:
    return "\n".join([f"n {n}"] + [f"{u} {v}" for u, v in sorted(edges)]) + "\n"


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def texts(self) -> list[str]:
        """Generated inputs in the library's file formats, parsed at set-up."""
        return []

    def jobs(self, lib, parsed: list) -> list[Job]:
        raise NotImplementedError

    def cross_check(self, outputs: list) -> list[str]:
        """Checks that span several jobs of one pass; one message per failure."""
        return []

    def notes(self, counters: dict) -> list[str]:
        """Lines to print about the first pass's work counters."""
        return []


# ---------------------------------------------------------------------------
# societies
# ---------------------------------------------------------------------------

# (kind, d, n) per pass.  Two-hub societies make the f-vector's subset walk
# large (two cliques of about n/2 boxes); sparse ones make the n^d depth grid
# large while their graphs stay small.  Jobs come in groups of similar cost
# (about 40, 120, 150-200, 290, 320-360 and 480-500 ms here), sized so that
# the median job falls inside the 290 ms group (sparse, d = 3, n = 14) and
# the tail percentile inside the 480-500 ms group whatever the number of
# passes: a percentile taken at a group boundary would jump between runs.
# Several inputs in each of those two groups average out the cost
# differences between inputs.
SOCIETY_SCHEDULE = (
    [("two_hub", 2, 14)] * 3 + [("two_hub", 2, 18)] * 3
    + [("sparse", 3, 12)] * 3 + [("two_hub", 3, 12), ("two_hub", 2, 20)]
    + [("sparse", 3, 14)] * 6 + [("two_hub", 3, 14)] * 2
    + [("two_hub", 2, 22)] * 2
    + [("sparse", 3, 16)] * 3 + [("sparse", 4, 9)] * 3 + [("two_hub", 2, 23)] * 2
)

# Coordinates are generated in half units.  Hubs sit at 0 and HUB on every
# axis; a bridge box reaches BRIDGE toward the far hub, other boxes at most
# REACH, so exactly the two bridges meet across hubs (BRIDGE + BRIDGE > HUB >
# BRIDGE + REACH).
HUB = 200
BRIDGE = range(110, 121)
REACH = range(10, 79)
BACK = range(10, 81)


def _two_hub(rng: random.Random, d: int, n: int) -> list:
    groups = [list(range(0, n, 2)), list(range(1, n, 2))]  # hub 0, hub HUB
    boxes: list[list] = [[] for _ in range(n)]
    for _ in range(d):
        for g, members in enumerate(groups):
            # distinct lower endpoints per axis keep the depth grid at n^d
            backs = rng.sample(BACK, len(members))
            reaches = rng.sample(REACH, len(members))
            reaches[0] = rng.choice(BRIDGE)
            for i, back, reach in zip(members, backs, reaches):
                boxes[i].append((-back, reach) if g == 0 else (HUB - reach, HUB + back))
    return boxes


def _sparse(rng: random.Random, d: int, n: int) -> list:
    boxes: list[list] = [[] for _ in range(n)]
    for _ in range(d):
        for box, lo in zip(boxes, rng.sample(range(0, 240), n)):
            box.append((lo, lo + rng.randint(20, 90)))
    return boxes


def _half(v: int):
    return v // 2 if v % 2 == 0 else f"{v}/2"


def _arrangement_text(boxes) -> str:
    payload = {
        "dimension": len(boxes[0]),
        "boxes": [[[_half(lo), _half(hi)] for lo, hi in box] for box in boxes],
    }
    return json.dumps(payload) + "\n"


class Societies(Workload):
    """A seeded stream of arrangements, each analysed as `cli analyze` does
    plus clique counts, exposure and the split identity.  Geometry does most
    of the work; search and labelling do not run."""

    name = "societies"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.inputs = []
        for kind, d, n in SOCIETY_SCHEDULE:
            make = _two_hub if kind == "two_hub" else _sparse
            self.inputs.append((f"{kind} d={d} n={n}", make(self.rng, d, n)))
        self.rng.shuffle(self.inputs)

    def texts(self) -> list[str]:
        return [_arrangement_text(boxes) for _, boxes in self.inputs]

    def jobs(self, lib, parsed: list) -> list[Job]:
        return [
            Job(label, self._analyze(lib, text), self._checker(boxes))
            for (label, boxes), text in zip(self.inputs, self.texts())
        ]

    @staticmethod
    def _analyze(lib, text: str):
        geometry, graphs, exposure = lib.geometry, lib.graphs, lib.exposure

        def run():
            arr = lib.formats.parse_any(text)
            g = geometry.intersection_graph(arr)
            omega = graphs.clique_number(g)
            cert = exposure.find_exposed(arr)
            return {
                "edges": list(g.edges()),
                "depth": geometry.agreement_number(arr),
                "proportion": geometry.agreement_proportion(arr),
                "f_vector": list(geometry.f_vector(arr).entries),
                "omega": omega,
                "cliques": [graphs.count_cliques_of_size(g, s)
                            for s in range(1, omega + 1)],
                "agreeable": graphs.is_agreeable(g, 2, 3),
                "degrees": list(graphs.degree_profile(g).degrees),
                "exposed": (cert.box_index, cert.axis, cert.side, cert.coordinate),
                "split_identity": exposure.verify_split_identity(arr, 1),
            }

        return run

    @staticmethod
    def _checker(boxes):
        n = len(boxes)
        adj = oracle.graph_of(boxes)
        counts = oracle.clique_counts(adj)
        omega = len(counts)
        agreeable = not oracle.has_independent_triple(adj)
        edges = oracle.edges_of(adj)
        degrees = sorted(m.bit_count() for m in adj)

        def check(out) -> str | None:
            index, axis, side, coordinate = out["exposed"]
            return _first_error(
                (out["edges"] == edges, "intersection graph differs from the overlap predicate"),
                (out["depth"] == out["omega"] == omega,
                 f"depth {out['depth']} / clique number {out['omega']}, expected {omega}"),
                (out["proportion"] == Fraction(omega, n), "agreement proportion"),
                (out["f_vector"] == counts + [0] * (n - omega),
                 "f_k differs from the (k+1)-clique count"),
                (out["cliques"] == counts, "clique counts"),
                (out["agreeable"] == agreeable, "(2,3)-agreeability"),
                (out["degrees"] == degrees, "degree profile"),
                ((coordinate * 2).denominator == 1 and oracle.exposure_holds(
                    boxes, index, axis, side, int(coordinate * 2)),
                 "find_exposed returned a box that is not exposed"),
                (out["split_identity"] is True, "split identity at k = 1"),
            )

        return check


# ---------------------------------------------------------------------------
# orderly
# ---------------------------------------------------------------------------

ENUMERATIONS = ((6, 2, 0), (9, 3, 0), (13, 4, 1))  # (n, r, survivors)
# Relabelled copies per pass.  As in SOCIETY_SCHEDULE the counts put the
# median job inside the k_partite 4 group and the tail inside k_partite 5.
# The labeller's cost depends on the labelling (by a fifth for k_partite 4),
# so the median group holds many copies.
RELABELLED = {"fig134": 3, "fig38c": 3, "k_partite 4": 15, "k_partite 5": 5}

# Work counts of enumerate_agreeable(13, 4) when this benchmark was written.
# They are printed for comparison, not checked: a better search is meant to
# change them.
REFERENCE_13_4 = {
    "attachments": 790706, "degree_cap": 140062, "independent_triple": 596130,
    "clique_cap": 44426, "final_degree": 0, "isomorph": 9060,
}


def _fixture_edges(name: str) -> tuple[int, list]:
    if name.startswith("k_partite"):
        d = int(name.split()[1])
        return 2 * d, oracle.k_partite_edges(d)
    edges = oracle.FIXTURE_EDGES[name]
    return max(v for _, v in edges), edges


def enumeration_counters(cert) -> dict:
    return {"attachments": cert.graphs_examined,
            **{rule: cert.pruning.get(rule, 0) for rule in PRUNING_RULES},
            "survivors": len(cert.survivors)}


class Orderly(Workload):
    """The orderly search at (6,2), (9,3) and (13,4), plus canonical forms of
    seeded relabellings of fig134, fig38c, k_partite 4 and k_partite 5.  The
    labeller and the attachment loop do the work; no geometry or boxicity
    runs.  k_partite 6 is left out: its labelling alone takes seconds."""

    name = "orderly"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.copies = []  # (fixture name, relabelled edge list)
        for name, copies in RELABELLED.items():
            n, edges = _fixture_edges(name)
            for _ in range(copies):
                perm = list(range(1, n + 1))
                self.rng.shuffle(perm)
                relabelled = [tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges]
                self.copies.append((name, relabelled))

    def texts(self) -> list[str]:
        return [_graph_text(_fixture_edges(name)[0], edges) for name, edges in self.copies]

    def jobs(self, lib, parsed: list) -> list[Job]:
        originals: dict[str, bytes] = {}

        def certificate_of(name: str) -> bytes:
            # the original's certificate, built from the recorded edge list
            if name not in originals:
                n, edges = _fixture_edges(name)
                originals[name] = lib.graphs.canonical_form(lib.graphs.Graph(n, edges))
            return originals[name]

        jobs = [
            Job(f"enumerate({n},{r})",
                lambda n=n, r=r: lib.search.enumerate_agreeable(n, r),
                self._enumeration_check(n, r, survivors, lib, certificate_of),
                enumeration_counters)
            for n, r, survivors in ENUMERATIONS
        ]
        for (name, _), g in zip(self.copies, parsed):
            jobs.append(Job(
                f"canonical_form({name})",
                lambda g=g: lib.graphs.canonical_form(g),
                lambda out, name=name: None if out == certificate_of(name)
                else "relabelled copy lost its original's certificate",
            ))
        self.rng.shuffle(jobs)
        return jobs

    def notes(self, counters: dict) -> list[str]:
        got = counters.get("enumerate(13,4)")
        if got is None:
            return []
        diff = [f"{k} {got.get(k)} (was {v})" for k, v in REFERENCE_13_4.items() if got.get(k) != v]
        return ["reference enumerate(13,4): " + ("; ".join(diff) if diff else "counts match")]

    @staticmethod
    def _enumeration_check(n, r, survivors, lib, certificate_of):
        def check(cert) -> str | None:
            if len(cert.survivors) != survivors:
                return f"{len(cert.survivors)} survivors, expected {survivors}"
            if (n, r) == (13, 4) and lib.graphs.canonical_form(cert.survivors[0]) \
                    != certificate_of("fig134"):
                return "the (13,4) survivor is not isomorphic to fig134"
            return None

        return check


# ---------------------------------------------------------------------------
# boxdecide
# ---------------------------------------------------------------------------

# (n, non-edges) per pass; a decision scans 2^(non-edges) subsets, so each
# extra non-edge doubles its cost.  Graphs come in groups of one size, so
# that the median job falls inside the 11-non-edge group and the tail
# percentile inside the 13-non-edge group whatever the number of passes.
# Larger graphs are left out: alone above the 13 group they would move the
# tail percentile onto themselves as soon as a faster library fits more
# passes into a run.
DECIDE_SCHEDULE = ([(8, 10), (9, 10)] * 2 + [(10, 11)] * 8 + [(11, 12)] * 4
                   + [(12, 13)] * 3)
# The paper's verdicts: box(fig38a) = box(fig38b) = 2, box(fig38c) = 3, and
# the complete d-partite graph on d pairs has boxicity d.
FIXTURE_VERDICTS = (
    ("fig38a", 2, "yes"), ("fig38b", 2, "yes"),
    ("fig38c", 2, "no"), ("fig38c", 3, "yes"),
    ("k_partite 3", 2, "no"), ("k_partite 3", 3, "yes"),
    ("k_partite 4", 3, "no"), ("k_partite 4", 4, "yes"),
)


def _triangle_free(rng: random.Random, n: int, k: int) -> list:
    """A random triangle-free graph on 1..n with exactly k edges."""
    while True:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        rng.shuffle(pairs)
        nbrs = [set() for _ in range(n + 1)]
        edges = []
        for u, v in pairs:
            if not nbrs[u] & nbrs[v]:
                nbrs[u].add(v)
                nbrs[v].add(u)
                edges.append((u, v))
                if len(edges) == k:
                    return sorted(edges)


def _witness_error(witness, d: int, n: int, edges) -> str | None:
    """Re-derive the witness's intersection graph with the oracle predicate."""
    if witness is None:
        return "'yes' without a witness"
    boxes = [[(s.lo, s.hi) for s in box.sides] for box in witness.boxes]
    return _first_error(
        (witness.dimension <= d, f"witness has dimension {witness.dimension} > {d}"),
        (len(boxes) == n, "witness has the wrong number of boxes"),
        (oracle.edges_of(oracle.graph_of(boxes)) == sorted(edges),
         "witness boxes do not realize the graph"),
    )


class BoxDecide(Workload):
    """Exact boxicity decisions at d = 2 and 3 on complements of seeded
    triangle-free graphs, plus the paper's fixture verdicts.  Interval
    recognition and the subset scan do the work; no search runs."""

    name = "boxdecide"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # complements of triangle-free graphs are exactly the (2,3)-agreeable graphs
        self.graphs = [
            (f"complement #{i} n={n} non-edges={k}", n,
             oracle.complement_edges(n, _triangle_free(self.rng, n, k)))
            for i, (n, k) in enumerate(DECIDE_SCHEDULE, start=1)
        ]
        self.graphs += [(name, *_fixture_edges(name))
                        for name in ("fig38a", "fig38b", "fig38c", "k_partite 3", "k_partite 4")]

    def texts(self) -> list[str]:
        return [_graph_text(n, edges) for _, n, edges in self.graphs]

    def jobs(self, lib, parsed: list) -> list[Job]:
        graphs = {label: (g, n, edges) for (label, n, edges), g in zip(self.graphs, parsed)}
        tasks = [(label, d, None) for label, _, _ in self.graphs[:len(DECIDE_SCHEDULE)]
                 for d in (2, 3)]
        tasks += list(FIXTURE_VERDICTS)
        jobs = []
        for label, d, expected in tasks:
            g, n, edges = graphs[label]
            jobs.append(Job(
                f"decide({label}, d={d})",
                lambda g=g, d=d: lib.boxicity.decide_boxicity_leq(g, d),
                self._decision_check(d, n, edges, expected),
                lambda out: {"nodes": out.nodes},
            ))
        g, n, edges = graphs["fig38c"]
        jobs.append(Job(
            "boxicity_report(fig38c)",
            lambda: lib.boxicity.boxicity_report(g),
            lambda rep: _first_error((rep.exact == 3, f"box(fig38c) = {rep.exact}, expected 3"))
            or _witness_error(rep.witness, 3, n, edges),
        ))
        self.rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _decision_check(d, n, edges, expected):
        def check(decision) -> str | None:
            if decision.status == "inconclusive":
                return "inconclusive"
            if expected is not None and decision.status != expected:
                return f"verdict {decision.status}, the paper's is {expected}"
            if decision.status == "yes":
                return _witness_error(decision.witness, d, n, edges)
            return None

        return check

    def cross_check(self, outputs: list) -> list[str]:
        status = {}
        for job, out in outputs:
            if job.label.startswith("decide(complement") and out is not None:
                status[job.label] = out.status
        problems = []
        for label, _, _ in self.graphs[:len(DECIDE_SCHEDULE)]:
            if status.get(f"decide({label}, d=2)") == "yes" \
                    and status.get(f"decide({label}, d=3)") != "yes":
                problems.append(f"{label}: 'yes' at d=2 but not at d=3")
        return problems


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------

PAPER_CHECKS = 45
ANALYZED = ("z5", "fig38a", "fig38b", "exposure", "two_camps 3")


def _expected_analysis(name: str) -> dict:
    boxes = oracle.ARRANGEMENT_FIXTURES[name]
    n = len(boxes)
    adj = oracle.graph_of(boxes)
    counts = oracle.clique_counts(adj)
    degrees = sorted(m.bit_count() for m in adj)
    proportion = Fraction(len(counts), n)
    return {
        "source": name, "type": "arrangement", "n": n,
        "edges": [list(e) for e in oracle.FIXTURE_EDGES[name]],
        "agreement_number": len(counts),
        "agreement_proportion": str(proportion),
        "agreeable_2_3": not oracle.has_independent_triple(adj),
        "degree_min": degrees[0], "degree_max": degrees[-1], "degrees": degrees,
        "dimension": len(boxes[0]),
        "f_vector": counts + [0] * (n - len(counts)),
    }


def _cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    return code, out.getvalue()


class Paper(Workload):
    """Passes of `run_paper_checks()`, `cli analyze <fixture> --json` on the
    arrangement fixtures and `cli bounds`; the seed orders the jobs.  The
    only workload through `verify` and `cli`, and every layer on small
    inputs, so added per-call set-up shows here."""

    name = "paper"

    def jobs(self, lib, parsed: list) -> list[Job]:
        jobs = [Job(
            "run_paper_checks()",
            lambda: [(c.name, c.ok) for c in lib.verify.run_paper_checks()],
            self._checks_check,
            lambda out: {"checks": len(out), "passed": sum(ok for _, ok in out)},
        )]
        for name in ANALYZED:
            expected = _expected_analysis(name)
            jobs.append(Job(
                f"analyze {name} --json",
                lambda name=name: _cli(lib, ["analyze", name, "--json"]),
                lambda out, expected=expected: self._analysis_check(out, expected),
            ))
        root_map = f"{(5 - math.sqrt(13)) / 6:.12f}"
        jobs.append(Job(
            "bounds",
            lambda: _cli(lib, ["bounds"]),
            lambda out: None if out[0] == 0 and root_map in out[1]
            else "bounds output lacks the root map value (5 - sqrt(13))/6",
        ))
        self.rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _checks_check(out) -> str | None:
        failed = [name for name, ok in out if not ok]
        if failed:
            return "failed checks: " + ", ".join(failed)
        if len(out) != PAPER_CHECKS:
            return f"{len(out)} checks ran, expected {PAPER_CHECKS}"
        return None

    @staticmethod
    def _analysis_check(out, expected: dict) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        wrong = sorted(k for k in expected if report.get(k) != expected[k])
        return "fields differ: " + ", ".join(wrong) if wrong else None


WORKLOADS = {w.name: w for w in (Societies, Orderly, BoxDecide, Paper)}
