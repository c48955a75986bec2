"""Spans around every call into boxagree's public functions, recorded from
outside the library.

`Tracer.install` replaces each module binding of each public function of
the eight layer modules (e.g. both `boxagree.graphs.canonical_certificate`
and `boxagree.search.canonical_certificate`) with a wrapper that records a
span: name, start, end, parent span and job id.  `intersect_boxes` runs
millions of times inside the f-vector walk, so it is only counted.  Spans
stay in memory as a flat integer array until `write` is called at exit.

A span's self time is its duration minus the durations of its child spans;
one thread makes the children of a span disjoint and nested inside it.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("geometry", "graphs", "boxicity", "search", "exposure", "formats", "verify", "cli")
COUNT_ONLY = {"geometry.intersect_boxes"}
JOB = "bench.job"
FIELDS = 5  # name id, parent span, job id, start ns, end ns


def _interval(result):
    return result is not None


def _decision(result):
    return result.status, result.nodes


def _enumeration(result):
    return result.graphs_examined, dict(result.pruning), len(result.survivors)


def _checks(result):
    return sum(c.ok for c in result), len(result)


# What to keep of a call's return value, for the counters derived from it.
OUTCOMES = {
    "graphs.interval_clique_order": _interval,
    "boxicity.decide_boxicity_leq": _decision,
    "search.enumerate_agreeable": _enumeration,
    "verify.run_paper_checks": _checks,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.outcomes: dict[int, object] = {}
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __len__(self) -> int:
        return len(self.spans) // FIELDS

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, outcomes = self.spans, self._stack, self.outcomes
        keep = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans) // FIELDS
            spans.extend((nid, stack[-1] if stack else -1, self.job, perf_counter_ns(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * FIELDS + 4] = perf_counter_ns()
                stack.pop()
            if keep is not None:
                outcomes[idx] = keep(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        replacement = {}
        for layer in LAYERS:
            module = sys.modules[f"boxagree.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    replacement[obj] = (self._count if name in COUNT_ONLY else self._wrap)(name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "boxagree" and not modname.startswith("boxagree."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(module, attr, replacement[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()

    def run_job(self, job_id: int, fn):
        """Run one job under a root span that carries its id."""
        self.job = job_id
        try:
            return self._wrap(JOB, fn)()
        finally:
            self.job = -1

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("span\tparent\tjob\tname\tstart_ns\tend_ns\n")
            s = self.spans
            for i in range(len(self)):
                nid, parent, job, start, end = s[i * FIELDS:(i + 1) * FIELDS]
                out.write(f"{i}\t{parent}\t{job}\t{self.names[nid]}\t{start}\t{end}\n")


# Self-time metrics, each summed over the functions it names (a trailing "."
# names a whole module).
SELF_GROUPS = {
    "geometry.intersection_graph.self_s": ("geometry.intersection_graph",),
    "geometry.agreement_number.self_s": ("geometry.agreement_number",),
    "geometry.f_vector.self_s": ("geometry.f_vector",),
    "graphs.canonical.self_s": ("graphs.canonical_certificate", "graphs.canonical_form",
                                "graphs.are_isomorphic"),
    "graphs.interval.self_s": ("graphs.interval_clique_order", "graphs.is_interval_graph",
                               "graphs.maximal_cliques"),
    "graphs.clique.self_s": ("graphs.clique_number", "graphs.has_clique_of_size",
                             "graphs.count_cliques_of_size"),
    "graphs.agreeable.self_s": ("graphs.is_agreeable",),
    "boxicity.decide.self_s": ("boxicity.decide_boxicity_leq",),
    "boxicity.report.self_s": ("boxicity.boxicity_report",),
    "search.enumerate.self_s": ("search.enumerate_agreeable",),
    "search.min_proportion.self_s": ("search.min_agreement_proportion",),
    "exposure.find_exposed.self_s": ("exposure.find_exposed",),
    "exposure.split_identity.self_s": ("exposure.verify_split_identity",),
    "formats.parse.self_s": ("formats.parse_any", "formats.parse_arrangement",
                             "formats.parse_graph"),
    "verify.checks.self_s": ("verify.",),
    "cli.main.self_s": ("cli.",),
}
PRUNING_RULES = ("degree_cap", "independent_triple", "clique_cap", "final_degree", "isomorph")


def pass_metrics(tracer: Tracer, first: int, last: int, counts: Counter) -> tuple[dict, dict]:
    """Per-layer metrics of the spans first..last-1 (one pass of the job
    list) and the count-only calls of that pass.  Returns the self times in
    seconds and the exact counts (ratios included) separately."""
    s, names = tracer.spans, tracer.names
    child = Counter()
    for i in range(first, last):
        parent = s[i * FIELDS + 1]
        if parent >= first:
            child[parent] += s[i * FIELDS + 4] - s[i * FIELDS + 3]
    self_ns = Counter()
    calls = Counter()
    yes = 0
    from_search = 0
    verdicts = Counter()
    nodes = attachments = survivors = checks_ok = checks_total = 0
    pruned = Counter()
    for i in range(first, last):
        name = names[s[i * FIELDS]]
        self_ns[name] += s[i * FIELDS + 4] - s[i * FIELDS + 3] - child[i]
        calls[name] += 1
        if name == "graphs.canonical_certificate":
            parent = s[i * FIELDS + 1]
            if parent >= 0 and names[s[parent * FIELDS]] == "search.enumerate_agreeable":
                from_search += 1
        outcome = tracer.outcomes.get(i)
        if outcome is None:  # no counter reads this call's result, or it raised
            continue
        if name == "graphs.interval_clique_order":
            yes += outcome
        elif name == "boxicity.decide_boxicity_leq":
            verdicts[outcome[0]] += 1
            nodes += outcome[1]
        elif name == "search.enumerate_agreeable":
            attachments += outcome[0]
            pruned.update(outcome[1])
            survivors += outcome[2]
        elif name == "verify.run_paper_checks":
            checks_ok += outcome[0]
            checks_total += outcome[1]

    times = {}
    for metric, members in SELF_GROUPS.items():
        total = sum(ns for name, ns in self_ns.items()
                    if any(name == m or (m.endswith(".") and name.startswith(m))
                           for m in members))
        times[metric] = total / 1e9
    exact = {
        "geometry.calls": sum(c for name, c in calls.items() if name.startswith("geometry.")),
        "geometry.intersect_boxes.calls": counts["geometry.intersect_boxes"],
        "graphs.canonical.calls": calls["graphs.canonical_certificate"],
        "graphs.interval.calls": calls["graphs.interval_clique_order"],
        "boxicity.decide.calls": calls["boxicity.decide_boxicity_leq"],
        "boxicity.nodes": nodes,
        "boxicity.verdict.yes": verdicts["yes"],
        "boxicity.verdict.no": verdicts["no"],
        "boxicity.verdict.inconclusive": verdicts["inconclusive"],
        "search.attachments": attachments,
        **{f"search.prune.{rule}": pruned[rule] for rule in PRUNING_RULES},
        "search.survivors": survivors,
        "verify.checks_ok": checks_ok,
        "verify.checks_total": checks_total,
        "trace.spans": last - first,
        "graphs.interval.yes_ratio":
            yes / calls["graphs.interval_clique_order"] if calls["graphs.interval_clique_order"] else 0.0,
        "search.attach_yield": from_search / attachments if attachments else 0.0,
    }
    return times, exact
