"""End-to-end and per-layer benchmark of boxagree.

    python3 bench/run.py --workload {societies,orderly,boxdecide,paper}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the library is imported from the `src` directory next to
this one.  One process, one thread, one closed-loop caller: the workload's
job list runs in passes, each job starting when the previous one returns,
until another pass would overrun the time budget.  Every output is checked
against the benchmark's own references after its pass, outside the timed
interval.  Job times are scaled to a nominal host speed measured between
the jobs (see `reference`); the unscaled figures are printed too.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics instead, taken from spans (see `tracing`) recorded during
the second half of the budget, the first half giving the untraced
reference for `trace.overhead_ratio`; each half runs at least two passes.
Human-readable lines, the run's environment and its work counters come
before it.  Results and spans are also written under `.bench_out/` in the
root of the checkout.

Exit status: 0 when every output is correct, 1 when a check failed, 2 when
the library source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import workloads
from setup_probe import RECORD_SEPARATOR

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11  # timed fresh interpreters per run, after one that warms the bytecode cache


@dataclass
class Pass:
    starts: list  # each job's start, in perf_counter seconds
    latencies: list  # each job's time in seconds, as measured
    scaled: list = field(default_factory=list)  # the same at the reference speed
    spans: tuple = (0, 0)  # the pass's span indices when traced
    counts: Counter = field(default_factory=Counter)  # its count-only calls

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


class Checker:
    """Checks each pass's outputs as soon as the pass ends, outside its timed
    interval, so no output outlives its pass.  A job fails when it raised,
    its output is wrong or its work counters differ from the first pass's."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.failures: list[str] = []
        self.counters: dict[int, dict] = {}  # job index -> first pass's counters
        self.attempted = 0
        self.passes = 0

    def check(self, results: list) -> None:
        self.passes += 1
        self.attempted += len(results)
        for j, (job, out, err) in enumerate(results):
            where = f"pass {self.passes}, {job.label}"
            if err is not None:
                self.failures.append(f"{where}: raised\n{err}")
                continue
            try:
                problem = job.check(out)
                counters = job.counters(out)
            except Exception:  # a broken output must not stop the run
                problem, counters = "check raised\n" + traceback.format_exc(limit=4), None
            if problem is None and self.counters.setdefault(j, counters) != counters:
                problem = f"work counters {counters} differ from {self.counters[j]}"
            if problem is not None:
                self.failures.append(f"{where}: {problem}")
        self.failures += [f"pass {self.passes}: {msg}"
                          for msg in self.workload.cross_check([(job, out) for job, out, _ in results])]


def run_pass(jobs, tracer, speed: reference.Speed) -> tuple[Pass, list]:
    results = []
    starts = []
    latencies = []
    if tracer is not None:
        span0, counts0 = len(tracer), Counter(tracer.counts)
    for job_id, job in enumerate(jobs):
        speed.sample()
        t0 = time.perf_counter()
        try:
            out = job.run() if tracer is None else tracer.run_job(job_id, job.run)
            err = None
        except Exception:  # a failing job is recorded and the loop goes on
            out, err = None, traceback.format_exc(limit=4)
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        results.append((job, out, err))
    speed.sample()
    p = Pass(starts, latencies)
    if tracer is not None:
        p.spans = (span0, len(tracer))
        p.counts = Counter(tracer.counts)
        p.counts.subtract(counts0)
    return p, results


def run_for(jobs, budget: float, checker: Checker, tracer=None, min_passes: int = 1) -> list[Pass]:
    """Whole passes until the next one would end past the budget (at least
    `min_passes`).  Each pass starts from a collected heap.  Job times are
    scaled once the last pass has ended, when the host's speed after every
    job is known too."""
    passes = []
    speed = reference.Speed()
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        p, results = run_pass(jobs, tracer, speed)
        elapsed = time.perf_counter() - t0
        checker.check(results)
        del results
        passes.append(p)
        if len(passes) >= min_passes and time.perf_counter() - start + elapsed > budget:
            break
    for p in passes:
        p.scaled = [speed.scale(t, x) for t, x in zip(p.starts, p.latencies)]
    return passes


def measure_setup(texts: list[str]) -> float:
    """Median set-up time over fresh interpreters (see setup_probe)."""
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            input=RECORD_SEPARATOR.join(texts), capture_output=True, text=True,
            timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout))
    return statistics.median(times)


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten jobs above it, by
    nearest rank; the slowest job when there are fewer than 20."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100
    pct = 100 * (n - 10) // n
    return xs[math.ceil(pct * n / 100) - 1], pct


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def commit_hash() -> str:
    """HEAD of the checkout's git metadata, read without running git;
    "unknown" in an export without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": threading.active_count(),
    }


def job_times(passes: list[Pass], scaled: bool) -> tuple[dict, str]:
    """Median pass time in seconds, median and tail job time in ms."""
    latencies = [x for p in passes for x in (p.scaled if scaled else p.latencies)]
    tail, pct = tail_latency(latencies)
    return {
        "wall_s": statistics.median(p.scaled_wall if scaled else p.wall for p in passes),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": tail * 1e3,
    }, f"p{pct} of {len(latencies)} jobs"


def end_to_end(setup_s: float, passes: list[Pass]) -> tuple[dict, str]:
    times, note = job_times(passes, scaled=True)
    values = {
        "setup_s": setup_s,
        **times,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, note


def per_layer(tracer, untraced: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    """Self times averaged over the traced passes; counts must repeat exactly."""
    rows = [tracing.pass_metrics(tracer, *p.spans, p.counts) for p in traced]
    failures = [f"traced pass {n}: span counts differ from traced pass 1"
                for n, (_, exact) in enumerate(rows[1:], start=2) if exact != rows[0][1]]
    values = {m: statistics.fmean(times[m] for times, _ in rows) for m in rows[0][0]}
    values.update(rows[0][1])
    values["trace.overhead_ratio"] = (statistics.median(p.scaled_wall for p in traced)
                                      / statistics.median(p.scaled_wall for p in untraced) - 1)
    return values, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "boxagree" / "__init__.py").is_file():
        print(f"error: no boxagree source under {SRC}", file=sys.stderr)
        return 2
    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed)
    texts = workload.texts()
    setup_s = None if args.trace else measure_setup(texts)

    sys.path.insert(0, str(SRC))
    import boxagree
    from boxagree import cli  # noqa: F401  (binds every layer module on the package)

    boxagree.default_eta_table()
    jobs = workload.jobs(boxagree, [boxagree.formats.parse_any(t) for t in texts])

    checker = Checker(workload)
    traced: list[Pass] = []
    if args.trace:
        # Two passes a half at least: the span counts of a second traced
        # pass are checked against the first's, and the overhead ratio is a
        # ratio of medians.
        untraced = run_for(jobs, args.seconds / 2, checker, min_passes=2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_for(jobs, args.seconds / 2, checker, tracer, min_passes=2)
        finally:
            tracer.uninstall()
        values, span_failures = per_layer(tracer, untraced, traced)
        checker.failures += span_failures
        listed = schema["per_layer"]
        note = ""
    else:
        untraced = run_for(jobs, args.seconds, checker)
        values, note = end_to_end(setup_s, untraced)
        listed = schema["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    failures = checker.failures
    attempted = checker.attempted
    env = environment(args)
    counters = {jobs[j].label: c for j, c in sorted(checker.counters.items()) if c}

    print(f"boxagree bench: workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced + {len(traced)} traced passes of {len(jobs)} jobs")
    print("env " + json.dumps(env))
    for label, c in sorted(counters.items()):
        print(f"counters {label}: " + ", ".join(f"{k} {v}" for k, v in c.items()))
    for line in workload.notes(counters):
        print(line)
    for name, m in metrics.items():
        extra = f"  ({note})" if name == "job_tail_ms" else ""
        print(f"{name} = {m['value']} {m['unit']}{extra}")
    if not args.trace:
        print(f"fail_ratio = {len(failures) / attempted} ratio  "
              f"({len(failures)} of {attempted} jobs)")
        measured, _ = job_times(untraced, scaled=False)
        print("as measured, unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "env": env, "metrics": metrics, "counters": counters,
        "pass_walls_s": {"untraced": [p.wall for p in untraced],
                         "traced": [p.wall for p in traced]},
        "scaled_pass_walls_s": {"untraced": [p.scaled_wall for p in untraced],
                                "traced": [p.scaled_wall for p in traced]},
        "attempted": attempted, "failures": failures,
    }, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.tsv")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
