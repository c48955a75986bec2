"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --workload societies --seeds 1-10 [--out summary.json]

Each run is untraced (--trace 0) and lasts BENCHMARK.json's `run_seconds`;
per-layer metrics come from `run.py --trace 1` directly.  For every
end-to-end metric it prints the median, the quartiles and the spread (third
quartile minus first, over the median), with `statistics.quantiles(values,
n=4)`, beside the bound BENCHMARK.json gives it.  Exits 1 if a run fails or
reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    args = parser.parse_args(argv)

    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = schema["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in schema["end_to_end"]}
    values: dict[str, list[float]] = {}
    runs = []
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        elapsed = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None or proc.returncode != 0 or not result["correct"]:
            ok = False
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            if result is None:
                continue
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {elapsed:.1f} s, " + ", ".join(
            f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    summary = {}
    for name, xs in values.items():
        median = statistics.median(xs)
        row = {"median": median, "n": len(xs), "bound": bounds[name]}
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        summary[name] = row
        spread = row.get("spread")
        print(f"{name:34} median {median:<12.6g} spread "
              f"{'-' if spread is None else f'{spread:.4f}'}  bound {row['bound']}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                        "summary": summary,
                                        "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
