"""One pass of the paper, societies, orderly and boxdecide benchmark
workloads, so bench/run.py cannot rot.

With --seconds 0 a run makes a single pass and checks every output against
the benchmark's own oracles (bench/oracle.py); a wrong answer exits 1.  The
run goes from a copy of bench/, src/ and BENCHMARK.json in a temporary
directory, because bench/run.py writes its results under `.bench_out/` next
to the bench/ it runs from.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["paper", "societies", "orderly", "boxdecide"])
def test_bench_single_pass_is_correct(workload, tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    assert (tmp_path / ".bench_out" / f"result-{workload}-seed1-trace0.json").is_file()
