"""The benchmark reads eegcl's API by name: the functions its tracer wraps;
in ingest_replay, ds.trials, trials_for, memory.entries and trials_equal;
and in sweep_jobs2, parse_experiment_config(...).validate() and the
`eegcl run` command. A tiny traced run of each workload that reaches them
keeps a change to those names from breaking the benchmark unnoticed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ingest_replay", "stream_default", "sweep_jobs2"])
def test_tiny_traced_bench_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
