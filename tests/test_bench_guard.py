"""The benchmark reads eegcl's API by name: the functions its tracer wraps;
in ingest_replay, ds.trials, trials_for, memory.entries and trials_equal;
and in sweep_jobs2, parse_experiment_config(...).validate() and the
`eegcl run` command. A tiny traced run of each workload that reaches them
keeps a change to those names from breaking the benchmark unnoticed. An
untraced run of the gated sweep_jobs2 reaches what the traced one skips:
the `eegcl gen` set-up probes and the rounds that measure setup_s, wall_s
and peak_rss_mb."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def tiny_bench_run(workload, trace):
    """The final JSON line of a tiny run_bench.py run that passed its checks."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", trace, "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    return result


@pytest.mark.parametrize("workload", ["ingest_replay", "stream_default", "sweep_jobs2"])
def test_tiny_traced_bench_run_passes(workload):
    tiny_bench_run(workload, "1")


@pytest.mark.slow
def test_tiny_gated_sweep_reports_its_end_to_end_metrics():
    metrics = tiny_bench_run("sweep_jobs2", "0")["metrics"]
    for name in ("setup_s", "wall_s", "peak_rss_mb"):
        assert metrics[name]["value"] > 0, name
