"""eegcl benchmark: time three workloads end to end, check their outputs.

    python3 bench/run_bench.py --workload stream_default --seed 0 --seconds 25 --trace 0
    python3 bench/run_bench.py            # every workload, one table

Each workload runs in its own process (bench/workloads.py), so set-up time
and peak memory never carry over from another workload. Set-up is sampled
SETUP_SAMPLES times, each in a fresh process (the workload's own and probe
processes, or for sweep_jobs2 `eegcl gen` processes started by one probe),
and reported as the median.
The program gets the user's environment as found: the benchmark sets no
BLAS or OpenMP thread variable.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end metrics
listed in BENCHMARK.json, with --trace 1 the per-module metrics of the
traced run. The lines before it print every end-to-end metric that applies
to the workload, by name, with unit and direction, then the run's
environment and the reason for each failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import EFFECTS, GATED, PER_LAYER, UNGATED, UNGATED_WORKLOADS, WORKLOADS  # noqa: E402
from workloads import SETUP_SAMPLES, SWEEP_TIMEOUT_S  # noqa: E402

THREAD_VARS = re.compile(r"^(OMP|OPENBLAS|GOTO|MKL|BLIS|VECLIB|NUMEXPR)_")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(workload, seed, seconds, trace, role, size) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--role", role, "--size", size]
    # Set-up, the rounds up to the deadline, the round that overruns it and
    # the traced sweep's --jobs 1 round; no round outlasts SWEEP_TIMEOUT_S.
    timeout = seconds + 2 * SWEEP_TIMEOUT_S + 60
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {role} timed out after {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} {role} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload, seed, seconds, trace, size) -> dict:
    main = child(workload, seed, seconds, trace, "main", size)
    result = {
        "workload": workload,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "reasons": main["reasons"],
        "details": main["details"],
        "rounds": main["rounds"],
        "environment": {
            **main["environment"],
            "thread_vars": {k: v for k, v in os.environ.items() if THREAD_VARS.match(k)},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_sha": git_sha(),
            "seed": seed,
        },
    }
    if trace:
        result["metrics"] = main["metrics"]
        return result
    setups = list(main["setup_samples"])
    while len(setups) < SETUP_SAMPLES:
        setups += child(workload, seed, seconds, 0, "probe", size)["setup_samples"]
    result["metrics"] = {
        **main["metrics"],
        "setup_s": median(setups),
        "peak_rss_mb": main["peak_rss_kb"] * 1024 / 1e6,
        "failed_ratio": main["failed"] / main["attempted"],
    }
    result["details"]["setup_samples_s"] = setups
    return result


def final_line(result, trace) -> dict:
    wanted = {m["name"]: m["unit"] for m in (PER_LAYER if trace else GATED)}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": u} for n, u in wanted.items()},
    }


def print_report(results, trace) -> None:
    """One row per metric; a traced run adds what each should move, and on
    which workloads (no change predicted in parentheses)."""
    if trace:
        rows = []
        for m in PER_LAYER:
            moves, on, unchanged_on = EFFECTS[m["name"].split(".")[0]]
            rows.append((m["name"], m["unit"], m["better"], f"moves {moves} on {on} ({unchanged_on})"))
    else:
        rows = [(m["name"], m["unit"], m["better"], "") for m in (*GATED, *UNGATED)]
    names = [r["workload"] for r in results]
    print(f"{'metric':<36} {'unit':<6} {'better':<7} " + " ".join(f"{n:>16}" for n in names))
    for name, unit, better, note in rows:
        cells = []
        for r in results:
            value = r["metrics"].get(name)
            cells.append(f"{'':>16}" if value is None else f"{value:>16.6g}")
        print(f"{name:<36} {unit:<6} {better:<7} " + " ".join(cells) + f"  {note}".rstrip())
    for r in results:
        print(json.dumps({"workload": r["workload"], "rounds": r["rounds"],
                          "environment": r["environment"], "details": r["details"]}))
        for reason in r["reasons"]:
            print(f"FAILED {r['workload']}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eegcl benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, *UNGATED_WORKLOADS),
                        help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eegcl" / "__init__.py").is_file():
        print(f"error: no eegcl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else [*WORKLOADS, *UNGATED_WORKLOADS]
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, args.size) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(results, args.trace)
    if args.workload:
        print(json.dumps(final_line(results[0], args.trace)))
    else:
        lines = [final_line(r, args.trace) for r in results]
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}.{n}": v for r, line in zip(results, lines)
                        for n, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
