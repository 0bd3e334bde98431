"""Tests for the benchmark's own helpers and a tiny smoke run of each workload.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402
from metrics import GATED, PER_LAYER_NAMES, UNGATED_WORKLOADS, WORKLOADS  # noqa: E402
from tracing import Instrumentation, Span, Tracer, self_times, summarize, union_length  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (128, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert stats.n_beyond(n, p) >= 10
    higher = [q for q in stats.TAIL_LADDER if p is None or q > p]
    assert all(stats.n_beyond(n, q) < 10 for q in higher)


def test_chi2_tail_is_close_to_the_exact_one():
    chi2 = pytest.importorskip("scipy.stats").chi2
    for stat, df in ((85.35, 49), (59.0, 59), (120.0, 59), (40.0, 29)):
        exact = chi2.sf(stat, df)
        assert stats.chi2_sf(stat, df) == pytest.approx(exact, rel=0.1)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a: together they cover 1..6
        Span("c", 8.0, 12.0, 0, 1),  # runs past the parent: only 8..10 counts
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1:] == [3.0, 3.0, 4.0]
    table = summarize(spans)
    assert table["parent"] == {"calls": 1, "s": 10.0, "self_s": 3.0}


def test_summary_of_some_runs_keeps_parent_links():
    spans = [
        Span("setup", 0.0, 1.0, -1, 0),
        Span("round", 2.0, 6.0, -1, 1),
        Span("inner", 3.0, 5.0, 1, 1),
    ]
    table = summarize(spans, include=lambda span: span.run > 0)
    assert set(table) == {"round", "inner"}
    assert table["round"]["self_s"] == 2.0


def test_spans_link_to_their_parent_and_run():
    tracer = Tracer(clock=FakeClock())
    inst = Instrumentation(tracer)

    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    inst.add([Box], "inner", "inner")
    inst.add([Box], "outer", "outer")
    inst.install()
    tracer.next_run()
    assert Box.outer(1) == 4
    tracer.next_run()
    assert Box.inner(1) == 2
    inst.uninstall()
    assert Box.outer(1) == 4
    names = [(s.name, s.parent, s.run) for s in tracer.spans]
    assert names == [("outer", -1, 1), ("inner", 0, 1), ("inner", -1, 2)]
    assert all(s.end > s.start for s in tracer.spans)


def test_shared_function_gets_one_wrapper_and_is_restored():
    import types

    def f():
        return 1

    a, b = types.SimpleNamespace(f=f), types.SimpleNamespace(f=f)
    seen = []
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.add([a, b], "f", "f", after=lambda args, kwargs, result, state: seen.append(result))
    inst.install()
    assert a.f is b.f and a.f is not f
    a.f(), b.f()
    inst.uninstall()
    assert a.f is f and b.f is f
    assert seen == [1, 1] and len(tracer.spans) == 2


def test_span_closed_out_of_order_is_an_error():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def run_bench(*args, cwd=ROOT, script=BENCH_DIR / "run_bench.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", (*WORKLOADS, *UNGATED_WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = list(PER_LAYER_NAMES) if trace else [m["name"] for m in GATED]
    assert list(result["metrics"]) == expected
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0
    assert not (BENCH_DIR / "_work").exists() or not any((BENCH_DIR / "_work").iterdir())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = run_bench("--workload", "stream_default", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run_bench.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
