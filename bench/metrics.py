"""What the benchmark reports, beyond what BENCHMARK.json says.

BENCHMARK.json names the gated workloads, the gated end-to-end metrics
(unit, direction, bound) and the per-module metrics of the traced run (unit,
direction). This module holds what that file cannot: the workload that runs
without gating, the end-to-end metrics that apply to some workloads only,
and for each module the end-to-end metric its numbers should move, the
workloads that exercise it, and where no change is predicted. A module a
workload does not exercise reports 0 there.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# Run by run_bench.py like the others but not listed in BENCHMARK.json. On a
# shared 2-vCPU virtual machine its ten-seed wall_s spread went past the
# 0.25 bound in three of eight sets, as the host's speed moved between runs,
# so it cannot gate. It is the only workload that saves, loads and aligns a
# stream through the CLI, offers to reservoirs and round-trips the codec.
UNGATED_WORKLOADS = ("ingest_replay",)
GATED = tuple(SPEC["end_to_end"])
PER_LAYER = tuple(SPEC["per_layer"])
PER_LAYER_NAMES = tuple(m["name"] for m in PER_LAYER)

# Printed by run_bench.py for the workloads they apply to. They are not in
# BENCHMARK.json, where every listed metric must be reported by every
# workload and never read 0; failed_ratio is 0 on a correct build and is
# carried there by `attempted` and `failed`.
UNGATED = (
    {"name": "run_s.sft", "unit": "s", "better": "lower"},
    {"name": "run_s.er", "unit": "s", "better": "lower"},
    {"name": "run_s.ewc", "unit": "s", "better": "lower"},
    {"name": "run_s.pced", "unit": "s", "better": "lower"},
    {"name": "stage_s.p50", "unit": "s", "better": "lower"},
    {"name": "stage_s.tail", "unit": "s", "better": "lower"},
    {"name": "acc.pced", "unit": "ratio", "better": "higher"},
    {"name": "bwt.pced", "unit": "ratio", "better": "higher"},
    {"name": "offers_per_s", "unit": "1/s", "better": "higher"},
    {"name": "failed_ratio", "unit": "ratio", "better": "lower"},
)

# module -> (end-to-end metric it should move, workloads that exercise it,
# where the prediction is no change)
EFFECTS = {
    "models": ("run_s.*, wall_s, stage_s.*", "stream_default", "ingest_replay"),
    "training": ("run_s.*", "stream_default", "ingest_replay"),
    "ewc": ("run_s.ewc", "stream_default", "run_s.sft, ingest_replay"),
    "alignment": ("wall_s, run_s.pced", "ingest_replay, stream_default", "run_s.sft"),
    "linalg": ("wall_s, setup_s", "ingest_replay", "run_s.sft"),
    "data": ("wall_s, setup_s, peak_rss_mb", "ingest_replay", "run_s.*"),
    "replay": ("offers_per_s, wall_s", "ingest_replay", "stream_default"),
    "harness": ("run_s.*", "stream_default", "ingest_replay"),
    "cli": ("wall_s, stage_s.*", "sweep_jobs2", "stream_default"),
    "trace": ("none (cost of the traced run itself)", "stream_default, ingest_replay",
              "sweep_jobs2"),
}
