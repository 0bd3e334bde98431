"""One workload in one process: set up, run timed rounds, check outputs.

Started by run_bench.py as

    python3 bench/workloads.py --workload W --seed N --seconds S --trace 0|1
                               --role main|probe --size full|tiny

A `probe` only measures set-up, import plus input generation, and exits.
For sweep_jobs2, whose program runs in processes of its own, one probe
times SETUP_SAMPLES runs of `eegcl gen` of the sweep's stream. A `main`
process sets up, then runs whole rounds of the workload until S seconds
have passed, checks every round's outputs, and prints one JSON line as its
last line. Every round of a run uses the same inputs, so round-to-round
differences are timing noise only.

Training workloads run with early stopping switched off (patience equal to
max_epochs): with the default patience the number of epochs, and so the run
time, moves by about 20% from one seed to the next, which no bound could
absorb. With it off every seed does the same work.

With --trace 1 the in-process workloads alternate an untraced round and a
traced one; the traced rounds give the per-module numbers and the
difference of the two medians is the tracing overhead. sweep_jobs2 runs its
work in `eegcl run` child processes, which no span reaches: its traced run
adds one `--jobs 1` sweep as the single-process baseline and reads child
rusage and the reports' stage_seconds instead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import logging
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import stats  # noqa: E402
from metrics import PER_LAYER_NAMES  # noqa: E402
from tracing import Instrumentation, Tracer, summarize, traced  # noqa: E402

clock = time.perf_counter

TINY_STREAM = {"n_subjects": 3, "trials_per_subject": 30, "n_timepoints": 32}
SIZES = {
    "full": {
        "stream_default": {"epochs": 10, "stream": {}},
        "sweep_jobs2": {"epochs": 3, "run_seeds": 2, "stream": {}},
        "ingest_replay": {
            "stream": {
                "n_subjects": 32,
                "n_channels": 16,
                "n_timepoints": 128,
                "trials_per_subject": 240,
            },
            "memories_per_policy": 50,
            "capacity": 64,
            "buckets": 60,
        },
    },
    "tiny": {
        "stream_default": {"epochs": 2, "stream": TINY_STREAM},
        "sweep_jobs2": {"epochs": 2, "run_seeds": 2, "stream": TINY_STREAM},
        "ingest_replay": {
            "stream": {
                "n_subjects": 6,
                "n_channels": 8,
                "n_timepoints": 32,
                "trials_per_subject": 60,
            },
            "memories_per_policy": 40,
            "capacity": 12,
            "buckets": 30,
        },
    },
}

SWEEP_JOBS = 2
SWEEP_TIMEOUT_S = 150
# A set-up of 0.2 to 1 s varies by 20% and more from one fresh process to
# the next on a shared 2-vCPU machine, so a run reports the median of this
# many, each in a fresh process.
SETUP_SAMPLES = 11
STRATEGIES = ("SFT", "ER", "EWC", "PCED")
# The ingest audit's class-balanced store uses the harness's default memory.
CB_CAPACITY = 160
CB_PER_CLASS = 10
# An aligned subject's training covariance must be this close to I; the
# worst case seen at 16 channels is about 3e-7.
ALIGN_TOL = 1e-5
# Chi-square tail probability separating a uniform reservoir from a biased one.
UNIFORM_P = 1e-6
RESERVOIR_POLICIES = ("reservoir_standard", "reservoir_paper_literal")
_STAGE_SECONDS_RE = re.compile(rb'"stage_seconds": \[[^\]]*\]')
_CONDITION_RE = re.compile(r"^subject (\d+): condition number (\S+)( \(eigenvalue floor applied\))?$")


def import_eegcl() -> dict:
    """Import eegcl from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    eegcl = importlib.import_module("eegcl")
    if Path(eegcl.__file__).resolve().parent != SRC / "eegcl":
        raise ImportError(f"eegcl imported from {eegcl.__file__}, not from {SRC}")
    return {
        name: importlib.import_module(f"eegcl.{name}")
        for name in ("alignment", "cli", "data", "ewc", "harness", "linalg",
                     "models", "replay", "training")
    }


def program_env() -> dict:
    """The user's environment as found, plus the path to this checkout's src/.
    Thread-count variables are passed through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def stream_bytes(cfg) -> int:
    return 4 * cfg.n_subjects * cfg.trials_per_subject * cfg.n_channels * cfg.n_timepoints


def best_epoch(history) -> int:
    """1-based epoch train() keeps: highest val accuracy, earliest on ties."""
    return max(range(len(history)), key=lambda i: (history[i].val_accuracy, -i)) + 1


def stage_metrics(samples) -> tuple:
    """(metrics, details) for per-stage latencies: median and tail."""
    p = stats.tail_percentile(len(samples))
    metrics = {"stage_s.p50": median(samples)}
    if p is not None:
        metrics["stage_s.tail"] = float(sys.modules["numpy"].percentile(samples, p))
    return metrics, {"stage_s.tail_percentile": p, "stage_s.samples": len(samples)}


class Failures:
    """Operations attempted and the stated reason of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list = []

    def op(self, what: str, problems) -> None:
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.reasons.append(f"{what}: " + "; ".join(problems))


def matrix_problems(rows) -> list:
    """A finished accuracy matrix: NaN (or null) above the diagonal and
    finite values in [0, 1] on and below it."""
    problems = []
    for j, row in enumerate(rows):
        for i, v in enumerate(row):
            undefined = v is None or v != v
            if i > j and not undefined:
                problems.append(f"matrix[{j}][{i}] = {v} above the diagonal")
            if i <= j and (undefined or not 0.0 <= v <= 1.0):
                problems.append(f"matrix[{j}][{i}] = {v} outside [0, 1]")
    return problems[:3]


# ---------------------------------------------------------------- workloads


class StreamDefault:
    """run_continual for SFT, ER, EWC and PCED on the default stream."""

    min_rounds = 1
    peak_rss_of = "self"

    def __init__(self, m, seed, size, work):
        self.m, self.seed = m, seed
        self.cfg = m["data"].StreamConfig(seed=seed, **size["stream"])
        self.stream = m["data"].gen_stream(self.cfg)
        self.model_cfg = m["models"].ModelConfig(
            n_channels=self.cfg.n_channels,
            n_timepoints=self.cfg.n_timepoints,
            n_classes=self.cfg.n_classes,
        )
        epochs = size["epochs"]
        self.train_cfg = m["training"].TrainConfig(max_epochs=epochs, patience=epochs)
        h = m["harness"]
        self.strategies = (h.sft_strategy(), h.er_strategy(), h.ewc_strategy(), h.pced_strategy())
        self.input_bytes = stream_bytes(self.cfg)
        self.first: dict = {}

    def round(self, tracer=None) -> dict:
        runs, records = {}, {}
        for i, strategy in enumerate(self.strategies):
            if tracer is not None and i:
                tracer.next_run()
            started = clock()
            record = self.m["harness"].run_continual(
                self.stream, strategy, self.model_cfg, self.train_cfg, run_seed=self.seed
            )
            runs[strategy.kind.lower()] = clock() - started
            records[strategy.kind.lower()] = record
            if tracer is not None:
                tracer.counts["harness.access_events"] += len(record.access_events)
        return {
            "wall": sum(runs.values()),
            "runs": runs,
            "records": records,
            "stage_seconds": [s for r in records.values() for s in r.stage_seconds],
        }

    def check(self, result, failures: Failures) -> None:
        np = sys.modules["numpy"]
        harness = self.m["harness"]
        for kind, rec in result.pop("records").items():
            n = rec.matrix.shape[0]
            per_stage = [sum(1 for e in rec.access_events if e.stage == s) for s in range(1, n + 1)]
            first = self.first.setdefault(kind, rec)
            same = (np.array_equal(first.matrix, rec.matrix, equal_nan=True)
                    and first.acc == rec.acc and first.bwt == rec.bwt)
            failures.op(f"run_continual {kind}", [
                harness.foreign_reads(rec) and f"{len(harness.foreign_reads(rec))} foreign reads",
                per_stage != [3] * n and f"access events per stage {per_stage}, expected 3 each",
                *matrix_problems(rec.matrix.tolist()),
                not same and "accuracy matrix differs from this run's first round",
            ])

    def end_to_end(self, rounds) -> tuple:
        out = {"wall_s": median(r["wall"] for r in rounds)}
        for kind in ("sft", "er", "ewc", "pced"):
            out[f"run_s.{kind}"] = median(r["runs"][kind] for r in rounds)
        stage, details = stage_metrics([s for r in rounds for s in r["stage_seconds"]])
        out.update(stage)
        pced = self.first["pced"]
        out["acc.pced"], out["bwt.pced"] = pced.acc, pced.bwt
        details["acc"] = {k: r.acc for k, r in self.first.items()}
        details["bwt"] = {k: r.bwt for k, r in self.first.items()}
        return out, details


class SweepJobs2:
    """`eegcl run --jobs 2` over a generator stream, 4 strategies x seeds."""

    min_rounds = 2  # the determinism check compares two sweeps
    # The program runs in `eegcl` child processes; the benchmark's own
    # process, which holds every report, is not part of its peak.
    peak_rss_of = "children"

    def __init__(self, m, seed, size, work):
        self.work = work
        gen = {"seed": seed, **size["stream"]}
        epochs = size["epochs"]
        self.seeds = [seed + i for i in range(size["run_seeds"])]
        self.config = {
            "stream": {"generator": gen},
            "strategies": list(STRATEGIES),
            "train": {"max_epochs": epochs, "patience": epochs},
            "seeds": self.seeds,
        }
        m["cli"].parse_experiment_config(self.config).validate()
        self.config_path = work / "experiment.json"
        self.config_path.write_text(json.dumps(self.config))
        self.gen_path = work / "generator.json"
        self.gen_path.write_text(json.dumps(gen))
        self.input_bytes = stream_bytes(m["data"].StreamConfig(**gen))
        self.reports = [f"report_{k.lower()}_{s}.json" for k in STRATEGIES for s in self.seeds]
        self.expected = [
            *self.reports,
            *(f"matrix_{k.lower()}_{s}.csv" for k in STRATEGIES for s in self.seeds),
            "summary.csv",
        ]
        self.reference = None
        self.pced: list = []
        self.n = 0

    def program_setup(self, n) -> list:
        """n timings of the set-up `eegcl run` does before its pool starts:
        the import, generating the stream and saving it, which is what an
        `eegcl gen` of the same stream does, each in a fresh process."""
        samples = []
        for _ in range(n):
            started = clock()
            returncode, stderr = run_process_group(
                [sys.executable, "-m", "eegcl.cli", "gen", "--config", str(self.gen_path),
                 "--out", str(self.work / "generated")],
                self.work, SWEEP_TIMEOUT_S,
            )
            samples.append(clock() - started)
            if returncode != 0:
                raise RuntimeError(f"eegcl gen exited with {returncode}: {stderr[-400:]}")
            shutil.rmtree(self.work / "generated")
        return samples

    def round(self, jobs=SWEEP_JOBS) -> dict:
        out = self.work / f"sweep{self.n}"
        self.n += 1
        cmd = [sys.executable, "-m", "eegcl.cli", "run", "--config", str(self.config_path),
               "--out", str(out), "--jobs", str(jobs)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = clock()
        returncode, stderr = run_process_group(cmd, self.work, SWEEP_TIMEOUT_S)
        wall = clock() - started
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        files = {n: (out / n).read_bytes() for n in self.expected if (out / n).is_file()}
        shutil.rmtree(out, ignore_errors=True)
        stages = [
            s for n in self.reports if n in files
            for s in json.loads(files[n])["stage_seconds"]
        ]
        return {
            "wall": wall,
            "jobs": jobs,
            "cpu": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "returncode": returncode,
            "stderr_tail": stderr[-400:],
            "files": files,
            "stage_seconds": stages,
        }

    def check(self, result, failures: Failures) -> None:
        files = result.pop("files")
        problems = []
        if result["returncode"] != 0:
            problems.append(f"exit code {result['returncode']}: {result['stderr_tail']!r}")
        missing = [n for n in self.expected if n not in files]
        if missing:
            problems.append(f"missing outputs {missing}")
        normalized = {}
        for name, blob in files.items():
            if name in self.reports:
                problems.extend(matrix_problems(json.loads(blob)["matrix"]))
                blob = _STAGE_SECONDS_RE.sub(b"", blob)
            normalized[name] = blob
        if self.reference is None:
            self.reference = normalized
            self.pced = [json.loads(files[n]) for n in self.reports
                         if n.startswith("report_pced") and n in files]
        else:
            differing = sorted(n for n in normalized if normalized[n] != self.reference.get(n))
            if differing:
                problems.append(f"outputs differ from the first sweep: {differing}")
        failures.op(f"eegcl run --jobs {result['jobs']}", problems)

    def end_to_end(self, rounds) -> tuple:
        out = {"wall_s": median(r["wall"] for r in rounds)}
        stage, details = stage_metrics([s for r in rounds for s in r["stage_seconds"]])
        out.update(stage)
        if self.pced:
            out["acc.pced"] = median(r["acc"] for r in self.pced)
            out["bwt.pced"] = median(r["bwt"] for r in self.pced)
        details["child_cpu_s"] = median(r["cpu"] for r in rounds)
        return out, details


class IngestReplay:
    """No training: save, load, align through the CLI, then a reservoir
    audit over the aligned trials and an EEGM codec round trip."""

    min_rounds = 1
    peak_rss_of = "self"  # `eegcl align` runs in this process too

    def __init__(self, m, seed, size, work):
        np = sys.modules["numpy"]
        self.m, self.work = m, work
        self.cfg = m["data"].StreamConfig(seed=seed, **size["stream"])
        self.stream = m["data"].gen_stream(self.cfg)
        self.input_bytes = stream_bytes(self.cfg)
        self.per_policy = size["memories_per_policy"]
        self.capacity = size["capacity"]
        self.buckets = size["buckets"]
        states = np.random.SeedSequence(seed).generate_state(
            len(RESERVOIR_POLICIES) * self.per_policy + self.cfg.n_subjects + 1
        )
        self.seeds = [int(s) for s in states]
        self.details: dict = {}

    def round(self, tracer=None) -> dict:
        data, replay = self.m["data"], self.m["replay"]
        raw, aligned_dir = self.work / "raw", self.work / "aligned"
        phases = {}
        started = clock()
        data.save_stream(self.stream, raw)
        phases["save"] = clock() - started
        started = clock()
        loaded = data.load_stream(raw)
        phases["load"] = clock() - started

        printed = io.StringIO()
        started = clock()
        with contextlib.redirect_stdout(printed):
            cli_code = self.m["cli"].main(["align", "--stream", str(raw), "--out", str(aligned_dir)])
        aligned = data.load_stream(aligned_dir)
        phases["align"] = clock() - started

        items = [t for ds in aligned for t in ds.trials]
        memories = {policy: [] for policy in RESERVOIR_POLICIES}
        seeds = iter(self.seeds)
        started = clock()
        for policy in RESERVOIR_POLICIES:
            for _ in range(self.per_policy):
                memory = replay.ReplayMemory(self.capacity, policy, seed=next(seeds))
                memory.offer_many(items)
                memories[policy].append(memory)
        phases["offers"] = clock() - started

        started = clock()
        balanced = replay.ReplayMemory(CB_CAPACITY, "class_balanced", seed=next(seeds))
        stored = 0
        for ds in aligned:
            stored += replay.store_class_balanced(balanced, ds, CB_PER_CLASS, next(seeds))
            balanced.snapshot()
        phases["store"] = clock() - started

        originals = [balanced, *(mems[0] for mems in memories.values())]
        started = clock()
        restored = [replay.memory_from_bytes(replay.memory_to_bytes(m)) for m in originals]
        phases["codec"] = clock() - started
        shutil.rmtree(raw)
        shutil.rmtree(aligned_dir)
        return {
            "wall": sum(phases.values()),
            "phases": phases,
            "offers": len(items) * sum(len(v) for v in memories.values()),
            "loaded": loaded,
            "aligned": aligned,
            "cli": (cli_code, printed.getvalue()),
            "memories": memories,
            "balanced": (balanced, stored),
            "codec": list(zip(originals, restored)),
        }

    def check(self, result, failures: Failures) -> None:
        np = sys.modules["numpy"]
        data, alignment = self.m["data"], self.m["alignment"]
        loaded, aligned = result.pop("loaded"), result.pop("aligned")
        failures.op("save_stream/load_stream round trip", [
            not data.streams_equal(loaded, self.stream) and "loaded stream differs from the saved one"
        ])

        cli_code, printed = result.pop("cli")
        conditions = [
            (int(g[1]), float(g[2]), bool(g[3]))
            for g in (_CONDITION_RE.match(line) for line in printed.splitlines()) if g
        ]
        floored = {sid for sid, _, floor in conditions if floor}
        deviations = {
            ds.subject_id: float(np.abs(alignment.reference_covariance(
                [t.trial for t in ds.trials_for(data.Split.TRAIN)]
            ) - np.eye(aligned.n_channels)).max())
            for ds in aligned
        }
        # Identity is promised only for a whitener that needed no eigenvalue
        # floor; a floored subject must at least have been reported as such.
        unflagged = sorted(s for s, d in deviations.items() if d > ALIGN_TOL and s not in floored)
        failures.op("eegcl align", [
            cli_code != 0 and f"exit code {cli_code}",
            len(conditions) != len(self.stream)
            and f"{len(conditions)} condition lines for {len(self.stream)} subjects",
            unflagged and f"subjects {unflagged} are more than {ALIGN_TOL:g} from I "
            "without an eigenvalue floor reported",
        ])
        worst = max((d for s, d in deviations.items() if s not in floored), default=0.0)
        self.details["align_worst_deviation"] = max(worst, self.details.get("align_worst_deviation", 0.0))
        self.details.setdefault("floored_deviation", {s: deviations[s] for s in sorted(floored)})
        self.details.setdefault("condition_numbers", [c for _, c, _ in conditions])

        memories = result.pop("memories")
        index = {(t.subject_id, t.timestamp): i for i, t in enumerate(t for ds in aligned for t in ds.trials)}
        p_values = {}
        for policy, mems in memories.items():
            counts = np.zeros(len(index))
            for memory in mems:
                for e in memory.entries:
                    counts[index[(e.subject_id, e.timestamp)]] += 1
            buckets = np.array_split(counts, self.buckets)
            observed = np.array([b.sum() for b in buckets])
            expected = np.array([len(b) for b in buckets]) * counts.sum() / len(counts)
            stat = float(np.sum((observed - expected) ** 2 / expected))
            p_values[policy] = stats.chi2_sf(stat, self.buckets - 1)
        self.details["retention_p"] = p_values
        failures.op("reservoir audit", [
            p_values["reservoir_standard"] <= UNIFORM_P
            and f"standard reservoir retention is not uniform (p = {p_values['reservoir_standard']:.2e})",
            p_values["reservoir_paper_literal"] >= UNIFORM_P
            and f"constant-rate reservoir looks uniform (p = {p_values['reservoir_paper_literal']:.2e})",
            any(len(m) != self.capacity for ms in memories.values() for m in ms) and "a memory is not full",
        ])

        balanced, stored = result.pop("balanced")
        counts = balanced.class_counts()
        expected = min(CB_CAPACITY, stored)
        failures.op("store_class_balanced", [
            len(balanced) != expected and f"memory holds {len(balanced)} entries, expected {expected}",
            len(set(counts.values())) != 1 and f"class counts {counts} are not balanced",
        ])

        failures.op("EEGM codec round trip", [
            f"{a.policy} memory differs after the round trip"
            for a, b in result.pop("codec")
            if (a.capacity, a.policy, a.seen, len(a)) != (b.capacity, b.policy, b.seen, len(b))
            or not all(data.trials_equal(x, y) for x, y in zip(a.entries, b.entries))
        ])

    def end_to_end(self, rounds) -> tuple:
        out = {
            "wall_s": median(r["wall"] for r in rounds),
            "offers_per_s": median(r["offers"] / r["phases"]["offers"] for r in rounds),
        }
        phases = {k: median(r["phases"][k] for r in rounds) for k in rounds[0]["phases"]}
        return out, {**self.details, "phase_s": phases}


WORKLOADS = {
    "stream_default": StreamDefault,
    "sweep_jobs2": SweepJobs2,
    "ingest_replay": IngestReplay,
}


def run_process_group(cmd, cwd, timeout) -> tuple:
    """Run cmd in its own process group; on timeout kill the whole group
    (the CLI's pool workers included) and wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=program_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        stderr += f"\ntimed out after {timeout} s"
    return proc.returncode, stderr


# ------------------------------------------------------------------ tracing


def instrument(tracer: Tracer, m: dict) -> tuple:
    """Wrap each module's public functions where eegcl's callers look them
    up. Returns the instrumentation and the list that collects whitener
    condition numbers."""
    inst = Instrumentation(tracer)
    counts = tracer.counts
    conditions: list = []
    al, cli, data, ewc, harness = m["alignment"], m["cli"], m["data"], m["ewc"], m["harness"]
    linalg, models, replay, training = m["linalg"], m["models"], m["replay"], m["training"]

    def on_forward(args, kwargs, result, state):
        counts["models.trials"] += len(args[2])

    def on_train(args, kwargs, result, state):
        history = result[1]
        counts["training.epochs"] += len(history)
        counts["training.best_epochs"] += best_epoch(history)

    def on_whitener(args, kwargs, result, state):
        conditions.append(result.condition_number)
        counts["alignment.floor_applied"] += int(result.eigenvalue_floor_applied)

    def memory_len(args, kwargs):
        return len(args[0])

    def on_offer(args, kwargs, accepted, before):
        counts["replay.offer_many.items"] += len(args[1])
        counts["replay.accepted"] += accepted
        counts["replay.evictions"] += accepted - (len(args[0]) - before)

    def on_store(args, kwargs, stored, before):
        counts["replay.evictions"] += stored - (len(args[0]) - before)

    for cls in (models.ShallowConvNet, models.MlpNet):
        inst.add([cls], "forward_cached", "models.forward", after=on_forward)
        inst.add([cls], "backward", "models.backward")
    inst.add([training, models], "loss_and_gradient", "models.loss_and_gradient")
    inst.add([harness], "train", "training.train", after=on_train)
    inst.add([training], "evaluate_arrays", "training.evaluate_arrays")
    inst.add([training.Adam, training.Sgd], "step", "training.optimizer_step")
    inst.add([ewc], "fisher_diagonal", "ewc.fisher_diagonal")
    inst.add([ewc], "gradient", "ewc.gradient")
    inst.add([ewc], "penalty", "ewc.penalty")
    inst.add([al, harness, cli], "reference_covariance", "alignment.reference_covariance")
    inst.add([al, harness, cli], "compute_whitener", "alignment.compute_whitener", after=on_whitener)
    inst.add([linalg, al, data], "covariance", "linalg.covariance")
    inst.add([linalg, al, data], "sym_eig", "linalg.sym_eig")
    inst.add([data, cli], "gen_stream", "data.gen_stream")
    inst.add([data, cli], "save_stream", "data.save_stream",
             after=lambda a, k, r, s: counts.update({"data.bytes_written": dir_bytes(a[1])}))
    inst.add([data, cli], "load_stream", "data.load_stream",
             after=lambda a, k, r, s: counts.update({"data.bytes_read": dir_bytes(a[0])}))
    inst.add([replay.ReplayMemory], "offer_many", "replay.offer_many", before=memory_len, after=on_offer)
    inst.add([replay, harness], "store_class_balanced", "replay.store_class_balanced",
             before=memory_len, after=on_store)
    inst.add([replay.ReplayMemory], "snapshot", "replay.snapshot")
    inst.add([replay], "memory_to_bytes", "replay.codec")
    inst.add([replay], "memory_from_bytes", "replay.codec")
    inst.add([harness], "run_continual", "harness.run_continual")
    inst.add([harness], "evaluate_arrays", "harness.eval_matrix")
    inst.add([cli], "main", "cli.main")
    return inst, conditions


def layer_metrics(tracer: Tracer, n_rounds: int, conditions: list) -> dict:
    """Per-module numbers per traced round; 0 for a module the workload
    does not exercise."""
    table = summarize(tracer.spans, include=lambda span: span.run > 0)
    counts = tracer.counts

    def span(name, field):
        return table.get(name, {}).get(field, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    for name in ("models.forward", "models.backward", "training.train", "ewc.fisher_diagonal",
                 "ewc.penalty", "alignment.reference_covariance", "linalg.covariance",
                 "linalg.sym_eig"):
        out[f"{name}.calls"] = span(name, "calls") / n_rounds
    for name in ("models.forward", "models.backward", "training.train",
                 "training.evaluate_arrays", "ewc.penalty", "alignment.reference_covariance",
                 "alignment.compute_whitener", "linalg.covariance", "linalg.sym_eig",
                 "replay.offer_many", "replay.store_class_balanced", "harness.run_continual"):
        out[f"{name}.self_s"] = span(name, "self_s") / n_rounds
    out["training.optimizer_step.self_s"] = span("training.optimizer_step", "self_s") / n_rounds
    out["models.trials"] = counts["models.trials"] / n_rounds
    out["models.forward.us_per_trial"] = 1e6 * ratio(span("models.forward", "self_s"), counts["models.trials"])
    out["training.epochs"] = counts["training.epochs"] / n_rounds
    out["training.steps"] = span("training.optimizer_step", "calls") / n_rounds
    out["training.useful_epoch_ratio"] = ratio(counts["training.best_epochs"], counts["training.epochs"])
    out["ewc.fisher_diagonal.s"] = span("ewc.fisher_diagonal", "s") / n_rounds
    out["ewc.fisher_diagonal.grad_calls"] = span("ewc.gradient", "calls") / n_rounds
    out["alignment.condition_max"] = max(conditions, default=0.0)
    out["alignment.floor_applied"] = counts["alignment.floor_applied"] / n_rounds
    # Set-up (run 0) generates the stream once, before the rounds.
    out["data.gen_stream.s"] = sum(s.end - s.start for s in tracer.spans
                                   if s.run == 0 and s.name == "data.gen_stream")
    for name, key in (("save_stream", "data.bytes_written"), ("load_stream", "data.bytes_read")):
        seconds = span(f"data.{name}", "s")
        out[f"data.{name}.s"] = seconds / n_rounds
        out[f"data.{name}.mb_per_s"] = ratio(counts[key] / 1e6, seconds)
        out[key] = counts[key] / n_rounds
    out["replay.offer_many.items"] = counts["replay.offer_many.items"] / n_rounds
    out["replay.offer_many.accept_ratio"] = ratio(counts["replay.accepted"], counts["replay.offer_many.items"])
    out["replay.evictions"] = counts["replay.evictions"] / n_rounds
    out["replay.codec.s"] = span("replay.codec", "s") / n_rounds
    out["harness.eval_matrix.s"] = span("harness.eval_matrix", "s") / n_rounds
    out["harness.access_events"] = counts["harness.access_events"] / n_rounds
    return out


# --------------------------------------------------------------------- main


def run_untraced(wl, seconds, failures) -> tuple:
    rounds = []
    deadline = clock() + seconds
    while len(rounds) < wl.min_rounds or clock() < deadline:
        result = wl.round()
        wl.check(result, failures)
        rounds.append(result)
    metrics, details = wl.end_to_end(rounds)
    return metrics, details, len(rounds)


def run_traced(wl, seconds, failures, tracer, inst, conditions) -> tuple:
    """Pairs of one untraced and one traced round of an in-process workload,
    the order flipping from pair to pair so that a round's position in the
    pair does not bias the overhead."""
    plain_walls, traced_walls = [], []

    def traced_round():
        tracer.next_run()
        inst.install()
        try:
            result = wl.round(tracer)
        finally:
            inst.uninstall()
        wl.check(result, failures)
        traced_walls.append(result["wall"])

    def plain_round():
        result = wl.round()
        wl.check(result, failures)
        plain_walls.append(result["wall"])

    deadline = clock() + seconds
    while not traced_walls or clock() < deadline:
        pair = (plain_round, traced_round) if len(traced_walls) % 2 == 0 else (traced_round, plain_round)
        for step in pair:
            step()
    out = layer_metrics(tracer, len(traced_walls), conditions)
    base = median(plain_walls)
    out["trace.overhead_s"] = median(traced_walls) - base
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / base
    spans_per_round = sum(1 for s in tracer.spans if s.run > 0) / len(traced_walls)
    out["trace.span_cost_s"] = spans_per_round * span_cost()
    details = {"untraced_round_s": plain_walls, "traced_round_s": traced_walls, "spans": len(tracer.spans),
               "condition_numbers": conditions[: len(conditions) // len(traced_walls)]}
    return out, details, len(plain_walls) + len(traced_walls)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one.
    A steadier figure for the tracing overhead than the difference of two
    noisy round medians."""
    def noop():
        return None

    wrapped = traced(Tracer(), noop, "noop")
    started = clock()
    for _ in range(calls):
        noop()
    bare = clock() - started
    started = clock()
    for _ in range(calls):
        wrapped()
    return max(0.0, (clock() - started - bare) / calls)


def run_traced_sweep(wl, seconds, failures) -> tuple:
    """A --jobs 1 baseline sweep, then --jobs 2 sweeps for the rest."""
    baseline = wl.round(jobs=1)
    wl.check(baseline, failures)
    rounds = []
    deadline = clock() + seconds
    while len(rounds) < wl.min_rounds or clock() < deadline:
        result = wl.round()
        wl.check(result, failures)
        rounds.append(result)
    out = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    busy = median(sum(r["stage_seconds"]) for r in rounds)
    wall = median(r["wall"] for r in rounds)
    out["cli.child_cpu_s"] = median(r["cpu"] for r in rounds)
    out["cli.run_busy_s"] = busy
    out["cli.speedup_vs_jobs1"] = baseline["wall"] / wall
    out["cli.busy_inflation"] = busy / sum(baseline["stage_seconds"])
    details = {
        "jobs1": {"wall_s": baseline["wall"], "cpu_s": baseline["cpu"],
                  "run_busy_s": sum(baseline["stage_seconds"])},
        "jobs2": {"wall_s": wall, "cpu_s": out["cli.child_cpu_s"], "run_busy_s": busy},
    }
    return out, details, len(rounds) + 1


class WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.n = 0

    def emit(self, record):
        self.n += 1


def environment(np, input_bytes) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        with contextlib.suppress(OSError, ValueError):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                llc = int(size[:-1]) * {"K": 1024, "M": 1024**2}[size[-1]]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "llc_bytes": llc,
        "input_bytes": input_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe"), default="main")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    started = clock()
    m = import_eegcl()
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tracer = inst = conditions = None
        if args.trace and args.workload != "sweep_jobs2":
            tracer = Tracer()
            inst, conditions = instrument(tracer, m)
            inst.install()
        try:
            wl = WORKLOADS[args.workload](m, args.seed, SIZES[args.size][args.workload], work)
        finally:
            if inst is not None:
                inst.uninstall()
        # An in-process workload sets the program up once in this process.
        # sweep_jobs2 times the program's own set-up, in a probe only, so that
        # those processes stay out of the main process's child RSS peak.
        program_setup = getattr(wl, "program_setup", None)
        if program_setup is None:
            setup_samples = [clock() - started]
        elif args.role == "probe":
            setup_samples = program_setup(SETUP_SAMPLES)
        else:
            setup_samples = []
        if args.role == "probe":
            print(json.dumps({"setup_samples": setup_samples}))
            return 0

        warnings = WarningCounter()
        logging.getLogger("eegcl").addHandler(warnings)
        failures = Failures()
        if not args.trace:
            metrics, details, rounds = run_untraced(wl, args.seconds, failures)
        elif tracer is None:
            metrics, details, rounds = run_traced_sweep(wl, args.seconds, failures)
        else:
            metrics, details, rounds = run_traced(wl, args.seconds, failures, tracer, inst, conditions)
            results = BENCH_DIR / "_results"
            results.mkdir(exist_ok=True)
            details["trace_file"] = str(results / f"trace-{args.workload}-seed{args.seed}.json")
            tracer.dump(details["trace_file"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    maxrss_kb = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    details["eegcl_warnings"] = warnings.n
    details["maxrss_kb"] = maxrss_kb
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "setup_samples": setup_samples,
        "rounds": rounds,
        "attempted": failures.attempted,
        "failed": len(failures.reasons),
        "reasons": failures.reasons,
        "metrics": metrics,
        "details": details,
        "environment": environment(sys.modules["numpy"], wl.input_bytes),
        "peak_rss_kb": maxrss_kb[wl.peak_rss_of],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
