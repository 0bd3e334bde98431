"""Command-line entry point: generate streams, run experiments, emit reports.

Subcommands:

- ``gen --config PATH --out DIR``: generate a synthetic subject stream from
  a StreamConfig JSON and write it to a stream directory.
- ``align --stream DIR --out DIR [--eps E]``: whiten each subject of a
  stream against their own training-split covariance and write the aligned
  stream.
- ``run --config PATH --out DIR [--jobs K]``: run an experiment config
  (strategies x seeds) over a stream, writing one JSON report and one
  accuracy-matrix CSV per run plus an aggregate summary. The stream is
  generated or decoded once; every run, in process or in one of K pool
  workers, uses that decoded stream. A run that fails numerically is named
  on stderr and left out; the others are still written, and the command
  exits 4.
- ``report DIR [--curve subject=I]``: aggregate existing reports into a
  per-strategy forgetting-curve CSV for one subject.

Exit codes: 0 success, 2 usage/config error, 3 I/O or format error,
4 numerical failure. Output is plain text; the summary header is bolded
only on interactive terminals and NO_COLOR disables that too.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .alignment import compute_whitener, reference_covariance
from .data import Split, Stream, StreamConfig, gen_stream, load_stream, save_stream
from .errors import (
    ConfigError,
    DegenerateInputError,
    StratificationError,
    StreamFormatError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .harness import (
    MemoryConfig,
    RunRecord,
    Strategy,
    er_strategy,
    ewc_strategy,
    forgetting_curve,
    matrix_to_csv,
    pced_strategy,
    record_to_json_dict,
    run_continual,
    sft_strategy,
)
from .models import ModelConfig
from .replay import POLICIES
from .training import TrainConfig

logger = logging.getLogger(__name__)

# Failures that exit 4; in `run` they fail one task, not the whole sweep.
_NUMERICAL_ERRORS = (TrainingDivergedError, DegenerateInputError, UndefinedMetricError)

_CURVE_RE = re.compile(r"^subject=(\d+)$")
_REPORT_RE = re.compile(r"^report_[a-z]+_\d+\.json$")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a stream source, strategies, model/train configs,
    and the seed list (one independent run per strategy per seed)."""

    stream_path: str | None
    generator: StreamConfig | None
    strategies: tuple
    model: ModelConfig
    model_dims_set: frozenset
    train: TrainConfig
    seeds: tuple

    def validate(self):
        if (self.stream_path is None) == (self.generator is None):
            raise ConfigError(
                "stream must specify exactly one of 'path' or 'generator'"
            )
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be unique, got {list(self.seeds)}")
        for s in self.strategies:
            s.validate()
        self.model.validate()
        self.train.validate()


def _load_json(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        loaded = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"{p}: top-level JSON value must be an object")
    return loaded


def _build_dataclass(cls, data: dict, what: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _nonnegative_number(value, what: str) -> float:
    """value as a float, if it is a finite JSON number >= 0 (a bool is not)."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        number = math.inf
    if not 0.0 <= number < math.inf:
        raise ConfigError(f"{what} must be a finite number >= 0, got {value!r}")
    return number


def _parse_memory(data, default: MemoryConfig) -> MemoryConfig:
    if data is None:
        return default
    memory = _build_dataclass(MemoryConfig, data, "memory config")
    for name in ("capacity", "per_class"):
        value = getattr(memory, name)
        if type(value) is not int or value < 0:
            raise ConfigError(f"memory {name} must be an integer >= 0, got {value!r}")
    if memory.policy not in POLICIES:
        raise ConfigError(f"unknown memory policy {memory.policy!r}, expected one of {POLICIES}")
    return memory


def _parse_strategy(item, default_memory: MemoryConfig, default_lambda: float) -> Strategy:
    if isinstance(item, str):
        spec = {"kind": item}
    elif isinstance(item, dict):
        spec = dict(item)
    else:
        raise ConfigError(f"strategy entries must be names or objects, got {item!r}")
    kind = str(spec.pop("kind", "")).upper()
    memory = _parse_memory(spec.pop("memory", None), default_memory)
    lam = _nonnegative_number(spec.pop("lambda", default_lambda), "strategy lambda")
    if spec:
        raise ConfigError(f"unknown strategy keys: {sorted(spec)}")
    if kind == "SFT":
        return sft_strategy()
    if kind == "ER":
        return er_strategy(memory=memory)
    if kind == "EWC":
        return ewc_strategy(lam=lam)
    if kind == "PCED":
        return pced_strategy(memory=memory)
    raise ConfigError(f"unknown strategy kind {kind!r}")


def parse_experiment_config(data: dict) -> ExperimentConfig:
    data = dict(data)
    stream_spec = data.pop("stream", None)
    if not isinstance(stream_spec, dict):
        raise ConfigError("config needs a 'stream' object with 'path' or 'generator'")
    stream_path = stream_spec.get("path")
    generator = None
    if "generator" in stream_spec:
        gen_dict = dict(stream_spec["generator"])
        generator = _build_dataclass(StreamConfig, gen_dict, "stream generator config")
        generator.validate()

    default_memory = _parse_memory(data.pop("memory", None), MemoryConfig())
    default_lambda = _nonnegative_number(data.pop("ewc_lambda", 100.0), "ewc_lambda")
    raw_strategies = data.pop("strategies", None)
    if not isinstance(raw_strategies, list) or not raw_strategies:
        raise ConfigError("config needs a non-empty 'strategies' list")
    strategies = tuple(
        _parse_strategy(item, default_memory, default_lambda) for item in raw_strategies
    )

    model_dict = dict(data.pop("model", {}))
    if "hidden" in model_dict:
        model_dict["hidden"] = tuple(model_dict["hidden"])
    train_dict = dict(data.pop("train", {}))

    seeds = data.pop("seeds", None)
    repeat = data.pop("repeat", None)
    if seeds is None:
        seeds = list(range(int(repeat))) if repeat is not None else [0]
    elif repeat is not None and int(repeat) != len(seeds):
        raise ConfigError(
            f"repeat ({repeat}) disagrees with the seed list length ({len(seeds)})"
        )
    if data:
        raise ConfigError(f"unknown config keys: {sorted(data)}")

    dims_set = frozenset(
        k for k in ("n_channels", "n_timepoints", "n_classes") if k in model_dict
    )
    return ExperimentConfig(
        stream_path=stream_path,
        generator=generator,
        strategies=strategies,
        model=_build_dataclass(ModelConfig, model_dict, "model config"),
        model_dims_set=dims_set,
        train=_build_dataclass(TrainConfig, train_dict, "train config"),
        seeds=tuple(int(s) for s in seeds),
    )


# The decoded stream of a `run` pool worker, set once by _share_stream.
_worker_stream: Stream | None = None


def _share_stream(stream: Stream) -> None:
    """Pool initializer: keep the parent's stream for this worker's tasks.
    A forked worker inherits it; a spawned one unpickles it once."""
    global _worker_stream
    _worker_stream = stream


def _run_task(strategy: Strategy, model_cfg: ModelConfig, train_cfg: TrainConfig,
              run_seed: int) -> RunRecord:
    return run_continual(_worker_stream, strategy, model_cfg, train_cfg, run_seed=run_seed)


def _outcome(call):
    """call()'s result, or the numerical error that stopped it, so that one
    failed run leaves the others' reports standing."""
    try:
        return call()
    except _NUMERICAL_ERRORS as exc:
        return exc


def _fit_model_to_stream(model: ModelConfig, dims_set: frozenset, stream) -> ModelConfig:
    """Model dims default to the stream's unless the config set them."""
    updates = {}
    if "n_channels" not in dims_set:
        updates["n_channels"] = stream.n_channels
    if "n_timepoints" not in dims_set:
        updates["n_timepoints"] = stream.n_timepoints
    if "n_classes" not in dims_set:
        updates["n_classes"] = stream.n_classes
    return replace(model, **updates) if updates else model


def cmd_gen(args) -> int:
    data = _load_json(args.config)
    config = _build_dataclass(StreamConfig, data, "stream config")
    config.validate()
    stream = gen_stream(config)
    save_stream(stream, args.out)
    print(
        f"wrote {len(stream)} subjects "
        f"({stream.n_channels} channels x {stream.n_timepoints} timepoints, "
        f"{stream.n_classes} classes, seed {stream.seed}) to {args.out}"
    )
    return 0


def cmd_align(args) -> int:
    """Whiten every subject of a stream against their own training split.

    Each subject's whitener comes from the mean covariance of their training
    trials; val and test trials are whitened with the same matrix. The
    aligned stream is written in the normal stream format.
    """
    stream = load_stream(args.stream)
    aligned_subjects = []
    for ds in stream:
        train_trials = [t.trial for t in ds.trials_for(Split.TRAIN)]
        report = compute_whitener(reference_covariance(train_trials), args.eps)
        aligned = tuple(
            replace(t, trial=report.whitener @ np.asarray(t.trial, dtype=np.float64))
            for t in ds.trials
        )
        aligned_subjects.append(replace(ds, trials=aligned))
        note = " (eigenvalue floor applied)" if report.eigenvalue_floor_applied else ""
        print(
            f"subject {ds.subject_id}: condition number "
            f"{report.condition_number:.3e}{note}"
        )
    save_stream(
        Stream(
            subjects=tuple(aligned_subjects),
            n_channels=stream.n_channels,
            n_timepoints=stream.n_timepoints,
            n_classes=stream.n_classes,
            seed=stream.seed,
        ),
        args.out,
    )
    print(f"wrote aligned stream to {args.out}")
    return 0


def _summarize(records_by_strategy: dict) -> list:
    rows = []
    for kind, records in records_by_strategy.items():
        accs = np.array([r.acc for r in records])
        bwts = [r.bwt for r in records if r.bwt is not None]
        row = {
            "strategy": kind,
            "runs": len(records),
            "acc_mean": float(accs.mean()),
            "acc_sd": float(accs.std(ddof=1)) if len(accs) > 1 else 0.0,
            "bwt_mean": float(np.mean(bwts)) if bwts else None,
            "bwt_sd": float(np.std(bwts, ddof=1)) if len(bwts) > 1 else 0.0,
        }
        rows.append(row)
    rows.sort(key=lambda r: -r["acc_mean"])
    return rows


def _format_cell(value) -> str:
    return "" if value is None else f"{value:.4f}"


def _bold(text: str) -> str:
    """Bold for interactive terminals; plain when piped or NO_COLOR is set."""
    if os.environ.get("NO_COLOR") is not None or not sys.stdout.isatty():
        return text
    return f"\x1b[1m{text}\x1b[0m"


def cmd_run(args) -> int:
    config = parse_experiment_config(_load_json(args.config))
    config.validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if config.generator is not None:
        stream = gen_stream(config.generator)
        save_stream(stream, out / "stream")
        logger.info("generated stream of %d subjects at %s", len(stream), out / "stream")
    else:
        stream_path = Path(config.stream_path)
        if not (stream_path / "manifest.json").is_file():
            raise ConfigError(f"stream path has no manifest.json: {stream_path}")
        stream = load_stream(stream_path)

    model_cfg = _fit_model_to_stream(config.model, config.model_dims_set, stream)
    model_cfg.validate()

    tasks = [
        (strategy, seed) for strategy in config.strategies for seed in config.seeds
    ]
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.jobs == 1 or len(tasks) == 1:
        outcomes = [
            _outcome(partial(run_continual, stream, strategy, model_cfg, config.train,
                             run_seed=seed))
            for strategy, seed in tasks
        ]
    else:
        with ProcessPoolExecutor(
            max_workers=args.jobs, initializer=_share_stream, initargs=(stream,)
        ) as pool:
            futures = [
                pool.submit(_run_task, strategy, model_cfg, config.train, seed)
                for strategy, seed in tasks
            ]
            outcomes = [_outcome(f.result) for f in futures]

    by_strategy: dict = {}
    failures = []
    for (strategy, seed), record in zip(tasks, outcomes):
        if isinstance(record, Exception):
            failures.append(f"{strategy.kind} seed {seed}: {record}")
            continue
        kind = strategy.kind.lower()
        report_path = out / f"report_{kind}_{seed}.json"
        report_path.write_text(
            json.dumps(record_to_json_dict(record), sort_keys=True, indent=2) + "\n"
        )
        (out / f"matrix_{kind}_{seed}.csv").write_text(matrix_to_csv(record.matrix))
        by_strategy.setdefault(strategy.kind, []).append(record)
        logger.info(
            "%s seed %d: acc %.4f bwt %s",
            strategy.kind,
            seed,
            record.acc,
            "n/a" if record.bwt is None else f"{record.bwt:+.4f}",
        )

    rows = _summarize(by_strategy)
    header = ["strategy", "runs", "acc_mean", "acc_sd", "bwt_mean", "bwt_sd"]
    csv_lines = [",".join(header)]
    print(_bold(
        f"{'strategy':<10} {'runs':>4} {'acc_mean':>9} {'acc_sd':>8} "
        f"{'bwt_mean':>9} {'bwt_sd':>8}"
    ))
    for row in rows:
        print(
            f"{row['strategy']:<10} {row['runs']:>4} "
            f"{row['acc_mean']:>9.4f} {row['acc_sd']:>8.4f} "
            f"{_format_cell(row['bwt_mean']):>9} {_format_cell(row['bwt_sd']):>8}"
        )
        csv_lines.append(
            ",".join(
                [
                    row["strategy"],
                    str(row["runs"]),
                    repr(row["acc_mean"]),
                    repr(row["acc_sd"]),
                    "" if row["bwt_mean"] is None else repr(row["bwt_mean"]),
                    "" if row["bwt_mean"] is None else repr(row["bwt_sd"]),
                ]
            )
        )
    (out / "summary.csv").write_text("\n".join(csv_lines) + "\n")
    print(f"reports written to {out}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 4 if failures else 0


def _load_reports(directory: Path) -> list:
    reports = []
    for path in sorted(directory.iterdir()):
        if _REPORT_RE.match(path.name):
            reports.append(json.loads(path.read_text()))
    return reports


def cmd_report(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    match = _CURVE_RE.match(args.curve)
    if not match:
        raise ConfigError(f"--curve must look like subject=3, got {args.curve!r}")
    subject = int(match.group(1))
    reports = _load_reports(directory)
    if not reports:
        raise ConfigError(f"no report_*.json files found in {directory}")

    curves: dict = {}
    n_subjects = None
    for report in reports:
        kind = report["strategy"]["kind"]
        matrix = np.array(
            [[np.nan if v is None else v for v in row] for row in report["matrix"]]
        )
        if n_subjects is None:
            n_subjects = matrix.shape[0]
        elif matrix.shape[0] != n_subjects:
            raise ConfigError(
                f"reports disagree on subject count "
                f"({matrix.shape[0]} vs {n_subjects})"
            )
        if not 1 <= subject <= n_subjects:
            raise ConfigError(
                f"subject index {subject} out of range [1, {n_subjects}]"
            )
        series = forgetting_curve(matrix, subject)
        curves.setdefault(kind, []).append([acc for _, acc in series])

    kinds = sorted(curves)
    stages = list(range(subject, n_subjects + 1))
    lines = ["stage," + ",".join(kinds)]
    for row_idx, stage in enumerate(stages):
        cells = [str(stage)]
        for kind in kinds:
            values = [runs[row_idx] for runs in curves[kind]]
            cells.append(repr(float(np.mean(values))))
        lines.append(",".join(cells))
    out_path = directory / f"curve_subject{subject}.csv"
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegcl",
        description="Continual decoding experiments on multichannel trial streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic subject stream")
    p_gen.add_argument("--config", required=True, help="StreamConfig JSON path")
    p_gen.add_argument("--out", required=True, help="output stream directory")
    p_gen.set_defaults(func=cmd_gen)

    p_align = sub.add_parser(
        "align", help="whiten each subject against their own training covariance"
    )
    p_align.add_argument("--stream", required=True, help="input stream directory")
    p_align.add_argument("--out", required=True, help="aligned stream directory")
    p_align.add_argument(
        "--eps", type=float, default=None, help="eigenvalue floor override"
    )
    p_align.set_defaults(func=cmd_align)

    p_run = sub.add_parser("run", help="run strategies over a stream")
    p_run.add_argument("--config", required=True, help="experiment config JSON path")
    p_run.add_argument("--out", required=True, help="output report directory")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel run slots")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="aggregate reports into curve CSVs")
    p_rep.add_argument("directory", help="directory holding report_*.json files")
    p_rep.add_argument(
        "--curve", default="subject=1", help="which subject's curve, e.g. subject=1"
    )
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StratificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StreamFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
