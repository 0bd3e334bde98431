"""Command-line entry point: generate streams, run experiments, emit reports.

Subcommands:

- ``gen --config PATH --out DIR``: generate a synthetic subject stream from
  a StreamConfig JSON and write it to a stream directory.
- ``align --stream DIR --out DIR``: whiten each subject of a stream
  against their own training-split covariance and write the aligned stream.
- ``run --config PATH --out DIR [--jobs K]``: run an experiment config
  (strategies x seeds) over a stream, writing one JSON report and one
  accuracy-matrix CSV per run, each once it and every earlier run have
  finished, then an aggregate summary. The stream is generated or decoded
  once; every run, in process or in one of at most K pool workers (never
  more than there are runs), uses that decoded stream. A run that fails
  numerically is named on stderr and left out; the others are still
  written, and the command exits 4. A pool worker that dies stops the
  sweep with exit 3, naming the first run whose result never came.
- ``report DIR [--curve subject=I]``: aggregate existing reports into a
  per-strategy forgetting-curve CSV for one subject.

An --out that is or lies under a file, for ``align``, that is the --stream
directory, or, for ``run``, that holds an earlier run's reports, matrix CSVs
or summary, exits 2 before any work.

Exit codes: 0 success, 2 usage/config error, 3 I/O, format or memory
error, 4 numerical failure. Output is plain text; the summary header is
bolded only on interactive terminals, and a non-empty NO_COLOR disables
that too.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import logging
import os
import re
import sys
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .alignment import whiten_subject
from .alignment import compute_whitener, reference_covariance  # noqa: F401  traced by bench/
from .data import Split, Stream, StreamConfig, gen_stream, load_stream, read_json_object, save_stream
from .errors import (
    STRING,
    ConfigError,
    DegenerateInputError,
    StreamFormatError,
    TrainingDivergedError,
    integer,
    integers,
)
from .ewc import DEFAULT_LAMBDA
from .harness import (
    STRATEGY_KINDS,
    MemoryConfig,
    RunRecord,
    Strategy,
    forgetting_curve,
    record_to_json_dict,
    run_continual,
)
from .models import ModelConfig
from .training import TrainConfig

# Named, not __name__: under `python3 -m eegcl.cli` that would be __main__.
logger = logging.getLogger("eegcl.cli")

# Failures that exit 4; in `run` they fail one task, not the whole sweep.
_NUMERICAL_ERRORS = (TrainingDivergedError, DegenerateInputError)

_CURVE_RE = re.compile(r"^subject=([0-9]+)$")
_REPORT_RE = re.compile(r"^report_[a-z]+_[0-9]+\.json$")
# What an `eegcl run` writes into --out; a later run refuses a directory
# holding any of these rather than mix its outputs with an earlier run's.
_RUN_OUTPUT_RE = re.compile(r"^(report_.*\.json|matrix_.*\.csv|summary\.csv)$")


# The model dimensions that come from the stream; a config may only restate them.
_MODEL_DIMS = ("n_channels", "n_timepoints", "n_classes")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a stream source, strategies, the model's JSON object,
    a train config, and the seeds, one independent run per strategy per
    seed. It checks its stream source and seeds when built."""

    stream_path: str | None
    generator: StreamConfig | None
    strategies: tuple
    model: dict
    train: TrainConfig
    seeds: tuple = (0,)

    def __post_init__(self):
        self.validate()
        object.__setattr__(self, "seeds", tuple(self.seeds))

    # The body of __post_init__'s check, kept by name because bench/
    # calls parse_experiment_config(...).validate().
    def validate(self):
        """Check what parse_experiment_config copies raw from the JSON:
        the stream source and the seeds."""
        if (self.stream_path is None) == (self.generator is None):
            raise ConfigError(
                "stream must specify exactly one of 'path' or 'generator'"
            )
        if self.generator is None:
            STRING.check(self.stream_path, "stream path")
        integers(0).check(self.seeds, "seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be unique, got {list(self.seeds)}")


def _build_dataclass(cls, data: dict, what: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _parse_strategy(item) -> Strategy:
    """A strategy entry; the memory and lambda it gives are checked even
    when its kind does not use them. Only an ASCII kind is upper-cased, so
    that Strategy's check names any other kind as written."""
    if isinstance(item, str):
        item = {"kind": item}
    elif not isinstance(item, dict):
        raise ConfigError(f"strategy entries must be names or objects, got {item!r}")
    unknown = sorted(set(item) - {"kind", "memory", "lambda"})
    if unknown:
        raise ConfigError(f"unknown strategy keys: {unknown}")
    if "kind" not in item:
        raise ConfigError(f"strategy entry {item} needs a 'kind'")
    kind = item["kind"]
    return Strategy(kind.upper() if isinstance(kind, str) and kind.isascii() else kind,
                    _build_dataclass(MemoryConfig, item.get("memory", {}), "memory config"),
                    item.get("lambda", DEFAULT_LAMBDA))


def parse_experiment_config(data: dict) -> ExperimentConfig:
    """Map an experiment config's JSON object onto an ExperimentConfig. The
    configs it builds, this one included, check themselves; cmd_run builds
    the ModelConfig over the stream's dimensions."""
    unknown = sorted(set(data) - {"stream", "strategies", "model", "train", "seeds"})
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    stream = data.get("stream")
    if not isinstance(stream, dict):
        raise ConfigError("config needs a 'stream' object with 'path' or 'generator'")
    if set(stream) - {"path", "generator"}:
        raise ConfigError(f"unknown stream keys: {sorted(set(stream) - {'path', 'generator'})}")
    strategies = data.get("strategies")
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError("config needs a non-empty 'strategies' list")
    parsed = tuple(_parse_strategy(i) for i in strategies)
    kinds = [strategy.kind for strategy in parsed]
    if len(set(kinds)) != len(kinds):
        raise ConfigError(f"strategies must list each kind at most once, got {kinds}")
    model = data.get("model", {})
    if not isinstance(model, dict):
        raise ConfigError(f"model config must be a JSON object, got {type(model).__name__}")
    return ExperimentConfig(
        stream_path=stream.get("path"),
        generator=(
            _build_dataclass(StreamConfig, stream["generator"], "stream generator config")
            if "generator" in stream else None
        ),
        strategies=parsed,
        model=model,
        train=_build_dataclass(TrainConfig, data.get("train", {}), "train config"),
        seeds=data.get("seeds", ExperimentConfig.seeds),
    )


# The decoded stream of a `run` pool worker, set once by _share_stream.
_worker_stream: Stream | None = None


def _share_stream(stream: Stream) -> None:
    """Pool initializer: keep the parent's stream for this worker's tasks.
    A forked worker inherits it; a spawned one unpickles it once."""
    global _worker_stream
    _worker_stream = stream


def _run_task(strategy: Strategy, seed: int, model_cfg: ModelConfig, train_cfg: TrainConfig,
              stream: Stream | None = None) -> RunRecord | Exception:
    """One `run` task over stream, or over this pool worker's stream when
    none is given: its RunRecord, or the numerical error that stopped it,
    so that one failed run leaves the others' reports standing."""
    try:
        return run_continual(_worker_stream if stream is None else stream, strategy,
                             model_cfg, train_cfg, run_seed=seed)
    except _NUMERICAL_ERRORS as exc:
        return exc


def _check_out(out: Path, what: str = "--out") -> None:
    """Refuse, before any work, an output directory that is or lies under
    a file; what names it in the message."""
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        under = "" if nearest == out else f"is under {nearest}, which "
        raise ConfigError(f"{what} {out} {under}exists and is not a directory; "
                          "choose a new or empty directory")


def cmd_gen(args) -> int:
    _check_out(Path(args.out))
    data = read_json_object(args.config, "config", ConfigError)
    config = _build_dataclass(StreamConfig, data, "stream config")
    stream = gen_stream(config)  # config was checked when built, before any output
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
    _check_out(Path(args.out))
    if Path(args.out).resolve() == Path(args.stream).resolve():
        raise ConfigError(f"--out {args.out} is the --stream directory {args.stream}; "
                          "choose another directory for the aligned stream")
    stream = load_stream(args.stream)
    aligned_subjects = []
    for ds in stream:
        (block,), report = whiten_subject(ds.subject_id, ds.arrays(Split.TRAIN)[0], ds.block)
        aligned_subjects.append(replace(ds, block=block))
        note = " (eigenvalue floor applied)" if report.eigenvalue_floor_applied else ""
        print(
            f"subject {ds.subject_id}: condition number "
            f"{report.condition_number:.3e}{note}"
        )
    save_stream(replace(stream, subjects=aligned_subjects), args.out)
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
            # no BWT, no spread of it either
            "bwt_sd": (float(np.std(bwts, ddof=1)) if len(bwts) > 1 else 0.0) if bwts else None,
        }
        rows.append(row)
    rows.sort(key=lambda r: -r["acc_mean"])
    return rows


def _format_cell(value) -> str:
    return "" if value is None else f"{value:.4f}"


def _write_csv(path: Path, rows) -> None:
    """Write rows as CSV. None is an empty cell, and csv writes a float with
    str, which is its shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _bold(text: str) -> str:
    """Bold for interactive terminals; plain when piped or NO_COLOR is set
    and not empty."""
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[1m{text}\x1b[0m"


def cmd_run(args) -> int:
    out = Path(args.out)
    _check_out(out)
    if out.is_dir():
        earlier = sorted(p.name for p in out.iterdir() if _RUN_OUTPUT_RE.match(p.name))
        if earlier:
            raise ConfigError(f"--out {out} already holds an earlier run's outputs "
                              f"({earlier[0]}); choose a new or empty directory")
    integer(1).check(args.jobs, "--jobs")
    config = parse_experiment_config(read_json_object(args.config, "config", ConfigError))
    if config.generator is not None:
        _check_out(out / "stream", "generated stream directory")
        stream = gen_stream(config.generator)
    else:
        stream_path = Path(config.stream_path)
        if not (stream_path / "manifest.json").is_file():
            raise ConfigError(f"stream path has no manifest.json: {stream_path}")
        stream = load_stream(stream_path)
    dims = {name: getattr(stream, name) for name in _MODEL_DIMS}
    model_cfg = _build_dataclass(ModelConfig, {**dims, **config.model}, "model config")
    for name, value in dims.items():
        if config.model.get(name, value) != value:
            raise ConfigError(f"model {name} {config.model[name]!r} does not match "
                              f"the stream's {value}")

    out.mkdir(parents=True, exist_ok=True)
    if config.generator is not None:
        save_stream(stream, out / "stream")
        logger.info("generated stream of %d subjects at %s", len(stream), out / "stream")

    tasks = [(strategy, seed) for strategy in config.strategies for seed in config.seeds]
    by_strategy: dict = {}
    failures = []
    run = partial(_run_task, model_cfg=model_cfg, train_cfg=config.train)
    # What the outcomes raise once a pool worker has died (the OS killed it,
    # say); nothing in process.
    worker_died: tuple = ()
    with ExitStack() as stack:
        if args.jobs == 1 or len(tasks) == 1:
            outcomes = map(partial(run, stream=stream), *zip(*tasks))
        else:
            # Imported here: only this branch needs the pool and its
            # multiprocessing machinery.
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            worker_died = (BrokenProcessPool,)

            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(args.jobs, len(tasks)), initializer=_share_stream,
                initargs=(stream,),
            ))
            # Runs before the pool's own exit, so a loop that stops early (a
            # write that fails) cancels the tasks no worker has taken yet.
            stack.callback(pool.shutdown, cancel_futures=True)
            outcomes = pool.map(run, *zip(*tasks))
        # in task order: a run's files are written once every earlier task ends
        for strategy, seed in tasks:
            try:
                record = next(outcomes)
            except worker_died:
                # an OSError, so it exits 3 as a failed write does
                raise ChildProcessError(
                    f"a pool worker died before the {strategy.kind} seed {seed} run returned; "
                    "the runs before it are written, and no summary.csv"
                ) from None
            if isinstance(record, Exception):
                failures.append(f"{strategy.kind} seed {seed}: {record}")
                continue
            kind = strategy.kind.lower()
            report = record_to_json_dict(record)
            (out / f"report_{kind}_{seed}.json").write_text(
                json.dumps(report, sort_keys=True, indent=2) + "\n"
            )
            # the report's own cells, so that the JSON and the CSV cannot disagree
            n = report["n_subjects"]
            _write_csv(out / f"matrix_{kind}_{seed}.csv",
                       [["stage", *(f"subject{i}" for i in range(1, n + 1))],
                        *([stage, *row] for stage, row in enumerate(report["matrix"], 1))])
            by_strategy.setdefault(strategy.kind, []).append(record)
            logger.info("%s seed %d: acc %.4f bwt %s", strategy.kind, seed, record.acc,
                        "n/a" if record.bwt is None else f"{record.bwt:+.4f}")

    rows = _summarize(by_strategy)
    header = ["strategy", "runs", "acc_mean", "acc_sd", "bwt_mean", "bwt_sd"]
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
    _write_csv(out / "summary.csv", [header, *([row[name] for name in header] for row in rows)])
    print(f"reports written to {out}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 4 if failures else 0


def _is_cell(value) -> bool:
    """A report matrix entry: a JSON number a float can hold, or null."""
    return (value is None or isinstance(value, float)
            or (type(value) is int and abs(value) <= sys.float_info.max))


def _load_report(path: Path) -> tuple:
    """A report's strategy kind and its accuracy matrix, NaN for null; a
    malformed report, or a matrix no run can produce (no rows, an entry
    above the diagonal, a null on or below it, or an entry that is not a
    number in [0, 1], NaN included), is a ConfigError that names its file."""
    report = read_json_object(path, "report", ConfigError)
    strategy = report.get("strategy")
    if not isinstance(strategy, dict) or strategy.get("kind") not in STRATEGY_KINDS:
        raise ConfigError(f"{path}: report needs a strategy kind, one of {list(STRATEGY_KINDS)}")
    rows = report.get("matrix")
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and len(row) == len(rows) for row in rows)
            and all(_is_cell(v) for row in rows for v in row)):
        raise ConfigError(
            f"{path}: report matrix must be a non-empty square list of numbers and nulls"
        )
    matrix = np.array([[np.nan if v is None else v for v in row] for row in rows])
    # null alone is undefined; a NaN or infinite number is no accuracy
    defined = np.array([[v is not None for v in row] for row in rows], dtype=bool)
    values = matrix[defined]
    if not (np.array_equal(defined, np.tri(len(rows), dtype=bool))
            and ((values >= 0) & (values <= 1)).all()):
        raise ConfigError(f"{path}: report matrix must hold accuracies in [0, 1] on and below "
                          "the diagonal, and nulls above it")
    return strategy["kind"], matrix


def cmd_report(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    match = _CURVE_RE.match(args.curve)
    if not match:
        raise ConfigError(f"--curve must look like subject=3, got {args.curve!r}")
    subject = int(match.group(1))
    reports = [_load_report(p) for p in sorted(directory.iterdir()) if _REPORT_RE.match(p.name)]
    if not reports:
        raise ConfigError(f"no report_*.json files found in {directory}")

    curves: dict = {}
    n_subjects = None
    for kind, matrix in reports:
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
    means = [[float(np.mean([runs[i] for runs in curves[kind]])) for kind in kinds]
             for i in range(n_subjects - subject + 1)]
    out_path = directory / f"curve_subject{subject}.csv"
    _write_csv(out_path, [["stage", *kinds],
                          *([stage, *row] for stage, row in enumerate(means, subject))])
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
    if argv is None:
        # This is the process entry. Freezing what the imports created keeps
        # it out of every later collection, including the full ones at
        # interpreter exit, and keeps the collector from touching (and so
        # copying) those pages in forked pool workers.
        gc.freeze()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StreamFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
