"""Subject-incremental continual-learning loop, strategies, and metrics.

Subjects arrive one at a time. At stage k the model (carrying the previous
stage's parameters) trains on subject k's training split plus whatever the
replay memory holds, then is evaluated on the held-out test splits of every
subject seen so far, filling row k of a lower-triangular accuracy matrix
a[j, i] = accuracy on subject i after training through subject j. ACC is the
mean of the final row; BWT is the mean change of earlier subjects' accuracy
between their own stage and the end.

Raw trials of past subjects are never touched after their stage: each
stage's fetches go through an audited accessor, and past subjects are only
reachable through the replay memory's snapshot and cached test arrays
(frozen, and aligned with their arrival-time whitener when alignment is on).

The accuracy matrix is a plain N x N float array with NaN marking the
undefined upper triangle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .alignment import compute_whitener, reference_covariance
from .data import Split, Stream, SubjectDataset
from .errors import ConfigError, EmptyInputError, ShapeError, UndefinedMetricError
from .ewc import OnlineEwc
from .models import ModelConfig, build_model
from .replay import ReplayMemory, store_class_balanced
from .training import TrainConfig, evaluate_arrays, stack_trials, train

STRATEGY_KINDS = ("SFT", "ER", "EWC", "PCED")

DEFAULT_MEMORY_CAPACITY = 160
DEFAULT_PER_CLASS = 10


@dataclass(frozen=True)
class MemoryConfig:
    capacity: int = DEFAULT_MEMORY_CAPACITY
    per_class: int = DEFAULT_PER_CLASS
    policy: str = "class_balanced"


@dataclass(frozen=True)
class EwcConfig:
    lam: float = 100.0


@dataclass(frozen=True)
class Strategy:
    """Which forgetting-mitigation mechanisms a run uses.

    The loop dispatches on the fields (alignment flag, memory config, ewc
    config), never on the kind label, so mechanisms compose orthogonally.
    The sft_strategy/er_strategy/ewc_strategy/pced_strategy factories build
    the four named configurations; validate() checks that a strategy's
    fields match its label's definition.
    """

    kind: str
    alignment_enabled: bool = False
    memory: MemoryConfig | None = None
    ewc: EwcConfig | None = None

    def validate(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "SFT" and (
            self.memory is not None or self.ewc is not None or self.alignment_enabled
        ):
            raise ConfigError("SFT uses no memory, no EWC, and no alignment")
        if self.kind == "ER" and (self.memory is None or self.alignment_enabled):
            raise ConfigError("ER needs a memory config and no alignment")
        if self.kind == "EWC" and (self.ewc is None or self.memory is not None):
            raise ConfigError("EWC needs an EWC config and no memory")
        if self.kind == "PCED" and (self.memory is None or not self.alignment_enabled):
            raise ConfigError("PCED needs a memory config and alignment enabled")


def sft_strategy() -> Strategy:
    """Sequential fine-tuning: carry parameters forward, nothing else."""
    return Strategy(kind="SFT")


def er_strategy(memory: MemoryConfig | None = None) -> Strategy:
    """Experience replay: bounded exemplar memory, no alignment."""
    return Strategy(kind="ER", memory=memory or MemoryConfig())


def ewc_strategy(lam: float = 100.0) -> Strategy:
    """Elastic weight consolidation: quadratic anchoring, no memory."""
    return Strategy(kind="EWC", ewc=EwcConfig(lam=lam))


def pced_strategy(memory: MemoryConfig | None = None) -> Strategy:
    """Personalized continual decoding: per-subject alignment plus replay."""
    return Strategy(kind="PCED", alignment_enabled=True, memory=memory or MemoryConfig())


@dataclass(frozen=True)
class AccessEvent:
    """One audited fetch of raw trials: which stage read whose split."""

    stage: int
    subject_id: int
    split: str
    n_trials: int


@dataclass
class RunRecord:
    """Everything one continual run produced.

    final_params holds the parameter vector after the last stage (useful
    for checkpointing and for comparing two runs exactly); it stays out of
    the JSON report, which carries only the metrics and telemetry.
    """

    strategy: Strategy
    seeds: dict
    matrix: np.ndarray
    acc: float
    bwt: float | None
    stage_subjects: tuple
    stage_epochs: tuple
    stage_memory: tuple
    stage_seconds: tuple
    access_events: tuple
    final_params: object | None = None


def new_matrix(n_subjects: int) -> np.ndarray:
    """N x N accuracy matrix with every entry still undefined (NaN)."""
    return np.full((n_subjects, n_subjects), np.nan)


def _check_square(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"accuracy matrix must be square, got shape {matrix.shape}")
    return matrix


def bwt(matrix: np.ndarray) -> float:
    """Backward transfer: mean over earlier subjects of (final accuracy
    minus the accuracy right after that subject's own stage). Negative
    values mean forgetting."""
    matrix = _check_square(matrix)
    n = matrix.shape[0]
    if n < 2:
        raise UndefinedMetricError("backward transfer needs at least 2 subjects")
    final = matrix[-1, : n - 1]
    own = np.diagonal(matrix)[: n - 1]
    if not (np.all(np.isfinite(final)) and np.all(np.isfinite(own))):
        raise UndefinedMetricError("backward transfer needs a completed run")
    return float(np.mean(final - own))


def final_acc(matrix: np.ndarray) -> float:
    """Mean accuracy over all subjects after the final stage."""
    matrix = _check_square(matrix)
    last = matrix[-1]
    if not np.all(np.isfinite(last)):
        raise UndefinedMetricError("final accuracy needs a complete last row")
    return float(np.mean(last))


def forgetting_curve(matrix: np.ndarray, subject: int) -> list:
    """Accuracy on one subject (1-based index) at each stage from their
    arrival to the end: [(stage, accuracy), ...]."""
    matrix = _check_square(matrix)
    n = matrix.shape[0]
    if not 1 <= subject <= n:
        raise ValueError(f"subject index must be in [1, {n}], got {subject}")
    series = []
    for stage in range(subject, n + 1):
        value = matrix[stage - 1, subject - 1]
        if not np.isfinite(value):
            raise UndefinedMetricError(
                f"matrix entry for stage {stage}, subject {subject} is undefined"
            )
        series.append((stage, float(value)))
    return series


def _aligned_copy(trials, whitener: np.ndarray) -> tuple:
    """The trials whitened by one matmul over the stacked split, each
    rounded to float32 as LabeledTrial stores it."""
    if not trials:
        return ()
    stacked = np.array([t.trial for t in trials], dtype=np.float64)
    aligned = np.matmul(whitener, stacked).astype(np.float32)
    return tuple(replace(t, trial=a) for t, a in zip(trials, aligned))


def _derive_stage_seeds(train_seed: int, n_stages: int):
    states = np.random.SeedSequence(train_seed).generate_state(2 * n_stages + 1)
    shuffle = [int(s) for s in states[:n_stages]]
    store = [int(s) for s in states[n_stages : 2 * n_stages]]
    memory_seed = int(states[2 * n_stages])
    return shuffle, store, memory_seed


def derive_run_seeds(run_seed: int) -> tuple:
    """Split one run seed into independent (model seed, train seed)."""
    state = np.random.SeedSequence(run_seed).generate_state(2)
    return int(state[0]), int(state[1])


def run_continual(
    stream,
    strategy: Strategy,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    run_seed: int | None = None,
) -> RunRecord:
    """Run one strategy over a subject stream; see the module docstring.

    The model seed comes from model_cfg; train_cfg's shuffle seed acts as
    the root training seed from which per-stage shuffle seeds, exemplar
    selection seeds, and the memory's eviction seed are all derived. When
    run_seed is given it overrides both: the model and training seeds are
    derived from it and the seed is recorded in the report.
    """
    if run_seed is not None:
        model_seed, train_seed = derive_run_seeds(run_seed)
        model_cfg = replace(model_cfg, seed=model_seed)
        train_cfg = replace(train_cfg, shuffle_seed=train_seed)
    subjects = list(stream)
    if not subjects:
        raise EmptyInputError("cannot run on an empty stream")
    shape = (model_cfg.n_channels, model_cfg.n_timepoints)
    n = len(subjects)
    shuffle_seeds, store_seeds, memory_seed = _derive_stage_seeds(
        train_cfg.shuffle_seed, n
    )

    model = build_model(model_cfg)
    params = model.init_params()
    memory = None
    if strategy.memory is not None:
        memory = ReplayMemory(
            capacity=strategy.memory.capacity,
            policy=strategy.memory.policy,
            seed=memory_seed,
        )
    ewc_state = OnlineEwc(lam=strategy.ewc.lam) if strategy.ewc is not None else None

    matrix = new_matrix(n)
    events = []
    eval_cache = []
    stage_epochs = []
    stage_memory = []
    stage_seconds = []
    stage_subjects = []

    def take(stage, ds, split):
        trials = ds.trials_for(split)
        events.append(
            AccessEvent(
                stage=stage,
                subject_id=ds.subject_id,
                split=split.name.lower(),
                n_trials=len(trials),
            )
        )
        return trials

    for stage in range(1, n + 1):
        started = time.perf_counter()
        ds = subjects[stage - 1]
        stage_subjects.append(ds.subject_id)
        train_raw = take(stage, ds, Split.TRAIN)
        val_raw = take(stage, ds, Split.VAL)
        test_raw = take(stage, ds, Split.TEST)
        for t in (*train_raw, *val_raw, *test_raw):
            if t.trial.shape != shape:
                raise ShapeError(
                    f"subject {ds.subject_id} trial shape {t.trial.shape} "
                    f"does not match model input {shape}"
                )

        if strategy.alignment_enabled:
            # The whitener comes from the training split alone; val and
            # test trials are whitened with it, never fed back into it.
            ref = reference_covariance([t.trial for t in train_raw])
            report = compute_whitener(ref)
            train_t = _aligned_copy(train_raw, report.whitener)
            val_t = _aligned_copy(val_raw, report.whitener)
            test_t = _aligned_copy(test_raw, report.whitener)
        else:
            train_t, val_t, test_t = train_raw, val_raw, test_raw

        replayed = memory.snapshot() if memory is not None else ()
        penalty_hook = ewc_state.penalty_hook() if ewc_state is not None else None
        stage_cfg = replace(train_cfg, shuffle_seed=shuffle_seeds[stage - 1])
        params, history = train(
            model,
            params,
            list(train_t) + list(replayed),
            list(val_t),
            stage_cfg,
            penalty=penalty_hook,
        )
        stage_epochs.append(len(history))

        if ewc_state is not None:
            ewc_state.update(model, params, train_t)
        if memory is not None:
            if memory.policy == "class_balanced":
                stage_ds = SubjectDataset(
                    subject_id=ds.subject_id,
                    trials=train_t,
                    split=(Split.TRAIN,) * len(train_t),
                )
                store_class_balanced(
                    memory, stage_ds, strategy.memory.per_class, store_seeds[stage - 1]
                )
            else:
                memory.offer_many(train_t)
        stage_memory.append(len(memory) if memory is not None else 0)

        eval_cache.append(stack_trials(test_t))
        for i in range(stage):
            matrix[stage - 1, i] = evaluate_arrays(model, params, *eval_cache[i])
        stage_seconds.append(time.perf_counter() - started)

    seeds = {
        "stream": getattr(stream, "seed", None),
        "model": model_cfg.seed,
        "train": train_cfg.shuffle_seed,
    }
    if run_seed is not None:
        seeds["run"] = run_seed
    return RunRecord(
        strategy=strategy,
        seeds=seeds,
        matrix=matrix,
        acc=final_acc(matrix),
        bwt=bwt(matrix) if n >= 2 else None,
        stage_subjects=tuple(stage_subjects),
        stage_epochs=tuple(stage_epochs),
        stage_memory=tuple(stage_memory),
        stage_seconds=tuple(stage_seconds),
        access_events=tuple(events),
        final_params=params,
    )


def foreign_reads(record: RunRecord) -> list:
    """Audit events that touched any subject other than the stage's own."""
    return [
        ev
        for ev in record.access_events
        if ev.subject_id != record.stage_subjects[ev.stage - 1]
    ]


def record_to_json_dict(record: RunRecord) -> dict:
    """JSON-ready dict; NaN matrix entries become null."""
    matrix = [
        [None if not np.isfinite(v) else float(v) for v in row]
        for row in record.matrix
    ]
    mem = None
    if record.strategy.memory is not None:
        mem = {
            "capacity": record.strategy.memory.capacity,
            "per_class": record.strategy.memory.per_class,
            "policy": record.strategy.memory.policy,
        }
    ewc_cfg = None
    if record.strategy.ewc is not None:
        ewc_cfg = {"lambda": record.strategy.ewc.lam}
    return {
        "strategy": {
            "kind": record.strategy.kind,
            "alignment_enabled": record.strategy.alignment_enabled,
            "memory": mem,
            "ewc": ewc_cfg,
        },
        "seeds": record.seeds,
        "n_subjects": int(record.matrix.shape[0]),
        "matrix": matrix,
        "acc": record.acc,
        "bwt": record.bwt,
        "stage_subjects": list(record.stage_subjects),
        "stage_epochs": list(record.stage_epochs),
        "stage_memory": list(record.stage_memory),
        "stage_seconds": list(record.stage_seconds),
    }


def matrix_to_csv(matrix: np.ndarray) -> str:
    """Lower-triangular accuracy matrix as CSV; undefined cells left empty."""
    matrix = _check_square(matrix)
    n = matrix.shape[0]
    lines = ["stage," + ",".join(f"subject{i}" for i in range(1, n + 1))]
    for j in range(n):
        cells = [str(j + 1)]
        for i in range(n):
            v = matrix[j, i]
            cells.append(repr(float(v)) if np.isfinite(v) else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
