"""Subject-incremental continual-learning loop, strategies, and metrics.

Subjects arrive one at a time. At stage k the model (carrying the previous
stage's parameters) trains on subject k's training split plus whatever the
replay memory holds, then is evaluated on the held-out test splits of every
subject seen so far, filling row k of a lower-triangular accuracy matrix
a[j, i] = accuracy on subject i after training through subject j. ACC is the
mean of the final row; BWT is the mean change of earlier subjects' accuracy
between their own stage and the end.

Raw trials of past subjects are never touched after their stage: a stage
reads its own subject once, through the audited RunState._take, and then
works only on the arrays it fetched. Past subjects are only reachable
through the replay memory's snapshot and cached test arrays (frozen, and
aligned with their arrival-time whitener when alignment is on).

The accuracy matrix is a plain N x N float array with NaN marking the
undefined upper triangle.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .alignment import whiten_subject
from .alignment import compute_whitener, reference_covariance  # noqa: F401  traced by bench/
from .data import Split, Stream, SubjectDataset
from .errors import ConfigError, ShapeError, integer, one_of
from .ewc import DEFAULT_LAMBDA, LAMBDA, OnlineEwc
from .models import ModelConfig, build_model
from .replay import MemoryConfig, ReplayMemory, store_class_balanced
from .training import TrainConfig, evaluate_arrays, train


# Each strategy kind's mechanisms: whether it uses alignment, a memory and EWC.
STRATEGY_TABLE = {
    "SFT": (False, False, False),
    "ER": (False, True, False),
    "EWC": (False, False, True),
    "PCED": (True, True, False),
}
STRATEGY_KINDS = tuple(STRATEGY_TABLE)


@dataclass(frozen=True)
class Strategy:
    """A strategy kind plus the settings its mechanisms read.

    The kind's STRATEGY_TABLE row fixes the mechanisms (alignment_enabled,
    uses_memory, uses_ewc), and the loop dispatches on those, never on the
    kind label. memory applies to a kind that uses a memory and lam to one
    that uses EWC; lam is checked for every kind, as a MemoryConfig checks
    itself.
    """

    kind: str
    memory: MemoryConfig = MemoryConfig()
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self):
        one_of(STRATEGY_KINDS).check(self.kind, "strategy kind")
        if not isinstance(self.memory, MemoryConfig):
            raise ConfigError(f"strategy memory must be a MemoryConfig, got {self.memory!r}")
        LAMBDA.check(self.lam, "ewc lambda")

    @property
    def alignment_enabled(self) -> bool:
        return STRATEGY_TABLE[self.kind][0]

    @property
    def uses_memory(self) -> bool:
        return STRATEGY_TABLE[self.kind][1]

    @property
    def uses_ewc(self) -> bool:
        return STRATEGY_TABLE[self.kind][2]


def sft_strategy() -> Strategy:
    """Sequential fine-tuning: carry parameters forward, nothing else."""
    return Strategy("SFT")


def er_strategy(memory: MemoryConfig = MemoryConfig()) -> Strategy:
    """Experience replay: bounded exemplar memory, no alignment."""
    return Strategy("ER", memory)


def ewc_strategy(lam: float = DEFAULT_LAMBDA) -> Strategy:
    """Elastic weight consolidation: quadratic anchoring, no memory."""
    return Strategy("EWC", lam=lam)


def pced_strategy(memory: MemoryConfig = MemoryConfig()) -> Strategy:
    """Personalized continual decoding: per-subject alignment plus replay."""
    return Strategy("PCED", memory)


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

    final_params holds the float64 parameter vector after the last stage
    (useful for checkpointing and for comparing two runs exactly); it stays
    out of the JSON report, which carries the strategy, seeds, matrix,
    metrics and per-stage records.
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
    final_params: np.ndarray | None = None


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
        raise ShapeError("backward transfer needs at least 2 subjects")
    final = matrix[-1, : n - 1]
    own = np.diagonal(matrix)[: n - 1]
    if not (np.all(np.isfinite(final)) and np.all(np.isfinite(own))):
        raise ValueError("backward transfer needs a completed run")
    return float(np.mean(final - own))


def final_acc(matrix: np.ndarray) -> float:
    """Mean accuracy over all subjects after the final stage."""
    matrix = _check_square(matrix)
    last = matrix[-1]
    if not np.all(np.isfinite(last)):
        raise ValueError("final accuracy needs a complete last row")
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
            raise ValueError(f"matrix entry for stage {stage}, subject {subject} is undefined")
        series.append((stage, float(value)))
    return series


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
    stream: Stream,
    strategy: Strategy,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    run_seed: int,
) -> RunRecord:
    """Run one strategy over a subject stream; see the module docstring.

    run_seed is the run's one seed. derive_run_seeds splits it into the
    model-init seed and a training seed, from which the per-stage shuffle
    seeds, exemplar selection seeds and the memory's eviction seed are all
    derived.
    """
    state = RunState(stream, strategy, model_cfg, train_cfg, run_seed)
    for _ in stream:
        state.advance()
    return state.record()


class RunState:
    """One continual run over its own stream, between its stages. The
    constructor checks the stream (a Stream has at least one subject, each
    with train, val and test trials) against the model (trial shape and
    class count), checks the run seed and derives every seed; advance() runs
    the stage of the stream's next subject; record() returns the finished
    run's RunRecord."""

    def __init__(self, stream: Stream, strategy: Strategy, model_cfg: ModelConfig,
                 train_cfg: TrainConfig, run_seed: int):
        if not isinstance(stream, Stream):
            raise TypeError(f"run_continual needs a Stream, got {type(stream).__name__}")
        n = len(stream)
        # A Stream holds every subject to its trial shape.
        shape = (stream.n_channels, stream.n_timepoints)
        if shape != (model_cfg.n_channels, model_cfg.n_timepoints):
            raise ShapeError(
                f"stream trial shape {shape} does not match model input "
                f"{(model_cfg.n_channels, model_cfg.n_timepoints)}"
            )
        if stream.n_classes != model_cfg.n_classes:
            raise ShapeError(
                f"stream has {stream.n_classes} classes but the model "
                f"outputs {model_cfg.n_classes}"
            )
        integer(0).check(run_seed, "run seed")  # ExperimentConfig's rule for each seed
        run_seed = int(run_seed)
        model_seed, train_seed = derive_run_seeds(run_seed)
        self.shuffle_seeds, self.store_seeds, memory_seed = _derive_stage_seeds(train_seed, n)
        self.stream, self.strategy, self.train_cfg = stream, strategy, train_cfg
        self.seeds = {"stream": stream.seed, "model": model_seed,
                      "train": train_seed, "run": run_seed}

        self.model = build_model(model_cfg)
        self.params = self.model.init_params(model_seed)
        self.memory = ReplayMemory(
            capacity=strategy.memory.capacity, policy=strategy.memory.policy, seed=memory_seed
        ) if strategy.uses_memory else None
        self.ewc_state = OnlineEwc(lam=strategy.lam) if strategy.uses_ewc else None

        self.matrix = new_matrix(n)
        self.events, self.eval_cache = [], []
        # One entry per finished stage.
        self.stage_epochs, self.stage_memory, self.stage_seconds = [], [], []

    def _take(self, stage, ds, split):
        """The run's one read of a subject: (x, y, timestamps) of a split, logged."""
        mask = ds.split == split
        x, y, stamps = ds.block[mask], ds.labels[mask], ds.timestamps[mask]
        self.events.append(AccessEvent(stage, ds.subject_id, split.name.lower(), len(y)))
        return x, y, stamps

    def advance(self) -> None:
        """Run the next stage, on the stream's next subject."""
        stage = len(self.stage_epochs) + 1
        if stage > len(self.stream):
            raise ValueError(f"the run has finished all {len(self.stream)} stages")
        started = time.perf_counter()
        strategy, memory, ds = self.strategy, self.memory, self.stream[stage - 1]
        takes = (self._take(stage, ds, split) for split in Split)
        (train_x, train_y, stamps), (val_x, val_y, _), (test_x, test_y, _) = takes
        if strategy.alignment_enabled:
            # The whitener comes from the train split alone; val and test are whitened with it.
            (train_x, val_x, test_x), _ = whiten_subject(ds.subject_id, train_x,
                                                         train_x, val_x, test_x)

        fit_set = train_set = (train_x, train_y)
        replayed = memory.snapshot() if memory is not None else ()
        if replayed:
            fit_set = (
                np.concatenate([train_x, [t.trial for t in replayed]]),
                np.concatenate([train_y, [t.class_label for t in replayed]]),
            )
        penalty_hook = self.ewc_state.penalty_hook() if self.ewc_state is not None else None
        self.params, history = train(
            self.model, self.params, fit_set, (val_x, val_y), self.train_cfg,
            self.shuffle_seeds[stage - 1], penalty=penalty_hook,
        )
        self.stage_epochs.append(len(history))

        if self.ewc_state is not None:
            self.ewc_state.update(self.model, self.params, train_set)
        if memory is not None:
            fetched = SubjectDataset(ds.subject_id, train_x, train_y, stamps,
                                     np.full(len(train_y), Split.TRAIN))
            if memory.policy == "class_balanced":
                store_class_balanced(
                    memory, fetched, strategy.memory.per_class, self.store_seeds[stage - 1]
                )
            else:
                memory.offer_many(fetched.trials)
        self.stage_memory.append(len(memory) if memory is not None else 0)

        # Test blocks stay float32, so evaluation computes in float32 too.
        self.eval_cache.append((test_x, test_y))
        for i, test in enumerate(self.eval_cache):
            self.matrix[stage - 1, i] = evaluate_arrays(self.model, self.params, *test)
        self.stage_seconds.append(time.perf_counter() - started)

    def record(self) -> RunRecord:
        """The finished run's RunRecord; it holds no memory, cache or model."""
        return RunRecord(
            strategy=self.strategy,
            seeds=self.seeds,
            matrix=self.matrix,
            acc=final_acc(self.matrix),
            bwt=bwt(self.matrix) if len(self.matrix) >= 2 else None,
            stage_subjects=tuple(ds.subject_id for ds in self.stream),
            stage_epochs=tuple(self.stage_epochs),
            stage_memory=tuple(self.stage_memory),
            stage_seconds=tuple(self.stage_seconds),
            access_events=tuple(self.events),
            final_params=self.params,
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
    strategy = record.strategy
    return {
        "strategy": {
            "kind": strategy.kind,
            "alignment_enabled": strategy.alignment_enabled,
            "memory": asdict(strategy.memory) if strategy.uses_memory else None,
            "ewc": {"lambda": float(strategy.lam)} if strategy.uses_ewc else None,
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

