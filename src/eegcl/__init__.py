"""Continual decoding experiments on multichannel trial streams.

The package covers the full loop: synthetic subject streams with
controllable inter-subject shift, per-subject covariance whitening
(Euclidean alignment), small trainable classifiers, replay memories and
EWC regularization, a subject-incremental harness with forgetting metrics,
and a CLI that ties them together.
"""

from .alignment import AlignmentReport, align_subject, compute_whitener
from .alignment import reference_covariance, whiten_subject
from .data import (
    LabeledTrial,
    Split,
    Stream,
    StreamConfig,
    SubjectDataset,
    datasets_equal,
    decode_subject,
    encode_subject,
    gen_stream,
    load_stream,
    save_stream,
    split_subject,
    streams_equal,
    trials_equal,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    EmptyInputError,
    ShapeError,
    StratificationError,
    StreamFormatError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .ewc import FisherAnchor, OnlineEwc, fisher_diagonal, penalty
from .harness import (
    AccessEvent,
    EwcConfig,
    MemoryConfig,
    RunRecord,
    Strategy,
    bwt,
    er_strategy,
    ewc_strategy,
    final_acc,
    derive_run_seeds,
    foreign_reads,
    forgetting_curve,
    pced_strategy,
    run_continual,
    sft_strategy,
)
from .linalg import covariance, inv_sqrt, sym_eig, symmetrize
from .models import (
    ModelConfig,
    Params,
    build_model,
    cross_entropy,
    gradient,
    log_softmax,
    loss_and_gradient,
    softmax,
)
from .replay import ReplayMemory, store_class_balanced
from .training import TrainConfig, evaluate_arrays, stack_trials, train

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "align_subject",
    "compute_whitener",
    "reference_covariance",
    "whiten_subject",
    "LabeledTrial",
    "Split",
    "Stream",
    "StreamConfig",
    "SubjectDataset",
    "datasets_equal",
    "decode_subject",
    "encode_subject",
    "gen_stream",
    "load_stream",
    "save_stream",
    "split_subject",
    "streams_equal",
    "trials_equal",
    "ConfigError",
    "DegenerateInputError",
    "EmptyInputError",
    "ShapeError",
    "StratificationError",
    "StreamFormatError",
    "TrainingDivergedError",
    "UndefinedMetricError",
    "FisherAnchor",
    "OnlineEwc",
    "fisher_diagonal",
    "penalty",
    "AccessEvent",
    "EwcConfig",
    "MemoryConfig",
    "RunRecord",
    "Strategy",
    "bwt",
    "er_strategy",
    "ewc_strategy",
    "final_acc",
    "derive_run_seeds",
    "foreign_reads",
    "forgetting_curve",
    "pced_strategy",
    "run_continual",
    "sft_strategy",
    "covariance",
    "inv_sqrt",
    "sym_eig",
    "symmetrize",
    "ModelConfig",
    "Params",
    "build_model",
    "cross_entropy",
    "gradient",
    "log_softmax",
    "loss_and_gradient",
    "softmax",
    "ReplayMemory",
    "store_class_balanced",
    "TrainConfig",
    "evaluate_arrays",
    "stack_trials",
    "train",
]
