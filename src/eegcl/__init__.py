"""Continual decoding experiments on multichannel trial streams.

The package covers the full loop: synthetic subject streams with
controllable inter-subject shift, per-subject covariance whitening
(Euclidean alignment), small trainable classifiers, replay memories and
EWC regularization, a subject-incremental harness with forgetting metrics,
and a CLI that ties them together.

The package root gives the names of the README's Quick start and the error
types of its exit codes (ConfigError exits 2, StreamFormatError 3, the
numerical errors 4); everything else is imported from its module
(eegcl.data, eegcl.models, ...).
"""

from .data import StreamConfig, gen_stream
from .errors import (
    ConfigError,
    DegenerateInputError,
    StreamFormatError,
    TrainingDivergedError,
)
from .harness import forgetting_curve, pced_strategy, run_continual, sft_strategy
from .models import ModelConfig
from .training import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "StreamConfig",
    "ModelConfig",
    "TrainConfig",
    "gen_stream",
    "run_continual",
    "sft_strategy",
    "pced_strategy",
    "forgetting_curve",
    "ConfigError",
    "StreamFormatError",
    "TrainingDivergedError",
    "DegenerateInputError",
]
