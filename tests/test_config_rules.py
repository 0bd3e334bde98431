"""Every checked type, each config and Stream, checks its rule table when
it is built, and again when dataclasses.replace builds a changed copy; it
stores each integer it accepted as an int."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from eegcl import ConfigError, ModelConfig, StreamConfig, TrainConfig, gen_stream
from eegcl.data import Stream
from eegcl.harness import Strategy
from eegcl.replay import MemoryConfig

# Strategy has no default kind; SFT stands in for one.
SFT = partial(Strategy, kind="SFT")
# Stream has no defaults; a small generated stream's fields stand in for them.
_SMALL = gen_stream(StreamConfig(n_subjects=1, n_channels=2, n_timepoints=4,
                                 trials_per_subject=6, seed=3))
STREAM = partial(Stream, **{name: getattr(_SMALL, name)
                            for name in ("subjects", *Stream.RULES)})

TABLES = [(StreamConfig, "generator"), (ModelConfig, "model"), (TrainConfig, "train"),
          (MemoryConfig, "memory"), (STREAM, "stream")]

RULE_FIELDS = [
    *((cls, f"{section} {name}", name) for cls, section in TABLES
      for name in getattr(cls, "func", cls).RULES),
    (SFT, "strategy kind", "kind"),
    (SFT, "ewc lambda", "lam"),
]


@pytest.mark.parametrize("cls, label, name", RULE_FIELDS,
                         ids=[f"{getattr(cls, 'func', cls).__name__}.{name}"
                              for cls, _, name in RULE_FIELDS])
def test_a_config_checks_every_rule_when_built(cls, label, name):
    with pytest.raises(ConfigError, match=f"^{label} must be "):
        cls(**{name: object()})
    with pytest.raises(ConfigError, match=f"^{label} must be "):
        replace(cls(), **{name: object()})


# Each integer field of a checked type, with its default (or stand-in) value.
INTEGER_FIELDS = [
    (cls, name) for cls, _ in TABLES for name in getattr(cls, "func", cls).RULES
    if type(getattr(cls(), name)) is int
]


@pytest.mark.parametrize("cls, name", INTEGER_FIELDS,
                         ids=[f"{getattr(cls, 'func', cls).__name__}.{name}"
                              for cls, name in INTEGER_FIELDS])
def test_a_config_stores_a_numpy_integer_as_an_int(cls, name):
    value = getattr(cls(), name)
    assert type(getattr(cls(**{name: np.int64(value)}), name)) is int
    assert type(getattr(replace(cls(), **{name: np.int64(value)}), name)) is int


@pytest.mark.parametrize("memory", [{"capacity": 3}, None, (160, 10, "class_balanced")],
                         ids=["dict", "none", "tuple"])
def test_strategy_memory_must_be_a_memory_config(memory):
    with pytest.raises(ConfigError, match="^strategy memory must be a MemoryConfig, got "):
        Strategy("ER", memory=memory)
    with pytest.raises(ConfigError, match="^strategy memory must be a MemoryConfig, got "):
        replace(Strategy("ER"), memory=memory)


def test_model_hidden_from_a_json_list_equals_the_default():
    config = ModelConfig(hidden=[32])
    assert config.hidden == (32,)
    assert config == ModelConfig() and hash(config) == hash(ModelConfig())
    assert replace(ModelConfig(), hidden=[16, 8]).hidden == (16, 8)
